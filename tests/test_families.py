from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumprodlab import families
from sumprodlab.errors import BadSpec
from sumprodlab.families import Lcg, generate_from_string, parse_family


def test_lcg_is_the_documented_recurrence():
    rng = Lcg(1)
    want = (1 * 6364136223846793005 + 1442695040888963407) % 2**64
    assert rng.next_u64() == want


@given(st.integers(0, 2**64 - 1), st.sampled_from([1, 2, 3, 1023, 1024, 1025, 48000]))
@example(0, 48000)
@example(1, 1025)
@example(2**64 - 1, 1024)
@settings(max_examples=30, deadline=None)
def test_lcg_block_is_successive_draws(seed, k):
    rng, steps = Lcg(seed), Lcg(seed)
    block = rng.block(k)
    assert block.dtype == np.uint64
    assert block.tolist() == [steps.next_u64() for _ in range(k)]
    assert rng.state == steps.state and rng.next_u64() == steps.next_u64()


def test_lcg_empty_block_draws_nothing():
    rng = Lcg(7)
    assert rng.block(0).shape == (0,) and rng.state == 7


def test_lcg_range_is_reproducible():
    rng = Lcg(42)
    first = [rng.next_range(1, 100) for _ in range(8)]
    rng2 = Lcg(42)
    assert [rng2.next_range(1, 100) for _ in range(8)] == first
    assert all(1 <= x <= 100 for x in first)


def test_parse_round_trips_through_label():
    for text in ("geo(q=2,n=8)", "geo(q=3/2,n=12)", "ap(n=16)",
                 "rand(n=20,seed=7)", "subgroup(p=7,t=3)",
                 "union(geo(q=2,n=6),ap(n=7,start=100))"):
        spec = parse_family(text)
        again = parse_family(spec.label())
        assert again == spec


def test_power_notation():
    spec = parse_family("rand(n=5,max=10^4)")
    assert spec.get("max") == 10_000
    A = generate_from_string("geo(q=3^-1,n=3)")
    assert A.values() == (Fraction(1, 9), Fraction(1, 3), Fraction(1))


def test_geometric_generation():
    A = generate_from_string("geo(q=2,n=5)")
    assert A.values() == (Fraction(1), Fraction(2), Fraction(4), Fraction(8), Fraction(16))
    B = generate_from_string("geo(q=3/2,n=3)")
    assert B.values() == (Fraction(1), Fraction(3, 2), Fraction(9, 4))


def test_arithmetic_generation_avoids_zero():
    A = generate_from_string("ap(n=4,start=5,step=3)")
    assert A.values() == (Fraction(5), Fraction(8), Fraction(11), Fraction(14))
    with pytest.raises(BadSpec):
        generate_from_string("ap(n=5,start=-2)")


def test_random_generation_deterministic_and_distinct():
    A = generate_from_string("rand(n=12,seed=9)")
    B = generate_from_string("rand(n=12,seed=9)")
    assert A == B
    assert A.size == 12
    C = generate_from_string("rand(n=12,seed=10)")
    assert C != A


def test_union_merges_and_dedupes():
    U = generate_from_string("union(geo(q=2,n=4),ap(n=4))")
    # {1,2,4,8} union {1,2,3,4}
    assert U.values() == tuple(Fraction(v) for v in (1, 2, 3, 4, 8))


def test_union_rejects_mixed_kinds():
    with pytest.raises(BadSpec):
        parse_family("union(geo(q=2,n=4),subgroup(p=7,t=3))")


def test_subgroup_family():
    A = generate_from_string("subgroup(p=7,t=3)")
    assert A.values() == (1, 2, 4)


def test_malformed_specs_rejected():
    for text in ("geo", "geo(q=2)", "nope(n=3)", "geo(q=2,n=3,extra=1)",
                 "geo(q=1,n=3)", "union(ap(n=3))", "ap(n=5/2)", "rand(n=4,seed=1/2)",
                 "subgroup(p=7,t=3/2)", "geo(q=0^-1,n=3)"):
        with pytest.raises(BadSpec):
            parse_family(text)
