import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sumprodlab import setops
from sumprodlab.errors import BadSpec, MixedKinds, RestrictNotSubset
from sumprodlab.ground import ModP
from sumprodlab.setops import GSet, combine, gset_modp, gset_rational

small_int_sets = st.lists(st.integers(min_value=-50, max_value=50).filter(lambda x: x != 0),
                          min_size=1, max_size=8, unique=True)

# Negative, fractional (so denominators differ between two draws) and past
# 2^63, as geo(q=2,n=64) is.
rationals = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(min_value=-2**70, max_value=2**70),
              st.integers(min_value=1, max_value=9)),
).filter(lambda x: x != 0)

# (modulus, prime): small primes, primes either side of 2^31, and lifts to p^2,
# whose sets hold units as the lifted subgroups do.
MODULI = [(7, 7), (101, 101), (2**31 - 1, 2**31 - 1), (2**31 + 11, 2**31 + 11),
          (49, 7), (101 * 101, 101)]


def decoded(table) -> list:
    """The table as a dict element -> count, decoded here rather than by
    CountTable.decode: k mod p, k / scale, or a (num, den) pair.
    Checks on the way that the keys come strictly ascending, int64 exactly
    while they fit, and that counts is int64."""
    keys = table.keys.tolist()
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    ints = table.scale is not None
    assert (table.keys.dtype == np.int64) == (ints and all(-2**63 < k < 2**63 for k in keys))
    assert table.counts.dtype == np.int64

    def element(k):
        if table.p is not None:
            return ModP(k, table.p)
        return Fraction(*k) if table.scale is None else Fraction(k, table.scale)

    return {element(k): c for k, c in zip(keys, table.counts.tolist())}


@st.composite
def ground_sets(draw, count=1):
    """count sets of one kind: rational, or residues mod one modulus."""
    if draw(st.booleans()):
        return [gset_rational(draw(st.lists(rationals, min_size=1, max_size=6)))
                for _ in range(count)]
    m, q = draw(st.sampled_from(MODULI))
    units = st.integers(min_value=1, max_value=m - 1).filter(lambda x: x % q != 0)
    return [gset_modp(draw(st.lists(units, min_size=1, max_size=6)), m) for _ in range(count)]


def test_gset_sorts_and_dedupes():
    A = gset_rational([3, 1, 2, 2, 1])
    assert A.values() == (Fraction(1), Fraction(2), Fraction(3))
    assert A.size == 3


def test_gset_rejects_zero_inputs():
    with pytest.raises(BadSpec):
        gset_rational([1, 0, 2])
    with pytest.raises(BadSpec):
        gset_modp([1, 7], 7)  # 7 is 0 mod 7


def test_gset_allow_zero_for_derived_sets():
    D = gset_rational([0, 1, -1], allow_zero=True)
    assert D.size == 3


def test_gset_modp_refuses_a_foreign_modulus():
    with pytest.raises(MixedKinds):
        gset_modp([ModP(1, 5)], 7)
    assert gset_modp([ModP(8, 49), 1], 49).ints == (1, 8)  # composite moduli stay allowed


@st.composite
def canonical_cases(draw):
    """(values, kind, modulus, prime): rationals with mixed signs and
    denominators and values past 2^63, or residues mod a prime or a prime square."""
    if draw(st.booleans()):
        return draw(st.lists(rationals, min_size=1, max_size=8)), setops.RATIONAL, None, True
    m, q = draw(st.sampled_from(MODULI))
    units = st.integers(min_value=1, max_value=m - 1).filter(lambda x: x % q != 0)
    return draw(st.lists(units, min_size=1, max_size=8)), setops.MODP, m, m == q


@given(canonical_cases())
@settings(max_examples=80, deadline=None)
def test_canonical_form_whatever_the_route(tmp_path_factory, case):
    vals, kind, m, prime = case
    A = GSet.from_elements(vals, kind=kind, p=m)
    # A op {0} and A op {1} give A back, through every scale the pair kernel
    # keys on: s for + and -, s^2 for *, (num, den) pairs for /
    zero = GSet.from_elements([0], allow_zero=True, kind=kind, p=m)
    one = GSet.from_elements([1], kind=kind, p=m)
    pairs = [(zero, "+"), (zero, "-"), (one, "*"), (one, "/")]
    routes = [combine(A, B, op).support_set() for B, op in pairs]
    routes += [setops.combined_set(A, B, op) for B, op in pairs]
    for B in routes:
        assert B == A and hash(B) == hash(A) and B.int_view() == A.int_view()
    want = sorted({ModP(v % m, m) for v in vals} if m else {Fraction(v) for v in vals},
                  key=(lambda x: x.value) if m else None)
    assert list(A.elements) == want
    assert GSet.from_elements(A.elements, kind=kind, p=m) == A
    assert A.int_view()[1] == (1 if m else math.lcm(*(x.denominator for x in want)))
    B = pickle.loads(pickle.dumps(A))
    assert B == A and B.int_view() == A.int_view() and B.elements == A.elements
    if prime:  # set files carry a prime modulus only
        path = tmp_path_factory.mktemp("sets") / "a.txt"
        setops.write_gset(A, path)
        assert setops.read_gset(path) == A


def test_modp_and_rational_do_not_mix():
    Q, R = gset_rational([1, 2]), gset_modp([1, 2], 5)
    for fn in (combine, setops.support_size, setops.combined_set):
        for op in "+-*/":
            with pytest.raises(MixedKinds):
                fn(Q, R, op)
            with pytest.raises(MixedKinds):
                fn(R, Q, op)


def test_unknown_op_is_rejected():
    for A in (gset_rational([1, 2, 3]), gset_modp([1, 2, 4], 7)):
        for fn in (combine, setops.support_size, setops.combined_set):
            with pytest.raises(BadSpec):
                fn(A, A, "^")


@given(ground_sets())
@settings(max_examples=60, deadline=None)
def test_combine_difference_matches_oracle(sets):
    (A,) = sets
    table = combine(A, A, "-")
    # keys on the integer view: every key is int / scale (or int mod p)
    assert decoded(table) == oracles.diff_counts(A.elements)
    assert table.total == A.size**2
    assert table.counts[table.index(np.array([0]))].tolist() == [A.size]  # 0 is key 0 on either view


# 2^61 - 1 has m * m >= 2^63, so its tables take the Python loop, not int64
KERNEL_MODULI = MODULI + [(2**61 - 1, 2**61 - 1)]


@st.composite
def residue_pairs(draw):
    """(A, B) of units mod one modulus, with |A||B| below m or, where the
    units allow it, at least m, so both counting branches of the kernel run."""
    m, q = draw(st.sampled_from(KERNEL_MODULI))
    rng = random.Random(draw(st.integers(0, 2**32)))
    units = range(1, m) if m == q else [x for x in range(1, m) if x % q]
    low = math.isqrt(m - 1) + 1 if draw(st.booleans()) and m <= 101 * 101 else 1
    return [gset_modp(rng.sample(units, draw(st.integers(low, min(low + 12, len(units))))), m)
            for _ in range(2)]


@given(st.one_of(ground_sets(count=2), residue_pairs()))
@example([gset_modp([1, 5], 2**31 + 11), gset_modp([3], 2**31 + 11)])  # m * m just past 2^62
@settings(max_examples=120, deadline=None)
def test_combine_all_ops_totals(sets):
    A, B = sets
    for op in "+-*/":
        want = oracles.pair_counts(A.elements, B.elements, op)
        table = combine(A, B, op)
        assert decoded(table) == want
        assert table.support_set().elements == tuple(sorted(want))
        assert table.total == A.size * B.size
        assert setops.support_size(A, B, op) == len(want)
        assert setops.combined_set(A, B, op).elements == tuple(sorted(want))


def test_residue_kernel_tier_is_m_squared_below_2_63():
    for m, _ in KERNEL_MODULI:
        A = gset_modp([1, 2], m)
        assert (setops.int64_counts(A, A, "+") is None) == (m * m >= 1 << 63)
    assert setops.int64_counts(gset_rational([1, 2]), gset_rational([3]), "/") is None


@pytest.mark.parametrize("m, na, nb", [
    (2**17 - 1, 3, (1 << 16) + 5),  # |B| > max(2^16, m) / 2: one row in each block
    (7919, 200, 1000),  # 65 rows a block, four blocks
    (2**31 - 1, 260, 260),  # |A||B| < m: blocks counted by np.unique, merged into the table
])
def test_residue_kernel_over_several_blocks(m, na, nb):
    rng = random.Random(3)
    A, B = (gset_modp(rng.sample(range(1, m), n), m) for n in (na, nb))
    assert A.size * B.size > setops._BLOCK  # more than one block, on either branch
    for op in "-*":
        want = oracles.pair_counts(A.elements, B.elements, op)
        table = combine(A, B, op)
        assert decoded(table) == want
        assert setops.support_size(A, B, op) == len(want)


def test_rational_kernel_over_several_blocks():
    # eight rows of B a block at first, then more as the table grows past _BLOCK keys
    rng = random.Random(4)
    A = gset_rational([Fraction(rng.randint(-10**9, 10**9), 2) for _ in range(20)])
    B = gset_rational(rng.sample(range(-10**6, 10**6), 7000))
    assert A.size * B.size > 2 * setops._BLOCK
    assert decoded(combine(A, B, "-")) == oracles.pair_counts(A.elements, B.elements, "-")
    # the Python loop, itself pinned to the oracles, is the second route for + and *
    for op in "+*":
        loop = Counter()
        scale = setops._pair_keys(A, B, op, loop)
        table = combine(A, B, op)
        assert table.scale == scale and dict(zip(table.keys.tolist(), table.counts.tolist())) == loop
        assert setops.combined_set(A, B, op) == GSet(tuple(sorted(loop)), scale)


def test_rational_kernel_tier_is_int64_keys():
    top = 1 << 62
    for A, B, op, fits in ((gset_rational([top, top - 5]), gset_rational([top - 1]), "+", True),
                           (gset_rational([top]), gset_rational([top]), "+", False),
                           (gset_rational([-top]), gset_rational([top - 1]), "-", True),
                           (gset_rational([3 << 30]), gset_rational([3 << 31]), "*", False),
                           # the bound refuses the int64 tier, yet every key fits in int64
                           (gset_rational([-top - 1, 3]), gset_rational([top + 1]), "+", False)):
        assert (setops.int64_counts(A, B, op) is not None) == fits
        want = oracles.pair_counts(A.elements, B.elements, op)
        assert decoded(combine(A, B, op)) == want


def test_combine_division_modp_uses_inverses():
    A = gset_modp([1, 2, 4], 7)
    table = combine(A, A, "/")
    want = {}
    for a in (1, 2, 4):
        for b in (1, 2, 4):
            d = a * pow(b, -1, 7) % 7
            want[d] = want.get(d, 0) + 1
    assert dict(zip(table.keys.tolist(), table.counts.tolist())) == want


def test_support_size_agrees_with_combined_set():
    A = gset_rational([1, 2, 3, 5])
    for op in "+-*/":
        assert setops.support_size(A, A, op) == setops.combined_set(A, A, op).size


def test_ap_doubling_worked_example():
    A = gset_rational(range(1, 11))
    assert setops.support_size(A, A, "+") == 19


@given(small_int_sets)
@settings(max_examples=30, deadline=None)
def test_write_read_round_trip(tmp_path_factory, vals):
    A = gset_rational(vals)
    path = tmp_path_factory.mktemp("sets") / "a.txt"
    setops.write_gset(A, path)
    assert setops.read_gset(path) == A


def test_write_read_modp(tmp_path):
    A = gset_modp([1, 2, 4], 7)
    path = tmp_path / "g.txt"
    setops.write_gset(A, path)
    B = setops.read_gset(path)
    assert B.kind == setops.MODP and B.p == 7 and B.values() == (1, 2, 4)


def test_invariant_union_collects_cosets():
    from sumprodlab.subgroups import subgroup_context

    ctx = subgroup_context(7, 3)
    Q = oracles.invariant_union(ctx, [0])
    assert set(Q.values()) == {1, 2, 4}
    Q2 = oracles.invariant_union(ctx, [0, 1])
    assert Q2.size == 6
    # invariance: multiplying by a subgroup element permutes Q
    members = set(Q2.values())
    assert {x * 2 % 7 for x in members} == members
