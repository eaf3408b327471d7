import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sumprodlab import energy
from sumprodlab.errors import RestrictNotSubset, TooLarge
from sumprodlab.families import generate_from_string
from sumprodlab.setops import gset_modp, gset_rational

A123 = gset_rational([1, 2, 3])

small_sets = st.lists(st.integers(min_value=-30, max_value=30).filter(lambda x: x != 0),
                      min_size=2, max_size=7, unique=True)


# The {1,2,3} values below were computed once by the brute-force oracles and
# are pinned so a regression in the oracle itself cannot slip through.

def test_energy_worked_example():
    assert energy.energy_pair(A123) == 19
    assert oracles.energy(A123.values()) == 19


def test_energy_modp_worked_example():
    G = gset_modp([1, 2, 4], 7)
    assert energy.energy_pair(G) == 15
    assert oracles.energy(G.values(), p=7) == 15


def test_moment3_worked_example():
    assert energy.moment_energy(A123, 3) == 45
    assert oracles.moment3(A123.values()) == 45


def test_fractional_moment_worked_example():
    got = energy.moment_energy(A123, Fraction(3, 2))
    want = math.fsum(c**1.5 for c in (1, 2, 3, 2, 1))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(12.853007, abs=1e-6)


def test_t3_worked_example():
    assert energy.t_k(A123, 3) == 141
    assert oracles.t_k(A123.values(), 3) == 141


def test_t2_equals_energy():
    A = gset_rational([1, 2, 3, 5, 8])
    assert energy.t_k(A, 2) == energy.energy_pair(A)


def test_t2_worked_example_pair_count():
    A = gset_rational([1, 2])
    assert energy.t_k(A, 2) == 6
    assert oracles.t_k([1, 2], 2) == 6


def test_sigma_worked_example():
    assert energy.sigma_sum(A123) == 319
    assert oracles.sigma(A123.values()) == 319
    assert oracles.sigma_tuples(A123.values()) == 319


def test_sigma_smaller_example():
    A = gset_rational([1, 2])
    assert energy.sigma_sum(A) == 32
    assert oracles.sigma_tuples([1, 2]) == 32


@given(small_sets)
@settings(max_examples=40, deadline=None)
def test_energy_matches_oracle(vals):
    A = gset_rational(vals)
    assert energy.energy_pair(A) == oracles.energy([Fraction(v) for v in vals])


@given(small_sets)
@settings(max_examples=15, deadline=None)
def test_sigma_matches_pair_oracle(vals):
    A = gset_rational(vals)
    assert energy.sigma_sum(A) == oracles.sigma([Fraction(v) for v in vals])


@given(small_sets)
@settings(max_examples=20, deadline=None)
def test_triple_count_matches_oracle(vals):
    A = gset_rational(vals)
    assert energy.difference_triple_count(A) == oracles.difference_triples(
        [Fraction(v) for v in vals])


def test_triple_count_worked_example():
    assert energy.difference_triple_count(A123) == 19
    assert 19 >= Fraction(3**6, 45)  # |A|^6 <= E_3 * triples on this set


def test_triple_count_restricted():
    D0 = gset_rational([0], allow_zero=True)
    got = energy.difference_triple_count(A123, restrict=D0)
    # d - 0 in D for every d in D
    assert got == 5
    with pytest.raises(RestrictNotSubset):
        energy.difference_triple_count(A123, restrict=gset_rational([7]))
    # fractional set: the restriction's scale (1 or 6) differs from the table's (6)
    half = [Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)]
    for R in ([1], [1, Fraction(-5, 6)]):
        got = energy.difference_triple_count(gset_rational(half), restrict=gset_rational(R))
        assert got == oracles.difference_triples(half, [Fraction(r) for r in R])


def test_sigma_guard():
    A = generate_from_string("geo(q=2,n=72)")  # |A-A| = 5,113
    assert energy.difference_table(A).support_size() > energy.SIGMA_SUPPORT_CAP
    with pytest.raises(TooLarge):
        energy.sigma_sum(A)


def test_popular_differences_majority_mass():
    for vals in ([1, 2, 3], [1, 2, 4, 8], list(range(1, 12))):
        A = gset_rational(vals)
        pop = energy.popular_differences(A)
        assert pop.delta == Fraction(A.size**2, 2 * energy.difference_table(A).support_size())
        assert 2 * pop.mass >= A.size**2
        table = energy.difference_table(A)
        assert pop.mass == sum(table.get(d) for d in pop.members.elements)


def test_dyadic_level_covers_energy():
    A = gset_rational([1, 2, 3, 5, 8, 13])
    lvl = energy.dyadic_energy_level(A)
    table = energy.difference_table(A)
    classes = {c.bit_length() for c in table.entries.values()}
    assert energy.energy_pair(A) <= lvl.mass * len(classes)
    assert lvl.delta in {1 << (c - 1) for c in classes}


def test_tail_decompose_partitions_energy():
    A = gset_rational([1, 2, 3, 4, 7, 11])
    e = energy.energy_pair(A)
    for delta in (1, 2, 3, 10):
        low, high, heavy = energy.tail_decompose(A, delta)
        assert low + high == e
        table = energy.difference_table(A)
        assert heavy == sum(1 for c in table.entries.values() if c > delta)
