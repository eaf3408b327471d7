import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sumprodlab import incidence
from sumprodlab.errors import TooLarge
from sumprodlab.setops import gset_modp, gset_rational

tiny_sets = st.lists(st.integers(min_value=-9, max_value=9).filter(lambda x: x != 0),
                     min_size=2, max_size=4, unique=True)


def test_grid_2x2_line_profile():
    A = gset_rational([1, 2])
    prof = incidence.line_profile(A)
    # frozen: the 2x2 grid carries 6 lines through >= 2 points
    assert len(prof.counts) == 6
    assert prof.pair_sum() == 4 * 3


def test_grid_3x3_line_count():
    A = gset_rational([1, 2, 3])
    prof = incidence.line_profile(A)
    lines3 = [k for k in prof.counts.values() if k == 3]
    # frozen: 8 full lines (3 rows, 3 columns, 2 diagonals)
    assert len(lines3) == 8
    assert incidence.collinear_triples(A) == 48
    assert oracles.collinear_triples(A.values()) == 48


def test_triples_with_repeats_convention():
    A = gset_rational([1, 2, 3])
    n = 9  # grid points
    got = incidence.collinear_triples(A, include_degenerate=True)
    assert got == 48 + 3 * n * (n - 1) + n
    assert got == oracles.collinear_triples(A.values(), include_degenerate=True)


@given(tiny_sets, tiny_sets)
@settings(max_examples=25, deadline=None)
def test_triples_match_oracle_rational(xvals, yvals):
    X, Y = gset_rational(xvals), gset_rational(yvals)
    got = incidence.collinear_triples(X, Y)
    from fractions import Fraction

    want = oracles.collinear_triples([Fraction(v) for v in xvals],
                                     [Fraction(v) for v in yvals])
    assert got == want


def test_triples_match_oracle_modp():
    X = gset_modp([1, 2, 4], 7)
    got = incidence.collinear_triples(X)
    assert got == oracles.collinear_triples(X.values(), p=7)


def test_triples_modp_full_group():
    X = gset_modp(list(range(1, 7)), 7)
    assert incidence.collinear_triples(X) == oracles.collinear_triples(
        X.values(), p=7)


def test_big_coordinates_use_exact_kernel():
    # spread >= 2^60 forces the arbitrary-precision path; answers must agree
    # with the oracle regardless of which kernel runs
    vals = [1, 2**61, 3 * 2**61, 5]
    X = gset_rational(vals)
    assert incidence.collinear_triples(X) == oracles.collinear_triples(
        X.values())


def test_fractional_coordinates():
    from fractions import Fraction

    vals = [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
    X = gset_rational(vals)
    # an AP with rational step is affinely a 3x3 integer grid
    assert incidence.collinear_triples(X) == 48


def test_pair_sum_identity_always():
    for vals in ([1, 2, 3], [1, 2, 4, 8], [3, 5, 11]):
        A = gset_rational(vals)
        prof = incidence.line_profile(A)
        n = prof.grid_points
        assert prof.pair_sum() == n * (n - 1)


def test_ops_guard_raises():
    A = gset_rational(range(1, 133))  # (132^2)^2 anchor steps, above TRIPLE_CAP
    with pytest.raises(TooLarge):
        incidence.collinear_triples(A)


def test_line_profile_grid_guard():
    A = gset_rational(range(1, 400))
    with pytest.raises(TooLarge):
        incidence.line_profile(A)
