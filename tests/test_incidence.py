from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sumprodlab import incidence
from sumprodlab.errors import TooLarge
from sumprodlab.setops import gset_modp, gset_rational

tiny_sets = st.lists(st.integers(min_value=-9, max_value=9).filter(lambda x: x != 0),
                     min_size=2, max_size=4, unique=True)


def test_grid_3x3_line_count():
    A = gset_rational([1, 2, 3])
    # frozen: 8 full lines (3 rows, 3 columns, 2 diagonals), 3! orders each
    assert incidence.collinear_triples(A) == 8 * 6 == 48
    assert oracles.collinear_triples(A.values()) == 48


def test_triples_with_repeats_convention():
    A = gset_rational([1, 2, 3])
    n = 9  # grid points
    got = incidence.collinear_triples(A, include_degenerate=True)
    assert got == 48 + 3 * n * (n - 1) + n
    assert got == oracles.collinear_triples(A.values(), include_degenerate=True)


@given(tiny_sets)
@settings(max_examples=25, deadline=None)
def test_triples_match_oracle_rational(vals):
    got = incidence.collinear_triples(gset_rational(vals))
    assert got == oracles.collinear_triples([Fraction(v) for v in vals])


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
    vals = [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
    X = gset_rational(vals)
    # an AP with rational step is affinely a 3x3 integer grid
    assert incidence.collinear_triples(X) == 48


def test_ops_guard_raises():
    A = gset_rational(range(1, 133))  # (132^2)^2 > TRIPLE_CAP
    with pytest.raises(TooLarge):
        incidence.collinear_triples(A)
    assert incidence.collinear_triples(gset_rational(range(1, 132))) > 0  # (131^2)^2 is not


@st.composite
def rational_axes(draw):
    """Sets of (offset + q k)/den, k in 0..12, plus the point at offset + span:
    integer spans either side of 2^52 (the complex-packed table), 2^60, 2^61
    and 2^63, and small ones, with negative offsets and fractional elements."""
    span = (1 << draw(st.sampled_from([4, 52, 60, 61, 63]))) + draw(st.integers(-2, 2))
    offset = draw(st.integers(-2**64, 2**64))
    den = draw(st.sampled_from([1, 2, 3, 6]))
    q = span // 12
    ks = draw(st.lists(st.integers(0, 12), max_size=12, unique=True))
    tail = [span] if draw(st.booleans()) else []
    return gset_rational(Fraction(offset + v, den) for v in [q * k for k in ks] + tail
                         if offset + v != 0)


@given(rational_axes())
@example(gset_rational([-5, Fraction(1, 3), 1, 2**61, 2**62]))  # bigint keys, mixed denominators
@example(gset_rational([2**64 + k for k in (1, 2, 3, 5, 8)]))  # small span, huge values
@settings(max_examples=80, deadline=None)
def test_triples_match_references_rational(A):
    want = oracles.anchor_triples(A.values())
    assert incidence.collinear_triples(A) == want
    if A.size <= 5:
        assert oracles.collinear_triples(A.values()) == want


@st.composite
def modp_axes(draw):
    """Residue sets c + d k mod p, k small; p = 3 gives orbits of size 1,
    p = 7 orbits of size 2 (lam in {3, 5}), and progressions size 3."""
    p = draw(st.sampled_from([3, 7, 13, 2**31 - 1, 2**31 + 11]))
    c, d = draw(st.integers(0, p - 1)), draw(st.integers(1, p - 1))
    ks = draw(st.lists(st.integers(0, 12), max_size=6, unique=True))
    return p, gset_modp({(c + d * k) % p for k in ks}, p, allow_zero=True)


@given(modp_axes())
@example((3, gset_modp([0, 1, 2], 3, allow_zero=True)))  # orbit {2}, |O| = 1
@example((7, gset_modp([0, 1, 3], 7, allow_zero=True)))  # orbit {3, 5}, |O| = 2
@example((13, gset_modp([1, 2, 3, 5], 13)))  # orbit {-1, 2, 1/2}, |O| = 3
@settings(max_examples=80, deadline=None)
def test_triples_match_oracle_modp_orbits(case):
    p, A = case
    want = oracles.collinear_triples(A.values(), p=p)
    assert incidence.collinear_triples(A) == want
