"""Ordered collinear triple counts on the square grid A x A.

collinear_triples counts the grid from A alone, by the ratio-orbit identity
in its docstring (about N^3/6 steps for an N-element A), with one kernel tier
per kind and magnitude: int64 below a span of 2^52, Python integers above it,
and residues mod p.  The test suite pins every tier against the quartic
anchor scan and the brute-force count in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TooLarge
from .setops import GSet

# collinear_triples refuses grids of N points with N^2 > TRIPLE_CAP (at most
# 131 elements of A).  Its ratio table could go further;
# raising the cap adds report rows, so it changes with the reports' pins.
TRIPLE_CAP = 300_000_000


def collinear_triples(A: GSet, *, include_degenerate: bool = False) -> int:
    """Ordered triples of pairwise-distinct collinear points of the grid A x A.

    Points off the axis-parallel lines are collinear when they share the ratio
    lam = (x2 - x1)/(x3 - x1) = (y2 - y1)/(y3 - y1), so for a grid X x Y,
    T = |X| (|Y|)_3 + |Y| (|X|)_3 + sum_lam R_X(lam) R_Y(lam), R counting an
    axis's ordered triples with ratio lam.  R is constant on the anharmonic
    orbit O of lam (its images as the triple is permuted), so with X = Y = A
    the sum is sum_O (36/|O|) U(O)^2, U counting A's 3-subsets in O.

    include_degenerate=True adds the triples with a repeated point (all of
    which are trivially collinear): + 3N(N-1) + N for an N-point grid.
    """
    m = A.size
    n = m * m
    if n * n > TRIPLE_CAP:
        raise TooLarge(f"grid of {n} points is above the triple cap ({n * n} > {TRIPLE_CAP})")
    if n == 0:
        return 0
    xs, _ = A.int_view()
    # vertical and horizontal lines: 2 |A| (|A|)_3
    t = 2 * n * (m - 1) * (m - 2)
    if A.p is not None:
        t += _triples_modp(xs, A.p)
    elif xs[-1] - xs[0] < (1 << 52):
        t += _triples_numpy(xs)
    else:
        t += _triples_bigint(xs)
    if include_degenerate:
        t += 3 * n * (n - 1) + n
    return t


def _slanted(vals, key, size) -> int:
    """sum_O (36/|O|) U(O)^2 over the anharmonic orbits O, where U(O) counts
    the 3-subsets x1 < x2 < x3 of the sorted vals whose orbit key
    key(x2 - x1, x3 - x1) is O, and size(k) = |O|."""
    table: dict = {}
    get = table.get
    for i in range(len(vals) - 2):
        x1 = vals[i]
        ds = [x - x1 for x in vals[i + 1:]]
        for b in range(1, len(ds)):
            w = ds[b]
            for u in ds[:b]:
                k = key(u, w)
                table[k] = get(k, 0) + 1
    return sum(36 // size(k) * u * u for k, u in table.items())


def _triples_numpy(xs) -> int:
    """Slanted triples of xs x xs, span below 2^52: orbit keys
    min(u, w - u)/w in lowest terms pack into one complex128 (both parts exact)."""
    a = np.asarray([x - xs[0] for x in xs], dtype=np.int64)
    n = len(a)
    j, k = np.triu_indices(n, 1)  # pairs j < k, grouped by j
    start = np.cumsum(np.arange(n, 0, -1)) - n  # first pair with j = i + 1
    parts = [np.zeros(0, complex)]
    for i in range(n - 2):
        u = a[j[start[i + 1]:]] - a[i]
        w = a[k[start[i + 1]:]] - a[i]
        m = np.minimum(u, w - u)
        g = np.gcd(m, w)
        parts.append(m // g + 1j * (w // g))
    keys, u = np.unique(np.concatenate(parts), return_counts=True)
    half = u[keys == 1 + 2j]  # the orbit {-1, 2, 1/2} has 3 elements, weight 12
    return 6 * (int(u @ u) + int(half @ half))


def _triples_bigint(xs) -> int:
    """Slanted triples of xs x xs with Python integers of any size: the orbit
    key min(u, w - u)/w in lowest terms is stored as one integer (u' << s) | w'."""
    s = (xs[-1] - xs[0]).bit_length()
    half = 1 << s | 2

    def key(u, w):
        m = min(u, w - u)
        g = math.gcd(m, w)
        return (m // g) << s | (w // g)

    return _slanted(xs, key, lambda k: 3 if k == half else 6)


def _triples_modp(xs, p: int) -> int:
    """Slanted triples of xs x xs over F_p: the orbit key of lam = u/w is the
    least residue in its orbit, and |O| (1, 2, 3 or 6) is read off the orbit."""
    inv = {b - a: pow(b - a, -1, p) for a in xs for b in xs if a < b}
    key_of, size = {}, {}  # lam -> orbit key, orbit key -> |O|

    def key(u, w):
        lam = u * inv[w] % p
        k = key_of.get(lam)
        if k is None:
            li, lj = pow(lam, -1, p), pow(1 - lam, -1, p)
            orbit = {lam, li, (1 - lam) % p, lj, -lam * lj % p, (1 - li) % p}
            k = min(orbit)
            size[k] = len(orbit)
            key_of.update(dict.fromkeys(orbit, k))
        return k

    return _slanted(xs, key, size.__getitem__)
