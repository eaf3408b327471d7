"""Lines through Cartesian grids: canonical line keys, k-point profiles and
ordered collinear triple counts.

Works over the rationals (keys are integer triples with cleared denominators)
and over F_p (keys are scaled so the first nonzero coefficient is 1).

Two independent routes exist on purpose: line_profile builds the full
line -> k table from pair counts for any grid X x Y, while collinear_triples
counts the square grid A x A from A alone, by the ratio-orbit identity in its
docstring (about N^3/6 steps for an N-element A).  The test suite pins them against each other, against the
quartic anchor scan and against brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CrossCheckMismatch,
    MixedKinds,
    TooLarge,
    ZeroCoefficient,
)
from .setops import MODP, GSet

# line_profile refuses grids above GRID_CAP points or PAIR_CAP point pairs;
# collinear_triples refuses grids of N points with N^2 > TRIPLE_CAP (at most
# 131 elements of A).  Its ratio table could go further;
# raising the cap adds report rows, so it changes with the reports' pins.
GRID_CAP = 100_000
PAIR_CAP = 20_000_000
TRIPLE_CAP = 300_000_000


@dataclass(frozen=True, order=True)
class LineKey:
    """Canonical line a*x + b*y = c.

    Rational grids: a, b, c integers, gcd(a, b, c) = 1, first nonzero of
    (a, b) positive.  Mod-p grids: coefficients reduced mod p and scaled so
    the first nonzero of (a, b) is 1; the modulus rides along in p.
    """

    a: int
    b: int
    c: int
    p: int | None = None


def _canon_rational(a: int, b: int, c: int) -> tuple[int, int, int]:
    if a == 0 and b == 0:
        raise ZeroCoefficient("a and b cannot both vanish")
    g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
    if g:
        a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return a, b, c


def _canon_modp(a: int, b: int, c: int, p: int) -> tuple[int, int, int]:
    a, b, c = a % p, b % p, c % p
    if a:
        s = pow(a, -1, p)
        return 1, (b * s) % p, (c * s) % p
    if b:
        s = pow(b, -1, p)
        return 0, 1, (c * s) % p
    raise ZeroCoefficient("a and b cannot both vanish mod p")


@dataclass
class LineProfile:
    """All lines meeting a grid in k >= 2 points, with exact k per line."""

    counts: dict  # LineKey -> k
    x_size: int
    y_size: int

    @property
    def grid_points(self) -> int:
        return self.x_size * self.y_size

    def pair_sum(self) -> int:
        return sum(k * (k - 1) for k in self.counts.values())

    def ordered_triples(self, *, include_degenerate: bool = False) -> int:
        t = sum(k * (k - 1) * (k - 2) for k in self.counts.values())
        if include_degenerate:
            n = self.grid_points
            t += 3 * n * (n - 1) + n
        return t


def line_profile(X: GSet, Y: GSet | None = None) -> LineProfile:
    """Exact line -> k table for the grid X x Y (Y defaults to X)."""
    if Y is None:
        Y = X
    if X.kind != Y.kind or X.p != Y.p:
        raise MixedKinds("grid axes must share a kind")
    if X.size == 0 or Y.size == 0:
        return LineProfile({}, X.size, Y.size)
    n = X.size * Y.size
    if n > GRID_CAP:
        raise TooLarge(f"grid has {n} points, cap is {GRID_CAP}")
    pairs = (X.size * (X.size - 1) // 2) * Y.size * Y.size
    if pairs > PAIR_CAP:
        raise TooLarge(f"about {pairs} point pairs, cap is {PAIR_CAP}")
    if X.kind == MODP:
        return _profile_modp(X, Y)
    return _profile_rational(X, Y)


def _profile_rational(X: GSet, Y: GSet) -> LineProfile:
    xs, sx = X.int_view()
    ys, sy = Y.int_view()
    nx, ny = len(xs), len(ys)
    counts: dict[LineKey, int] = {}
    if ny >= 2:
        for xv in X.elements:
            counts[LineKey(*_canon_rational(xv.denominator, 0, xv.numerator))] = ny
    if nx >= 2:
        for yv in Y.elements:
            counts[LineKey(*_canon_rational(0, yv.denominator, yv.numerator))] = nx
    slant: dict[tuple[int, int, int], int] = {}
    for i in range(nx):
        x1 = xs[i]
        for j in range(i + 1, nx):
            dx = xs[j] - x1  # positive: xs is sorted strictly increasing
            for y1 in ys:
                for y2 in ys:
                    if y1 == y2:
                        continue
                    dy = y2 - y1
                    g = math.gcd(dx, dy)
                    dyr = dy // g
                    dxr = dx // g
                    key = (dyr, dxr, dyr * x1 - dxr * y1)
                    slant[key] = slant.get(key, 0) + 1
    for (dyr, dxr, c), m in slant.items():
        k = (1 + math.isqrt(1 + 8 * m)) // 2
        if k * (k - 1) != 2 * m:
            raise CrossCheckMismatch("slanted pair count is not a triangular number")
        # scaled line dyr*X - dxr*Y = c with X = sx*x, Y = sy*y
        counts[LineKey(*_canon_rational(dyr * sx, -dxr * sy, c))] = k
    profile = LineProfile(counts, nx, ny)
    npts = profile.grid_points
    if profile.pair_sum() != npts * (npts - 1):
        raise CrossCheckMismatch("line profile does not cover every point pair exactly once")
    return profile


def _profile_modp(X: GSet, Y: GSet) -> LineProfile:
    p = X.p
    xs, _ = X.int_view()
    ys, _ = Y.int_view()
    nx, ny = len(xs), len(ys)
    counts: dict[LineKey, int] = {}
    if ny >= 2:
        for x in xs:
            counts[LineKey(1, 0, x, p)] = ny
    if nx >= 2:
        for y in ys:
            counts[LineKey(0, 1, y, p)] = nx
    inv = {d: pow(d, -1, p) for d in {(x2 - x1) % p for x1 in xs for x2 in xs if x1 != x2}}
    slant: dict[tuple[int, int], int] = {}
    for i in range(nx):
        x1 = xs[i]
        for j in range(i + 1, nx):
            dxinv = inv[(xs[j] - x1) % p]
            for y1 in ys:
                for y2 in ys:
                    if y1 == y2:
                        continue
                    s = ((y2 - y1) * dxinv) % p
                    key = (s, (y1 - s * x1) % p)
                    slant[key] = slant.get(key, 0) + 1
    for (s, t), m in slant.items():
        k = (1 + math.isqrt(1 + 8 * m)) // 2
        if k * (k - 1) != 2 * m:
            raise CrossCheckMismatch("slanted pair count is not a triangular number")
        counts[LineKey(*_canon_modp((-s) % p, 1, t, p), p=p)] = k
    profile = LineProfile(counts, nx, ny)
    npts = profile.grid_points
    if profile.pair_sum() != npts * (npts - 1):
        raise CrossCheckMismatch("line profile does not cover every point pair exactly once")
    return profile


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
