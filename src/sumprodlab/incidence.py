"""Lines through Cartesian grids: canonical line keys, k-point profiles and
ordered collinear triple counts.

Works over the rationals (keys are integer triples with cleared denominators)
and over F_p (keys are scaled so the first nonzero coefficient is 1).

Two independent routes exist on purpose: line_profile builds the full
line -> k table from pair counts, while collinear_triples uses a per-anchor
direction count that never materializes the line table.  The test suite pins
them against each other and against brute force.
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
# collinear_triples refuses anchor scans above TRIPLE_CAP steps (N^2 for an
# N-point grid).
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

    def rows(self) -> list[tuple[int, int, int, int]]:
        return sorted((key.a, key.b, key.c, k) for key, k in self.counts.items())


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


def collinear_triples(X: GSet, Y: GSet | None = None, *, include_degenerate: bool = False) -> int:
    """Ordered triples of pairwise-distinct collinear grid points.

    include_degenerate=True adds the triples with a repeated point (all of
    which are trivially collinear): + 3N(N-1) + N for an N-point grid.
    """
    if Y is None:
        Y = X
    if X.kind != Y.kind or X.p != Y.p:
        raise MixedKinds("grid axes must share a kind")
    nx, ny = X.size, Y.size
    n = nx * ny
    if n * n > TRIPLE_CAP:
        raise TooLarge(f"anchor scan needs about {n * n} steps, cap is {TRIPLE_CAP}")
    if n == 0:
        return 0
    xs, _ = X.int_view()
    ys, _ = Y.int_view()
    if X.p is not None:
        t = _triples_modp(xs, ys, X.p)
    elif max(max(map(abs, xs)), max(map(abs, ys))) < (1 << 60):
        t = _triples_numpy(xs, ys)
    else:
        t = _triples_bigint(xs, ys)
    if include_degenerate:
        t += 3 * n * (n - 1) + n
    return t


def _same_direction_pairs(z: np.ndarray) -> int:
    """sum m(m-1) over the multiplicity classes of a 1-d array."""
    if z.size < 2:
        return 0
    z = np.sort(z)
    starts = np.flatnonzero(np.r_[True, z[1:] != z[:-1]])
    m = np.diff(np.r_[starts, z.size])
    return int((m * (m - 1)).sum())


def _triples_numpy(xs: list[int], ys: list[int]) -> int:
    """Anchor kernel on int64 coordinates (safe for |values| < 2^60).

    Reduced directions whose components stay below 2^52 are packed into one
    complex128 value per direction (both parts are then exact in a double),
    which replaces the row-wise unique by a plain 1-d sort.
    """
    ax = np.asarray(xs, dtype=np.int64)
    ay = np.asarray(ys, dtype=np.int64)
    nx, ny = len(ax), len(ay)
    axis = (ny - 1) * (ny - 2) + (nx - 1) * (nx - 2)
    total = nx * ny * axis
    packable = (nx < 2 or int(ax.max() - ax.min()) < (1 << 52)) and \
               (ny < 2 or int(ay.max() - ay.min()) < (1 << 52))
    # For a square grid, (x0, y0) and (y0, x0) see mirrored direction classes
    # with identical multiplicities, so the upper anchor triangle suffices.
    sym = nx == ny and bool(np.array_equal(ax, ay))
    for i in range(nx):
        dx = np.delete(ax, i) - ax[i]
        for j in range(i if sym else 0, ny):
            dy = np.delete(ay, j) - ay[j]
            gx = np.gcd(dx[:, None], dy[None, :])
            ux = dx[:, None] // gx
            uy = dy[None, :] // gx
            neg = ux < 0
            ux = np.where(neg, -ux, ux)
            uy = np.where(neg, -uy, uy)
            if packable:
                c = _same_direction_pairs((ux + 1j * uy).ravel())
            else:
                dirs = np.stack([ux.ravel(), uy.ravel()], axis=1)
                _, m = np.unique(dirs, axis=0, return_counts=True)
                c = int((m * (m - 1)).sum())
            total += c if sym and i == j else (2 * c if sym else c)
    return total


def _triples_bigint(xs: list[int], ys: list[int]) -> int:
    """Anchor kernel with arbitrary-precision coordinates."""
    gcd = math.gcd
    nx, ny = len(xs), len(ys)
    axis = (ny - 1) * (ny - 2) + (nx - 1) * (nx - 2)
    total = nx * ny * axis
    sym = xs == ys  # square grid: mirror anchors contribute equally
    for i, x0 in enumerate(xs):
        dxs = [x - x0 for x in xs if x != x0]
        for j in range(i if sym else 0, ny):
            y0 = ys[j]
            dys = [y - y0 for y in ys if y != y0]
            dirs: dict[tuple[int, int], int] = {}
            get = dirs.get
            for dx in dxs:
                for dy in dys:
                    g = gcd(dx, dy)
                    ux = dx // g
                    uy = dy // g
                    if ux < 0:
                        ux, uy = -ux, -uy
                    key = (ux, uy)
                    dirs[key] = get(key, 0) + 1
            c = 0
            for m in dirs.values():
                c += m * (m - 1)
            total += c if sym and i == j else (2 * c if sym else c)
    return total


def _triples_modp(xs: list[int], ys: list[int], p: int) -> int:
    """Anchor kernel over F_p: direction classes are slopes."""
    nx, ny = len(xs), len(ys)
    total = nx * ny * (ny - 1) * (ny - 2)  # vertical through each anchor
    inv = {d: pow(d, -1, p) for d in {(x2 - x1) % p for x1 in xs for x2 in xs if x1 != x2}}
    sym = xs == ys
    for i, x0 in enumerate(xs):
        dinv = [inv[(x - x0) % p] for x in xs if x != x0]
        for j in range(i if sym else 0, ny):
            y0 = ys[j]
            dys = [(y - y0) % p for y in ys]
            slopes: dict[int, int] = {}
            get = slopes.get
            for di in dinv:
                for dy in dys:
                    s = (dy * di) % p
                    slopes[s] = get(s, 0) + 1
            c = 0
            for m in slopes.values():
                c += m * (m - 1)
            total += c if sym and i == j else (2 * c if sym else c)
    return total
