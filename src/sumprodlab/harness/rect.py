"""Rich-rectangle decomposition of the popular-difference point set.

For a set A, take the heaviest dyadic popularity level P of the difference
counts and form the point set PP = {(a, b) in A x A : a - b in P}.  Double
dyadic bucketing (first by abscissa degree, then by ordinate degree inside
each abscissa class) partitions PP into at most L^2 rectangles, L rounded-up
log2|A|; the rectangles holding at least |PP| / (2 L^2) points must jointly
hold more than half of PP.

Case 1: some rich rectangle is wide (width >= c1 |A| / L^c2, in either
orientation; PP is symmetric, so transposing is free).  The wide rectangle is
refined to A' x A'' where every abscissa of A' supports at least q points.

Case 2: no rich rectangle is wide.  Drop the index sets of the rich
rectangles from A, rebuild everything for the smaller set, and iterate
(at most L^5 rounds), recording the surviving energy per round.

The top degree class [2^(L-1), 2^L] is closed on the right so that class
indices never exceed L; this keeps the rectangle count at L^2 and makes the
half-mass pigeonhole an exact statement at every input size.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .. import energy, setops
from ..errors import CrossCheckMismatch, DegenerateInput, InfeasibleSize, TooLarge
from ..setops import GSet

RECT_MIN_SIZE = 4
RECT_SET_CAP = 512
RATIO_SET_CAP = 10_000  # |A/A| for sum_construction_stats


@dataclass(frozen=True)
class RectProfile:
    name: str
    c1: Fraction
    c2: int


PAPER_PROFILE = RectProfile("paper", Fraction(1), 10)
DESK_PROFILE = RectProfile("desk", Fraction(1, 4), 2)


def profile_by_name(name: str) -> RectProfile:
    profile = {"paper": PAPER_PROFILE, "desk": DESK_PROFILE}.get(name)
    if profile is None:
        raise DegenerateInput(f"unknown rect profile {name!r}")
    return profile


@dataclass(frozen=True)
class Rectangle:
    abscissae: tuple
    ordinates: tuple
    points: int
    level_i: int
    level_j: int
    transposed: bool

    @property
    def width(self) -> int:
        return len(self.abscissae)

    @property
    def height(self) -> int:
        return len(self.ordinates)


@dataclass
class RectCover:
    case: str  # "case1" | "case2-iterated"
    delta: int
    level: GSet  # the dyadic level P of the final round
    mass: int  # |PP| of the final round
    rectangles: list  # rich rectangles of the final round
    rich_points: int
    Aprime: GSet
    Adoubleprime: GSet
    q: int
    rounds: int
    energy_ledger: list  # E of the surviving set, one entry per round
    class_loads: list  # (q_i, |A_i|) per abscissa class of the final cover


def _log_ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(n)))


def _class_index(deg: int, cap: int) -> int:
    # dyadic class [2^(i-1), 2^i), top class closed at 2^cap
    return min(cap, deg.bit_length())


def _build_cover(points: list, n: int, transposed: bool) -> tuple[list[Rectangle], list]:
    """Double dyadic bucketing of the point list; returns (rectangles, loads)."""
    L = _log_ceil(n)
    deg = Counter(x for x, _ in points)
    classes: dict[int, list] = {}
    for x, d in deg.items():
        classes.setdefault(_class_index(d, L), []).append(x)
    rects: list[Rectangle] = []
    loads = []
    for i, xs in sorted(classes.items()):
        xset = set(xs)
        loads.append((1 << i, len(xs)))
        sub = [(x, y) for x, y in points if x in xset]
        odeg = Counter(y for _, y in sub)
        oclasses: dict[int, list] = {}
        for y, d in odeg.items():
            oclasses.setdefault(_class_index(d, L), []).append(y)
        for j, ys in sorted(oclasses.items()):
            yset = set(ys)
            cnt = sum(1 for _, y in sub if y in yset)
            rects.append(Rectangle(tuple(sorted(xs)), tuple(sorted(ys)),
                                   cnt, i, j, transposed))
    if sum(r.points for r in rects) != len(points):
        raise CrossCheckMismatch("rectangle cover lost points")
    return rects, loads


def _on_scale(B: GSet, scale: int) -> list[int]:
    """B's integer view brought to ``scale``, a multiple of B's own scale."""
    ints, own = B.int_view()
    return [x * (scale // own) for x in ints]


def _level_lookup(keys: list, p: int | None) -> frozenset:
    """A level's keys to test a - b against, for a, b on one integer view:
    mod p each key is also kept minus p, as a - b then lies in (-p, p)."""
    return frozenset(keys) if p is None else frozenset(keys + [k - p for k in keys])


def _decoded(rects: list, B: GSet) -> list:
    """Rectangles on B's integer view with their coordinates as B's elements."""
    elem = dict(zip(B.ints, B.elements)).get
    return [replace(r, abscissae=tuple(map(elem, r.abscissae)),
                    ordinates=tuple(map(elem, r.ordinates))) for r in rects]


def rect_decompose(A: GSet, *, profile: RectProfile = PAPER_PROFILE) -> RectCover:
    if A.size < RECT_MIN_SIZE:
        raise DegenerateInput(f"rectangle decomposition needs at least {RECT_MIN_SIZE} elements")
    if A.size > RECT_SET_CAP:
        raise TooLarge(f"rectangle decomposition caps at {RECT_SET_CAP} elements")
    current = A
    ledger: list[int] = []
    last_state = None
    rounds = 0
    for _ in range(_log_ceil(A.size) ** 5):
        rounds += 1
        table = energy.difference_table(current)
        ledger.append(energy.energy_pair(current))
        lvl = energy.dyadic_energy_level(current)
        ints, scale = current.int_view()
        in_level = (lvl.delta <= table.counts) & (table.counts < 2 * lvl.delta)
        level = _level_lookup(table.keys[in_level].tolist(), current.p)
        rows, cols = np.nonzero(in_level[table.index(setops._difference_matrix(current))])
        points = [(ints[i], ints[j]) for i, j in zip(rows.tolist(), cols.tolist())]
        mass = len(points)
        if mass != int(table.counts[in_level].sum()):
            raise CrossCheckMismatch("point-set size disagrees with the level mass")
        n = current.size
        L = _log_ceil(n)
        rich_thr = Fraction(mass, 2 * L * L)
        wide_thr = profile.c1 * Fraction(n, L**profile.c2)
        rects, loads = _build_cover(points, n, transposed=False)
        for q_i, size_i in loads:
            if q_i * size_i > 2 * mass:
                raise CrossCheckMismatch("abscissa class load exceeds twice the mass")
        rich = [r for r in rects if r.points >= rich_thr]
        rich_points = sum(r.points for r in rich)
        if 2 * rich_points < mass:
            raise CrossCheckMismatch("rich rectangles cover less than half the mass")
        wide = [r for r in rich if r.width >= wide_thr]
        if not wide:
            # PP is symmetric (P = -P), so the transposed cover is equally valid
            t_rects, t_loads = _build_cover([(b, a) for a, b in points], n, transposed=True)
            for q_i, size_i in t_loads:
                if q_i * size_i > 2 * mass:
                    raise CrossCheckMismatch("ordinate class load exceeds twice the mass")
            t_rich = [r for r in t_rects if r.points >= rich_thr]
            wide = [r for r in t_rich if r.width >= wide_thr]
        if wide:
            rect = max(wide, key=lambda r: (r.points, r.width, r.abscissae))
            return _case1(current, lvl, level, mass, points, rich, rich_points,
                          rect, loads, rounds, ledger)
        # Case 2: drop the rich rectangles' index sets and go again
        drop = {x for r in rich for x in r.abscissae + r.ordinates}
        remaining = tuple(v for v in ints if v not in drop)
        last_state = (lvl, mass, rich, rich_points, current, loads)
        if len(remaining) < RECT_MIN_SIZE:
            break
        current = GSet(remaining, scale, current.p)
    lvl, mass, rich, rich_points, final, loads = last_state
    return RectCover("case2-iterated", lvl.delta, lvl.members, mass, _decoded(rich, final),
                     rich_points, final, final, 0, rounds, ledger, loads)


def _case1(current: GSet, lvl, level: frozenset, mass: int, points: list, rich: list,
           rich_points: int, rect: Rectangle, loads: list, rounds: int,
           ledger: list) -> RectCover:
    L = _log_ceil(current.size)
    q_thr = Fraction(mass, 16 * L * L * rect.width)
    q = max(1, math.ceil(q_thr))
    # route 1: per-abscissa counts read off the cover's own point list
    aset = set(rect.abscissae)
    oset = set(rect.ordinates)
    counts = {a: 0 for a in rect.abscissae}
    for u, v in points:
        x, y = (v, u) if rect.transposed else (u, v)
        if x in aset and y in oset:
            counts[x] += 1
    aprime = [a for a in rect.abscissae if counts[a] >= q]
    if not aprime:
        raise CrossCheckMismatch("case-1 refinement emptied the abscissa set")
    if q > rect.height:
        raise CrossCheckMismatch("q exceeds the ordinate projection")
    if q * len(aprime) > mass:
        raise CrossCheckMismatch("q |A'| exceeds the point count")
    # route 2: pointwise membership re-verification, independent of the cover
    for a in aprime:
        supported = sum(1 for b in oset if ((b - a) if rect.transposed else (a - b)) in level)
        if supported < q or supported != counts[a]:
            raise CrossCheckMismatch(f"abscissa {a} (integer view) supports {supported} "
                                     f"points, cover says {counts[a]}, q = {q}")
    # both coordinate tuples are sorted ints of current
    Ap = GSet(tuple(aprime), current.scale, current.p)
    App = GSet(rect.ordinates, current.scale, current.p)
    return RectCover("case1", lvl.delta, lvl.members, mass, _decoded(rich, current),
                     rich_points, Ap, App, q, rounds, ledger, loads)


@dataclass
class SumStats:
    s_size: int  # |A + A|
    p_size: int  # |P|
    ratio_count: int  # |A / A|
    aprime_size: int
    adoubleprime_size: int
    pair_mass: int  # sum over lambda of |A'_lambda|  (= |A| |A'|)
    energy_times: int  # sum over lambda of |A'_lambda|^2
    q_sizes: dict  # lambda -> |Q_lambda| (distinct points)
    sum_q_cubes: int
    line_bound: int  # |S|^4 |P|^2
    triples_lower: int  # sum over used lines of k (k-1) (k-2)


def sum_construction_stats(A: GSet, *, cover: RectCover | None = None) -> SumStats:
    """Slope-sliced point statistics on the grid (A+A) x (A+A).

    For each ratio lambda in A/A, the construction places, for every a' in
    A'_lambda = {a : lambda a in A'}, b in A'_lambda, and a in A'' with
    lambda a' - a in P, the point (a' + b, a + lambda b).  Each such point
    lies on the slope-lambda line y = lambda x + (a - lambda a'), whose
    offset stays in P, so Q_lambda occupies at most |P| lines.  Identities
    verified exactly: sum |A_lambda| = |A|^2, sum |A'_lambda| = |A| |A'|,
    the Cauchy-Schwarz bound on sum |A'_lambda|^2, the per-lambda power-mean
    inequality |P|^2 sum k^3 >= |Q_lambda|^3, and pointwise membership of
    every constructed point in (A+A) x (A+A) with offset in P.

    All of it runs on A's integer view.  With lambda = u/v in lowest terms
    (mod p: u = lambda, v = 1), lambda a is in A' when v | u a and u a / v is
    in A'; a point is kept as (X, Y) = (a' + b, v a + u b), offset (Y - u X) / v.
    """
    quot = setops.combined_set(A, A, "/")
    if quot.size > RATIO_SET_CAP:
        raise InfeasibleSize(f"|A/A| = {quot.size} exceeds {RATIO_SET_CAP}")
    if cover is not None and cover.case == "case1":
        aprime, adouble, level = cover.Aprime, cover.Adoubleprime, cover.level
    else:
        aprime = adouble = A
        level = energy.dyadic_energy_level(A).members
    ints, scale = A.int_view()
    p = A.p
    sums = set(setops.combine(A, A, "+").keys.tolist())
    members = frozenset(ints)
    ap_members = frozenset(_on_scale(aprime, scale))
    app = _on_scale(adouble, scale)
    p_size = level.size
    level = _level_lookup(_on_scale(level, scale), p)
    lam_total = pair_mass = e_times = sum_cubes = triples_lower = 0
    q_sizes: dict = {}
    for lam in quot.elements:
        u, v = (lam.value, 1) if p is not None else (lam.numerator, lam.denominator)
        images = ([(a, u * a // v) for a in ints if u * a % v == 0] if p is None
                  else [(a, u * a % p) for a in ints])
        in_a = [(a, la) for a, la in images if la in members]
        lam_total += len(in_a)
        slice_ = [(a, la) for a, la in in_a if la in ap_members]
        pair_mass += len(slice_)
        e_times += len(slice_) ** 2
        if not slice_:
            continue
        row = [(b, u * b) for b, _ in slice_]
        pts = set()
        for ap, lap in slice_:
            for a in app:
                if lap - a in level:
                    va = v * a
                    pts.update([(ap + b, va + ub) for b, ub in row])
        if p is not None:
            pts = {(x % p, y % p) for x, y in pts}
        lines: dict = {}
        for x, y in pts:
            if x not in sums or y % v or y // v not in sums:
                raise CrossCheckMismatch("constructed point left the sumset grid")
            off, rem = divmod(y - u * x, v)
            if p is not None:
                off %= p
            if rem or off not in level:
                raise CrossCheckMismatch("line offset left the popular level")
            lines[off] = lines.get(off, 0) + 1
        size = len(pts)
        q_sizes[lam] = size
        cube = sum(k**3 for k in lines.values())
        if p_size**2 * cube < size**3:
            raise CrossCheckMismatch("power-mean bound failed on a slope class")
        sum_cubes += size**3
        triples_lower += sum(k * (k - 1) * (k - 2) for k in lines.values())
    if lam_total != A.size**2:
        raise CrossCheckMismatch("sum of |A_lambda| misses |A|^2")
    if pair_mass != A.size * aprime.size:
        raise CrossCheckMismatch("sum of |A'_lambda| misses |A| |A'|")
    if e_times * quot.size < pair_mass**2:
        raise CrossCheckMismatch("Cauchy-Schwarz failed on the slice profile")
    return SumStats(len(sums), p_size, quot.size, aprime.size, adouble.size,
                    pair_mass, e_times, q_sizes, sum_cubes,
                    len(sums)**4 * p_size**2, triples_lower)
