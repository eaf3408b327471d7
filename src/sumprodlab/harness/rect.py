"""Rich-rectangle decomposition of the popular-difference point set.

For a set A, take the heaviest dyadic popularity level P of the difference
counts and form the point set PP = {(a, b) in A x A : a - b in P}.  Double
dyadic bucketing (first by abscissa degree, then by ordinate degree inside
each abscissa class) partitions PP into at most L^2 rectangles, L rounded-up
log2|A|; the rectangles holding at least |PP| / (2 L^2) points must jointly
hold more than half of PP.

Case 1: some rich rectangle is wide (width >= c1 |A| / L^c2; PP is symmetric,
as P = -P, so its transposed cover is the same cover).  The wide rectangle is
refined to A' x A'' where every abscissa of A' supports at least q points.

Case 2: no rich rectangle is wide.  Drop the index sets of the rich
rectangles from A, rebuild everything for the smaller set, and iterate
(at most L^5 rounds), recording the surviving energy per round.

The top degree class [2^(L-1), 2^L] is closed on the right so that class
indices never exceed L; this keeps the rectangle count at L^2 and makes the
half-mass pigeonhole an exact statement at every input size.

PP is kept as index pairs (i, j) into A's integer view, and the degree
classes come from bincount and frexp.  A cover stays on the integer view: its
level is the final round's DyadicLevel, a mask over that round's r_{A-A}, and
its rectangles' coordinates are that round set's ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import energy, setops, subgroups
from ..errors import CrossCheckMismatch, DegenerateInput, TooLarge
from ..setops import GSet, _find

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
    level: energy.DyadicLevel  # the dyadic level P of the final round
    mass: int  # |PP| of the final round
    rectangles: list  # rich rectangles of the final round, on its integer view
    rich_points: int
    Aprime: GSet
    Adoubleprime: GSet
    q: int
    rounds: int
    energy_ledger: list  # E of the surviving set, one entry per round
    class_loads: list  # (q_i, |A_i|) per abscissa class of the final cover


def _log_ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(n)))


def _build_cover(xs: np.ndarray, ys: np.ndarray, ints: tuple) -> tuple[list[Rectangle], list]:
    """Double dyadic bucketing of the points (xs[k], ys[k]), indices into the
    sorted ints; returns (rectangles on those ints, loads).  A degree's class
    is its bit length, frexp's exponent (exact below 2^53), capped at L."""
    n = len(ints)
    L = _log_ceil(n)
    xcls = np.minimum(L, np.frexp(np.bincount(xs, minlength=n))[1])
    odeg = np.bincount(xcls[xs].astype(np.intp) * n + ys, minlength=(L + 1) * n).reshape(L + 1, n)
    ocls = np.minimum(L, np.frexp(odeg)[1])
    rects: list[Rectangle] = []
    loads = []
    for i in np.flatnonzero(np.bincount(xcls, minlength=L + 1)[1:]) + 1:
        abscissae = tuple(ints[k] for k in np.flatnonzero(xcls == i).tolist())
        loads.append((1 << int(i), len(abscissae)))
        for j in np.flatnonzero(np.bincount(ocls[i], minlength=L + 1)[1:]) + 1:
            ys_ij = np.flatnonzero(ocls[i] == j)
            rects.append(Rectangle(abscissae, tuple(ints[k] for k in ys_ij.tolist()),
                                   int(odeg[i, ys_ij].sum()), int(i), int(j)))
    if sum(r.points for r in rects) != xs.size:
        raise CrossCheckMismatch("rectangle cover lost points")
    return rects, loads


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
        member = _membership(table.keys[lvl.mask], current, table.support_size())
        diffs = setops._difference_matrix(current)
        xs, ys = np.nonzero(member(diffs))
        mass = xs.size
        if mass != int(table.counts[lvl.mask].sum()):
            raise CrossCheckMismatch("point-set size disagrees with the level mass")
        n = current.size
        L = _log_ceil(n)
        rich_thr = Fraction(mass, 2 * L * L)
        wide_thr = profile.c1 * Fraction(n, L**profile.c2)
        rects, loads = _build_cover(xs, ys, current.ints)
        for q_i, size_i in loads:
            if q_i * size_i > 2 * mass:
                raise CrossCheckMismatch("abscissa class load exceeds twice the mass")
        rich = [r for r in rects if r.points >= rich_thr]
        rich_points = sum(r.points for r in rich)
        if 2 * rich_points < mass:
            raise CrossCheckMismatch("rich rectangles cover less than half the mass")
        wide = [r for r in rich if r.width >= wide_thr]
        if wide:
            rect = max(wide, key=lambda r: (r.points, r.width, r.abscissae))
            return _case1(current, lvl, member, diffs, mass, xs, ys, rich, rich_points,
                          rect, loads, rounds, ledger)
        # Case 2: drop the rich rectangles' coordinates and go again
        drop = {v for r in rich for v in r.abscissae + r.ordinates}
        remaining = tuple(v for v in current.ints if v not in drop)
        last_state = (lvl, mass, rich, rich_points, current, loads)
        if len(remaining) < RECT_MIN_SIZE:
            break
        current = GSet(remaining, current.scale, current.p)
    lvl, mass, rich, rich_points, final, loads = last_state
    return RectCover("case2-iterated", lvl.delta, lvl, mass, rich, rich_points,
                     final, final, 0, rounds, ledger, loads)


def _membership(level: np.ndarray, A: GSet, support: int):
    """Membership in the level's sorted keys of differences on A's integer
    view, reduced mod p for residues: one length-p mask while
    setops._dense_residues(p, |A| |D|), else one searchsorted."""
    p = A.p
    if setops._dense_residues(p, A.size * support):
        mask = np.zeros(p, dtype=bool)
        mask[level] = True
        return mask.__getitem__
    return lambda diffs: _find(level, diffs)[1]


def _case1(current: GSet, lvl, member, diffs: np.ndarray, mass: int, xs: np.ndarray,
           ys: np.ndarray, rich: list, rich_points: int, rect: Rectangle, loads: list,
           rounds: int, ledger: list) -> RectCover:
    ints, p = current.ints, current.p
    q = max(1, math.ceil(Fraction(mass, 16 * _log_ceil(current.size) ** 2 * rect.width)))
    index = {v: i for i, v in enumerate(ints)}
    in_a, in_o = np.zeros((2, current.size), dtype=bool)
    in_a[[index[v] for v in rect.abscissae]] = in_o[[index[v] for v in rect.ordinates]] = True
    # route 1: per-abscissa counts read off the cover's own point list
    counts = np.bincount(xs[in_a[xs] & in_o[ys]], minlength=current.size)
    aprime = np.flatnonzero(in_a & (counts >= q))
    if not aprime.size:
        raise CrossCheckMismatch("case-1 refinement emptied the abscissa set")
    if q > rect.height:
        raise CrossCheckMismatch("q exceeds the ordinate projection")
    if q * aprime.size > mass:
        raise CrossCheckMismatch("q |A'| exceeds the point count")
    # route 2: membership of each a - b re-read from the difference matrix,
    # independent of the cover's bucketing
    supported = member(diffs[aprime][:, in_o]).sum(axis=1)
    bad = np.flatnonzero((supported < q) | (supported != counts[aprime]))
    if bad.size:
        a = aprime[bad[0]]
        raise CrossCheckMismatch(f"abscissa {ints[a]} (integer view) supports "
                                 f"{supported[bad[0]]} points, cover says {counts[a]}, q = {q}")
    Ap = GSet(tuple(ints[a] for a in aprime.tolist()), current.scale, p)
    return RectCover("case1", lvl.delta, lvl, mass, rich, rich_points, Ap,
                     GSet(rect.ordinates, current.scale, p), q, rounds, ledger, loads)


@dataclass
class SumStats:
    s_size: int  # |A + A|
    p_size: int  # |P|
    ratio_count: int  # |A / A|
    aprime_size: int
    adoubleprime_size: int
    pair_mass: int  # sum over lambda of |A'_lambda|  (= |A| |A'|)
    energy_times: int  # sum over lambda of |A'_lambda|^2
    q_sizes: dict  # lambda's integer-view key -> |Q_lambda| (distinct points)
    sum_q_cubes: int
    line_bound: int  # |S|^4 |P|^2
    triples_lower: int  # sum over used lines of k (k-1) (k-2)


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[s], starts[s] + 1, ..., starts[s] + counts[s] - 1 for each s in turn."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Where each run of equal keys starts."""
    return np.flatnonzero(np.append(True, sorted_keys[1:] != sorted_keys[:-1]))


def sum_construction_stats(A: GSet, *, cover: RectCover | None = None) -> SumStats:
    """Slope-sliced point statistics on the grid (A+A) x (A+A).

    For each ratio lambda in A/A, the construction places, for every a' in
    A'_lambda = {a : lambda a in A'}, b in A'_lambda, and a in A'' with
    lambda a' - a in P, the point (a' + b, a + lambda b).  Each such point
    lies on the slope-lambda line y = lambda x + (a - lambda a'), whose
    offset stays in P, so Q_lambda occupies at most |P| lines.  Identities
    verified exactly: |A_lambda| = r_{A/A}(lambda) for every lambda, sum
    |A'_lambda| = |A| |A'|, the Cauchy-Schwarz bound on sum |A'_lambda|^2,
    the per-lambda power-mean inequality |P|^2 sum k^3 >= |Q_lambda|^3, and
    pointwise membership of every constructed point in (A+A) x (A+A) with
    offset in P.

    All of it runs on index arrays over A's integer view: one sort groups the
    pairs (a, lambda a) by slope, and a point is (x, o) = (a' + b, a - lambda a')
    with y = a + lambda b, all within twice A's range.  Points come in blocks
    of whole slope classes (at most setops._BLOCK points unless one class is
    larger), keyed (lambda, index of x in A+A, index of o in P), and one sort
    per block dedupes them and counts each line's points.
    """
    quot = subgroups.pair_table(A, "/")
    if quot.support_size() > RATIO_SET_CAP:
        raise TooLarge(f"|A/A| = {quot.support_size()} exceeds {RATIO_SET_CAP}")
    ints, scale = A.int_view()
    p, n = A.p, A.size
    dtype = np.int64 if 2 * (p or max(-ints[0], ints[-1])) < 1 << 63 else object

    def on_scale(B: GSet) -> np.ndarray:  # B's integer view brought to A's scale
        return np.array(B.ints, dtype=dtype) * (scale // B.scale)

    if cover is not None and cover.case == "case1":
        lvl, aprime, adouble = cover.level, cover.Aprime, cover.Adoubleprime
    else:
        lvl, aprime, adouble = energy.dyadic_energy_level(A), A, A
    # the level's keys of r_{A-A}, on the scale of the round set, a subset of A
    levels = lvl.table.keys[lvl.mask].astype(dtype) * (scale // lvl.table.scale)
    vals, app = np.array(ints, dtype=dtype), on_scale(adouble)
    sums = subgroups.pair_table(A, "+").keys.astype(dtype)
    # route 1 sorts the n^2 pairs (a, c), flat index a * n + c, by slope; route 2 is r_{A/A}
    if p is not None:
        inv = setops._inverses(ints, p)
        cols = [(inv[:, None] * vals.astype(inv.dtype) % p).ravel()]
    else:
        g = np.gcd(vals[:, None], vals)
        cols = [(abs(vals[:, None]) // g).ravel(), (vals * np.sign(vals[:, None]) // g).ravel()]
    order = np.lexsort(cols)  # by numerator, then denominator
    cols = [c[order] for c in cols]
    starts = np.flatnonzero(np.append(True, np.any([c[1:] != c[:-1] for c in cols], axis=0)))
    keys = [c[starts].tolist() for c in cols]
    lam_keys = keys[0] if p is not None else list(zip(keys[1], keys[0]))
    sizes = np.diff(np.append(starts, order.size))
    if lam_keys != quot.keys.tolist() or not np.array_equal(sizes, quot.counts):
        raise CrossCheckMismatch("|A_lambda| disagrees with r_{A/A}")
    # the slice: the pairs (a', lambda a') with lambda a' in A', by slope
    keep = _find(on_scale(aprime), vals)[1][order % n]
    SI, SJ = np.divmod(order[keep], n)
    SG = np.repeat(np.arange(starts.size), sizes)[keep]
    m = np.bincount(SG, minlength=starts.size)  # |A'_lambda|
    first = np.cumsum(m) - m
    pair_mass, e_times = SI.size, int((m * m).sum())
    if pair_mass != n * aprime.size:
        raise CrossCheckMismatch("sum of |A'_lambda| misses |A| |A'|")
    if e_times * starts.size < pair_mass**2:
        raise CrossCheckMismatch("Cauchy-Schwarz failed on the slice profile")
    # row j lists the a in A'' with a_j - a in P, as indices into A''
    diffs = vals[:, None] - app
    valid = _find(levels, diffs if p is None else diffs % p)[1]
    row_len = valid.sum(axis=1)
    row_at, row_cols = np.cumsum(row_len) - row_len, np.nonzero(valid)[1]
    per_pair = np.append(0, np.cumsum(row_len[SJ]))
    cum = np.append(0, np.cumsum((per_pair[first + m] - per_pair[first]) * m))  # points
    bounds = [0]
    while bounds[-1] < starts.size:
        hi = np.searchsorted(cum, cum[bounds[-1]] + setops._BLOCK, "right") - 1
        bounds.append(max(bounds[-1] + 1, int(hi)))
    q = [0] * starts.size
    sum_cubes = triples_lower = 0
    s_size, p_size = sums.size, levels.size
    for lo, hi in zip(bounds, bounds[1:]):
        s = np.arange(first[lo], first[hi - 1] + m[hi - 1])
        pair = np.repeat(s, row_len[SJ[s]])  # one entry per (a', a)
        if not pair.size:
            continue
        k = row_cols[_segments(row_at[SJ[s]], row_len[SJ[s]])]
        g = SG[pair]
        off = app[k] - vals[SJ[pair]]
        off_at, found = _find(levels, off if p is None else off % p)
        if not found.all():
            raise CrossCheckMismatch("line offset left the popular level")
        e = np.repeat(np.arange(pair.size), m[g])  # one point per (a', a, b)
        b = _segments(first[g], m[g])
        x, y = vals[SI[pair]][e] + vals[SI[b]], app[k][e] + vals[SJ[b]]
        x, y = (x, y) if p is None else (x % p, y % p)
        x_at, found = _find(sums, x)
        if not (found.all() and _find(sums, y)[1].all()):
            raise CrossCheckMismatch("constructed point left the sumset grid")
        line = (g - lo) * p_size + off_at
        if (hi - lo) * p_size * s_size >= 1 << 63:
            line = line.astype(object)
        key = np.sort(line[e] * s_size + x_at)
        line = key[_runs(key)] // s_size  # the line of each distinct point
        at = _runs(line)
        k_line = np.diff(np.append(at, line.size))
        lam = line[at] // p_size
        if int(k_line.max()) ** 3 * k_line.size >= 1 << 63:
            k_line = k_line.astype(object)
        at = _runs(lam)
        for gl, size, cube, trip in zip(lam[at].tolist(), *(
                np.add.reduceat(v, at).tolist()
                for v in (k_line, k_line**3, k_line * (k_line - 1) * (k_line - 2)))):
            if p_size**2 * cube < size**3:
                raise CrossCheckMismatch("power-mean bound failed on a slope class")
            q[lo + gl] = size
            sum_cubes += size**3
            triples_lower += trip
    return SumStats(s_size, p_size, starts.size, aprime.size, adouble.size,
                    pair_mass, e_times, {lam_keys[g]: q[g] for g in np.flatnonzero(m).tolist()},
                    sum_cubes, s_size**4 * p_size**2, triples_lower)
