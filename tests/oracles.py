"""Brute-force reference counters, straight from the definitions.

Everything enumerates tuples naively (with guards on input size), so the
package's fast kernels have something independent to be measured against.
Values here never come from the implementations under test.
"""

import math
import operator
from fractions import Fraction
from itertools import product

import numpy as np


def _as_vals(A):
    """Plain value list from a GSet, a list of ints, or a list of Fractions."""
    if hasattr(A, "values"):
        return list(A.values())
    return list(A)


def diff_counts(vals, p=None) -> dict:
    out: dict = {}
    for a in vals:
        for b in vals:
            d = (a - b) % p if p is not None else a - b
            out[d] = out.get(d, 0) + 1
    return out


def pair_counts(avals, bvals, op) -> dict:
    """r_{A op B} from the elements' own Fraction or ModP arithmetic, keyed in
    the order each value first occurs (a outer, b inner)."""
    f = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op]
    out: dict = {}
    for a in avals:
        for b in bvals:
            k = f(a, b)
            out[k] = out.get(k, 0) + 1
    return out


def energy(avals, bvals=None, p=None) -> int:
    """E(A, B): ordered (a, b, a', b') with a - b = a' - b'."""
    bvals = avals if bvals is None else bvals
    count = 0
    for a, b, a2, b2 in product(avals, bvals, avals, bvals):
        lhs = a - b
        rhs = a2 - b2
        if p is not None:
            lhs, rhs = lhs % p, rhs % p
        if lhs == rhs:
            count += 1
    return count


def moment3(vals, p=None) -> int:
    """E_3: ordered 6-tuples with a - b = c - d = e - f."""
    count = 0
    for a, b, c, d, e, f in product(vals, repeat=6):
        d1, d2, d3 = a - b, c - d, e - f
        if p is not None:
            d1, d2, d3 = d1 % p, d2 % p, d3 % p
        if d1 == d2 == d3:
            count += 1
    return count


def slice_energy_sum(vals, p=None) -> int:
    """sum over d in A - A of E(A, A ^ (A + d)), each slice built from its
    definition and E(A, S) taken as sum_x r_{A-S}(x)^2; residues mod p if given."""
    members = set(vals)
    total = 0
    for d in diff_counts(vals, p):
        slice_ = [b for b in vals if ((b - d) % p if p is not None else b - d) in members]
        r: dict = {}
        for a in vals:
            for b in slice_:
                x = (a - b) % p if p is not None else a - b
                r[x] = r.get(x, 0) + 1
        total += sum(c * c for c in r.values())
    return total


def t_k(vals, k, p=None) -> int:
    """T_k: ordered 2k-tuples with equal k-fold sums."""
    count = 0
    for tup in product(vals, repeat=2 * k):
        lhs = sum(tup[:k])
        rhs = sum(tup[k:])
        if p is not None:
            lhs, rhs = lhs % p, rhs % p
        if lhs == rhs:
            count += 1
    return count


def sigma(vals, p=None) -> int:
    """sum_{d,d'} r(d) r(d') r(d - d')^2 over the difference multiplicities;
    residues mod p if given."""
    r = diff_counts(vals, p)
    total = 0
    for d, rd in r.items():
        for e, re_ in r.items():
            w = r.get(d - e if p is None else (d - e) % p, 0)
            total += rd * re_ * w * w
    return total


def sigma_tuples(vals) -> int:
    """Same sum as 8-tuples: a1 - a2 = a3 - a4 = (a - b) - (c - d)."""
    count = 0
    for a, b, c, d, a1, a2, a3, a4 in product(vals, repeat=8):
        if a1 - a2 == a3 - a4 == (a - b) - (c - d):
            count += 1
    return count


def difference_triples(vals, restrict=None, p=None) -> int:
    """Pairs (d, d') in D x R with d - d' in D, where D holds the distinct
    differences (0 included) and R defaults to D; residues mod p if given."""
    dset = set(diff_counts(vals, p))
    rvals = dset if restrict is None else set(restrict)
    if p is None:
        return sum(1 for d in dset for dp in rvals if d - dp in dset)
    return sum(1 for d in dset for dp in rvals if (d - dp) % p in dset)


def stabilizer_order(p, *sets) -> int:
    """Number of h in F_p^* with h * S = S for each set S of nonzero residues."""
    sets = [frozenset(s) for s in sets]
    return sum(1 for h in range(1, p)
               if all({h * x % p for x in s} == s for s in sets))


def difference_stabilizer_order(vals, p) -> int:
    """Number of h in F_p^* with r(h x) = r(x) for every x, r = r_{A-A} mod p."""
    r = diff_counts(vals, p)
    return sum(1 for h in range(1, p) if all(r.get(h * x % p, 0) == c for x, c in r.items()))


def collinear_triples(xvals, yvals=None, include_degenerate=False, p=None) -> int:
    """Ordered collinear triples of pairwise-distinct points of X x Y,
    by the cross-product test; optionally adds the repeated-point tuples."""
    yvals = xvals if yvals is None else yvals
    pts = [(x, y) for x in xvals for y in yvals]
    n = len(pts)
    count = 0
    for i, j, k in product(range(n), repeat=3):
        if i == j or j == k or i == k:
            continue
        (x1, y1), (x2, y2), (x3, y3) = pts[i], pts[j], pts[k]
        det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if p is not None:
            det %= p
        if det == 0:
            count += 1
    if include_degenerate:
        count += 3 * n * (n - 1) + n
    return count


def anchor_triples(xvals, yvals=None) -> int:
    """Ordered collinear triples of pairwise-distinct points of X x Y over the
    rationals, by counting equal reduced directions around every anchor point.

    A quartic scan that shares nothing with the ratio table of
    collinear_triples, and reaches axes far beyond the brute force above.
    """
    yvals = xvals if yvals is None else yvals
    scale = math.lcm(*(Fraction(v).denominator for v in list(xvals) + list(yvals)))
    xs = sorted(int(Fraction(v) * scale) for v in xvals)
    ys = sorted(int(Fraction(v) * scale) for v in yvals)
    nx, ny = len(xs), len(ys)
    total = nx * ny * ((ny - 1) * (ny - 2) + (nx - 1) * (nx - 2))
    for x0 in xs:
        dxs = [x - x0 for x in xs if x != x0]
        for y0 in ys:
            dys = [y - y0 for y in ys if y != y0]
            dirs: dict = {}
            for dx in dxs:
                for dy in dys:
                    g = math.gcd(dx, dy)
                    key = (dx // g, dy // g) if dx > 0 else (-dx // g, -dy // g)
                    dirs[key] = dirs.get(key, 0) + 1
            total += sum(m * (m - 1) for m in dirs.values())
    return total


def trace_m2r(A) -> float:
    """tr(M^2 R) from the elements' own arithmetic: the sum over difference
    pairs (d, d') = (x - y, x - z) of w(d, d') sqrt(r(d) r(d')) r(d' - d),
    where w(d, d') counts the x in A with x - d and x - d' both in A."""
    elems = A.elements
    r = pair_counts(elems, elems, "-")
    w: dict = {}
    for x in elems:
        for y in elems:
            for z in elems:
                key = (x - y, x - z)
                w[key] = w.get(key, 0) + 1
    return math.fsum(c * math.sqrt(r[d1] * r[d2]) * r[d2 - d1] for (d1, d2), c in w.items())


def line_pair_sum(xvals, yvals=None) -> int:
    """sum over lines of k(k-1) equals the number of ordered point pairs."""
    yvals = xvals if yvals is None else yvals
    n = len(xvals) * len(yvals)
    return n * (n - 1)


def window_total(p, gamma, h) -> int:
    """N(h) = #{(x, y) in the +-h window, y/x in Gamma}."""
    members = set(gamma)
    window = [v for u in range(1, h + 1) for v in (u, p - u)]
    count = 0
    for x in window:
        xinv = pow(x, -1, p)
        for y in window:
            if y * xinv % p in members:
                count += 1
    return count


def coset_gap(p, gamma) -> int:
    """Longest run of consecutive residues mod p (wrapping past p - 1)
    avoiding some coset of Gamma."""
    members = set(gamma)
    cosets = []
    seen = set()
    for x in range(1, p):
        if x in seen:
            continue
        coset = {x * g % p for g in members}
        seen |= coset
        cosets.append(coset)
    best = 0
    for coset in cosets:
        for start in range(p):
            run = 0
            while run < p:
                if (start + run) % p in coset:
                    break
                run += 1
            best = max(best, run)
    return best


def coset_runs(p, g, t) -> list:
    """Every candidate coset-free run as (length, coset, first residue): coset j
    holds the x with log_g(x) = j mod (p - 1)/t, and each member x of it opens
    the run up to the next member, the last one wrapping past p - 1 to the
    first.  Listed cosets ascending, members ascending."""
    cosets = (p - 1) // t
    members = [[] for _ in range(cosets)]
    x = 1
    for k in range(p - 1):
        members[k % cosets].append(x)
        x = x * g % p
    runs = []
    for j, coset in enumerate(members):
        coset.sort()
        for x, nxt in zip(coset, coset[1:] + [coset[0] + p]):
            runs.append((nxt - x - 1, j, x + 1))
    return runs


def rich_rect_mass(points, rects) -> int:
    """Points covered by a list of (abscissa set, ordinate set) rectangles."""
    covered = set()
    for xs, ys in rects:
        for pt in points:
            if pt[0] in xs and pt[1] in ys:
                covered.add(pt)
    return len(covered)


def _dyadic_level(elems, kind, p):
    """(delta, level set) of the most energetic dyadic class of r_{A-A},
    ties toward the smaller level, from the elements' own arithmetic."""
    from sumprodlab.setops import GSet

    r = pair_counts(elems, elems, "-")
    classes: dict = {}
    for c in r.values():
        classes[c.bit_length() - 1] = classes.get(c.bit_length() - 1, 0) + c * c
    best = min(classes, key=lambda i: (-classes[i], i))
    delta = 1 << best
    members = [d for d, c in r.items() if delta <= c < 2 * delta]
    return delta, classes[best], GSet.from_elements(members, allow_zero=True, kind=kind, p=p), r


def _cover(points, n):
    """Double dyadic bucketing of a point list into Rectangles, with loads."""
    from sumprodlab.harness.rect import Rectangle

    L = max(1, math.ceil(math.log2(n)))
    deg: dict = {}
    for x, _ in points:
        deg[x] = deg.get(x, 0) + 1
    classes: dict = {}
    for x, d in deg.items():
        classes.setdefault(min(L, d.bit_length()), []).append(x)
    rects, loads = [], []
    for i, xs in sorted(classes.items()):
        xset = set(xs)
        loads.append((1 << i, len(xs)))
        sub = [(x, y) for x, y in points if x in xset]
        odeg: dict = {}
        for _, y in sub:
            odeg[y] = odeg.get(y, 0) + 1
        oclasses: dict = {}
        for y, d in odeg.items():
            oclasses.setdefault(min(L, d.bit_length()), []).append(y)
        for j, ys in sorted(oclasses.items()):
            yset = set(ys)
            cnt = sum(1 for _, y in sub if y in yset)
            rects.append(Rectangle(tuple(sorted(xs)), tuple(sorted(ys)), cnt, i, j))
    return rects, loads


def rect_cover(A, profile):
    """The rich-rectangle decomposition on the elements' own Fraction/ModP
    arithmetic: n^2 element subtractions per round, as a RectCover."""
    from sumprodlab.harness.rect import RectCover
    from sumprodlab.setops import GSet

    current = A
    ledger, last, rounds = [], None, 0
    for _ in range(max(1, math.ceil(math.log2(A.size))) ** 5):
        rounds += 1
        elems = current.elements
        delta, _, level, r = _dyadic_level(elems, A.kind, A.p)
        ledger.append(sum(c * c for c in r.values()))
        members = set(level.elements)
        points = [(a, b) for a in elems for b in elems if a - b in members]
        mass, n = len(points), len(elems)
        L = max(1, math.ceil(math.log2(n)))
        rich_thr = Fraction(mass, 2 * L * L)
        wide_thr = profile.c1 * Fraction(n, L**profile.c2)
        rects, loads = _cover(points, n)
        # PP is symmetric (P = -P), so the transposed cover is the same cover
        assert _cover([(b, a) for a, b in points], n) == (rects, loads)
        rich = [rc for rc in rects if rc.points >= rich_thr]
        rich_points = sum(rc.points for rc in rich)
        wide = [rc for rc in rich if rc.width >= wide_thr]
        if wide:
            rect = max(wide, key=lambda rc: (rc.points, rc.width, rc.abscissae))
            q = max(1, math.ceil(Fraction(mass, 16 * L * L * rect.width)))
            aprime = []
            for a in rect.abscissae:
                if sum(1 for b in rect.ordinates if a - b in members) >= q:
                    aprime.append(a)
            return RectCover("case1", delta, level, mass, rich, rich_points,
                             GSet.from_elements(aprime, kind=A.kind, p=A.p),
                             GSet.from_elements(rect.ordinates, kind=A.kind, p=A.p),
                             q, rounds, ledger, loads)
        drop = {x for rc in rich for x in rc.abscissae + rc.ordinates}
        remaining = [x for x in elems if x not in drop]
        last = (delta, level, mass, rich, rich_points, current, loads)
        if len(remaining) < 4:
            break
        current = GSet.from_elements(remaining, kind=A.kind, p=A.p)
    delta, level, mass, rich, rich_points, final, loads = last
    return RectCover("case2-iterated", delta, level, mass, rich, rich_points,
                     final, final, 0, rounds, ledger, loads)


def sum_construction(A, cover=None):
    """The slope-sliced sum construction on the elements' own Fraction/ModP
    arithmetic, one point (a' + b, a + lambda b) at a time, as SumStats; each
    slope is keyed by its residue, or its reduced (numerator, denominator)."""
    from sumprodlab.harness.rect import SumStats

    elems = A.elements
    quot = sorted(set(pair_counts(elems, elems, "/")))
    if cover is not None and cover.case == "case1":
        aprime, adouble = cover.Aprime.elements, cover.Adoubleprime.elements
        level = set(cover.level.elements)
    else:
        aprime = adouble = elems
        level = set(_dyadic_level(elems, A.kind, A.p)[2].elements)
    sums = set(pair_counts(elems, elems, "+"))
    members, ap_members = set(elems), set(aprime)
    pair_mass = e_times = sum_cubes = triples = 0
    q_sizes: dict = {}
    for lam in quot:
        slice_ = [a for a in elems if lam * a in ap_members]
        pair_mass += len(slice_)
        e_times += len(slice_) ** 2
        if not slice_:
            continue
        pts = {(ap + b, a + lam * b) for ap in slice_ for a in adouble
               if lam * ap - a in level for b in slice_}
        lines: dict = {}
        for x, y in pts:
            assert x in sums and y in sums and y - lam * x in level
            lines[y - lam * x] = lines.get(y - lam * x, 0) + 1
        q_sizes[lam.value if A.p is not None else (lam.numerator, lam.denominator)] = len(pts)
        sum_cubes += len(pts) ** 3
        triples += sum(k * (k - 1) * (k - 2) for k in lines.values())
    assert sum(1 for lam in quot for a in elems if lam * a in members) == len(elems) ** 2
    p_size = len(level)
    return SumStats(len(sums), p_size, len(quot), len(aprime), len(adouble), pair_mass,
                    e_times, q_sizes, sum_cubes, len(sums) ** 4 * p_size**2, triples)


def prop7_count4(A):
    """sum over s in AA - AA with r(s) >= |A|^2 / (2|A-A|) and x in A of
    r_{D-D}(s / x), D = A - A, from the elements' own arithmetic."""
    elems = A.elements
    dset = list(pair_counts(elems, elems, "-"))
    delta = Fraction(len(elems) ** 2, 2 * len(dset))
    aa = list(pair_counts(elems, elems, "*"))
    heavy = [s for s, c in pair_counts(aa, aa, "-").items() if c >= delta]
    r_dd = pair_counts(dset, dset, "-")
    return sum(r_dd.get(s / x, 0) for s in heavy for x in elems)


def invariant_union(ctx, coset_indices):
    """The GSet union of the cosets g^j * Gamma for the given j, one element at a time."""
    from sumprodlab.errors import IndexOutOfRange
    from sumprodlab.setops import GSet

    indices = list(coset_indices)
    for j in indices:
        if not 0 <= j < ctx.cosets:
            raise IndexOutOfRange(f"coset index {j} outside 0..{ctx.cosets - 1}")
    values: set[int] = set()
    for j in sorted(set(indices)):
        shift = pow(ctx.g, j, ctx.p)
        values.update(shift * x % ctx.p for x in ctx.gamma)
    return GSet(tuple(sorted(values)), 1, ctx.p)


def char_sums(p, g, gamma):
    """S_j = sum over x in Gamma of e(g^j x / p) for j < (p - 1)/|Gamma|, each
    phase by np.exp of its own residue, the powers g^j by Python's pow."""
    n = (p - 1) // len(gamma)
    reps = np.array([pow(g, j, p) for j in range(n)], dtype=np.int64)
    k = reps[:, None] * np.asarray(gamma, dtype=np.int64)[None, :] % p
    return np.exp((2j * np.pi / p) * k).sum(axis=1)
