"""Brute-force reference counters, straight from the definitions.

Everything enumerates tuples naively (with guards on input size), so the
package's fast kernels have something independent to be measured against.
Values here never come from the implementations under test.
"""

import math
import operator
from fractions import Fraction
from itertools import product


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


def sigma(vals) -> int:
    """sum_{d,d'} r(d) r(d') r(d - d')^2 over the difference multiplicities."""
    r = diff_counts(vals)
    total = 0
    for d, rd in r.items():
        for e, re_ in r.items():
            w = r.get(d - e, 0)
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


def coset_gap(p, gamma, *, circular=True) -> int:
    """Longest run of consecutive residues avoiding some coset of Gamma."""
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
                if not circular and start + run >= p:
                    break
                run += 1
            best = max(best, run)
    return best


def rich_rect_mass(points, rects) -> int:
    """Points covered by a list of (abscissa set, ordinate set) rectangles."""
    covered = set()
    for xs, ys in rects:
        for pt in points:
            if pt[0] in xs and pt[1] in ys:
                covered.add(pt)
    return len(covered)
