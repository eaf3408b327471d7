"""Additive-energy functionals: moment energies, T_k, the weighted double sum,
popular differences and dyadic energy levels.

All integer-valued quantities are computed with exact integer arithmetic;
the only float on offer is the fractional moment (q = 3/2 and friends).
They all read one table r_{A-A} keyed on the set's integer view (see setops),
which difference_table builds once per set and keeps on it.  Sigma and the
rational difference-triple count share the shift rows of A-A, also kept on
the set (see _shift_rows).  Mod a prime, the difference-triple count sums one
translate overlap per orbit of the subgroup of F_p^* that fixes its sets,
times the orbit size.
Counting conventions: every count is over ordered tuples, and r_{A-B}(d) is
the number of ordered pairs (a, b) with a - b = d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadSpec, RestrictNotSubset, TooLarge
from .setops import (_BLOCK, CountTable, GSet, combine, difference_lookup, int_counts,
                     iterated_sum_counts)
from .subgroups import divisors, is_prime, powers, primitive_root

# Cap on |A-A| for Sigma, whose shift rows take |A-A|^2 lookups; the checks
# that need Sigma skip inputs above it.
SIGMA_SUPPORT_CAP = 5000


def difference_table(A: GSet) -> CountTable:
    """r_{A-A} on A's integer view, built on the first call and kept on A
    (like GSet.int_view), so every functional of one set shares it."""
    table = A.__dict__.get("_differences")
    if table is None:
        table = A.__dict__["_differences"] = combine(A, A, "-")
    return table


def energy_pair(A: GSet, B: GSet | None = None) -> int:
    """E(A, B) = sum_d |A ^ (B + d)|^2; E(A) when B is omitted."""
    counts = difference_table(A).entries if B is None else int_counts(A, B, "-")[0]
    return sum(c * c for c in counts.values())


def moment_energy(A: GSet, q):
    """E_q(A) = sum_d r(d)^q.  Exact int for integral q >= 1, float otherwise."""
    qf = Fraction(q)
    if qf < 1:
        raise BadSpec(f"moment exponent must be >= 1, got {q}")
    counts = difference_table(A).entries.values()
    if qf.denominator == 1:
        k = qf.numerator
        return sum(c**k for c in counts)
    qq = float(qf)
    return math.fsum(float(c) ** qq for c in counts)


def t_k(A: GSet, k: int) -> int:
    """T_k(A): ordered 2k-tuples with equal k-fold sums; T_2 = E."""
    if k < 2:
        raise BadSpec(f"T_k needs k >= 2, got {k}")
    return sum(c * c for c in iterated_sum_counts(A, k).entries.values())


def sigma_sum(A: GSet) -> int:
    """The weighted double sum  sum_{d,d'} r(d) r(d') r(d-d')^2  over A-A.

    Equivalently: ordered 8-tuples (a1,...,a8) from A solving
    a1 - a2 = a3 - a4 = (a5 - a6) - (a7 - a8).  Read off the shift rows as
    sum_e r(e) weight(e); guarded by SIGMA_SUPPORT_CAP.
    """
    table = difference_table(A)
    support = table.support_size()
    if support > SIGMA_SUPPORT_CAP:
        raise TooLarge(f"|A-A| = {support} exceeds the sigma_sum guard {SIGMA_SUPPORT_CAP}")
    return sum(table.entries[e] * weight for e, (_, weight) in _shift_rows(A).items())


def difference_triple_count(A: GSet, restrict: GSet | None = None) -> int:
    """Ordered pairs (d, d') in D x R with d - d' in D, where D = A - A.

    R defaults to D; otherwise restrict must be a subset of D.  The count is
    the sum over d' in R of |D ^ (D + d')|, which over the rationals is
    hits(d') of the shift rows.  Mod a prime p it runs over orbits: when h
    in F_p^* maps D and R onto themselves, x -> hx maps D ^ (D + r) onto
    D ^ (D + hr), so with H the largest subgroup of F_p^* that maps the
    nonzero elements of D and of R onto themselves,

        count = [0 in R] |D| + |H| * sum_r |D ^ (D + r)|,

    with one r per H-orbit of the nonzero elements of R.  Composite moduli
    (the mod p^2 lifts) keep H = {1}.
    """
    table = difference_table(A)
    if restrict is not None and restrict.p != table.p:
        raise RestrictNotSubset("restriction set has the wrong kind")
    if table.p is not None:
        return _orbit_triples(table, restrict)
    rows = _shift_rows(A)
    if restrict is None:
        return sum(hits for hits, _ in rows.values())
    # a key fits the table only when restrict's scale divides the table's
    rints, rscale = restrict.int_view()
    if table.scale % rscale:
        raise RestrictNotSubset("restriction set is off the difference set's scale")
    keys = [v * (table.scale // rscale) for v in rints]
    for k in keys:
        if k not in rows:
            raise RestrictNotSubset(f"{Fraction(k, table.scale)} not in the difference set")
    return sum(rows[k][0] for k in keys)


def _shift_rows(A: GSet) -> dict:
    """e -> (hits(e), weight(e)) for each key e of D, the support of r = r_{A-A}:
    hits(e) = #{d in D : d - e in D} and weight(e) = sum_d r(d) r(d - e)^2,
    with d - e mod p for residues.  Built on the first call and kept on A, so
    Sigma and every rational triple count share one pass over D x D.  The
    int64 tier runs while every key lies in (-2^61, 2^61), so each d - e
    fits, and max r^2 |A|^2, which bounds each weight, is below 2^63."""
    rows = A.__dict__.get("_shift_rows")
    if rows is None:
        table = difference_table(A)
        keys = sorted(table.entries)
        counts = [table.entries[k] for k in keys]
        lim = 1 << 61
        fits = (bool(keys) and -lim < keys[0] and keys[-1] < lim and (table.p or 0) < lim
                and table.max_count() ** 2 * table.total < 1 << 63)
        tier = _rows_int64 if fits else _rows_bigint
        rows = A.__dict__["_shift_rows"] = dict(zip(keys, zip(*tier(keys, counts, table.p))))
    return rows


def _rows_int64(keys: list, counts: list, p: int | None) -> tuple[list, list]:
    """(hits, weights) for the sorted keys, in blocks of at most _BLOCK
    lookups: one searchsorted per block and one int64 dot product per row."""
    kv, cv = np.asarray(keys, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    # slot len(keys) is a sentinel no shifted key equals, so a miss needs no clipping
    kx, cx = np.append(kv, np.iinfo(np.int64).max), np.append(cv, 0)
    hits, weights = [], []
    step = max(1, _BLOCK // len(keys))
    for lo in range(0, len(keys), step):
        shifted = kv - kv[lo:lo + step, None]
        if p is not None:
            shifted %= p
        idx = np.searchsorted(kv, shifted)
        found = kx[idx] == shifted
        r = np.where(found, cx[idx], 0)
        hits += np.count_nonzero(found, axis=1).tolist()
        weights += ((r * r) @ cv).tolist()
    return hits, weights


def _rows_bigint(keys: list, counts: list, p: int | None) -> tuple[list, list]:
    """(hits, weights) for the sorted keys on Python ints, one loop over D x D."""
    rmap = difference_lookup(zip(keys, counts), p)
    hits, weights = [], []
    for e in keys:
        row = [(rd, rmap[d - e]) for d, rd in zip(keys, counts) if d - e in rmap]
        hits.append(len(row))
        weights.append(sum(rd * c * c for rd, c in row))
    return hits, weights


def _orbit_triples(table: CountTable, restrict: GSet | None) -> int:
    """The mod-p difference-triple count, one overlap per H-orbit of R - {0}."""
    p = table.p
    dv = np.fromiter(table.entries, dtype=np.int64, count=len(table.entries))
    ind = np.zeros(p, dtype=bool)  # indicator of D
    ind[dv] = True
    rv = dv if restrict is None else np.asarray(restrict.ints, dtype=np.int64)
    outside = rv[~ind[rv]]
    if outside.size:
        raise RestrictNotSubset(f"{outside[0]} mod {p} not in the difference set")
    rnz = rv[rv != 0]
    group = _fixing_group(p, ind, dv[dv != 0], rnz)
    seen = np.zeros(p, dtype=bool)
    total = 0
    for r in rnz:
        if not seen[r]:
            seen[group * r % p] = True
            # x in D with x - r in D, for x >= r and for x < r (wrapping)
            total += int(np.count_nonzero(ind[r:] & ind[:p - r]))
            total += int(np.count_nonzero(ind[:r] & ind[p - r:]))
    zero_term = dv.size if rnz.size < rv.size else 0  # d' = 0: |D ^ D| = |D|
    return zero_term + group.size * total


def _fixing_group(p: int, ind: np.ndarray, dnz: np.ndarray, rnz: np.ndarray) -> np.ndarray:
    """Elements of the largest subgroup H of F_p^* that maps the residues dnz
    (indicator ind) and rnz each onto themselves; [1] when p is not prime.

    Both sets are unions of H-cosets, so |H| divides p - 1, |dnz| and |rnz|.
    F_p^* is cyclic, so the order-k candidate is generated by g^((p-1)/k);
    orders are tried largest first and k = 1 always passes.
    """
    # products of two residues must stay inside int64
    if p * p >= 1 << 63 or not is_prime(p):
        return np.ones(1, dtype=np.int64)
    rind = np.zeros(p, dtype=bool)
    rind[rnz] = True
    g = primitive_root(p)
    for k in reversed(divisors(math.gcd(p - 1, dnz.size, rnz.size))):
        h = pow(g, (p - 1) // k, p)
        if ind[dnz * h % p].all() and rind[rnz * h % p].all():
            break
    return powers(h, p, k)


@dataclass(frozen=True)
class PopularSet:
    """Differences with r(d) >= Delta = |A|^2 / (2|A-A|); carries exact Delta."""

    delta: Fraction
    members: GSet
    mass: int  # sum of r(d) over members


@dataclass(frozen=True)
class DyadicLevel:
    """One dyadic popularity class [Delta, 2*Delta) maximizing sum r(d)^2."""

    delta: int
    members: GSet
    mass: int  # sum of r(d)^2 over the class


def popular_differences(A: GSet) -> PopularSet:
    """The popular-difference set P at the pigeonhole threshold.

    Mass invariant: sum_{d in P} r(d) >= |A|^2 / 2, since the unpopular
    differences contribute less than |A-A| * Delta = |A|^2 / 2.
    """
    table = difference_table(A)
    n2 = table.total  # |A|^2
    twice_support = 2 * table.support_size()
    members = {v for v, c in table.entries.items() if twice_support * c >= n2}  # r(d) >= Delta
    mass = sum(table.entries[v] for v in members)
    return PopularSet(Fraction(n2, twice_support), table.decode(members), mass)


def dyadic_energy_level(A: GSet) -> DyadicLevel:
    """Most energetic dyadic class; ties resolve toward the smaller level.

    With at most log2|A| + 1 nonempty classes, the winner carries at least
    E(A) / (2 log2|A| + 2) of the energy.  Built on the first call and kept
    on A, like the difference table it is read from.
    """
    level = A.__dict__.get("_dyadic")
    if level is None:
        table = difference_table(A)
        classes: dict[int, int] = {}
        for c in table.entries.values():
            classes[c.bit_length() - 1] = classes.get(c.bit_length() - 1, 0) + c * c
        best_i = min(classes, key=lambda i: (-classes[i], i))
        delta = 1 << best_i
        members = {v for v, c in table.entries.items() if delta <= c < 2 * delta}
        level = A.__dict__["_dyadic"] = DyadicLevel(delta, table.decode(members), classes[best_i])
    return level


def tail_decompose(A: GSet, delta) -> tuple[int, int, int]:
    """(E', E'', tail_support): energy split at threshold delta.

    E' sums r^2 over r <= delta, E'' over r > delta; E' + E'' = E(A).
    tail_support counts the differences with r > delta.
    """
    counts = difference_table(A).entries.values()
    high = [c for c in counts if c > delta]
    e_high = sum(c * c for c in high)
    return sum(c * c for c in counts) - e_high, e_high, len(high)
