"""Additive-energy functionals: moment energies, T_k, the weighted double sum,
popular differences and dyadic energy levels.

All integer-valued quantities are computed with exact integer arithmetic;
the only float on offer is the fractional moment (q = 3/2 and friends).
They all read one table r_{A-A} keyed on the set's integer view (see setops),
which difference_table builds once per set and keeps on it: E, E_q and the
energy splits sum over its count profile, the popular set and the dyadic level
are masks over its sorted keys.  A subgroup of F_p^* builds the table from
one pass over its elements (subgroups.orbit_table).  T_3, Sigma and the
difference-triple count, for rationals and residues alike, read the shift
rows of A-A, also kept on the set: one row per orbit of the largest group H
of units that fixes r.  Three tiers compute the rows (see _shift_rows):
int64 lookups over D; mod a prime, the cyclotomic numbers of H where that is
less work; and a big-integer loop past the int64 guards.
Counting conventions: every count is over ordered tuples, and r_{A-B}(d) is
the number of ordered pairs (a, b) with a - b = d.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadSpec, RestrictNotSubset, TooLarge
from .setops import _BLOCK, CountTable, GSet, _int_array, combine
from .subgroups import divisors, is_prime, orbit_table, prime_tables

# Cap on |A-A| for Sigma, whose shift rows take |A-A|^2 lookups; the checks
# that need Sigma skip inputs above it.
SIGMA_SUPPORT_CAP = 5000
_HEAD_KEYS = 64  # keys _fixing_group tries a candidate on before the full check


def difference_table(A: GSet) -> CountTable:
    """r_{A-A} on A's integer view, built on the first call and kept on A
    (like GSet.int_view), so every functional of one set shares it.  A
    subgroup of F_p^* with |A|^2 >= p takes one pass over A
    (subgroups.orbit_table); every other set takes the pair kernel."""
    table = A.__dict__.get("_differences")
    if table is None:
        table = orbit_table(A, "-")  # one pass over A when A is a subgroup
        if table is None:
            table = combine(A, A, "-")
        A.__dict__["_differences"] = table
    return table


def energy_pair(A: GSet, B: GSet | None = None) -> int:
    """E(A, B) = sum_d |A ^ (B + d)|^2; E(A) when B is omitted."""
    return (difference_table(A) if B is None else combine(A, B, "-")).moment(2)


def moment_energy(A: GSet, q):
    """E_q(A) = sum_d r(d)^q.  Exact int for integral q >= 1, float otherwise."""
    qf = Fraction(q)
    if qf < 1:
        raise BadSpec(f"moment exponent must be >= 1, got {q}")
    table = difference_table(A)
    if qf.denominator == 1:
        return table.moment(qf.numerator)
    qq = float(qf)  # the exact sum, rounded once, is what fsum over every key gives
    return float(sum(m * Fraction(float(v) ** qq) for v, m in zip(*table.profile)))


def t_k(A: GSet, k: int) -> int:
    """T_k(A) for k in {2, 3}: ordered 2k-tuples with equal k-fold sums.

    T_2 = E(A).  a1 + a2 + a3 = a4 + a5 + a6 says (a1 - a4) + (a2 - a5) =
    a6 - a3, and r is symmetric, so T_3 = sum_e r(e) lin(e) off the shift rows.
    """
    if k == 2:
        return energy_pair(A)
    if k != 3:
        raise BadSpec(f"T_k is counted for k = 2 and 3, got {k}")
    rows = _shift_rows(A)
    return sum(map(operator.mul, rows.mass, rows.lin))


def sigma_sum(A: GSet) -> int:
    """The weighted double sum  sum_{d,d'} r(d) r(d') r(d-d')^2  over A-A.

    Equivalently: ordered 8-tuples (a1,...,a8) from A solving
    a1 - a2 = a3 - a4 = (a5 - a6) - (a7 - a8).  Read off the shift rows as
    sum_e r(e) weight(e); guarded by SIGMA_SUPPORT_CAP.
    """
    support = difference_table(A).support_size()
    if support > SIGMA_SUPPORT_CAP:
        raise TooLarge(f"|A-A| = {support} exceeds the sigma_sum guard {SIGMA_SUPPORT_CAP}")
    rows = _shift_rows(A)
    return sum(map(operator.mul, rows.mass, rows.weight))


def difference_triple_count(A: GSet, restrict: GSet | None = None) -> int:
    """Ordered pairs (d, d') in D x R with d - d' in D, where D = A - A.

    R defaults to D; otherwise restrict must be a subset of D.  The count is
    the sum over d' in R of |D ^ (D + d')| = hits(d') of the shift rows,
    each of whose orbits stands for |orbit| keys of D; R's keys find their rows
    by one searchsorted into the table's keys.
    """
    table = difference_table(A)
    if restrict is not None and restrict.p != table.p:
        raise RestrictNotSubset("restriction set has the wrong kind")
    rows = _shift_rows(A)
    if restrict is None:
        return sum(map(operator.mul, rows.size, rows.hits))
    # a key fits the table only when restrict's scale divides the table's
    rints, rscale = restrict.int_view()
    if table.scale % rscale:
        raise RestrictNotSubset("restriction set is off the difference set's scale")
    keys = rints if rscale == table.scale else [v * (table.scale // rscale) for v in rints]
    at = table.index(_int_array(keys))
    if (at < 0).any():
        k = keys[int(np.argmax(at < 0))]
        where = Fraction(k, table.scale) if table.p is None else f"{k} mod {table.p}"
        raise RestrictNotSubset(f"{where} not in the difference set")
    return int(np.take(rows.hits, rows.row[at]).sum())


@dataclass(frozen=True)
class _Rows:
    """The shift rows of D = A - A, one per H-orbit of D, sorted by label
    (see _orbit_labels): the orbit's size and r-mass, and hits, lin and
    weight, which are constant on it; row[i] is the row of the table's i-th key."""

    order: int  # |H|
    row: np.ndarray
    size: list
    mass: list
    hits: list
    lin: list
    weight: list


def _shift_rows(A: GSet) -> _Rows:
    """The columns, for r = r_{A-A} with support D and e in D,

        hits(e) = #{d in D : d - e in D},   lin(e) = sum_d r(d) r(d - e),
        weight(e) = sum_d r(d) r(d - e)^2,

    with d - e mod p for residues.  H is the largest group of units with
    r(hx) = r(x): {1, -1} over the rationals, {1} for composite moduli, and
    mod a prime the stabiliser _fixing_group finds.  x -> hx maps the pairs
    counted at e onto those at he, so each column is computed at one key per
    H-orbit.  Kept on A, so T_3, Sigma and every triple count share one build.
    Mod a prime, g and the discrete-log table of F_p^* come from
    subgroups.prime_tables, so the sets of one prime share them within a
    table scope (one run_suite).

    Three tiers compute the columns:
    * _rows_int64, while every key lies in (-2^61, 2^61), so each d - e fits,
      and max r^2 |A|^2, which bounds each weight, is below 2^63: |D| lookups
      per row.  Mod p, r is spread into one dense length-p table, which H and
      these rows read, only while p <= max(_BLOCK, |A| |D|); past that H = {1}.
    * _rows_cyclotomic, mod a prime with the dense table and H != {1}, from the
      n x n cyclotomic numbers of H, n = (p - 1) / |H|: taken when its work,
      p + rows n^2, is below the lookups' rows |D|.
    * _rows_bigint past the int64 guards: one Python loop over D per row."""
    rows = A.__dict__.get("_shift_rows")
    if rows is None:
        table = difference_table(A)
        p, keys, counts, lim = table.p, table.keys, table.counts, 1 << 61
        fits = keys.size > 0 and table.max_count() ** 2 * table.total < 1 << 63 and (
            p < lim if p is not None else -lim < keys[0] and keys[-1] < lim)
        dense = None
        if fits and p is not None and p <= max(_BLOCK, A.size * keys.size):
            dense = np.zeros(p, dtype=np.int64)
            dense[keys] = counts
        order = 2 if p is None else 1 if dense is None else _fixing_group(p, dense)
        # the discrete-log table of F_p^*, for the labels and the cyclotomic numbers
        dlog = prime_tables(p).dlog if p is not None and order > 1 else None
        labels = _orbit_labels(keys, p, order, dlog)
        if dlog is None:
            _, first, row, size = np.unique(labels, return_index=True,
                                            return_inverse=True, return_counts=True)
        else:  # labels lie in [0, n], so a bincount groups them without a sort
            n = (p - 1) // order
            size = np.bincount(labels)
            row = (np.cumsum(size > 0) - 1)[labels]
            size = size[size > 0]
            first = np.zeros(size.size, dtype=np.intp)
            first[row] = np.arange(keys.size)  # any key of an orbit stands for it
        reps = keys[first]
        if dlog is not None and p + first.size * n * n < first.size * keys.size:
            columns = _rows_cyclotomic(keys, counts, dlog, n)
        elif fits:
            columns = _rows_int64(keys, counts, reps, p, dense)
        else:
            columns = _rows_bigint(keys.tolist(), counts.tolist(), reps.tolist(), p)
        rows = A.__dict__["_shift_rows"] = _Rows(
            order, row.astype(np.int32), size.tolist(), (size * counts[first]).tolist(), *columns)
    return rows


def _rows_int64(keys, counts, reps, p: int | None, dense=None) -> tuple[list, list, list]:
    """(hits, lin, weight) at each key of reps, in blocks of at most _BLOCK
    lookups, one int64 dot product per column; r(d - e) is read from dense (r
    over (-p, p) by negative-index wrap) or by searchsorted into the keys,
    which come ascending."""
    kv, cv = np.asarray(keys, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    if dense is not None:
        lookup = dense.__getitem__
    else:
        # slot len(keys) is a sentinel no shifted key equals, so a miss needs no clipping
        kx, cx = np.append(kv, np.iinfo(np.int64).max), np.append(cv, 0)

        def lookup(shifted):
            if p is not None:
                shifted %= p
            idx = np.searchsorted(kv, shifted)
            return np.where(kx[idx] == shifted, cx[idx], 0)
    rv = np.asarray(reps, dtype=np.int64)
    hits, lin, weight = [], [], []
    step = max(1, _BLOCK // kv.size)
    for lo in range(0, rv.size, step):
        r = lookup(kv - rv[lo:lo + step, None])
        hits += np.count_nonzero(r, axis=1).tolist()
        lin += (r @ cv).tolist()
        weight += ((r * r) @ cv).tolist()
    return hits, lin, weight


def _rows_bigint(keys, counts, reps, p: int | None) -> tuple[list, list, list]:
    """(hits, lin, weight) at each key of reps on Python ints, one loop over D per row."""
    rmap = dict(zip(keys, counts))
    if p is not None:  # d - e lies in (-p, p), so each residue key is also kept minus p
        rmap.update([(k - p, c) for k, c in rmap.items()])
    hits, lin, weight = [], [], []
    for e in reps:
        row = [(rd, rmap[d - e]) for d, rd in zip(keys, counts) if d - e in rmap]
        hits.append(len(row))
        lin.append(sum(rd * c for rd, c in row))
        weight.append(sum(rd * c * c for rd, c in row))
    return hits, lin, weight


def _fixing_group(p: int, r: np.ndarray) -> int:
    """|H| for the largest subgroup H of F_p^* with r(hx) = r(x) for every x,
    r given as a dense length-p table; 1 when p is not prime.

    H always holds -1, as r is symmetric.  D - {0} is a union of H-cosets, so
    |H| divides p - 1 and |D| - 1.  F_p^* is cyclic, so the order-k candidate
    is generated by g^((p-1)/k); orders are tried largest first and k = 1
    always passes.  A candidate is tried on the first _HEAD_KEYS keys before
    all of them, so most wrong ones cost no full gather.
    """
    # products of two residues must stay inside int64
    if p * p >= 1 << 63 or not is_prime(p):
        return 1
    keys = np.flatnonzero(r)
    head = keys[:_HEAD_KEYS]
    g = prime_tables(p).g
    for k in reversed(divisors(math.gcd(p - 1, keys.size - 1))):
        h = pow(g, (p - 1) // k, p)
        if (r[head * h % p] == r[head]).all() and (r[keys * h % p] == r[keys]).all():
            return k


def _rows_cyclotomic(keys, counts, dlog: np.ndarray, n: int) -> tuple[list, list, list]:
    """(hits, lin, weight) at 0 and at one key per coset of H in D - {0},
    cosets ascending, for residues mod a prime p with keys ascending from 0.

    Let c(y) = dlog(y) mod n label the H-cosets, rho[i] the value of r on coset i,
    rho_k[i] = rho[i + k], and N[i, j] = #{y not in {0, 1} : c(y) = i,
    c(y - 1) = j} the cyclotomic numbers of H.  For e in coset k, d = ey runs
    over F_p, and y = 0 and y = 1 give the terms at d = 0 and d = e:

        lin(e)    = rho_k N rho_k + 2 r(0) r(e),
        weight(e) = sum_{i,j} N[i, j] rho_k[i] rho_k[j]^2 + r(0) r(e)^2 + r(e) r(0)^2,
        hits(e)   = the same sum over the indicator of rho_k > 0, plus 2.

    N is one bincount over the dlog table, and every row comes from one int64
    matrix product; each term is part of a column, so none overflows.  At
    e = 0 the columns are |D|, sum r^2 and sum r^3.
    """
    c = dlog % n  # c[y] for y in [1, p - 1]
    cyclo = np.bincount(c[2:] * n + c[1:-1], minlength=n * n).reshape(n, n)
    rho = np.zeros(n, dtype=np.int64)
    rho[c[keys[1:]]] = counts[1:]
    k = np.flatnonzero(rho)
    shifted = rho[(k[:, None] + np.arange(n)) % n]
    present = (shifted > 0).astype(np.int64)
    prod = np.vstack((shifted, present)) @ cyclo
    left, r0, re = prod[:k.size] * shifted, int(counts[0]), rho[k]
    return ([keys.size] + ((prod[k.size:] * present).sum(axis=1) + 2).tolist(),
            [int(counts @ counts)] + (left.sum(axis=1) + 2 * r0 * re).tolist(),
            [int(counts * counts @ counts)]
            + ((left * shifted).sum(axis=1) + r0 * re * re + re * r0 * r0).tolist())


def _orbit_labels(keys: np.ndarray, p: int | None, order: int, dlog) -> np.ndarray:
    """The label of each key's H-orbit, |H| = order: |e| over the rationals,
    e itself when H = {1}, and mod a prime 0 for e = 0 and otherwise 1 plus
    the discrete-log coset dlog[e] mod (p - 1)/|H|."""
    if p is None:
        return np.abs(keys)
    if order == 1:
        return keys
    return np.where(keys == 0, 0, 1 + dlog[keys] % ((p - 1) // order))


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
    popular = table.counts >= -(-n2 // twice_support)  # r(d) >= Delta
    mass = int(table.counts[popular].sum())
    return PopularSet(Fraction(n2, twice_support), table.decode(table.keys[popular]), mass)


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
        for c, m in zip(*table.profile):
            classes[c.bit_length() - 1] = classes.get(c.bit_length() - 1, 0) + m * c * c
        best_i = min(classes, key=lambda i: (-classes[i], i))
        delta = 1 << best_i
        members = table.keys[(delta <= table.counts) & (table.counts < 2 * delta)]
        level = A.__dict__["_dyadic"] = DyadicLevel(delta, table.decode(members), classes[best_i])
    return level


def tail_decompose(A: GSet, delta) -> tuple[int, int, int]:
    """(E', E'', tail_support): energy split at threshold delta.

    E' sums r^2 over r <= delta, E'' over r > delta; E' + E'' = E(A).
    tail_support counts the differences with r > delta.
    """
    table = difference_table(A)
    high = [(c, m) for c, m in zip(*table.profile) if c > delta]
    e_high = sum(m * c * c for c, m in high)
    return table.moment(2) - e_high, e_high, sum(m for _, m in high)
