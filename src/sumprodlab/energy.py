"""Additive-energy functionals: moment energies, T_k, the weighted double sum,
popular differences and dyadic energy levels.

All integer-valued quantities are computed with exact integer arithmetic;
the only float on offer is the fractional moment (q = 3/2 and friends).
They all read one table r_{A-A} on the set's integer view, difference_table,
which is subgroups.pair_table(A, "-"): E, E_q and the energy splits sum over
its count profile, the popular set and the dyadic level are masks over its
sorted keys.  T_3, Sigma and the difference-triple count, for rationals and
residues alike, read the shift rows of A-A: one row per orbit of the largest
group H of units that fixes r.  The table, the rows and the dyadic level are
kept in setops.store(A).  The rows are int64 sums, of lookups of r at every
magnitude or mod a prime of the cyclotomic numbers of H (see _shift_rows).
Counting conventions: every count is over ordered tuples, and r_{A-B}(d) is
the number of ordered pairs (a, b) with a - b = d.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BadSpec, RestrictNotSubset, TooLarge
# combine is not called here; perfbench's tracer test expects the binding
from .setops import _BLOCK, CountTable, GSet, _dense_residues, _find, _int_array, combine, kept
from .subgroups import divisors, is_prime, pair_table, prime_tables

# Cap on |A-A| for Sigma, whose shift rows take |A-A|^2 lookups; the checks
# that need Sigma skip inputs above it.
SIGMA_SUPPORT_CAP = 5000
_HEAD_KEYS = 64  # keys _fixing_group tries a candidate on before the full check
_FINGERPRINT = (1 << 61) - 2_000_001  # a prime; mod 2^61 - 1 geo(q=2,n=64)'s differences collide
_HASH = 0x9E3779B97F4A7C15  # odd, so y -> y * _HASH mod 2^64 is one to one
_SLOTS_PER_KEY = 64  # least slots per looked-up key in _rows_lookup's table


def difference_table(A: GSet) -> CountTable:
    """r_{A-A} on A's integer view, shared by every functional of one set."""
    return pair_table(A, "-")


def energy_pair(A: GSet) -> int:
    """E(A) = sum_d r_{A-A}(d)^2 = sum_d |A ^ (A + d)|^2."""
    return difference_table(A).moment(2)


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


def difference_triple_count(A: GSet, restrict: GSet | PopularSet | None = None) -> int:
    """Ordered pairs (d, d') in D x R with d - d' in D, where D = A - A.

    R defaults to D; otherwise it is a subset of D, given as a GSet or as a
    mask over the table's keys (a PopularSet).  The count is the sum over d'
    in R of |D ^ (D + d')| = hits(d') of the shift rows, each of whose orbits
    stands for |orbit| keys of D; a GSet's keys find their positions, which
    select rows as a mask does, by one searchsorted into the table's keys.
    """
    table = difference_table(A)
    select = restrict.mask if isinstance(restrict, _KeyMask) else None
    if isinstance(restrict, GSet):
        if restrict.p != table.p:
            raise RestrictNotSubset("restriction set has the wrong kind")
        if table.scale % restrict.scale:  # R's keys fit only when its scale divides the table's
            raise RestrictNotSubset("restriction set is off the difference set's scale")
        keys = [v * (table.scale // restrict.scale) for v in restrict.ints]
        select = table.index(_int_array(keys))
        if (select < 0).any():
            k = keys[int(np.argmax(select < 0))]
            where = Fraction(k, table.scale) if table.p is None else f"{k} mod {table.p}"
            raise RestrictNotSubset(f"{where} not in the difference set")
    rows = _shift_rows(A)
    if restrict is None:
        return sum(map(operator.mul, rows.size, rows.hits))
    return int(np.take(rows.hits, rows.row[select]).sum())


@dataclass(frozen=True)
class _Rows:
    """The shift rows of D = A - A, one per H-orbit of D (see _shift_rows):
    the orbit's size and r-mass, and hits, lin and weight, which are constant
    on it; row[i] is the row of the table's i-th key."""

    order: int  # |H|
    row: np.ndarray
    size: list
    mass: list
    hits: list
    lin: list
    weight: list


@kept
def _shift_rows(A: GSet) -> _Rows:
    """The columns, for r = r_{A-A} with support D and e in D,

        hits(e) = #{d in D : d - e in D},   lin(e) = sum_d r(d) r(d - e),
        weight(e) = sum_d r(d) r(d - e)^2,

    with d - e mod p for residues.  H is the largest group of units with
    r(hx) = r(x): {1, -1} over the rationals, {1} for composite moduli, and
    mod a prime the stabiliser _fixing_group finds.  x -> hx maps the pairs
    counted at e onto those at he, so each column is computed at one key per
    H-orbit, and the rows follow the orbits: by |e| over the rationals, and
    mod a prime by coset dlog(e) mod (p - 1)/|H| after {0}, with g and the
    discrete-log table of F_p^* from subgroups.prime_tables, which the sets of
    one prime share within a table scope (one run_suite).

    Every column is an int64 sum of at most max r^2 |A|^2, so past 2^63 the
    rows are refused (TooLarge).  Mod a prime with H != {1}, _rows_cyclotomic
    computes them when its work, p + rows n^2 for n = (p - 1) / |H|, is below
    the lookups' rows |D|.  Else _rows_lookup looks each r(d - e) up: in a dense
    length-p table of r, which H reads too, mod p while _dense_residues(p,
    |A| |D|) (past that H = {1}), and otherwise by fingerprint at every magnitude."""
    table = difference_table(A)
    if table.max_count() ** 2 * table.total >= 1 << 63:
        raise TooLarge("max r^2 |A|^2 passes 2^63, the bound on each shift row's weight")
    p, keys, counts, dense = table.p, table.keys, table.counts, None
    if _dense_residues(p, A.size * keys.size):
        dense = np.zeros(p, dtype=np.int64)
        dense[keys] = counts
    order = 2 if p is None else 1 if dense is None else _fixing_group(p, dense)
    # the discrete-log table of F_p^*, for the labels and the cyclotomic numbers
    dlog = prime_tables(p).dlog if p is not None and order > 1 else None
    if dlog is None:
        _, first, row, size = np.unique(np.abs(keys) if p is None else keys, return_index=True,
                                        return_inverse=True, return_counts=True)
    else:  # label 0 for e = 0, else 1 + the coset: a bincount groups them without a sort
        n = (p - 1) // order
        labels = np.where(keys == 0, 0, 1 + dlog[keys] % n)
        size = np.bincount(labels)
        row = (np.cumsum(size > 0) - 1)[labels]
        size = size[size > 0]
        first = np.zeros(size.size, dtype=np.intp)
        first[row] = np.arange(keys.size)  # any key of an orbit stands for it
    if dlog is not None and p + first.size * n * n < first.size * keys.size:
        columns = _rows_cyclotomic(keys, counts, dlog, n)
    else:
        columns = _rows_lookup(keys, counts, first, p, dense)
    return _Rows(order, row.astype(np.int32), size.tolist(),
                 (size * counts[first]).tolist(), *columns)


def _rows_lookup(keys, counts, first, p: int | None, dense=None) -> tuple[list, list, list]:
    """(hits, lin, weight) at each key keys[first], keys ascending, from blocks
    of about _BLOCK values r(d - e), one int64 dot product per column.

    r(d - e) is read off dense, r over (-p, p) by negative-index wrap, if given.
    Else d - e is looked up unreduced among L = D, or D - p and D for residues,
    by fingerprint (f, q from _fingerprint(L)): x = f(d) - f(e) is f(d - e) or
    that minus q.  x is first tested in a table of 2^b >= _SLOTS_PER_KEY |L|
    slots marked at h(y) = (y K mod 2^64) >> (64 - b), K = _HASH, for y in f(L)
    and f(L) - q; x K = f(d) K - f(e) K, so a test is one wrapping subtraction,
    one shift and one gather.  Candidates go to searchsorted, and each match
    mod q is confirmed on Python ints: d - e must equal the key of L it matched.
    """
    n, step = keys.size, _BLOCK // max(keys.size, 1) or 1
    if dense is None:
        exact, r = keys, counts
        if p is not None:
            exact = np.concatenate(((keys if p < 1 << 63 else keys.astype(object)) - p, keys))
            r = np.tile(counts, 2)
        look, q = _fingerprint(exact)
        if q:
            look, r = np.concatenate((look - q, look)), np.tile(r, 2)
            exact = np.tile(exact.astype(object), 2)  # Python ints, for the confirmation
        f, kx, at = look[-n:], exact[-n:], np.argsort(look)
        look, r, exact = look[at], r[at], exact[at]
        bits = (_SLOTS_PER_KEY * look.size).bit_length()
        shift, mult, slots = np.uint64(64 - bits), np.uint64(_HASH), np.zeros(1 << bits, dtype=bool)
        slots[(look.view(np.uint64) * mult) >> shift] = True
        hk = f.view(np.uint64) * mult
    hits, lin, weight = [], [], []
    for lo in range(0, first.size, step):
        rows = first[lo:lo + step]
        if dense is not None:
            block = dense[keys - keys[rows, None]]
        else:
            slot = ((hk - hk[rows, None]) >> shift).view(np.int64)  # below 2^63 past the shift
            i, j = np.divmod(np.flatnonzero(slots[slot]), n)
            k, hit = _find(look, f[j] - f[rows[i]])
            if q:  # the fingerprints match; confirm d - e itself
                hit[hit] = kx[j[hit]] - kx[rows[i[hit]]] == exact[k[hit]]
            block = np.zeros((rows.size, n), dtype=np.int64)
            block[i[hit], j[hit]] = r[k[hit]]
        hits += np.count_nonzero(block, axis=1).tolist()
        lin += np.einsum("ij,j->i", block, counts).tolist()
        weight += np.einsum("ij,ij,j->i", block, block, counts).tolist()
    return hits, lin, weight


def _fingerprint(keys: np.ndarray) -> tuple[np.ndarray, int | None]:
    """(f(keys), q): the keys themselves and None while they lie in (-2^61, 2^61),
    else the keys mod the first prime q from _FINGERPRINT down that keeps them apart."""
    if not keys.size or -(1 << 61) < keys[0] and keys[-1] < 1 << 61:
        return keys, None
    q = _FINGERPRINT
    while np.unique(f := (keys % q).astype(np.int64)).size < keys.size:
        q = next(k for k in range(q - 2, 1, -2) if is_prime(k))
    return f, q


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


@dataclass(frozen=True)
class _KeyMask:
    """A threshold delta, a subset of the keys of r_{A-A} = table held as a
    boolean mask over table.keys, and its mass; members decodes it on each read,
    for the oracles."""

    delta: Fraction | int
    mask: np.ndarray = field(compare=False, repr=False)
    mass: int
    table: CountTable = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def members(self) -> GSet:
        return self.table.decode(self.table.keys[self.mask])


class PopularSet(_KeyMask):
    """Differences with r(d) >= Delta = |A|^2 / (2|A-A|), exact Delta; mass sums r(d)."""


class DyadicLevel(_KeyMask):
    """One dyadic popularity class [Delta, 2*Delta) maximizing its mass, sum r(d)^2."""


def popular_differences(A: GSet) -> PopularSet:
    """The popular-difference set P at the pigeonhole threshold.

    Mass invariant: sum_{d in P} r(d) >= |A|^2 / 2, since the unpopular
    differences contribute less than |A-A| * Delta = |A|^2 / 2.
    """
    table = difference_table(A)
    n2 = table.total  # |A|^2
    twice_support = 2 * table.support_size()
    least = -(-n2 // twice_support)  # r(d) >= Delta
    mass = sum(v * m for v, m in zip(*table.profile) if v >= least)
    return PopularSet(Fraction(n2, twice_support), table.counts >= least, mass, table)


@kept
def dyadic_energy_level(A: GSet) -> DyadicLevel:
    """Most energetic dyadic class; ties resolve toward the smaller level.

    With at most log2|A| + 1 nonempty classes, the winner carries at least
    E(A) / (2 log2|A| + 2) of the energy.
    """
    table = difference_table(A)
    classes: dict[int, int] = {}
    for c, m in zip(*table.profile):
        classes[c.bit_length() - 1] = classes.get(c.bit_length() - 1, 0) + m * c * c
    best_i = min(classes, key=lambda i: (-classes[i], i))
    delta = 1 << best_i
    mask = (delta <= table.counts) & (table.counts < 2 * delta)
    return DyadicLevel(delta, mask, classes[best_i], table)


def tail_decompose(A: GSet, delta) -> tuple[int, int, int]:
    """(E', E'', tail_support): energy split at threshold delta.

    E' sums r^2 over r <= delta, E'' over r > delta; E' + E'' = E(A).
    tail_support counts the differences with r > delta.
    """
    table = difference_table(A)
    high = [(c, m) for c, m in zip(*table.profile) if c > delta]
    e_high = sum(m * c * c for c, m in high)
    return table.moment(2) - e_high, e_high, sum(m for _, m in high)
