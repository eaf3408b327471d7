"""Multiplicative subgroups of Z/p and their lifts to Z/p^2.

Builds the order-t subgroup Gamma from the smallest primitive root, indexes
cosets through a discrete-log table, and provides the statistics the harness
consumes: largest circular coset gap, window membership counts
computed by two independent routes, exponential sums with their moment
identities, and the Kolmogorov-style smallness criterion.

Every pair table built from Gamma is constant on the cosets of Gamma, so
one pass over Gamma gives r_{Gamma +-*/ Gamma}, and lemma 18's E(Q, Gamma)
for a union Q of cosets (coset_union_energy); a coset xGamma is labelled by
x^t, which needs no discrete-log table.  pair_table(A, op), the one route to
every self-table r_{A op A}, kept in setops.store(A), takes that pass for a
subgroup with |A|^2 >= p and the generic pair kernel setops.combine
otherwise; combine is also the pass's cross-check in the tests.

The tables of F_p^* itself (the smallest primitive root g, the powers g^k,
the discrete-log table and the unit roots e(k/p)) come from prime_tables(p),
the one entry point every kernel reads them through: SubgroupCtx.dlog,
gap_H, window_counts, char_sums, coset_union_energy, scan_gaps and energy's
shift rows.  Inside a table_scope() it keeps the tables of the last prime
asked for, so the inputs of one prime, run one after another, share one
build; run_suite opens the scope around a run and each worker batch.
Outside a scope every call builds afresh, so no work carries over from one
run to the next.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    BadSpec,
    CrossCheckMismatch,
    IndexOutOfRange,
    NotPrime,
    OrderDoesNotDivide,
    TooLarge,
)
from .setops import _OPS, CountTable, GSet, combine, kept

# Miller-Rabin on these witnesses is deterministic below _MR_LIMIT (about
# 3.2 * 10^23), the least strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318_665_857_834_031_151_167_461

MOMENT_TOL = 1e-6  # relative tolerance of the character-sum moment identities
LIFT_T_CAP = 64  # largest t that mod_p2_subgroup accepts
CHAR_P_CAP = 10_000_000  # largest p that char_sums accepts


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise BadSpec(f"primality test is only deterministic below {_MR_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for the sizes used here."""
    if n < 1:
        raise BadSpec("factorize wants a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for q, e in factorize(n).items():
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def primitive_root(p: int) -> int:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        return 1
    targets = [(p - 1) // q for q in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, e, p) != 1 for e in targets):
            return g
    raise NotPrime(f"no primitive root found for {p}")  # unreachable for prime p


def powers(h: int, p: int, k: int) -> np.ndarray:
    """[h^0, h^1, ..., h^(k-1)] mod p as int64, by doubling the table."""
    if p * p >= 1 << 63:  # products of two residues must stay inside int64
        raise TooLarge(f"modulus {p} is too large for an int64 power table")
    elems = np.ones(1, dtype=np.int64)
    while elems.size < k:
        elems = np.concatenate((elems, elems * pow(h, elems.size, p) % p))
    return elems[:k]


@dataclass(eq=False)  # the tables are arrays, which do not compare to one bool
class PrimeTables:
    """The tables of F_p^* for one prime p: the smallest primitive root g,
    pow[k] = g^k for k < p - 1, dlog[x] = k with g^k = x for x in [1, p-1]
    (entry 0 is unused) and, built on first use, the unit roots."""

    p: int
    g: int
    pow: np.ndarray
    dlog: np.ndarray
    _roots: np.ndarray | None = field(default=None, repr=False)

    def roots(self) -> np.ndarray:
        """roots()[k] = e(k/p) = exp(2 pi i k / p) for k < p."""
        if self._roots is None:
            self._roots = np.exp((2j * np.pi / self.p) * np.arange(self.p, dtype=np.int64))
        return self._roots


def _build_tables(p: int) -> PrimeTables:
    g = primitive_root(p)
    pw = powers(g, p, p - 1)
    dlog = np.zeros(p, dtype=np.int64)
    dlog[pw] = np.arange(p - 1)
    return PrimeTables(p, g, pw, dlog)


# The tables prime_tables keeps: None outside a table_scope, else a list
# holding the tables of the last prime built in the scope (empty at first).
_HELD: ContextVar[list | None] = ContextVar("sumprodlab_prime_tables", default=None)


@contextmanager
def table_scope() -> Iterator[None]:
    """Within this block prime_tables keeps one prime's tables between calls."""
    token = _HELD.set([])
    try:
        yield
    finally:
        _HELD.reset(token)


def prime_tables(p: int) -> PrimeTables:
    """The tables of F_p^*, p prime: the ones kept by the enclosing table_scope
    when they are for p, else a fresh build, which the scope then keeps in
    place of the previous prime's."""
    held = _HELD.get()
    if held and held[0].p == p:
        return held[0]
    tables = _build_tables(p)
    if held is not None:
        held[:] = [tables]
    return tables


@dataclass
class SubgroupCtx:
    p: int
    t: int
    g: int
    gamma: tuple[int, ...]
    _gset: GSet | None = field(default=None, repr=False, compare=False)

    @property
    def cosets(self) -> int:
        return (self.p - 1) // self.t

    def gamma_set(self) -> GSet:
        """Gamma as one GSet, built on the first call and kept with its store."""
        if self._gset is None:
            self._gset = GSet(self.gamma, 1, self.p)  # gamma is sorted, distinct and 0-free
        return self._gset

    def dlog(self) -> np.ndarray:
        """dlog()[x] = k with g^k = x for x in [1, p-1] (entry 0 unused), from prime_tables(p)."""
        return prime_tables(self.p).dlog

    def label(self) -> str:
        return f"subgroup(p={self.p},t={self.t})"


def subgroup_context(p: int, t: int) -> SubgroupCtx:
    if p == 2 or not is_prime(p):
        raise NotPrime(f"{p} is not an odd prime")
    if t < 1 or (p - 1) % t != 0:
        raise OrderDoesNotDivide(f"{t} does not divide {p - 1}")
    g = primitive_root(p)
    gen = pow(g, (p - 1) // t, p)
    members = []
    x = 1
    for _ in range(t):
        members.append(x)
        x = x * gen % p
    if x != 1 or len(set(members)) != t:
        raise CrossCheckMismatch("generator order is off")
    return SubgroupCtx(p, t, g, tuple(sorted(members)))


# -- Gamma-orbit pair tables -------------------------------------------------

def _pow_mod(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """x^e mod p elementwise, by repeated squaring."""
    if p * p >= 1 << 63:  # products of two residues must stay inside int64
        raise TooLarge(f"modulus {p} is too large for int64 powers")
    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


@kept
def pair_table(A: GSet, op: str) -> CountTable:
    """r_{A op A}: from one pass over A (_orbit_table) when A is the order-t
    subgroup Gamma of F_p^* and t^2 >= p, where the pair kernel would count
    t^2 pairs into a length-p table; from setops.combine for any other set."""
    p, t = A.p, A.size
    if (op in _OPS and p is not None and t * t >= p and p * p < 1 << 63
            and (p - 1) % t == 0 and is_prime(p)):
        gamma = np.array(A.ints, dtype=np.int64)
        # t distinct roots of x^t = 1 in the field F_p are all of them, so A is Gamma
        if (_pow_mod(gamma, t, p) == 1).all():
            return _orbit_table(gamma, p, op)
    return combine(A, A, op)


def _orbit_table(gamma: np.ndarray, p: int, op: str) -> CountTable:
    """r_{Gamma op Gamma} from one pass over Gamma, given sorted as int64.

    Gamma Gamma = Gamma / Gamma = Gamma, each element made by t pairs.  For
    x != 0, a - b = x with a = ub (u in Gamma) says b = x / (u - 1), which
    lies in Gamma exactly when u - 1 lies in x Gamma.  So r_{Gamma-Gamma}(x)
    = #{u in Gamma - {1} : u - 1 in x Gamma}, and likewise r_{Gamma+Gamma}(x)
    = #{u in Gamma - {-1} : 1 + u in x Gamma}: one count per coset, spread
    over the coset.  At 0 they count t, and t when -1 is in Gamma.
    """
    t = gamma.size
    if op in "*/":
        return CountTable(gamma, np.full(t, t, dtype=np.int64), t * t, p)
    shifted = gamma[gamma != 1] - 1 if op == "-" else gamma[gamma != p - 1] + 1
    _, first, m = np.unique(_pow_mod(shifted, t, p), return_index=True, return_counts=True)
    r = np.zeros(p, dtype=np.int64)
    r[shifted[first, None] * gamma % p] = m[:, None]
    r[0] = t * (t - shifted.size)  # t pairs when the excluded u is in Gamma
    keys = np.flatnonzero(r)
    return CountTable(keys, r[keys], t * t, p)


def coset_union_energy(ctx: SubgroupCtx, indices: Iterable[int]) -> tuple[int, int]:
    """(E(Q, Gamma), |Q|) for Q the union of the cosets g^j Gamma, j in
    indices, from one pass over Q (lemma 18).

    Q is Gamma-invariant, so q - b = x with q = vb (v in Q) says b = x / (v - 1):
    for x != 0 in g^j Gamma, r_{Q-Gamma}(x) = m_j = #{v in Q - {1} : v - 1 in
    g^j Gamma}, and r(0) = |Q ^ Gamma|.  So E(Q, Gamma) = |Q ^ Gamma|^2 +
    t sum_j m_j^2, with the cosets labelled by x^t.
    """
    js = sorted(set(indices))
    for j in js:
        if not 0 <= j < ctx.cosets:
            raise IndexOutOfRange(f"coset index {j} outside 0..{ctx.cosets - 1}")
    p, t = ctx.p, ctx.t
    reps = prime_tables(p).pow[js]  # g^j
    union = (reps[:, None] * np.array(ctx.gamma, dtype=np.int64) % p).ravel()
    _, m = np.unique(_pow_mod(union[union != 1] - 1, t, p), return_counts=True)
    inside = t if js and js[0] == 0 else 0  # coset 0 is Gamma
    return inside**2 + t * int((m * m).sum()), union.size


# -- coset gaps --------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    p: int
    t: int
    gap: int
    coset: int
    start: int


def _bucket_positions(dlog: np.ndarray, cosets: int) -> tuple[np.ndarray, np.ndarray]:
    """(residues, coset of each): 1..p-1 grouped by coset, ascending within one."""
    coset = dlog[1:] % cosets
    # a stable sort keeps residues ascending; on 16-bit labels numpy's is a radix sort
    labels = coset.astype(np.uint16) if cosets <= 1 << 16 else coset
    order = np.argsort(labels, kind="stable")
    return order + 1, coset[order]


def gap_H(ctx: SubgroupCtx) -> GapReport:
    """Longest run of consecutive residues u+1, ..., u+H avoiding a coset,
    maximized over the cosets.

    Runs live in Z/p, so they may pass through 0 (never a coset member) and
    wrap around.  Each member opens one candidate run: up to the next member
    of its coset, or from a coset's last member through p-1, 0, 1, ... to its
    first.  The first longest candidate, cosets ascending and members
    ascending, wins; it is re-verified against the discrete-log table before
    returning.
    """
    p, dlog = ctx.p, ctx.dlog()
    pos, coset = _bucket_positions(dlog, ctx.cosets)
    last = np.append(coset[1:] != coset[:-1], True)  # the last member of its coset
    head = pos[np.append(True, last[:-1])]  # the first member of each coset
    runs = np.where(last, head[coset] + (p - 1) - pos, np.append(pos[1:], 0) - pos - 1)
    i = int(np.argmax(runs))
    gap, coset, start = int(runs[i]), int(coset[i]), int(pos[i]) + 1
    run = (start + np.arange(gap)) % p
    run = run[run != 0]  # 0 lies in no coset
    if (dlog[run] % ctx.cosets == coset).any():
        raise CrossCheckMismatch("gap witness contains a coset element")
    return GapReport(p, ctx.t, gap, coset, start)


def scan_gaps(primes: Iterable[int], *,
              t_filter: Callable[[int, int], bool] | None = None,
              ) -> Iterator[tuple[int, int, int]]:
    """Yields (p, t, circular gap) over every divisor t of p - 1 that passes
    the filter.  One discrete-log table per prime, vectorized bucketing per
    divisor, so a full sweep of small primes stays cheap."""
    for p in primes:
        dlog = prime_tables(p).dlog[1:]
        res = np.arange(1, p, dtype=np.int64)
        for t in divisors(p - 1):
            if t_filter is not None and not t_filter(p, t):
                continue
            n = (p - 1) // t
            c = dlog % n
            order = np.lexsort((res, c))
            rs = res[order]
            cs = c[order]
            gap = 0
            same = cs[1:] == cs[:-1]
            if same.any():
                gap = int((rs[1:] - rs[:-1])[same].max()) - 1
            starts = np.flatnonzero(np.r_[True, ~same])
            ends = np.r_[starts[1:], len(rs)]
            wrap = int((rs[starts] + (p - 1) - rs[ends - 1]).max())
            yield p, t, max(gap, wrap)


# -- window counts -----------------------------------------------------------

def window_counts(ctx: SubgroupCtx, h: int) -> tuple[int, list[int]]:
    """N(h) = sum over cosets of (coset hits in {±1, ..., ±h})^2.

    Cross-checked against the direct pair count #{(x, y) in the window with
    y/x in Gamma}; the two must agree exactly.
    """
    p = ctx.p
    if not 1 <= h <= (p - 1) // 2:
        raise BadSpec(f"window radius must lie in [1, {(p - 1) // 2}]")
    window = [v for u in range(1, h + 1) for v in (u, p - u)]
    counts = np.bincount(ctx.dlog()[window] % ctx.cosets, minlength=ctx.cosets).tolist()
    total = sum(c * c for c in counts)
    members = set(ctx.gamma)
    direct = 0
    for xw in window:
        xinv = pow(xw, -1, p)
        for yw in window:
            if yw * xinv % p in members:
                direct += 1
    if direct != total:
        raise CrossCheckMismatch(
            f"window count routes disagree: {direct} vs {total}")
    return total, counts


# -- exponential sums --------------------------------------------------------

@dataclass
class CharReport:
    p: int
    t: int
    fourth_moment: float      # sum over coset reps of |S_j|^4
    second_moment: float      # sum over coset reps of |S_j|^2
    energy: int               # E(Gamma)

    @property
    def strict_bound_ok(self) -> bool:
        # t^4 > 0 makes the moment identity a strict inequality
        return self.fourth_moment < (self.p / self.t) * self.energy


def char_sums(ctx: SubgroupCtx) -> np.ndarray:
    """S_j = sum over x in Gamma of e(g^j x / p), one j per coset (see _char_table)."""
    return _char_table(ctx.gamma_set())


@kept
def _char_table(G: GSet) -> np.ndarray:
    """char_sums of the subgroup G, p = G.p and t = |G|, kept in store(G) beside
    the difference table E(G) is read off.  |S| is constant on cosets, so these
    n values carry the full spectrum.  The phases e(k/p) are read from
    prime_tables(p).roots().  The table is verified once against the second and
    fourth moment identities (t sum|S|^2 = t(p - t), t sum|S|^4 = p E(G) - t^4)."""
    from .energy import energy_pair  # energy imports this module

    p, t = G.p, G.size
    if p > CHAR_P_CAP:
        raise TooLarge(f"exponential sum table wants p <= {CHAR_P_CAP}, got {p}")
    tables = prime_tables(p)
    reps = tables.pow[:(p - 1) // t]  # g^j for j < n, one per coset
    gamma = np.asarray(G.ints, dtype=np.int64)
    S = tables.roots()[reps[:, None] * gamma[None, :] % p].sum(axis=1)
    absS = np.abs(S)
    second = t * float((absS**2).sum())
    if abs(second - t * (p - t)) > MOMENT_TOL * max(1.0, t * (p - t)):
        raise CrossCheckMismatch(
            f"second moment {second} != t(p-t) = {t * (p - t)}")
    fourth = t * float((absS**4).sum())
    target = p * energy_pair(G) - t**4
    if abs(fourth - target) > MOMENT_TOL * max(1.0, abs(target)):
        raise CrossCheckMismatch(
            f"fourth moment {fourth} != pE - t^4 = {target}")
    return S


def char_moment_report(ctx: SubgroupCtx) -> CharReport:
    """The moments of char_sums(ctx), which raises CrossCheckMismatch unless
    both moment identities hold to MOMENT_TOL, and E(Gamma)."""
    from .energy import energy_pair

    S = np.abs(char_sums(ctx))
    return CharReport(ctx.p, ctx.t, float((S**4).sum()), float((S**2).sum()),
                      energy_pair(ctx.gamma_set()))


@dataclass(frozen=True)
class KsReport:
    p: int
    t: int
    h: int
    value: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.value <= self.threshold


def ks_criterion(ctx: SubgroupCtx, h: int) -> KsReport:
    """max over shifts k of sum_j N_j |S_{j+k}| against t/2, where N_j are
    the window coset counts at radius h."""
    _, counts = window_counts(ctx, h)
    S = np.abs(char_sums(ctx))
    Nj = np.asarray(counts, dtype=np.float64)
    # every shift at once, one term per coset in the support of N (<= 2h)
    shifted = np.zeros(ctx.cosets)
    for j in np.flatnonzero(Nj):
        shifted += Nj[j] * np.roll(S, -j)
    return KsReport(ctx.p, ctx.t, h, max(0.0, float(shifted.max())), 0.5 * ctx.t)


# -- lift to Z/p^2 -----------------------------------------------------------

@dataclass
class LiftedCtx:
    p: int
    t: int
    g2: int
    gamma2: tuple[int, ...]
    base: SubgroupCtx

    def label(self) -> str:
        return f"subgroup(p^2={self.p * self.p},t={self.t})"


def lifted_context(base: SubgroupCtx) -> LiftedCtx:
    """Order-t subgroup of (Z/p^2)^*, t = |Gamma| for Gamma the base context's
    subgroup; reduction mod p maps it bijectively onto Gamma."""
    p, t = base.p, base.t
    p2 = p * p
    g2 = base.g if pow(base.g, p - 1, p2) != 1 else base.g + p
    gen = pow(g2, p * (p - 1) // t, p2)
    members = [pow(gen, k, p2) for k in range(t)]
    if pow(gen, t, p2) != 1 or {m % p for m in members} != set(base.gamma):
        raise CrossCheckMismatch("lift does not reduce onto the base subgroup")
    return LiftedCtx(p, t, g2, tuple(sorted(members)), base)


def tk_cyclic(members: Iterable[int], m: int, k: int) -> int:
    """T_k inside Z/m: enumerate all t^k k-fold sums and count collisions
    with a sort (memory t^k, independent of m, which matters when m = p^2).

    An independent route to ``energy.t_k``, which reads T_3 off the shift
    rows; the test suite cross-checks them.  Its caller, ``mod_p2_subgroup``,
    keeps t <= LIFT_T_CAP, so there are at most 64^3 sums for k <= 3.
    """
    arr = np.asarray([x % m for x in members], dtype=np.int64)
    sums = arr
    for _ in range(k - 1):
        sums = ((sums[:, None] + arr[None, :]) % m).ravel()
    _, counts = np.unique(sums, return_counts=True)
    return int((counts * counts).sum())


def mod_p2_subgroup(ctx: SubgroupCtx) -> tuple[LiftedCtx, dict[int, tuple[int, int]]]:
    """Lift of ctx's subgroup plus the T_k comparison table
    {k: (T_k mod p^2, T_k mod p)}, k = 2, 3.

    Reduction mod p sends solutions to solutions injectively, so each lifted
    T_k can never exceed its base value; a violation means a counting bug.
    The two levels are counted by different kernels on purpose.
    """
    from . import energy as energy_mod

    if ctx.t > LIFT_T_CAP:
        raise TooLarge(f"T_k comparison wants t <= {LIFT_T_CAP}, got {ctx.t}")
    lift = lifted_context(ctx)
    p = ctx.p
    table: dict[int, tuple[int, int]] = {}
    for k in (2, 3):
        upstairs = tk_cyclic(lift.gamma2, p * p, k)
        downstairs = energy_mod.t_k(ctx.gamma_set(), k)
        if upstairs > downstairs:
            raise CrossCheckMismatch(
                f"T_{k} grew under the lift: {upstairs} > {downstairs}")
        table[k] = (upstairs, downstairs)
    return lift, table
