"""Check runner plumbing: result records, per-input caches, worker pool.

A check takes one prepared input (a set, possibly with its subgroup context
attached) and returns a (lhs, rhs, ratio, ok) tuple.  Exact checks compare in
exact arithmetic and report ok=False on violation; the runner turns that into
a "failed" verdict rather than an exception so a long suite still produces a
full report.  Cross-route disagreements inside the library (CrossCheckMismatch)
are treated the same way, but guard errors always propagate: a tripped guard
means the caller asked for an infeasible (check, input) pair.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .. import energy, setops, subgroups
from ..errors import BadSpec, CrossCheckMismatch, UnknownCheck
from ..setops import GSet

log = logging.getLogger("sumprodlab.harness")

PROVED_EXACT = "proved-exact"
RATIO_ONLY = "ratio-only"
FAILED = "failed"


@dataclass(slots=True)
class CheckResult:
    check_id: str
    inputs: str
    lhs: str
    rhs: str
    ratio: float
    verdict: str  # proved-exact | ratio-only | failed
    elapsed_ms: float

    @property
    def ok(self) -> bool:
        return self.verdict != FAILED


def _stringify(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


class SetStats:
    """One input set plus a lazy cache of everything the checks share.

    The difference table and the dyadic level are kept on the set itself
    (energy.difference_table, energy.dyadic_energy_level), so every check and
    library call on one input shares a single build.  A subgroup input's set
    is ctx.gamma_set().
    """

    def __init__(self, A: GSet, name: str | None = None, ctx=None):
        self.A = A
        self.name = name if name is not None else A.label()
        self.ctx = ctx  # SubgroupCtx when the input is a subgroup
        self._cache: dict = {}

    def memo(self, key, fn: Callable):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def size(self) -> int:
        return self.A.size

    def log2(self) -> float:
        if self.size < 2:
            raise BadSpec("logarithmic ratios need at least two elements")
        return math.log2(self.size)

    def table(self):
        return energy.difference_table(self.A)

    def energy(self) -> int:
        return self.memo("energy", lambda: energy.energy_pair(self.A))

    def energy3(self) -> int:
        return self.memo("energy3", lambda: energy.moment_energy(self.A, 3))

    def energy32(self) -> float:
        return self.memo("energy32", lambda: energy.moment_energy(self.A, Fraction(3, 2)))

    def t3(self) -> int:
        return self.memo("t3", lambda: energy.t_k(self.A, 3))

    def sigma(self) -> int:
        return self.memo("sigma", lambda: energy.sigma_sum(self.A))

    def tri(self) -> int:
        return self.memo("tri", lambda: energy.difference_triple_count(self.A))

    def pop(self):
        return self.memo("pop", lambda: energy.popular_differences(self.A))

    def tri_pop(self) -> int:
        """The difference-triple count with d' restricted to the popular set."""
        return self.memo("tri_pop", lambda: energy.difference_triple_count(
            self.A, restrict=self.pop().members))

    def dyadic(self):
        return energy.dyadic_energy_level(self.A)

    def support(self, op: str) -> int:
        """|A op A|: read off the difference and quotient tables for - and /,
        and for + and * off subgroups.orbit_table when A is a subgroup with
        |A|^2 >= p, else from the pair kernel."""
        if op == "-":
            return self.table().support_size()
        if op == "/":
            return self.quotients().support_size()

        def size() -> int:
            orbit = subgroups.orbit_table(self.A, op)
            return setops.support_size(self.A, self.A, op) if orbit is None else orbit.support_size()
        return self.memo(("support", op), size)

    def quotients(self) -> setops.CountTable:
        """r_{A/A}, shared by |A/A| and the sum construction."""
        return self.memo("quotients", lambda: setops.combine(self.A, self.A, "/"))

    def combined(self, op: str) -> GSet:
        return self.memo(("combined", op), lambda: setops.combined_set(self.A, self.A, op))

    def mult_doubling(self) -> Fraction:
        return Fraction(self.support("*"), self.size)

    def max_r(self) -> int:
        return self.table().max_count()


CheckFn = Callable[[SetStats, dict], tuple]


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    kind: str  # "set" (any GSet) or "subgroup" (needs a context)
    exact: bool
    fn: CheckFn
    needs: Callable[[SetStats], bool] | None = None
    note: str = ""

    def applies(self, stats: SetStats) -> bool:
        if self.kind == "subgroup" and stats.ctx is None:
            return False
        if self.needs is not None and not self.needs(stats):
            return False
        return True


_REGISTRY: dict[str, CheckSpec] = {}


def register(spec: CheckSpec) -> CheckSpec:
    if spec.check_id in _REGISTRY:
        raise BadSpec(f"duplicate check id {spec.check_id!r}")
    _REGISTRY[spec.check_id] = spec
    return spec


def registry() -> dict[str, CheckSpec]:
    return dict(_REGISTRY)


def check_ids(which: str = "all") -> list[str]:
    """Resolve a check selector: 'all', 'all-exact', or a comma list of ids."""
    if which == "all":
        return sorted(_REGISTRY)
    if which == "all-exact":
        return sorted(cid for cid, spec in _REGISTRY.items() if spec.exact)
    ids = [c.strip() for c in which.split(",") if c.strip()]
    for cid in ids:
        if cid not in _REGISTRY:
            raise UnknownCheck(f"unknown check id {cid!r}")
    return ids


def run_check(check_id: str, stats: SetStats, *, options: dict | None = None) -> CheckResult:
    spec = _REGISTRY.get(check_id)
    if spec is None:
        raise UnknownCheck(f"unknown check id {check_id!r}")
    opts = options or {}
    start = time.perf_counter()
    try:
        lhs, rhs, ratio, ok = spec.fn(stats, opts)
    except CrossCheckMismatch as exc:
        log.warning("check %s on %s failed a cross-route comparison: %s",
                    check_id, stats.name, exc)
        ms = (time.perf_counter() - start) * 1000.0
        return CheckResult(check_id, stats.name, "", "", 0.0, FAILED, ms)
    ms = (time.perf_counter() - start) * 1000.0
    if not spec.exact and not (math.isfinite(ratio) and ratio > 0.0):
        ok = False  # trend ratios must stay finite and positive
    if not ok:
        verdict = FAILED
    elif spec.exact:
        verdict = PROVED_EXACT
    else:
        verdict = RATIO_ONLY
    return CheckResult(check_id, stats.name, _stringify(lhs), _stringify(rhs), ratio, verdict, ms)


def feasible_pairs(check_ids_: Sequence[str], inputs: Sequence[SetStats],
                   ) -> list[tuple[str, SetStats]]:
    """(check, input) pairs in input-major order, filtered by applicability."""
    pairs = []
    for stats in inputs:
        for cid in check_ids_:
            spec = _REGISTRY.get(cid)
            if spec is None:
                raise UnknownCheck(f"unknown check id {cid!r}")
            if spec.applies(stats):
                pairs.append((cid, stats))
    return pairs


def _run_input_batch(payload) -> list[CheckResult]:
    A, name, ctx, cids, options = payload
    stats = SetStats(A, name, ctx)
    with subgroups.table_scope():
        return [run_check(cid, stats, options=options) for cid in cids]


def run_suite(check_ids_: Sequence[str], inputs: Iterable[SetStats], *,
              options: dict | None = None, jobs: int = 1) -> list[CheckResult]:
    """Run every applicable (check, input) pair.

    With jobs > 1 the inputs are distributed over a process pool (one batch
    per input, so per-input caches still amortize); the merged result order
    is deterministic either way, keyed by (input position, check position).
    A set and its subgroup context are pickled together, so in the worker the
    set is still the one its context keeps, with the tables built so far.
    The run (or, with jobs > 1, each worker batch) is one subgroups.table_scope,
    so consecutive inputs of one prime share its F_p^* tables and no run reuses
    another's.
    """
    inputs = list(inputs)
    if jobs <= 1:
        with subgroups.table_scope():
            return [run_check(cid, s, options=options)
                    for stats in inputs for cid, s in feasible_pairs(check_ids_, [stats])]
    payloads = [(stats.A, stats.name, stats.ctx,
                 [cid for cid, _ in feasible_pairs(check_ids_, [stats])], options or {})
                for stats in inputs]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    merged: list[CheckResult] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for batch in pool.map(_run_input_batch, payloads):
            merged.extend(batch)
    return merged
