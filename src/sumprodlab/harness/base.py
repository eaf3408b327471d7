"""Check runner plumbing: result records, per-input values, worker pool.

A check is a function of its one input, a SetStats (a set, possibly with its
subgroup context attached), and returns a (lhs, rhs, ratio, ok) tuple.  Exact
checks compare in exact arithmetic and report ok=False on violation; the
runner turns that into a "failed" verdict rather than an exception so a long
suite still produces a full report.  Cross-route disagreements inside the library (CrossCheckMismatch)
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
    """One input set.  Its statistics are reductions over the tables kept in
    setops.store(A); memo keeps there, through setops.keep, the values only the
    checks build (derived sets, the rectangle cover, the sum construction,
    Proposition 7's counts).  A subgroup input's set is ctx.gamma_set(), and
    its self-tables take subgroups.pair_table's orbit route.
    """

    def __init__(self, A: GSet, name: str | None = None, ctx=None):
        self.A = A
        self.name = name if name is not None else A.label()
        self.ctx = ctx  # SubgroupCtx when the input is a subgroup

    _cache = property(lambda self: setops.store(self.A))  # the dict memo fills

    def memo(self, key, fn: Callable):
        return setops.keep(self.A, key, fn)

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
        return energy.energy_pair(self.A)

    def energy3(self) -> int:
        return energy.moment_energy(self.A, 3)

    def energy32(self) -> float:
        return energy.moment_energy(self.A, Fraction(3, 2))

    def t3(self) -> int:
        return energy.t_k(self.A, 3)

    def sigma(self) -> int:
        return energy.sigma_sum(self.A)

    def tri(self) -> int:
        return energy.difference_triple_count(self.A)

    def pop(self):
        return energy.popular_differences(self.A)

    def tri_pop(self) -> int:
        """The difference-triple count with d' restricted to the popular set."""
        return energy.difference_triple_count(self.A, restrict=self.pop())

    def dyadic(self):
        return energy.dyadic_energy_level(self.A)

    def support(self, op: str) -> int:
        """|A op A|, read off r_{A op A}."""
        return subgroups.pair_table(self.A, op).support_size()

    def combined(self, op: str) -> GSet:
        """The set A op A, read off r_{A op A}; A itself when they are equal,
        as AA and A/A are for a subgroup."""
        def build():
            found = subgroups.pair_table(self.A, op).support_set()
            return self.A if found == self.A else found

        return self.memo(("combined", op), build)

    def mult_doubling(self) -> Fraction:
        return Fraction(self.support("*"), self.size)

    def max_r(self) -> int:
        return self.table().max_count()


CheckFn = Callable[[SetStats], tuple]


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    kind: str  # "set" (any GSet of two or more elements) or "subgroup" (needs a context)
    exact: bool
    fn: CheckFn
    needs: Callable[[SetStats], bool] | None = None

    def applies(self, stats: SetStats) -> bool:
        if self.kind == "subgroup" and stats.ctx is None:
            return False
        if self.kind == "set" and stats.size < 2:  # log |A| and the dyadic classes need two
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


def run_check(check_id: str, stats: SetStats) -> CheckResult:
    spec = _REGISTRY.get(check_id)
    if spec is None:
        raise UnknownCheck(f"unknown check id {check_id!r}")
    start = time.perf_counter()
    try:
        lhs, rhs, ratio, ok = spec.fn(stats)
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


def _run_input(cids: Sequence[str], stats: SetStats) -> list[CheckResult]:
    """Every applicable check on one input, then release its store, even when
    a guard error propagates, so only one input's tables are alive at a time."""
    try:
        return [run_check(cid, stats) for cid, _ in feasible_pairs(cids, [stats])]
    finally:
        setops.release(stats.A)


def _run_input_batch(payload) -> list[CheckResult]:
    A, name, ctx, cids = payload
    with subgroups.table_scope():
        return _run_input(cids, SetStats(A, name, ctx))


def _one_blas_thread() -> None:
    """One thread for numpy's bundled OpenBLAS in this process; run_suite calls it,
    and its pool in each worker, so --jobs 1 and --jobs N compute alike."""
    import contextlib
    import ctypes
    import glob

    import numpy as np

    for lib in glob.glob(f"{np.__path__[0]}.libs/libscipy_openblas64_*.so"):
        with contextlib.suppress(OSError, AttributeError):  # no such library or setter: no change
            setter = ctypes.CDLL(lib).scipy_openblas_set_num_threads64_
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def run_suite(check_ids_: Sequence[str], inputs: Iterable[SetStats], *,
              jobs: int = 1) -> list[CheckResult]:
    """Run every applicable (check, input) pair.

    With jobs > 1 the inputs are distributed over a process pool (one batch
    per input, so each input's store still amortizes); each worker evaluates its
    input's guards, so none run serially in the parent.  The merged result
    order is deterministic either way, keyed by (input position, check position).
    A set and its subgroup context are pickled together, so in the worker the
    set is still the one its context keeps, with the store built so far.
    Each input's store is released once its checks are done.  The run (or,
    with jobs > 1, each worker batch) is one subgroups.table_scope, so
    consecutive inputs of one prime share its F_p^* tables and no run reuses
    another's.  This process and each worker run BLAS on one thread.
    """
    _one_blas_thread()
    inputs = list(inputs)
    if jobs <= 1:
        with subgroups.table_scope():
            return [r for stats in inputs for r in _run_input(check_ids_, stats)]
    payloads = [(stats.A, stats.name, stats.ctx, check_ids_) for stats in inputs]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    merged: list[CheckResult] = []
    with ProcessPoolExecutor(max_workers=jobs, initializer=_one_blas_thread) as pool:
        for batch in pool.map(_run_input_batch, payloads):
            merged.extend(batch)
    return merged
