"""Layer tracing from outside the program.

While a ``Tracer`` is active, every public function of the layer modules is
replaced by a timing wrapper at every place it is looked up: the module that
defines it and every ``sumprodlab`` module that imported it under its own
name (``energy`` binds ``combine`` itself, for instance).  Two methods are
wrapped on their classes (``SetStats.memo`` and ``CheckSpec.applies``), and
each registered check function is wrapped in the check registry.  The three
private anchor kernels of ``incidence`` are wrapped too, to count calls only,
so the per-tier counters follow the program's own choice of kernel.  Everything
is restored when the tracer exits.

A span is ``(name, start, end, parent)``; spans stay in memory and are written
out once, after the run.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up to
the time covered by the top-level spans.  The work counters are computed from
the call arguments before the span starts, so their cost shows up as tracing
overhead and never as layer time.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from sumprodlab import energy, families, incidence, setops, spectral, subgroups
from sumprodlab.harness import base, rect, report

# Layer name -> module whose public functions make up that layer.
LAYER_MODULES = {
    "families": families,
    "setops": setops,
    "energy": energy,
    "incidence": incidence,
    "spectral": spectral,
    "subgroups": subgroups,
    "rect": rect,
    "base": base,
    "report": report,
}
LAYERS = ("families", "setops", "energy", "incidence", "spectral", "subgroups",
          "rect", "checks", "base", "report")

PAIR_KERNELS = ("setops.combine", "setops.support_size", "setops.combined_set")
# Anchor kernel of incidence.collinear_triples -> tier counted by its calls.
ANCHOR_KERNELS = {"_triples_numpy": "int64", "_triples_bigint": "bigint",
                  "_triples_modp": "modp"}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _table_support(A, table) -> int:
    return table.support_size() if table is not None else len(
        {a - b for a in A.elements for b in A.elements})


class Tracer:
    """Context manager that traces every layer call made while it is active.

    ``phase`` labels the spans recorded next ("setup" or "wall"), so one
    tracer can cover the set-up and the timed phase of a run separately.
    """

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, phase, outermost-in-layer)
        self.calls: Counter = Counter()  # (phase, name) -> calls
        self.counts: Counter = Counter()  # work counters, timed phase only
        self.memo_builds: list[int] = []  # indices of memo spans that missed
        self.phase = "setup"
        self._stack: list[int] = []
        self._depth: Counter = Counter()  # open spans per layer
        self._undo: list = []

    # -- wrapping --------------------------------------------------------------

    def _span(self, name: str, layer: str, fn, args, kwargs):
        spans, stack, depth = self.spans, self._stack, self._depth
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        outer = depth[layer] == 0
        stack.append(idx)
        depth[layer] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            depth[layer] -= 1
            stack.pop()
            spans[idx] = (name, start, end, parent, self.phase, outer)

    def _wrap(self, name: str, fn, before=None, after=None):
        layer = name.split(".", 1)[0]
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            # The work of a generator happens while it is resumed, so each
            # resume is a span of its own; a call counts once.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[self.phase, name] += 1
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._span(name, layer, next, (it,), {})
                    except StopIteration:
                        return
                    if after is not None and self.phase == "wall":
                        after(item, args, kwargs)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[self.phase, name] += 1
            counting = self.phase == "wall"
            if before is not None and counting:
                before(args, kwargs)
            result = self._span(name, layer, fn, args, kwargs)
            if after is not None and counting:
                after(result, args, kwargs)
            return result
        return wrapper

    def _count_calls(self, counter: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.phase == "wall":
                self.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace_everywhere(self, original, wrapped) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sumprodlab" or mod_name.startswith("sumprodlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        hooks = self._hooks()
        for layer, module in LAYER_MODULES.items():
            for fname, fn in _public_functions(module):
                name = f"{layer}.{fname}"
                before, after = hooks.get(name, (None, None))
                self._replace_everywhere(fn, self._wrap(name, fn, before, after))
        for cls, meth, name in ((base.SetStats, "memo", "base.memo"),
                                (base.CheckSpec, "applies", "base.applies")):
            original = vars(cls)[meth]
            before, after = hooks.get(name, (None, None))
            setattr(cls, meth, self._wrap(name, original, before, after))
            self._undo.append((cls, meth, original))
        for fname, tier in ANCHOR_KERNELS.items():
            original = getattr(incidence, fname)
            setattr(incidence, fname, self._count_calls(f"incidence.calls_{tier}", original))
            self._undo.append((incidence, fname, original))
        registry = base._REGISTRY
        for cid, spec in list(registry.items()):
            registry[cid] = dataclasses.replace(spec, fn=self._wrap(f"checks.{cid}", spec.fn))
            self._undo.append((registry, cid, spec))
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- work counters ---------------------------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def triples(args, kwargs):
            X = args[0]
            Y = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("Y") or X
            n = X.size * Y.size
            counts["incidence.anchor_steps"] += n * n

        def triple_count(args, kwargs):
            A = args[0]
            restrict = args[1] if len(args) > 1 else kwargs.get("restrict")
            d = _table_support(A, kwargs.get("table"))
            counts["energy.triple.pairs"] += d * (restrict.size if restrict is not None else d)

        def sigma(args, kwargs):
            d = _table_support(args[0], kwargs.get("table"))
            if d <= kwargs.get("max_support", energy.SIGMA_SUPPORT_CAP):
                counts["energy.sigma.pairs"] += d * d

        def pairs(args, kwargs):
            counts["setops.pairs"] += args[0].size * args[1].size

        def scanned(item, args, kwargs):
            counts["subgroups.scan_residues"] += item[0] - 1

        def memo(args, kwargs):
            counts["base.memo.lookups"] += 1
            if args[1] in args[0]._cache:
                counts["base.memo.hits"] += 1
            else:
                self.memo_builds.append(len(self.spans))  # the span opened next

        def applied(result, args, kwargs):
            spec, stats = args
            if not result and not (spec.kind == "subgroup" and stats.ctx is None):
                counts["checks.skipped"] += 1  # a guard refused, not the kind rule

        def emitted(result, args, kwargs):
            counts["report.bytes"] += len(result.encode())

        hooks = {name: (pairs, None) for name in PAIR_KERNELS}
        hooks.update({
            "incidence.collinear_triples": (triples, None),
            "energy.difference_triple_count": (triple_count, None),
            "energy.sigma_sum": (sigma, None),
            "subgroups.scan_gaps": (None, scanned),
            "base.memo": (memo, None),
            "base.applies": (None, applied),
            "report.emit_report": (None, emitted),
        })
        return hooks

    # -- aggregation -----------------------------------------------------------

    def busy(self, name: str, phase: str = "wall") -> float:
        """Time inside calls to one wrapped function (none of them recurse)."""
        return sum(end - start for n, start, end, _, ph, _ in self.spans
                   if n == name and ph == phase)

    def memo_build_s(self) -> float:
        """Time in memo calls that built their value, outermost builds only."""
        total, open_until = 0.0, float("-inf")
        for idx in self.memo_builds:
            _, start, end, _, _, _ = self.spans[idx]
            if start >= open_until:
                total += end - start
                open_until = end
        return total

    def layer_table(self, wall_s: float, phase: str = "wall") -> dict:
        """calls, busy_s and self_s per layer over one phase, plus the remainder.

        busy_s counts only calls not nested in another call of the same layer.
        The self times of all layers plus ``unattributed_s`` equal ``wall_s``.
        """
        child = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        covered = 0.0
        for idx, (name, start, end, parent, ph, outer) in enumerate(self.spans):
            if ph != phase:
                continue
            row = table[name.split(".", 1)[0]]
            dur = end - start
            row["self_s"] += dur - child[idx]
            if outer:
                row["busy_s"] += dur
            if parent < 0:
                covered += dur
        for (ph, name), n in self.calls.items():
            if ph == phase:
                table[name.split(".", 1)[0]]["calls"] += n
        table["unattributed_s"] = wall_s - covered
        return table

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase"],
                       "spans": [s[:5] for s in self.spans]}, fh)


def never_called(tracer: Tracer, names, phase: str = "wall") -> list[str]:
    """The wrapped functions among ``names`` that were not called in ``phase``."""
    return [n for n in names if tracer.calls[phase, n] == 0]
