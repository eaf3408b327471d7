"""The names the benchmark looks up in the program still exist and are reached.

perfbench/run.py fails a traced pass when a function it must reach is never
called, and perfbench/spans.py wraps the program's functions by name.  A
refactor that renames, privatizes or stops calling one of them breaks the
benchmark; these tests catch that before it runs.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import spans  # noqa: E402
from sumprodlab import incidence  # noqa: E402
from sumprodlab.harness import base  # noqa: E402

METHODS = {"base.memo", "base.applies"}  # wrapped on their classes, not as functions


def _named() -> set[str]:
    names = {n for group in (run.MUST_REACH, run.MUST_REACH_SETUP) for v in group.values()
             for n in v}
    return names | set(run.BUSY.values()) | set(spans.PAIR_KERNELS)


def test_traced_names_are_public_functions_of_their_layer():
    missing = []
    for name in sorted(_named() - METHODS):
        layer, _, fname = name.partition(".")
        obj = getattr(spans.LAYER_MODULES[layer], fname, None)
        if (fname.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != spans.LAYER_MODULES[layer].__name__):
            missing.append(name)
    assert missing == []
    assert METHODS <= _named()
    assert callable(vars(base.SetStats)["memo"]) and callable(vars(base.CheckSpec)["applies"])
    assert all(callable(getattr(incidence, f, None)) for f in spans.ANCHOR_KERNELS)


def test_traced_passes_reach_every_named_function(tmp_path):
    # run.traced_pass raises when a named function is never called
    for workload in ("grid", "series"):
        tracer, result = run.traced_pass(workload, 1, tmp_path / "scan.csv")
        assert result.output and tracer.spans


def test_subgroup_input_reaches_every_named_function():
    # a traced subgroup workload pass is too slow for this suite, so one small
    # subgroup input, counted by the benchmark's tracer, stands in for it
    from sumprodlab import harness

    tracer = spans.Tracer()
    with tracer:
        tracer.phase = "wall"
        result = run.verify_pass([harness.stats_from_spec("subgroup(p=1009,t=24)")])
    assert result.output
    assert spans.never_called(tracer, run.MUST_REACH["verify"] + run.MUST_REACH["subgroup"]) == []
