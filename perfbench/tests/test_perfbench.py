"""Tests of the benchmark's own machinery: tracing, counters, gate, workloads.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run.import_program()

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sumprodlab import energy, families, setops, subgroups  # noqa: E402
from sumprodlab.harness import FAILED, CheckResult, stats_from_spec, subgroup_scan  # noqa: E402
from sumprodlab.harness import base  # noqa: E402

# Small inputs that still reach every anchor-kernel tier and the subgroup checks.
SMALL_SPECS = ["rand(n=3,seed=2)", "geo(q=3/2,n=6)", "geo(q=2,n=8)",
               "subgroup(p=13,t=4)", "subgroup(p=101,t=10)"]
SMALL_PRIMES = [101, 103, 1009]


def _traced(workload: str, tmp_path: Path) -> tuple[spans.Tracer, run.Pass]:
    tracer = spans.Tracer()
    with tracer:
        if workload == "gap-scan":
            inputs = SMALL_PRIMES
        else:
            inputs = [stats_from_spec(s) for s in SMALL_SPECS]
        tracer.phase = "wall"
        result = run.run_pass(workload, inputs, tmp_path / "scan.csv")
    return tracer, result


def test_work_counters_repeat_exactly(tmp_path):
    for workload in ("grid", "gap-scan"):
        (first, _), (second, _) = _traced(workload, tmp_path), _traced(workload, tmp_path)
        assert first.counts == second.counts
        assert first.calls == second.calls
        assert len(first.spans) == len(second.spans)
    grid, _ = _traced("grid", tmp_path)
    for tier in ("int64", "bigint", "modp"):
        assert grid.counts[f"incidence.calls_{tier}"] > 0
    assert grid.counts["base.memo.lookups"] >= grid.counts["base.memo.hits"] > 0
    assert _traced("gap-scan", tmp_path)[0].counts["subgroups.scan_residues"] == sum(
        (p - 1) * sum(1 for t in subgroups.divisors(p - 1) if t >= 2)
        for p in SMALL_PRIMES)


def test_layer_self_times_add_up_to_wall(tmp_path):
    tracer, result = _traced("grid", tmp_path)
    table = tracer.layer_table(result.wall_s)
    total = sum(table[layer]["self_s"] for layer in spans.LAYERS) + table["unattributed_s"]
    assert abs(total - result.wall_s) < 1e-9 * max(1.0, result.wall_s)
    assert table["checks"]["calls"] == len(result.output)


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    assert energy.combine is setops.combine
    original_memo = base.SetStats.memo
    with spans.Tracer():
        assert energy.combine is setops.combine  # one wrapper, bound at both places
        assert energy.combine.__wrapped__ is not None
        assert base.SetStats.memo is not original_memo
    assert not hasattr(setops.combine, "__wrapped__")
    assert energy.combine is setops.combine
    assert base.SetStats.memo is original_memo


def test_never_called_names_missing_functions(tmp_path):
    tracer, _ = _traced("gap-scan", tmp_path)
    assert spans.never_called(tracer, ["subgroups.scan_gaps"]) == []
    assert spans.never_called(tracer, ["incidence.collinear_triples"]) == [
        "incidence.collinear_triples"]


def _row(check_id, inputs, lhs, rhs, verdict="proved-exact"):
    return CheckResult(check_id, inputs, lhs, rhs, 1.0, verdict, 0.0)


def test_gate_counts_known_failures_but_flags_new_ones():
    pinned = [_row("a", "X", "1", "2"), _row("b", "X", "0", "1.5", FAILED),
              _row("c", "X", "3", "4")]
    pins = gate.pin_rows(pinned)
    assert pins["X"]["b"] == [None, None, True]
    same = gate.check_verify(pinned + [_row("extra", "X", "9", "9")], ["X"], pins)
    assert (same.attempted, same.failed, same.correct) == (4, 1, True)
    changed = gate.check_verify([_row("a", "X", "1", "3"), pinned[1]], ["X"], pins)
    assert (changed.attempted, changed.failed, changed.correct) == (3, 3, False)
    new_failure = gate.check_verify(pinned + [_row("d", "X", "1", "1", FAILED)], ["X"], pins)
    assert (new_failure.failed, new_failure.correct) == (2, False)


def test_gate_rejects_a_wrong_gap(tmp_path):
    run.scan_pass(SMALL_PRIMES, tmp_path / "scan.csv")
    rows = gate.read_scan_csv(tmp_path / "scan.csv")
    pins = gate.load_pins("gap-scan")
    assert gate.check_gap_scan(SMALL_PRIMES, rows, pins, sample_seed=1).correct
    t, gap = rows[101][0]
    rows[101][0] = (t, gap + 1)
    verdict = gate.check_gap_scan(SMALL_PRIMES, rows, pins, sample_seed=None)
    assert (verdict.attempted, verdict.failed, verdict.correct) == (3, 1, False)
    # The gap_H sample sees it too, independently of the pins.
    wrong_pins = gate.pin_scan_rows((p, t, gap) for p in rows for t, gap in rows[p])
    verdict = gate.check_gap_scan([101], rows, wrong_pins, sample_seed=1)
    assert (verdict.failed, verdict.correct) == (1, False)


def test_every_drawable_input_is_pinned():
    seeds = list(range(1, workloads.RAND_DRAWS + 1)) + [0, 11, 12345]
    for name, specs in workloads.VERIFY_SPECS.items():
        pins = gate.load_pins(name)
        for seed in seeds:
            labels = [families.parse_family(s).label() for s in specs(seed)]
            assert [label for label in labels if label not in pins] == [], (name, seed)
    pinned = {int(p) for p in gate.load_pins("gap-scan")}
    assert pinned == {p for p in range(3, workloads.GAP_SCAN_LIMIT) if subgroups.is_prime(p)}


def test_subgroup_anchors_are_subgroup_scans():
    anchors = {**workloads.SUBGROUP_FIXED, **workloads.SUBGROUP_DRAWN}
    scan = {s.name for s in subgroup_scan(100_000) if s.ctx.p in anchors}
    assert scan == {f"subgroup(p={p},t={t})" for p, ts in anchors.items() for t in ts}


def test_workloads_depend_on_the_seed_only():
    for name, specs in workloads.VERIFY_SPECS.items():
        assert specs(3) == specs(3)
    assert workloads.series(1) != workloads.series(2)
    primes = workloads.gap_scan(1)
    assert primes == workloads.gap_scan(1) != workloads.gap_scan(2)
    assert len(primes) == len(set(primes)) == workloads.GAP_SCAN_SAMPLE
    assert all(p < workloads.GAP_SCAN_LIMIT for p in primes)
