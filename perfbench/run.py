#!/usr/bin/env python3
"""Benchmark of ``sumprodlab verify`` and ``sumprodlab scan``.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Runs one workload in this process, one pass after another (closed loop, one
client, ``run_suite(..., jobs=1)``) for up to ``--seconds`` seconds and at
least one pass, then prints the end-to-end metrics by name with their units,
the correctness verdict, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (inputs are drawn from ``--seed``; see ``workloads.py``):

* ``grid``: collinear-triple anchor scans on all three kernel tiers
  (big integers, int64 and mod p).
* ``subgroup``: mod-p difference-triple counts and pair tables on
  subgroups of smooth primes near 10^5.
* ``series``: sum statistics, trace and Sigma loops on long ap, geo and
  random sets, where the collinear-triple kernels are a small share.
* ``gap-scan``: ``subgroups.scan_gaps`` over a sample of primes below
  2 * 10^4, writing CSV rows as ``sumprodlab scan`` does.

End-to-end metrics (``--trace 0``):

* ``setup_s``: importing the program and building the inputs, the median of
  nine set-ups (this process and eight fresh ones, half of them run before
  the timed phase and half after it, so they sample the host at two times);
* ``wall_s``: one pass (verify: ``run_suite`` plus building and emitting the
  deterministic JSON report; gap-scan: the scan loop plus CSV writing),
  the median over the passes run;
* ``peak_rss_mb``: this process's peak resident set size.

``--trace 1`` also times one traced pass (see ``spans.py``) and reports the
per-layer metrics instead: calls, busy and self time per module, the work
counters, and ``trace.overhead_s`` (traced minus untraced ``wall_s``).  The
spans are written to ``perfbench/out/``.

The failure fraction and per-op latency are printed for information.  BLAS
and OpenMP threads are pinned to one before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 8  # fresh processes that repeat the set-up, besides this one

WORKLOAD_NAMES = ("grid", "subgroup", "series", "gap-scan")

# Functions each workload must reach; a traced pass that misses one fails, so
# a refactor cannot silently empty a layer.
MUST_REACH = {
    "verify": ("base.run_suite", "base.run_check", "base.memo", "base.applies",
               "report.build_report", "report.emit_report", "setops.combine",
               "energy.difference_table"),
    "grid": ("incidence.collinear_triples", "energy.difference_triple_count"),
    "subgroup": ("energy.difference_triple_count", "spectral.spectral_chain",
                 "subgroups.char_moment_report"),
    "series": ("rect.sum_construction_stats", "spectral.trace_m2r", "energy.sigma_sum",
               "incidence.collinear_triples"),
    "gap-scan": ("subgroups.scan_gaps", "subgroups.primitive_root"),
}
MUST_REACH_SETUP = {
    "grid": ("families.parse_family", "families.generate", "subgroups.subgroup_context"),
    "subgroup": ("families.parse_family", "subgroups.subgroup_context"),
    "series": ("families.parse_family", "families.generate"),
    "gap-scan": ("subgroups.is_prime",),
}

PER_LAYER_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}
COUNTERS = ("incidence.anchor_steps", "incidence.calls_int64", "incidence.calls_bigint",
            "incidence.calls_modp", "energy.triple.pairs", "energy.sigma.pairs",
            "setops.pairs", "subgroups.scan_residues", "base.memo.lookups",
            "base.memo.hits", "checks.skipped", "report.bytes")
BUSY = {"energy.triple.busy_s": "energy.difference_triple_count",
        "energy.sigma.busy_s": "energy.sigma_sum",
        "rect.sum_stats.busy_s": "rect.sum_construction_stats",
        "spectral.trace_m2r.busy_s": "spectral.trace_m2r",
        "subgroups.scan_gaps.busy_s": "subgroups.scan_gaps",
        "report.emit_s": "report.emit_report",
        "base.guard_s": "base.applies"}


def import_program():
    """Import sumprodlab from this checkout's src/, and nothing else."""
    if not (SRC / "sumprodlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'sumprodlab'}; "
                 "run from the root of a sumprodlab checkout")
    sys.path.insert(0, str(SRC))
    import sumprodlab

    if Path(sumprodlab.__file__).resolve().parent != SRC / "sumprodlab":
        sys.exit(f"perfbench: imported sumprodlab from {sumprodlab.__file__}, not {SRC}")
    return sumprodlab


def build_inputs(workload: str, seed: int):
    import workloads
    from sumprodlab import harness

    if workload == "gap-scan":
        return workloads.gap_scan(seed)
    return [harness.stats_from_spec(s) for s in workloads.VERIFY_SPECS[workload](seed)]


# -- one pass ------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    wall_s: float
    op_s: list[float]  # per-op latencies, for information
    output: object  # CheckResults, or the scan CSV rows


def verify_pass(inputs) -> Pass:
    from sumprodlab import harness

    ids = harness.check_ids("all")
    start = time.perf_counter()
    results = harness.run_suite(ids, inputs, jobs=1)
    rep = harness.build_report(results, corpus="perfbench", deterministic=True)
    harness.emit_report(rep, "json")
    wall = time.perf_counter() - start
    return Pass(wall, [r.elapsed_ms / 1000.0 for r in results], results)


def scan_pass(primes, csv_path: Path) -> Pass:
    import csv

    import gate
    from sumprodlab import subgroups
    from sumprodlab.cli import GAP_EXPONENT

    csv_path.parent.mkdir(parents=True, exist_ok=True)
    op_s = []
    start = time.perf_counter()
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p", "t", "H", "normalized"])
        for p in primes:
            t0 = time.perf_counter()
            for p_, t, gap in subgroups.scan_gaps([p], t_filter=lambda _p, t: t >= 2):
                writer.writerow([p_, t, gap, repr(gap / p_**GAP_EXPONENT)])
            fh.flush()  # as the CLI does, so partial results survive
            op_s.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return Pass(wall, op_s, gate.read_scan_csv(csv_path))


# -- reporting -----------------------------------------------------------------


def latency_line(op_s: list[float]) -> str:
    """Median and the highest percentile with at least ten ops beyond it."""
    n = len(op_s)
    ordered = sorted(op_s)

    def pct(q):
        return ordered[min(n - 1, int(q / 100.0 * n))]

    line = f"latency_ms p50={pct(50) * 1e3:.3f}"
    tail = [q for q in (90, 95, 98, 99, 99.5, 99.9) if n * (100 - q) / 100.0 >= 10]
    if tail:
        line += f" p{tail[-1]:g}={pct(tail[-1]) * 1e3:.3f}"
    return line + f" (n={n} ops, information only)"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_probe(workload: str, seed: int) -> None:
    start = time.perf_counter()
    import_program()
    build_inputs(workload, seed)
    print(repr(time.perf_counter() - start))


def probe_setups(workload: str, seed: int, count: int) -> list[float]:
    out = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def run_pass(workload: str, inputs, csv_path: Path) -> Pass:
    return scan_pass(inputs, csv_path) if workload == "gap-scan" else verify_pass(inputs)


def traced_pass(workload: str, seed: int, csv_path: Path):
    import spans

    tracer = spans.Tracer()
    with tracer:
        tracer.phase = "setup"
        inputs = build_inputs(workload, seed)
        tracer.phase = "wall"
        result = run_pass(workload, inputs, csv_path)
    kind = "gap-scan" if workload == "gap-scan" else "verify"
    missed = spans.never_called(tracer, MUST_REACH[kind] + MUST_REACH.get(workload, ()))
    missed += spans.never_called(tracer, MUST_REACH_SETUP[workload], phase="setup")
    if workload == "grid":
        missed += [f"the {tier} anchor kernel" for tier in ("int64", "bigint", "modp")
                   if tracer.counts[f"incidence.calls_{tier}"] == 0]
    if missed:
        raise RuntimeError(f"traced {workload} pass never reached: {', '.join(missed)}")
    return tracer, result


def layer_metrics(tracer, wall_s: float, untraced_wall_s: float) -> dict:
    import spans

    table = tracer.layer_table(wall_s)
    out = {}
    for layer in spans.LAYERS:
        for key, unit in PER_LAYER_UNITS.items():
            out[f"{layer}.{key}"] = metric(table[layer][key], unit)
    for name in COUNTERS:
        out[name] = metric(tracer.counts[name], "count")
    lookups = tracer.counts["base.memo.lookups"]
    out["base.memo.hit_ratio"] = metric(
        tracer.counts["base.memo.hits"] / lookups if lookups else 0.0, "ratio")
    out["base.memo.build_s"] = metric(tracer.memo_build_s(), "s")
    for name, fn in BUSY.items():
        out[name] = metric(tracer.busy(fn), "s")
    setup_table = tracer.layer_table(0.0, phase="setup")
    out["setup.families.busy_s"] = metric(setup_table["families"]["busy_s"], "s")
    out["setup.subgroups.context.busy_s"] = metric(
        tracer.busy("subgroups.subgroup_context", phase="setup"), "s")
    out["unattributed_s"] = metric(table["unattributed_s"], "s")
    out["trace.wall_s"] = metric(wall_s, "s")
    out["trace.overhead_s"] = metric(wall_s - untraced_wall_s, "s")
    out["trace.spans"] = metric(len(tracer.spans), "count")
    return out


def print_layer_table(per_layer: dict) -> None:
    import spans

    print(f"{'layer':12s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
    for layer in spans.LAYERS:
        print(f"{layer:12s} {per_layer[layer + '.calls']['value']:9d} "
              f"{per_layer[layer + '.busy_s']['value']:10.4f} "
              f"{per_layer[layer + '.self_s']['value']:10.4f}")
    per_module = {f"{layer}.{key}" for layer in spans.LAYERS for key in PER_LAYER_UNITS}
    for name, m in per_layer.items():
        if name not in per_module:
            print(f"{name:32s} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    load_before = os.getloadavg()
    setup_start = time.perf_counter()
    import_program()
    inputs = build_inputs(args.workload, args.seed)
    setups = [time.perf_counter() - setup_start]
    setups += probe_setups(args.workload, args.seed, SETUP_PROBES // 2)

    import gate

    csv_path = OUT_DIR / f"{args.workload}-seed{args.seed}.csv"
    pins = gate.load_pins(args.workload)
    if args.workload == "gap-scan":
        def check(p: Pass, first: bool) -> gate.Verdict:
            return gate.check_gap_scan(inputs, p.output, pins,
                                       sample_seed=args.seed if first else None)
    else:
        labels = [stats.name for stats in inputs]  # canonical, as the rows name them

        def check(p: Pass, first: bool) -> gate.Verdict:
            return gate.check_verify(p.output, labels, pins)

    passes: list[Pass] = []
    verdict = gate.Verdict()
    loop_start = time.perf_counter()
    while True:
        if passes and args.workload != "gap-scan":
            inputs = build_inputs(args.workload, args.seed)  # fresh per-input caches
        passes.append(run_pass(args.workload, inputs, csv_path))
        verdict.add(check(passes[-1], len(passes) == 1))
        wall_s = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - loop_start + wall_s > args.seconds:
            break
    setups += probe_setups(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = None
    if args.trace:
        tracer, traced = traced_pass(args.workload, args.seed, csv_path)
        verdict.add(check(traced, False))
        per_layer = layer_metrics(tracer, traced.wall_s, wall_s)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    load_after = os.getloadavg()

    env = environment()
    env["loadavg_before"] = list(load_before)
    env["loadavg_after"] = list(load_after)
    end_to_end = {"setup_s": metric(statistics.median(setups), "s"),
                  "wall_s": metric(wall_s, "s"),
                  "peak_rss_mb": metric(peak_rss_mb, "MB")}
    print(f"workload {args.workload}  seed {args.seed}  passes "
          + " ".join(f"{p.wall_s:.3f}" for p in passes))
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in end_to_end.items():
        print(f"{name:12s} {m['value']:.6f} {m['unit']}")
    print(f"{'fail_frac':12s} {verdict.failed / verdict.attempted:.6f} ratio "
          f"({verdict.failed} failed of {verdict.attempted} ops)")
    print(latency_line(passes[0].op_s))
    print(f"correct {str(verdict.correct).lower()}")
    for problem in verdict.problems[:20]:
        print(f"  problem: {problem}")
    if per_layer is not None:
        print_layer_table(per_layer)
    print(json.dumps({"correct": verdict.correct, "attempted": verdict.attempted,
                      "failed": verdict.failed,
                      "metrics": per_layer if per_layer is not None else end_to_end}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
