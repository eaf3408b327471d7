#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads grid series]
                                 [--trace] [--out perfbench/baseline.json]

For every workload and seed it runs ``run.py`` once, in a fresh process, as
BENCHMARK.json's command does, and prints each metric's median, quartiles and
quartile spread (the distance between the first and third quartile as a share
of the median) next to the bound BENCHMARK.json gives it.  ``--trace`` adds
one traced run per workload at the first seed.  ``--out`` writes all of it,
with each run's environment and elapsed time, as a JSON record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    env["run_elapsed_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs, envs = [], []
        for seed in args.seeds:
            result, env = run_once(workload, seed, bench["run_seconds"], 0)
            runs.append(result)
            envs.append(env)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={m['value']:.4f}" for k, m in result["metrics"].items())
                  + f" elapsed={env['run_elapsed_s']:.1f}",
                  flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": [r["failed"] for r in runs],
                 "attempted": [r["attempted"] for r in runs], "environments": envs,
                 "metrics": {}}
        for name in bounds:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = s
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {workload:9s} {name:12s} median {s['median']:.4f} {s['unit']}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}  {flag}", flush=True)
        if args.trace:
            traced, env = run_once(workload, args.seeds[0], bench["run_seconds"], 1)
            entry["traced_seed"] = args.seeds[0]
            entry["traced_environment"] = env
            entry["layers"] = {k: m["value"] for k, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
