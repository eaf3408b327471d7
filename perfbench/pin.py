#!/usr/bin/env python3
"""Write the correctness pins of the benchmark's workloads.

    python3 perfbench/pin.py [grid subgroup series gap-scan]

For a verify workload it runs every input any seed can draw (the rand inputs
of all RAND_DRAWS seeds, every subgroup prime) and stores every row in
``pins/<workload>.json``; for gap-scan it stores the rows (t, H) of
``scan_gaps`` for every prime below the workload's limit (see ``gate.py``).
Pins record what the program computed when they were taken, known defects
included; retake them only in a change that is meant to alter the program's
output.
"""

from __future__ import annotations

import json
import sys

import run

run.import_program()

import gate  # noqa: E402
import workloads  # noqa: E402
from sumprodlab import harness, subgroups  # noqa: E402


def pin_labels(workload: str) -> list[str]:
    specs = workloads.VERIFY_SPECS[workload]
    labels = [s for seed in range(1, workloads.RAND_DRAWS + 1) for s in specs(seed)]
    if workload == "subgroup":  # every prime a seed can draw
        labels += [f"subgroup(p={p},t={t})" for p, ts in sorted(workloads.SUBGROUP_DRAWN.items())
                   for t in ts]
    return list(dict.fromkeys(labels))


def pin_workload(workload: str) -> tuple[dict, str]:
    if workload == "gap-scan":
        primes = [p for p in range(3, workloads.GAP_SCAN_LIMIT) if subgroups.is_prime(p)]
        rows = subgroups.scan_gaps(primes, t_filter=lambda _p, t: t >= 2)
        pins = gate.pin_scan_rows(rows)
        return pins, f"{sum(map(len, pins.values()))} rows of {len(primes)} primes"
    results = harness.run_suite(harness.check_ids("all"),
                                [harness.stats_from_spec(s) for s in pin_labels(workload)],
                                jobs=1)
    failed = sum(r.verdict == harness.FAILED for r in results)
    return gate.pin_rows(results), f"{len(results)} rows, {failed} failing"


def main(names) -> int:
    for workload in names or workloads.WORKLOADS:
        pins, summary = pin_workload(workload)
        path = gate.PIN_DIR / f"{workload}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        if workload == "gap-scan":  # one line per prime
            body = ",\n".join(f"{json.dumps(p)}:{json.dumps(r, separators=(',', ':'))}"
                               for p, r in pins.items())
            path.write_text('{"inputs": {\n' + body + "\n}}\n")
        else:
            path.write_text(json.dumps({"inputs": pins}, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {summary} pinned to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
