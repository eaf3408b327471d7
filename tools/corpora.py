#!/usr/bin/env python3
"""Whole-command wall time and peak RSS of the five named corpora and of scan,
with every verify report compared against tests/golden.

    python tools/corpora.py change=. parent=../parent-checkout --rounds 5 \\
        --out BENCH_name.json

Each NAME=TREE argument is a checkout of this repository whose src/ goes on
the commands' PYTHONPATH; NAME labels its runs.  One round runs every command
once on every tree, each command in a fresh process, and the trees take turns
going first from round to round, so a drifting host loads them alike.  The
commands are

    sumprodlab verify --corpus C --checks all --deterministic --jobs J
        for each of the five corpora and J = 1, 2;
    sumprodlab scan 'p in [3,10000], t | p-1'.

Each run records its wall time, its peak RSS (the ru_maxrss that os.wait4
returns for the command's process, which covers the pool workers it waited
for), its exit code, and for verify whether the report's rows are the lines of
tests/golden/<C>.tsv, built by the golden test's own `line`; for scan, the
sha256 of its CSV.  The summary gives each (command, tree) the median and
quartiles of wall time and peak RSS over the rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import CORPORA, GOLDEN, line  # noqa: E402

from sumprodlab.harness import read_report  # noqa: E402

SCAN_RANGE = "p in [3,10000], t | p-1"


def commands(tmp: Path) -> dict[str, list[str]]:
    """Each command's arguments after `sumprodlab`, by a short name."""
    runs = {f"verify {corpus} --jobs {jobs}":
            ["verify", "--corpus", corpus, "--checks", "all", "--deterministic",
             "--jobs", str(jobs), "--out", str(tmp / f"{corpus}.json")]
            for corpus in CORPORA for jobs in (1, 2)}
    runs["scan"] = ["scan", SCAN_RANGE, "--out", str(tmp / "scan.csv")]
    return runs


# A process's ru_maxrss starts at the resident size of whatever process exec'd
# it, so this script, which holds numpy and the parsed reports, starts each
# command from a bare interpreter that times it and reads its rusage.
LAUNCHER = """import json, os, subprocess, sys, time
start = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(json.dumps([time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]))
"""


def run_once(tree: Path, args: list[str]) -> dict:
    """One command in a fresh process on tree's source."""
    Path(args[args.index("--out") + 1]).unlink(missing_ok=True)  # no earlier run's output
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    wall, maxrss_kb, code = json.loads(subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "sumprodlab.cli", *args],
        env=env, check=True, capture_output=True, text=True).stdout)
    return {"wall_s": round(wall, 4), "peak_rss_mb": round(maxrss_kb / 1024, 1), "exit": code}


def outcome(args: list[str]) -> dict:
    """What the run wrote: golden agreement for verify, a digest for scan."""
    out = Path(args[args.index("--out") + 1])
    if args[0] == "scan":
        return {"sha256": hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else ""}
    if not out.exists():
        return {"golden_rows_match": False}
    corpus = args[args.index("--corpus") + 1]
    want = (GOLDEN / f"{corpus}.tsv").read_text().splitlines()[2:]
    return {"golden_rows_match": [line(r) for r in read_report(out).results] == want}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "min": min(values), "max": max(values)}


def summarize(runs: list[dict]) -> dict:
    summary: dict = {}
    for run in runs:
        summary.setdefault(run["command"], {}).setdefault(run["tree"], []).append(run)
    for command, by_tree in summary.items():
        for tree, own in by_tree.items():
            by_tree[tree] = {
                "wall_s": quartiles([r["wall_s"] for r in own]),
                "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in own]),
                "exits": sorted({r["exit"] for r in own}),
                **({"golden_rows_match": all(r["golden_rows_match"] for r in own)}
                   if "golden_rows_match" in own[0] else
                   {"sha256": sorted({r["sha256"] for r in own})}),
            }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="NAME=TREE")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", type=Path, help="write the runs and summary here (JSON)")
    opts = parser.parse_args()
    trees = [(name, Path(path).resolve()) for name, _, path in
             (spec.partition("=") for spec in opts.trees)]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for round_ in range(opts.rounds):
            order = trees[round_ % len(trees):] + trees[:round_ % len(trees)]
            for command, args in commands(Path(tmp)).items():
                for name, tree in order:
                    run = {"round": round_, "tree": name, "command": command,
                           **run_once(tree, args), **outcome(args)}
                    runs.append(run)
                    print(json.dumps(run), file=sys.stderr, flush=True)
    doc = {"scan_range": SCAN_RANGE, "rounds": opts.rounds, "trees": [n for n, _ in trees],
           "summary": summarize(runs), "runs": runs}
    text = json.dumps(doc, indent=1)
    if opts.out:
        opts.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
