"""Correctness gate for the benchmark's outputs.

Verify workloads are compared with rows pinned from a reference run
(``pins/<workload>.json``, written by ``pin.py``).  For every pinned row the
pin holds lhs and rhs when both are integers, and whether the row failed.  An
op is one (check, input) verdict; it counts as failed when its verdict is
``failed``, when a pinned row goes missing, or when its integer sides differ
from the pin.  Verdict names other than ``failed`` and rows without a pin are
not compared, so new verdict kinds and new rows do not trip the gate.

The run is correct when no pinned row is missing or differs and every failed
row was already failing when the pins were taken: a known defect is counted
as a failed op but does not make the output incorrect.

gap-scan is checked on its CSV: every prime must have exactly the pinned
rows (t, H), one per divisor t >= 2 of p - 1 (``pins/gap-scan.json`` holds
them for every prime below the workload's limit), and a seeded sample of rows
is recomputed with ``gap_H`` as an independent cross-check.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

from sumprodlab import subgroups
from sumprodlab.harness import FAILED

PIN_DIR = Path(__file__).resolve().parent / "pins"
GAP_SAMPLE = 16


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def pin_rows(results) -> dict:
    """{input: {check_id: [lhs, rhs, failed]}}, sides kept only when integral."""
    out: dict = {}
    for r in results:
        exact = _is_int(r.lhs) and _is_int(r.rhs)
        out.setdefault(r.inputs, {})[r.check_id] = [
            r.lhs if exact else None, r.rhs if exact else None, r.verdict == FAILED]
    return out


def load_pins(workload: str) -> dict:
    with open(PIN_DIR / f"{workload}.json") as fh:
        return json.load(fh)["inputs"]


class Verdict:
    """Attempted and failed op counts plus the problems that make a run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    @property
    def correct(self) -> bool:
        return not self.problems


def check_verify(results, labels, pins: dict) -> Verdict:
    v = Verdict()
    rows = {(r.inputs, r.check_id): r for r in results}
    bad = {key for key, r in rows.items() if r.verdict == FAILED}
    known = set()
    for label in labels:
        for cid, (lhs, rhs, was_failed) in pins.get(label, {}).items():
            r = rows.get((label, cid))
            if r is None:
                v.failed += 1
                v.attempted += 1
                v.problems.append(f"{cid} on {label}: row missing")
                continue
            if lhs is not None and (r.lhs, r.rhs) != (lhs, rhs):
                bad.add((label, cid))
                v.problems.append(f"{cid} on {label}: ({r.lhs}, {r.rhs}) != pinned ({lhs}, {rhs})")
            if was_failed:
                known.add((label, cid))
    for label, cid in sorted(bad - known):
        if rows[label, cid].verdict == FAILED:
            v.problems.append(f"{cid} on {label}: failed, and was not failing when pinned")
    v.attempted += len(rows)
    v.failed += len(bad)
    return v


def pin_scan_rows(rows) -> dict:
    """{p: [[t, H], ...]} from scan_gaps rows (p, t, H)."""
    out: dict = {}
    for p, t, gap in rows:
        out.setdefault(str(p), []).append([int(t), int(gap)])
    return out


def read_scan_csv(path: Path) -> dict:
    """{p: [(t, H), ...]} from a scan CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["p", "t", "H", "normalized"]:
            raise ValueError(f"{path}: unexpected header")
        out: dict = {}
        for p, t, gap, _ in reader:
            out.setdefault(int(p), []).append((int(t), int(gap)))
    return out


def check_gap_scan(primes, rows: dict, pins: dict, *, sample_seed: int | None) -> Verdict:
    """One op per prime.  With a sample seed, also recompute a sample with gap_H."""
    v = Verdict()
    bad = set()
    for p in primes:
        got = rows.get(p, [])
        if str(p) not in pins:
            bad.add(p)
            v.problems.append(f"p = {p}: no pinned rows")
            continue
        want = [(t, gap) for t, gap in pins[str(p)]]
        if got != want:
            bad.add(p)
            diff = sorted(set(got) ^ set(want))[:4]
            v.problems.append(f"p = {p}: rows (t, H) differ from the pins, e.g. {diff}")
    if sample_seed is not None:
        flat = [(p, t, gap) for p in primes for t, gap in rows.get(p, [])]
        for p, t, gap in random.Random(sample_seed).sample(flat, min(GAP_SAMPLE, len(flat))):
            want = subgroups.gap_H(subgroups.subgroup_context(p, t)).gap
            if gap != want:
                bad.add(p)
                v.problems.append(f"p = {p}, t = {t}: H = {gap} but gap_H gives {want}")
    v.attempted = len(primes)
    v.failed = len(bad)
    return v
