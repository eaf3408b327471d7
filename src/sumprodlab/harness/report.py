"""Suite reports: build, serialize to JSON or CSV, parse back.

Both formats round-trip exactly: ``parse_report(emit_report(r, fmt), fmt)``
equals ``r``.  lhs/rhs are decimal strings (the counts are arbitrary
precision), floats are serialized via their shortest round-trip repr, and
the verdict travels under the key ``pass`` (a Python keyword, hence the
rename).  Deterministic reports zero every timing and drop the timestamp so
two runs of the same suite produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import platform
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .. import __version__
from ..errors import BadSpec, IoFailure
from .base import CheckResult

SCHEMA = "sumprodlab-report-v1"
_CSV_HEADER = ("check_id", "input", "lhs", "rhs", "ratio", "pass", "ms")


@dataclass
class Report:
    schema: str = SCHEMA
    generated: str | None = None  # ISO-8601 UTC; None in deterministic mode
    versions: dict = field(default_factory=dict)
    corpus: str = "custom"
    elapsed_ms_total: float = 0.0
    results: list[CheckResult] = field(default_factory=list)

    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def counts(self) -> dict[str, int]:
        return dict(Counter(r.verdict for r in self.results))


def build_report(results, *, corpus: str = "custom",
                 deterministic: bool = False) -> Report:
    results = list(results)
    if deterministic:
        results = [replace(r, elapsed_ms=0.0) for r in results]
        generated = None
    else:
        generated = datetime.now(timezone.utc).isoformat(timespec="seconds")
    versions = {"python": platform.python_version(),
                "numpy": np.__version__,
                "sumprodlab": __version__}
    total = 0.0 if deterministic else sum(r.elapsed_ms for r in results)
    return Report(SCHEMA, generated, versions, corpus, total, results)


def summary_line(report: Report) -> str:
    counts = report.counts()
    return ("{exact} proved-exact, {ratio} ratio-only, {failed} failed "
            "({ms:.0f} ms)").format(exact=counts.get("proved-exact", 0),
                                    ratio=counts.get("ratio-only", 0),
                                    failed=counts.get("failed", 0),
                                    ms=report.elapsed_ms_total)


# -- JSON ----------------------------------------------------------------------


def _result_dict(r: CheckResult) -> dict:
    return {"check_id": r.check_id, "input": r.inputs, "lhs": r.lhs,
            "rhs": r.rhs, "ratio": r.ratio, "pass": r.verdict,
            "ms": r.elapsed_ms}


def _result_from_dict(d: dict) -> CheckResult:
    try:
        return CheckResult(d["check_id"], d["input"], d["lhs"], d["rhs"],
                           float(d["ratio"]), d["pass"], float(d["ms"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise IoFailure(f"malformed result entry: {exc}") from exc


def _to_json(report: Report) -> str:
    doc = {"schema": report.schema, "generated": report.generated,
           "versions": report.versions, "corpus": report.corpus,
           "elapsed_ms_total": report.elapsed_ms_total,
           "results": [_result_dict(r) for r in report.results]}
    return json.dumps(doc, indent=2) + "\n"


def _from_json(text: str) -> Report:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IoFailure(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise IoFailure(f"expected schema {SCHEMA!r}, got {doc.get('schema')!r}"
                        if isinstance(doc, dict) else "expected a JSON object")
    try:
        return Report(doc["schema"], doc["generated"], dict(doc["versions"]),
                      doc["corpus"], float(doc["elapsed_ms_total"]),
                      [_result_from_dict(d) for d in doc["results"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise IoFailure(f"malformed report: {exc}") from exc


# -- CSV -----------------------------------------------------------------------
#
# Metadata rides in leading rows whose first cell starts with '#'; the result
# table follows its own header row.  Input labels contain commas, which is
# the whole reason the csv module (QUOTE_MINIMAL) does the quoting.


def _to_csv(report: Report) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    w.writerow(["#schema", report.schema])
    w.writerow(["#generated", report.generated or ""])
    for key in ("python", "numpy", "sumprodlab"):
        w.writerow([f"#{key}", report.versions.get(key, "")])
    w.writerow(["#corpus", report.corpus])
    w.writerow(["#elapsed_ms_total", repr(report.elapsed_ms_total)])
    w.writerow(_CSV_HEADER)
    for r in report.results:
        w.writerow([r.check_id, r.inputs, r.lhs, r.rhs, repr(r.ratio),
                    r.verdict, repr(r.elapsed_ms)])
    return buf.getvalue()


def _from_csv(text: str) -> Report:
    rows = list(csv.reader(io.StringIO(text)))
    meta: dict[str, str] = {}
    body_at = None
    for i, row in enumerate(rows):
        if row and row[0].startswith("#"):
            meta[row[0][1:]] = row[1] if len(row) > 1 else ""
        else:
            body_at = i
            break
    if body_at is None or tuple(rows[body_at]) != _CSV_HEADER:
        raise IoFailure("missing result header row")
    try:
        results = [CheckResult(c, inp, lhs, rhs, float(ratio), verdict, float(ms))
                   for c, inp, lhs, rhs, ratio, verdict, ms in rows[body_at + 1:]]
        versions = {k: meta[k] for k in ("python", "numpy", "sumprodlab")}
        return Report(meta["schema"], meta["generated"] or None, versions,
                      meta["corpus"], float(meta["elapsed_ms_total"]), results)
    except (KeyError, ValueError) as exc:
        raise IoFailure(f"malformed CSV report: {exc}") from exc


# -- public entry points -------------------------------------------------------


def emit_report(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return _to_json(report)
    if fmt == "csv":
        return _to_csv(report)
    raise BadSpec(f"unknown report format {fmt!r}")


def parse_report(text: str, fmt: str = "json") -> Report:
    if fmt == "json":
        return _from_json(text)
    if fmt == "csv":
        return _from_csv(text)
    raise BadSpec(f"unknown report format {fmt!r}")


def format_for_path(path: str | Path) -> str:
    return "csv" if str(path).endswith(".csv") else "json"


def write_report(report: Report, path: str | Path, fmt: str | None = None) -> None:
    fmt = fmt or format_for_path(path)
    try:
        Path(path).write_text(emit_report(report, fmt))
    except OSError as exc:
        raise IoFailure(f"cannot write report to {path}: {exc}") from exc


def read_report(path: str | Path, fmt: str | None = None) -> Report:
    fmt = fmt or format_for_path(path)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoFailure(f"cannot read report from {path}: {exc}") from exc
    return parse_report(text, fmt)
