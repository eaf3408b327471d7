"""Check registry, curated corpora, rectangle decomposition, and reports."""

from . import checks as _checks  # registers every check on import
from .base import (FAILED, PROVED_EXACT, RATIO_ONLY, CheckResult, CheckSpec,
                   SetStats, check_ids, feasible_pairs, registry, run_check,
                   run_suite)
from .corpus import (CORPORA, named_corpus, series_corpus, smooth_primes,
                     stats_from_spec, subgroup_scan, subgroup_stats)
from .rect import (DESK_PROFILE, PAPER_PROFILE, RectCover, RectProfile,
                   SumStats, profile_by_name, rect_decompose,
                   sum_construction_stats)
from .report import (SCHEMA, Report, build_report, emit_report, parse_report,
                     read_report, summary_line, write_report)

__all__ = [
    "FAILED", "PROVED_EXACT", "RATIO_ONLY",
    "CheckResult", "CheckSpec", "SetStats",
    "check_ids", "feasible_pairs", "registry", "run_check", "run_suite",
    "CORPORA", "named_corpus", "series_corpus", "smooth_primes",
    "stats_from_spec", "subgroup_scan", "subgroup_stats",
    "DESK_PROFILE", "PAPER_PROFILE", "RectCover", "RectProfile", "SumStats",
    "profile_by_name", "rect_decompose", "sum_construction_stats",
    "SCHEMA", "Report", "build_report", "emit_report", "parse_report",
    "read_report", "summary_line", "write_report",
]
