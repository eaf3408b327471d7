"""Curated input collections for the verification suites.

Each corpus is a list of SetStats chosen so that every check in its suite has
at least a handful of applicable inputs while the whole run stays inside a
desk-scale time budget.  The labels below are family spec strings, so a run
is reproducible from its report alone.
"""

from __future__ import annotations

import math

from .. import families, subgroups
from ..errors import BadSpec
from .base import SetStats

# 20 sets, sizes 4..30: geometric with integer and non-integer ratios,
# arithmetic, reproducible random, and two unions (structured + offset tail).
IDENTITY_LABELS = (
    "geo(q=2,n=4)", "geo(q=2,n=6)", "geo(q=2,n=8)", "geo(q=2,n=10)",
    "geo(q=2,n=12)",
    "geo(q=3,n=6)", "geo(q=3,n=10)",
    "geo(q=3/2,n=8)", "geo(q=3/2,n=12)",
    "ap(n=5)", "ap(n=9)", "ap(n=16)", "ap(n=24)", "ap(n=30)",
    "rand(n=8,seed=2)", "rand(n=16,seed=3)", "rand(n=24,seed=5)",
    "rand(n=30,seed=7)",
    "union(geo(q=2,n=6),ap(n=7,start=100))",
    "union(ap(n=10),ap(n=10,start=1000,step=7))",
)

EXACT_RATIONAL_LABELS = (
    "geo(q=2,n=4)", "geo(q=2,n=8)", "geo(q=2,n=12)", "geo(q=2,n=16)",
    "ap(n=4)", "ap(n=8)", "ap(n=16)", "ap(n=32)",
    "rand(n=4,seed=11)", "rand(n=5,seed=11)", "rand(n=6,seed=11)",
    "rand(n=8,seed=13)", "rand(n=16,seed=13)", "rand(n=32,seed=13)",
)

SPECTRAL_LABELS = (
    "ap(n=3)",
    "geo(q=2,n=8)", "geo(q=2,n=32)", "geo(q=3/2,n=16)",
    "ap(n=24)", "ap(n=64)",
    "rand(n=32,seed=17)",
)

SERIES_LABELS = (
    "geo(q=2,n=8)", "geo(q=2,n=12)", "geo(q=2,n=16)", "geo(q=2,n=24)",
    "geo(q=2,n=32)", "geo(q=2,n=48)", "geo(q=2,n=64)",
    "ap(n=8)", "ap(n=16)", "ap(n=32)", "ap(n=64)",
    "rand(n=16,seed=19)", "rand(n=32,seed=19)", "rand(n=64,seed=19)",
)

# (p, max t); small primes take every divisor of p - 1, larger ones are
# capped so the quadratic set-side kernels stay cheap.
EXACT_SUBGROUP_PRIMES = ((7, 6), (11, 10), (13, 12), (101, 64), (257, 64))
EXACT_SUBGROUP_SAMPLED = ((1009, (2, 4, 7, 12, 16, 28)),)

SMOOTH_STEP = 2520  # smooth primes are p = SMOOTH_STEP * k + 1
SCAN_T_CAP = 1024  # largest subgroup order subgroup_scan picks


def subgroup_stats(p: int, t: int) -> SetStats:
    ctx = subgroups.subgroup_context(p, t)
    return SetStats(ctx.gamma_set(), name=ctx.label(), ctx=ctx)


def stats_from_spec(text: str) -> SetStats:
    """One SetStats from a family spec string (subgroups keep their context)."""
    spec = families.parse_family(text)
    if spec.kind == "subgroup":
        return subgroup_stats(int(spec.get("p")), int(spec.get("t")))
    return SetStats(families.generate(spec), name=spec.label())


def _from_labels(labels) -> list[SetStats]:
    return [stats_from_spec(text) for text in labels]


def identity_corpus() -> list[SetStats]:
    return _from_labels(IDENTITY_LABELS)


def exact_subgroups() -> list[SetStats]:
    out = [subgroup_stats(p, t) for p, cap in EXACT_SUBGROUP_PRIMES
           for t in subgroups.divisors(p - 1) if 2 <= t <= cap]
    for p, ts in EXACT_SUBGROUP_SAMPLED:
        out.extend(subgroup_stats(p, t) for t in ts)
    return out


def exact_corpus() -> list[SetStats]:
    return _from_labels(EXACT_RATIONAL_LABELS) + exact_subgroups()


def spectral_corpus() -> list[SetStats]:
    return _from_labels(SPECTRAL_LABELS) + [subgroup_stats(13, 4)]


def series_corpus() -> list[SetStats]:
    return _from_labels(SERIES_LABELS)


def smooth_primes(limit: int) -> list[int]:
    """Primes p = 2520k + 1, whose p - 1 is rich in small divisors."""
    return [p for p in range(SMOOTH_STEP + 1, limit + 1, SMOOTH_STEP) if subgroups.is_prime(p)]


def _pick_divisor(divs, target: float, cap: int) -> int | None:
    cands = [d for d in divs if 2 <= d <= cap]
    if not cands:
        return None
    return min(cands, key=lambda d: (abs(math.log(d) - math.log(target)), d))


def subgroup_scan(limit: int = 100_000) -> list[SetStats]:
    """Subgroups across smooth primes, with t near p^(1/4), p^(1/2), p^(2/3).

    The three anchors put inputs on both sides of every range split the
    subgroup bounds branch on; divisors are snapped to the nearest available
    one below the cap.
    """
    out = []
    for p in smooth_primes(limit):
        divs = subgroups.divisors(p - 1)
        picked = set()
        for exponent in (0.25, 0.5, 2 / 3):
            t = _pick_divisor(divs, p**exponent, SCAN_T_CAP)
            if t is not None:
                picked.add(t)
        out.extend(subgroup_stats(p, t) for t in sorted(picked))
    return out


CORPORA = {
    "identity": identity_corpus,
    "exact": exact_corpus,
    "spectral": spectral_corpus,
    "series": series_corpus,
    "subgroup-scan": subgroup_scan,
}


def named_corpus(name: str) -> list[SetStats]:
    if name not in CORPORA:
        raise BadSpec(f"unknown corpus {name!r}; choose from {sorted(CORPORA)}")
    return CORPORA[name]()

