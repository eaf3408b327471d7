"""The benchmark's workloads: which inputs each one runs, drawn from a seed.

The seed changes only the draws named here; the program sees only the
generated family specs (or, for gap-scan, the list of primes).  Every input a
seed can draw has correctness pins (see ``pin.py``): the ``rand`` inputs take
one of RAND_DRAWS seeds, the subgroup primes come from a fixed list, and the
gap-scan primes lie below GAP_SCAN_LIMIT.
"""

from __future__ import annotations

import random

import numpy as np

from sumprodlab import subgroups

DEFAULT_SEED = 1
VERIFY_WORKLOADS = ("grid", "subgroup", "series")
WORKLOADS = VERIFY_WORKLOADS + ("gap-scan",)

# The three subgroup_scan t-anchors (t nearest p^(1/4), p^(1/2), p^(2/3)).
# p = 93241 holds the t = 888 prototype input and is always run.  The two
# drawn primes come from the smooth primes in [40000, 50000), whose anchors
# cost within 10% of each other, so the draw moves little but the inputs.
SUBGROUP_FIXED = {93241: (18, 315, 888)}
SUBGROUP_DRAWN = {42841: (14, 210, 1020), 45361: (15, 216, 1008), 47881: (15, 228, 855)}

RAND_DRAWS = 10  # seed S draws rand(..., seed=((S - 1) mod RAND_DRAWS) + 1)

GAP_SCAN_LIMIT = 20_000
GAP_SCAN_SAMPLE = 1228  # as many primes as a scan of p <= 10^4 covers


def rand_seed(seed: int) -> int:
    """The seed of the rand inputs: seeds 1..RAND_DRAWS map to themselves."""
    return (seed - 1) % RAND_DRAWS + 1


def grid(seed: int) -> list[str]:
    small = [f"subgroup(p={p},t={t})" for p in (7, 11, 13)
             for t in subgroups.divisors(p - 1) if t >= 2]
    r = rand_seed(seed)
    return [f"rand(n=5,seed={r})", f"rand(n=4,seed={r})",
            "geo(q=3/2,n=16)", "geo(q=2,n=16)"] + small


def subgroup(seed: int) -> list[str]:
    drawn = sorted(random.Random(seed).sample(sorted(SUBGROUP_DRAWN), 2))
    anchors = {**SUBGROUP_FIXED, **{p: SUBGROUP_DRAWN[p] for p in drawn}}
    return [f"subgroup(p={p},t={t})" for p, ts in sorted(anchors.items()) for t in ts]


def series(seed: int) -> list[str]:
    return ["ap(n=48)", "geo(q=2,n=48)", "ap(n=32)"] + [
        f"rand(n={n},seed={rand_seed(seed)})" for n in (16, 32, 48)]


def gap_scan(seed: int) -> list[int]:
    """A stratified draw of primes below GAP_SCAN_LIMIT.

    scan_gaps costs about p * (1 + d(p - 1)) per prime, so the primes are
    sorted by that estimate, cut into GAP_SCAN_SAMPLE strata of one or two
    primes, and one prime is drawn per stratum: every seed gets nearly the
    same amount of work.
    """
    primes = [p for p in range(3, GAP_SCAN_LIMIT) if subgroups.is_prime(p)]
    cost = {p: p * (1 + len(subgroups.divisors(p - 1))) for p in primes}
    strata = np.array_split(sorted(primes, key=lambda p: (cost[p], p)), GAP_SCAN_SAMPLE)
    rng = random.Random(seed)
    return sorted(int(rng.choice(list(s))) for s in strata)


VERIFY_SPECS = {"grid": grid, "subgroup": subgroup, "series": series}
