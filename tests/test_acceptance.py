"""Acceptance gate.

Ten criteria, one test each, run in order; every test prints a single
PASS line with its headline numbers (visible under pytest -rA or -s).
Exactness criteria tolerate nothing; numerical criteria pin 1e-6 relative
error and -1e-9 on the PSD witness.  Criteria 1-5 and 9 each assert their
own time against their group's wall-clock budget, and the last test asserts
each group's total when the whole module has run.
"""

import itertools
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from sumprodlab import energy, incidence, spectral, subgroups
from sumprodlab.harness import (check_ids, named_corpus, rect_decompose,
                                run_suite, stats_from_spec)
from sumprodlab.setops import GSet, gset_modp, gset_rational

TIMINGS: dict[str, float] = {}

# criterion keys -> wall-clock budget in seconds for the group's total
BUDGETS = {
    "identity": (("c1", "c2", "c3"), 60.0),
    "inequalities": (("c4", "c5"), 300.0),
    "gap scan": (("c9",), 600.0),
}


def _record(key: str, t0: float) -> None:
    """Store a criterion's elapsed time and assert its group's budget."""
    TIMINGS[key] = time.monotonic() - t0
    budget = next(b for keys, b in BUDGETS.values() if key in keys)
    assert TIMINGS[key] <= budget, (key, TIMINGS[key], budget)


WINDOW_PRIMES = (7, 11, 13, 101, 1009)


def _values(A):
    """Ground values of a GSet: Fractions, or ints for mod-p sets."""
    return list(A.values()) if A.kind == "modp" else list(A.elements)


def _member_set(A):
    return set(_values(A))


# -- naive enumeration oracles (independent of the package internals) -----------

def _is_zero(x, p):
    return x % p == 0 if p else x == 0


def _oracle_energy(vals, p=None):
    return sum(1 for a, b, c, d in itertools.product(vals, repeat=4)
               if _is_zero(a + b - c - d, p))


def _oracle_energy3(vals, p=None):
    return sum(1 for a, b, c, d, e, f in itertools.product(vals, repeat=6)
               if _is_zero(a - b - c + d, p) and _is_zero(c - d - e + f, p))


def _oracle_t3(vals, p=None):
    return sum(1 for a, b, c, d, e, f in itertools.product(vals, repeat=6)
               if _is_zero(a + b + c - d - e - f, p))


def _oracle_sigma(vals, p=None):
    n = 0
    for a1, a2, a3, a4 in itertools.product(vals, repeat=4):
        if not _is_zero(a1 - a2 - a3 + a4, p):
            continue
        d = a1 - a2
        for a5, a6, a7, a8 in itertools.product(vals, repeat=4):
            if _is_zero((a5 - a6) - (a7 - a8) - d, p):
                n += 1
    return n


def _oracle_grid_triples(vals, p=None):
    pts = [(x, y) for x in vals for y in vals]
    n = 0
    for q1, q2, q3 in itertools.product(pts, repeat=3):
        if q1 == q2 or q1 == q3 or q2 == q3:
            continue
        cross = ((q2[0] - q1[0]) * (q3[1] - q1[1])
                 - (q3[0] - q1[0]) * (q2[1] - q1[1]))
        if _is_zero(cross, p):
            n += 1
    return n


# -- criterion 1: the cubic-energy identity holds by three routes ---------------

def test_criterion_01_cubic_energy_three_routes():
    t0 = time.monotonic()
    corpus = named_corpus("identity")
    assert len(corpus) == 20 and all(s.size <= 30 for s in corpus)
    for stats in corpus:
        A = stats.A
        table = energy.difference_table(A)
        r = dict(zip(table.keys.tolist(), table.counts.tolist()))
        by_moment = sum(c**3 for c in r.values())
        # A ^ (A + d) for every difference d, on the integer view (a rational corpus)
        ints, scale = A.int_view()
        own = set(ints)
        slices = {d: GSet(tuple(v for v in ints if v - d in own), scale) for d in r}
        assert all(S.size == r[d] for d, S in slices.items()), stats.name
        members = {d: _member_set(S) for d, S in slices.items()}
        by_intersections = sum(
            len(m1 & m2) ** 2
            for m1 in members.values() for m2 in members.values())
        by_slice_energy = sum(energy.energy_pair(A, S) for S in slices.values())
        assert by_moment == by_intersections == by_slice_energy, stats.name
        assert by_moment == energy.moment_energy(A, 3)
    _record("c1", t0)
    print(f"ACCEPTANCE 1 PASS: cubic-energy identity exact by 3 routes "
          f"on {len(corpus)} sets ({TIMINGS['c1']:.1f}s)")


# -- criterion 2: window pair counts agree with the congruence count -------------

def test_criterion_02_window_counts_dual_route():
    t0 = time.monotonic()
    cases = 0
    for p in WINDOW_PRIMES:
        for t in subgroups.divisors(p - 1):
            ctx = subgroups.subgroup_context(p, t)
            gam = set(ctx.gamma)
            inv = {w: pow(w, p - 2, p) for w in range(1, p)}
            for h in sorted({1, 2, p // 10} - {0}):
                total, counts = subgroups.window_counts(ctx, h)
                window = [w % p for w in range(-h, h + 1) if w != 0]
                direct = sum(1 for u in window for v in window
                             if (u * inv[v]) % p in gam)
                assert total == direct == sum(c * c for c in counts), (p, t, h)
                if (p, t, h) == (7, 3, 2):
                    assert total == 8
                cases += 1
    _record("c2", t0)
    print(f"ACCEPTANCE 2 PASS: window counts match the congruence count on "
          f"{cases} (p,t,h) cases incl. N=8 at (7,3,2) ({TIMINGS['c2']:.1f}s)")


# -- criterion 3: counting statistics match naive enumeration -------------------

SMALL_RATIONAL = (
    (1, 2, 3),
    (1, 2, 4),
    (1, 3, 9, 27),
    (-2, -1, 1, 3),
    (Fraction(1, 2), 1, Fraction(3, 2), 2),
    (1, 2, 3, Fraction(7, 2), 5),
    (2, 3, 5, 7, 11),
)


def test_criterion_03_small_set_oracle_equivalence():
    t0 = time.monotonic()
    inputs = [(gset_rational(v), None) for v in SMALL_RATIONAL]
    for p in WINDOW_PRIMES:
        for t in subgroups.divisors(p - 1):
            if t <= 5:
                ctx = subgroups.subgroup_context(p, t)
                inputs.append((gset_modp(ctx.gamma, p), p))
    for A, p in inputs:
        assert A.size <= 5
        vals = _values(A)
        assert energy.energy_pair(A) == _oracle_energy(vals, p)
        assert energy.moment_energy(A, 3) == _oracle_energy3(vals, p)
        assert energy.t_k(A, 3) == _oracle_t3(vals, p)
        assert energy.sigma_sum(A) == _oracle_sigma(vals, p)
        assert incidence.collinear_triples(A) == _oracle_grid_triples(vals, p)

    worked = gset_rational([1, 2, 3])
    assert energy.energy_pair(worked) == 19
    assert energy.moment_energy(worked, 3) == 45
    assert energy.t_k(worked, 3) == 141
    assert energy.sigma_sum(worked) == 319
    assert incidence.collinear_triples(worked) == 48
    _record("c3", t0)
    print(f"ACCEPTANCE 3 PASS: E, E3, T3, Sigma, grid triples equal naive "
          f"enumeration on {len(inputs)} small sets ({TIMINGS['c3']:.1f}s)")


# -- criterion 4: every exact inequality on the full corpus ---------------------

def test_criterion_04_exact_inequality_suite():
    t0 = time.monotonic()
    inputs = named_corpus("exact")
    results = run_suite(check_ids("all-exact"), inputs)
    _record("c4", t0)
    bad = [r for r in results if r.verdict != "proved-exact"]
    assert not bad, [(r.check_id, r.inputs) for r in bad]
    ran = {r.check_id for r in results}
    # the inequality kernels the suite is named for must all have run
    assert {"cor1_lower", "lemma_key", "lemma_t3_lines",
            "lemma_spectral_final", "cs_support"} <= ran
    # the line-count kernel covers the small random sets (n = 4..6)
    t3_inputs = {r.inputs for r in results if r.check_id == "lemma_t3_lines"}
    rand_labels = {s.name for s in inputs if re.match(r"rand\(n=[456],", s.name)}
    assert len(rand_labels) == 3 and rand_labels <= t3_inputs
    print(f"ACCEPTANCE 4 PASS: {len(results)} exact checks proved-exact on "
          f"{len(inputs)} corpus inputs ({TIMINGS['c4']:.1f}s)")


# -- criterion 5: lifted subgroup monotonicity -----------------------------------

def test_criterion_05_mod_p2_monotonicity():
    t0 = time.monotonic()
    for p, t in ((3, 2), (5, 4), (7, 3), (11, 5)):
        _, table = subgroups.mod_p2_subgroup(subgroups.subgroup_context(p, t))
        up, down = table[3]
        assert up <= down, (p, t, up, down)
        if (p, t) == (3, 2):
            assert (up, down) == (20, 22)
    _record("c5", t0)
    print("ACCEPTANCE 5 PASS: lifted T3 <= reduced T3 on 4 subgroup pairs "
          "incl. 20 <= 22 at (3,2)")


# -- criterion 6: spectral route, PSD witness, trace agreement ------------------

def test_criterion_06_spectral_chain_and_psd():
    t0 = time.monotonic()
    corpus = named_corpus("spectral")
    assert corpus and all(s.size <= 64 for s in corpus)
    for stats in corpus:
        A = stats.A
        sweep = spectral.psd_sweep(A, vectors=1000)
        assert sweep.vectors == 1000
        assert sweep.min_quadratic >= -1e-9, stats.name
        r1, r2 = spectral.trace_m2r(A)
        assert abs(r1 - r2) <= 1e-6 * max(1.0, abs(r1)), stats.name
        chain = spectral.spectral_chain(A)
        assert chain.ok, stats.name
        assert chain.mu1 >= chain.lower_mu * (1 - 1e-6)
        assert chain.rayleigh_R >= math.sqrt(chain.delta) * chain.mu1 * (1 - 1e-6)
        assert chain.lhs_exact <= chain.rhs_exact  # integer endpoints, no slack

    worked = spectral.spectral_chain(gset_rational([1, 2, 3]), delta=3)
    assert worked.mu1 == pytest.approx(3.679, abs=1e-3)
    assert worked.lower_mu == pytest.approx(19 / (3 * math.sqrt(3)), rel=1e-6)
    assert worked.mu1 >= worked.lower_mu
    TIMINGS["c6"] = time.monotonic() - t0
    print(f"ACCEPTANCE 6 PASS: PSD witness >= -1e-9 (1000 vectors/set), trace "
          f"routes within 1e-6, spectral chain holds on {len(corpus)} sets; "
          f"worked mu1 {worked.mu1:.3f} >= {worked.lower_mu:.3f}")


# -- criterion 7: character sum moments ------------------------------------------

def test_criterion_07_character_moments():
    t0 = time.monotonic()
    ctxs = [s.ctx for s in named_corpus("exact") if s.ctx is not None]
    assert ctxs
    for ctx in ctxs:
        rep = subgroups.char_moment_report(ctx)
        assert rep.strict_bound_ok, (ctx.p, ctx.t)
        assert rep.fourth_moment < ctx.p / ctx.t * rep.energy
        assert rep.parseval_ok
        assert abs(ctx.t * rep.second_moment - ctx.t * (ctx.p - ctx.t)) \
            <= 1e-6 * ctx.t * (ctx.p - ctx.t)

    worked = subgroups.char_moment_report(subgroups.subgroup_context(7, 3))
    assert worked.fourth_moment == pytest.approx(8.0, abs=1e-6)
    assert 7 / 3 * worked.energy == pytest.approx(35.0, abs=1e-9)
    TIMINGS["c7"] = time.monotonic() - t0
    print(f"ACCEPTANCE 7 PASS: fourth moment strictly below (p/t)E and "
          f"Parseval within 1e-6 on {len(ctxs)} subgroups; worked 8 < 35")


# -- criterion 8: ratio monitors stay finite and positive ------------------------

# One trend id per monitored asymptotic statement; the desk-scale chain
# variants of the same statements are exact checks and land in criterion 4.
RATIO_MONITORS = {
    "thm_main_diff", "thm_energy", "sh_record", "thm21_sum_est",
    "cor11_t3", "sig_estimate", "thm17_ranges", "thm19_energy", "thm20_gap",
}


def test_criterion_08_ratio_trend_tables():
    t0 = time.monotonic()
    inputs = named_corpus("series") + named_corpus("subgroup-scan")
    results = run_suite(check_ids("all"), inputs)
    TIMINGS["c8"] = time.monotonic() - t0
    failed = [r for r in results if r.verdict == "failed"]
    assert not failed, [(r.check_id, r.inputs) for r in failed]
    trend = [r for r in results if r.verdict == "ratio-only"]
    assert trend
    for r in trend:
        assert math.isfinite(r.ratio) and r.ratio > 0, (r.check_id, r.inputs)
    assert RATIO_MONITORS <= {r.check_id for r in trend}

    # log-log slopes down the geometric ladder
    ladder: dict[str, list[tuple[int, float]]] = {}
    for r in trend:
        m = re.match(r"geo\(q=2,n=(\d+)", r.inputs)
        if m:
            ladder.setdefault(r.check_id, []).append((int(m.group(1)), r.ratio))
    table = []
    for cid in sorted(ladder):
        pts = sorted(ladder[cid])
        if len(pts) < 2:
            continue
        slope = float(np.polyfit(np.log([n for n, _ in pts]),
                                 np.log([v for _, v in pts]), 1)[0])
        assert math.isfinite(slope), cid
        table.append(f"    {cid:18s} slope {slope:+.3f} "
                     f"over n={pts[0][0]}..{pts[-1][0]}")
    assert table
    print(f"ACCEPTANCE 8 PASS: {len(trend)} ratio rows finite and positive, "
          f"no exact failures among {len(results)} results "
          f"({TIMINGS['c8']:.1f}s); slopes:")
    print("\n".join(table))


# -- criterion 9: exhaustive gap scan ---------------------------------------------

def test_criterion_09_gap_scan_to_ten_thousand():
    t0 = time.monotonic()
    primes = [p for p in range(3, 10_001, 2) if subgroups.is_prime(p)]
    rows = list(subgroups.scan_gaps(primes, t_filter=lambda p, t: t * t >= p))
    _record("c9", t0)
    assert rows and all(gap >= 1 for _, _, gap in rows)
    # spot-check the streaming scan against the single-subgroup route
    for p, t, gap in rows[:: max(1, len(rows) // 7)]:
        assert subgroups.gap_H(subgroups.subgroup_context(p, t)).gap == gap
    norm, at = max(((math.log(gap) / math.log(p), (p, t))
                    for p, t, gap in rows), key=lambda r: r[0])
    print(f"ACCEPTANCE 9 PASS: {len(rows)} gaps over {len(primes)} primes in "
          f"{TIMINGS['c9']:.1f}s; max log H / log p = {norm:.4f} at {at} "
          f"(reference 437/480 = {437 / 480:.4f}, not asserted)")


# -- criterion 10: rectangle cover bookkeeping ------------------------------------

def test_criterion_10_rectangle_cover_structure():
    t0 = time.monotonic()
    seen: set[str] = set()
    covered = skipped = case1 = 0
    pool = (named_corpus("identity") + named_corpus("exact")
            + named_corpus("spectral") + [stats_from_spec("ap(n=16)")])
    for stats in pool:
        if stats.name in seen:
            continue
        seen.add(stats.name)
        if stats.size < 4:  # below the decomposition's own size contract
            skipped += 1
            continue
        cover = rect_decompose(stats.A)
        assert 2 * cover.rich_points >= cover.mass, stats.name
        for q_i, size_i in cover.class_loads:
            assert q_i * size_i <= 2 * cover.mass, stats.name
        if cover.case == "case1":
            case1 += 1
            # element objects keep subtraction in the right group (mod p
            # for residue sets), so membership in the level set is exact
            members = set(cover.level.elements)
            ordinates = cover.Adoubleprime.elements
            for a in cover.Aprime.elements:
                hits = sum(1 for b in ordinates if a - b in members)
                assert hits >= cover.q, stats.name
        covered += 1
    assert case1 >= 1
    TIMINGS["c10"] = time.monotonic() - t0
    print(f"ACCEPTANCE 10 PASS: cover >= half the point mass, class loads "
          f"bounded, pointwise richness verified on {case1} case1 covers "
          f"({covered} sets, {skipped} below size 4) ({TIMINGS['c10']:.1f}s)")


# -- stated wall-clock budgets ----------------------------------------------------

def test_criterion_budgets():
    missing = []
    lines = []
    for group, (keys, budget) in BUDGETS.items():
        if not all(k in TIMINGS for k in keys):
            missing.append(group)
            continue
        total = sum(TIMINGS[k] for k in keys)
        assert total <= budget, (group, TIMINGS)
        lines.append(f"{group} {total:.1f}s <= {budget:.0f}s")
    if missing:
        pytest.skip(f"no timings for the {', '.join(missing)} group(s): "
                    f"their criteria did not run in this pytest session")
    print(f"ACCEPTANCE BUDGETS PASS: {', '.join(lines)}")
