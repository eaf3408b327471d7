import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sumprodlab import energy, setops, spectral
from sumprodlab.errors import (BadSpec, CrossCheckMismatch, DegenerateInput,
                               InfeasibleSize, IoFailure, TooLarge,
                               UnknownCheck)
from sumprodlab.families import generate_from_string
from sumprodlab.harness import (CORPORA, FAILED, PROVED_EXACT, RATIO_ONLY,
                                DESK_PROFILE, PAPER_PROFILE, SetStats,
                                build_report, check_ids, emit_report,
                                feasible_pairs, named_corpus, parse_report,
                                profile_by_name, read_report, rect_decompose,
                                registry, run_check, run_suite, smooth_primes,
                                stats_from_spec, sum_construction_stats,
                                summary_line, window_triples, write_report)
from sumprodlab.harness import base as hbase
from sumprodlab.setops import gset_modp, gset_rational, invariant_union
from sumprodlab.subgroups import divisors, subgroup_context


def _stats(text: str) -> SetStats:
    return stats_from_spec(text)


# -- registry and selectors ----------------------------------------------------

def test_registry_shape():
    reg = registry()
    assert len(reg) == 42
    assert sum(1 for s in reg.values() if s.exact) == 20
    assert sum(1 for s in reg.values() if s.kind == "subgroup") == 13
    assert check_ids("all") == sorted(reg)
    assert set(check_ids("all-exact")) == {c for c, s in reg.items() if s.exact}


def test_check_ids_list_and_unknown():
    assert check_ids("cs_support, elekes") == ["cs_support", "elekes"]
    with pytest.raises(UnknownCheck):
        check_ids("no_such_check")
    with pytest.raises(UnknownCheck):
        run_check("no_such_check", _stats("ap(n=4)"))


def test_feasible_pairs_filters():
    plain = _stats("ap(n=8)")
    sub = _stats("subgroup(p=13,t=3)")
    pairs = feasible_pairs(["cs_support", "parseval_gamma"], [plain, sub])
    assert [(c, s.name) for c, s in pairs] == [
        ("cs_support", plain.name),
        ("cs_support", sub.name),
        ("parseval_gamma", sub.name),
    ]


def test_stats_from_spec_attaches_context():
    sub = _stats("subgroup(p=13,t=3)")
    assert sub.ctx is not None and (sub.ctx.p, sub.ctx.t) == (13, 3)
    assert _stats("ap(n=4)").ctx is None


# -- SetStats caching ----------------------------------------------------------

def test_setstats_memoizes():
    stats = _stats("ap(n=8)")
    assert stats.table() is stats.table()
    assert stats.combined("*") is stats.combined("*")
    assert stats.energy() == energy.energy_pair(stats.A)
    assert stats.mult_doubling() == Fraction(stats.support("*"), 8)


# -- run_check verdicts --------------------------------------------------------

def test_run_check_verdicts():
    stats = _stats("ap(n=8)")
    res = run_check("cs_support", stats)
    assert res.verdict == PROVED_EXACT and res.ok
    res = run_check("elekes", stats)
    assert res.verdict == RATIO_ONLY and res.ok
    assert math.isfinite(res.ratio) and res.ratio > 0


def test_run_check_failure_paths(monkeypatch):
    stats = _stats("ap(n=4)")
    monkeypatch.setitem(
        hbase._REGISTRY, "tmp_bad_exact",
        hbase.CheckSpec("tmp_bad_exact", "set", True, lambda s, o: (2, 1, 2.0, False)))
    assert run_check("tmp_bad_exact", stats).verdict == FAILED

    def boom(s, o):
        raise CrossCheckMismatch("routes disagree")

    monkeypatch.setitem(hbase._REGISTRY, "tmp_boom",
                        hbase.CheckSpec("tmp_boom", "set", True, boom))
    res = run_check("tmp_boom", stats)
    assert res.verdict == FAILED and res.ratio == 0.0 and res.lhs == ""

    monkeypatch.setitem(
        hbase._REGISTRY, "tmp_inf",
        hbase.CheckSpec("tmp_inf", "set", False, lambda s, o: (1, 0, float("inf"), True)))
    assert run_check("tmp_inf", stats).verdict == FAILED  # trend ratio must be finite


# -- suites --------------------------------------------------------------------

def test_run_suite_parallel_matches_sequential():
    cids = ["cs_support", "popular_pigeonhole", "parseval_gamma", "trace_routes", "psd_witness"]
    inputs = [_stats("ap(n=8)"), _stats("geo(q=2,n=8)"), _stats("subgroup(p=13,t=4)")]
    seq = run_suite(cids, inputs)
    par = run_suite(cids, inputs, jobs=2)
    strip = lambda rs: [(r.check_id, r.inputs, r.lhs, r.rhs, r.verdict) for r in rs]
    assert strip(seq) == strip(par)
    assert len(seq) == 13  # parseval only applies to the subgroup input


def test_run_suite_unknown_check():
    with pytest.raises(UnknownCheck):
        run_suite(["nope"], [_stats("ap(n=4)")])
    with pytest.raises(UnknownCheck):
        run_suite(["nope"], [_stats("ap(n=4)")], jobs=2)


# -- corpora -------------------------------------------------------------------

def test_corpus_sizes():
    assert len(named_corpus("identity")) == 20
    exact = named_corpus("exact")
    assert len(exact) == 44
    assert sum(1 for s in exact if s.ctx is not None) == 30
    assert len(named_corpus("spectral")) == 8
    assert set(CORPORA) == {"identity", "exact", "spectral", "series", "subgroup-scan"}
    with pytest.raises(BadSpec):
        named_corpus("everything")


def test_smooth_primes_and_window_grid():
    assert smooth_primes(2521) == [2521]
    assert all((p - 1) % 2520 == 0 for p in smooth_primes(100_000))
    grid = window_triples()
    assert grid
    for p, t, h in grid:
        assert (p - 1) % t == 0 and 1 <= h <= (p - 1) // 2


# -- rectangle decomposition ---------------------------------------------------

def test_rect_decompose_case1_worked_example():
    A = generate_from_string("ap(n=16)")
    cover = rect_decompose(A, profile=PAPER_PROFILE)
    assert cover.case == "case1" and cover.rounds == 1
    assert cover.q >= 1
    a_members = set(A.elements)
    assert set(cover.Aprime.elements) <= a_members
    assert set(cover.Adoubleprime.elements) <= a_members
    assert 2 * cover.rich_points >= cover.mass
    assert cover.energy_ledger == [energy.energy_pair(A)]
    for q_i, size_i in cover.class_loads:
        assert q_i * size_i <= 2 * cover.mass


def test_rect_rich_mass_matches_oracle():
    A = generate_from_string("ap(n=16)")
    cover = rect_decompose(A, profile=PAPER_PROFILE)
    assert cover.rounds == 1  # the oracle rebuilds round-1 points from A itself
    members = cover.level.member_set()
    points = [(a, b) for a in A.elements for b in A.elements if a - b in members]
    assert len(points) == cover.mass
    rects = [(set(r.abscissae), set(r.ordinates)) for r in cover.rectangles]
    assert oracles.rich_rect_mass(points, rects) == cover.rich_points


def test_rect_case2_iteration():
    # an unreachable width threshold forces the dropping branch every round
    profile = profile_by_name("desk", c1=100, c2=0)
    for spec, rounds in (("ap(n=16)", 1), ("union(ap(n=12),geo(q=3,n=6,start=1000))", 2)):
        A = generate_from_string(spec)
        cover = rect_decompose(A, profile=profile)
        assert cover.case == "case2-iterated"
        assert cover.q == 0 and cover.Aprime is cover.Adoubleprime
        assert cover.rounds == len(cover.energy_ledger) == rounds
        assert all(a >= b for a, b in zip(cover.energy_ledger, cover.energy_ledger[1:]))
        assert cover == oracles.rect_cover(A, profile)
    assert cover.energy_ledger == [1510, 66]  # the rebuild on what round 1 left


def test_rect_guards():
    with pytest.raises(DegenerateInput):
        rect_decompose(gset_rational([1, 2, 3]))
    with pytest.raises(TooLarge):
        rect_decompose(gset_rational(range(1, 514)))
    with pytest.raises(DegenerateInput):
        profile_by_name("fancy")
    assert profile_by_name("desk") is DESK_PROFILE


def test_sum_construction_stats_identities():
    A = generate_from_string("ap(n=8)")
    cover = rect_decompose(A, profile=PAPER_PROFILE)
    st = sum_construction_stats(A, cover=cover)
    assert st.s_size == setops.support_size(A, A, "+") == 15
    assert st.p_size == len(cover.level.member_set())
    assert st.ratio_count == setops.support_size(A, A, "/")
    assert st.pair_mass == A.size * st.aprime_size
    assert st.line_bound == st.s_size**4 * st.p_size**2
    assert st.energy_times * st.ratio_count >= st.pair_mass**2
    assert st.sum_q_cubes <= st.ratio_count * st.line_bound
    assert st.triples_lower >= 0
    big = generate_from_string("rand(n=110,seed=1)")  # |A/A| = 11,991
    with pytest.raises(InfeasibleSize):
        sum_construction_stats(big)


def test_sum_stats_pinned_ap32():
    res = run_check("sum_stats", _stats("ap(n=32)"))
    assert (res.lhs, res.rhs, res.verdict) == ("2556944", "1048576", PROVED_EXACT)


# -- integer kernels against the Fraction/ModP oracles --------------------------

_nonzero = st.integers(-30, 30).filter(bool)


@st.composite
def kernel_inputs(draw):
    """Sets of 4 to 9 elements: rationals with mixed signs and denominators,
    rationals past 2^63, random residue sets, subgroups and unions of cosets."""
    kind = draw(st.sampled_from(["rational", "huge", "modp", "subgroup", "cosets"]))
    if kind == "rational":
        dens = st.integers(1, 6)
        vals = draw(st.lists(st.builds(Fraction, _nonzero, dens), min_size=4, max_size=9,
                             unique=True))
        return gset_rational(vals)
    if kind == "huge":
        base = draw(st.sampled_from([2**63 - 3, 2**64 + 1, -(2**66)]))
        offs = draw(st.lists(st.integers(-20, 20), min_size=4, max_size=8, unique=True))
        den = draw(st.sampled_from([1, 3, 4]))
        return gset_rational([Fraction(base + o, den) for o in offs] + [Fraction(1, den)])
    p = draw(st.sampled_from([13, 31, 61, 101]))
    if kind == "modp":
        vals = draw(st.lists(st.integers(1, p - 1), min_size=4, max_size=9, unique=True))
        return gset_modp(vals, p)
    if kind == "subgroup":
        t = draw(st.sampled_from([t for t in divisors(p - 1) if 4 <= t <= 12]))
        return subgroup_context(p, t).gamma_set()
    ctx = subgroup_context(p, draw(st.sampled_from([t for t in divisors(p - 1) if t <= 4])))
    picks = draw(st.lists(st.integers(0, ctx.cosets - 1), min_size=1, max_size=3, unique=True))
    A = invariant_union(ctx, picks)
    if A.size < 4:
        A = invariant_union(ctx, range(min(ctx.cosets, 4)))
    return A


# the last profile's width threshold is unreachable, so every round drops
@given(kernel_inputs(), st.sampled_from([PAPER_PROFILE, DESK_PROFILE,
                                         profile_by_name("desk", c1=100, c2=0)]))
@settings(max_examples=60, deadline=None)
def test_rect_and_sum_kernels_match_oracles(A, profile):
    cover = rect_decompose(A, profile=profile)
    assert cover == oracles.rect_cover(A, profile)
    assert sum_construction_stats(A, cover=cover) == oracles.sum_construction(A, cover)
    assert sum_construction_stats(A) == oracles.sum_construction(A)


@given(kernel_inputs())
@settings(max_examples=40, deadline=None)
def test_prop7_count4_matches_oracle(A):
    res = run_check("prop7", SetStats(A))
    assert res.rhs == str(oracles.prop7_count4(A))


@given(kernel_inputs())
@example(gset_modp([3, 5, 6, 12], 13))  # 12 + w wraps past p for every w > 0
@settings(max_examples=40, deadline=None)
def test_spectral_kernels_match_oracles(A):
    want = oracles.trace_m2r(A)
    for route in spectral.trace_m2r(A):
        assert route == pytest.approx(want, rel=1e-9)
    N = spectral.incidence_factor(A)
    assert np.array_equal(N @ N.T, spectral.build_matrices(A).R)


def test_sigma_computed_once_per_input(monkeypatch):
    calls = []
    real = energy.sigma_sum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(energy, "sigma_sum", counted)
    inputs = [_stats("ap(n=12)"), _stats("geo(q=2,n=10)"), _stats("subgroup(p=31,t=6)")]
    cids = ["lemma_spectral_final", "spectral_chain", "trace_routes", "sig_estimate"]
    results = run_suite(cids, inputs)
    assert len(results) == 12 and all(r.ok for r in results)
    assert calls == [s.A for s in inputs]


# -- reports -------------------------------------------------------------------

def _tiny_report(deterministic=False):
    inputs = [_stats("ap(n=8)"), _stats("union(geo(q=2,n=6),ap(n=7,start=100))")]
    results = run_suite(["cs_support", "elekes"], inputs)
    return build_report(results, corpus="custom", deterministic=deterministic)


def test_report_roundtrip_json_and_csv():
    rep = _tiny_report()
    assert parse_report(emit_report(rep, "json"), "json") == rep
    assert parse_report(emit_report(rep, "csv"), "csv") == rep
    # the union label contains commas, so csv quoting is load-bearing
    assert any("," in r.inputs for r in rep.results)


def test_report_deterministic_mode():
    rep = _tiny_report(deterministic=True)
    assert rep.generated is None
    assert rep.elapsed_ms_total == 0.0
    assert all(r.elapsed_ms == 0.0 for r in rep.results)
    again = _tiny_report(deterministic=True)
    assert emit_report(rep, "json") == emit_report(again, "json")
    assert emit_report(rep, "csv") == emit_report(again, "csv")


def test_report_summary_line():
    rep = _tiny_report(deterministic=True)
    assert summary_line(rep) == "2 proved-exact, 2 ratio-only, 0 failed (0 ms)"
    assert rep.failed() == []
    assert rep.counts() == {"proved-exact": 2, "ratio-only": 2}


def test_report_file_roundtrip(tmp_path):
    rep = _tiny_report()
    for name in ("out.json", "out.csv"):
        path = tmp_path / name
        write_report(rep, path)
        assert read_report(path) == rep
    with pytest.raises(IoFailure):
        read_report(tmp_path / "missing.json")


def test_report_rejects_malformed():
    with pytest.raises(IoFailure):
        parse_report("{not json", "json")
    with pytest.raises(IoFailure):
        parse_report('{"schema": "other-schema-v9"}', "json")
    with pytest.raises(IoFailure):
        parse_report("#schema,sumprodlab-report-v1\nwrong,header\n", "csv")
    with pytest.raises(BadSpec):
        emit_report(_tiny_report(), "toml")


# -- a couple of check formulas pinned against direct recomputation -------------

def test_cs_support_values():
    stats = _stats("ap(n=8)")
    res = run_check("cs_support", stats)
    # |A|^4 <= |A-A| E(A) (and the sumset twin, checked inside)
    e = energy.energy_pair(stats.A)
    assert int(res.lhs) == 8**4 and int(res.rhs) == stats.support("-") * e


def test_elekes_ratio_value():
    stats = _stats("geo(q=2,n=8)")
    res = run_check("elekes", stats)
    add = setops.support_size(stats.A, stats.A, "+")
    mul = setops.support_size(stats.A, stats.A, "*")
    assert res.ratio == pytest.approx((add * mul) ** 2 / 8**5)
