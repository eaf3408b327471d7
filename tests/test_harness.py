import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sumprodlab import energy, setops, spectral, subgroups
from sumprodlab.errors import (BadSpec, CrossCheckMismatch, DegenerateInput,
                               IoFailure, TooLarge, UnknownCheck)
from sumprodlab.families import generate_from_string
from sumprodlab.harness import (CORPORA, FAILED, PROVED_EXACT, RATIO_ONLY,
                                DESK_PROFILE, PAPER_PROFILE, RectProfile, SetStats,
                                build_report, check_ids, emit_report,
                                feasible_pairs, named_corpus, parse_report,
                                profile_by_name, read_report, rect_decompose,
                                registry, run_check, run_suite, smooth_primes,
                                stats_from_spec, sum_construction_stats,
                                summary_line, write_report)
from sumprodlab.harness import base as hbase
from sumprodlab.harness import checks
from sumprodlab.harness.corpus import exact_subgroups
from sumprodlab.setops import gset_modp, gset_rational
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
        hbase.CheckSpec("tmp_bad_exact", "set", True, lambda s: (2, 1, 2.0, False)))
    assert run_check("tmp_bad_exact", stats).verdict == FAILED

    def boom(s):
        raise CrossCheckMismatch("routes disagree")

    monkeypatch.setitem(hbase._REGISTRY, "tmp_boom",
                        hbase.CheckSpec("tmp_boom", "set", True, boom))
    res = run_check("tmp_boom", stats)
    assert res.verdict == FAILED and res.ratio == 0.0 and res.lhs == ""

    monkeypatch.setitem(
        hbase._REGISTRY, "tmp_inf",
        hbase.CheckSpec("tmp_inf", "set", False, lambda s: (1, 0, float("inf"), True)))
    assert run_check("tmp_inf", stats).verdict == FAILED  # trend ratio must be finite


# -- suites --------------------------------------------------------------------

def test_run_suite_parallel_matches_sequential(monkeypatch):
    cids = ["cs_support", "popular_pigeonhole", "parseval_gamma", "trace_routes", "psd_witness"]
    inputs = [_stats("ap(n=8)"), _stats("geo(q=2,n=8)"), _stats("subgroup(p=13,t=4)")]
    # the workers evaluate the guards; a forked worker appends to its own copy of the list
    parent_guards, applies = [], hbase.CheckSpec.applies
    monkeypatch.setattr(hbase.CheckSpec, "applies",
                        lambda spec, stats: parent_guards.append(spec) or applies(spec, stats))
    par = run_suite(cids, inputs, jobs=2)
    assert parent_guards == []
    seq = run_suite(cids, inputs)
    strip = lambda rs: [(r.check_id, r.inputs, r.lhs, r.rhs, r.verdict) for r in rs]
    assert strip(seq) == strip(par)
    assert len(seq) == 13  # parseval only applies to the subgroup input


def test_run_suite_parallel_report_is_byte_identical():
    # every check on a whole corpus and on the exact corpus's subgroups; the
    # first run releases each input's store, so the difference tables are built
    # again and the second run pickles inputs that carry them into the workers,
    # where a subgroup's set must stay its context's Gamma set
    inputs = named_corpus("identity") + exact_subgroups()
    ids = check_ids("all")
    seq = build_report(run_suite(ids, inputs), corpus="identity", deterministic=True)
    for stats in inputs:
        stats.table()
    par = build_report(run_suite(ids, inputs, jobs=2), corpus="identity", deterministic=True)
    assert len(seq.results) == 558 + 1169
    assert emit_report(seq, "json") == emit_report(par, "json")


def _blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS in this process, if it has one."""
    import ctypes
    import glob

    for lib in glob.glob(f"{np.__path__[0]}.libs/libscipy_openblas64_*.so"):
        return ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
    return None


def _blas_threads_batch(payload) -> list:
    return [_blas_threads()]


def test_run_suite_workers_run_blas_on_one_thread(monkeypatch):
    if _blas_threads() is None:
        pytest.skip("this numpy bundles no OpenBLAS")
    # a forked worker looks the batch function up in its copy of the patched module
    monkeypatch.setattr(hbase, "_run_input_batch", _blas_threads_batch)
    assert run_suite(["cs_support"], [_stats("ap(n=4)"), _stats("ap(n=5)")], jobs=2) == [1, 1]


def test_blas_initializer_does_nothing_without_the_library(monkeypatch):
    import ctypes
    import glob

    def unloadable(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(glob, "glob", lambda pattern: ["libscipy_openblas64_-missing.so"])
    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert hbase._one_blas_thread() is None
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())  # a library without the setter
    assert hbase._one_blas_thread() is None
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    assert hbase._one_blas_thread() is None


def test_run_suite_pins_blas_in_its_own_process(monkeypatch):
    calls = []
    monkeypatch.setattr(hbase, "_one_blas_thread", lambda: calls.append(1))
    rows = run_suite(["cs_support"], [_stats("ap(n=4)"), _stats("ap(n=5)")], jobs=1)
    assert len(rows) == 2 and calls == [1]


def test_broken_moment_identity_fails_the_character_rows(monkeypatch):
    # E(Gamma) off by one breaks t sum|S|^4 = pE - t^4, which char_sums verifies
    stats = _stats("subgroup(p=13,t=4)")
    monkeypatch.setattr(energy, "energy_pair", lambda A: 1 + energy.difference_table(A).moment(2))
    for cid in ("orthogonality_fourth", "parseval_gamma"):
        assert run_check(cid, stats).verdict == FAILED


def test_each_input_builds_one_difference_table(monkeypatch):
    # the subgroup's table comes from one pass over Gamma, as t^2 = 8,100 >= p
    inputs = [_stats("rand(n=48,seed=1)"), _stats("subgroup(p=7561,t=90)")]
    builds = [[] for _ in inputs]
    combine, orbit_table = setops.combine, subgroups._orbit_table

    def count(A, op, route):
        # an equal copy of an input counts as that input; the smaller sets
        # of later rectangle rounds do not
        for i, stats in enumerate(inputs):
            if op == "-" and A == stats.A:
                builds[i].append(route)

    def counting(A, B, op):
        if A == B:
            count(A, op, "pairs")
        return combine(A, B, op)

    def counting_orbits(gamma, p, op):
        count(gset_modp(gamma.tolist(), p), op, "orbits")
        return orbit_table(gamma, p, op)

    # subgroups binds combine under its own name
    for module in (setops, subgroups):
        monkeypatch.setattr(module, "combine", counting)
    monkeypatch.setattr(subgroups, "_orbit_table", counting_orbits)
    run_suite(check_ids("all"), inputs)
    assert builds == [["pairs"], ["orbits"]]


def test_subgroup_product_and_quotient_sets_take_the_orbit_route(monkeypatch):
    stats = _stats("subgroup(p=101,t=20)")  # t^2 = 400 >= p
    orbit_table, passes = subgroups._orbit_table, []

    def counting(gamma, p, op):
        passes.append(op)
        return orbit_table(gamma, p, op)

    monkeypatch.setattr(subgroups, "_orbit_table", counting)
    monkeypatch.setattr(subgroups, "combine", lambda *args: pytest.fail("pair kernel used"))
    assert stats.combined("*") is stats.combined("/") is stats.A  # Gamma Gamma = Gamma / Gamma = Gamma
    assert passes == ["*", "/"]


def test_each_self_table_built_once_per_input_and_op(monkeypatch):
    # every check on inputs of both routes: t^2 >= p for both subgroups, so
    # their tables come from one pass over Gamma, and Gamma Gamma = Gamma /
    # Gamma = Gamma, so r_{AA - AA} and A/AA are read off Gamma's own tables
    inputs = [_stats(s) for s in ("ap(n=6)", "rand(n=16,seed=1)",
                                  "subgroup(p=101,t=20)", "subgroup(p=13,t=4)")]
    builds: dict = {}
    combine, orbit_table = setops.combine, subgroups._orbit_table

    def count(A, op, route):
        for i, stats in enumerate(inputs):
            if A == stats.A:
                builds.setdefault((i, op), []).append(route)

    def counting(A, B, op):
        if A == B:
            count(A, op, "pairs")
        return combine(A, B, op)

    def counting_orbits(gamma, p, op):
        count(gset_modp(gamma.tolist(), p), op, "orbits")
        return orbit_table(gamma, p, op)

    for module in (setops, subgroups):
        monkeypatch.setattr(module, "combine", counting)
    monkeypatch.setattr(subgroups, "_orbit_table", counting_orbits)
    assert all(r.ok for r in run_suite(check_ids("all"), inputs))
    route = ["pairs", "pairs", "orbits", "orbits"]
    want = {(i, op): [route[i]] for i in range(4) for op in "+-*/"}
    for i in range(4):  # e3_identity's second route to E(A) builds r_{A+A} by the pair kernel
        want[i, "+"].append("pairs")
    assert {k: sorted(v) for k, v in builds.items()} == {k: sorted(v) for k, v in want.items()}


def test_run_suite_releases_each_input_store_before_the_next(monkeypatch):
    inputs = [_stats(s) for s in ("ap(n=6)", "rand(n=16,seed=1)", "subgroup(p=13,t=4)")]
    seen = []  # per check run: (its input, its store's size, earlier inputs still holding values)
    run_check = hbase.run_check

    def watching(cid, stats, **kwargs):
        i = next(k for k, s in enumerate(inputs) if s is stats)
        seen.append((i, len(setops.store(stats.A)),
                     [k for k in range(i) if setops.store(inputs[k].A)]))
        return run_check(cid, stats, **kwargs)

    monkeypatch.setattr(hbase, "run_check", watching)
    run_suite(check_ids("all"), inputs)
    assert {i for i, size, _ in seen if size} == {0, 1, 2}
    assert all(held == [] for _, _, held in seen)
    assert all(setops.store(stats.A) == {} for stats in inputs)


def test_keep_is_the_stores_one_writer(monkeypatch):
    # every check on a set input and a subgroup input: each store, the inputs'
    # just before release and the derived sets' after the run, holds exactly
    # the keys setops.keep was asked for
    written, released = {}, {}
    keep, release = setops.keep, setops.release

    def recording(A, key, build):
        written.setdefault(id(A), (A, set()))[1].add(key)
        return keep(A, key, build)

    def snapshot(A):
        released[id(A)] = set(setops.store(A))
        release(A)

    monkeypatch.setattr(setops, "keep", recording)
    monkeypatch.setattr(setops, "release", snapshot)
    inputs = [_stats("ap(n=16)"), _stats("subgroup(p=13,t=4)")]
    run_suite(check_ids("all"), inputs)
    assert set(released) == {id(stats.A) for stats in inputs}
    assert all(released[i] == written[i][1] for i in released)
    assert len(written) > len(inputs)  # A+A, AA, A/AA and the like keep their own
    assert all(set(setops.store(A)) == keys
               for i, (A, keys) in written.items() if i not in released)


def test_run_suite_releases_the_store_when_a_guard_trips(monkeypatch):
    stats, held = _stats("ap(n=6)"), []

    def tripping(stats):
        stats.energy()
        held.append(len(setops.store(stats.A)))
        raise TooLarge("refused")

    spec = hbase._REGISTRY["cs_support"]
    monkeypatch.setitem(hbase._REGISTRY, "cs_support", dataclasses.replace(spec, fn=tripping))
    with pytest.raises(TooLarge):
        run_suite(["cs_support"], [stats])
    assert held[0] > 0 and setops.store(stats.A) == {}


def test_worker_reads_the_tables_its_input_carries(monkeypatch):
    # jobs > 1 pickles a set with its context, so in the worker the set is still
    # the context's Gamma set and E(Gamma) reads the table built before pickling
    stats = _stats("subgroup(p=101,t=20)")
    stats.table()
    cids = ["thm19_energy", "orthogonality_fourth"]
    payload = pickle.loads(pickle.dumps((stats.A, stats.name, stats.ctx, cids)))
    for name in ("combine", "_orbit_table"):  # pair_table's two routes
        monkeypatch.setattr(subgroups, name, lambda *args: pytest.fail("table rebuilt"))
    assert all(r.ok for r in hbase._run_input_batch(payload))


def test_each_input_builds_one_dyadic_level(monkeypatch):
    # dyadic_level, rect_structure's first round and, when there is no case-1
    # cover (ap(n=3) is too small for one), sum_stats all read A's level
    built = []
    level = energy.DyadicLevel
    monkeypatch.setattr(energy, "DyadicLevel", lambda *args: built.append(args) or level(*args))
    run_suite(["dyadic_level", "rect_structure", "sum_stats"],
              [_stats("ap(n=16)"), _stats("ap(n=3)")])
    assert len(built) == 2


def test_popular_and_dyadic_readers_decode_nothing(monkeypatch):
    # subgroup(p=7561,t=90) has t^2 >= p, so P and the level have O(p) keys; the
    # readers work on masks over the difference table's keys, and a rectangle
    # cover keeps its level as that mask, which sum_stats reads
    inputs = [_stats("subgroup(p=7561,t=90)"), _stats("ap(n=16)")]
    monkeypatch.setattr(setops.CountTable, "decode", lambda *args: pytest.fail("decoded"))
    ids = ["lemma_key", "popular_pigeonhole", "dyadic_level", "cor1_lower", "rect_structure",
           "sum_stats"]
    results = run_suite(ids, inputs)
    assert len(results) == 11 and all(r.ok for r in results)  # sum_stats skips the subgroup
    sum_construction_stats(inputs[1].A)  # with no cover, A's level is read off the table


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


def test_smooth_primes():
    assert smooth_primes(2521) == [2521]
    assert all((p - 1) % 2520 == 0 for p in smooth_primes(100_000))


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
    cover = oracles.decoded_cover(cover)
    members = set(cover.level.elements)
    points = [(a, b) for a in A.elements for b in A.elements if a - b in members]
    assert len(points) == cover.mass
    rects = [(set(r.abscissae), set(r.ordinates)) for r in cover.rectangles]
    assert oracles.rich_rect_mass(points, rects) == cover.rich_points


def test_rect_case2_iteration():
    # an unreachable width threshold forces the dropping branch every round
    profile = RectProfile("desk", Fraction(100), 0)
    for spec, rounds in (("ap(n=16)", 1), ("union(ap(n=12),geo(q=3,n=6,start=1000))", 2)):
        A = generate_from_string(spec)
        cover = rect_decompose(A, profile=profile)
        assert cover.case == "case2-iterated"
        assert cover.q == 0 and cover.Aprime is cover.Adoubleprime
        assert cover.rounds == len(cover.energy_ledger) == rounds
        assert all(a >= b for a, b in zip(cover.energy_ledger, cover.energy_ledger[1:]))
        assert oracles.decoded_cover(cover) == oracles.rect_cover(A, profile)
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
    assert st.p_size == cover.level.members.size
    assert st.ratio_count == setops.support_size(A, A, "/")
    assert st.pair_mass == A.size * st.aprime_size
    assert st.line_bound == st.s_size**4 * st.p_size**2
    assert st.energy_times * st.ratio_count >= st.pair_mass**2
    assert st.sum_q_cubes <= st.ratio_count * st.line_bound
    assert st.triples_lower >= 0
    big = generate_from_string("rand(n=110,seed=1)")  # |A/A| = 11,991
    with pytest.raises(TooLarge):
        sum_construction_stats(big)


def test_quotient_table_built_once_per_input(monkeypatch):
    # |A/A| for the guards, r_{A/A} for the slope classes and, on a grid input,
    # the set A/A of lemma_t3_lines come from one table
    quotient_loops = []
    real = setops._pair_keys

    def counted(A, B, op, into):
        quotient_loops.append(op == "/" and A == B)
        return real(A, B, op, into)

    monkeypatch.setattr(setops, "_pair_keys", counted)
    for spec, cids in (("rand(n=16,seed=1)", ["sum_stats"]),
                       ("ap(n=6)", ["sum_stats", "lemma_t3_lines"])):
        quotient_loops.clear()
        stats = _stats(spec)
        results = run_suite(cids, [stats])  # the guards read |A/A| first
        assert [r.verdict for r in results] == [PROVED_EXACT] * len(cids)
        assert sum(quotient_loops) == 1
    assert stats.support("/") == setops.support_size(stats.A, stats.A, "/")


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
    A = oracles.invariant_union(ctx, picks)
    if A.size < 4:
        A = oracles.invariant_union(ctx, range(min(ctx.cosets, 4)))
    return A


# the last profile's width threshold is unreachable, so every round drops;
# the oracle also checks that the transposed point set gives the same cover
@given(kernel_inputs(), st.sampled_from([PAPER_PROFILE, DESK_PROFILE,
                                         RectProfile("desk", Fraction(100), 0)]))
# 93,312 constructed points, two blocks of whole slope classes
@example(subgroup_context(93241, 18).gamma_set(), PAPER_PROFILE)
# without a cover the class lambda = 1 alone holds 75,400 points, past setops._BLOCK
@example(generate_from_string("ap(n=50,start=1001)"), PAPER_PROFILE)
# mod 2^31 - 1 no length-p mask is allowed, so the level is searched in sorted keys
@example(gset_modp([1, 2, 3, 4, 5, 6, 7, 8, (1 << 31) - 2, (1 << 31) - 3], (1 << 31) - 1),
         PAPER_PROFILE)
# two rounds of case 2, the second on what the first left
@example(generate_from_string("union(ap(n=12),geo(q=3,n=6,start=1000))"),
         RectProfile("desk", Fraction(100), 0))
@settings(max_examples=60, deadline=None)
def test_rect_and_sum_kernels_match_oracles(A, profile):
    cover = rect_decompose(A, profile=profile)
    assert oracles.decoded_cover(cover) == oracles.rect_cover(A, profile)
    assert sum_construction_stats(A, cover=cover) == oracles.sum_construction(A, cover)
    assert sum_construction_stats(A) == oracles.sum_construction(A)


@given(kernel_inputs())
@example(gset_rational([Fraction(1, 2), Fraction(3, 2), Fraction(7, 2), Fraction(11, 2)]))  # D on scale 1
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


# rationals with differing denominators, keys past 2^62 (object dtype), and
# values near 2^100, which lie close together when drawn alone
e3_values = st.one_of(st.integers(-30, 30), st.fractions(-6, 6, max_denominator=5),
                      st.integers(-40, 40).map(lambda v: 2**62 + v),
                      st.integers(-40, 40).map(lambda v: -(2**62) + v),
                      st.integers(-40, 40).map(lambda v: 2**100 + v)).filter(lambda x: x != 0)


@st.composite
def e3_inputs(draw):
    if draw(st.booleans()):
        return gset_rational(draw(st.lists(e3_values, min_size=1, max_size=9)))
    p = draw(st.sampled_from([7, 13, 101, 2**31 - 1]))
    return gset_modp(draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=9)), p)


@given(e3_inputs())
@example(generate_from_string("geo(q=2,n=64)"))  # elements to 2^63, differences past 2^62
@example(generate_from_string("ap(n=4,start=10^20)"))  # past 2^63, with span 3
@settings(max_examples=40, deadline=None)
def test_e3_slice_route_matches_oracle(A):
    res = run_check("e3_identity", SetStats(A))
    assert res.rhs == str(oracles.slice_energy_sum(list(A.values()), A.p))
    assert res.verdict == PROVED_EXACT


def test_e3_slice_route_checks_each_slice_size():
    stats = SetStats(gset_rational([1, 2, 3, 5, 8]))
    table = stats.table()
    table.counts[table.index(np.array([1]))] += 1  # r(1) now disagrees with |A ^ (A+1)| = 2
    with pytest.raises(CrossCheckMismatch, match="d = 1 "):
        checks._chk_e3_identity(stats)


def test_e3_sum_route_checks_the_energy(monkeypatch):
    stats = SetStats(gset_rational([1, 2, 3, 5, 8]))
    wrong = stats.energy() + 1  # E now disagrees with sum_s r_{A+A}(s)^2
    monkeypatch.setattr(stats, "energy", lambda: wrong)
    with pytest.raises(CrossCheckMismatch, match=r"r_\{A\+A\}"):
        checks._chk_e3_identity(stats)


@pytest.mark.parametrize("p,t", [(13, 4), (31, 5)])
def test_subgroup_pair_table_checks_match_oracles(p, t):
    # for these primes Q is every unit mod p, and both checks read residue pair tables
    stats = _stats(f"subgroup(p={p},t={t})")
    gamma = list(stats.ctx.gamma)
    assert run_check("lemma18_invariant", stats).lhs == str(oracles.energy(list(range(1, p)), gamma, p))
    assert run_check("subgr_t3_bound", stats).lhs == str(oracles.t_k(gamma, 3, p))


def test_sigma_computed_once_per_input(monkeypatch):
    # Sigma is a read of the shift rows, so the four checks that read it build
    # each input's rows once, by whichever route the rows take
    inputs = [_stats("ap(n=12)"), _stats("geo(q=2,n=10)"), _stats("subgroup(p=31,t=6)")]
    supports = [s.support("-") for s in inputs]
    built = []

    def counting(real):
        return lambda keys, *args: built.append(keys.size) or real(keys, *args)

    for name in ("_rows_lookup", "_rows_cyclotomic"):
        monkeypatch.setattr(energy, name, counting(getattr(energy, name)))
    cids = ["lemma_spectral_final", "spectral_chain", "trace_routes", "sig_estimate"]
    results = run_suite(cids, inputs)
    assert len(results) == 12 and all(r.ok for r in results)
    assert built == supports



def test_shift_rows_built_once_per_set(monkeypatch):
    builds, moduli = [], []
    real_rows, real_fingerprint = energy._rows_lookup, energy._fingerprint

    def counted(keys, *args):
        builds.append(keys.size)
        return real_rows(keys, *args)

    def spy(look):
        got = real_fingerprint(look)
        moduli.append(got[1])
        return got

    monkeypatch.setattr(energy, "_rows_lookup", counted)
    monkeypatch.setattr(energy, "_fingerprint", spy)
    # keys inside 2^61 are their own fingerprints; the second set reaches 2^62,
    # so its keys are looked up mod the fingerprint prime
    for A, q in ((generate_from_string("rand(n=16,seed=3)"), None),
                 (gset_rational([1, 3, 4, 9, 1 << 62]), energy._FINGERPRINT)):
        stats = SetStats(A)
        stats.sigma(), stats.tri(), stats.tri_pop(), stats.t3()
        assert builds == [energy.difference_table(A).support_size()] and moduli == [q]
        builds.clear(), moduli.clear()


def test_prime_tables_built_once_per_prime_per_run(monkeypatch):
    # inputs of one prime share one build of F_p^*'s tables (the dlog table
    # among them) within a run_suite, and a second run builds them again
    built = []
    real = subgroups._build_tables

    def build(p):
        built.append(p)
        return real(p)

    monkeypatch.setattr(subgroups, "_build_tables", build)
    inputs = [_stats(f"subgroup(p={p},t={t})") for p, t in ((1009, 24), (1009, 36), (1013, 44))]
    first = run_suite(check_ids("all"), inputs)
    assert all(r.ok for r in first)
    assert built == [1009, 1013]
    assert energy._shift_rows(inputs[0].A).order == 24  # the shift rows read the dlog table
    built.clear()
    second = run_suite(check_ids("all"), inputs)
    assert built == [1009, 1013]
    assert [(r.check_id, r.lhs, r.rhs) for r in second] == [(r.check_id, r.lhs, r.rhs) for r in first]


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
