"""The check registry.

Each check computes a (lhs, rhs, ratio, ok) tuple from one prepared input.
Exact checks compare counts in integer or rational arithmetic and fail loudly;
trend checks only record the ratio of the two sides, which downstream tooling
tracks across families (the ratio must stay finite and positive, nothing
more).  Numeric checks (eigenvalues, exponential sums) assert with a relative
tolerance of 1e-6 and are grouped with the exact ones since they verify
identities, not trends.

Conventions used throughout:

* difference/sum/product sets are counted with 0 included (they are derived
  sets; only input sets exclude 0);
* collinear triple counts are ordered triples of pairwise-distinct points,
  and the with-repeats variant (adding 3N(N-1) + N) is used exactly where a
  squared count identity needs it;
* M denotes |AA| / |A|;
* logarithms are base 2.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .. import energy, incidence, setops, spectral, subgroups
from ..errors import CrossCheckMismatch
from ..setops import GSet
from . import rect as rect_mod
from .base import CheckSpec, SetStats, register

NUMERIC_TOL = 1e-6
INVARIANT_PAIRS = 500_000  # lemma18_invariant's Q has |Q| t <= this, the generic route's pairs


# -- small helpers -------------------------------------------------------------


def _m(stats: SetStats) -> float:
    return float(stats.mult_doubling())


def _half_delta(stats: SetStats) -> int:
    return max(1, math.ceil(stats.max_r() / 2))


def _modp(stats: SetStats) -> bool:
    return stats.A.kind == setops.MODP


def _a_over_aa(stats: SetStats) -> GSet:
    aa = stats.combined("*")
    if aa is stats.A:  # AA = A, as for a subgroup, so A/AA = A/A
        return stats.combined("/")
    return stats.memo("a_over_aa", lambda: setops.combined_set(stats.A, aa, "/"))


def _grid_sizes_ok(stats: SetStats) -> bool:
    cap = 40 if _modp(stats) else 120
    if stats.support("*") > cap or stats.support("/") > cap:
        return False
    return _a_over_aa(stats).size <= cap


# -- exact identities and inequalities on one set ------------------------------


def _chk_e3_identity(stats: SetStats):
    # sum_d E(A, A ^ (A+d)) from M[i, j], the index of a_i - a_j: a_j is in A ^ (A+d) iff
    # d = a_j - a_l for one l, so the keys (M[j, l], M[i, j]) count r_{A - (A ^ (A+d))}.
    A = stats.A
    table = stats.table()
    direct = stats.energy3()
    diffs = setops._difference_matrix(A)
    keys, M = np.unique(diffs, return_inverse=True)  # keys on the table's scale
    M = M.reshape(diffs.shape).astype(np.int32 if keys.size < 1 << 15 else np.int64)  # keys < |D|^2
    sizes = np.bincount(M.ravel())  # |A ^ (A+d)|
    if not (np.array_equal(keys, table.keys) and np.array_equal(sizes, table.counts)):
        bad = {*zip(keys.tolist(), sizes.tolist())} ^ {
            *zip(table.keys.tolist(), table.counts.tolist())}
        raise CrossCheckMismatch(f"|A ^ (A+d)| != r(d) at d = {min(bad)[0]} on the int view")
    _, counts = np.unique(M[:, :, None] * keys.size + M.T[:, None, :], return_counts=True)
    via_slices = int((counts * counts).sum())
    ok = direct == via_slices
    # r_{A+A} from the generic pair kernel, not subgroups.pair_table: a second
    # route to E(A), independent of the one that built the difference table
    if ok and setops.combine(A, A, "+").moment(2) != stats.energy():
        raise CrossCheckMismatch("E from r_{A+A} disagrees with E from r_{A-A}")
    if ok and A.size <= 14:
        ints, p = A.ints, A.p  # mod p, a - d lies in (-p, p)
        members = set(ints) if p is None else {w for v in ints for w in (v, v - p)}
        slices = [frozenset(v for v in ints if v - d in members) for d in table.keys.tolist()]
        ok = direct == sum(len(s & s2) ** 2 for s in slices for s2 in slices)
    return direct, via_slices, 1.0, ok


def _chk_cs_support(stats: SetStats):
    n4 = stats.size**4
    e = stats.energy()
    diff_side = stats.support("-") * e
    sum_side = stats.support("+") * e
    ok = n4 <= diff_side and n4 <= sum_side
    return n4, diff_side, float(Fraction(n4, diff_side)), ok


def _chk_cor1_lower(stats: SetStats):
    lhs = stats.size**6
    rhs = stats.energy3() * stats.tri()
    return lhs, rhs, float(Fraction(lhs, rhs)), lhs <= rhs


def _chk_lemma_key(stats: SetStats):
    lhs = stats.size**6
    rhs = 4 * stats.energy3() * stats.tri_pop()
    return lhs, rhs, float(Fraction(lhs, rhs)), lhs <= rhs


def _chk_popular_pigeonhole(stats: SetStats):
    lhs = stats.size**2
    rhs = 2 * stats.pop().mass
    return lhs, rhs, float(Fraction(lhs, rhs)), lhs <= rhs


def _chk_dyadic_level(stats: SetStats):
    lvl = stats.dyadic()
    nclasses = len({c.bit_length() for c in stats.table().profile[0]})
    lhs = stats.energy()
    rhs = lvl.mass * nclasses
    ok = lhs <= rhs and nclasses <= 2 * max(1, math.ceil(stats.log2())) + 2
    return lhs, rhs, float(Fraction(lhs, rhs)), ok


def _chk_lemma_t3_lines(stats: SetStats):
    A = stats.A
    aa = stats.combined("*")
    a_over_aa = _a_over_aa(stats)
    aa_over_a = a_over_aa if aa is A else setops.combined_set(aa, A, "/")
    if a_over_aa.size != aa_over_a.size:
        raise CrossCheckMismatch("|A/AA| and |AA/A| must agree (x -> 1/x)")
    quot = stats.combined("/")
    lhs = (stats.t3() * stats.size**2) ** 2

    seen: dict = {}  # the four grids coincide for subgroups (Gamma Gamma = Gamma)

    def trip(B: GSet) -> int:
        if B not in seen:
            seen[B] = incidence.collinear_triples(B, include_degenerate=True)
        return seen[B]

    branch1 = a_over_aa.size**2 * aa.size**2 * trip(a_over_aa) * trip(aa)
    branch2 = aa_over_a.size**2 * quot.size**2 * trip(aa_over_a) * trip(quot)
    rhs = min(branch1, branch2)
    return lhs, rhs, float(Fraction(lhs, rhs)), lhs <= branch1 and lhs <= branch2


def _chk_lemma_spectral_final(stats: SetStats):
    e3 = stats.energy3()
    sig = stats.sigma()
    n6 = stats.size**6
    top = stats.max_r()
    worst = None
    ok = True
    for delta in sorted({1, _half_delta(stats), top}):
        eprime = energy.tail_decompose(stats.A, delta)[0]
        lhs = eprime**6
        rhs = n6 * e3 * delta**2 * sig
        ok = ok and lhs <= rhs
        if worst is None or Fraction(lhs, rhs) > Fraction(worst[0], worst[1]):
            worst = (lhs, rhs)
    return worst[0], worst[1], float(Fraction(worst[0], worst[1])), ok


def _chk_spectral_chain(stats: SetStats):
    ok = True
    worst = None
    for delta in sorted({_half_delta(stats), stats.max_r()}):
        chain = spectral.spectral_chain(stats.A, delta=delta, sigma=stats.sigma())
        ok = ok and chain.ok
        if worst is None or Fraction(chain.lhs_exact, chain.rhs_exact) > worst[0]:
            worst = (Fraction(chain.lhs_exact, chain.rhs_exact), chain)
    chain = worst[1]
    return (chain.lhs_exact, chain.rhs_exact,
            float(Fraction(chain.lhs_exact, chain.rhs_exact)), ok)


def _chk_psd_witness(stats: SetStats):
    sweep = spectral.psd_sweep(stats.A)  # lhs: the worst quadratic, rhs: the worst route gap
    return (sweep.min_quadratic, sweep.max_route_gap, 1.0, sweep.ok)


def _chk_trace_routes(stats: SetStats):
    direct, comb = spectral.trace_m2r(stats.A)
    if abs(direct - comb) > NUMERIC_TOL * max(1.0, abs(direct), abs(comb)):
        raise CrossCheckMismatch(f"trace routes disagree: {direct} vs {comb}")
    bound = math.sqrt(stats.energy3() * stats.sigma())
    ok = comb <= bound * (1.0 + NUMERIC_TOL)
    return comb, bound, comb / bound, ok


def _chk_holder_rem4(stats: SetStats):
    lhs = stats.energy() ** 3
    rhs = stats.energy3() * stats.energy32() ** 2
    ok = lhs <= rhs * (1.0 + NUMERIC_TOL)
    return lhs, rhs, lhs / rhs, ok


def _cover(stats: SetStats) -> rect_mod.RectCover:
    return stats.memo("cover", lambda: rect_mod.rect_decompose(stats.A))


def _chk_rect_structure(stats: SetStats):
    cover = _cover(stats)
    ok = 2 * cover.rich_points >= cover.mass
    for q_i, size_i in cover.class_loads:
        ok = ok and q_i * size_i <= 2 * cover.mass
    if cover.case == "case1":
        ok = ok and cover.q >= 1 and cover.q * cover.Aprime.size <= cover.mass
        ok = ok and cover.q <= cover.Adoubleprime.size
    return (cover.rich_points, cover.mass,
            float(Fraction(cover.rich_points, cover.mass)), ok)


def _sum_stats(stats: SetStats) -> rect_mod.SumStats:
    fits = rect_mod.RECT_MIN_SIZE <= stats.size <= rect_mod.RECT_SET_CAP
    return stats.memo("sum_stats", lambda: rect_mod.sum_construction_stats(
        stats.A, cover=_cover(stats) if fits else None))


def _chk_sum_stats(stats: SetStats):
    st = _sum_stats(stats)
    lhs = st.energy_times * st.ratio_count
    rhs = st.pair_mass**2
    return lhs, rhs, float(Fraction(lhs, rhs)), lhs >= rhs


def _chk_thm21_chain(stats: SetStats):
    # Per slope class, |Q| <= min(|S|^2, |P| |S|) gives |Q|^3 <= |S|^4 |P|^2
    # exactly; the used lines then witness that many distinct triples in SxS.
    st = _sum_stats(stats)
    s_set = stats.combined("+")
    grid_triples = incidence.collinear_triples(s_set)
    ok = st.triples_lower <= grid_triples
    ok = ok and max(st.q_sizes.values(), default=0) ** 3 <= st.line_bound
    lhs = st.sum_q_cubes
    rhs = st.ratio_count * st.line_bound
    return lhs, rhs, float(Fraction(lhs, max(1, rhs))), ok and lhs <= rhs


def _prop7_parts(stats: SetStats):
    # count4 on A's integer view (scale s): AA - AA on scale s^2, D - D on scale s,
    # so r_{D-D}(S / x) is read at key S / x when x divides S; mod p at S * x^-1.
    def build():
        delta = stats.pop().delta
        ints, scale = stats.A.int_view()
        p = stats.A.p
        taa = subgroups.pair_table(stats.combined("*"), "-")  # r_{AA-AA}
        lift = scale * scale // taa.scale
        heavy = taa.keys[taa.counts >= -(-delta.numerator // delta.denominator)]  # r >= delta
        heavy = setops._int_array([k * lift for k in heavy.tolist()])[:, None]
        count3 = stats.tri_pop()
        dset = stats.table().support_set()
        r_dd = subgroups.pair_table(dset, "-")
        if p is None:  # S / x on scale s is key (S / x) / lift_dd of r_dd, where x divides S
            lift_dd = scale // r_dd.scale
            divides = (heavy % setops._int_array([x * lift_dd for x in ints])) == 0
            quotients = (heavy // setops._int_array(list(ints)))[divides] // lift_dd
        else:
            quotients = heavy * setops._inverses(ints, p) % p
        at = r_dd.index(quotients.ravel())
        count4 = int(r_dd.counts[at[at >= 0]].sum())
        return delta, heavy.size, stats.combined("*").size, count3, count4

    return stats.memo("prop7", build)


def _chk_prop7(stats: SetStats):
    delta, s_size, aa_size, count3, count4 = _prop7_parts(stats)
    ok = s_size * delta <= aa_size**2 and count4 >= stats.size * count3
    lhs = stats.size * count3
    return lhs, count4, float(Fraction(lhs, max(1, count4))), ok


def _chk_prop7_stbd(stats: SetStats):
    delta, _, _, _, count4 = _prop7_parts(stats)
    bound = (stats.size**2 * _m(stats) ** (4 / 3)
             * stats.support("-") ** (4 / 3) * float(delta) ** (-2 / 3))
    return count4, bound, count4 / bound, True


# -- trend ratios on one set ---------------------------------------------------


def _chk_elekes(stats: SetStats):
    lhs = stats.support("+") ** 2 * stats.support("*") ** 2
    rhs = stats.size**5
    return lhs, rhs, float(Fraction(lhs, rhs)), True


def _chk_thm_main_diff(stats: SetStats):
    lhs = stats.support("-") ** 3 * stats.support("*") ** 5 * math.sqrt(stats.log2())
    rhs = stats.size**10
    return lhs, rhs, lhs / rhs, True


def _chk_sh_record(stats: SetStats):
    lhs = stats.support("-") ** 6 * stats.support("*") ** 13
    rhs = stats.size**23
    return lhs, rhs, float(Fraction(lhs, rhs)), True


def _chk_thm_energy(stats: SetStats):
    lhs = stats.energy()
    rhs = (_m(stats) ** (8 / 5) * stats.size ** (49 / 20) * stats.log2() ** (1 / 5))
    return lhs, rhs, lhs / rhs, True


def _chk_cor6_ratio(stats: SetStats):
    lhs = stats.tri() * _m(stats) ** 2 * stats.log2()
    rhs = stats.size**3
    return lhs, rhs, lhs / rhs, True


def _chk_cor11_t3(stats: SetStats):
    lhs = stats.t3()
    rhs = _m(stats) ** 12 * stats.size**4 * stats.log2()
    return lhs, rhs, lhs / rhs, True


def _chk_sig_estimate(stats: SetStats):
    lhs = stats.sigma()
    rhs = stats.size ** (23 / 5)
    return lhs, rhs, lhs / rhs, True


def _chk_trip_bound(stats: SetStats):
    lhs = incidence.collinear_triples(stats.A)
    rhs = stats.size**4 * stats.log2()
    return lhs, rhs, lhs / rhs, True


def _chk_lemma5_b1(stats: SetStats):
    lhs = stats.energy3()
    rhs = _m(stats) ** 2 * stats.size**3 * stats.log2()
    return lhs, rhs, lhs / rhs, True


def _chk_lemma5_b31(stats: SetStats):
    delta = _half_delta(stats)
    _, _, heavy = energy.tail_decompose(stats.A, delta)
    lhs = heavy * delta**3
    rhs = _m(stats) ** 2 * stats.size**3
    return lhs, rhs, lhs / rhs, True


def _chk_lemma5_b3(stats: SetStats):
    delta = _half_delta(stats)
    _, e_high, _ = energy.tail_decompose(stats.A, delta)
    lhs = e_high * delta
    rhs = _m(stats) ** 2 * stats.size**3
    return lhs, rhs, lhs / rhs, True


def _chk_thm21_sum_est(stats: SetStats):
    lhs = stats.support("+") ** 10 * stats.support("*") ** 17
    rhs = stats.size**33
    return lhs, rhs, float(Fraction(lhs, rhs)), True


# -- subgroup checks -----------------------------------------------------------


def _chk_window_dual(stats: SetStats):
    ctx = stats.ctx
    radii = sorted({1, 2, max(1, ctx.p // 10)})
    radii = [h for h in radii if h <= (ctx.p - 1) // 2]
    total = 0
    for h in radii:
        total, _ = subgroups.window_counts(ctx, h)  # raises if routes disagree
    h = radii[-1]
    rhs = 4 * h * h
    return total, rhs, float(Fraction(total, rhs)), total <= rhs


def _chk_orthogonality_fourth(stats: SetStats):
    rep = subgroups.char_moment_report(stats.ctx)  # raises unless lhs = rhs to MOMENT_TOL
    lhs = rep.t * rep.fourth_moment
    rhs = rep.p * rep.energy - rep.t**4
    return lhs, rhs, rep.fourth_moment / ((rep.p / rep.t) * rep.energy), rep.strict_bound_ok


def _chk_parseval_gamma(stats: SetStats):
    rep = subgroups.char_moment_report(stats.ctx)
    lhs = rep.t * rep.second_moment
    rhs = rep.t * (rep.p - rep.t)
    return lhs, rhs, lhs / rhs, True  # char_moment_report raised unless lhs = rhs to MOMENT_TOL


def _chk_modp2_t3(stats: SetStats):
    _, table = subgroups.mod_p2_subgroup(stats.ctx)  # raises if T_k grows
    lifted, base = table[3]
    return lifted, base, float(Fraction(lifted, base)), lifted <= base


def _chk_ks_margin(stats: SetStats):
    rep = subgroups.ks_criterion(stats.ctx, 1)
    return rep.value, rep.threshold, rep.value / rep.threshold, True


def _chk_thm20_gap(stats: SetStats):
    rep = subgroups.gap_H(stats.ctx)
    rhs = stats.ctx.p ** (437 / 480)
    return rep.gap, rhs, rep.gap / rhs, True


def _chk_subgr_energy(stats: SetStats):
    ctx = stats.ctx
    lhs = stats.energy()  # E(Gamma): the input set is ctx.gamma_set()
    rhs = ctx.t ** (49 / 20) * math.log2(ctx.t) ** (1 / 5)
    return lhs, rhs, lhs / rhs, True


def _chk_lemma5_b2(stats: SetStats):
    lhs = stats.energy3()
    rhs = stats.ctx.t**3 * math.log2(stats.ctx.t)
    return lhs, rhs, lhs / rhs, True


def _chk_subgr_t3_bound(stats: SetStats):
    ctx = stats.ctx
    lhs = stats.t3()  # T_3(Gamma): the input set is ctx.gamma_set()
    rhs = ctx.t**4 * math.log2(ctx.t)
    return lhs, rhs, lhs / rhs, True


def _chk_thm17_ranges(stats: SetStats):
    ctx = stats.ctx
    t, p = ctx.t, ctx.p
    grid_triples = incidence.collinear_triples(stats.A)
    if t >= p ** (2 / 3):
        stratum = math.sqrt(p) * t**3.5
    elif t >= math.sqrt(p) * math.log2(p):
        stratum = t**5 / math.sqrt(p)
    else:
        stratum = t**4 * math.log2(t)
    rhs = t**6 / p + stratum
    return grid_triples, rhs, grid_triples / rhs, True


def _chk_thm19_energy(stats: SetStats):
    ctx = stats.ctx
    lt, lp = math.log(ctx.t), math.log(ctx.p)
    main = max((104 * lt - 3 * lp) / 40, (68 * lt - 5 * lp) / 24)
    rhs = math.exp(main) * math.log2(ctx.t) ** 0.25
    lhs = stats.energy()
    return lhs, rhs, lhs / rhs, True


def _chk_lemma18_invariant(stats: SetStats):
    ctx = stats.ctx
    t, p = ctx.t, ctx.p
    cosets = max(1, min(ctx.cosets, INVARIANT_PAIRS // (t * t)))
    lhs, size = subgroups.coset_union_energy(ctx, range(cosets))  # E(Q, Gamma), |Q|
    rhs = t**2 * size**2 / p + t * size**1.5
    return lhs, rhs, lhs / rhs, True


def _chk_subgr_int_bound(stats: SetStats):
    ctx = stats.ctx
    t, p = ctx.t, ctx.p
    h = max(1, round(p ** (43 / 480)))
    h = min(h, (p - 1) // 2)
    total, _ = subgroups.window_counts(ctx, h)
    rhs = (h * t ** (13 / 84) * p ** (-1 / 14)
           + h**2 * t ** (1 / 6) * p ** (-1 / 6))
    return total, rhs, total / rhs, True


# -- registry ------------------------------------------------------------------


def _needs_sigma(stats: SetStats) -> bool:
    return stats.support("-") <= energy.SIGMA_SUPPORT_CAP


def _needs_prop7(stats: SetStats) -> bool:
    # The popular threshold can fall below 1, making S all of AA - AA, so
    # the count4 loop is |AA - AA| * |A| integer divisions.
    if stats.support("-") > 1200 or stats.support("*") > 600:
        return False
    # |AA - AA| is at least the number of differences of AA's first rows with AA
    aa, cap = stats.combined("*"), 20_000
    head = GSet(aa.ints[:2 * cap // aa.size + 1], aa.scale, aa.p)
    if head.size < aa.size and setops.support_size(head, aa, "-") > cap:
        return False
    return subgroups.pair_table(aa, "-").support_size() <= cap


def _needs_sum_stats(stats: SetStats) -> bool:
    # Subgroup slices satisfy A'_lambda = Gamma for every lambda, so the
    # construction costs ~t^4 there; generic sets have near-singleton slices.
    if _modp(stats) and stats.size > 32:
        return False
    return stats.support("/") <= rect_mod.RATIO_SET_CAP


def _needs_sum_grid(stats: SetStats) -> bool:
    if not _needs_sum_stats(stats):
        return False
    # The mod-p triple kernel is pure Python, so its grids stay smaller.
    return stats.support("+") <= (36 if _modp(stats) else 66)


def _needs_tiny_gamma(stats: SetStats) -> bool:
    return stats.ctx is not None and stats.ctx.t <= 40


_SET_CHECKS = [
    ("e3_identity", True, _chk_e3_identity, lambda s: s.size <= 64),
    ("cs_support", True, _chk_cs_support, None),
    ("cor1_lower", True, _chk_cor1_lower, None),
    ("lemma_key", True, _chk_lemma_key, None),
    ("popular_pigeonhole", True, _chk_popular_pigeonhole, None),
    ("dyadic_level", True, _chk_dyadic_level, None),
    ("lemma_t3_lines", True, _chk_lemma_t3_lines, _grid_sizes_ok),
    ("lemma_spectral_final", True, _chk_lemma_spectral_final, _needs_sigma),
    ("spectral_chain", True, _chk_spectral_chain, lambda s: s.size <= 64 and _needs_sigma(s)),
    ("psd_witness", True, _chk_psd_witness, lambda s: s.size <= 128),
    ("trace_routes", True, _chk_trace_routes,
     lambda s: s.size <= spectral.TRACE_CAP and _needs_sigma(s)),
    ("holder_rem4", True, _chk_holder_rem4, None),
    ("rect_structure", True, _chk_rect_structure,
     lambda s: rect_mod.RECT_MIN_SIZE <= s.size <= rect_mod.RECT_SET_CAP),
    ("sum_stats", True, _chk_sum_stats, _needs_sum_stats),
    ("thm21_chain", True, _chk_thm21_chain, _needs_sum_grid),
    ("prop7", True, _chk_prop7, _needs_prop7),
    ("elekes", False, _chk_elekes, None),
    ("thm_main_diff", False, _chk_thm_main_diff, None),
    ("sh_record", False, _chk_sh_record, None),
    ("thm_energy", False, _chk_thm_energy, None),
    ("cor6_ratio", False, _chk_cor6_ratio, None),
    ("cor11_t3", False, _chk_cor11_t3, lambda s: s.size <= 64),
    ("sig_estimate", False, _chk_sig_estimate, _needs_sigma),
    # a full-grid triple count, so the series stops at n = 32
    ("trip_bound", False, _chk_trip_bound, lambda s: s.size <= 32),
    ("lemma5_b1", False, _chk_lemma5_b1, None),
    ("lemma5_b31", False, _chk_lemma5_b31, None),
    ("lemma5_b3", False, _chk_lemma5_b3, None),
    ("thm21_sum_est", False, _chk_thm21_sum_est, None),
    ("prop7_stbd", False, _chk_prop7_stbd, _needs_prop7),
]

_SUBGROUP_CHECKS = [
    # the pair route costs 4h^2 ops at h = p/10
    ("window_dual", True, _chk_window_dual, lambda s: s.ctx.p <= 5000),
    ("orthogonality_fourth", True, _chk_orthogonality_fourth, lambda s: s.ctx.p <= 2_000_000),
    ("parseval_gamma", True, _chk_parseval_gamma, lambda s: s.ctx.p <= 2_000_000),
    ("modp2_t3", True, _chk_modp2_t3, lambda s: s.ctx.t <= subgroups.LIFT_T_CAP),
    ("ks_margin", False, _chk_ks_margin, lambda s: s.ctx.p <= 2_000_000),
    ("thm20_gap", False, _chk_thm20_gap, lambda s: s.ctx.p <= 1_000_000),
    ("subgr_energy", False, _chk_subgr_energy, lambda s: s.ctx.t >= 2 and s.ctx.t**2 <= s.ctx.p),
    ("lemma5_b2", False, _chk_lemma5_b2, lambda s: s.ctx.t >= 2),
    ("subgr_t3_bound", False, _chk_subgr_t3_bound,
     lambda s: s.ctx.t >= 2 and s.ctx.t <= 1024 and s.ctx.p <= 2_000_000),
    ("thm17_ranges", False, _chk_thm17_ranges, lambda s: s.ctx.t >= 2 and _needs_tiny_gamma(s)),
    ("thm19_energy", False, _chk_thm19_energy,
     lambda s: 4 <= s.ctx.t <= 1024 and s.ctx.t**2 >= s.ctx.p
     and s.ctx.t**3 <= s.ctx.p**2),
    ("lemma18_invariant", False, _chk_lemma18_invariant,
     lambda s: s.ctx.t >= 2 and s.ctx.t**3 <= s.ctx.p**2 and s.ctx.p <= 2_000_000),
    ("subgr_int_bound", False, _chk_subgr_int_bound,
     lambda s: s.ctx.t >= 2 and s.ctx.t**2 >= s.ctx.p),
]

for _cid, _exact, _fn, _needs in _SET_CHECKS:
    register(CheckSpec(_cid, "set", _exact, _fn, _needs))
for _cid, _exact, _fn, _needs in _SUBGROUP_CHECKS:
    register(CheckSpec(_cid, "subgroup", _exact, _fn, _needs))
