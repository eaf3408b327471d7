import math
import random

import numpy as np
import pytest

import oracles
from sumprodlab import energy, setops, subgroups
from sumprodlab.errors import (BadSpec, CrossCheckMismatch, IndexOutOfRange, NotPrime,
                               OrderDoesNotDivide, TooLarge)
from sumprodlab.harness import subgroup_stats
from sumprodlab.setops import gset_modp
from sumprodlab.subgroups import (char_moment_report, gap_H, ks_criterion, lifted_context,
                                  mod_p2_subgroup, scan_gaps, subgroup_context, tk_cyclic,
                                  window_counts)


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(2, 40):
        assert subgroups.is_prime(n) == (n in primes)
    assert subgroups.is_prime(1_000_003)
    assert not subgroups.is_prime(1_000_001)  # 101 * 9901


def test_divisors_and_factorize():
    assert subgroups.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert subgroups.factorize(360) == {2: 3, 3: 2, 5: 1}


def test_primitive_root_has_full_order():
    for p in (7, 11, 13, 101):
        g = subgroups.primitive_root(p)
        seen = {pow(g, k, p) for k in range(p - 1)}
        assert len(seen) == p - 1


def test_subgroup_context_worked_example():
    ctx = subgroup_context(7, 3)
    assert ctx.gamma == (1, 2, 4)
    assert ctx.cosets == 2
    assert energy.energy_pair(ctx.gamma_set()) == 15
    assert oracles.energy([1, 2, 4], p=7) == 15


def test_subgroup_context_rejects_bad_input():
    with pytest.raises(NotPrime):
        subgroup_context(9, 2)
    with pytest.raises(NotPrime):
        subgroup_context(2, 1)
    with pytest.raises(OrderDoesNotDivide):
        subgroup_context(7, 4)


def test_gap_worked_example():
    ctx = subgroup_context(7, 3)
    rep = gap_H(ctx)
    assert rep.gap == 3
    assert oracles.coset_gap(7, ctx.gamma) == 3


def test_gap_matches_oracle_across_small_primes():
    # the witness is the first longest run in (coset, member) order; past p = 19
    # several runs reach the longest length, so the tie-breaking is exercised
    tied = 0
    for p in (5, 7, 11, 13, 17, 19, 31, 37, 61, 101):
        for t in subgroups.divisors(p - 1):
            if t < 2 or t == p - 1:
                continue
            ctx = subgroup_context(p, t)
            rep = gap_H(ctx)
            runs = oracles.coset_runs(p, ctx.g, t)
            longest = max(run[0] for run in runs)
            assert rep.gap == longest == oracles.coset_gap(p, ctx.gamma), (p, t)
            assert (rep.coset, rep.start) == next(r[1:] for r in runs if r[0] == longest), (p, t)
            tied += sum(run[0] == longest for run in runs) > 1
    assert tied > 10


def test_gap_witness_is_rechecked(monkeypatch):
    # buckets that forget two members of Gamma make a run through them win
    real = subgroups._bucket_positions

    def lossy(dlog, cosets):
        pos, coset = real(dlog, cosets)
        keep = np.ones(pos.size, dtype=bool)
        keep[np.flatnonzero(coset == 0)[1:]] = False  # coset 0 keeps its first member only
        return pos[keep], coset[keep]

    monkeypatch.setattr(subgroups, "_bucket_positions", lossy)
    with pytest.raises(CrossCheckMismatch):
        gap_H(subgroup_context(13, 3))


def test_gap_full_group_is_one():
    # t = p - 1: the only missing residue is 0, runs have length 1
    ctx = subgroup_context(11, 10)
    assert gap_H(ctx).gap == 1


def test_scan_gaps_agrees_with_gap_H():
    rows = list(scan_gaps([7, 11, 13, 101]))
    assert rows  # every divisor of p - 1 shows up
    for p, t, gap in rows:
        assert gap == gap_H(subgroup_context(p, t)).gap, (p, t)


def test_gap_H_agrees_with_scan_gaps_on_both_label_sorts():
    # up to 2^16 cosets gap_H sorts uint16 labels; p = 131101, t = 2 has 65,550
    for p, t, narrow in ((1009, 24, True), (131101, 2, False)):
        ctx = subgroup_context(p, t)
        assert (ctx.cosets <= 1 << 16) == narrow
        (row,) = scan_gaps([p], t_filter=lambda _p, u: u == t)
        assert row == (p, t, gap_H(ctx).gap)


def test_window_counts_worked_example():
    ctx = subgroup_context(7, 3)
    total, counts = window_counts(ctx, 2)
    assert total == oracles.window_total(7, ctx.gamma, 2)
    assert sum(counts) == 4  # 2h window elements, one coset each
    assert total <= 4 * 2 * 2


def test_window_counts_frozen_example():
    # N(Gamma, h) = 8 for the order-3 subgroup of F_7 at h = 2
    ctx = subgroup_context(7, 3)
    total, counts = window_counts(ctx, 2)
    assert total == 8
    assert sorted(counts) == [2, 2]


def test_window_radius_guard():
    ctx = subgroup_context(7, 3)
    with pytest.raises(BadSpec):
        window_counts(ctx, 4)
    with pytest.raises(BadSpec):
        window_counts(ctx, 0)


def test_char_sums_match_direct_exp_bitwise():
    # the phases come from the unit-root table, gathered from the same residue
    # matrix and summed in the same order as one np.exp per phase
    for p in (7, 11, 13, 101, 1009):
        for t in subgroups.divisors(p - 1):
            ctx = subgroup_context(p, t)
            direct = oracles.char_sums(p, ctx.g, ctx.gamma)
            assert subgroups.char_sums(ctx).tobytes() == direct.tobytes(), (p, t)


def test_char_sums_moment_identities():
    for p, t in ((7, 3), (13, 4), (101, 20)):
        ctx = subgroup_context(p, t)
        rep = char_moment_report(ctx)
        assert rep.parseval_ok
        assert rep.fourth_ok
        assert rep.strict_bound_ok
        assert t * rep.second_moment == pytest.approx(t * (p - t), rel=1e-9)


def test_char_sums_fourth_moment_worked_example():
    # p = 7, t = 3: sum |S_j|^4 = 8 < 35 = (p/t) E - t^3/...; table is tiny
    ctx = subgroup_context(7, 3)
    rep = char_moment_report(ctx)
    assert rep.fourth_moment == pytest.approx(8.0, abs=1e-6)
    assert (7 / 3) * rep.energy == pytest.approx(35.0, abs=1e-9)


def test_full_group_char_sums_are_minus_one():
    # t = p - 1: each S_j = -1, so t sum|S|^2 = t (p - t)
    ctx = subgroup_context(13, 12)
    S = subgroups.char_sums(ctx)
    assert np.allclose(np.abs(S), 1.0, atol=1e-9)


def test_ks_criterion_worked_example():
    ctx = subgroup_context(7, 3)
    rep = ks_criterion(ctx, 1)
    assert rep.value == pytest.approx(2 * math.sqrt(2), rel=1e-9)
    assert rep.threshold == 1.5
    assert not rep.ok


@pytest.mark.parametrize("p,t", [(7, 3), (13, 4), (31, 5), (61, 6), (101, 10), (1009, 7)])
def test_ks_criterion_matches_every_shift(p, t):
    # at h = 1, N has at most two nonzero cosets, so summing over its
    # support equals the sum over every coset bit for bit
    ctx = subgroup_context(p, t)
    S = np.abs(subgroups.char_sums(ctx))

    def every_shift(h):
        Nj = np.asarray(window_counts(ctx, h)[1], dtype=np.float64)
        return max(float((Nj * np.roll(S, -k)).sum()) for k in range(ctx.cosets))

    assert ks_criterion(ctx, 1).value == every_shift(1)
    assert ks_criterion(ctx, 3).value == pytest.approx(every_shift(3), rel=1e-12)


def test_lift_reduces_onto_base():
    lift = lifted_context(subgroup_context(7, 3))
    assert sorted(x % 7 for x in lift.gamma2) == [1, 2, 4]
    assert len(lift.gamma2) == 3
    for x in lift.gamma2:
        assert pow(x, 3, 49) == 1


def test_tk_cyclic_matches_dict_route():
    for p, t in ((7, 3), (13, 4)):
        ctx = subgroup_context(p, t)
        for k in (2, 3):
            assert tk_cyclic(ctx.gamma, p, k) == energy.t_k(ctx.gamma_set(), k)
    lift = lifted_context(subgroup_context(7, 3))
    for k in (2, 3):
        assert tk_cyclic(lift.gamma2, 49, k) == energy.t_k(gset_modp(lift.gamma2, 49), k)


def test_mod_p2_t3_never_grows():
    for p, t in ((3, 2), (5, 4), (7, 3), (11, 5)):
        ctx = subgroup_context(p, t)
        lift, table = mod_p2_subgroup(ctx)
        for k, (up, down) in table.items():
            assert up <= down, (p, t, k)
        # T_3 mod p read the shift rows kept on the context's own Gamma
        assert lift.base is ctx and "_shift_rows" in ctx.gamma_set().__dict__


def test_mod_p2_worked_example():
    _, table = mod_p2_subgroup(subgroup_context(3, 2))
    up, down = table[3]
    assert up == 20 and down == 22


def test_mod_p2_guard():
    with pytest.raises(TooLarge):
        mod_p2_subgroup(subgroup_context(1009, 1008))


def test_gamma_energy_matches_generic_counter():
    # E(Gamma) is read off the one set a context keeps, which is the input set
    for p, t in ((7, 3), (11, 5), (101, 25)):
        stats = subgroup_stats(p, t)
        ctx = stats.ctx
        assert stats.A is ctx.gamma_set() is ctx.gamma_set()
        want = sum(c * c for c in oracles.diff_counts(ctx.gamma, p).values())
        assert char_moment_report(ctx).energy == stats.energy() == want


SMALL_PRIMES = [p for p in range(3, 200) if subgroups.is_prime(p)]


def _same_table(a, b) -> bool:
    return (a.keys.tolist(), a.counts.tolist(), a.total, a.p, a.scale) == (
        b.keys.tolist(), b.counts.tolist(), b.total, b.p, b.scale)


def test_orbit_tables_match_pair_kernel():
    # every subgroup of F_p^* for p < 200: t = 1, t = p - 1, and odd t, where -1 is not in Gamma
    for p in SMALL_PRIMES:
        for t in subgroups.divisors(p - 1):
            G = subgroup_context(p, t).gamma_set()
            gamma = np.array(G.ints, dtype=np.int64)
            for op in "+-*":
                assert _same_table(subgroups._orbit_table(gamma, p, op), setops.combine(G, G, op))
                # the kept route is taken exactly where the pair kernel goes dense
                assert (subgroups.orbit_table(G, op) is None) == (t * t < p)
            assert subgroups.orbit_table(G, "/") is None
            if t * t >= p:
                assert _same_table(energy.difference_table(G), setops.combine(G, G, "-"))
    # a coset of Gamma other than Gamma, and a set with one element swapped, are no subgroups
    ctx = subgroup_context(101, 20)
    for vals in (oracles.invariant_union(ctx, [1]).ints, ctx.gamma[:-1] + (ctx.g,)):
        assert subgroups.orbit_table(gset_modp(vals, 101), "-") is None


def test_coset_union_energy_matches_pair_kernel():
    rng = random.Random(18)
    for p in (13, 31, 61, 101, 197):
        for t in subgroups.divisors(p - 1):
            ctx = subgroup_context(p, t)
            n = ctx.cosets
            picks = [range(k) for k in range(1, min(n, 6) + 1)]
            picks += [rng.sample(range(n), rng.randint(1, n)) for _ in range(3)]
            for J in picks:
                Q = oracles.invariant_union(ctx, J)
                want = (energy.energy_pair(Q, ctx.gamma_set()), Q.size)
                assert subgroups.coset_union_energy(ctx, J) == want
    with pytest.raises(IndexOutOfRange):
        subgroups.coset_union_energy(subgroup_context(13, 3), [4])
