import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sumprodlab import energy, setops, spectral
from sumprodlab.errors import BadSpec, RestrictNotSubset, TooLarge
from sumprodlab.families import generate_from_string
from sumprodlab.ground import ModP
from sumprodlab.harness import SetStats, subgroup_stats
from sumprodlab.setops import gset_modp, gset_rational
from sumprodlab.subgroups import divisors, prime_tables, subgroup_context

A123 = gset_rational([1, 2, 3])

small_sets = st.lists(st.integers(min_value=-30, max_value=30).filter(lambda x: x != 0),
                      min_size=2, max_size=7, unique=True)


# The {1,2,3} values below were computed once by the brute-force oracles and
# are pinned so a regression in the oracle itself cannot slip through.

def test_energy_worked_example():
    assert energy.energy_pair(A123) == 19
    assert oracles.energy(A123.values()) == 19


def test_energy_modp_worked_example():
    G = gset_modp([1, 2, 4], 7)
    assert energy.energy_pair(G) == 15
    assert oracles.energy(G.values(), p=7) == 15


def test_moment3_worked_example():
    assert energy.moment_energy(A123, 3) == 45
    assert oracles.moment3(A123.values()) == 45


def test_fractional_moment_worked_example():
    got = energy.moment_energy(A123, Fraction(3, 2))
    want = math.fsum(c**1.5 for c in (1, 2, 3, 2, 1))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(12.853007, abs=1e-6)


def test_t3_worked_example():
    assert energy.t_k(A123, 3) == 141
    assert oracles.t_k(A123.values(), 3) == 141
    for k in (1, 4):
        with pytest.raises(BadSpec):
            energy.t_k(A123, k)


def test_t2_equals_energy():
    A = gset_rational([1, 2, 3, 5, 8])
    assert energy.t_k(A, 2) == energy.energy_pair(A)


def test_t2_worked_example_pair_count():
    A = gset_rational([1, 2])
    assert energy.t_k(A, 2) == 6
    assert oracles.t_k([1, 2], 2) == 6


def test_sigma_worked_example():
    assert energy.sigma_sum(A123) == 319
    assert oracles.sigma(A123.values()) == 319
    assert oracles.sigma_tuples(A123.values()) == 319


def test_sigma_smaller_example():
    A = gset_rational([1, 2])
    assert energy.sigma_sum(A) == 32
    assert oracles.sigma_tuples([1, 2]) == 32


@given(small_sets)
@settings(max_examples=40, deadline=None)
def test_energy_matches_oracle(vals):
    A = gset_rational(vals)
    assert energy.energy_pair(A) == oracles.energy([Fraction(v) for v in vals])


@given(small_sets)
@settings(max_examples=15, deadline=None)
def test_sigma_matches_pair_oracle(vals):
    A = gset_rational(vals)
    assert energy.sigma_sum(A) == oracles.sigma([Fraction(v) for v in vals])


@given(small_sets)
@settings(max_examples=20, deadline=None)
def test_triple_count_matches_oracle(vals):
    A = gset_rational(vals)
    assert energy.difference_triple_count(A) == oracles.difference_triples(
        [Fraction(v) for v in vals])


def test_triple_count_worked_example():
    assert energy.difference_triple_count(A123) == 19
    assert 19 >= Fraction(3**6, 45)  # |A|^6 <= E_3 * triples on this set


def test_triple_count_restricted():
    D0 = gset_rational([0], allow_zero=True)
    got = energy.difference_triple_count(A123, restrict=D0)
    # d - 0 in D for every d in D
    assert got == 5
    with pytest.raises(RestrictNotSubset):
        energy.difference_triple_count(A123, restrict=gset_rational([7]))
    with pytest.raises(RestrictNotSubset):  # off the table's scale
        energy.difference_triple_count(A123, restrict=gset_rational([Fraction(1, 7)]))
    with pytest.raises(RestrictNotSubset):  # {1, 2} - {1, 2} mod 7 is {0, 1, 6}
        energy.difference_triple_count(gset_modp([1, 2], 7), restrict=gset_modp([3], 7))
    # fractional set: the restriction's scale (1 or 6) differs from the table's (6)
    half = [Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)]
    for R in ([1], [1, Fraction(-5, 6)]):
        got = energy.difference_triple_count(gset_rational(half), restrict=gset_rational(R))
        assert got == oracles.difference_triples(half, [Fraction(r) for r in R])


GUARD = 1 << 61  # the int64 tier of the shift rows takes keys inside (-GUARD, GUARD)


@st.composite
def shift_row_inputs(draw):
    """(A, values, p, R) for Sigma and the triple count; R is None or a subset of D.

    A holds negative and fractional rationals, residues mod a prime, integers
    k * 2^59 + small whose differences straddle the 2^61 tier guard, or 20-24
    integers whose |D| spans several blocks of the int64 rows.  R is D
    itself, the popular set or a random subset of D.
    """
    shape = draw(st.sampled_from(("fractional", "modp", "straddle", "wide")))
    p = None
    if shape == "modp":
        p = draw(st.sampled_from((3, 7, 13, 101, 1009)))
        elem, sizes = st.integers(1, p - 1), (1, min(9, p - 1))
    elif shape == "fractional":
        elem, sizes = st.fractions(-20, 20, max_denominator=6), (1, 8)
    elif shape == "straddle":
        elem = st.builds(lambda k, off: k * (GUARD >> 2) + off, st.integers(-2, 2), st.integers(-3, 3))
        sizes = (2, 8)
    else:
        elem, sizes = st.integers(-400, 400), (20, 24)
    vals = draw(st.lists(elem.filter(lambda x: x != 0), min_size=sizes[0], max_size=sizes[1],
                         unique=True))
    A = gset_rational(vals) if p is None else gset_modp(vals, p)
    kind = draw(st.sampled_from(("all", "popular", "subset")))
    if kind == "all":
        return A, vals, p, None
    if kind == "popular":
        return A, vals, p, energy.popular_differences(A).members
    dvals = sorted(oracles.diff_counts(vals, p))
    picked = draw(st.lists(st.sampled_from(dvals), min_size=1, max_size=40, unique=True))
    R = gset_rational(picked, allow_zero=True) if p is None else gset_modp(picked, p, allow_zero=True)
    return A, vals, p, R


def _dlog(p, order):
    """The discrete-log table the shift rows label H-cosets with, when H != {1}."""
    return None if p is None or order == 1 else prime_tables(p).dlog


def _rows_at_every_key(A):
    """(keys, counts, columns): the kept orbit rows spread back over every key of
    D, checked against the orbits' sizes and r-masses on the way."""
    rows, table = energy._shift_rows(A), energy.difference_table(A)
    keys, counts = table.keys.tolist(), table.counts.tolist()
    assert keys == sorted(keys)
    # keys share a row exactly when they share an orbit label
    labels = energy._orbit_labels(table.keys, A.p, rows.order, _dlog(A.p, rows.order))
    _, idx = np.unique(labels, return_inverse=True)
    assert (rows.row == idx).all()
    assert np.bincount(idx, minlength=len(rows.size)).tolist() == rows.size
    mass = [0] * len(rows.size)
    for i, c in zip(idx.tolist(), counts):
        mass[i] += c
    assert mass == rows.mass
    return keys, counts, tuple([col[i] for i in idx] for col in (rows.hits, rows.lin, rows.weight))


def _scaled(vals) -> list:
    """Rationals times the lcm of their denominators: T_3 counts the same
    tuples, and the oracle runs on ints."""
    scale = math.lcm(*(Fraction(v).denominator for v in vals))
    return [int(Fraction(v) * scale) for v in vals]


@given(shift_row_inputs())
@settings(max_examples=80, deadline=None)
def test_shift_rows_match_oracles(case):
    A, vals, p, R = case
    assert energy.sigma_sum(A) == oracles.sigma(vals, p)
    assert energy.difference_triple_count(A, R) == oracles.difference_triples(
        vals, None if R is None else R.values(), p)
    if len(vals) <= 8:
        assert energy.t_k(A, 3) == oracles.t_k(_scaled(vals), 3, p)
    # the kept rows are both tiers' columns at every key, wherever the int64 tier may run
    keys, counts, got = _rows_at_every_key(A)
    assert got == energy._rows_bigint(keys, counts, keys, p)
    if -GUARD < keys[0] and keys[-1] < GUARD:
        assert energy._rows_int64(keys, counts, keys, p) == got


def test_shift_rows_tier_guard(monkeypatch):
    tiers = []
    for name in ("_rows_int64", "_rows_bigint"):
        real = getattr(energy, name)

        def counted(*args, real=real, name=name):
            tiers.append(name)
            return real(*args)

        monkeypatch.setattr(energy, name, counted)
    # the largest key of D is top - 1: 2^61 - 1 fits, 2^61 does not
    for top, tier in ((GUARD, "_rows_int64"), (GUARD + 1, "_rows_bigint")):
        vals = [1, 2, top]
        A = gset_rational(vals)
        assert energy.sigma_sum(A) == oracles.sigma(vals)
        assert energy.difference_triple_count(A) == oracles.difference_triples(vals)
        assert energy.t_k(A, 3) == oracles.t_k(vals, 3)
        assert tiers.pop() == tier and not tiers


def test_shift_rows_cost_rule(monkeypatch):
    # mod a prime with H != {1} the cyclotomic rows cost p + rows n^2 against the lookups'
    # rows |D|: subgroup(p=1009,t=42) costs 9,649 against 8,835, and t=48 7,183 against 8,750
    tiers = []
    for name in ("_rows_int64", "_rows_cyclotomic", "_rows_bigint"):
        real = getattr(energy, name)

        def counted(*args, real=real, name=name):
            tiers.append(name)
            return real(*args)

        monkeypatch.setattr(energy, name, counted)
    p = 1009
    for t, tier in ((42, "_rows_int64"), (48, "_rows_cyclotomic")):
        G = subgroup_context(p, t).gamma_set()
        assert energy.sigma_sum(G) == oracles.sigma(G.values(), p)
        assert energy.difference_triple_count(G) == oracles.difference_triples(G.values(), p=p)
        rows, support = energy._shift_rows(G), energy.difference_table(G).support_size()
        n = (p - 1) // rows.order
        assert rows.order == t and (p + len(rows.size) * n * n < len(rows.size) * support) == (
            tier == "_rows_cyclotomic")
        assert tiers.pop() == tier and not tiers


def test_shift_rows_span_blocks():
    A = generate_from_string("rand(n=24,seed=5)")
    n = energy.difference_table(A).support_size()
    step = energy._BLOCK // n
    assert n > 2 * step and n % step  # several blocks, the last one partial
    vals = [int(v) for v in A.values()]
    assert energy.sigma_sum(A) == oracles.sigma(vals)
    assert energy.difference_triple_count(A) == oracles.difference_triples(vals)


MODP_PRIMES = (3, 7, 13, 31, 101, 1009)


@st.composite
def modp_triple_inputs(draw):
    """(modulus, A, R) for the mod-p triple count; R is None or a subset of D.

    A is a subgroup, a union of its cosets, such a union with one residue
    added or taken away, or a random set, mod a prime or mod 7^2 or 101^2.  R
    is D itself, a union of Gamma-orbits of D, a symmetric subset of D, or any
    subset of D.
    """
    shape = draw(st.sampled_from(("subgroup", "cosets", "perturbed", "random", "square")))
    ctx = None
    if shape == "square":
        m = draw(st.sampled_from((7 * 7, 101 * 101)))
    else:
        m = draw(st.sampled_from(MODP_PRIMES))
    if shape in ("subgroup", "cosets", "perturbed"):
        ctx = subgroup_context(m, draw(st.sampled_from(
            [t for t in divisors(m - 1) if t <= 24])))
        k = 1 if shape == "subgroup" else draw(st.integers(1, min(ctx.cosets, 24 // ctx.t or 1)))
        A = oracles.invariant_union(ctx, draw(st.lists(st.integers(0, ctx.cosets - 1),
                                                       min_size=k, max_size=k, unique=True)))
        if shape == "perturbed":
            vals = set(A.values()) ^ {draw(st.integers(1, m - 1))}
            A = gset_modp(vals or {1}, m)
            ctx = None  # Gamma times a key of D may leave D now
    else:
        A = gset_modp(draw(st.lists(st.integers(1, m - 1), min_size=1,
                                    max_size=min(8, m - 1), unique=True)), m)
    dvals = sorted(oracles.diff_counts(A.values(), m))
    kind = draw(st.sampled_from(("all", "invariant", "symmetric", "neither")))
    if kind == "all":
        return m, A, None
    picked = set(draw(st.lists(st.sampled_from(dvals), min_size=1, max_size=12)))
    if kind == "invariant" and ctx is not None:
        picked = {d * g % m for d in picked for g in ctx.gamma} | (picked & {0})
    elif kind in ("invariant", "symmetric"):
        picked |= {-d % m for d in picked}
    return m, A, gset_modp(picked, m, allow_zero=True)


@given(modp_triple_inputs())
@settings(max_examples=60, deadline=None)
def test_triple_count_modp_matches_oracle(case):
    m, A, R = case
    rvals = None if R is None else R.values()
    assert energy.difference_triple_count(A, R) == oracles.difference_triples(
        A.values(), rvals, p=m)
    assert energy.sigma_sum(A) == oracles.sigma(A.values(), m)
    if A.size <= 8:
        assert energy.t_k(A, 3) == oracles.t_k(A.values(), 3, m)
    order = energy._shift_rows(A).order
    if m in MODP_PRIMES:
        assert order == oracles.difference_stabilizer_order(A.values(), m)
    else:
        assert order == 1  # composite moduli are not searched
    keys, counts, got = _rows_at_every_key(A)
    assert energy._rows_int64(keys, counts, keys, m) == got
    if order > 1:  # the cyclotomic rows, whichever tier the cost rule took, at every key
        table, row = energy.difference_table(A), energy._shift_rows(A).row
        cyclo = energy._rows_cyclotomic(table.keys, table.counts, _dlog(m, order), (m - 1) // order)
        assert tuple([col[i] for i in row] for col in cyclo) == got


def test_fixing_group_rejects_a_candidate_past_the_head_keys():
    # S = Gamma {1..8} is invariant under Gamma, the order-6 subgroup of F_1567^*;
    # the extra element 267 breaks that only past the first _HEAD_KEYS keys of
    # D, so the order-6 candidate passes the head check and fails the full one
    p = 1567
    vals = sorted({x * y % p for x in subgroup_context(p, 6).gamma for y in range(1, 9)} | {267})
    r = np.zeros(p, dtype=np.int64)
    for d, c in oracles.diff_counts(vals, p).items():
        r[d] = c
    keys = np.flatnonzero(r)
    head = keys[:energy._HEAD_KEYS]
    h = pow(prime_tables(p).g, (p - 1) // 6, p)
    assert keys.size > energy._HEAD_KEYS and (keys.size - 1) % 6 == 0
    assert (r[head * h % p] == r[head]).all() and not (r[keys * h % p] == r[keys]).all()
    assert energy._fixing_group(p, r) == oracles.difference_stabilizer_order(vals, p) < 6


def test_triple_count_modp_group_choice():
    # H fixes r's values, not only D - {0}, which here has a larger stabiliser
    for p, t, wider in ((13, 6, 12), (31, 10, 30)):
        G = subgroup_context(p, t).gamma_set()
        dvals = set(oracles.diff_counts(G.values(), p))
        order = energy._shift_rows(G).order
        assert order == oracles.difference_stabilizer_order(G.values(), p) == t
        assert oracles.stabilizer_order(p, dvals - {0}) == wider
        assert energy.difference_triple_count(G) == oracles.difference_triples(G.values(), p=p)
        assert energy.t_k(G, 3) == oracles.t_k(G.values(), 3, p)
        assert energy.sigma_sum(G) == oracles.sigma(G.values(), p)
        # a restriction that is not H-invariant reads its keys' own orbits
        assert 1 in dvals
        assert energy.difference_triple_count(G, gset_modp([1], p)) == oracles.difference_triples(
            G.values(), [1], p=p)
    # mod 7^2 the modulus is not prime, so H = {1}
    A = gset_modp([1, 8, 18, 30], 49)
    assert energy._shift_rows(A).order == 1
    assert energy.difference_triple_count(A) == oracles.difference_triples(A.values(), p=49)


def test_shift_rows_large_prime_need_no_length_p_table():
    # past p = max(_BLOCK, |A| |D|) the rows look residues up by searchsorted with
    # H = {1}: a length-p table would take 16 GB mod 2^31 - 1, numpy refuses one
    # mod 2^61 - 1, and 2^62 - 57 is past the int64 tier
    for p in ((1 << 31) - 1, (1 << 61) - 1, (1 << 62) - 57):
        vals = [1, 2, 4, p - 1, p - 3]
        A = gset_modp(vals, p)
        assert energy.t_k(A, 3) == oracles.t_k(vals, 3, p)
        assert energy.sigma_sum(A) == oracles.sigma(vals, p)
        assert energy.difference_triple_count(A) == oracles.difference_triples(vals, p=p)
        assert energy.difference_triple_count(A, gset_modp([1, p - 2], p)) == (
            oracles.difference_triples(vals, [1, p - 2], p=p))
        assert energy._shift_rows(A).order == 1
        _rows_at_every_key(A)


def test_triple_count_pinned_subgroup():
    ctx = subgroup_context(93241, 888)
    stats = SetStats(ctx.gamma_set(), ctx=ctx)
    assert stats.tri() == 8_447_848_585
    assert stats.tri_pop() == 7_066_981_945
    assert stats.t3() == 5_265_032_133_120


def test_energy_kernels_build_no_modp_objects(monkeypatch):
    made = []
    post_init = ModP.__post_init__

    def counting(self):
        made.append(self.value)
        post_init(self)

    monkeypatch.setattr(ModP, "__post_init__", counting)
    stats = subgroup_stats(7561, 90)
    for A in (stats.A, generate_from_string("subgroup(p=7561,t=90)")):
        energy.difference_table(A)
        energy.moment_energy(A, 3)
        energy.sigma_sum(A)
        energy.difference_triple_count(A)
        energy.t_k(A, 3)
        energy.popular_differences(A)
        energy.dyadic_energy_level(A)
        for op in "+-*/":
            setops.combined_set(A, A, op)
    assert stats.tri_pop() > 0  # restricted to the decoded popular set
    assert made == []


def test_sigma_guard():
    A = generate_from_string("geo(q=2,n=72)")  # |A-A| = 5,113
    assert energy.difference_table(A).support_size() > energy.SIGMA_SUPPORT_CAP
    with pytest.raises(TooLarge):
        energy.sigma_sum(A)


# Rationals with differences past 2^63 (object keys) and residues mod primes,
# mod 7^2 and 101^2, and mod 2^31 - 1 (a length-p count would be 16 GB).
table_sets = st.one_of(
    st.lists(st.one_of(st.integers(-40, 40), st.fractions(-9, 9, max_denominator=6),
                       st.integers(-2**66, 2**66)).filter(lambda x: x != 0),
             min_size=1, max_size=9, unique=True).map(gset_rational),
    st.sampled_from((7, 101, 49, 101 * 101, 2**31 - 1)).flatmap(
        lambda m: st.lists(st.integers(1, m - 1), min_size=1, max_size=9,
                           unique=True).map(lambda v: gset_modp(v, m))),
)


@given(table_sets)
@example(gset_rational([1, 7, 8, 13, 14, 20, 26]))  # Delta = 49/38, and some r(d) = 1 < Delta
@settings(max_examples=80, deadline=None)
def test_count_table_readers_match_brute_force(A):
    r = oracles.diff_counts(A.elements)  # element -> count, first-occurrence order
    counts = list(r.values())
    assert energy.energy_pair(A) == sum(c**2 for c in counts)
    assert energy.moment_energy(A, 3) == sum(c**3 for c in counts)
    assert energy.moment_energy(A, Fraction(3, 2)) == math.fsum(c**1.5 for c in counts)
    classes: dict = {}
    for c in counts:
        classes[c.bit_length()] = classes.get(c.bit_length(), 0) + c * c
    top = min(classes, key=lambda k: (-classes[k], k))
    lvl = energy.dyadic_energy_level(A)
    assert (lvl.delta, lvl.mass) == (1 << (top - 1), classes[top])
    assert lvl.members.elements == tuple(sorted(d for d, c in r.items() if c.bit_length() == top))
    pop = energy.popular_differences(A)
    assert pop.delta == Fraction(A.size**2, 2 * len(r))
    assert pop.members.elements == tuple(sorted(d for d, c in r.items() if c >= pop.delta))
    assert pop.mass == sum(c for c in counts if c >= pop.delta)
    for delta in (0, 1, Fraction(3, 2), max(counts) // 2, max(counts)):
        high = [c for c in counts if c > delta]
        assert energy.tail_decompose(A, delta) == (
            sum(c * c for c in counts if c <= delta), sum(c * c for c in high), len(high))
    # R[i, j] = r(a_i - a_j), and the factor's columns in first-occurrence order
    assert spectral.build_matrices(A).R.tolist() == [[r[a - b] for b in A.elements]
                                                     for a in A.elements]
    members = set(A.elements)
    assert spectral.incidence_factor(A).tolist() == [[float(a + w in members) for w in r]
                                                     for a in A.elements]


def test_popular_differences_majority_mass():
    for vals in ([1, 2, 3], [1, 2, 4, 8], list(range(1, 12))):
        A = gset_rational(vals)
        pop = energy.popular_differences(A)
        assert pop.delta == Fraction(A.size**2, 2 * energy.difference_table(A).support_size())
        assert 2 * pop.mass >= A.size**2
        table = energy.difference_table(A)  # integer set: key k is the difference k
        r = dict(zip(table.keys.tolist(), table.counts.tolist()))
        assert pop.mass == sum(r[int(d)] for d in pop.members.elements)
        assert set(pop.members.elements) == {Fraction(k) for k, c in r.items() if c >= pop.delta}


def test_dyadic_level_covers_energy():
    A = gset_rational([1, 2, 3, 5, 8, 13])
    lvl = energy.dyadic_energy_level(A)
    table = energy.difference_table(A)
    classes = {c.bit_length() for c in table.counts.tolist()}
    assert energy.energy_pair(A) <= lvl.mass * len(classes)
    assert lvl.delta in {1 << (c - 1) for c in classes}


def test_tail_decompose_partitions_energy():
    A = gset_rational([1, 2, 3, 4, 7, 11])
    e = energy.energy_pair(A)
    for delta in (1, 2, 3, 10):
        low, high, heavy = energy.tail_decompose(A, delta)
        assert low + high == e
        table = energy.difference_table(A)
        assert heavy == sum(1 for c in table.counts.tolist() if c > delta)
