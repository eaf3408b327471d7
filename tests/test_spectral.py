import math

import numpy as np
import pytest

import oracles
from sumprodlab import energy, spectral
from sumprodlab.errors import DimensionMismatch, TooLarge
from sumprodlab.families import generate_from_string
from sumprodlab.setops import gset_modp, gset_rational

A123 = gset_rational([1, 2, 3])


def test_r_matrix_worked_example():
    mats = spectral.build_matrices(A123)
    want = np.array([[3, 2, 1], [2, 3, 2], [1, 2, 3]], dtype=float)
    assert np.array_equal(mats.R, want)
    assert np.array_equal(mats.M, np.sqrt(want))
    assert mats.delta == 3


def test_top_eigenvalue_closed_form():
    mats = spectral.build_matrices(A123)
    mu, v = spectral.principal_eigen(mats.R)
    assert mu == pytest.approx((7 + math.sqrt(33)) / 2, rel=1e-10)
    assert mu == pytest.approx(float(np.linalg.eigvalsh(mats.R)[-1]), rel=1e-10)
    assert np.all(v >= -1e-12)


def test_eigen_matches_lapack_on_random_symmetric():
    rng = np.random.default_rng(5)
    for n in (2, 5, 9):
        X = rng.standard_normal((n, n))
        S = (X + X.T) / 2
        mu, _ = spectral.principal_eigen(S)
        assert mu == pytest.approx(float(np.linalg.eigvalsh(S)[-1]), abs=1e-8)


def test_eigen_identity_and_all_ones():
    mu, _ = spectral.principal_eigen(np.eye(5))
    assert mu == pytest.approx(1.0, abs=1e-12)
    mu, _ = spectral.principal_eigen(np.ones((4, 4)))
    assert mu == pytest.approx(4.0, abs=1e-10)


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [2, 0, 1, 3]])
def test_eigenvector_is_nonnegative_where_the_top_eigenvalue_repeats(order):
    # two all-ones 2 x 2 blocks: eigenvalue 2 twice, so any unit vector of the
    # span of the blocks' indicators is a top eigenvector, and LAPACK's may
    # have negative entries (numpy's bundled OpenBLAS gives one for the second order)
    S = np.kron(np.eye(2), np.ones((2, 2)))[np.ix_(order, order)]
    mu, v = spectral.principal_eigen(S)
    assert mu == pytest.approx(2.0, abs=1e-12)
    assert np.all(v >= 0.0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(S @ v, mu * v, atol=1e-12)


def test_incidence_factorization_exact():
    for A in (A123, gset_rational([1, 2, 4, 8]), gset_modp([1, 2, 4], 7)):
        mats = spectral.build_matrices(A)
        N = spectral.incidence_factor(A)
        assert np.array_equal(N @ N.T, mats.R)


def test_quadratic_form_witness_vector():
    mats = spectral.build_matrices(A123)
    direct, sos = spectral.psd_witness(mats, np.array([1.0, -2.0, 1.0]))
    # frozen: (1,-2,1) gives 4 on both routes
    assert direct == pytest.approx(4.0, abs=1e-9)
    assert sos == pytest.approx(4.0, abs=1e-9)


def test_quadratic_form_all_ones_is_energy():
    mats = spectral.build_matrices(A123)
    direct, sos = spectral.psd_witness(mats, np.ones(3))
    assert direct == pytest.approx(19.0, abs=1e-9)
    assert sos == pytest.approx(19.0, abs=1e-9)


def test_witness_rejects_wrong_shape():
    mats = spectral.build_matrices(A123)
    with pytest.raises(DimensionMismatch):
        spectral.psd_witness(mats, np.ones(4))


def test_psd_sweep_verdict():
    rep = spectral.psd_sweep(gset_rational([1, 2, 4, 9]), vectors=200)
    assert rep.ok
    assert rep.min_quadratic >= -1e-9
    assert rep.max_route_gap <= 1e-9


@pytest.mark.parametrize("spec", ["ap(n=16)", "geo(q=2,n=16)", "rand(n=48,seed=1)",
                                  "subgroup(p=101,t=20)"])
def test_psd_sweep_block_draws_match_scalar_draws(spec):
    A = generate_from_string(spec)
    block, scalar = spectral.psd_sweep(A), oracles.psd_sweep_scalar(A)
    assert block.vectors == scalar.vectors == 1000
    assert block.min_quadratic == scalar.min_quadratic  # floats, compared exactly
    assert block.max_route_gap == scalar.max_route_gap


def test_trace_routes_agree():
    for vals in ([1, 2, 3], [1, 2, 4, 8], [2, 3, 5, 7, 11]):
        A = gset_rational(vals)
        direct, comb = spectral.trace_m2r(A)
        assert direct == pytest.approx(comb, rel=1e-9)


def test_matrix_cap():
    with pytest.raises(TooLarge):
        spectral.build_matrices(gset_rational(range(1, 600)))


def test_spectral_chain_worked_example():
    chain = spectral.spectral_chain(A123)
    assert chain.delta == 3
    assert chain.eprime == 19
    assert chain.mu1 == pytest.approx(19 / (3 * math.sqrt(3)), rel=0.01)
    assert chain.mu1 >= chain.lower_mu - 1e-9
    assert chain.lhs_exact == 19**6 == 47045881
    assert chain.rhs_exact == 3**6 * 45 * 9 * 319 == 94183155
    assert chain.ok


def test_spectral_chain_truncation_drops_heavy_diffs():
    A = gset_rational([1, 2, 3, 4, 5])
    chain = spectral.spectral_chain(A, delta=2)
    table_counts = [5, 4, 4, 3, 3, 2, 2, 1, 1]  # r-values of the AP
    assert chain.eprime == sum(c * c for c in table_counts if c <= 2)
    assert chain.ok


def test_spectral_chain_takes_shared_values():
    A = gset_rational([1, 2, 3, 5, 8, 13])
    shared = spectral.spectral_chain(A, delta=2, sigma=energy.sigma_sum(A))
    assert shared == spectral.spectral_chain(A, delta=2)


def test_spectral_chain_modp():
    chain = spectral.spectral_chain(gset_modp([1, 2, 4], 7))
    assert chain.ok


@pytest.mark.parametrize("p", [7, 11, 13])
def test_spectral_chain_on_a_zero_truncated_matrix(p):
    # Gamma = F_p^*: r = p - 2 off 0 and p - 1 at 0, so at delta = ceil(max r / 2)
    # every entry is cut and Mt = 0, whose top eigenvalue 0 fills the space
    G = generate_from_string(f"subgroup(p={p},t={p - 1})")
    chain = spectral.spectral_chain(G, delta=math.ceil((p - 1) / 2))
    assert chain.eprime == 0 and chain.mu1 == 0.0
    assert chain.ok_eigen_bound and chain.ok_lift and chain.ok_chain and chain.ok_exact
