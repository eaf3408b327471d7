"""Difference-count matrices of a finite set and their top eigenpairs.

For a set A of size n, three symmetric n x n matrices are built from the
difference counts r(d) = #{(a, a') in A^2 : a - a' = d}:

  R[i, j]  = r(a_i - a_j)
  M[i, j]  = sqrt(r(a_i - a_j))
  Mt[i, j] = r(a_i - a_j) / sqrt(delta) if r(a_i - a_j) <= delta, else 0

R factors exactly as N N^T where N is the 0/1 incidence of "a + w lands in A"
over difference values w, so R is positive semidefinite and every quadratic
form in R has an exact sum-of-squares evaluation.  The top eigenpair drives a
chain of lower bounds on quadratic forms that the harness checks numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import energy, setops
from .errors import BadSpec, DimensionMismatch, TooLarge
from .families import Lcg
from .setops import GSet

MATRIX_CAP = 512  # |A| for build_matrices
FACTOR_CAP = 10_000_000  # cells of the incidence factor
TRACE_CAP = 128  # |A| for trace_m2r, whose combinatorial route is cubic
CHAIN_SLACK = 1e-6  # relative slack on the floating steps of spectral_chain


@dataclass
class EnergyMatrices:
    base: GSet
    R: np.ndarray
    M: np.ndarray
    delta: int
    Mt: np.ndarray

    @property
    def size(self) -> int:
        return self.base.size


def build_matrices(A: GSet, *, delta: int | None = None) -> EnergyMatrices:
    """R, M and the delta-truncated Mt for A (delta defaults to max r)."""
    n = A.size
    if n > MATRIX_CAP:
        raise TooLarge(f"set has {n} elements, matrix cap is {MATRIX_CAP}")
    table = energy.difference_table(A)
    if delta is None:
        delta = table.max_count()
    elif delta < 1:
        raise BadSpec(f"truncation level must be >= 1, got {delta}")
    R = table.counts[table.index(setops._difference_matrix(A))].astype(np.float64)
    Mt = np.where(R <= delta, R * (1.0 / np.sqrt(float(delta))), 0.0)
    return EnergyMatrices(A, R, np.sqrt(R), delta, Mt)


def incidence_factor(A: GSet) -> np.ndarray:
    """0/1 matrix N with N[i, w] = 1 iff a_i + w_j in A, columns over A - A.

    Satisfies N @ N.T = R exactly.  On the integer view, a_i + w = b in A
    exactly when w = b - a_i, so row i has a 1 in the column of each b - a_i.
    The columns follow the order in which the differences a - b first occur,
    a outer and b inner.
    """
    n, width = A.size, energy.difference_table(A).support_size()
    if n * width > FACTOR_CAP:
        raise TooLarge("incidence factor would exceed the cell cap")
    _, first, key = np.unique(setops._difference_matrix(A).ravel(),
                              return_index=True, return_inverse=True)
    column = np.argsort(np.argsort(first))  # each sorted key's rank by first occurrence
    N = np.zeros((n, width), dtype=np.float64)
    N[np.repeat(np.arange(n), n), column[key].reshape(n, n).T.ravel()] = 1.0
    return N


@dataclass
class PsdWitness:
    vectors: int
    min_quadratic: float
    max_route_gap: float

    @property
    def ok(self) -> bool:
        return self.min_quadratic >= -1e-9 and self.max_route_gap <= 1e-9


def psd_witness(mats: EnergyMatrices, v: np.ndarray,
                *, factor: np.ndarray | None = None) -> tuple[float, float]:
    """The quadratic form v^T R v by two routes: the matrix product, and the
    sum of squares sum_w ((N^T v)_w)^2 through the exact N N^T factorization.
    Both are nonnegative up to roundoff for any real v."""
    if v.shape != (mats.size,):
        raise DimensionMismatch(f"witness vector has shape {v.shape}, set size is {mats.size}")
    if factor is None:
        factor = incidence_factor(mats.base)
    direct = float(v @ mats.R @ v)
    sos = float(np.sum((factor.T @ v) ** 2))
    return direct, sos


def psd_sweep(A: GSet, *, vectors: int = 1000, seed: int = 1) -> PsdWitness:
    """Random-vector sweep over psd_witness; components drawn in [-1, 1]."""
    mats, N = build_matrices(A), incidence_factor(A)
    draws = Lcg(seed).block(vectors * A.size).astype(np.float64).reshape(vectors, A.size)
    worst, gap = float("inf"), 0.0
    for x in 2.0 * (draws / 2.0**64) - 1.0:  # the cast rounds as int / float does; the rest is exact
        direct, sos = psd_witness(mats, x, factor=N)
        worst = min(worst, direct, sos)
        gap = max(gap, abs(direct - sos) / max(1.0, abs(direct), abs(sos)))
    return PsdWitness(vectors, worst, gap)


def trace_m2r(A: GSet) -> tuple[float, float]:
    """tr(M^2 R) by two routes: the matrix product, and the class sum

      tr(M^2 R) = sum_{x,y,z} sqrt(R[x,y] R[x,z]) R[y,z] = sum_P C_P sqrt(P),

    where C_P, the sum of R[y,z] over the triples with R[x,y] R[x,z] = P, is
    an integer, tabulated one row x at a time."""
    if A.size > TRACE_CAP:
        raise TooLarge("combinatorial trace route is cubic in |A|")
    mats = build_matrices(A)
    direct = float(np.sum((mats.M @ mats.M) * mats.R))
    R = mats.R.astype(np.int64)
    size = int(R.max(initial=0)) ** 2 + 1  # the products P run up to max r^2
    C = sum((np.bincount(np.outer(row, row).ravel(), weights=mats.R.ravel(), minlength=size)
             for row in R), np.zeros(size))  # float64 sums of integers below 2^53: exact
    comb = math.fsum(c * math.sqrt(P) for P, c in enumerate(C.tolist()) if c)
    return direct, comb


def principal_eigen(S: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue of a symmetric matrix (LAPACK's eigh), with the entrywise
    absolute value of its unit eigenvector.

    When S has nonnegative entries, as Mt does, |v|^T S |v| >= v^T S v, so |v|
    is again a top eigenvector, and it is >= 0 even where the top eigenvalue
    repeats."""
    values, vectors = np.linalg.eigh(S)
    return float(values[-1]), np.abs(vectors[:, -1])


@dataclass
class SpectralChain:
    delta: int
    eprime: int  # truncated energy E'(delta) = sum of r^2 over r <= delta
    mu1: float
    lower_mu: float  # E' / (|A| sqrt(delta))
    rayleigh_R: float  # v1^T R v1
    energy3: int
    sigma: int
    lhs_exact: int  # E'^6
    rhs_exact: int  # |A|^6 E_3 delta^2 Sigma
    ok_eigen_bound: bool
    ok_lift: bool
    ok_chain: bool

    @property
    def ok_exact(self) -> bool:
        return self.lhs_exact <= self.rhs_exact

    @property
    def ok(self) -> bool:
        return (self.ok_eigen_bound and self.ok_lift and self.ok_chain
                and self.ok_exact)


def spectral_chain(A: GSet, *, delta: int | None = None, sigma: int | None = None) -> SpectralChain:
    """Checks the eigenvalue chain at truncation level delta:

      (i)   mu1(Mt) >= E'(delta) / (|A| sqrt(delta))   [Rayleigh at all-ones]
      (ii)  v1^T R v1 >= sqrt(delta) mu1               [R >= sqrt(delta) Mt
                                                        entrywise, v1 >= 0]
      (iii) E'^6 <= |A|^6 E_3 delta^2 Sigma            [exact integers]

    E'(delta) = sum of r(d)^2 over d with r(d) <= delta.  (i) and (ii) hold
    up to CHAIN_SLACK * max(1, values); (iii) is asserted in exact arithmetic
    and combines (i), (ii) and the trace bound tr(Mt^2 R) <= sqrt(E_3 Sigma) / delta.
    Sigma is computed unless given.
    """
    mats = build_matrices(A, delta=delta)
    delta = mats.delta
    eprime = energy.tail_decompose(A, delta)[0]
    mu1, v1 = principal_eigen(mats.Mt)
    lower = eprime / (A.size * np.sqrt(float(delta)))
    quad = float(v1 @ mats.R @ v1)
    tol = CHAIN_SLACK * max(1.0, mu1, quad)
    ok_i = mu1 >= lower - tol
    ok_ii = quad >= np.sqrt(float(delta)) * mu1 - tol
    ok_chain = quad >= eprime / A.size - tol
    energy3 = energy.moment_energy(A, 3)
    sigma = energy.sigma_sum(A) if sigma is None else sigma
    lhs = eprime**6
    rhs = A.size**6 * energy3 * delta**2 * sigma
    return SpectralChain(delta, eprime, mu1, lower, quad, energy3, sigma,
                         lhs, rhs, ok_i, ok_ii, ok_chain)
