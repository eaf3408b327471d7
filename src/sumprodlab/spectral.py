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
from .errors import BadSpec, DimensionMismatch, NoConvergence, TooLarge
from .families import Lcg
from .setops import CountTable, GSet

MATRIX_CAP = 512  # |A| for build_matrices
FACTOR_CAP = 10_000_000  # cells of the incidence factor
TRACE_CAP = 128  # |A| for trace_m2r, whose combinatorial route is cubic
EIGEN_TOL = 1e-12  # relative change at which power iteration stops
EIGEN_STEPS = 100_000  # power-iteration steps before NoConvergence
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


def build_matrices(A: GSet, *, delta: int | None = None,
                   table: CountTable | None = None) -> EnergyMatrices:
    """R, M and the delta-truncated Mt for A (delta defaults to max r)."""
    n = A.size
    if n > MATRIX_CAP:
        raise TooLarge(f"set has {n} elements, matrix cap is {MATRIX_CAP}")
    table = energy.difference_table(A) if table is None else table
    if delta is None:
        delta = table.max_count()
    elif delta < 1:
        raise BadSpec(f"truncation level must be >= 1, got {delta}")
    ints, r = A.int_view()[0], setops.difference_lookup(table.int_items(), A.p)
    R = np.array([[r[a - b] for b in ints] for a in ints], dtype=np.float64)
    Mt = np.where(R <= delta, R * (1.0 / np.sqrt(float(delta))), 0.0)
    return EnergyMatrices(A, R, np.sqrt(R), delta, Mt)


def incidence_factor(A: GSet) -> np.ndarray:
    """0/1 matrix N with N[i, w] = 1 iff a_i + w_j in A, columns over A - A.

    Satisfies N @ N.T = R exactly.  On the integer view, a_i + w = b in A
    exactly when w = b - a_i, so row i has a 1 in the column of each b - a_i.
    """
    items = energy.difference_table(A).int_items()
    n = A.size
    if n * len(items) > FACTOR_CAP:
        raise TooLarge("incidence factor would exceed the cell cap")
    ints = A.int_view()[0]
    col = setops.difference_lookup({w: j for j, (w, _) in enumerate(items)}, A.p)
    N = np.zeros((n, len(items)), dtype=np.float64)
    N[np.repeat(np.arange(n), n), [col[b - a] for a in ints for b in ints]] = 1.0
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
    mats = build_matrices(A)
    N = incidence_factor(A)
    rng = Lcg(seed)
    n = A.size
    worst = float("inf")
    gap = 0.0
    for _ in range(vectors):
        x = np.array([2.0 * (rng.next_u64() / 2.0**64) - 1.0 for _ in range(n)])
        direct, sos = psd_witness(mats, x, factor=N)
        worst = min(worst, direct, sos)
        denom = max(1.0, abs(direct), abs(sos))
        gap = max(gap, abs(direct - sos) / denom)
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
    """Top eigenpair of a symmetric matrix by shifted power iteration.

    The shift s = max absolute row sum makes S + sI positive semidefinite
    with the wanted eigenvalue on top; the Rayleigh quotient of S itself is
    tracked and iteration stops when it settles to EIGEN_TOL.
    """
    n = S.shape[0]
    if n == 1:
        return float(S[0, 0]), np.ones(1)
    shift = float(np.abs(S).sum(axis=1).max())
    B = S + shift * np.eye(n)
    v = np.ones(n) / np.sqrt(n)
    last = float(v @ S @ v)
    for _ in range(EIGEN_STEPS):
        w = B @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0, v  # S = -shift * I edge: any unit vector works
        v = w / norm
        ray = float(v @ S @ v)
        if abs(ray - last) <= EIGEN_TOL * max(1.0, abs(ray)):
            for coord in v:
                if coord != 0.0:
                    if coord < 0.0:
                        v = -v
                    break
            return ray, v
        last = ray
    raise NoConvergence(f"power iteration did not settle in {EIGEN_STEPS} steps")


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


def spectral_chain(A: GSet, *, delta: int | None = None, table: CountTable | None = None,
                   energy3: int | None = None, sigma: int | None = None) -> SpectralChain:
    """Checks the eigenvalue chain at truncation level delta:

      (i)   mu1(Mt) >= E'(delta) / (|A| sqrt(delta))   [Rayleigh at all-ones]
      (ii)  v1^T R v1 >= sqrt(delta) mu1               [R >= sqrt(delta) Mt
                                                        entrywise, v1 >= 0]
      (iii) E'^6 <= |A|^6 E_3 delta^2 Sigma            [exact integers]

    E'(delta) = sum of r(d)^2 over d with r(d) <= delta.  (i) and (ii) hold
    up to CHAIN_SLACK * max(1, values); (iii) is asserted in exact arithmetic
    and combines (i), (ii) and the trace bound tr(Mt^2 R) <= sqrt(E_3 Sigma) / delta.
    The difference table, E_3 and Sigma are computed unless given.
    """
    table = energy.difference_table(A) if table is None else table
    mats = build_matrices(A, delta=delta, table=table)
    delta = mats.delta
    eprime = sum(c * c for c in table.entries.values() if c <= delta)
    mu1, v1 = principal_eigen(mats.Mt)
    lower = eprime / (A.size * np.sqrt(float(delta)))
    quad = float(v1 @ mats.R @ v1)
    tol = CHAIN_SLACK * max(1.0, mu1, quad)
    ok_i = mu1 >= lower - tol
    ok_ii = quad >= np.sqrt(float(delta)) * mu1 - tol
    ok_chain = quad >= eprime / A.size - tol
    energy3 = energy.moment_energy(A, 3, table=table) if energy3 is None else energy3
    sigma = energy.sigma_sum(A, table=table) if sigma is None else sigma
    lhs = eprime**6
    rhs = A.size**6 * energy3 * delta**2 * sigma
    return SpectralChain(delta, eprime, mu1, lower, quad, energy3, sigma,
                         lhs, rhs, ok_i, ok_ii, ok_chain)
