"""Core numeric containers and elementary measures.

Conventions used throughout the library:

- probabilities and transport plans are dense float64 arrays,
- ``0 * (log 0 - 1) := 0`` in the entropy and ``0 * log(0/x) := 0`` in the
  KL divergence (continuous extension, needed for sparse observed plans),
- all containers are immutable after construction and all operations here
  are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DimMismatch,
    MarginalMismatch,
    MassMismatch,
    NegativeEntry,
    SupportViolation,
    ZeroReference,
)


def _frozen_array(values, ndim):
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise DimMismatch(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def as_matrix(cost):
    """Accept a CostMatrix or a bare 2-d array and return the ndarray."""
    if isinstance(cost, CostMatrix):
        return cost.matrix
    return np.asarray(cost, dtype=float)


@dataclass(frozen=True)
class ProbabilityVector:
    """A marginal distribution on a finite support."""

    values: np.ndarray
    mass_tol: float = 1e-12

    def __post_init__(self):
        v = _frozen_array(self.values, 1)
        object.__setattr__(self, "values", v)
        if v.size == 0:
            raise DimMismatch("probability vector must be nonempty")
        if np.any(v < 0):
            i = int(np.argmin(v))
            raise NegativeEntry(f"entry {i} is negative: {v[i]!r}")
        total = float(v.sum())
        if abs(total - 1.0) > self.mass_tol:
            raise MassMismatch(f"entries sum to {total!r}, not 1")

    @property
    def dim(self) -> int:
        return self.values.size

    def strictly_positive(self) -> bool:
        return bool(np.all(self.values > 0))


@dataclass(frozen=True)
class TransportPlan:
    """An m-by-n joint probability matrix with marginal constraints."""

    matrix: np.ndarray
    row_marginal: ProbabilityVector
    col_marginal: ProbabilityVector
    feas_tol: float = 1e-8
    row_residual: float = field(init=False)
    col_residual: float = field(init=False)

    def __post_init__(self):
        mat = _frozen_array(self.matrix, 2)
        object.__setattr__(self, "matrix", mat)
        m, n = mat.shape
        if m != self.row_marginal.dim or n != self.col_marginal.dim:
            raise DimMismatch(
                f"plan shape {mat.shape} does not match marginals "
                f"({self.row_marginal.dim}, {self.col_marginal.dim})"
            )
        if self.feas_tol <= 0:
            raise DimMismatch("feas_tol must be positive")
        if np.any(mat < 0):
            i, j = np.unravel_index(int(np.argmin(mat)), mat.shape)
            raise NegativeEntry(f"entry ({i}, {j}) is negative: {mat[i, j]!r}")
        total = float(mat.sum())
        if abs(total - 1.0) > 1e-10:
            raise MassMismatch(f"total mass {total!r} differs from 1 by more than 1e-10")
        row_res = float(np.abs(mat.sum(axis=1) - self.row_marginal.values).sum())
        col_res = float(np.abs(mat.sum(axis=0) - self.col_marginal.values).sum())
        object.__setattr__(self, "row_residual", row_res)
        object.__setattr__(self, "col_residual", col_res)
        if row_res > self.feas_tol:
            worst = int(np.argmax(np.abs(mat.sum(axis=1) - self.row_marginal.values)))
            raise MarginalMismatch(
                f"row marginal L1 residual {row_res:.3e} exceeds {self.feas_tol:.3e} "
                f"(worst row {worst})"
            )
        if col_res > self.feas_tol:
            worst = int(np.argmax(np.abs(mat.sum(axis=0) - self.col_marginal.values)))
            raise MarginalMismatch(
                f"column marginal L1 residual {col_res:.3e} exceeds {self.feas_tol:.3e} "
                f"(worst column {worst})"
            )

    @property
    def shape(self):
        return self.matrix.shape

    def strictly_positive(self) -> bool:
        return bool(np.all(self.matrix > 0))


@dataclass(frozen=True)
class CostMatrix:
    """An m-by-n cost matrix; only cost/epsilon is identifiable from a plan."""

    matrix: np.ndarray
    symmetric_zero_diagonal: bool = False

    def __post_init__(self):
        mat = _frozen_array(self.matrix, 2)
        object.__setattr__(self, "matrix", mat)
        if not np.all(np.isfinite(mat)):
            raise DimMismatch("cost matrix must have finite entries")
        if self.symmetric_zero_diagonal:
            m, n = mat.shape
            if m != n:
                raise DimMismatch("symmetric-zero-diagonal cost must be square")
            if not np.array_equal(mat, mat.T) or np.any(np.diag(mat) != 0):
                raise DimMismatch("matrix is not symmetric with zero diagonal")

    @property
    def shape(self):
        return self.matrix.shape


@dataclass(frozen=True)
class DualPotentials:
    """Dual vectors (alpha, beta); scalings are u = e^{alpha/eps}, v = e^{beta/eps}."""

    alpha: np.ndarray
    beta: np.ndarray
    epsilon: float

    def __post_init__(self):
        a = _frozen_array(self.alpha, 1)
        b = _frozen_array(self.beta, 1)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DimMismatch("dual potentials must be finite")
        if not self.epsilon > 0:
            raise DimMismatch("epsilon must be positive")


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1.0
    max_iter: int = 1000
    tol: float = 1e-9
    log_every: int = 1

    def __post_init__(self):
        if self.epsilon <= 0 or self.max_iter <= 0 or self.tol <= 0 or self.log_every <= 0:
            raise DimMismatch("epsilon, max_iter, tol, log_every must all be positive")
        if not self.tol < 1:
            raise DimMismatch("tol must be below 1")


@dataclass
class SolveReport:
    """Per-solve traces powering convergence and acceptance checks."""

    iterations: int
    objective_trace: np.ndarray
    rel_err_trace: Optional[np.ndarray]
    feasibility_residual: float
    converged: bool
    wall_clock_seconds: float
    extras: dict = field(default_factory=dict)


def validate_plan(matrix, mu: ProbabilityVector, nu: ProbabilityVector,
                  feas_tol: float = 1e-8) -> TransportPlan:
    """Check matrix/marginal consistency and wrap the result as a TransportPlan.

    Raises NegativeEntry, MassMismatch, or MarginalMismatch naming the worst
    offending index when an invariant fails.
    """
    return TransportPlan(matrix=matrix, row_marginal=mu, col_marginal=nu,
                         feas_tol=feas_tol)


def entropy(plan: TransportPlan) -> float:
    """Normalized Shannon entropy -sum pi_ij (log pi_ij - 1), with 0(log 0 - 1) = 0."""
    p = plan.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(np.where(p > 0, p, 1.0)) - 1.0), 0.0)
    return float(-terms.sum())


def kl_divergence(obs: TransportPlan, model: TransportPlan) -> float:
    """Discrete KL(obs || model) with the 0 log(0/x) = 0 convention."""
    p = obs.matrix
    q = model.matrix
    if p.shape != q.shape:
        raise DimMismatch(f"shape mismatch {p.shape} vs {q.shape}")
    bad = (p > 0) & (q == 0)
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), p.shape)
        raise SupportViolation(
            f"observed mass at ({i}, {j}) but model is zero there"
        )
    mask = p > 0
    safe_p = np.where(mask, p, 1.0)
    safe_q = np.where(mask, q, 1.0)
    return float(np.sum(np.where(mask, p * np.log(safe_p / safe_q), 0.0)))


def relative_error(c, c_star) -> float:
    """Relative Frobenius error ||c - c*||_F / ||c*||_F."""
    a = as_matrix(c)
    b = as_matrix(c_star)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    ref = float(np.linalg.norm(b))
    if ref == 0:
        raise ZeroReference("reference cost has zero Frobenius norm")
    return float(np.linalg.norm(a - b) / ref)
