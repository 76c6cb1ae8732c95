"""Core numeric containers and elementary measures.

Conventions used throughout the library:

- probabilities and transport plans are dense float64 arrays,
- ``0 * (log 0 - 1) := 0`` in the entropy (continuous extension, needed for
  sparse observed plans),
- all containers are immutable after construction and all operations here
  are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    BadBounds,
    DimMismatch,
    MarginalMismatch,
    MassMismatch,
    NegativeEntry,
    ZeroReference,
)


def _frozen_array(values, ndim):
    """A read-only float copy; DimMismatch on a wrong ndim or a non-finite entry."""
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise DimMismatch(f"expected a {ndim}-d array, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        idx = tuple(int(k) for k in np.unravel_index(int(np.argmin(finite)), arr.shape))
        where = idx[0] if ndim == 1 else idx
        raise DimMismatch(f"entry {where} is not finite: {arr[idx]!r}")
    arr.setflags(write=False)
    return arr


def _outer_sum(alpha, beta, out=None) -> np.ndarray:
    """alpha_i + beta_j, new or in out (a row copy and a column add: 2/3 of np.add's time)."""
    if out is None:  # one numpy call: the cheapest for small arrays
        return np.add(alpha[:, None], beta)
    out[...] = alpha[:, None]
    out += beta
    return out


def as_matrix(cost):
    """Accept a CostMatrix or a bare 2-d array and return the ndarray."""
    if isinstance(cost, CostMatrix):
        return cost.matrix
    return np.asarray(cost, dtype=float)


@dataclass(frozen=True)
class ProbabilityVector:
    """A marginal distribution on a finite support."""

    values: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.values, 1)
        object.__setattr__(self, "values", v)
        if v.size == 0:
            raise DimMismatch("probability vector must be nonempty")
        if np.any(v < 0):
            i = int(np.argmin(v))
            raise NegativeEntry(f"entry {i} is negative: {v[i]!r}")
        total = float(v.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise MassMismatch(f"entries sum to {total!r}, not 1")

    @property
    def dim(self) -> int:
        return self.values.size

    def strictly_positive(self) -> bool:
        return bool(np.all(self.values > 0))


@dataclass(frozen=True)
class TransportPlan:
    """An m-by-n joint probability matrix, checked against its marginals on construction."""

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
        if not self.feas_tol > 0:
            raise BadBounds("feas_tol must be positive")
        if np.any(mat < 0):
            i, j = np.unravel_index(int(np.argmin(mat)), mat.shape)
            raise NegativeEntry(f"entry ({i}, {j}) is negative: {mat[i, j]!r}")
        total = float(mat.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise MassMismatch(f"total mass {total!r} differs from 1 by more than 1e-10")
        for axis, side, marginal in ((1, "row", self.row_marginal),
                                     (0, "column", self.col_marginal)):
            gap = np.abs(mat.sum(axis=axis) - marginal.values)
            res = float(gap.sum())
            object.__setattr__(self, side[:3] + "_residual", res)
            if not res <= self.feas_tol:
                raise MarginalMismatch(
                    f"{side} marginal L1 residual {res:.3e} exceeds {self.feas_tol:.3e} "
                    f"(worst {side} {int(np.argmax(gap))})")

    @property
    def shape(self):
        return self.matrix.shape

    def strictly_positive(self) -> bool:
        return bool(np.all(self.matrix > 0))


@dataclass(frozen=True)
class CostMatrix:
    """An m-by-n cost matrix; only cost/epsilon is identifiable from a plan."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, 2))


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
        if not self.epsilon > 0:
            raise BadBounds("epsilon must be positive")


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1.0
    max_iter: int = 1000
    tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.epsilon < np.inf and self.max_iter > 0 and 0 < self.tol < 1):
            raise BadBounds("epsilon must be positive and finite, max_iter positive, "
                            "tol in (0, 1)")


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


def entropy(plan: TransportPlan) -> float:
    """Normalized Shannon entropy -sum pi_ij (log pi_ij - 1), with 0(log 0 - 1) = 0."""
    p = plan.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(np.where(p > 0, p, 1.0)) - 1.0), 0.0)
    return float(-terms.sum())


def relative_error(c, c_star) -> float:
    """Relative Frobenius error ||c - c*||_F / ||c*||_F."""
    return _error_to(c_star, as_matrix(c).shape)(c)


def _error_to(c_star, shape):
    """relative_error(., c_star) for costs of ``shape``; ||c*||_F is computed once."""
    b = as_matrix(c_star)
    if shape != b.shape:
        raise DimMismatch(f"shape mismatch {shape} vs {b.shape}")
    ref = float(np.linalg.norm(b))
    if ref == 0:
        raise ZeroReference("reference cost has zero Frobenius norm")
    diff = np.empty(shape)  # reused; vdot(d, d) is bitwise np.linalg.norm(d)**2
    return lambda c: float(np.sqrt(np.vdot(np.subtract(as_matrix(c), b, out=diff), diff))
                           / ref)
