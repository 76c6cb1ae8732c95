"""Entropy-regularized forward OT via Sinkhorn matrix scaling.

All matrix scaling in the package (this solve, ``learn_cost`` and the BCD
dual blocks) runs one absorption-stabilised sweep, `_Sweep` (Schmitzer,
arXiv:1610.06519; Peyre & Cuturi, arXiv:1803.00567, sec. 4.4). ``mode`` sets
when this solve absorbs: ``"direct"`` never, so a scaling that under/overflows
raises NumericalOverflow; ``"log"`` every iteration; ``"auto"`` once a scaling
leaves [e^-100, e^100] or under/overflows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotConverged, NumericalOverflow
from .types import (
    DualPotentials,
    ProbabilityVector,
    SolveReport,
    SolverConfig,
    TransportPlan,
    as_matrix,
    validate_plan,
)


def _log_plan(alpha, beta, cost, eps) -> np.ndarray:
    """The log-plan (alpha_i + beta_j - c_ij)/eps, as a new array."""
    return (np.add.outer(alpha, beta) - cost) / eps


class _Sweep:
    """Scalings (u, v) against K = e^{(alpha + beta - c)/eps}; plan diag(u) K diag(v).

    Absorbing folds eps log u, eps log v into (alpha, beta), resets u = v = 1
    and rebuilds K. Given ``axis`` (1: rows, 0: columns) it shifts that side's
    duals so that K has maximum 1 along the axis: the half-step on that side,
    which must come next, cancels the shift and cannot under/overflow. So a
    half-step that under/overflows absorbs that way and retries.
    """

    def __init__(self, cost, mu, nu, eps, alpha, beta, axis=None):
        self.c, self.mu, self.nu, self.eps = cost, mu, nu, eps
        self.alpha, self.beta = alpha, beta
        self.absorptions = 0
        self._build(axis)

    def duals(self):
        return (self.alpha + self.eps * np.log(self.u),
                self.beta + self.eps * np.log(self.v))

    def absorb(self, axis=None):
        self.alpha, self.beta = self.duals()
        self._build(axis)

    def _build(self, axis):
        self.u, self.v = np.ones(self.alpha.size), np.ones(self.beta.size)
        z = _log_plan(self.alpha, self.beta, self.c, self.eps)
        if axis is not None:
            shift = z.max(axis=axis, keepdims=True)
            z -= shift
            if axis == 1:
                self.alpha = self.alpha - self.eps * shift.ravel()
            else:
                self.beta = self.beta - self.eps * shift.ravel()
            self.absorptions += 1
        with np.errstate(over="ignore"):  # an overflowing half-step absorbs
            self.K = np.exp(z, out=z)

    def scale(self, axis, prod=None):
        """Half-step on rows (axis 1: u <- mu / (K v)) or columns (axis 0:
        v <- nu / (K^T u)); returns the product it divided by. ``prod``
        passes K v when the caller has it."""
        for retry in (False, True):
            if prod is None:
                prod = self.K @ self.v if axis == 1 else self.K.T @ self.u
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                new = (self.mu if axis == 1 else self.nu) / prod
            if retry or 0 < new.min() <= new.max() < np.inf:  # False on NaN
                break
            self.absorb(axis)
            prod = None
        (self.u if axis == 1 else self.v)[:] = new
        return prod


def _plan_residual(alpha, beta, cost, mu, nu, eps) -> float:
    """Max of the row and column L1 residuals of e^{(alpha + beta - c)/eps}."""
    z = _log_plan(alpha, beta, cost, eps)
    with np.errstate(over="ignore"):
        plan = np.exp(z, out=z)
    return max(float(np.abs(plan.sum(axis=1) - mu).sum()),
               float(np.abs(plan.sum(axis=0) - nu).sum()))


@dataclass(frozen=True)
class SinkhornResult:
    duals: DualPotentials
    plan: TransportPlan
    dual_objective: float
    report: SolveReport


def plan_from_duals(duals: DualPotentials, cost) -> np.ndarray:
    """Raw closed-form plan pi_ij = e^{(alpha_i + beta_j - c_ij)/eps}.

    No marginal feasibility is implied; run validate_plan on the result if a
    proper TransportPlan is needed.
    """
    z = _log_plan(duals.alpha, duals.beta, as_matrix(cost), duals.epsilon)
    if np.max(z) > 700:
        i, j = np.unravel_index(int(np.argmax(z)), z.shape)
        raise NumericalOverflow(f"exponent {z[i, j]:.1f} at ({i}, {j}) exceeds 700")
    return np.exp(z, out=z)


def dual_objective(duals: DualPotentials, cost, mu: ProbabilityVector,
                   nu: ProbabilityVector) -> float:
    """<alpha, mu> + <beta, nu> - eps * sum e^{(alpha_i + beta_j - c_ij)/eps}."""
    eps = duals.epsilon
    z = _log_plan(duals.alpha, duals.beta, as_matrix(cost), eps)
    with np.errstate(over="raise"):
        try:
            expsum = float(np.exp(z, out=z).sum())
        except FloatingPointError:
            raise NumericalOverflow("exponential sum overflows in dual objective")
    return float(duals.alpha @ mu.values + duals.beta @ nu.values - eps * expsum)


def sinkhorn_solve(cost, mu: ProbabilityVector, nu: ProbabilityVector,
                   config: SolverConfig, mode: str = "auto") -> SinkhornResult:
    """Solve entropy-regularized OT; returns duals, feasible plan, and report.

    Convergence is declared when both L1 marginal residuals of the current
    plan fall below config.tol. Raises NotConverged (with the best iterate
    attached) when the iteration budget runs out. ``extras["log_domain"]``
    says whether the sweep absorbed at least once.
    """
    if mode not in ("auto", "direct", "log"):
        raise ValueError(f"unknown mode {mode!r}")
    c = as_matrix(cost)
    if c.shape != (mu.dim, nu.dim):
        raise DimMismatch(
            f"cost shape {c.shape} incompatible with marginals ({mu.dim}, {nu.dim})")
    if not (mu.strictly_positive() and nu.strictly_positive()):
        raise ValueError("marginals must be strictly positive")
    eps = config.epsilon
    t0 = time.perf_counter()

    sweep = _Sweep(c, mu.values, nu.values, eps, np.zeros(mu.dim), np.zeros(nu.dim),
                   axis=1 if mode == "log" else None)
    obj_trace = []
    res_trace = []
    converged = False
    it = 0
    Kv = None  # K v of the last plan, reused by the next row half-step
    while it < config.max_iter:
        it += 1
        sweep.scale(1, Kv)
        Ktu = sweep.scale(0)
        if mode == "direct" and sweep.absorptions:
            raise NumericalOverflow("scaling vector under/overflow in direct mode")
        Kv = sweep.K @ sweep.v
        residual = max(float(np.abs(sweep.u * Kv - mu.values).sum()),
                       float(np.abs(sweep.v * Ktu - nu.values).sum()))
        if it % config.log_every == 0 or residual <= config.tol:
            duals = DualPotentials(*sweep.duals(), epsilon=eps)
            obj_trace.append(dual_objective(duals, c, mu, nu))
            res_trace.append(residual)
        if residual <= config.tol:
            converged = True
            break
        # the band e^{+-100} is well inside the float range (e^709)
        if mode == "log" or (mode == "auto" and max(
                np.abs(np.log(s)).max() for s in (sweep.u, sweep.v)) > 100):
            sweep.absorb(axis=1)
            Kv = None

    duals = DualPotentials(*sweep.duals(), epsilon=eps)
    report = SolveReport(
        iterations=it,
        objective_trace=np.asarray(obj_trace),
        rel_err_trace=None,
        feasibility_residual=residual,
        converged=converged,
        wall_clock_seconds=time.perf_counter() - t0,
        extras={"log_domain": sweep.absorptions > 0,
                "residual_trace": np.asarray(res_trace)},
    )
    feas_tol = max(residual * (1.01 if converged else 2.0), config.tol)
    result = SinkhornResult(duals=duals,
                            plan=validate_plan(plan_from_duals(duals, c), mu, nu,
                                               feas_tol=feas_tol),
                            dual_objective=dual_objective(duals, c, mu, nu),
                            report=report)
    if not converged:
        raise NotConverged(
            f"marginal residual {residual:.3e} above {config.tol:.3e} after "
            f"{it} iterations", result=result)
    return result
