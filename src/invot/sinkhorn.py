"""Entropy-regularized forward OT via Sinkhorn matrix scaling.

All matrix scaling in the package (this solve, ``learn_cost`` and the BCD
dual blocks) runs one absorption-stabilised sweep, `_Sweep` (Schmitzer,
arXiv:1610.06519; Peyre & Cuturi, arXiv:1803.00567, sec. 4.4). ``mode`` sets
when this solve absorbs: ``"direct"`` never, so a scaling that under/overflows
raises NumericalOverflow; ``"auto"`` once a scaling leaves [e^-100, e^100] or
under/overflows; ``"log"`` starts from a row-max-shifted kernel and then
absorbs like ``"auto"``.

An iteration costs two m-by-n matrix-vector products, and its traces reuse
them: the plan diag(u) K diag(v) has mass u . (K v). Outside `_Sweep._build`
the only m-by-n exp is `plan_from_duals`: the returned plan, `dual_objective`
and the BCD feasibility residual.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NumericalOverflow
from .types import (
    DualPotentials,
    ProbabilityVector,
    SolveReport,
    SolverConfig,
    TransportPlan,
    _outer_sum,
    as_matrix,
)


def _log_plan(alpha, beta, cost, eps, out=None) -> np.ndarray:
    """The log-plan (alpha_i + beta_j - c_ij)/eps, in out or one new array."""
    z = _outer_sum(alpha, beta, out)
    z -= cost
    z /= eps
    return z


class _Sweep:
    """Scalings (u, v) against K = e^{(alpha + beta - c)/eps}; plan diag(u) K diag(v).

    Absorbing folds eps log u, eps log v into (alpha, beta), resets u = v = 1
    and rebuilds K. Given ``axis`` (1: rows, 0: columns) it shifts that side's
    duals so that K has maximum 1 along the axis: the half-step on that side,
    which must come next, cancels the shift and cannot under/overflow. So a
    half-step that under/overflows absorbs that way and retries. Every
    rebuild, and `reset` to a new (c, alpha, beta), reuses K's buffer.
    """

    def __init__(self, cost, mu, nu, eps, alpha, beta, axis=None):
        self.mu, self.nu, self.eps, self.K, self.absorptions = mu, nu, eps, None, 0
        self.reset(cost, alpha, beta, axis)

    def reset(self, cost, alpha, beta, axis=None):
        self.c, self.alpha, self.beta = cost, alpha, beta
        self._build(axis)

    def duals(self):
        return (self.alpha + self.eps * np.log(self.u),
                self.beta + self.eps * np.log(self.v))

    def absorb(self, axis=None):
        self.alpha, self.beta = self.duals()
        self._build(axis)

    def _build(self, axis):
        self.u, self.v = np.ones(self.alpha.size), np.ones(self.beta.size)
        z = _log_plan(self.alpha, self.beta, self.c, self.eps, out=self.K)
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


@dataclass(frozen=True)
class SinkhornResult:
    duals: DualPotentials
    plan: TransportPlan
    dual_objective: float
    report: SolveReport


def plan_from_duals(duals: DualPotentials, cost) -> np.ndarray:
    """Raw closed-form plan pi_ij = e^{(alpha_i + beta_j - c_ij)/eps}.

    No marginal feasibility is implied; wrap the result in a TransportPlan to
    check it.
    """
    z = _log_plan(duals.alpha, duals.beta, as_matrix(cost), duals.epsilon)
    if np.max(z) > 700:
        i, j = np.unravel_index(int(np.argmax(z)), z.shape)
        raise NumericalOverflow(f"exponent {z[i, j]:.1f} at ({i}, {j}) exceeds 700")
    return np.exp(z, out=z)


def dual_objective(duals: DualPotentials, cost, mu: ProbabilityVector,
                   nu: ProbabilityVector) -> float:
    """<alpha, mu> + <beta, nu> - eps * sum e^{(alpha_i + beta_j - c_ij)/eps}."""
    with np.errstate(over="raise"):
        try:
            mass = float(plan_from_duals(duals, cost).sum())
        except FloatingPointError:
            raise NumericalOverflow("exponential sum overflows in dual objective")
    return _dual_value(duals.alpha, duals.beta, mu, nu, duals.epsilon, mass)


def _dual_value(alpha, beta, mu, nu, eps, mass) -> float:
    """<alpha, mu> + <beta, nu> - eps * mass, where mass sums the plan of (alpha, beta)."""
    return float(alpha @ mu.values + beta @ nu.values - eps * mass)


def sinkhorn_solve(cost, mu: ProbabilityVector, nu: ProbabilityVector,
                   config: SolverConfig, mode: str = "auto") -> SinkhornResult:
    """Solve entropy-regularized OT; returns duals, feasible plan, and report.

    Convergence is declared when both L1 marginal residuals of the current
    plan fall below config.tol. When the iteration budget runs out first, the
    last iterate is returned with ``report.converged`` False, as
    ``learn_cost`` and ``bcd_solve`` do; its plan is checked against twice
    the final residual. ``extras["absorptions"]`` counts absorptions;
    ``extras["log_domain"]`` says whether it is nonzero.
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
        obj_trace.append(_dual_value(*sweep.duals(), mu, nu, eps, sweep.u @ Kv))
        res_trace.append(residual)
        if residual <= config.tol:
            converged = True
            break
        # the band e^{+-100} is well inside the float range (e^709); the last
        # iteration does not absorb, as only a next row half-step ends its shift
        if it < config.max_iter and mode != "direct" and max(
                np.abs(np.log(s)).max() for s in (sweep.u, sweep.v)) > 100:
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
        extras={"log_domain": sweep.absorptions > 0, "absorptions": sweep.absorptions,
                "residual_trace": np.asarray(res_trace)},
    )
    feas_tol = max(residual * (1.01 if converged else 2.0), config.tol)
    plan = TransportPlan(plan_from_duals(duals, c), mu, nu, feas_tol=feas_tol)
    value = _dual_value(duals.alpha, duals.beta, mu, nu, eps, float(plan.matrix.sum()))
    return SinkhornResult(duals=duals, plan=plan, dual_objective=value, report=report)
