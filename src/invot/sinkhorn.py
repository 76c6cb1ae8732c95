"""Entropy-regularized forward OT via Sinkhorn matrix scaling.

All matrix scaling in the package (this solve, ``learn_cost`` and the BCD
dual blocks) runs one absorption-stabilised sweep, `_Sweep` (Schmitzer,
arXiv:1610.06519; Peyre & Cuturi, arXiv:1803.00567, sec. 4.4). This solve
absorbs, in every mode, once a scaling leaves [e^-100, e^100] or a half-step
under/overflows; ``mode`` picks only the starting kernel: row-max-shifted for
``"log"``, else plain (``"direct"`` is the benchmark's spelling of ``"auto"``).

This solve's sweep is a fixed-point map of y = eps log v (the row half-step
overwrites u), and both it and ``learn_cost`` accelerate their maps by one
`_Anderson` mixer. A candidate y is tried as v = e^{y/eps} against the
current kernel, with no rebuild of K: an iteration costs two m-by-n
matrix-vector products, and a third, K e^{y/eps}, when it tries a candidate.
Its traces reuse them: the plan diag(u) K diag(v) has mass u . (K v). The
returned plan is that product, built in K's buffer.
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

_MEMORY = 5  # Anderson memory of every scaling loop


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


class _Anderson:
    """Type-II Anderson mixing with memory 5 (Walker & Ni, SIAM J. Numer. Anal.
    49, 2011) of a fixed-point map G.

    ``mix(x, g)`` records g = G(x) and returns x' = g - dG gamma, gamma from the
    ridged k-by-k normal equations of the last differences dF of f = g - x; it
    returns g itself while there are no differences. A guard that refuses x'
    (Zhang, O'Donoghue & Boyd, arXiv:1808.03971) calls ``restart``, which
    clears the differences but keeps the last (g, f), and takes the plain step.
    """

    def __init__(self, size):
        self.dG, self.dF = np.empty((_MEMORY, size)), np.empty((_MEMORY, size))
        self.g = self.f = None
        self.pushes = 0

    def mix(self, x, g):
        f = None if x is None else g - x
        if self.f is not None:
            np.subtract(g, self.g, out=self.dG[self.pushes % _MEMORY])
            np.subtract(f, self.f, out=self.dF[self.pushes % _MEMORY])
            self.pushes += 1
        self.g, self.f = g, f
        if not self.pushes:
            return g
        # gamma = argmin ||f - dF^T gamma||; tiny keeps A regular at dF = 0
        k = min(self.pushes, _MEMORY)
        A = self.dF[:k] @ self.dF[:k].T
        A.flat[::k + 1] += 1e-12 * A.trace() + 1e-300
        return g - np.linalg.solve(A, self.dF[:k] @ f) @ self.dG[:k]

    def restart(self):
        self.pushes = 0


@dataclass(frozen=True)
class SinkhornResult:
    """Duals, plan and report; objective_trace[-1] is `dual_objective` to rounding."""

    duals: DualPotentials
    plan: TransportPlan
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
    ``learn_cost`` and ``bcd_solve`` do. The returned plan is the product the
    last residual was measured on; it is checked against that residual (twice
    it when not converged) plus summation rounding, and its own measured
    residual is ``report.feasibility_residual``.

    The sweep is Anderson-accelerated (`_Anderson`) on y = eps log v. A
    candidate is refused for the plain step, which clears the memory, when its
    scaling would leave [e^-100, e^100] (so a candidate never absorbs or
    overflows) or when it lowers the semi-dual max_alpha D(alpha, beta) below
    the plain step's: every plain sweep raises that concave function, so each
    guarded iteration ascends at least as far as a plain sweep from its start.
    ``extras["anderson_restarts"]`` counts the refusals,
    ``extras["absorptions"]`` the absorptions; ``extras["log_domain"]`` says
    whether the latter is nonzero.
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
    mixer = _Anderson(nu.dim)
    x = np.zeros(nu.dim)  # eps log v that the iteration starts from, against K

    def semidual(y, Ky):
        """The semi-dual at v = e^{y/eps}, Ky = K v, less terms that K fixes;
        and the size of its terms, which bounds its rounding."""
        with np.errstate(divide="ignore"):  # K v = 0 gives +inf, refused
            a, b = float(nu.values @ y), eps * float(mu.values @ np.log(Ky))
        return a - b, abs(a) + abs(b)

    obj_trace = []
    res_trace = []
    converged = False
    it = restarts = 0
    Kv = None  # K v of the last plan, reused by the next row half-step
    while it < config.max_iter:
        it += 1
        absorptions = sweep.absorptions
        sweep.scale(1, Kv)
        Ktu = sweep.scale(0)
        Kv = sweep.K @ sweep.v
        residual = max(float(np.abs(sweep.u * Kv - mu.values).sum()),
                       float(np.abs(sweep.v * Ktu - nu.values).sum()))
        obj_trace.append(_dual_value(*sweep.duals(), mu, nu, eps, sweep.u @ Kv))
        res_trace.append(residual)
        if residual <= config.tol:
            converged = True
            break
        # the last iterate is returned as measured: it neither absorbs nor mixes
        if it == config.max_iter:
            break
        # the band e^{+-100} is well inside the float range (e^709)
        if max(np.abs(np.log(s)).max() for s in (sweep.u, sweep.v)) > 100:
            sweep.absorb(axis=1)
            Kv = None
        if sweep.absorptions != absorptions:  # the memory is against an older K
            mixer, x = _Anderson(nu.dim), None
        g = eps * np.log(sweep.v)
        x = mixer.mix(x, g)
        if mixer.pushes:
            # the candidate's scaling must stay in the band, and it must not
            # lower the semi-dual below the plain step's by more than rounding
            accept = np.abs(x).max() <= 100 * eps
            if accept:
                vx = np.exp(x / eps)
                Kx = sweep.K @ vx
                phi, size = semidual(g, Kv)
                accept = phi - 1e-13 * size <= semidual(x, Kx)[0] < np.inf
            if accept:
                sweep.v, Kv = vx, Kx
            else:
                restarts, x = restarts + 1, g
                mixer.restart()

    duals = DualPotentials(*sweep.duals(), epsilon=eps)
    pi = sweep.K  # diag(u) K diag(v), whose residual was measured, in K's buffer
    pi *= sweep.u[:, None]
    pi *= sweep.v
    # a row or column sum of pi rounds apart from the loop's u * (K v) and
    # v * (K^T u) by at most about m + n units in the last place of the mass 1
    feas_tol = (max(residual * (1.01 if converged else 2.0), config.tol)
                + (mu.dim + nu.dim) * np.finfo(float).eps)
    plan = TransportPlan(pi, mu, nu, feas_tol=feas_tol)
    report = SolveReport(
        iterations=it,
        objective_trace=np.asarray(obj_trace),
        rel_err_trace=None,
        feasibility_residual=max(plan.row_residual, plan.col_residual),
        converged=converged,
        wall_clock_seconds=time.perf_counter() - t0,
        extras={"log_domain": sweep.absorptions > 0, "absorptions": sweep.absorptions,
                "anderson_restarts": restarts, "residual_trace": np.asarray(res_trace)},
    )
    return SinkhornResult(duals=duals, plan=plan, report=report)
