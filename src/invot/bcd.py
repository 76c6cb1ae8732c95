"""Block coordinate descent on the log-sum-exp form of the inverse objective.

The objective here is

    F(alpha, beta, c) = -<alpha, mu> - <beta, nu> + <c, pihat>
                        + eps * log sum_ij e^{(alpha_i + beta_j - c_ij)/eps}

which shares its solution set with the plain exponential-sum objective but has
block gradients that are Lipschitz with constant 1/eps. The alpha and beta
blocks have closed-form minimizers; after each one the block is re-centered so
its sup-norm stays within the bounded-variation radius

    M_alpha = M_c + eps * log(mu_max / mu_min)   (M_beta analogous),

which keeps the whole iterate sequence inside a fixed box. The c block is
solved by projected gradient steps of Armijo size: eps / max(softmax), halved
until the objective decreases enough, but never below eps (= 1/L).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .constraints import Constraint
from .errors import BadBounds
from .scaling import InverseProblem, InverseSolution
from .sinkhorn import _log_plan, _plan_residual, _Sweep
from .types import CostMatrix, DualPotentials, SolveReport, _error_to, as_matrix


def _log_mass(alpha, beta, cost, eps) -> float:
    """eps log sum_ij e^{(alpha_i + beta_j - c_ij)/eps}, computed max-shifted."""
    z = _log_plan(alpha, beta, cost, eps)
    m = float(np.max(z))
    return eps * (m + float(np.log(np.exp(z - m).sum())))


@dataclass(frozen=True)
class BcdState:
    alpha: np.ndarray
    beta: np.ndarray
    cost: np.ndarray
    M_c: float
    M_alpha: float
    M_beta: float

    def norms_ok(self) -> bool:
        return (
            float(np.max(np.abs(self.alpha))) <= self.M_alpha + 1e-12
            and float(np.max(np.abs(self.beta))) <= self.M_beta + 1e-12
            and float(np.min(self.cost)) >= -1e-15
            and float(np.max(self.cost)) <= self.M_c + 1e-12
        )


def variation_bounds(problem: InverseProblem, M_c: float):
    """(M_alpha, M_beta) from the box bound M_c and the marginal spreads."""
    mu = problem.observed.row_marginal.values
    nu = problem.observed.col_marginal.values
    eps = problem.config.epsilon
    M_alpha = M_c + eps * float(np.log(mu.max() / mu.min()))
    M_beta = M_c + eps * float(np.log(nu.max() / nu.min()))
    return M_alpha, M_beta


def objective_F(alpha, beta, cost, problem: InverseProblem) -> float:
    """Max-shifted log-sum-exp form; total on finite inputs."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    c = as_matrix(cost)
    eps = problem.config.epsilon
    pihat = problem.observed.matrix
    mu = problem.observed.row_marginal.values
    nu = problem.observed.col_marginal.values
    return float(-alpha @ mu - beta @ nu + (c * pihat).sum()
                 + _log_mass(alpha, beta, c, eps))


def _center(vec):
    t = 0.5 * (float(vec.max()) + float(vec.min()))
    return vec - t


def bcd_alpha_update(state: BcdState, problem: InverseProblem) -> BcdState:
    """Exact alpha-block minimizer of F (a row half-step), then midpoint centering."""
    sweep = _Sweep(state.cost, problem.observed.row_marginal.values, None,
                   problem.config.epsilon, state.alpha, state.beta, axis=1)
    sweep.scale(1)
    return replace(state, alpha=_center(sweep.alpha + sweep.eps * np.log(sweep.u)))


def bcd_beta_update(state: BcdState, problem: InverseProblem) -> BcdState:
    """Exact beta-block minimizer of F (a column half-step), then midpoint centering."""
    sweep = _Sweep(state.cost, None, problem.observed.col_marginal.values,
                   problem.config.epsilon, state.alpha, state.beta, axis=0)
    sweep.scale(0)
    return replace(state, beta=_center(sweep.beta + sweep.eps * np.log(sweep.v)))


def _project_c(c, constraint: Constraint, M_c: float):
    return np.clip(constraint.prox(c), 0.0, M_c)


def _c_value(s, c, pihat, eps):
    """f(c) = <c, pihat> + eps lse((s - c)/eps) and its softmax p, by one exp."""
    z = (s - c) / eps
    m = float(z.max())
    p = np.exp(z - m, out=z)
    total = float(p.sum())
    p /= total
    return float((c * pihat).sum()) + eps * (m + float(np.log(total))), p


def bcd_c_update(state: BcdState, problem: InverseProblem,
                 inner_steps: int = 50, grad_tol: float = 1e-9) -> BcdState:
    """Projected gradient on the c block with Armijo steps, never below eps = 1/L.

    With s = alpha + beta and p = softmax((s - c)/eps), the block objective
    f(c) = <c, pihat> + eps lse((s - c)/eps) has gradient g = pihat - p and
    curvature at most max(p)/eps. A step tries t = eps / max(p) and halves t
    until c+ = proj(c - t g), onto [0, M_c] and the problem constraint, has
    f(c+) <= f(c) + <g, c+ - c> + |c+ - c|^2 / (2t); t = eps (1/L) always
    does, so it is the floor and no step raises f. Stops after inner_steps
    steps or at a step that moves c by at most grad_tol.
    """
    if inner_steps < 1:
        raise BadBounds("inner_steps must be at least 1")
    eps = problem.config.epsilon
    pihat = problem.observed.matrix
    s = state.alpha[:, None] + state.beta
    c = state.cost
    f, p = _c_value(s, c, pihat, eps)
    for _ in range(inner_steps):
        grad = pihat - p
        t = eps / float(p.max())
        while True:
            c_next = _project_c(c - t * grad, problem.constraint, state.M_c)
            d = c_next - c
            f_next, p_next = _c_value(s, c_next, pihat, eps)
            dd = float(np.vdot(d, d))
            if t <= eps or f_next <= f + float(np.vdot(grad, d)) + dd / (2 * t):
                break
            t = max(0.5 * t, eps)
        c, f, p = c_next, f_next, p_next
        if np.sqrt(dd) <= grad_tol:
            break
    return replace(state, cost=c)


def bcd_solve(problem: InverseProblem, M_c: float = 2.0, truth=None,
              state_log: Optional[List[BcdState]] = None) -> InverseSolution:
    """Run Algorithm-3-style BCD from c = 0; psi trace is recorded every iteration.

    ``state_log``, when supplied, receives the state of every iteration, not
    a copy: states are frozen (used by the boundedness checks).
    """
    if M_c <= 0:
        raise BadBounds("M_c must be positive")
    pihat = problem.observed.matrix
    m, n = pihat.shape
    eps = problem.config.epsilon
    M_alpha, M_beta = variation_bounds(problem, M_c)
    state = BcdState(alpha=np.zeros(m), beta=np.zeros(n),
                     cost=_project_c(np.zeros((m, n)), problem.constraint, M_c),
                     M_c=M_c, M_alpha=M_alpha, M_beta=M_beta)
    psi = []
    err_trace = []
    rel_err = None if truth is None else _error_to(truth, (m, n))
    converged = False
    it = 0
    t0 = time.perf_counter()
    while it < problem.config.max_iter:
        it += 1
        c_prev = state.cost
        state = bcd_alpha_update(state, problem)
        state = bcd_beta_update(state, problem)
        state = bcd_c_update(state, problem)
        psi.append(objective_F(state.alpha, state.beta, state.cost, problem))
        if rel_err is not None:
            err_trace.append(rel_err(state.cost))
        if state_log is not None:
            state_log.append(state)
        if float(np.linalg.norm(state.cost - c_prev)) <= problem.config.tol:
            converged = True
            break
    # F is invariant under alpha + t; return the representative whose
    # e^{(alpha + beta - c)/eps} is the model plan, of total mass 1
    alpha = state.alpha - _log_mass(state.alpha, state.beta, state.cost, eps)
    report = SolveReport(
        iterations=it,
        objective_trace=np.asarray(psi),
        rel_err_trace=np.asarray(err_trace) if rel_err is not None else None,
        feasibility_residual=_plan_residual(
            alpha, state.beta, state.cost, problem.observed.row_marginal.values,
            problem.observed.col_marginal.values, eps),
        converged=converged,
        wall_clock_seconds=time.perf_counter() - t0,
        extras={"M_c": M_c, "M_alpha": M_alpha, "M_beta": M_beta},
    )
    duals = DualPotentials(alpha=alpha, beta=state.beta, epsilon=eps)
    return InverseSolution(cost=CostMatrix(state.cost), duals=duals,
                           affinity=None, report=report)


def rate_bound_constant(D2: float, psi0: float, psi_ref: float) -> float:
    """Constant for the sublinear Psi_k - Psi* <= C/k probe.

    D2 = m*M_alpha^2 + n*M_beta^2 + m*n*M_c^2. The first candidate term
    2/(9*D2) - 2 is truncated at zero; the envelope over candidates is taken
    as a maximum so the bound stays meaningful when D2 > 1/9. The O(1/k) rate
    needs only c-block steps >= 1/L with sufficient decrease, which the Armijo
    steps give (Beck & Tetruashvili, SIAM J. Optim. 2013).
    """
    first = max(2.0 / (9.0 * D2) - 2.0, 0.0)
    return 18.0 * D2 * max(first, 2.0, psi0 - psi_ref)


def lipschitz_probe(a, b, samples: int = 10000, seed: int = 0,
                    radius: float = 10.0) -> float:
    """Max sampled gradient ratio for f(x) = <a,x> + log sum_i b_i e^{x_i}.

    The ratio must not exceed 1 (up to rounding); the linear part cancels in
    gradient differences, leaving a softmax difference.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(b <= 0):
        raise BadBounds("b must be strictly positive")
    n = b.size
    if n == 1:
        return 0.0
    rng = np.random.default_rng(seed)
    log_b = np.log(b)

    def grad(x):
        z = x + log_b
        z = z - z.max()
        w = np.exp(z)
        return w / w.sum()

    worst = 0.0
    for _ in range(samples):
        x = rng.uniform(-radius, radius, size=n)
        y = rng.uniform(-radius, radius, size=n)
        denom = float(np.linalg.norm(x - y))
        if denom == 0:
            continue
        ratio = float(np.linalg.norm(grad(x) - grad(y))) / denom
        worst = max(worst, ratio)
    return worst
