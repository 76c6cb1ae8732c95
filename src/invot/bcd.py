"""Block coordinate descent on the log-sum-exp form of the inverse objective.

The objective here is

    F(alpha, beta, c) = -<alpha, mu> - <beta, nu> + <c, pihat>
                        + eps * log sum_ij e^{(alpha_i + beta_j - c_ij)/eps}

which shares its solution set with the plain exponential-sum objective but has
block gradients that are Lipschitz with constant 1/eps. The alpha and beta
blocks have closed-form minimizers; after each one the block is re-centered so
its sup-norm stays within the bounded-variation radius

    M_alpha = M_c + eps * log(mu_max / mu_min)   (M_beta analogous),

which keeps the whole iterate sequence inside a fixed box. The c block is solved
inexactly by gradient steps of Armijo size, projected by the prox of
Composite([constraint, Box(0, M_c)]): the first tries eps / max(softmax), later ones
the Barzilai-Borwein secant step, each halved until the objective decreases enough,
but never below eps (= 1/L). The block ends at the first step that moves c by at
most a fixed fraction of its first step, or whose decrease is within rounding. The
first step is always taken, and one sufficient-decrease step of size >= 1/L per
block is all the O(1/k) rate of `rate_bound_constant` needs (Beck & Tetruashvili,
SIAM J. Optim. 2013); the steps after it only add decrease.

Every exp here but the alpha and beta blocks' (`_Sweep`) is the one in `_lse`; the
last one's softmax is the returned duals' model plan, whose marginals give the residual.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .constraints import Box, Composite
from .errors import BadBounds
from .scaling import InverseProblem, InverseSolution
from .sinkhorn import _log_plan, _Sweep
from .types import CostMatrix, DualPotentials, SolveReport, _error_to, as_matrix


def _lse(z, axis=None):
    """Max-shifted log sum exp(z) along axis and the softmax, by one exp into z."""
    keep = axis is not None  # scalars when axis is None: cheapest at BCD's sizes
    m = z.max(axis=axis, keepdims=keep)
    p = np.exp(z - m, out=z)
    total = p.sum(axis=axis, keepdims=keep)
    p /= total
    return m + np.log(total), p


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
    """f of `_c_value` less <alpha, mu> + <beta, nu>; total on finite inputs."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    observed = problem.observed
    f = _c_value(alpha[:, None] + beta, as_matrix(cost), observed.matrix,
                 problem.config.epsilon)[0]
    return float(f - alpha @ observed.row_marginal.values
                 - beta @ observed.col_marginal.values)


def _center(vec):
    t = 0.5 * (float(vec.max()) + float(vec.min()))
    return vec - t


def bcd_alpha_update(state: BcdState, problem: InverseProblem) -> BcdState:
    """Exact alpha-block minimizer of F (a row half-step), then midpoint centering."""
    sweep = _Sweep(state.cost, problem.observed.row_marginal.values, None,
                   problem.config.epsilon, state.alpha, state.beta, axis=1)
    sweep.scale(1)
    return replace(state, alpha=_center(sweep.duals()[0]))


def bcd_beta_update(state: BcdState, problem: InverseProblem) -> BcdState:
    """Exact beta-block minimizer of F (a column half-step), then midpoint centering."""
    sweep = _Sweep(state.cost, None, problem.observed.col_marginal.values,
                   problem.config.epsilon, state.alpha, state.beta, axis=0)
    sweep.scale(0)
    return replace(state, beta=_center(sweep.duals()[1]))


def _c_value(s, c, pihat, eps):
    """f(c) = <c, pihat> + eps lse((s - c)/eps), the size of its two terms
    (which bounds its rounding) and its softmax p, by one exp."""
    lin = float((c * pihat).sum())
    lse, p = _lse((s - c) / eps)
    return lin + eps * lse, abs(lin) + eps * abs(lse), p


# a c block ends at the first step that moves c by at most this fraction of
# its first step; 0.3 came from a scan of n = 8, 16, 32 instances
_EXIT_FRACTION = 0.3
_ROUNDING = float(np.finfo(float).eps)


def bcd_c_update(state: BcdState, problem: InverseProblem) -> BcdState:
    """Inexact projected gradient on the c block, Armijo steps never below eps = 1/L.

    With s = alpha + beta and p = softmax((s - c)/eps), the block objective
    f(c) = <c, pihat> + eps lse((s - c)/eps) has gradient g = pihat - p and
    curvature at most max(p)/eps. The first step tries t = eps / max(p),
    later ones the Barzilai-Borwein step |dc|^2 / <dc, dg> (eps / max(p)
    where that is not positive). t is halved until c+ = proj(c - t g), by the
    prox of Composite([constraint, Box(0, M_c)]), has f(c+) <= f(c) + <g, c+ - c> +
    |c+ - c|^2 / (2t) up to a rise of rounding size (1e-13 of f's terms);
    t = eps (1/L) always passes, so it is the floor.

    The block ends at the first step that moves c by at most _EXIT_FRACTION
    of the first step's move, or that lowers f by no more than one rounding
    unit of its terms; the second exit makes every block finite. The first
    step is always taken, and it is the one sufficient-decrease step of size
    >= 1/L per block that the O(1/k) rate of `rate_bound_constant` rests on;
    the steps after it only lower f further. Returns the new state and f there.
    """
    eps = problem.config.epsilon
    pihat = problem.observed.matrix
    project = Composite([problem.constraint, Box(0.0, state.M_c)]).prox
    s = state.alpha[:, None] + state.beta
    c = state.cost
    f, size, p = _c_value(s, c, pihat, eps)
    grad = pihat - p
    t = eps / float(p.max())
    exit_move = None
    while True:
        while True:
            c_next = project(c - t * grad)
            d = c_next - c
            f_next, size_next, p_next = _c_value(s, c_next, pihat, eps)
            dd = float(np.vdot(d, d))
            if t <= eps or (f_next <= f + float(np.vdot(grad, d)) + dd / (2 * t)
                            + 1e-13 * size):
                break
            t = max(0.5 * t, eps)
        move = np.sqrt(dd)
        if exit_move is None:
            exit_move = _EXIT_FRACTION * move
        if not (move > exit_move and f - f_next > _ROUNDING * size):
            return replace(state, cost=c_next), f_next
        grad_next = pihat - p_next
        curvature = float(np.vdot(d, grad_next - grad))
        t = max(dd / curvature, eps) if curvature > 0 else eps / float(p_next.max())
        c, f, size, p, grad = c_next, f_next, size_next, p_next, grad_next


def bcd_solve(problem: InverseProblem, M_c: float = 2.0, truth=None,
              state_log: Optional[List[BcdState]] = None) -> InverseSolution:
    """Run Algorithm-3-style BCD from c = 0; psi trace is recorded every iteration.

    Converged means the Frobenius change of c between outer iterations fell
    to max(config.tol, 4 * machine epsilon * ||c||_F): below that floor c's
    moves hover in rounding noise (1-2.4 epsilons on random 5x5 sym0+box plans).

    ``state_log``, when supplied, receives the state of every iteration, not
    a copy: states are frozen (used by the boundedness checks).
    """
    if not M_c > 0:
        raise BadBounds("M_c must be positive")
    m, n = problem.observed.shape
    eps = problem.config.epsilon
    mu, nu = problem.observed.row_marginal.values, problem.observed.col_marginal.values
    M_alpha, M_beta = variation_bounds(problem, M_c)
    cost = Composite([problem.constraint, Box(0.0, M_c)]).prox(np.zeros((m, n)))
    state = BcdState(alpha=np.zeros(m), beta=np.zeros(n), cost=cost,
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
        state, f = bcd_c_update(state, problem)
        psi.append(float(f - state.alpha @ mu - state.beta @ nu))  # objective_F
        if rel_err is not None:
            err_trace.append(rel_err(state.cost))
        if state_log is not None:
            state_log.append(state)
        if float(np.linalg.norm(state.cost - c_prev)) <= max(
                problem.config.tol, 4 * _ROUNDING * float(np.linalg.norm(state.cost))):
            converged = True
            break
    # F is invariant under alpha + t; return the representative whose model
    # plan e^{(alpha + beta - c)/eps} has total mass 1, which is the softmax
    lse, plan = _lse(_log_plan(state.alpha, state.beta, state.cost, eps))
    duals = DualPotentials(alpha=state.alpha - eps * lse, beta=state.beta, epsilon=eps)
    report = SolveReport(
        iterations=it,
        objective_trace=np.asarray(psi),
        rel_err_trace=np.asarray(err_trace) if rel_err is not None else None,
        feasibility_residual=max(
            float(np.abs(plan.sum(axis=1) - mu).sum()),
            float(np.abs(plan.sum(axis=0) - nu).sum())),
        converged=converged,
        wall_clock_seconds=time.perf_counter() - t0,
        extras={"M_c": M_c, "M_alpha": M_alpha, "M_beta": M_beta},
    )
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


def lipschitz_probe(b, samples: int = 10000, seed: int = 0) -> float:
    """Max sampled gradient ratio for f(x) = log sum_i b_i e^{x_i}.

    Pairs x, y are drawn uniformly from [-10, 10]^n. The ratio must not
    exceed 1 (up to rounding). A linear term <a, x> added to f would cancel
    in gradient differences, so the probe bounds <a, x> + f for every a.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(b > 0):
        raise BadBounds("b must be strictly positive")
    xy = np.random.default_rng(seed).uniform(-10.0, 10.0, size=(samples, 2, b.size))
    grad = _lse(xy + np.log(b), axis=2)[1]
    ratio = (np.linalg.norm(grad[:, 0] - grad[:, 1], axis=1)
             / np.linalg.norm(xy[:, 0] - xy[:, 1], axis=1))
    return float(ratio.max(initial=0.0))
