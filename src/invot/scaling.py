"""Matrix-scaling recovery of the cost matrix from an observed plan.

One outer iteration runs a single stabilised Sinkhorn sweep on the duals
(absorbed every iteration, since c changes) and then projects the cost:

    (alpha, beta) <- sweep(c);   c <- prox(alpha + beta - eps log pihat)

Only c/eps is identifiable, so solving at eps = 1 recovers c/eps_true.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constraints import Constraint, LinearAffinity
from .errors import BadBounds, ZeroObservation
from .sinkhorn import _log_plan, _plan_residual, _Sweep
from .types import (
    CostMatrix,
    DualPotentials,
    ProbabilityVector,
    SolveReport,
    SolverConfig,
    TransportPlan,
    as_matrix,
    relative_error,
)

_ZERO_SMOOTH_DELTA = 1e-12


@dataclass(frozen=True)
class InverseProblem:
    """An observed plan plus the constraint and solver configuration."""

    observed: TransportPlan
    constraint: Constraint
    config: SolverConfig
    smoothed: bool = False

    def __post_init__(self):
        if not self.observed.strictly_positive():
            raise ZeroObservation(
                "observed plan contains zero entries, which destroy "
                "identifiability; use smooth_observed_zeros() to opt in to "
                "delta-smoothing")


def smooth_observed_zeros(matrix, mu: ProbabilityVector, nu: ProbabilityVector,
                          feas_tol: float = 1e-6) -> TransportPlan:
    """Replace zero plan entries with 1e-12 and renormalize.

    Opt-in repair for plans with empty cells; the result is flagged by the
    solver report. Marginals are recomputed from the smoothed matrix.
    """
    mat = np.array(as_matrix(matrix), dtype=float)
    mat[mat == 0] = _ZERO_SMOOTH_DELTA
    mat /= mat.sum()
    mu_s = ProbabilityVector(mat.sum(axis=1) / mat.sum())
    nu_s = ProbabilityVector(mat.sum(axis=0) / mat.sum())
    return TransportPlan(mat, mu_s, nu_s, feas_tol=max(feas_tol, 1e-6))


@dataclass(frozen=True)
class InverseSolution:
    cost: CostMatrix
    duals: DualPotentials
    affinity: Optional[np.ndarray]
    report: SolveReport


def objective_E(alpha, beta, cost, problem: InverseProblem) -> float:
    """-<alpha,mu> - <beta,nu> + <c,pihat> + eps * sum e^{(alpha_i+beta_j-c_ij)/eps}.

    Total on finite inputs: +inf where the exponential sum overflows.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    c = as_matrix(cost)
    eps = problem.config.epsilon
    pihat = problem.observed.matrix
    mu = problem.observed.row_marginal.values
    nu = problem.observed.col_marginal.values
    with np.errstate(over="ignore"):
        z = _log_plan(alpha, beta, c, eps)
        s = eps * float(np.exp(z, out=z).sum())
    return float(-alpha @ mu - beta @ nu + (c * pihat).sum() + s)


def set_epsilon_one(problem: InverseProblem) -> InverseProblem:
    """Return the same problem with eps = 1; the result is read as c/eps_true."""
    config = dataclasses.replace(problem.config, epsilon=1.0)
    return dataclasses.replace(problem, config=config)


def learn_cost(problem: InverseProblem, c_init=None, truth=None,
               target_rel_err=None) -> InverseSolution:
    """Run the matrix-scaling cost-learning loop until the cost stabilizes.

    Converged means the Frobenius change of c between outer iterations fell
    below config.tol. When ``truth`` is given, a relative-error trace against
    it is recorded in the report; ``target_rel_err`` additionally stops the
    loop once that error drops to the target (time-to-target benchmarking).
    """
    if target_rel_err is not None and truth is None:
        raise BadBounds("target_rel_err requires a reference cost")
    pihat = problem.observed.matrix
    mu = problem.observed.row_marginal.values
    nu = problem.observed.col_marginal.values
    eps = problem.config.epsilon
    c = np.zeros(pihat.shape) if c_init is None else np.array(as_matrix(c_init), dtype=float)
    L = -eps * np.log(pihat)
    alpha, beta = np.zeros(mu.size), np.zeros(nu.size)
    truth_mat = None if truth is None else as_matrix(truth)

    obj_trace = []
    err_trace = []
    converged = False
    it = 0
    t0 = time.perf_counter()
    while it < problem.config.max_iter:
        it += 1
        sweep = _Sweep(c, mu, nu, eps, alpha, beta)
        sweep.scale(1)
        sweep.scale(0)
        alpha, beta = sweep.duals()
        chat = np.add.outer(alpha, beta) + L
        c_new = problem.constraint.prox(chat)
        delta = float(np.linalg.norm(c_new - c))
        c = c_new
        if it % problem.config.log_every == 0 or delta <= problem.config.tol:
            obj_trace.append(objective_E(alpha, beta, c, problem))
            if truth_mat is not None:
                err_trace.append(relative_error(c, truth_mat))
                if target_rel_err is not None and err_trace[-1] <= target_rel_err:
                    converged = True
                    break
        if delta <= problem.config.tol:
            converged = True
            break

    duals = DualPotentials(alpha=alpha, beta=beta, epsilon=eps)
    affinity = None
    if isinstance(problem.constraint, LinearAffinity):
        affinity = problem.constraint.affinity(chat)
    report = SolveReport(
        iterations=it,
        objective_trace=np.asarray(obj_trace),
        rel_err_trace=np.asarray(err_trace) if truth_mat is not None else None,
        feasibility_residual=_plan_residual(alpha, beta, c, mu, nu, eps),
        converged=converged,
        wall_clock_seconds=time.perf_counter() - t0,
        extras={"smoothed_zeros": problem.smoothed},
    )
    return InverseSolution(cost=CostMatrix(c), duals=duals, affinity=affinity,
                           report=report)
