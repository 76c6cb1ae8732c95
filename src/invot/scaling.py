"""Matrix-scaling recovery of the cost matrix from an observed plan.

One outer iteration runs a single stabilised Sinkhorn sweep on the duals and
then projects the cost. The constraint splits as prox = tail(P(.)) with P
linear (`Constraint.split`), so P(L), L = -eps log pihat, is computed once:

    (alpha, beta) <- sweep(c);   c <- tail(P(L) + P(alpha + beta))

P(alpha + beta) has a closed form (`prox_sum`: h + h with a zero diagonal for
sym0, rank 2 for LinearAffinity) and the Box tail clamps in place. The sweep's
kernel is rebuilt in place as the plan of the new (alpha, beta, c); its K 1
serves the next row half-step, the objective_E trace and the residual.

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
from .sinkhorn import _log_plan, _Sweep
from .types import (
    CostMatrix,
    DualPotentials,
    ProbabilityVector,
    SolveReport,
    SolverConfig,
    TransportPlan,
    _error_to,
    _outer_sum,
    as_matrix,
)

_ZERO_SMOOTH_DELTA = 1e-12
_ZERO_REFUSAL = ("observed plan contains zero entries, which destroy "
                 "identifiability; opt in to delta-smoothing with "
                 "smooth_observed_zeros() (CLI: --smooth-zeros)")


@dataclass(frozen=True)
class InverseProblem:
    """An observed plan plus the constraint and solver configuration."""

    observed: TransportPlan
    constraint: Constraint
    config: SolverConfig
    smoothed: bool = False

    def __post_init__(self):
        if not self.observed.strictly_positive():
            raise ZeroObservation(_ZERO_REFUSAL)


def _normalized_plan(matrix) -> TransportPlan:
    """matrix / its total, with marginals the row and column sums / the total."""
    mat = as_matrix(matrix)
    if not mat.any():  # no total to divide by; refused like any zero entry
        raise ZeroObservation(_ZERO_REFUSAL)
    total = mat.sum()
    return TransportPlan(mat / total, ProbabilityVector(mat.sum(axis=1) / total),
                         ProbabilityVector(mat.sum(axis=0) / total), feas_tol=1e-6)


def smooth_observed_zeros(matrix) -> TransportPlan:
    """Replace zero plan entries with 1e-12 and renormalize.

    Opt-in repair for plans with empty cells; the result is flagged by the
    solver report. Marginals are recomputed from the smoothed matrix.
    """
    mat = np.array(as_matrix(matrix), dtype=float)
    mat[mat == 0] = _ZERO_SMOOTH_DELTA
    return _normalized_plan(mat)


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
    rel_err = None if truth is None else _error_to(truth, pihat.shape)
    c = np.zeros(pihat.shape) if c_init is None else np.array(as_matrix(c_init), dtype=float)
    c_next = np.empty_like(c)  # c and c_next swap roles: the loop allocates no m-by-n array
    L = -eps * np.log(pihat)
    head, tail = problem.constraint.split()
    PL = head.prox(L)

    obj_trace, err_trace, converged, it = [], [], False, 0
    t0 = time.perf_counter()
    sweep = _Sweep(c, mu, nu, eps, np.zeros(mu.size), np.zeros(nu.size))
    Kv = None  # K 1 of the current sweep (v = 1), reused by its row half-step
    while it < problem.config.max_iter:
        it += 1
        sweep.scale(1, Kv)
        sweep.scale(0)
        alpha, beta = sweep.duals()
        head.prox_sum(alpha, beta, out=c_next)
        c_next += PL
        for part in tail:
            part.prox_(c_next)
        # ||c - c_next||_F, bitwise np.linalg.norm, with c - c_next written into c
        delta = float(np.sqrt(np.vdot(np.subtract(c, c_next, out=c), c)))
        c, c_next = c_next, c
        sweep.reset(c, alpha, beta)
        Kv = sweep.K @ sweep.v
        with np.errstate(over="ignore"):  # +inf, as in objective_E
            obj_trace.append(float(-alpha @ mu - beta @ nu + np.vdot(c, pihat)
                                   + eps * Kv.sum()))
        if rel_err is not None:
            err_trace.append(rel_err(c))
            if target_rel_err is not None and err_trace[-1] <= target_rel_err:
                converged = True
                break
        if delta <= problem.config.tol:
            converged = True
            break

    duals = DualPotentials(alpha=alpha, beta=beta, epsilon=eps)
    affinity = (problem.constraint.affinity(_outer_sum(alpha, beta) + L)
                if isinstance(problem.constraint, LinearAffinity) else None)
    report = SolveReport(
        iterations=it,
        objective_trace=np.asarray(obj_trace),
        rel_err_trace=np.asarray(err_trace) if rel_err is not None else None,
        feasibility_residual=max(float(np.abs(Kv - mu).sum()),
                                 float(np.abs(sweep.K.sum(axis=0) - nu).sum())),
        converged=converged,
        wall_clock_seconds=time.perf_counter() - t0,
        extras={"smoothed_zeros": problem.smoothed, "absorptions": sweep.absorptions},
    )
    return InverseSolution(cost=CostMatrix(c), duals=duals, affinity=affinity,
                           report=report)
