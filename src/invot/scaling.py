"""Matrix-scaling recovery of the cost matrix from an observed plan.

One outer iteration runs a single stabilised Sinkhorn sweep on the duals and
then projects the cost. The constraint splits as prox = tail(P(.)) with P
linear (`Constraint.split`), so P(L), L = -eps log pihat, is computed once:

    (alpha, beta) <- sweep(c);   c <- tail(P(L) + P(alpha + beta))

P(alpha + beta) has a closed form (`prox_sum`: h + h with a zero diagonal for sym0,
rank 2 for LinearAffinity), and the tail (one clamp per run of boxes, `Composite`)
runs in place. The sweep's kernel is rebuilt in place as the plan of the new (alpha,
beta, c); its K 1 serves the next row half-step, the objective_E trace and residual.

So the loop is a fixed-point map G of x = (alpha, beta) alone, which
`learn_cost` accelerates in the gauge mean(alpha) = mean(beta) by the type-II
Anderson mixer that the forward solve also uses (`sinkhorn._Anderson`). Unlike
the forward solve, each candidate x costs a full sweep reset to (c(x), x).
The box clamp makes G nonsmooth, so a guard refuses a candidate that raises
objective_E, clears the memory and takes the plain step x = g.

Only c/eps is identifiable, so solving at eps = 1 recovers c/eps_true.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constraints import Constraint, LinearAffinity
from .errors import BadBounds, ZeroObservation
from .sinkhorn import _Anderson, _dual_value, _log_plan, _Sweep
from .types import (
    CostMatrix,
    DualPotentials,
    ProbabilityVector,
    SolveReport,
    SolverConfig,
    TransportPlan,
    _error_to,
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

    Opt-in repair for plans with empty cells; the CLI flags its use in
    report.json. Marginals are recomputed from the smoothed matrix.
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
    observed = problem.observed
    with np.errstate(over="ignore"):
        z = _log_plan(alpha, beta, c, eps)
        mass = float(np.exp(z, out=z).sum())
    return float((c * observed.matrix).sum()) - _dual_value(
        alpha, beta, observed.row_marginal, observed.col_marginal, eps, mass)


def learn_cost(problem: InverseProblem, c_init=None, truth=None,
               target_rel_err=None) -> InverseSolution:
    """Run the matrix-scaling cost-learning loop until the cost stabilizes.

    Converged means the Frobenius change of c between outer iterations fell
    below config.tol. When ``truth`` is given, a relative-error trace against
    it is recorded in the report; ``target_rel_err`` additionally stops the
    loop once that error drops to the target (time-to-target benchmarking).

    The returned duals are in the gauge mean(alpha) = mean(beta), and the
    returned cost is built from them. ``extras["anderson_restarts"]`` counts
    the extrapolated steps that the objective_E guard refused.
    """
    if target_rel_err is not None and truth is None:
        raise BadBounds("target_rel_err requires a reference cost")
    if target_rel_err is not None and not 0 < target_rel_err < np.inf:
        raise BadBounds(f"target_rel_err must be in (0, inf), not {target_rel_err}")
    pihat = problem.observed.matrix
    mu = problem.observed.row_marginal.values
    nu = problem.observed.col_marginal.values
    eps = problem.config.epsilon
    m, n = pihat.shape
    rel_err = None if truth is None else _error_to(truth, pihat.shape)
    c = np.zeros(pihat.shape) if c_init is None else np.array(as_matrix(c_init), dtype=float)
    c_next = np.empty_like(c)  # c and c_next swap roles: the loop allocates no m-by-n array
    L = -eps * np.log(pihat)
    head, tail = problem.constraint.split()
    PL = head.prox(L)

    def settle(x, out):
        """c(x) into out and the sweep reset to (c(x), x); returns K 1, objective_E."""
        alpha, beta = x[:m], x[m:]
        head.prox_sum(alpha, beta, out=out)
        out += PL
        for part in tail:
            part.prox_(out)
        sweep.reset(out, alpha, beta)
        Kv = sweep.K @ sweep.v
        with np.errstate(over="ignore"):  # +inf, as in objective_E
            return Kv, float(-alpha @ mu - beta @ nu + np.vdot(out, pihat)
                             + eps * Kv.sum())

    mixer = _Anderson(m + n)  # of x = (alpha, beta)
    # g + (weight @ g) * shift has mean(alpha) = mean(beta) and the same alpha + beta
    shift = np.concatenate((np.ones(m), -np.ones(n)))
    weight = np.concatenate((np.full(m, -0.5 / m), np.full(n, 0.5 / n)))
    x = None
    obj_trace, err_trace, converged = [], [], False
    it = restarts = 0
    t0 = time.perf_counter()
    sweep = _Sweep(c, mu, nu, eps, np.zeros(m), np.zeros(n))
    Kv = None  # K 1 of the current sweep (v = 1), reused by its row half-step
    while it < problem.config.max_iter:
        it += 1
        sweep.scale(1, Kv)
        sweep.scale(0)
        g = np.concatenate(sweep.duals())
        g += (weight @ g) * shift
        x = mixer.mix(x, g)
        Kv, E = settle(x, c_next)
        # the guard: an extrapolated x that raises objective_E is refused
        if mixer.pushes and not E <= obj_trace[-1] + 1e-13 * abs(obj_trace[-1]):
            restarts, x = restarts + 1, g
            mixer.restart()
            Kv, E = settle(x, c_next)
        obj_trace.append(E)
        # ||c - c_next||_F, bitwise np.linalg.norm, with c - c_next written into c
        delta = float(np.sqrt(np.vdot(np.subtract(c, c_next, out=c), c)))
        c, c_next = c_next, c
        if rel_err is not None:
            err_trace.append(rel_err(c))
            if target_rel_err is not None and err_trace[-1] <= target_rel_err:
                converged = True
                break
        if delta <= problem.config.tol:
            converged = True
            break

    alpha, beta = x[:m], x[m:]
    duals = DualPotentials(alpha=alpha, beta=beta, epsilon=eps)
    # c = P(alpha + beta + L) for a split of a LinearAffinity alone; P(z) has z's affinity
    affinity = head.affinity(c) if isinstance(head, LinearAffinity) and not tail else None
    report = SolveReport(
        iterations=it,
        objective_trace=np.asarray(obj_trace),
        rel_err_trace=np.asarray(err_trace) if rel_err is not None else None,
        feasibility_residual=max(float(np.abs(Kv - mu).sum()),
                                 float(np.abs(sweep.K.sum(axis=0) - nu).sum())),
        converged=converged,
        wall_clock_seconds=time.perf_counter() - t0,
        extras={"absorptions": sweep.absorptions, "anderson_restarts": restarts},
    )
    return InverseSolution(cost=CostMatrix(c), duals=duals, affinity=affinity,
                           report=report)
