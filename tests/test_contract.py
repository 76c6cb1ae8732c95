"""One convergence contract: a solver whose iteration budget runs out first
returns its last iterate and says so in ``report.converged``."""

import numpy as np
import pytest

from invot import (
    SolverConfig,
    SyntheticSpec,
    bcd_solve,
    learn_cost,
    sinkhorn_solve,
    synth_cost,
    synth_marginals,
)
from test_scaling import forward_plan, problem_from

EPS = 0.5
INVERSE = {"learn_cost": learn_cost, "bcd_solve": bcd_solve}


def solve(name, k):
    cost = synth_cost(SyntheticSpec(n=12, p=2.0, epsilon=EPS, seed=4))
    mu, nu = synth_marginals(12, 12, seed=4)
    if name in INVERSE:
        problem = problem_from(forward_plan(cost, mu, nu, EPS), eps=EPS,
                               max_iter=k, tol=1e-15)
        return INVERSE[name](problem)
    return sinkhorn_solve(cost, mu, nu, SolverConfig(epsilon=EPS, max_iter=k, tol=1e-15),
                          mode=name)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("name", ["auto", "log", *INVERSE])
def test_budget_runs_out_into_the_flag(name, k):
    result = solve(name, k)
    assert result.report.converged is False
    assert result.report.iterations == k
    assert np.isfinite(result.report.feasibility_residual)
    assert len(result.report.objective_trace) == k
