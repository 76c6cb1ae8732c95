import numpy as np
import pytest

from invot import (
    Box,
    Composite,
    InverseProblem,
    LinearAffinity,
    NoConstraint,
    ProbabilityVector,
    SolverConfig,
    SymmetricZeroDiag,
    SyntheticSpec,
    learn_cost,
    objective_E,
    plan_from_duals,
    prox_symmetric_zero_diag,
    relative_error,
    set_epsilon_one,
    sinkhorn_solve,
    smooth_observed_zeros,
    synth_cost,
    synth_marginals,
)
from invot.errors import DimMismatch, ZeroObservation, ZeroReference
from invot.sinkhorn import _plan_residual
from conftest import make_plan, random_plan

# the stabilised sweep must never under/overflow silently
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SYM_NONNEG = Composite([SymmetricZeroDiag(), Box(0.0, np.inf)])


def forward_plan(cost, mu, nu, eps, tol=1e-12):
    cfg = SolverConfig(epsilon=eps, max_iter=100000, tol=tol)
    return sinkhorn_solve(cost, mu, nu, cfg).plan


def problem_from(plan, constraint=SYM_NONNEG, eps=1.0, max_iter=2000,
                 tol=1e-12):
    cfg = SolverConfig(epsilon=eps, max_iter=max_iter, tol=tol)
    return InverseProblem(observed=plan, constraint=constraint, config=cfg)


class TestObjectiveE:
    def test_all_zero_arguments(self, rng):
        problem = problem_from(random_plan(rng, 3, 4), NoConstraint())
        got = objective_E(np.zeros(3), np.zeros(4), np.zeros((3, 4)), problem)
        assert got == pytest.approx(12.0, abs=1e-12)

    def test_invariant_on_equivalence_class(self, rng):
        problem = problem_from(random_plan(rng, 4, 4), NoConstraint(), eps=0.7)
        for _ in range(20):
            alpha = rng.normal(size=4)
            beta = rng.normal(size=4)
            c = rng.normal(size=(4, 4))
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            base = objective_E(alpha, beta, c, problem)
            shifted = objective_E(alpha + a, beta + b,
                                  c + a[:, None] + b[None, :], problem)
            assert abs(shifted - base) / abs(base) <= 1e-10

    def test_value_at_consistent_duals(self, rng):
        # when the observation is exactly the plan of (alpha, beta, c), the
        # exponential sum contributes exactly eps
        c = rng.uniform(0, 1, size=(3, 3))
        mu = ProbabilityVector(rng.dirichlet(np.ones(3) * 5))
        nu = ProbabilityVector(rng.dirichlet(np.ones(3) * 5))
        eps = 0.6
        result = sinkhorn_solve(c, mu, nu,
                                SolverConfig(epsilon=eps, max_iter=100000,
                                             tol=1e-13))
        problem = problem_from(result.plan, NoConstraint(), eps=eps)
        alpha = result.duals.alpha
        beta = result.duals.beta
        pihat = result.plan.matrix
        expect = 0.0  # term-by-term oracle
        for i in range(3):
            for j in range(3):
                expect += c[i, j] * pihat[i, j]
                expect += eps * np.exp((alpha[i] + beta[j] - c[i, j]) / eps)
        expect -= alpha @ mu.values + beta @ nu.values
        got = objective_E(alpha, beta, c, problem)
        assert got == pytest.approx(expect, abs=1e-12)
        closed = (float((c * pihat).sum()) - alpha @ mu.values
                  - beta @ nu.values + eps)
        assert got == pytest.approx(closed, abs=1e-9)

    def test_joint_convexity_probe(self, rng):
        problem = problem_from(random_plan(rng, 3, 3), NoConstraint())
        for _ in range(30):
            phi0 = (rng.normal(size=3), rng.normal(size=3),
                    rng.normal(size=(3, 3)))
            phi1 = (rng.normal(size=3), rng.normal(size=3),
                    rng.normal(size=(3, 3)))
            for lam in (0.25, 0.5, 0.75):
                mix = tuple(lam * a + (1 - lam) * b
                            for a, b in zip(phi0, phi1))
                assert (objective_E(*mix, problem)
                        <= lam * objective_E(*phi0, problem)
                        + (1 - lam) * objective_E(*phi1, problem) + 1e-9)


class TestZeroObservationPolicy:
    def test_zero_entries_rejected(self):
        mat = np.array([[0.5, 0.0], [0.0, 0.5]])
        mu = ProbabilityVector(np.array([0.5, 0.5]))
        from invot import TransportPlan
        plan = TransportPlan(mat, mu, mu)
        with pytest.raises(ZeroObservation):
            problem_from(plan)

    def test_smoothing_opt_in(self):
        plan = smooth_observed_zeros(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert plan.strictly_positive()
        assert plan.matrix.min() >= 1e-13
        problem = problem_from(plan)
        import dataclasses
        problem = dataclasses.replace(problem, smoothed=True)
        solution = learn_cost(problem)
        assert solution.report.extras["smoothed_zeros"] is True


class TestLearnCost:
    def test_independent_coupling_recovers_zero_cost(self, rng):
        mu, nu = synth_marginals(5, 5, seed=1)
        plan = make_plan(np.outer(mu.values, nu.values))
        solution = learn_cost(problem_from(plan))
        assert np.linalg.norm(solution.cost.matrix) <= 1e-6
        assert solution.report.converged

    def test_grid_cost_recovery_500_iterations(self):
        n, eps = 100, 0.1
        c_star = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=eps, seed=0))
        mu, nu = synth_marginals(n, n, seed=0)
        plan = forward_plan(c_star, mu, nu, eps, tol=1e-12)
        problem = problem_from(plan, eps=eps, max_iter=500, tol=1e-15)
        solution = learn_cost(problem, truth=c_star)
        assert solution.report.rel_err_trace[-1] <= 1e-3

    def test_small_symmetric_recovery(self, rng):
        a, b, d = rng.uniform(0.05, 1.0, size=3)
        c_star = np.array([[0, a, b], [a, 0, d], [b, d, 0]])
        mu, nu = synth_marginals(3, 3, seed=4)
        plan = forward_plan(c_star, mu, nu, 0.5)
        problem = problem_from(plan, eps=0.5, max_iter=2000, tol=1e-15)
        solution = learn_cost(problem)
        assert relative_error(solution.cost, c_star) <= 1e-4

    def test_objective_trace_non_increasing(self, rng):
        c_star = prox_symmetric_zero_diag(rng.uniform(0, 1, size=(6, 6)))
        mu, nu = synth_marginals(6, 6, seed=7)
        plan = forward_plan(c_star, mu, nu, 1.0)
        solution = learn_cost(problem_from(plan, max_iter=300))
        trace = solution.report.objective_trace
        assert np.all(np.diff(trace) <= 1e-9)

    def test_fixed_point_stays_put(self, rng):
        c_star = prox_symmetric_zero_diag(rng.uniform(0, 1, size=(4, 4)))
        mu, nu = synth_marginals(4, 4, seed=9)
        plan = forward_plan(c_star, mu, nu, 1.0)
        solution = learn_cost(problem_from(plan, max_iter=2000, tol=1e-12),
                              c_init=c_star)
        assert solution.report.converged
        assert relative_error(solution.cost, c_star) <= 1e-8

    @pytest.mark.parametrize("eps", [1.0, 0.5])
    def test_recovers_from_init_whose_kernel_underflows(self, rng, eps):
        # e^{-c_init/eps} is exactly 0 in every entry
        c_star = prox_symmetric_zero_diag(rng.uniform(0, 1, size=(5, 5)))
        mu, nu = synth_marginals(5, 5, seed=9)
        plan = forward_plan(c_star, mu, nu, eps, tol=1e-13)
        solution = learn_cost(problem_from(plan, eps=eps, max_iter=3000,
                                           tol=1e-14),
                              c_init=c_star + 1000.0 * eps)
        assert solution.report.converged
        assert relative_error(solution.cost, c_star) <= 1e-6

    def test_feasibility_residual_covers_rows_and_columns(self, rng):
        plan = random_plan(rng, 6, 6)
        constraint = LinearAffinity(rng.normal(size=(1, 6)),
                                    rng.normal(size=(1, 6)), 1)
        solution = learn_cost(problem_from(plan, constraint, eps=0.7,
                                           max_iter=2))
        model = plan_from_duals(solution.duals, solution.cost)
        row = np.abs(model.sum(axis=1) - plan.row_marginal.values).sum()
        col = np.abs(model.sum(axis=0) - plan.col_marginal.values).sum()
        assert col > row  # the instance exercises the column residual
        assert solution.report.feasibility_residual == pytest.approx(
            max(row, col), rel=1e-12)

    @pytest.mark.parametrize("case", ["sym0_box", "affinity", "shifted_init"])
    def test_trace_and_residual_match_references(self, rng, case):
        # trace and residual come from the next sweep's kernel; both must
        # agree with the reference functions at the returned triple
        n, eps = 8, 0.5
        c_star = prox_symmetric_zero_diag(rng.uniform(0.05, 1.0, size=(n, n)))
        mu, nu = synth_marginals(n, n, seed=3)
        plan = forward_plan(c_star, mu, nu, eps, tol=1e-13)
        constraint = (LinearAffinity(rng.normal(size=(2, n)),
                                     rng.normal(size=(3, n)), 1)
                      if case == "affinity" else SYM_NONNEG)
        c_init = c_star + 1000.0 * eps if case == "shifted_init" else None
        for k in range(1, 6):
            problem = problem_from(plan, constraint, eps=eps, max_iter=k,
                                   tol=1e-15)
            solution = learn_cost(problem, c_init=c_init)
            alpha, beta = solution.duals.alpha, solution.duals.beta
            cost = solution.cost.matrix
            ref = objective_E(alpha, beta, cost, problem)
            last = solution.report.objective_trace[-1]
            if np.isinf(ref):  # the first step from the shifted init overflows
                assert last == ref
            else:
                assert last == pytest.approx(ref, rel=1e-12)
            residual = _plan_residual(alpha, beta, cost, plan.row_marginal.values,
                                      plan.col_marginal.values, eps)
            assert solution.report.feasibility_residual == pytest.approx(
                residual, rel=1e-12, abs=1e-12)

    def test_rel_err_trace_is_relative_error(self, rng):
        c_star = prox_symmetric_zero_diag(rng.uniform(0.05, 1.0, size=(6, 6)))
        mu, nu = synth_marginals(6, 6, seed=5)
        plan = forward_plan(c_star, mu, nu, 0.5)
        for k in range(1, 4):
            solution = learn_cost(problem_from(plan, eps=0.5, max_iter=k),
                                  truth=c_star)
            assert solution.report.rel_err_trace[-1] == relative_error(
                solution.cost, c_star)

    @pytest.mark.parametrize("truth,error", [(np.ones((3, 3)), DimMismatch),
                                             (np.zeros((4, 4)), ZeroReference)])
    def test_bad_truth_refused_before_first_iteration(self, rng, truth, error):
        class Tripwire(NoConstraint):
            def prox(self, chat):
                raise AssertionError("an iteration ran")

        with pytest.raises(error):
            learn_cost(problem_from(random_plan(rng, 4, 4), Tripwire()),
                       truth=truth)

    def test_recovery_consistency_across_sizes(self, rng):
        for n in range(3, 11):
            c_star = prox_symmetric_zero_diag(rng.uniform(0.05, 1.0,
                                                          size=(n, n)))
            mu, nu = synth_marginals(n, n, seed=100 + n)
            plan = forward_plan(c_star, mu, nu, 1.0)
            solution = learn_cost(problem_from(plan, max_iter=4000, tol=1e-15))
            assert relative_error(solution.cost, c_star) <= 1e-4

    def test_affinity_extraction(self, rng):
        G = rng.normal(size=(2, 4))
        D = rng.normal(size=(2, 4))
        A0 = rng.normal(size=(2, 2)) * 0.4
        c_star = G.T @ A0 @ D
        mu, nu = synth_marginals(4, 4, seed=12)
        plan = forward_plan(c_star, mu, nu, 1.0)
        constraint = LinearAffinity(G, D, 1)
        solution = learn_cost(problem_from(plan, constraint, max_iter=4000,
                                           tol=1e-14))
        assert solution.affinity is not None
        assert relative_error(solution.cost, c_star) <= 1e-3


class TestEpsilonConvention:
    def test_unit_epsilon_rescaling_equivalence(self, rng):
        eps = 0.25
        c_star = prox_symmetric_zero_diag(rng.uniform(0.05, 1.0, size=(4, 4)))
        mu, nu = synth_marginals(4, 4, seed=21)
        plan = forward_plan(c_star, mu, nu, eps)
        direct = learn_cost(problem_from(plan, eps=eps, max_iter=3000,
                                         tol=1e-15))
        unit = learn_cost(set_epsilon_one(problem_from(plan, eps=eps,
                                                       max_iter=3000,
                                                       tol=1e-15)))
        assert np.abs(eps * unit.cost.matrix - direct.cost.matrix).max() <= 1e-8

    def test_small_epsilon_data_recovers_scaled_cost(self):
        eps = 0.01
        c_star = synth_cost(SyntheticSpec(n=20, p=2.0, epsilon=eps, seed=2))
        mu, nu = synth_marginals(20, 20, seed=2)
        plan = forward_plan(c_star, mu, nu, eps, tol=1e-13)
        solution = learn_cost(problem_from(plan, eps=1.0, max_iter=3000,
                                           tol=1e-15))
        assert relative_error(solution.cost, 100.0 * c_star.matrix) <= 1e-3

    def test_symmetrization_commutes_with_scaling(self, rng):
        chat = rng.normal(size=(5, 5))
        for k in (0.5, 2.0, 4.0):
            assert np.array_equal(prox_symmetric_zero_diag(k * chat),
                                  k * prox_symmetric_zero_diag(chat))
