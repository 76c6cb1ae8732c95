import itertools

import numpy as np
import pytest

from invot import (
    DualPotentials,
    ProbabilityVector,
    SolverConfig,
    SyntheticSpec,
    TransportPlan,
    dual_objective,
    entropy,
    plan_from_duals,
    sinkhorn_solve,
    synth_cost,
    synth_marginals,
)
from invot.errors import DimMismatch, NumericalOverflow
from conftest import random_plan

half = ProbabilityVector(np.array([0.5, 0.5]))


def tight(max_iter=10000, **kw):
    return SolverConfig(max_iter=max_iter, tol=1e-12, **kw)


def solved(cost, mu, nu, config, **kw):
    """sinkhorn_solve, which must meet its tolerance within the budget."""
    result = sinkhorn_solve(cost, mu, nu, config, **kw)
    assert result.report.converged
    return result


def newton_2x2_plan(c, mu, nu, eps):
    """Dense Newton oracle on the 2x2 dual with the last potential pinned."""
    phi = np.zeros(3)  # (alpha_0, alpha_1, beta_0); beta_1 = 0

    def plan(p):
        alpha = np.array([p[0], p[1]])
        beta = np.array([p[2], 0.0])
        return np.exp((alpha[:, None] + beta[None, :] - c) / eps)

    for _ in range(200):
        pi = plan(phi)
        grad = np.array([pi[0].sum() - mu[0], pi[1].sum() - mu[1],
                         pi[:, 0].sum() - nu[0]])
        hess = np.array([
            [pi[0].sum(), 0.0, pi[0, 0]],
            [0.0, pi[1].sum(), pi[1, 0]],
            [pi[0, 0], pi[1, 0], pi[:, 0].sum()],
        ]) / eps
        step = np.linalg.solve(hess, grad)
        phi = phi - step
        if np.abs(grad).max() < 1e-14:
            break
    return plan(phi)


class TestSinkhornSolve:
    def test_zero_cost_gives_independent_coupling(self):
        result = solved(np.zeros((2, 2)), half, half, tight())
        assert np.allclose(result.plan.matrix, 0.25, atol=1e-12)

    def test_single_row_forced_by_feasibility(self, rng):
        mu = ProbabilityVector(np.array([1.0]))
        nu = ProbabilityVector(np.array([0.2, 0.3, 0.5]))
        result = solved(rng.normal(size=(1, 3)), mu, nu, tight())
        assert np.allclose(result.plan.matrix[0], nu.values, atol=1e-10)

    def test_matches_dense_newton_oracle(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        eps = 0.5
        result = solved(c, half, half, tight(epsilon=eps))
        oracle = newton_2x2_plan(c, half.values, half.values, eps)
        assert np.allclose(result.plan.matrix, oracle, atol=1e-8)

    def test_plan_consistent_with_duals(self, rng):
        c = rng.uniform(0, 1, size=(4, 5))
        mu = ProbabilityVector(rng.dirichlet(np.ones(4) * 5))
        nu = ProbabilityVector(rng.dirichlet(np.ones(5) * 5))
        result = solved(c, mu, nu, tight(epsilon=0.7))
        rebuilt = plan_from_duals(result.duals, c)
        rel = np.abs(rebuilt - result.plan.matrix) / result.plan.matrix
        assert rel.max() <= 1e-12

    def test_not_converged_carries_best_iterate(self):
        c = np.array([[0.0, 1.0], [0.5, 0.2]])
        mu = ProbabilityVector(np.array([0.9, 0.1]))
        best = sinkhorn_solve(c, mu, half,
                              SolverConfig(epsilon=0.05, max_iter=2, tol=1e-15))
        assert not best.report.converged
        assert best.report.iterations == 2

    @pytest.mark.parametrize("cost,mu,mode,error,message", [
        pytest.param(np.zeros((2, 2)), half, "fast", ValueError, "unknown mode", id="mode"),
        pytest.param(np.zeros((2, 3)), half, "auto", DimMismatch, "cost shape", id="shape"),
        pytest.param(np.zeros((2, 2)), ProbabilityVector(np.array([1.0, 0.0])), "auto",
                     ValueError, "strictly positive", id="zero-marginal")])
    def test_bad_inputs_refused(self, cost, mu, mode, error, message):
        with pytest.raises(error, match=message):
            sinkhorn_solve(cost, mu, half, tight(), mode=mode)

    def test_direct_mode_overflow_is_loud(self):
        c = np.array([[0.0, 2000.0], [2000.0, 0.0]])
        mu = ProbabilityVector(np.array([0.9, 0.1]))
        with pytest.raises(NumericalOverflow):
            sinkhorn_solve(c, mu, half, tight(epsilon=1.0), mode="direct")

    def test_auto_switches_to_log_domain(self):
        c = np.array([[0.0, 2000.0], [2000.0, 0.0]])
        mu = ProbabilityVector(np.array([0.9, 0.1]))
        result = solved(c, mu, half, tight(epsilon=1.0), mode="auto")
        assert result.report.extras["log_domain"]
        assert result.report.feasibility_residual <= 1e-12

    def test_log_and_direct_modes_agree(self, rng):
        # all three absorption policies, on a small instance and on one at
        # eps = 0.01, where c/eps reaches 100
        small = (rng.uniform(0, 1, size=(3, 3)),
                 ProbabilityVector(rng.dirichlet(np.ones(3) * 5)),
                 ProbabilityVector(rng.dirichlet(np.ones(3) * 5)), 0.3)
        large = (synth_cost(SyntheticSpec(n=256, p=2.0, epsilon=0.01, seed=5)),
                 *synth_marginals(256, 256, seed=5), 0.01)
        for c, mu, nu, eps in (small, large):
            config = SolverConfig(epsilon=eps, max_iter=100000, tol=1e-12)
            runs = {mode: solved(c, mu, nu, config, mode=mode)
                    for mode in ("direct", "auto", "log")}
            assert len({r.report.iterations for r in runs.values()}) == 1
            ref = runs["log"].plan.matrix
            for r in runs.values():
                assert np.abs(r.plan.matrix - ref).max() <= 1e-10 * ref.max()
            assert runs["log"].report.extras["log_domain"]
            assert not runs["direct"].report.extras["log_domain"]

    def test_auto_solves_cost_whose_kernel_underflows(self):
        # e^{-c/eps} is exactly 0 in every entry; only the stabilised sweep
        # can scale it, and a constant offset leaves the plan unchanged
        n = 30
        c = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=1.0, seed=2)).matrix
        mu, nu = synth_marginals(n, n, seed=2)
        assert not np.any(np.exp(-(c + 1000.0)))
        base = solved(c, mu, nu, tight(epsilon=1.0))
        shifted = solved(c + 1000.0, mu, nu, tight(epsilon=1.0))
        assert shifted.report.extras["log_domain"]
        assert shifted.report.iterations == base.report.iterations
        assert np.abs(shifted.plan.matrix - base.plan.matrix).max() <= 1e-12


class TestToleranceNearRounding:
    """A tol near rounding: the plan is the product whose residual the loop
    measured, so a converged solve, or one whose budget ran out, returns it."""

    def instance(self, offset):
        n = 30
        c = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=1.0, seed=2)).matrix + offset
        return (c, *synth_marginals(n, n, seed=2))

    @pytest.mark.parametrize("mode", ["direct", "auto", "log"])
    def test_converged_plan_is_returned(self, mode):
        c, mu, nu = self.instance(0.0)
        result = sinkhorn_solve(c, mu, nu,
                                SolverConfig(epsilon=1.0, max_iter=1000, tol=1e-15),
                                mode=mode)
        assert result.report.converged
        report, plan = result.report, result.plan
        assert report.feasibility_residual == max(plan.row_residual, plan.col_residual)

    @pytest.mark.parametrize("mode", ["auto", "log"])
    def test_last_iterate_is_returned_when_the_budget_runs_out(self, mode):
        c, mu, nu = self.instance(1000.0)
        result = sinkhorn_solve(c, mu, nu,
                                SolverConfig(epsilon=1.0, max_iter=1000, tol=3e-16),
                                mode=mode)
        report, plan = result.report, result.plan
        assert report.converged or report.iterations == 1000
        assert report.extras["log_domain"]
        assert report.feasibility_residual == max(plan.row_residual, plan.col_residual)


def reference_sinkhorn(c, mu, nu, eps, tol):
    """The plain loop u <- mu / K v, v <- nu / K^T u on K = e^{-c/eps}, until
    both L1 marginal residuals of its plan are within tol; (plan, iterations)."""
    K = np.exp(-c / eps)
    v = np.ones(nu.size)
    for it in itertools.count(1):
        u = mu / (K @ v)
        v = nu / (K.T @ u)
        plan = u[:, None] * K * v
        if max(np.abs(plan.sum(axis=1) - mu).sum(),
               np.abs(plan.sum(axis=0) - nu).sum()) <= tol:
            return plan, it


class TestAcceleratedLoopMatchesReference:
    """The Anderson-accelerated solve reaches the plain loop's plan, in fewer
    iterations; its guard keeps the dual objective ascending."""

    @pytest.mark.parametrize("mode", ["direct", "auto", "log"])
    def test_plan_and_iterations(self, mode):
        n, eps, tol = 256, 0.02, 1e-12
        c = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=eps, seed=5)).matrix
        mu, nu = synth_marginals(n, n, seed=5)
        want, plain_iterations = reference_sinkhorn(c, mu.values, nu.values, eps, tol)
        got = solved(c, mu, nu, SolverConfig(epsilon=eps, max_iter=10000, tol=tol),
                     mode=mode)
        assert np.abs(got.plan.matrix - want).max() <= 1e-10 * want.max()
        # 243 plain iterations, 16 accelerated
        assert 10 * got.report.iterations <= plain_iterations

    @pytest.mark.parametrize("mode", ["direct", "auto", "log"])
    def test_guard_keeps_the_dual_ascending(self, mode):
        # at eps = 0.003 the guard refuses candidates: in direct mode mostly
        # those whose scaling would leave [e^-100, e^100], which never raise
        n, eps, tol = 8, 0.003, 1e-12
        rng = np.random.default_rng(3)
        c = rng.uniform(0, 1, size=(n, n))
        mu, nu = (ProbabilityVector(rng.dirichlet(np.ones(n))) for _ in range(2))
        _, plain_iterations = reference_sinkhorn(c, mu.values, nu.values, eps, tol)
        report = solved(c, mu, nu, SolverConfig(epsilon=eps, max_iter=10000, tol=tol),
                        mode=mode).report
        assert report.extras["anderson_restarts"] > 0
        assert report.iterations < plain_iterations
        trace = report.objective_trace
        assert np.all(np.diff(trace) >= -1e-12 * np.abs(trace[1:]))


class TestLogModeAbsorbsByThreshold:
    """``"log"`` absorbs once for its shifted start, then only when a scaling
    leaves [e^-100, e^100]; absorption is exact, so the plan does not move."""

    def test_one_absorption_when_scalings_stay_in_band(self):
        c = synth_cost(SyntheticSpec(n=256, p=2.0, epsilon=0.01, seed=5))
        mu, nu = synth_marginals(256, 256, seed=5)
        result = solved(c, mu, nu, tight(max_iter=100000, epsilon=0.01),
                        mode="log")
        assert result.report.extras["absorptions"] == 1
        assert result.report.extras["log_domain"]

    def test_absorbs_again_when_a_scaling_leaves_the_band(self):
        c = np.array([[0.0, 2000.0], [2000.0, 0.0]])
        mu = ProbabilityVector(np.array([0.9, 0.1]))
        runs = {mode: solved(c, mu, half, tight(epsilon=1.0), mode=mode)
                for mode in ("log", "auto")}
        assert runs["log"].report.extras["absorptions"] > 1
        ref = runs["auto"].plan.matrix
        assert np.abs(runs["log"].plan.matrix - ref).max() <= 1e-12 * ref.max()

    def test_constant_offset_leaves_plan_and_iterations(self):
        n = 30
        c = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=1.0, seed=2)).matrix
        mu, nu = synth_marginals(n, n, seed=2)
        base = solved(c, mu, nu, tight(epsilon=1.0), mode="log")
        shifted = solved(c + 1000.0, mu, nu, tight(epsilon=1.0), mode="log")
        assert shifted.report.iterations == base.report.iterations
        ref = base.plan.matrix
        assert np.abs(shifted.plan.matrix - ref).max() <= 1e-12 * ref.max()


class TestPlanFromDuals:
    def test_zero_everything_gives_all_ones(self):
        duals = DualPotentials(np.zeros(2), np.zeros(3), epsilon=1.0)
        assert np.array_equal(plan_from_duals(duals, np.zeros((2, 3))),
                              np.ones((2, 3)))

    def test_log_marginal_duals_give_product_coupling(self, rng):
        mu = rng.dirichlet(np.ones(3) * 5)
        nu = rng.dirichlet(np.ones(4) * 5)
        eps = 0.8
        duals = DualPotentials(eps * np.log(mu), eps * np.log(nu), epsilon=eps)
        assert np.allclose(plan_from_duals(duals, np.zeros((3, 4))),
                           np.outer(mu, nu), atol=1e-15)

    def test_solver_duals_pass_validation(self, rng):
        c = rng.uniform(0, 1, size=(3, 3))
        mu = ProbabilityVector(rng.dirichlet(np.ones(3) * 5))
        nu = ProbabilityVector(rng.dirichlet(np.ones(3) * 5))
        result = solved(c, mu, nu, SolverConfig(max_iter=5000, tol=1e-9))
        TransportPlan(plan_from_duals(result.duals, c), mu, nu, feas_tol=1e-8)

    def test_overflow_guard(self):
        duals = DualPotentials(np.array([800.0]), np.zeros(1), epsilon=1.0)
        with pytest.raises(NumericalOverflow):
            plan_from_duals(duals, np.zeros((1, 1)))

    def test_shift_invariance_exact(self, rng):
        c = rng.normal(size=(3, 4))
        alpha = rng.normal(size=3)
        beta = rng.normal(size=4)
        t = 0.625  # power of two so the shift is exact in floats
        base = plan_from_duals(DualPotentials(alpha, beta, 1.0), c)
        shifted = plan_from_duals(DualPotentials(alpha + t, beta - t, 1.0), c)
        assert np.array_equal(base, shifted)


class TestDualObjective:
    def test_zero_everything(self, rng):
        mu = ProbabilityVector(rng.dirichlet(np.ones(3) * 5))
        nu = ProbabilityVector(rng.dirichlet(np.ones(4) * 5))
        duals = DualPotentials(np.zeros(3), np.zeros(4), epsilon=1.0)
        got = dual_objective(duals, np.zeros((3, 4)), mu, nu)
        assert got == pytest.approx(-12.0, abs=1e-12)

    def test_optimal_zero_cost_value(self, rng):
        mu = rng.dirichlet(np.ones(3) * 5)
        nu = rng.dirichlet(np.ones(4) * 5)
        duals = DualPotentials(np.log(mu), np.log(nu), epsilon=1.0)
        expect = float(mu @ np.log(mu) + nu @ np.log(nu) - 1.0)
        got = dual_objective(duals, np.zeros((3, 4)),
                             ProbabilityVector(mu), ProbabilityVector(nu))
        assert got == pytest.approx(expect, abs=1e-12)

    def test_strong_duality_at_convergence(self, rng):
        c = rng.uniform(0, 1, size=(3, 3))
        mu = ProbabilityVector(rng.dirichlet(np.ones(3) * 5))
        nu = ProbabilityVector(rng.dirichlet(np.ones(3) * 5))
        eps = 0.4
        result = solved(c, mu, nu, tight(epsilon=eps))
        primal = float((c * result.plan.matrix).sum()) - eps * entropy(result.plan)
        assert dual_objective(result.duals, c, mu, nu) == pytest.approx(primal, abs=1e-6)

    # an exponent of 800; and exponents of 700, which plan_from_duals passes,
    # whose sum 150^2 e^700 exceeds the largest double
    @pytest.mark.parametrize("n,exponent,message", [(2, 800.0, "exceeds 700"),
                                                    (150, 700.0, "sum overflows")])
    def test_overflow_refused(self, n, exponent, message):
        uniform = ProbabilityVector(np.full(n, 1.0 / n))
        duals = DualPotentials(np.full(n, exponent), np.zeros(n), epsilon=1.0)
        with pytest.raises(NumericalOverflow, match=message):
            dual_objective(duals, np.zeros((n, n)), uniform, uniform)


class TestTraces:
    @pytest.mark.parametrize("mode,offset", [("direct", 0.0), ("log", 0.0),
                                             ("log", 1000.0), ("auto", 1000.0)])
    def test_trace_and_value_match_dual_objective(self, mode, offset):
        # the trace is taken from the sweep's products; it and the returned
        # value must agree with the reference at every budget, converged or not
        n = 30
        c = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=1.0, seed=2)).matrix + offset
        mu, nu = synth_marginals(n, n, seed=2)
        for k in range(1, 6):
            result = sinkhorn_solve(c, mu, nu,
                                    SolverConfig(epsilon=1.0, max_iter=k, tol=1e-15),
                                    mode=mode)
            ref = dual_objective(result.duals, c, mu, nu)
            assert result.report.objective_trace[-1] == pytest.approx(ref, rel=1e-12)
            assert result.report.extras["log_domain"] == (mode != "direct")


class TestProperties:
    def test_plan_invariant_under_joint_scaling(self, rng):
        c = rng.uniform(0, 1, size=(4, 4))
        mu = ProbabilityVector(rng.dirichlet(np.ones(4) * 5))
        nu = ProbabilityVector(rng.dirichlet(np.ones(4) * 5))
        base = solved(c, mu, nu, tight(epsilon=0.5)).plan.matrix
        for k in (0.1, 2.0, 10.0):
            scaled = solved(k * c, mu, nu, tight(epsilon=0.5 * k)).plan.matrix
            assert np.abs(scaled - base).max() <= 1e-8

    def test_residual_trace_eventually_monotone(self, rng):
        for trial in range(5):
            c = rng.uniform(0, 1, size=(6, 6))
            mu = ProbabilityVector(rng.dirichlet(np.ones(6) * 5))
            nu = ProbabilityVector(rng.dirichlet(np.ones(6) * 5))
            result = solved(c, mu, nu, tight(epsilon=0.2))
            trace = result.report.extras["residual_trace"]
            tail = trace[len(trace) // 10:]
            assert np.all(np.diff(tail) <= 1e-15)

    def test_large_epsilon_approaches_product_coupling(self, rng):
        for trial in range(5):
            # sup-norm of the cost kept below 1; the residual coupling gap
            # scales like the centered cost spread divided by epsilon
            c = rng.uniform(0, 0.3, size=(5, 5))
            mu = ProbabilityVector(rng.dirichlet(np.ones(5) * 5))
            nu = ProbabilityVector(rng.dirichlet(np.ones(5) * 5))
            plan = solved(c, mu, nu, tight(epsilon=100.0)).plan.matrix
            gap = np.abs(plan - np.outer(mu.values, nu.values)).sum()
            assert gap <= 1e-3

    def test_feasibility_contract(self, rng):
        result = solved(rng.uniform(0, 1, size=(7, 7)), *_marginals(rng, 7),
                        SolverConfig(max_iter=20000, tol=1e-9))
        assert result.plan.row_residual <= 1e-8
        assert result.plan.col_residual <= 1e-8


def _marginals(rng, n):
    return (ProbabilityVector(rng.dirichlet(np.ones(n) * 5)),
            ProbabilityVector(rng.dirichlet(np.ones(n) * 5)))
