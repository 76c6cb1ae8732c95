import dataclasses
import tracemalloc

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
    sinkhorn_solve,
    smooth_observed_zeros,
    synth_cost,
    synth_marginals,
)
from invot.errors import BadBounds, DimMismatch, ZeroObservation, ZeroReference
from invot.sinkhorn import _log_plan, _Sweep
from invot.types import _error_to
from conftest import make_plan, random_plan

SYM_NONNEG = Composite([SymmetricZeroDiag(), Box(0.0, np.inf)])


def forward_plan(cost, mu, nu, eps, tol=1e-12):
    cfg = SolverConfig(epsilon=eps, max_iter=100000, tol=tol)
    result = sinkhorn_solve(cost, mu, nu, cfg)
    assert result.report.converged
    return result.plan


def _plan_residual(alpha, beta, cost, mu, nu, eps):
    """Max of the row and column L1 residuals of e^{(alpha + beta - c)/eps}."""
    z = _log_plan(alpha, beta, cost, eps)
    with np.errstate(over="ignore"):
        plan = np.exp(z, out=z)
    return max(float(np.abs(plan.sum(axis=1) - mu).sum()),
               float(np.abs(plan.sum(axis=0) - nu).sum()))


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
        assert result.report.converged
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
        solution = learn_cost(problem_from(plan))
        assert np.all(np.isfinite(solution.cost.matrix))


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

    @pytest.mark.parametrize("case", ["sym0_box", "box", "affinity",
                                      "shifted_init"])
    def test_extrapolated_objective_trace_non_increasing(self, case):
        eps, tol, kwargs = 0.5, 1e-12, {}
        c_star, plan = symmetric_instance(eps=eps)
        constraint = SYM_NONNEG
        if case == "box":
            constraint, tol = Box(0.0, 0.8), 1e-6
        if case == "affinity":  # a plan of a planted affinity, as in criterion 7
            rng = np.random.default_rng(7)
            G, D = rng.normal(size=(4, 8)), rng.normal(size=(3, 6))
            mu, nu = synth_marginals(8, 6, seed=7)
            plan = forward_plan(G.T @ (0.1 * rng.normal(size=(4, 3))) @ D,
                                mu, nu, eps)
            constraint = LinearAffinity(G, D, 1)
        if case == "shifted_init":
            kwargs["c_init"] = c_star + 1000.0 * eps
        solution = learn_cost(problem_from(plan, constraint, eps=eps,
                                           max_iter=5000, tol=tol), **kwargs)
        assert solution.report.converged
        assert np.all(np.diff(solution.report.objective_trace) <= 1e-9)
        if case == "box":  # an instance on which the guard refuses steps
            assert solution.report.extras["anderson_restarts"] > 0

    def test_anderson_restarts_count_the_extra_resets(self, monkeypatch):
        # each refused step costs one more sweep reset than the plain loop
        eps = 0.5
        _, plan = symmetric_instance(eps=eps)
        resets = []
        reset = _Sweep.reset

        def counting_reset(self, *args, **kwargs):
            resets.append(1)
            return reset(self, *args, **kwargs)

        monkeypatch.setattr(_Sweep, "reset", counting_reset)
        report = learn_cost(problem_from(plan, Box(0.0, 0.8), eps=eps,
                                         max_iter=5000, tol=1e-6)).report
        assert report.extras["anderson_restarts"] > 0
        assert len(resets) == 1 + report.iterations + report.extras["anderson_restarts"]

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

    # None: a target error needs a reference cost to measure it against
    @pytest.mark.parametrize("truth,target,error", [
        pytest.param(np.ones((3, 3)), None, DimMismatch, id="truth0-DimMismatch"),
        pytest.param(np.zeros((4, 4)), None, ZeroReference, id="truth1-ZeroReference"),
        pytest.param(None, 1e-3, BadBounds, id="None-BadBounds")])
    def test_bad_truth_refused_before_first_iteration(self, rng, truth, target, error):
        class Tripwire(NoConstraint):
            def prox(self, chat):
                raise AssertionError("an iteration ran")

        with pytest.raises(error):
            learn_cost(problem_from(random_plan(rng, 4, 4), Tripwire()),
                       truth=truth, target_rel_err=target)

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


def reference_learn_cost(problem, c_init=None, truth=None, target_rel_err=None):
    """The plain loop: no extrapolation, a fresh sweep every iteration and
    c <- constraint.prox(alpha + beta + L)."""
    pihat = problem.observed.matrix
    mu = problem.observed.row_marginal.values
    nu = problem.observed.col_marginal.values
    eps, constraint = problem.config.epsilon, problem.constraint
    c = np.zeros(pihat.shape) if c_init is None else np.array(c_init, dtype=float)
    L = -eps * np.log(pihat)
    alpha, beta = np.zeros(mu.size), np.zeros(nu.size)
    rel_err = None if truth is None else _error_to(truth, pihat.shape)
    obj_trace, err_trace, it = [], [], 0
    sweep = _Sweep(c, mu, nu, eps, alpha, beta)
    Kv = None
    while it < problem.config.max_iter:
        it += 1
        sweep.scale(1, Kv)
        sweep.scale(0)
        alpha, beta = sweep.duals()
        chat = np.add.outer(alpha, beta) + L
        c_new = constraint.prox(chat)
        delta = float(np.linalg.norm(c_new - c))
        c = c_new
        sweep = _Sweep(c, mu, nu, eps, alpha, beta)
        Kv = sweep.K @ sweep.v
        with np.errstate(over="ignore"):
            obj_trace.append(float(-alpha @ mu - beta @ nu + np.vdot(c, pihat)
                                   + eps * Kv.sum()))
        if rel_err is not None:
            err_trace.append(rel_err(c))
            if target_rel_err is not None and err_trace[-1] <= target_rel_err:
                break
        if delta <= problem.config.tol:
            break
    affinity = (constraint.affinity(chat)
                if isinstance(constraint, LinearAffinity) else None)
    return {"cost": c, "alpha": alpha, "beta": beta, "iterations": it,
            "objective_trace": np.asarray(obj_trace), "affinity": affinity}


def assert_close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= rel * scale


def symmetric_instance(n=10, eps=0.5, seed=3):
    rng = np.random.default_rng(seed)
    c_star = prox_symmetric_zero_diag(rng.uniform(0.05, 1.0, size=(n, n)))
    mu, nu = synth_marginals(n, n, seed=seed)
    return c_star, forward_plan(c_star, mu, nu, eps, tol=1e-13)


class TestProjectedLoopMatchesReference:
    """learn_cost projects -eps log pihat once, writes alpha + beta in closed
    form and extrapolates; it must reach the plain loop's fixed point in no
    more iterations. Duals are compared only through gauge-invariant forms."""

    @pytest.mark.parametrize("case", [
        "sym0_box", "sym0", "box", "none", "sym0_box_lower_diagonal",
        "box_then_sym0", "affinity_8x6", "c_init", "target_rel_err"])
    def test_costs_duals_and_traces(self, case):
        eps, max_iter, tol = 0.5, 20000, 1e-12
        c_star, plan = symmetric_instance(eps=eps)
        kwargs = {"truth": c_star}
        constraint = {
            "sym0": SymmetricZeroDiag(),
            "box": Box(0.0, 0.8),
            "none": NoConstraint(),
            "sym0_box_lower_diagonal": Composite([SymmetricZeroDiag(),
                                                  Box(0.1, 2.0)]),
            "box_then_sym0": Composite([Box(0.0, 0.8), SymmetricZeroDiag()]),
        }.get(case, SYM_NONNEG)
        if case == "affinity_8x6":
            rng = np.random.default_rng(8)
            G, D = rng.normal(size=(3, 8)), rng.normal(size=(2, 6))
            plan = random_plan(rng, 8, 6)
            constraint = LinearAffinity(G, D, -1)
            kwargs = {}
        if case == "c_init":
            kwargs["c_init"] = c_star + 0.3
        if case == "target_rel_err":
            kwargs["target_rel_err"] = 1e-4
        problem = problem_from(plan, constraint, eps=eps, max_iter=max_iter,
                               tol=tol)
        want = reference_learn_cost(problem, **kwargs)
        got = learn_cost(problem, **kwargs)
        assert got.report.converged
        assert got.report.iterations <= want["iterations"] < max_iter
        alpha, beta = got.duals.alpha, got.duals.beta
        duals_sum = np.add.outer(alpha, beta)
        assert abs(alpha.mean() - beta.mean()) <= 1e-12 * np.abs(duals_sum).max()
        if case == "target_rel_err":
            assert got.report.rel_err_trace[-1] <= 1e-4
            return
        g, w = got.report.objective_trace[-1], want["objective_trace"][-1]
        assert abs(g - w) <= 1e-12 * abs(w)
        want_sum = np.add.outer(want["alpha"], want["beta"])
        # the log-plan (alpha + beta - c)/eps is invariant on the class
        # c + a + b, alpha + a, beta + b, along which objective_E is flat
        assert_close(duals_sum - got.cost.matrix, want_sum - want["cost"], rel=1e-9)
        if case != "box":  # a box alone leaves that class free off its bounds
            assert_close(got.cost.matrix, want["cost"], rel=1e-9)
            assert_close(duals_sum, want_sum, rel=1e-9)
        if case == "affinity_8x6":
            assert_close(got.affinity, want["affinity"], rel=1e-9)
        else:
            assert got.affinity is None

    def test_absorptions_from_shifted_init(self):
        eps = 0.5
        c_star, plan = symmetric_instance(eps=eps)
        solution = learn_cost(problem_from(plan, eps=eps, max_iter=3000,
                                           tol=1e-12),
                              c_init=c_star + 1000.0 * eps)
        assert solution.report.extras["absorptions"] > 0

    def test_benchmark_sized_instance(self):
        # the discrete-recover inverse instance: n=512, eps=0.1, sym0 + box
        n, eps = 512, 0.1
        c_star = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=eps, seed=100))
        mu, nu = synth_marginals(n, n, seed=100)
        plan = forward_plan(c_star, mu, nu, eps, tol=1e-9)
        problem = problem_from(plan, eps=eps, max_iter=1000, tol=1e-3)
        want = reference_learn_cost(problem)
        got = learn_cost(problem)
        assert got.report.converged
        assert 2 * got.report.iterations <= want["iterations"]
        assert (relative_error(got.cost, c_star)
                <= relative_error(want["cost"], c_star) <= 1e-3)

    def test_no_cost_sized_allocation_inside_the_loop(self, monkeypatch):
        n, eps = 256, 0.5
        c_star, plan = symmetric_instance(n=n, eps=eps)
        peaks = []
        reset = _Sweep.reset

        def recording_reset(self, *args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - current)
            tracemalloc.reset_peak()
            return reset(self, *args, **kwargs)

        monkeypatch.setattr(_Sweep, "reset", recording_reset)
        tracemalloc.start()
        try:
            report = learn_cost(problem_from(plan, eps=eps, max_iter=20,
                                             tol=1e-15), truth=c_star).report
        finally:
            tracemalloc.stop()
        # the first call is the sweep's construction; each later one ends an
        # iteration or a step the guard refused: its transient memory
        # (vectors and numpy's fixed iteration buffers) stays below half of
        # one n x n array
        assert len(peaks) == 1 + 20 + report.extras["anderson_restarts"]
        assert max(peaks[1:]) < n * n * 8 / 2


class TestEpsilonConvention:
    def test_unit_epsilon_rescaling_equivalence(self, rng):
        eps = 0.25
        c_star = prox_symmetric_zero_diag(rng.uniform(0.05, 1.0, size=(4, 4)))
        mu, nu = synth_marginals(4, 4, seed=21)
        plan = forward_plan(c_star, mu, nu, eps)
        direct = learn_cost(problem_from(plan, eps=eps, max_iter=3000,
                                         tol=1e-15))
        problem = problem_from(plan, eps=eps, max_iter=3000, tol=1e-15)
        unit = learn_cost(dataclasses.replace(
            problem, config=dataclasses.replace(problem.config, epsilon=1.0)))
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
