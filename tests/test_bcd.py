from dataclasses import replace

import numpy as np
import pytest

from invot import (
    BcdState,
    Box,
    Composite,
    LinearAffinity,
    NoConstraint,
    SolverConfig,
    SymmetricZeroDiag,
    SyntheticSpec,
    bcd_alpha_update,
    bcd_beta_update,
    bcd_c_update,
    bcd_solve,
    learn_cost,
    lipschitz_probe,
    objective_F,
    plan_from_duals,
    prox_symmetric_zero_diag,
    rate_bound_constant,
    relative_error,
    synth_cost,
    synth_marginals,
    variation_bounds,
)
from invot import bcd
from invot.errors import BadBounds, DimMismatch, ZeroReference
from invot.scaling import InverseProblem
from invot.sinkhorn import _log_plan
from conftest import make_plan, random_plan
from test_scaling import SYM_NONNEG, forward_plan, problem_from


def _softmax_plan(alpha, beta, cost, eps):
    """softmax((alpha + beta - c)/eps) over all cells."""
    z = _log_plan(alpha, beta, cost, eps)
    z = z - np.max(z)
    w = np.exp(z)
    return w / w.sum()


def lse_alpha(state, problem):
    """Reference alpha block: the max-shifted log-sum-exp closed form."""
    eps = problem.config.epsilon
    z = (state.beta[None, :] - state.cost) / eps
    m = np.max(z, axis=1, keepdims=True)
    lse = np.squeeze(m, axis=1) + np.log(np.exp(z - m).sum(axis=1))
    alpha = eps * (np.log(problem.observed.row_marginal.values) - lse)
    return alpha - 0.5 * (alpha.max() + alpha.min())


def lse_beta(state, problem):
    """Reference beta block, the column analogue of `lse_alpha`."""
    eps = problem.config.epsilon
    z = (state.alpha[:, None] - state.cost) / eps
    m = np.max(z, axis=0, keepdims=True)
    lse = np.squeeze(m, axis=0) + np.log(np.exp(z - m).sum(axis=0))
    beta = eps * (np.log(problem.observed.col_marginal.values) - lse)
    return beta - 0.5 * (beta.max() + beta.min())


def fresh_state(problem, M_c=2.0, rng=None):
    m, n = problem.observed.shape
    M_alpha, M_beta = variation_bounds(problem, M_c)
    if rng is None:
        alpha, beta = np.zeros(m), np.zeros(n)
        cost = np.zeros((m, n))
    else:
        alpha = rng.uniform(-1, 1, size=m)
        beta = rng.uniform(-1, 1, size=n)
        cost = rng.uniform(0, M_c, size=(m, n))
    return BcdState(alpha=alpha, beta=beta, cost=cost, M_c=M_c,
                    M_alpha=M_alpha, M_beta=M_beta)


def grad_alpha(state, problem):
    mu = problem.observed.row_marginal.values
    soft = _softmax_plan(state.alpha, state.beta, state.cost,
                         problem.config.epsilon)
    return soft.sum(axis=1) - mu


def grad_beta(state, problem):
    nu = problem.observed.col_marginal.values
    soft = _softmax_plan(state.alpha, state.beta, state.cost,
                         problem.config.epsilon)
    return soft.sum(axis=0) - nu


class TestObjectiveF:
    def test_all_zero_arguments(self, rng):
        problem = problem_from(random_plan(rng, 3, 4), NoConstraint())
        got = objective_F(np.zeros(3), np.zeros(4), np.zeros((3, 4)), problem)
        assert got == pytest.approx(np.log(12.0), abs=1e-12)

    def test_shift_invariance(self, rng):
        problem = problem_from(random_plan(rng, 3, 3), NoConstraint(), eps=0.7)
        alpha = rng.normal(size=3)
        beta = rng.normal(size=3)
        c = rng.normal(size=(3, 3))
        base = objective_F(alpha, beta, c, problem)
        for t in (0.5, -2.0, 7.25):
            assert objective_F(alpha + t, beta, c, problem) == pytest.approx(
                base, abs=1e-12)
            assert objective_F(alpha, beta + t, c, problem) == pytest.approx(
                base, abs=1e-12)

    def test_matches_naive_oracle(self, rng):
        # oracle: unstabilized two-pass summation at moderate magnitudes
        problem = problem_from(random_plan(rng, 3, 4), NoConstraint(), eps=0.9)
        alpha = rng.uniform(-1, 1, size=3)
        beta = rng.uniform(-1, 1, size=4)
        c = rng.uniform(-1, 1, size=(3, 4))
        pihat = problem.observed.matrix
        mu = problem.observed.row_marginal.values
        nu = problem.observed.col_marginal.values
        acc = 0.0
        for i in range(3):
            for j in range(4):
                acc += np.exp((alpha[i] + beta[j] - c[i, j]) / 0.9)
        expect = (-alpha @ mu - beta @ nu + (c * pihat).sum()
                  + 0.9 * np.log(acc))
        assert objective_F(alpha, beta, c, problem) == pytest.approx(
            expect, abs=1e-12)


class TestBlockUpdates:
    def test_alpha_closed_form_zero_background(self, rng):
        problem = problem_from(random_plan(rng, 4, 4), NoConstraint())
        state = fresh_state(problem)
        out = bcd_alpha_update(state, problem)
        mu = problem.observed.row_marginal.values
        expect = np.log(mu)
        expect -= 0.5 * (expect.max() + expect.min())
        assert np.allclose(out.alpha, expect, atol=1e-12)
        assert np.abs(grad_alpha(out, problem)).max() <= 1e-10
        assert out.alpha.max() + out.alpha.min() == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_beta_closed_form_zero_background(self, rng):
        problem = problem_from(random_plan(rng, 4, 4), NoConstraint())
        out = bcd_beta_update(fresh_state(problem), problem)
        nu = problem.observed.col_marginal.values
        expect = np.log(nu)
        expect -= 0.5 * (expect.max() + expect.min())
        assert np.allclose(out.beta, expect, atol=1e-12)
        assert np.abs(grad_beta(out, problem)).max() <= 1e-10

    def test_block_updates_never_increase_objective(self, rng):
        problem = problem_from(random_plan(rng, 5, 5), NoConstraint(), eps=0.8)
        for _ in range(20):
            state = fresh_state(problem, rng=rng)
            f0 = objective_F(state.alpha, state.beta, state.cost, problem)
            sa = bcd_alpha_update(state, problem)
            fa = objective_F(sa.alpha, sa.beta, sa.cost, problem)
            sb = bcd_beta_update(sa, problem)
            fb = objective_F(sb.alpha, sb.beta, sb.cost, problem)
            assert fa <= f0 + 1e-12
            assert fb <= fa + 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    def test_blocks_match_log_sum_exp_reference(self, rng, offset):
        # offset 1000 makes e^{-c/eps} underflow in every entry
        problem = problem_from(random_plan(rng, 5, 7), NoConstraint(), eps=0.6)
        for _ in range(20):
            state = fresh_state(problem, rng=rng)
            state = BcdState(alpha=state.alpha, beta=state.beta,
                             cost=state.cost + offset, M_c=state.M_c,
                             M_alpha=state.M_alpha, M_beta=state.M_beta)
            alpha = bcd_alpha_update(state, problem).alpha
            assert np.abs(alpha - lse_alpha(state, problem)).max() <= 1e-12
            beta = bcd_beta_update(state, problem).beta
            assert np.abs(beta - lse_beta(state, problem)).max() <= 1e-12

    def test_alpha_matches_bisection_oracle(self, rng):
        # oracle: cyclic per-coordinate bisection on the alpha stationarity
        # conditions, run to convergence, then compared after centering
        problem = problem_from(random_plan(rng, 3, 3), NoConstraint(), eps=0.7)
        state = fresh_state(problem, rng=rng)
        mu = problem.observed.row_marginal.values
        alpha = state.alpha.copy()

        def row_gap(a, i):
            trial = alpha.copy()
            trial[i] = a
            soft = _softmax_plan(trial, state.beta, state.cost, 0.7)
            return soft[i].sum() - mu[i]

        for _sweep in range(300):
            for i in range(3):
                lo, hi = -60.0, 60.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if row_gap(mid, i) < 0:
                        lo = mid
                    else:
                        hi = mid
                alpha[i] = 0.5 * (lo + hi)
        alpha -= 0.5 * (alpha.max() + alpha.min())
        out = bcd_alpha_update(state, problem)
        assert np.abs(out.alpha - alpha).max() <= 1e-8


def repeat_c_update(state, problem, tol, calls):
    """States of repeated bcd_c_update calls, until a call moves c by at most
    tol (or after `calls` calls)."""
    trace = [state]
    for _ in range(calls):
        trace.append(bcd_c_update(trace[-1], problem)[0])
        if np.linalg.norm(trace[-1].cost - trace[-2].cost) <= tol:
            break
    return trace


class TestCostBlock:
    def test_fixed_point_unchanged(self, rng):
        # make the softmax equal the observation so the gradient vanishes
        problem = problem_from(random_plan(rng, 3, 3), NoConstraint())
        pihat = problem.observed.matrix
        state = fresh_state(problem, M_c=10.0)
        state = BcdState(alpha=np.zeros(3), beta=np.zeros(3),
                         cost=-np.log(pihat),  # interior of [0, 10]
                         M_c=state.M_c, M_alpha=state.M_alpha,
                         M_beta=state.M_beta)
        out = repeat_c_update(state, problem, tol=0.0, calls=5)[-1]
        assert np.abs(out.cost - state.cost).max() <= 1e-9

    def test_single_step_descent(self, rng):
        problem = problem_from(random_plan(rng, 2, 2), Box(0.0, 2.0), eps=0.9)
        for _ in range(1000):
            state = fresh_state(problem, rng=rng)
            trace = repeat_c_update(state, problem, tol=0.0, calls=50)
            f = [objective_F(s.alpha, s.beta, s.cost, problem) for s in trace]
            assert np.all(np.diff(f) <= 1e-12)

    def test_matches_grid_search_oracle(self, rng):
        # oracle: exhaustive 4-d grid over the box, refined twice down to a
        # pitch of 1e-3 around the incumbent
        M_c = 1.0
        problem = problem_from(random_plan(rng, 2, 2), Box(0.0, M_c), eps=1.0)
        state = fresh_state(problem, M_c=M_c, rng=rng)
        out = repeat_c_update(state, problem, tol=1e-14, calls=400)[-1]

        pihat = problem.observed.matrix
        alpha, beta = state.alpha, state.beta

        def f_batch(grid):  # grid: (..., 2, 2)
            lin = np.sum(grid * pihat, axis=(-2, -1))
            z = (alpha[:, None] + beta[None, :] - grid)
            lse = np.log(np.sum(np.exp(z), axis=(-2, -1)))
            return lin + lse

        center = np.full((2, 2), 0.5 * M_c)
        radius = 0.5 * M_c
        for pitch in (0.05, 0.01, 0.001):
            axes = [np.clip(center[i, j] + np.arange(-radius, radius + pitch,
                                                     pitch), 0, M_c)
                    for i in (0, 1) for j in (0, 1)]
            mesh = np.meshgrid(*axes, indexing="ij")
            grid = np.stack([m.ravel() for m in mesh], axis=-1).reshape(
                -1, 2, 2)
            vals = f_batch(grid)
            center = grid[np.argmin(vals)]
            radius = 2 * pitch
        assert np.abs(out.cost - center).max() <= 1e-3


def _affinity(n):
    rng = np.random.default_rng(7)
    return LinearAffinity(rng.normal(size=(2, n)), rng.normal(size=(3, n)))


PROJECTION_SHAPES = {
    "sym0+box": lambda n: SYM_NONNEG,
    "sym0": lambda n: SymmetricZeroDiag(),
    "box-below-M_c": lambda n: Box(0.1, 1.5),
    "box-above-M_c": lambda n: Box(2.5, 4.0),  # every entry clamps to M_c = 2
    "none": lambda n: NoConstraint(),
    "box-then-sym0": lambda n: Composite([Box(0.0, np.inf), SymmetricZeroDiag()]),
    "affinity": _affinity,
    "affinity+box": lambda n: Composite([_affinity(n), Box(-1.0, 3.0)]),
    "sym0+wide-box": lambda n: Composite([SymmetricZeroDiag(), Box(-5.0, 10.0)]),
}


@pytest.mark.parametrize("shape", PROJECTION_SHAPES)
@pytest.mark.parametrize("n", [5, 8])
def test_c_projection_is_the_clipped_prox(shape, n):
    # BCD's feasible set, whose split composes adjacent boxes into one clamp,
    # must project as the plain composition bit for bit
    constraint, M_c = PROJECTION_SHAPES[shape](n), 2.0
    c = np.random.default_rng(n).uniform(-8.0, 12.0, size=(n, n))
    want = np.clip(constraint.prox(c), 0.0, M_c)
    feasible = Composite([constraint, Box(0.0, M_c)])
    got = feasible.prox(c)
    assert got.tobytes() == want.tobytes()
    assert np.all((got >= 0.0) & (got <= M_c))
    tail = feasible.split()[1]
    assert not any(isinstance(a, Box) and isinstance(b, Box) for a, b in zip(tail, tail[1:]))


SYM_BOX = Composite([SymmetricZeroDiag(), Box(0.0, 2.0)])


def fixed_step_c_update(state, problem, inner_steps, grad_tol):
    """Reference c block: projected gradient with the fixed step eps = 1/L."""
    eps = problem.config.epsilon
    pihat = problem.observed.matrix
    c = state.cost
    for _ in range(inner_steps):
        grad = pihat - _softmax_plan(state.alpha, state.beta, c, eps)
        c_next = np.clip(problem.constraint.prox(c - eps * grad), 0.0,
                         state.M_c)
        move = float(np.linalg.norm(c_next - c))
        c = c_next
        if move <= grad_tol:
            break
    return c


def feasible_state(problem, rng):
    """A random state whose cost already lies in the c-block's feasible set."""
    state = fresh_state(problem, rng=rng)
    cost = np.clip(problem.constraint.prox(state.cost), 0.0, state.M_c)
    return replace(state, cost=cost)


class TestArmijoCostBlock:
    @pytest.mark.parametrize("eps", [0.3, 0.9, 2.0])
    @pytest.mark.parametrize("constraint", [Box(0.0, 2.0), SYM_BOX],
                             ids=["box", "sym0+box"])
    def test_every_inner_step_descends(self, rng, eps, constraint):
        problem = problem_from(random_plan(rng, 4, 4), constraint, eps=eps)
        for _ in range(20):
            trace = repeat_c_update(feasible_state(problem, rng), problem,
                                    tol=0.0, calls=30)
            f = [objective_F(s.alpha, s.beta, s.cost, problem) for s in trace]
            assert np.all(np.diff(f) <= 1e-12)

    @pytest.mark.parametrize("eps", [0.3, 0.9, 2.0])
    def test_reaches_the_fixed_step_minimizer(self, rng, eps):
        # sym0+box pins the minimizer: under a box alone c + t is flat in t
        # while no clamp binds, and the two loops may stop at different ends;
        # at n > 2 the fixed step needs more than 400 steps
        problem = problem_from(random_plan(rng, 2, 2), SYM_BOX, eps=eps)
        for _ in range(10):
            state = feasible_state(problem, rng)
            got = repeat_c_update(state, problem, tol=1e-14,
                                  calls=400)[-1].cost
            expect = fixed_step_c_update(state, problem, inner_steps=400,
                                         grad_tol=1e-14)
            assert np.abs(got - expect).max() <= 1e-8

    def test_one_call_is_inexact(self, rng, monkeypatch):
        # fewer trials than 50 steps of one or more trials each
        problem = problem_from(random_plan(rng, 8, 8), SYM_BOX)
        state = feasible_state(problem, rng)
        calls = []
        c_value = bcd._c_value

        def counted(*args):
            calls.append(args)
            return c_value(*args)

        monkeypatch.setattr(bcd, "_c_value", counted)
        out, f = bcd_c_update(state, problem)
        # the returned f is the block's own value at the returned cost
        assert calls[-1][1] is out.cost and f == c_value(*calls[-1])[0]
        assert len(calls) - 1 < 50  # one call per trial, and one at the start
        f0 = objective_F(state.alpha, state.beta, state.cost, problem)
        assert objective_F(out.alpha, out.beta, out.cost, problem) <= f0 + 1e-12


class TestBcdSolve:
    def test_independent_coupling_gives_zero_cost(self):
        mu, nu = synth_marginals(5, 5, seed=1)
        plan = make_plan(np.outer(mu.values, nu.values))
        problem = problem_from(plan, Composite([SymmetricZeroDiag(),
                                                Box(0.0, 2.0)]),
                               max_iter=3000, tol=1e-12)
        solution = bcd_solve(problem, M_c=2.0)
        assert np.linalg.norm(solution.cost.matrix) <= 1e-6

    def test_grid_cost_recovery(self):
        n = 32
        c_star = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=1.0, seed=3))
        mu, nu = synth_marginals(n, n, seed=3)
        plan = forward_plan(c_star, mu, nu, 1.0)
        problem = problem_from(plan, SYM_NONNEG, max_iter=5000, tol=1e-12)
        solution = bcd_solve(problem, M_c=2.0, truth=c_star)
        assert solution.report.rel_err_trace[-1] <= 1e-2

    def test_feasibility_residual_of_returned_triple(self):
        n = 12
        c_star = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=1.0, seed=3))
        mu, nu = synth_marginals(n, n, seed=3)
        plan = forward_plan(c_star, mu, nu, 1.0)
        solution = bcd_solve(problem_from(plan, SYM_NONNEG, max_iter=5000,
                                          tol=1e-9), M_c=2.0)
        model = plan_from_duals(solution.duals, solution.cost)
        expect = max(np.abs(model.sum(axis=1) - mu.values).sum(),
                     np.abs(model.sum(axis=0) - nu.values).sum())
        assert solution.report.converged
        assert solution.report.feasibility_residual == pytest.approx(
            expect, rel=1e-12)
        assert solution.report.feasibility_residual <= 1e-6

    def test_psi_trace_monotone(self, rng):
        problem = problem_from(random_plan(rng, 5, 5), SYM_NONNEG,
                               max_iter=400, tol=1e-14)
        solution = bcd_solve(problem, M_c=2.0)
        psi = solution.report.objective_trace
        assert np.all(np.diff(psi) <= 1e-9)

    def test_psi_is_objective_F_of_logged_states(self, rng):
        # psi is read off the c block's last f, with no second evaluation
        problem = problem_from(random_plan(rng, 6, 6), SYM_NONNEG,
                               max_iter=40, tol=1e-14)
        log = []
        psi = bcd_solve(problem, M_c=2.0, state_log=log).report.objective_trace
        assert len(psi) == len(log)
        for value, s in zip(psi, log):
            assert value == objective_F(s.alpha, s.beta, s.cost, problem)

    def test_logged_states_stay_in_bounds(self, rng):
        problem = problem_from(random_plan(rng, 4, 4), SYM_NONNEG,
                               max_iter=200, tol=1e-14)
        log = []
        bcd_solve(problem, M_c=2.0, state_log=log)
        assert log and all(s.norms_ok() for s in log)

    def test_agrees_with_matrix_scaling(self, rng):
        from invot import prox_symmetric_zero_diag
        c_star = prox_symmetric_zero_diag(rng.uniform(0.1, 0.9, size=(4, 4)))
        mu, nu = synth_marginals(4, 4, seed=6)
        plan = forward_plan(c_star, mu, nu, 1.0)
        scaled = learn_cost(problem_from(plan, SYM_NONNEG, max_iter=4000,
                                         tol=1e-15))
        bcd = bcd_solve(problem_from(plan, SYM_NONNEG, max_iter=8000,
                                     tol=1e-12), M_c=2.0)
        assert relative_error(bcd.cost, scaled.cost) <= 1e-3

    def test_rel_err_trace_is_relative_error(self, rng):
        c_star = prox_symmetric_zero_diag(rng.uniform(0.1, 0.9, size=(4, 4)))
        mu, nu = synth_marginals(4, 4, seed=6)
        plan = forward_plan(c_star, mu, nu, 1.0)
        solution = bcd_solve(problem_from(plan, SYM_NONNEG, max_iter=20),
                             M_c=2.0, truth=c_star)
        assert solution.report.rel_err_trace[-1] == relative_error(
            solution.cost, c_star)

    @pytest.mark.parametrize("truth,error", [(np.ones((3, 3)), DimMismatch),
                                             (np.zeros((4, 4)), ZeroReference)])
    def test_bad_truth_refused_before_first_iteration(self, rng, monkeypatch,
                                                       truth, error):
        def tripwire(state, problem):
            raise AssertionError("an iteration ran")

        monkeypatch.setattr("invot.bcd.bcd_alpha_update", tripwire)
        with pytest.raises(error):
            bcd_solve(problem_from(random_plan(rng, 4, 4), SYM_NONNEG),
                      truth=truth)

    @pytest.mark.parametrize("M_c", [0.0, -1.0, np.nan])
    def test_bad_box_bound_refused_before_first_iteration(self, rng, monkeypatch,
                                                          M_c):
        def tripwire(state, problem):  # a NaN M_c past the check spins in the Armijo loop
            raise AssertionError("an iteration ran")

        monkeypatch.setattr("invot.bcd.bcd_alpha_update", tripwire)
        with pytest.raises(BadBounds, match="M_c must be positive"):
            bcd_solve(problem_from(random_plan(rng, 4, 4), SYM_NONNEG), M_c=M_c)

    def test_rate_bound_envelope(self, rng):
        problem = problem_from(random_plan(rng, 5, 5), SYM_NONNEG,
                               max_iter=2000, tol=1e-16)
        solution = bcd_solve(problem, M_c=2.0)
        psi = solution.report.objective_trace
        k_max = len(psi)
        assert k_max >= 100
        M_alpha = solution.report.extras["M_alpha"]
        M_beta = solution.report.extras["M_beta"]
        D2 = 5 * M_alpha ** 2 + 5 * M_beta ** 2 + 25 * 4.0
        C = rate_bound_constant(D2, psi[0], psi[-1])
        for k in range(100, k_max + 1):
            assert psi[k - 1] - psi[-1] <= C / k

    def test_stops_at_rounding_floor(self):
        # at tol 1e-16 this instance's c moves by rounding noise and, with a
        # stop on tol alone, runs all 2000 iterations; the floor, 4 machine
        # epsilons of ||c||_F, ends it
        problem = problem_from(random_plan(np.random.default_rng(3), 5, 5), SYM_NONNEG,
                               max_iter=2000, tol=1e-16)
        report = bcd_solve(problem, M_c=2.0).report
        assert report.converged
        assert report.iterations < 2000

    def test_grid_cost_recovery_converges(self):
        n = 32
        c_star = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=1.0, seed=3))
        mu, nu = synth_marginals(n, n, seed=3)
        plan = forward_plan(c_star, mu, nu, 1.0)
        problem = problem_from(plan, SYM_NONNEG, max_iter=5000, tol=1e-12)
        solution = bcd_solve(problem, M_c=2.0, truth=c_star)
        assert solution.report.converged
        assert solution.report.rel_err_trace[-1] <= 1e-6


class TestLipschitzProbe:
    def test_singleton_is_constant(self):
        assert lipschitz_probe(np.array([2.0])) == 0.0

    def test_two_point_extreme_pair_below_one(self):
        # direct softmax gradient formula at antipodal points
        R = 10.0
        b = np.array([1.0, 1.0])
        x = np.array([R, -R])
        y = np.array([-R, R])

        def grad(z):
            w = np.exp(z - z.max())
            return w / w.sum()

        ratio = np.linalg.norm(grad(x) - grad(y)) / np.linalg.norm(x - y)
        assert ratio < 1.0
        assert lipschitz_probe(b, samples=2000) <= 1.0 + 1e-6

    def test_nan_weight_refused(self):
        with pytest.raises(BadBounds):
            lipschitz_probe(np.array([np.nan, 1.0]), samples=100)

    def test_sampled_ratio_bounded(self, rng):
        b = rng.uniform(0.5, 2.0, size=8)
        assert lipschitz_probe(b, samples=10000) <= 1.0 + 1e-6
