"""Acceptance suite: ten numbered criteria, one verdict line each.

Each test prints its verdict straight to the terminal (bypassing capture) so
a plain ``pytest -v`` run shows one CRITERION line per item.
"""

import time

import numpy as np
import pytest

from invot import (
    Box,
    Composite,
    CostParameterization,
    FeedForwardNet,
    InverseProblem,
    LinearAffinity,
    NoConstraint,
    ProbabilityVector,
    SolverConfig,
    SymmetricZeroDiag,
    SyntheticSpec,
    TrainConfig,
    bcd_solve,
    learn_cost,
    lipschitz_probe,
    mc_integral_uniform,
    net_forward,
    net_gradient,
    objective_E,
    objective_F,
    prox_symmetric_zero_diag,
    relative_error,
    sample_pairs,
    sinkhorn_solve,
    synth_cost,
    synth_marginals,
    train,
    xavier_init,
)
from conftest import make_plan, random_plan

SYM_NONNEG = Composite([SymmetricZeroDiag(), Box(0.0, np.inf)])

# every forward solve in this suite registers its marginal residual here;
# criterion 4 audits the registry
FORWARD_RESIDUALS = []


def forward_plan(cost, mu, nu, eps, tol=1e-10, mode="auto"):
    cfg = SolverConfig(epsilon=eps, max_iter=200000, tol=tol)
    result = sinkhorn_solve(cost, mu, nu, cfg, mode=mode)
    assert result.report.converged
    FORWARD_RESIDUALS.append(
        max(result.plan.row_residual, result.plan.col_residual))
    return result


def inverse_problem(plan, eps, max_iter, constraint=SYM_NONNEG, tol=1e-16):
    return InverseProblem(observed=plan, constraint=constraint,
                          config=SolverConfig(epsilon=eps, max_iter=max_iter,
                                              tol=tol))


def verdict(capsys, number, ok, detail):
    line = f"CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_discrete_grid_recovery(capsys):
    n, eps, n_instances = 100, 0.1, 20
    worst = 0.0
    slowest = 0.0
    means = {}
    for p in (0.5, 1.0, 2.0, 3.0):
        errs = []
        for inst in range(n_instances):
            seed = 1000 * inst + int(10 * p)
            t0 = time.perf_counter()
            c_star = synth_cost(SyntheticSpec(n=n, p=p, epsilon=eps,
                                              seed=seed))
            mu, nu = synth_marginals(n, n, seed=seed)
            plan = forward_plan(c_star, mu, nu, eps).plan
            solution = learn_cost(inverse_problem(plan, eps, max_iter=500),
                                  truth=c_star)
            elapsed = time.perf_counter() - t0
            errs.append(float(solution.report.rel_err_trace[-1]))
            slowest = max(slowest, elapsed)
        means[p] = float(np.mean(errs))
        worst = max(worst, max(errs))
    detail = ("rel err after 500 iterations, 20-instance means per exponent "
              + ", ".join(f"p={p}: {m:.2e}" for p, m in means.items())
              + f"; worst {worst:.2e} (<= 1e-3), slowest instance "
              + f"{slowest:.1f}s (< 60s)")
    verdict(capsys, 1, worst <= 1e-3 and slowest < 60.0, detail)


def test_criterion_02_epsilon_robustness(capsys):
    n = 100
    errs = {}
    log_used = False
    for eps in (10.0, 1.0, 0.1, 0.01):
        c_star = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=eps, seed=1))
        mu, nu = synth_marginals(n, n, seed=1)
        mode = "log" if eps == 0.01 else "auto"
        result = forward_plan(c_star, mu, nu, eps, tol=1e-11, mode=mode)
        if eps == 0.01:
            log_used = bool(result.report.extras["log_domain"])
        solution = learn_cost(inverse_problem(result.plan, eps,
                                              max_iter=2000),
                              truth=c_star)
        errs[eps] = float(solution.report.rel_err_trace[-1])
    ok = max(errs.values()) <= 1e-2 and log_used
    detail = ("rel err within 2000 iterations "
              + ", ".join(f"eps={e}: {v:.2e}" for e, v in errs.items())
              + f" (all <= 1e-2); log-domain at eps=0.01: {log_used}")
    verdict(capsys, 2, ok, detail)


def test_criterion_03_scaling_benchmark(capsys):
    sizes = (128, 256, 512, 1024)
    target = 5e-2
    reps = 3
    all_monotone = True
    all_reached = True
    rows = []

    def instance(n, eps, rep):
        seed = 37 * rep + n
        c_star = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=eps, seed=seed))
        mu, nu = synth_marginals(n, n, seed=seed)
        plan = forward_plan(c_star, mu, nu, eps, tol=1e-9).plan
        return inverse_problem(plan, eps, max_iter=5000), c_star

    # one untimed solve first, so that no size is timed from a cold start
    problem, c_star = instance(sizes[0], 1.0, 0)
    learn_cost(problem, truth=c_star, target_rel_err=target)
    for eps in (1.0, 0.1):
        times = []
        for n in sizes:
            per_rep = []
            for rep in range(reps):
                problem, c_star = instance(n, eps, rep)
                t0 = time.perf_counter()
                solution = learn_cost(problem, truth=c_star,
                                      target_rel_err=target)
                per_rep.append(time.perf_counter() - t0)
                if solution.report.rel_err_trace[-1] > target:
                    all_reached = False
            times.append(float(np.mean(per_rep)))
        rows.append((eps, times))
        if not np.all(np.diff(times) >= 0):
            all_monotone = False
    detail = ("mean time-to-rel-err-5e-2 over n=128..1024: " + "; ".join(
        f"eps={eps}: " + "/".join(f"{t * 1000:.0f}ms" for t in times)
        for eps, times in rows) + "; monotone nondecreasing per eps")
    verdict(capsys, 3, all_monotone and all_reached, detail)


def test_criterion_04_forward_feasibility(capsys):
    rng = np.random.default_rng(404)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        eps = float(rng.choice([2.0, 1.0, 0.3, 0.05]))
        c = rng.uniform(0, 1, size=(n, n))
        mu, nu = synth_marginals(n, n, seed=int(rng.integers(1 << 30)))
        forward_plan(c, mu, nu, eps, tol=1e-9)
    worst = max(FORWARD_RESIDUALS)
    detail = (f"{len(FORWARD_RESIDUALS)} forward solves in the suite so far, "
              f"worst L1 marginal residual {worst:.2e} (<= 1e-8)")
    verdict(capsys, 4, worst <= 1e-8, detail)


def test_criterion_05_equivalence_class_invariance(capsys):
    rng = np.random.default_rng(55)
    worst_e = 0.0
    worst_f = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        problem = InverseProblem(
            observed=random_plan(rng, m, n), constraint=NoConstraint(),
            config=SolverConfig(epsilon=float(rng.uniform(0.3, 2.0))))
        alpha = rng.normal(size=m)
        beta = rng.normal(size=n)
        c = rng.normal(size=(m, n))
        a = rng.normal(size=m)
        b = rng.normal(size=n)
        e0 = objective_E(alpha, beta, c, problem)
        e1 = objective_E(alpha + a, beta + b,
                         c + a[:, None] + b[None, :], problem)
        worst_e = max(worst_e, abs(e1 - e0) / abs(e0))
        t = float(rng.normal())
        f0 = objective_F(alpha, beta, c, problem)
        f1 = objective_F(alpha + t, beta - t, c, problem)
        worst_f = max(worst_f, abs(f1 - f0) / max(abs(f0), 1.0))
    ok = worst_e <= 1e-10 and worst_f <= 1e-10
    detail = (f"1000 random tuples: worst relative drift {worst_e:.2e} for "
              f"the exponential-sum objective, {worst_f:.2e} for the "
              f"log-sum-exp objective (both <= 1e-10)")
    verdict(capsys, 5, ok, detail)


def test_criterion_06_uniqueness_by_recovery(capsys):
    rng = np.random.default_rng(66)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(3, 11))
        c_star = prox_symmetric_zero_diag(rng.uniform(0.05, 1.0, size=(n, n)))
        mu, nu = synth_marginals(n, n, seed=600 + k)
        plan = forward_plan(c_star, mu, nu, 1.0, tol=1e-12).plan
        solution = learn_cost(inverse_problem(plan, 1.0, max_iter=6000))
        worst = max(worst, relative_error(solution.cost, c_star))
    worst_indep = 0.0
    for k in range(10):
        mu, nu = synth_marginals(6, 6, seed=6000 + k)
        plan = make_plan(np.outer(mu.values, nu.values))
        solution = learn_cost(inverse_problem(plan, 1.0, max_iter=4000))
        worst_indep = max(worst_indep,
                          float(np.linalg.norm(solution.cost.matrix)))
    ok = worst <= 1e-4 and worst_indep <= 1e-6
    detail = (f"50 symmetric instances: worst rel err {worst:.2e} (<= 1e-4); "
              f"10 independent couplings: worst cost norm {worst_indep:.2e} "
              f"(<= 1e-6)")
    verdict(capsys, 6, ok, detail)


def test_criterion_07_linear_affinity_recovery(capsys):
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(5):
        G = rng.normal(size=(4, 8))
        D = rng.normal(size=(3, 6))
        A0 = rng.normal(size=(4, 3)) * 0.1
        c_star = G.T @ A0 @ D
        mu, nu = synth_marginals(8, 6, seed=700 + trial)
        plan = forward_plan(c_star, mu, nu, 1.0, tol=1e-12).plan
        solution = learn_cost(
            inverse_problem(plan, 1.0, max_iter=8000,
                            constraint=LinearAffinity(G, D, 1)))
        err = float(np.linalg.norm(solution.affinity - A0)
                    / np.linalg.norm(A0))
        worst = max(worst, err)
    detail = (f"5 planted 4x3 affinities through full-row-rank 4x8 / 3x6 "
              f"features: worst rel err {worst:.2e} (<= 1e-2)")
    verdict(capsys, 7, worst <= 1e-2, detail)


def test_criterion_08_bcd_guarantees(capsys):
    rng = np.random.default_rng(88)
    monotone = True
    bounded = True
    for _ in range(10):
        n = int(rng.integers(4, 9))
        problem = inverse_problem(random_plan(rng, n, n), 1.0, max_iter=400,
                                  tol=1e-14)
        log = []
        solution = bcd_solve(problem, M_c=2.0, state_log=log)
        psi = solution.report.objective_trace
        if not np.all(np.diff(psi) <= 1e-9):
            monotone = False
        if not (log and all(s.norms_ok() for s in log)):
            bounded = False
    rng.normal(size=8)  # unused, but the draws below follow it in the stream
    probe = lipschitz_probe(rng.uniform(0.5, 2.0, size=8), samples=10000)
    worst_gap = 0.0
    for k in range(3):
        c_star = prox_symmetric_zero_diag(rng.uniform(0.1, 0.9, size=(4, 4)))
        mu, nu = synth_marginals(4, 4, seed=800 + k)
        plan = forward_plan(c_star, mu, nu, 1.0, tol=1e-12).plan
        scaled = learn_cost(inverse_problem(plan, 1.0, max_iter=5000))
        bcd = bcd_solve(inverse_problem(plan, 1.0, max_iter=8000, tol=1e-12),
                        M_c=2.0)
        worst_gap = max(worst_gap, relative_error(bcd.cost, scaled.cost))
    ok = monotone and bounded and probe <= 1.0 + 1e-6 and worst_gap <= 1e-3
    detail = (f"objective trace monotone: {monotone}; iterate boxes hold: "
              f"{bounded}; gradient-ratio probe {probe:.4f} (<= 1+1e-6); "
              f"worst cross-algorithm gap {worst_gap:.2e} (<= 1e-3)")
    verdict(capsys, 8, ok, detail)


def _layer_views(net):
    """[w_0, b_0, w_1, b_1, ...]: views into net.params, layer by layer."""
    return [p for wb in zip(net.weights, net.biases) for p in wb]


def _gradient_check_worst(rng):
    worst = 0.0
    h = 1e-5
    for trial in range(20):
        dims = [int(rng.integers(1, 4)), 20, 20, 20, 1]
        act = str(rng.choice(["relu", "identity", "softplus"]))
        net = xavier_init(dims, act, seed=900 + trial)
        x = rng.normal(size=dims[0])
        # the gradient as a net of the same dims, for its per-layer views
        grads = _layer_views(FeedForwardNet(dims, net_gradient(net, x), act))
        params = _layer_views(net)
        for k in rng.choice(len(params), size=3, replace=False):
            idx = np.unravel_index(int(rng.integers(params[k].size)),
                                   params[k].shape)

            def value(delta):
                probe = FeedForwardNet(dims, net.params.copy(), act)
                _layer_views(probe)[k][idx] += delta
                return net_forward(probe, x)

            fd = (value(h) - value(-h)) / (2 * h)
            an = grads[k][idx]
            if abs(an) < 1e-8:
                worst = max(worst, abs(fd - an) / 1e-8 * 1e-4)
            else:
                worst = max(worst, abs(fd - an) / abs(an))
    return worst


class _LinearInput:
    input_dim = 1

    def forward_batch(self, X):
        return np.atleast_2d(X)[:, 0], None


class _Zero1d:
    input_dim = 1

    def forward_batch(self, X):
        return np.zeros(np.atleast_2d(X).shape[0]), None


class _ZeroCost:
    def evaluate(self, X, Y):
        return np.zeros(np.atleast_2d(X).shape[0])


def test_criterion_09_continuous_module(capsys):
    rng = np.random.default_rng(99)
    grad_worst = _gradient_check_worst(rng)

    n, eps = 100, 0.5
    c_star = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=eps, seed=0))
    mu, nu = synth_marginals(n, n, seed=0)
    plan = forward_plan(c_star, mu, nu, eps).plan
    support = np.arange(n) / n
    samples = sample_pairs(plan, support, support, N=5000, seed=0)
    cost = CostParameterization(
        "absdiff", xavier_init([1, 20, 20, 20, 1], "relu", seed=0))
    alpha = xavier_init([1, 20, 20, 20, 1], "identity", seed=1)
    beta = xavier_init([1, 20, 20, 20, 1], "identity", seed=2)
    # batch 500 of 5000 pairs -> 10 steps per epoch, 2000 epochs = 20,000
    # Adam steps at the contractual learning rate
    config = TrainConfig(learning_rate=1e-4, batch_size=500,
                         n_collocation=500, epochs=2000, seed=0,
                         domain_box=((0.0, 1.0), (0.0, 1.0)))
    cost = train(samples, cost, alpha, beta, config)[2]
    xi = np.linspace(0.0, 1.0, 100).reshape(-1, 1)
    learned, _ = cost.net.forward_batch(xi)
    corr = float(np.corrcoef(learned, xi[:, 0] ** 2)[0, 1])

    n_s = 1_000_000
    estimate = mc_integral_uniform(_LinearInput(), _Zero1d(), _ZeroCost(),
                                   ((0.0, 1.0), (0.0, 1.0)), n_s=n_s, seed=42)
    se = np.sqrt(((np.e ** 2 - 1) / 2 - (np.e - 1) ** 2) / n_s)
    mc_gap = abs(estimate - (np.e - 1))

    traces = []
    for _ in range(2):
        c2 = CostParameterization(
            "absdiff", xavier_init([1, 20, 20, 20, 1], "relu", seed=7))
        a2 = xavier_init([1, 20, 20, 20, 1], "identity", seed=8)
        b2 = xavier_init([1, 20, 20, 20, 1], "identity", seed=9)
        cfg = TrainConfig(batch_size=500, n_collocation=200, epochs=5, seed=3,
                          domain_box=((0.0, 1.0), (0.0, 1.0)))
        traces.append(train(samples, c2, a2, b2, cfg)[3].objective_trace)
    deterministic = bool(np.array_equal(traces[0], traces[1]))

    ok = (grad_worst <= 1e-4 and corr >= 0.99 and mc_gap <= 3 * se
          and deterministic)
    detail = (f"(a) worst gradient FD mismatch {grad_worst:.2e} (<= 1e-4); "
              f"(b) grid correlation with xi^2 after 20,000 steps "
              f"{corr:.4f} (>= 0.99); (c) MC estimate off e-1 by "
              f"{mc_gap:.2e} (<= 3 SE = {3 * se:.2e}); (d) bitwise "
              f"deterministic per seed: {deterministic}")
    verdict(capsys, 9, ok, detail)


def test_criterion_10_out_of_scope_declaration(capsys):
    # the proprietary-survey benchmark and its external baselines cannot be
    # rerun here; the planted linear-affinity recovery above is the declared
    # stand-in, so this criterion only checks that the stand-in exists
    substitute_present = callable(learn_cost) and LinearAffinity is not None
    detail = ("survey-data RMSE and external-baseline table are NOT "
              "reproducible (proprietary data, third-party code); "
              "criterion 7 is the declared substitute and is present: "
              f"{substitute_present}")
    verdict(capsys, 10, substitute_present, detail)
