import numpy as np
import pytest

from invot import (
    CostParameterization,
    FeedForwardNet,
    SampleSet,
    TrainConfig,
    mc_integral_uniform,
    net_forward,
    train,
    xavier_init,
)
from invot.errors import BadBounds, DimMismatch, Diverged


class FnNet:
    """Duck-typed scalar function standing in for a network."""

    def __init__(self, fn, input_dim):
        self.fn = fn
        self.input_dim = input_dim

    def forward_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.fn(X), None


class FnCost:
    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, X, Y):
        return self.fn(np.atleast_2d(X), np.atleast_2d(Y))


ZERO_1D = FnNet(lambda X: np.zeros(X.shape[0]), 1)
ZERO_COST = FnCost(lambda X, Y: np.zeros(X.shape[0]))
UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))


def zero_net(dims, activation="identity"):
    net = xavier_init(dims, activation, seed=0)
    net.params[...] = 0.0
    return net


class TestUniformEstimator:
    def test_constant_integrand_unit_box(self):
        got = mc_integral_uniform(ZERO_1D, ZERO_1D, ZERO_COST, UNIT_BOX,
                                  n_s=100, seed=0)
        assert got == 1.0

    def test_volume_factor(self):
        box = ((0.0, 2.0), (0.0, 1.0))
        got = mc_integral_uniform(ZERO_1D, ZERO_1D, ZERO_COST, box,
                                  n_s=100, seed=0)
        assert got == 2.0

    def test_exponential_integral(self):
        # integral of e^x over the unit square is e - 1; the estimator must
        # land within three standard errors of it
        alpha = FnNet(lambda X: X[:, 0], 1)
        n_s = 1_000_000
        got = mc_integral_uniform(alpha, ZERO_1D, ZERO_COST, UNIT_BOX,
                                  n_s=n_s, seed=42)
        var = (np.e ** 2 - 1) / 2 - (np.e - 1) ** 2
        assert abs(got - (np.e - 1)) <= 3.0 * np.sqrt(var / n_s)

    def test_standard_deviation_scales_inverse_sqrt(self):
        alpha = FnNet(lambda X: np.sin(3 * X[:, 0]), 1)
        cost = FnCost(lambda X, Y: 0.5 * (X[:, 0] - Y[:, 0]) ** 2)
        stds = []
        for k, n_s in enumerate((1000, 10000, 100000)):
            draws = [mc_integral_uniform(alpha, ZERO_1D, cost, UNIT_BOX,
                                         n_s=n_s, seed=1000 * k + s)
                     for s in range(300)]
            stds.append(np.std(draws))
        for k in range(2):
            ratio = stds[k] / stds[k + 1]
            assert abs(ratio - np.sqrt(10.0)) / np.sqrt(10.0) <= 0.2


class TestGridEval:
    def test_zero_net(self, rng):
        cost = CostParameterization("absdiff", zero_net([1, 4, 1], "relu"))
        out = cost.evaluate(rng.random((20, 1)), rng.random((20, 1)))
        assert np.array_equal(out, np.zeros(20))

    def test_absdiff_symmetry_exact(self, rng):
        cost = CostParameterization(
            "absdiff", xavier_init([2, 8, 1], "relu", seed=4))
        X = rng.random((40, 2))
        Y = rng.random((40, 2))
        assert np.array_equal(cost.evaluate(X, Y), cost.evaluate(Y, X))

    def test_matches_pointwise_forward(self, rng):
        cost = CostParameterization(
            "raw", xavier_init([2, 8, 1], "relu", seed=5))
        X = rng.random((15, 1))
        Y = rng.random((15, 1))
        out = cost.evaluate(X, Y)
        for k in range(15):
            assert out[k] == pytest.approx(
                net_forward(cost.net, np.concatenate([X[k], Y[k]])),
                abs=1e-12)

    def test_relu_output_nonnegative(self, rng):
        cost = CostParameterization(
            "absdiff", xavier_init([1, 20, 20, 20, 1], "relu", seed=6))
        out = cost.evaluate(rng.random((200, 1)), rng.random((200, 1)))
        assert np.all(out >= 0)


class TestLossGradients:
    def test_assembled_gradient_matches_finite_differences(self, rng):
        # full loss with frozen collocation points; analytic gradients are
        # assembled from weighted batched backward passes and checked against
        # central differences at h = 1e-5
        alpha = xavier_init([1, 5, 1], "identity", seed=11)
        beta = xavier_init([1, 5, 1], "identity", seed=12)
        cnet = xavier_init([1, 5, 1], "relu", seed=13)
        xb = rng.random((6, 1))
        yb = rng.random((6, 1))
        col_x = rng.random((8, 1))
        col_y = rng.random((8, 1))

        def nets_from(params):
            return (FeedForwardNet([1, 5, 1], params[0], "identity"),
                    FeedForwardNet([1, 5, 1], params[1], "identity"),
                    FeedForwardNet([1, 5, 1], params[2], "relu"))

        def loss(params):
            a, b, c = nets_from(params)
            av, _ = a.forward_batch(xb)
            bv, _ = b.forward_batch(yb)
            cv, _ = c.forward_batch(np.abs(xb - yb))
            ac, _ = a.forward_batch(col_x)
            bc, _ = b.forward_batch(col_y)
            cc, _ = c.forward_batch(np.abs(col_x - col_y))
            integral = float(np.mean(np.exp(ac + bc - cc)))
            return (-float(np.mean(av)) - float(np.mean(bv))
                    + float(np.mean(cv)) + integral)

        params = [alpha.params.copy(), beta.params.copy(), cnet.params.copy()]
        a, b, c = nets_from(params)
        av, cache_a = a.forward_batch(xb)
        bv, cache_b = b.forward_batch(yb)
        cv, cache_c = c.forward_batch(np.abs(xb - yb))
        ac, cache_ac = a.forward_batch(col_x)
        bc, cache_bc = b.forward_batch(col_y)
        cc, cache_cc = c.forward_batch(np.abs(col_x - col_y))
        g_vals = np.exp(ac + bc - cc)
        w_col = g_vals / 8.0
        grads = [
            a.backward_batch(cache_a, -np.ones(6) / 6) + a.backward_batch(cache_ac, w_col),
            b.backward_batch(cache_b, -np.ones(6) / 6) + b.backward_batch(cache_bc, w_col),
            c.backward_batch(cache_c, np.ones(6) / 6) + c.backward_batch(cache_cc, -w_col),
        ]
        h = 1e-5
        for ni in range(3):
            for j in range(params[ni].size):  # every weight and bias of each net
                up = [p.copy() for p in params]
                dn = [p.copy() for p in params]
                up[ni][j] += h
                dn[ni][j] -= h
                fd = (loss(up) - loss(dn)) / (2 * h)
                an = grads[ni][j]
                if abs(an) < 1e-8:
                    assert abs(fd - an) <= 1e-8
                else:
                    assert abs(fd - an) / abs(an) <= 1e-4


def quadratic_task(n_pairs=2000, seed=0):
    """Paired draws from a discretized quadratic-cost plan on [0, 1)."""
    from invot import (SolverConfig, SyntheticSpec, sample_pairs,
                       sinkhorn_solve, synth_cost, synth_marginals)
    n = 50
    eps = 0.5
    c_star = synth_cost(SyntheticSpec(n=n, p=2.0, epsilon=eps, seed=seed))
    mu, nu = synth_marginals(n, n, seed=seed)
    forward = sinkhorn_solve(c_star, mu, nu,
                             SolverConfig(epsilon=eps, max_iter=50000, tol=1e-10))
    assert forward.report.converged
    plan = forward.plan
    support = np.arange(n) / n
    return sample_pairs(plan, support, support, N=n_pairs, seed=seed)


def small_nets(seed=0):
    cost = CostParameterization(
        "absdiff", xavier_init([1, 20, 20, 20, 1], "relu", seed=seed))
    alpha = xavier_init([1, 20, 20, 20, 1], "identity", seed=seed + 1)
    beta = xavier_init([1, 20, 20, 20, 1], "identity", seed=seed + 2)
    return cost, alpha, beta


class TestTrain:
    def test_loss_decreases_over_epochs(self):
        samples = quadratic_task()
        cost, alpha, beta = small_nets()
        config = TrainConfig(learning_rate=1e-3, batch_size=200,
                             n_collocation=200, epochs=50, seed=0,
                             domain_box=UNIT_BOX)
        _, _, _, report = train(samples, cost, alpha, beta, config)
        trace = report.objective_trace
        assert trace[49] < trace[0]

    def test_bitwise_deterministic_per_seed(self):
        samples = quadratic_task(n_pairs=400)
        traces = []
        for _ in range(2):
            cost, alpha, beta = small_nets(seed=5)
            config = TrainConfig(batch_size=100, n_collocation=100, epochs=5,
                                 seed=9, domain_box=UNIT_BOX)
            _, _, _, report = train(samples, cost, alpha, beta, config)
            traces.append(report.objective_trace)
        assert np.array_equal(traces[0], traces[1])

    def test_independent_coupling_learns_flat_cost(self):
        rng = np.random.default_rng(3)
        samples = SampleSet(xs=rng.random((3000, 1)),
                            ys=rng.random((3000, 1)))
        cost, alpha, beta = small_nets(seed=0)
        xi = np.linspace(0, 1, 100).reshape(-1, 1)
        untrained, _ = cost.net.forward_batch(xi)
        # a live net that starts far from flat, so only training can flatten it
        assert untrained.max() - untrained.min() > 0.05
        config = TrainConfig(learning_rate=1e-3, batch_size=500,
                             n_collocation=500, epochs=400, seed=1,
                             domain_box=UNIT_BOX)
        cost_out = train(samples, cost, alpha, beta, config)[2]
        vals, _ = cost_out.net.forward_batch(xi)
        assert vals.max() - vals.min() <= 0.05

    @pytest.mark.parametrize("seed,dead", [(3, True), (0, False)])
    def test_dead_cost_net_is_reported(self, seed, dead):
        # seed 3's relu output is <= 0 on all of [0, 1]: its data gradient is
        # exactly 0, so Adam never moves it, and the report says so
        samples = quadratic_task(n_pairs=400)
        cost, alpha, beta = small_nets(seed=seed)
        before = cost.net.params.copy()
        config = TrainConfig(batch_size=100, n_collocation=100, epochs=3, seed=0,
                             domain_box=UNIT_BOX)
        report = train(samples, cost, alpha, beta, config)[3]
        assert report.extras["cost_net_dead"] is dead
        assert report.converged
        assert np.array_equal(before, cost.net.params) is dead

    def test_divergence_is_loud(self):
        samples = quadratic_task(n_pairs=200)
        cost, alpha, beta = small_nets(seed=8)
        config = TrainConfig(learning_rate=30.0, batch_size=100,
                             n_collocation=100, epochs=50, seed=0,
                             domain_box=UNIT_BOX)
        with pytest.raises(Diverged):
            train(samples, cost, alpha, beta, config)


def six_pass_train(samples, cost, alpha, beta, config):
    """Reference training loop: pairs and collocation points pass through
    each net separately (six forward and six backward passes per step)."""
    from invot.continuous import _box_volume, _sample_box
    from invot.nets import AdamState, adam_step

    rng = np.random.default_rng(config.seed)
    vol = _box_volume(config.domain_box)
    n = samples.n_pairs
    batch = config.batch_size if config.batch_size > 0 else n
    nets = (alpha, beta, cost.net)
    states = [AdamState.zeros_like([net.params]) for net in nets]
    epoch_losses = []
    for _ in range(config.epochs):
        losses = []
        for _ in range(max(1, int(np.ceil(n / batch)))):
            pi = np.arange(n) if batch >= n else rng.integers(0, n, size=batch)
            col = _sample_box(config.domain_box, config.n_collocation, rng)
            px, py = samples.xs[pi], samples.ys[pi]
            cx, cy = col[:, :1], col[:, 1:]
            a, ca = alpha.forward_batch(px)
            b, cb = beta.forward_batch(py)
            c, cc = cost.net.forward_batch(cost.features(px, py))
            a2, ca2 = alpha.forward_batch(cx)
            b2, cb2 = beta.forward_batch(cy)
            c2, cc2 = cost.net.forward_batch(cost.features(cx, cy))
            g_vals = np.exp(a2 + b2 - c2)
            losses.append(-np.mean(a) - np.mean(b) + np.mean(c)
                          + vol * np.mean(g_vals))
            w_col = (vol / config.n_collocation) * g_vals
            pair = np.ones(len(pi)) / len(pi)
            grads = [
                alpha.backward_batch(ca, -pair) + alpha.backward_batch(ca2, w_col),
                beta.backward_batch(cb, -pair) + beta.backward_batch(cb2, w_col),
                cost.net.backward_batch(cc, pair) + cost.net.backward_batch(cc2, -w_col),
            ]
            for net, g, state in zip(nets, grads, states):
                adam_step([net.params], [g], state, lr=config.learning_rate)
        epoch_losses.append(np.mean(losses))
    return np.asarray(epoch_losses)


def parameters(nets):
    cost, alpha, beta = nets
    return [cost.net.params, alpha.params, beta.params]


class TestTrainStep:
    config = TrainConfig(learning_rate=1e-3, batch_size=100, n_collocation=80,
                         epochs=3, seed=4, domain_box=UNIT_BOX)

    def test_matches_six_pass_reference(self):
        samples = quadratic_task(n_pairs=200)
        got_nets = small_nets(seed=3)
        ref_nets = small_nets(seed=3)
        report = train(samples, *got_nets, self.config)[3]
        ref_losses = six_pass_train(samples, *ref_nets, self.config)
        np.testing.assert_allclose(report.objective_trace, ref_losses,
                                   rtol=1e-12, atol=0)
        for p, q in zip(parameters(got_nets), parameters(ref_nets)):
            np.testing.assert_allclose(p, q, rtol=1e-12, atol=0)

    def test_steps_the_nets_own_arrays(self):
        samples = quadratic_task(n_pairs=200)
        nets = small_nets(seed=0)  # at seed 3 the cost net's relu output starts dead
        before = parameters(nets)
        values = [p.copy() for p in before]
        train(samples, *nets, self.config)
        after = parameters(nets)
        assert len(after) == len(before)
        assert all(p is q for p, q in zip(after, before))
        assert not any(np.array_equal(p, v) for p, v in zip(after, values))

    def test_one_forward_and_backward_pass_per_net_per_step(self, monkeypatch):
        calls = {"forward": 0, "backward": 0}

        def counted(name):
            method = getattr(FeedForwardNet, f"{name}_batch")

            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            return wrapper

        samples = quadratic_task(n_pairs=200)
        nets = small_nets(seed=3)
        for name in calls:
            monkeypatch.setattr(FeedForwardNet, f"{name}_batch", counted(name))
        report = train(samples, *nets, self.config)[3]
        assert report.iterations == 6
        assert calls == {"forward": 3 * 6, "backward": 3 * 6}

    def test_feasibility_residual_is_last_epoch_integral(self):
        # full batch: one step per epoch, and the rng draws only collocation
        # points, so the third step's integral can be rebuilt from the nets
        # after two epochs and the third draw
        import dataclasses
        from invot.continuous import _log_integrand, _sample_box
        samples = quadratic_task(n_pairs=200)
        config = dataclasses.replace(self.config, batch_size=0)
        report = train(samples, *small_nets(seed=3), config)[3]
        cost, alpha, beta = small_nets(seed=3)
        train(samples, cost, alpha, beta, dataclasses.replace(config, epochs=2))
        rng = np.random.default_rng(config.seed)
        for _ in range(3):
            pts = _sample_box(config.domain_box, config.n_collocation, rng)
        integral = float(np.mean(np.exp(_log_integrand(alpha, beta, cost, pts))))
        assert report.converged is True
        assert np.isfinite(report.feasibility_residual)
        assert report.feasibility_residual == pytest.approx(abs(integral - 1), rel=1e-12)

    def test_constant_regularizer_shifts_loss_only(self):
        samples = quadratic_task(n_pairs=200)
        plain = small_nets(seed=3)
        shifted = small_nets(seed=3)
        base = train(samples, *plain, self.config)[3].objective_trace

        def constant(net):
            return 0.3, np.zeros_like(net.params)

        got = train(samples, *shifted, self.config,
                    regularizer=constant)[3].objective_trace
        np.testing.assert_allclose(got - base, 0.3, rtol=0, atol=1e-12)
        for p, q in zip(parameters(plain), parameters(shifted)):
            assert np.array_equal(p, q)

    def test_l2_regularizer_moves_only_the_cost_net(self):
        samples = quadratic_task(n_pairs=200)
        one_step = TrainConfig(learning_rate=1e-3, n_collocation=80, epochs=1,
                               seed=4, domain_box=UNIT_BOX)
        plain = small_nets(seed=3)
        reg = small_nets(seed=3)

        def l2(net):
            return 0.5 * float(net.params @ net.params), net.params.copy()

        plain_loss = train(samples, *plain, one_step)[3].objective_trace
        reg_loss = train(samples, *reg, one_step, regularizer=l2)[3].objective_trace
        assert reg_loss[0] > plain_loss[0]
        cost_plain, alpha_plain, beta_plain = plain
        cost_reg, alpha_reg, beta_reg = reg
        for a, b in ((alpha_plain, alpha_reg), (beta_plain, beta_reg)):
            assert np.array_equal(a.params, b.params)
        assert not np.array_equal(cost_plain.net.params, cost_reg.net.params)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": np.nan}, {"learning_rate": np.inf},
        {"learning_rate": -np.inf}, {"domain_box": ()}, {"domain_box": ((0.0, np.inf),)},
        {"domain_box": ((0.0, np.nan), (0.0, 1.0))},
        {"domain_box": ((-np.inf, 0.0),)}, {"domain_box": ((0.0, 1.0), (1.0, 1.0))}])
    def test_non_finite_or_empty_values_rejected(self, kwargs):
        with pytest.raises(BadBounds):
            TrainConfig(**kwargs)


class TestCostParameterization:
    @pytest.mark.parametrize("mode,scale", [("scaleddiff", np.nan), ("scaleddiff", np.inf),
                                            ("scaleddiff", -np.inf), ("absdiff", 2.0),
                                            ("raw", 0.0)])
    def test_non_finite_or_unused_scale_rejected(self, mode, scale):
        net = xavier_init([2 if mode == "raw" else 1, 1])
        with pytest.raises(BadBounds):
            CostParameterization(mode, net, scale=scale)

    @pytest.mark.parametrize("scale,feature", [(0.0, 0.5), (-1.0, 0.75)])
    def test_zero_and_negative_scaleddiff_scale_accepted(self, scale, feature):
        cost = CostParameterization("scaleddiff", xavier_init([1, 1]), scale=scale)
        assert cost.features(np.array([[0.5]]), np.array([[0.25]])) == feature


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: CostParameterization("raw", xavier_init([1, 1])).features(
        np.zeros((2, 1)), np.zeros((2, 1))), DimMismatch, "feature dim 2", id="feature-dim"),
    pytest.param(lambda: SampleSet(xs=np.zeros((3, 1)), ys=np.zeros((2, 1))),
                 DimMismatch, "aligned", id="misaligned-samples"),
    pytest.param(lambda: SampleSet(xs=np.zeros((0, 1)), ys=np.zeros((0, 1))),
                 DimMismatch, "nonempty", id="no-samples"),
    pytest.param(lambda: SampleSet(xs=[[0.0], [np.inf]], ys=[[0.0], [1.0]]),
                 DimMismatch, "finite", id="non-finite-samples"),
    pytest.param(lambda: mc_integral_uniform(ZERO_1D, ZERO_1D, ZERO_COST, UNIT_BOX, n_s=0),
                 BadBounds, "n_s", id="no-draws"),
    pytest.param(lambda: CostParameterization("absdiff", xavier_init([2, 1])).features(
        np.zeros((2, 2)), np.zeros((2, 1))), DimMismatch, "x and y of one width, not 2 and 1",
        id="diff-widths"),
    pytest.param(lambda: train(SampleSet(xs=np.zeros((4, 2)), ys=np.zeros((4, 1))),
                               CostParameterization("raw", xavier_init([3, 1])),
                               xavier_init([2, 1]), xavier_init([1, 1]), TrainConfig(epochs=1)),
                 DimMismatch, r"domain box has 2 coordinates, not d_x \+ d_y = 3",
                 id="box-dims")])
def test_bad_inputs_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
