import numpy as np
import pytest

from invot import (
    AdamState,
    FeedForwardNet,
    adam_step,
    net_forward,
    net_gradient,
    xavier_init,
)
from invot.errors import DimMismatch


def linear_net(w, b, activation="identity"):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    return FeedForwardNet(layer_dims=[w.shape[1], 1], weights=[w],
                          biases=[np.array([float(b)])],
                          output_activation=activation)


class TestForward:
    def test_zero_relu_net_is_zero(self, rng):
        net = xavier_init([3, 4, 1], "relu", seed=0)
        for p in net.parameters():
            p[...] = 0.0
        for _ in range(5):
            assert net_forward(net, rng.normal(size=3)) == 0.0

    def test_single_linear_layer(self):
        net = linear_net([2.0, -1.0, 0.5], 0.25)
        assert net_forward(net, [1.0, 2.0, 4.0]) == pytest.approx(2.25)

    def test_matches_straight_line_reimplementation(self, rng):
        # oracle: explicit per-sample arithmetic with no batching
        net = xavier_init([2, 5, 1], "identity", seed=8)
        for _ in range(10):
            x = rng.normal(size=2)
            h = np.tanh(net.weights[0] @ x + net.biases[0])
            expect = float((net.weights[1] @ h + net.biases[1])[0])
            assert net_forward(net, x) == pytest.approx(expect, abs=1e-14)

    def test_softplus_output_positive(self, rng):
        net = xavier_init([2, 4, 1], "softplus", seed=1)
        out, _ = net.forward_batch(rng.normal(size=(30, 2)))
        assert np.all(out > 0)


class TestGradient:
    def test_linear_net_gradients(self):
        net = linear_net([0.0, 0.0], 0.0)
        grads = net_gradient(net, [3.0, -2.0])
        assert np.array_equal(grads[0], np.array([[3.0, -2.0]]))
        assert np.array_equal(grads[1], np.array([1.0]))

    @pytest.mark.parametrize("activation", ["identity", "relu", "softplus"])
    def test_finite_difference_agreement(self, activation, rng):
        # oracle: central differences at h = 1e-5; coordinates with tiny
        # analytic gradient are compared absolutely at 1e-8
        h = 1e-5
        for trial in range(5):
            net = xavier_init([2, 20, 20, 20, 1], activation, seed=100 + trial)
            x = rng.normal(size=2)
            grads = net_gradient(net, x)
            params = net.parameters()
            for k in rng.choice(len(params), size=4, replace=False):
                flat_idx = rng.integers(params[k].size)
                idx = np.unravel_index(flat_idx, params[k].shape)

                def perturbed(delta):
                    plus = [p.copy() for p in params]
                    plus[k][idx] += delta
                    probe = FeedForwardNet(
                        layer_dims=net.layer_dims,
                        weights=plus[0::2], biases=plus[1::2],
                        output_activation=activation)
                    return net_forward(probe, x)

                fd = (perturbed(h) - perturbed(-h)) / (2 * h)
                an = grads[k][idx]
                if abs(an) < 1e-8:
                    assert abs(fd - an) <= 1e-8
                else:
                    assert abs(fd - an) / abs(an) <= 1e-4

    def test_relu_subgradient_zero_at_kink(self):
        net = linear_net([1.0], 0.0, activation="relu")
        grads = net_gradient(net, [0.0])
        assert np.array_equal(grads[0], np.array([[0.0]]))
        assert np.array_equal(grads[1], np.array([0.0]))

    def test_batch_gradient_is_weighted_sum(self, rng):
        net = xavier_init([2, 6, 1], "identity", seed=5)
        X = rng.normal(size=(4, 2))
        w = rng.normal(size=4)
        _, cache = net.forward_batch(X)
        batched = net.backward_batch(cache, w)
        manual = [np.zeros_like(p) for p in net.parameters()]
        for i in range(4):
            for k, g in enumerate(net_gradient(net, X[i])):
                manual[k] += w[i] * g
        for got, expect in zip(batched, manual):
            assert np.allclose(got, expect, atol=1e-12)


@pytest.mark.parametrize("dims,weights,biases,activation,message", [
    pytest.param([1], [], [], "identity", "bad layer dims", id="one-layer"),
    pytest.param([1, 2], [np.zeros((2, 1))], [np.zeros(2)], "identity", "bad layer dims",
                 id="two-outputs"),
    pytest.param([0, 1], [np.zeros((1, 0))], [np.zeros(1)], "identity", "bad layer dims",
                 id="empty-input"),
    pytest.param([1, 1], [np.zeros((1, 1))], [np.zeros(1)], "sigmoid",
                 "unknown output activation", id="activation"),
    pytest.param([2, 1], [np.zeros((1, 1))], [np.zeros(1)], "identity",
                 "parameter shapes", id="weight-shape"),
    pytest.param([1, 1], [np.zeros((1, 1))], [np.zeros(2)], "identity",
                 "parameter shapes", id="bias-shape"),
    pytest.param([1, 1], [np.full((1, 1), np.nan)], [np.zeros(1)], "identity",
                 "not finite", id="non-finite")])
def test_bad_net_refused(dims, weights, biases, activation, message):
    with pytest.raises(DimMismatch, match=message):
        FeedForwardNet(dims, weights, biases, activation)


def test_wrong_input_dim_refused():
    with pytest.raises(DimMismatch, match="input dim 3 does not match net input 1"):
        linear_net([[1.0]], 0.0).forward_batch(np.zeros((2, 3)))


class TestXavierInit:
    def test_bound_for_equal_fans(self):
        net = xavier_init([3, 3, 1], seed=0)
        assert np.all(np.abs(net.weights[0]) <= 1.0)

    def test_seed_determinism(self):
        a = xavier_init([4, 20, 20, 1], "relu", seed=77)
        b = xavier_init([4, 20, 20, 1], "relu", seed=77)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_biases_zero(self):
        net = xavier_init([4, 8, 1], seed=3)
        assert all(np.all(b == 0) for b in net.biases)

    def test_empirical_variance(self):
        # uniform(-B, B) has variance B^2/3 = 2/(fan_in + fan_out)
        net = xavier_init([100, 100, 1], seed=9)
        var = net.weights[0].var()
        assert abs(var - 2.0 / 200.0) / (2.0 / 200.0) <= 0.10


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = [np.array([1.0, -2.0]), np.array([[0.5]])]
        state = AdamState.zeros_like(params)
        assert adam_step(params, [np.zeros(2), np.zeros((1, 1))], state) is None
        assert np.array_equal(params[0], [1.0, -2.0])
        assert np.array_equal(params[1], [[0.5]])
        assert state.step == 1

    def test_first_step_oracle(self):
        # hand computation for scalar g: bias correction cancels, so the
        # first move is -lr * g / (|g| + eps)
        g = 0.5
        lr = 1e-4
        eps = 1e-8
        params = [np.array([2.0])]
        state = AdamState.zeros_like(params)
        adam_step(params, [np.array([g])], state, lr=lr)
        expect = 2.0 - lr * g / (abs(g) + eps)
        assert params[0][0] == pytest.approx(expect, abs=1e-16)

    def test_constant_gradient_limit(self):
        params = [np.array([0.0])]
        state = AdamState.zeros_like(params)
        lr = 1e-3
        prev = 0.0
        for _ in range(500):
            adam_step(params, [np.array([2.5])], state, lr=lr)
        step = prev - params[0][0]
        moved = params[0][0]
        assert moved < 0  # descending against a positive gradient
        assert abs(moved + 500 * lr) / (500 * lr) <= 0.05
        assert step >= 0

    def test_one_state_over_concatenated_nets_matches_per_net_states(self, rng):
        # Adam is elementwise and the nets share one step count, so one state
        # over the concatenated parameter lists gives the same bits
        joint = [xavier_init([2, 5, 1], seed=1), xavier_init([3, 4, 1], seed=2)]
        apart = [xavier_init([2, 5, 1], seed=1), xavier_init([3, 4, 1], seed=2)]
        joint_params = joint[0].parameters() + joint[1].parameters()
        joint_state = AdamState.zeros_like(joint_params)
        apart_states = [AdamState.zeros_like(net.parameters()) for net in apart]
        k = len(apart[0].parameters())
        for _ in range(3):
            grads = [rng.normal(size=p.shape) for p in joint_params]
            adam_step(joint_params, grads, joint_state, lr=1e-2)
            for net, g, state in zip(apart, (grads[:k], grads[k:]), apart_states):
                adam_step(net.parameters(), g, state, lr=1e-2)
        for a, b in zip(joint, apart):
            for p, q in zip(a.parameters(), b.parameters()):
                assert np.array_equal(p, q)
        assert not np.array_equal(joint_params[0], xavier_init([2, 5, 1], seed=1).weights[0])
