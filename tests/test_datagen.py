import numpy as np
import pytest

from invot import (
    ProbabilityVector,
    SyntheticSpec,
    TransportPlan,
    prox_symmetric_zero_diag,
    sample_pairs,
    synth_cost,
    synth_marginals,
)
from invot.errors import BadBounds
from conftest import random_plan


class TestSynthCost:
    def test_two_point_linear(self):
        cost = synth_cost(SyntheticSpec(n=2, p=1.0, epsilon=1.0))
        assert np.array_equal(cost.matrix, np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_three_point_quadratic(self):
        cost = synth_cost(SyntheticSpec(n=3, p=2.0, epsilon=1.0))
        expect = np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]]) / 9.0
        assert np.allclose(cost.matrix, expect, atol=1e-15)

    def test_fixed_under_symmetrization(self):
        for n, p in [(5, 0.5), (8, 2.0), (12, 3.0)]:
            cost = synth_cost(SyntheticSpec(n=n, p=p, epsilon=1.0))
            assert np.array_equal(
                prox_symmetric_zero_diag(cost.matrix), cost.matrix)

    def test_entry_range(self):
        n, p = 17, 2.5
        cost = synth_cost(SyntheticSpec(n=n, p=p, epsilon=1.0))
        assert cost.matrix.min() == 0.0
        assert cost.matrix.max() == pytest.approx(((n - 1) / n) ** p)

    def test_rejects_degenerate_specs(self):
        with pytest.raises(BadBounds):
            SyntheticSpec(n=1, p=2.0, epsilon=1.0)
        with pytest.raises(BadBounds):
            SyntheticSpec(n=4, p=2.0, epsilon=0.0)
        with pytest.raises(BadBounds):
            SyntheticSpec(n=4, p=2, epsilon=float("nan"))


class TestSynthMarginals:
    def test_positivity_floor(self):
        mu, nu = synth_marginals(30, 50, seed=5)
        assert mu.values.min() >= 0.1 / (1.1 * 30)
        assert nu.values.min() >= 0.1 / (1.1 * 50)

    def test_unit_mass(self):
        mu, nu = synth_marginals(11, 7, seed=2)
        assert abs(mu.values.sum() - 1.0) <= 1e-14
        assert abs(nu.values.sum() - 1.0) <= 1e-14

    def test_seed_determinism(self):
        a = synth_marginals(9, 9, seed=42)
        b = synth_marginals(9, 9, seed=42)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)


class TestSamplePairs:
    def test_point_mass_plan(self):
        plan = TransportPlan(np.array([[0.0, 1.0], [0.0, 0.0]]),
                             ProbabilityVector(np.array([1.0, 0.0])),
                             ProbabilityVector(np.array([0.0, 1.0])))
        out = sample_pairs(plan, [0.0, 0.5], [0.0, 0.5], N=200, seed=0)
        assert np.all(out.xs == 0.0)
        assert np.all(out.ys == 0.5)

    def test_uniform_cell_frequencies(self):
        plan = random_plan(np.random.default_rng(0), 2, 2)
        uniform = TransportPlan(np.full((2, 2), 0.25),
                                ProbabilityVector(np.array([0.5, 0.5])),
                                ProbabilityVector(np.array([0.5, 0.5])))
        N = 40_000
        out = sample_pairs(uniform, [0.0, 1.0], [0.0, 1.0], N=N, seed=3)
        sigma = np.sqrt(0.25 * 0.75 / N)
        for x in (0.0, 1.0):
            for y in (0.0, 1.0):
                freq = np.mean((out.xs[:, 0] == x) & (out.ys[:, 0] == y))
                assert abs(freq - 0.25) <= 4.0 * sigma
        assert plan.shape == (2, 2)

    def test_total_variation_convergence(self):
        plan = random_plan(np.random.default_rng(11), 3, 3)
        N = 1_000_000
        out = sample_pairs(plan, np.arange(3.0), np.arange(3.0), N=N, seed=8)
        counts = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                counts[i, j] = np.sum((out.xs[:, 0] == i) & (out.ys[:, 0] == j))
        tv = 0.5 * np.abs(counts / N - plan.matrix).sum()
        assert tv <= 0.01

    def test_seed_determinism(self):
        plan = random_plan(np.random.default_rng(4), 3, 2)
        a = sample_pairs(plan, np.arange(3.0), np.arange(2.0), N=100, seed=9)
        b = sample_pairs(plan, np.arange(3.0), np.arange(2.0), N=100, seed=9)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
