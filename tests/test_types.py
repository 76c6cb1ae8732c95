import numpy as np
import pytest

from invot import (
    DualPotentials,
    ProbabilityVector,
    SolverConfig,
    TransportPlan,
    entropy,
    relative_error,
)
from invot.errors import (
    BadBounds,
    DimMismatch,
    MarginalMismatch,
    MassMismatch,
    NegativeEntry,
    ZeroReference,
)
from conftest import make_plan, random_plan

half = ProbabilityVector(np.array([0.5, 0.5]))


class TestProbabilityVector:
    def test_rejects_negative_entry(self):
        with pytest.raises(NegativeEntry):
            ProbabilityVector(np.array([1.1, -0.1]))

    def test_rejects_bad_mass(self):
        with pytest.raises(MassMismatch):
            ProbabilityVector(np.array([0.5, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(DimMismatch, match="entry 1 is not finite"):
            ProbabilityVector(np.array([0.5, bad, 0.5]))

    def test_strict_positivity_flag(self):
        assert half.strictly_positive()
        assert not ProbabilityVector(np.array([1.0, 0.0])).strictly_positive()

    def test_values_are_frozen(self):
        with pytest.raises(ValueError):
            half.values[0] = 0.3


class TestValidatePlan:
    def test_uniform_independent_coupling(self):
        plan = TransportPlan(np.full((2, 2), 0.25), half, half, feas_tol=1e-9)
        assert plan.row_residual == 0.0
        assert plan.col_residual == 0.0

    def test_marginal_mismatch_names_worst_row(self):
        with pytest.raises(MarginalMismatch) as err:
            TransportPlan(np.array([[0.6, 0.0], [0.0, 0.4]]), half, half,
                          feas_tol=1e-9)
        assert "row" in str(err.value)

    def test_negative_entry_rejected(self):
        mat = np.array([[0.25 - 1e-6, 0.25], [0.25 + 2e-6, 0.25 - 1e-6]])
        mat[0, 0] = -1e-6
        mat[1, 1] = 0.5 + 1e-6 - 0.25
        with pytest.raises(NegativeEntry):
            TransportPlan(mat, half, half, feas_tol=1e-3)

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            TransportPlan(np.full((2, 2), 0.26), half, half, feas_tol=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        mat = np.full((2, 2), 0.25)
        mat[1, 0] = bad
        with pytest.raises(DimMismatch, match=r"entry \(1, 0\) is not finite"):
            TransportPlan(mat, half, half, feas_tol=1.0)


class TestRangeChecks:
    @pytest.mark.parametrize("field,value", [
        ("epsilon", 0.0), ("epsilon", -1.0), ("epsilon", np.nan), ("epsilon", np.inf),
        ("max_iter", 0), ("tol", 0.0), ("tol", 1.0)])
    def test_solver_config_out_of_range(self, field, value):
        with pytest.raises(BadBounds):
            SolverConfig(**{field: value})

    def test_dual_epsilon_out_of_range(self):
        with pytest.raises(BadBounds):
            DualPotentials(np.zeros(2), np.zeros(2), epsilon=0.0)

    @pytest.mark.parametrize("feas_tol", [0.0, -1e-9, np.nan])
    def test_plan_feas_tol_out_of_range(self, feas_tol):
        with pytest.raises(BadBounds):
            TransportPlan(np.full((2, 2), 0.25), half, half, feas_tol=feas_tol)

    @pytest.mark.parametrize("make,message", [
        pytest.param(lambda: ProbabilityVector(np.array([])), "must be nonempty",
                     id="empty-vector"),
        pytest.param(lambda: TransportPlan(np.full((2, 3), 1 / 6), half, half),
                     "does not match marginals", id="plan-shape")])
    def test_empty_or_mismatched_shape_refused(self, make, message):
        with pytest.raises(DimMismatch, match=message):
            make()

    def test_dual_shape_error_keeps_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            DualPotentials(np.zeros((2, 2)), np.zeros(2), epsilon=1.0)


class TestEntropy:
    def test_point_mass(self):
        one = ProbabilityVector(np.array([1.0]))
        plan = TransportPlan(np.array([[1.0]]), one, one)
        assert entropy(plan) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_2x2_closed_form(self):
        plan = make_plan(np.full((2, 2), 0.25))
        assert entropy(plan) == pytest.approx(1.0 + np.log(4.0), abs=1e-12)

    def test_matches_direct_summation(self, rng):
        # oracle: naive double loop over -p (log p - 1)
        plan = random_plan(rng, 3, 3)
        acc = 0.0
        for i in range(3):
            for j in range(3):
                p = plan.matrix[i, j]
                acc -= p * (np.log(p) - 1.0)
        assert entropy(plan) == pytest.approx(acc, abs=1e-12)

    def test_zero_entries_contribute_nothing(self):
        one = ProbabilityVector(np.array([1.0]))
        two = ProbabilityVector(np.array([0.5, 0.5]))
        sparse = TransportPlan(np.array([[0.5, 0.5], [0.0, 0.0]]),
                               ProbabilityVector(np.array([1.0, 0.0])), two)
        dense = TransportPlan(np.array([[0.5, 0.5]]), one, two)
        assert entropy(sparse) == entropy(dense)

    def test_permutation_invariance(self, rng):
        plan = random_plan(rng, 4, 5)
        perm_r = rng.permutation(4)
        perm_c = rng.permutation(5)
        shuffled = make_plan(plan.matrix[np.ix_(perm_r, perm_c)])
        assert entropy(shuffled) == pytest.approx(entropy(plan), abs=1e-12)


class TestRelativeError:
    def test_identical_costs(self, rng):
        c = rng.normal(size=(3, 3))
        assert relative_error(c, c) == 0.0

    def test_doubled_cost(self, rng):
        c = rng.normal(size=(3, 3))
        assert relative_error(2.0 * c, c) == pytest.approx(1.0, abs=1e-14)

    def test_matches_elementwise_oracle(self, rng):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        num = np.sqrt(sum((a[i, j] - b[i, j]) ** 2
                          for i in range(4) for j in range(4)))
        den = np.sqrt(sum(b[i, j] ** 2 for i in range(4) for j in range(4)))
        assert relative_error(a, b) == pytest.approx(num / den, abs=1e-14)

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReference):
            relative_error(np.ones((2, 2)), np.zeros((2, 2)))
