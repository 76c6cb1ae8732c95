import json

import numpy as np
import pytest

from invot import ProbabilityVector, SolverConfig, sinkhorn_solve
from invot.cli import main
from invot.fileio import (
    read_matrix_csv,
    write_matrix_csv,
    write_pairs_csv,
    write_vector_csv,
)


def write_problem(tmp_path, cost, mu, nu):
    write_matrix_csv(tmp_path / "cost.csv", cost)
    write_vector_csv(tmp_path / "mu.csv", mu)
    write_vector_csv(tmp_path / "nu.csv", nu)


class TestForwardCommand:
    def test_zero_cost_uniform_marginals(self, tmp_path):
        write_problem(tmp_path, np.zeros((2, 2)), np.full(2, 0.5),
                      np.full(2, 0.5))
        code = main(["forward", "--cost", str(tmp_path / "cost.csv"),
                     "--mu", str(tmp_path / "mu.csv"),
                     "--nu", str(tmp_path / "nu.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        plan = read_matrix_csv(tmp_path / "out" / "plan.csv")
        assert np.allclose(plan, 0.25, atol=1e-10)

    def test_missing_flag_is_input_error(self, tmp_path, capsys):
        code = main(["forward", "--cost", str(tmp_path / "cost.csv"),
                     "--nu", str(tmp_path / "nu.csv"),
                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 1

    def test_matches_library_call_bitwise(self, tmp_path, rng):
        cost = rng.uniform(0, 1, size=(3, 3))
        mu = rng.dirichlet(np.ones(3) * 5)
        nu = rng.dirichlet(np.ones(3) * 5)
        write_problem(tmp_path, cost, mu, nu)
        code = main(["forward", "--cost", str(tmp_path / "cost.csv"),
                     "--mu", str(tmp_path / "mu.csv"),
                     "--nu", str(tmp_path / "nu.csv"),
                     "--epsilon", "0.5", "--tol", "1e-10",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        result = sinkhorn_solve(cost, ProbabilityVector(mu),
                                ProbabilityVector(nu),
                                SolverConfig(epsilon=0.5, max_iter=100000,
                                             tol=1e-10))
        # CSV round trip is bitwise, so artifacts equal the library output
        assert np.array_equal(read_matrix_csv(tmp_path / "out" / "plan.csv"),
                              result.plan.matrix)

    def test_not_converged_exit_code(self, tmp_path):
        write_problem(tmp_path, np.array([[0.0, 1.0], [0.5, 0.2]]),
                      np.array([0.9, 0.1]), np.full(2, 0.5))
        code = main(["forward", "--cost", str(tmp_path / "cost.csv"),
                     "--mu", str(tmp_path / "mu.csv"),
                     "--nu", str(tmp_path / "nu.csv"),
                     "--epsilon", "0.05", "--tol", "1e-15",
                     "--max-iter", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert (tmp_path / "out" / "report.json").exists()


def synth_forward(tmp_path, n=30, p=2.0, eps=0.5, seed=0):
    assert main(["synth", "--n", str(n), "--p", str(p), "--seed", str(seed),
                 "--out", str(tmp_path / "s")]) == 0
    assert main(["forward", "--cost", str(tmp_path / "s" / "cost.csv"),
                 "--mu", str(tmp_path / "s" / "mu.csv"),
                 "--nu", str(tmp_path / "s" / "nu.csv"),
                 "--epsilon", str(eps), "--tol", "1e-11",
                 "--out", str(tmp_path / "f")]) == 0


class TestInverseCommand:
    def test_recovery_pipeline_with_trace(self, tmp_path):
        synth_forward(tmp_path)
        code = main(["inverse", "--plan", str(tmp_path / "f" / "plan.csv"),
                     "--constraint", "sym0", "--constraint", "box:0:inf",
                     "--epsilon", "0.5", "--max-iter", "500", "--tol", "1e-8",
                     "--truth", str(tmp_path / "s" / "cost.csv"),
                     "--out", str(tmp_path / "i")])
        assert code == 0
        trace = read_matrix_csv(tmp_path / "i" / "trace.csv")
        assert trace.shape[1] == 3  # iteration, objective, relative error
        assert trace[-1, 2] <= 1e-3

    def test_bcd_agrees_with_scaling(self, tmp_path):
        synth_forward(tmp_path, n=12)
        for algo, out in (("scaling", "a"), ("bcd", "b")):
            assert main(["inverse", "--plan", str(tmp_path / "f" / "plan.csv"),
                         "--constraint", "sym0", "--constraint", "box:0:inf",
                         "--algo", algo, "--epsilon", "0.5",
                         "--max-iter", "4000", "--tol", "1e-9",
                         "--out", str(tmp_path / out)]) == 0
        a = read_matrix_csv(tmp_path / "a" / "cost.csv")
        b = read_matrix_csv(tmp_path / "b" / "cost.csv")
        assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-3

    @pytest.mark.parametrize("command", ["inverse", "bcd"])
    def test_not_converged_exit_code(self, tmp_path, capsys, command):
        synth_forward(tmp_path, n=12)
        code = main([command, "--plan", str(tmp_path / "f" / "plan.csv"),
                     "--constraint", "sym0", "--constraint", "box:0:inf",
                     "--epsilon", "0.5", "--max-iter", "3",
                     "--out", str(tmp_path / "i")])
        capsys.readouterr()
        assert code == 2
        assert (tmp_path / "i" / "cost.csv").exists()
        assert (tmp_path / "i" / "trace.csv").exists()

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads((tmp_path / "i" / "report.json").read_text(),
                            parse_constant=reject)
        assert report["converged"] is False
        assert report["iterations"] == 3
        assert report["feasibility_residual"] > 0

    def test_zero_observation_refused(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "plan.csv",
                         np.array([[0.5, 0.0], [0.0, 0.5]]))
        code = main(["inverse", "--plan", str(tmp_path / "plan.csv"),
                     "--out", str(tmp_path / "i")])
        capsys.readouterr()
        assert code == 3

    def test_zero_observation_smoothing_opt_in(self, tmp_path):
        write_matrix_csv(tmp_path / "plan.csv",
                         np.array([[0.5, 0.0], [0.0, 0.5]]))
        code = main(["inverse", "--plan", str(tmp_path / "plan.csv"),
                     "--smooth-zeros", "--max-iter", "50",
                     "--out", str(tmp_path / "i")])
        assert code == 0
        report = json.loads((tmp_path / "i" / "report.json").read_text())
        assert report["extras"]["smoothed_zeros"] is True

    def test_malformed_constraint_is_input_error(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "plan.csv", np.full((2, 2), 0.25))
        code = main(["inverse", "--plan", str(tmp_path / "plan.csv"),
                     "--constraint", "banana",
                     "--out", str(tmp_path / "i")])
        capsys.readouterr()
        assert code == 1


class TestBenchCommand:
    def test_row_count_and_layout(self, tmp_path):
        code = main(["bench", "--sizes", "12,16", "--epsilons", "1.0,0.5",
                     "--reps", "1", "--target-err", "5e-2",
                     "--out", str(tmp_path / "b")])
        assert code == 0
        table = read_matrix_csv(tmp_path / "b" / "bench.csv")
        assert table.shape == (4, 4)  # one row per (epsilon, size) pair
        assert set(table[:, 0]) == {12.0, 16.0}


class TestTrainContinuousCommand:
    def write_pairs(self, tmp_path):
        from test_continuous import quadratic_task
        write_pairs_csv(tmp_path / "pairs.csv", quadratic_task(n_pairs=400))

    def test_artifacts_and_determinism(self, tmp_path):
        self.write_pairs(tmp_path)
        for out in ("t1", "t2"):
            assert main(["train-continuous",
                         "--pairs", str(tmp_path / "pairs.csv"),
                         "--epochs", "5", "--batch", "100", "--ns", "100",
                         "--seed", "4", "--out", str(tmp_path / out)]) == 0
        t1 = (tmp_path / "t1" / "loss-trace.csv").read_bytes()
        t2 = (tmp_path / "t2" / "loss-trace.csv").read_bytes()
        assert t1 == t2
        grid = read_matrix_csv(tmp_path / "t1" / "grid-eval.csv")
        assert grid.shape == (100, 2)
        assert (tmp_path / "t1" / "checkpoint.json").exists()

    def test_divergence_exit_code(self, tmp_path, capsys):
        self.write_pairs(tmp_path)
        code = main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     "--epochs", "30", "--batch", "100", "--ns", "100",
                     "--lr", "30.0", "--out", str(tmp_path / "t")])
        capsys.readouterr()
        assert code == 2


class TestEvalCommand:
    def test_prints_metrics(self, tmp_path, capsys, rng):
        c = rng.uniform(0, 1, size=(4, 4))
        write_matrix_csv(tmp_path / "a.csv", c)
        write_matrix_csv(tmp_path / "b.csv", 2 * c)
        assert main(["eval", "--cost", str(tmp_path / "a.csv"),
                     "--truth", str(tmp_path / "b.csv")]) == 0
        out = capsys.readouterr().out
        assert "relative_error 5.0" in out
        assert "pearson_correlation 1.0" in out
