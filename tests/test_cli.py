import dataclasses
import json

import numpy as np
import pytest

from invot import (
    Box,
    InverseProblem,
    LinearAffinity,
    ProbabilityVector,
    SampleSet,
    SolverConfig,
    learn_cost,
    sinkhorn_solve,
    synth_marginals,
)
from invot.cli import main
from invot.fileio import (
    read_checkpoint,
    read_matrix_csv,
    write_matrix_csv,
    write_pairs_csv,
    write_vector_csv,
)
from invot.scaling import _normalized_plan


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
        assert result.report.converged
        # CSV round trip is bitwise, so artifacts equal the library output
        assert np.array_equal(read_matrix_csv(tmp_path / "out" / "plan.csv"),
                              result.plan.matrix)

    def test_not_converged_exit_code(self, tmp_path, capsys):
        write_problem(tmp_path, np.array([[0.0, 1.0], [0.5, 0.2]]),
                      np.array([0.9, 0.1]), np.full(2, 0.5))
        code = main(["forward", "--cost", str(tmp_path / "cost.csv"),
                     "--mu", str(tmp_path / "mu.csv"),
                     "--nu", str(tmp_path / "nu.csv"),
                     "--epsilon", "0.05", "--tol", "1e-15",
                     "--max-iter", "2", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("not converged: tol 1.000e-15 not met in 2 iterations")
        for name in ("plan.csv", "duals.csv"):
            assert (tmp_path / "out" / name).exists()
        report = strict_json(tmp_path / "out" / "report.json")
        assert report["converged"] is False and report["iterations"] == 2

    def test_log_mode_reports_its_one_absorption(self, tmp_path):
        # at eps = 0.01 the row-max-shifted start is the only absorption
        assert main(["synth", "--n", "32", "--epsilon", "0.01", "--seed", "5",
                     "--out", str(tmp_path / "s")]) == 0
        code = main(["forward", "--cost", str(tmp_path / "s" / "cost.csv"),
                     "--mu", str(tmp_path / "s" / "mu.csv"),
                     "--nu", str(tmp_path / "s" / "nu.csv"),
                     "--epsilon", "0.01", "--mode", "log",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        extras = json.loads((tmp_path / "out" / "report.json").read_text())["extras"]
        assert extras["log_domain"] is True
        assert extras["absorptions"] == 1

    def test_report_counts_refused_extrapolations(self, tmp_path):
        # at eps = 0.003 the accelerated solve refuses candidates
        rng = np.random.default_rng(3)
        cost = rng.uniform(0, 1, size=(8, 8))
        mu, nu = rng.dirichlet(np.ones(8)), rng.dirichlet(np.ones(8))
        write_problem(tmp_path, cost, mu, nu)
        assert main(["forward", "--cost", str(tmp_path / "cost.csv"),
                     "--mu", str(tmp_path / "mu.csv"),
                     "--nu", str(tmp_path / "nu.csv"),
                     "--epsilon", "0.003", "--out", str(tmp_path / "out")]) == 0
        report = strict_json(tmp_path / "out" / "report.json")
        want = sinkhorn_solve(cost, ProbabilityVector(mu), ProbabilityVector(nu),
                              SolverConfig(epsilon=0.003, max_iter=100000,
                                           tol=1e-8)).report
        assert report["iterations"] == want.iterations
        assert (report["extras"]["anderson_restarts"]
                == want.extras["anderson_restarts"] > 0)


class TestSynthCommand:
    def test_config_is_reproducible(self, tmp_path):
        argv = ["synth", "--n", "6", "--seed", "3", "--out", str(tmp_path / "s")]
        configs = []
        for _ in range(2):
            assert main(argv) == 0
            configs.append((tmp_path / "s" / "config.json").read_bytes())
        assert configs[0] == configs[1]
        assert "func" not in json.loads(configs[0])

    def test_non_finite_argument_is_strict_json(self, tmp_path):
        assert main(["synth", "--n", "6", "--epsilon", "inf",
                     "--out", str(tmp_path / "s")]) == 0
        assert strict_json(tmp_path / "s" / "config.json")["epsilon"] is None

    def test_nan_epsilon_is_input_error(self, tmp_path, capsys):
        code = main(["synth", "--n", "4", "--epsilon", "nan",
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert "epsilon must be positive" in capsys.readouterr().err
        assert not (tmp_path / "s" / "config.json").exists()

    @pytest.mark.parametrize("n,with_out", [("1", True), ("6", False)])
    def test_bad_arguments_are_input_errors(self, tmp_path, capsys, n, with_out):
        out = ["--out", str(tmp_path / "s")] if with_out else []
        code = main(["synth", "--n", n] + out)
        capsys.readouterr()
        assert code == 1


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

    def test_report_counts_refused_extrapolations(self, tmp_path):
        synth_forward(tmp_path, n=20)
        plan_file = tmp_path / "f" / "plan.csv"
        assert main(["inverse", "--plan", str(plan_file),
                     "--constraint", "box:0:0.8", "--epsilon", "0.5",
                     "--max-iter", "5000", "--tol", "1e-6",
                     "--out", str(tmp_path / "i")]) == 0
        report = strict_json(tmp_path / "i" / "report.json")
        problem = InverseProblem(
            observed=_normalized_plan(read_matrix_csv(plan_file)),
            constraint=Box(0.0, 0.8),
            config=SolverConfig(epsilon=0.5, max_iter=5000, tol=1e-6))
        want = learn_cost(problem).report
        assert report["iterations"] == want.iterations
        assert (report["extras"]["anderson_restarts"]
                == want.extras["anderson_restarts"] > 0)

    def test_bcd_agrees_with_scaling(self, tmp_path):
        synth_forward(tmp_path, n=12)
        for command, out in (("inverse", "a"), ("bcd", "b")):
            assert main([command, "--plan", str(tmp_path / "f" / "plan.csv"),
                         "--constraint", "sym0", "--constraint", "box:0:inf",
                         "--epsilon", "0.5",
                         "--max-iter", "4000", "--tol", "1e-9",
                         "--out", str(tmp_path / out)]) == 0
        a = read_matrix_csv(tmp_path / "a" / "cost.csv")
        b = read_matrix_csv(tmp_path / "b" / "cost.csv")
        assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-3

    def test_affinity_file_is_the_library_affinity(self, tmp_path):
        # a plan from the planted bilinear cost c = G^T A0 D
        rng = np.random.default_rng(2)
        n = 10
        G, D, A0 = rng.normal(size=(3, n)), rng.normal(size=(2, n)), rng.normal(size=(3, 2))
        mu, nu = synth_marginals(n, n, seed=2)
        plan = sinkhorn_solve(G.T @ (0.1 * A0) @ D, mu, nu, SolverConfig(tol=1e-12)).plan
        for name, mat in (("plan", plan.matrix), ("G", G), ("D", D)):
            write_matrix_csv(tmp_path / f"{name}.csv", mat)
        assert main(["inverse", "--plan", str(tmp_path / "plan.csv"), "--constraint",
                     f"affinity:{tmp_path / 'G.csv'}:{tmp_path / 'D.csv'}:+",
                     "--out", str(tmp_path / "i")]) == 0
        got = read_matrix_csv(tmp_path / "i" / "affinity.csv")
        problem = InverseProblem(
            observed=_normalized_plan(read_matrix_csv(tmp_path / "plan.csv")),
            constraint=LinearAffinity(G, D, 1),
            config=SolverConfig(epsilon=1.0, max_iter=2000, tol=1e-10))
        solution = learn_cost(problem)
        # the affinity is read off the returned cost P(alpha + beta + L), so it
        # equals the affinity of alpha + beta + L itself, L = -eps log pihat
        duals = solution.duals
        z = np.add.outer(duals.alpha, duals.beta) - np.log(problem.observed.matrix)
        for want in (solution.affinity, problem.constraint.affinity(z)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("option", [["--algo", "bcd"], ["--mc", "2"]])
    def test_inverse_rejects_bcd_options(self, tmp_path, capsys, option):
        write_matrix_csv(tmp_path / "plan.csv", np.full((2, 2), 0.25))
        code = main(["inverse", "--plan", str(tmp_path / "plan.csv"),
                     "--out", str(tmp_path / "i")] + option)
        capsys.readouterr()
        assert code == 1

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
        err = capsys.readouterr().err
        assert code == 3
        assert "smooth_observed_zeros()" in err and "--smooth-zeros" in err

    def test_all_zero_plan_refused(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "plan.csv", np.zeros((2, 2)))
        code = main(["inverse", "--plan", str(tmp_path / "plan.csv"),
                     "--out", str(tmp_path / "i")])
        err = capsys.readouterr().err
        assert code == 3
        assert "smooth_observed_zeros()" in err and "--smooth-zeros" in err

    @pytest.mark.parametrize("command,plan,smoothed", [
        pytest.param("inverse", [[0.5, 0.0], [0.0, 0.5]], True, id="inverse"),
        pytest.param("bcd", [[0.5, 0.0], [0.0, 0.5]], True, id="bcd"),
        pytest.param("inverse", [[0.3, 0.2], [0.2, 0.3]], False, id="inverse-no-zero"),
        pytest.param("bcd", [[0.3, 0.2], [0.2, 0.3]], False, id="bcd-no-zero")])
    def test_zero_observation_smoothing_opt_in(self, tmp_path, command, plan, smoothed):
        write_matrix_csv(tmp_path / "plan.csv", np.array(plan))
        code = main([command, "--plan", str(tmp_path / "plan.csv"),
                     "--smooth-zeros", "--max-iter", "50",
                     "--out", str(tmp_path / "i")])
        assert code == 0
        report = json.loads((tmp_path / "i" / "report.json").read_text())
        assert report["extras"]["smoothed_zeros"] is smoothed

    def test_malformed_constraint_is_input_error(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "plan.csv", np.full((2, 2), 0.25))
        code = main(["inverse", "--plan", str(tmp_path / "plan.csv"),
                     "--constraint", "banana",
                     "--out", str(tmp_path / "i")])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("sign", ["x", ""])
    def test_affinity_sign_must_be_plus_or_minus(self, tmp_path, capsys, sign):
        write_matrix_csv(tmp_path / "plan.csv", np.full((2, 2), 0.25))
        write_matrix_csv(tmp_path / "G.csv", np.eye(2))
        g = str(tmp_path / "G.csv")
        code = main(["inverse", "--plan", str(tmp_path / "plan.csv"),
                     "--constraint", f"affinity:{g}:{g}:{sign}",
                     "--out", str(tmp_path / "i")])
        assert code == 1
        assert f"affinity sign must be + or -, not {sign!r}" in capsys.readouterr().err
        assert not (tmp_path / "i" / "cost.csv").exists()

    def test_bcd_nan_box_bound_is_input_error(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "plan.csv", np.full((2, 2), 0.25))
        code = main(["bcd", "--plan", str(tmp_path / "plan.csv"), "--mc", "nan",
                     "--max-iter", "5", "--out", str(tmp_path / "b")])
        assert code == 1
        assert "M_c must be positive" in capsys.readouterr().err
        assert not (tmp_path / "b" / "cost.csv").exists()


class TestBudgetRunsOut:
    """inverse and bcd: every artifact, one stderr line, exit 2 (forward:
    TestForwardCommand.test_not_converged_exit_code)."""

    @pytest.mark.parametrize("command", ["bcd", "inverse"])
    def test_one_line_and_exit_2(self, tmp_path, capsys, command):
        synth_forward(tmp_path, n=12)
        capsys.readouterr()
        code = main([command, "--plan", str(tmp_path / "f" / "plan.csv"),
                     "--constraint", "sym0", "--epsilon", "0.5", "--tol", "1e-15",
                     "--max-iter", "3", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("not converged: tol 1.000e-15 not met in 3 iterations")
        for name in ("cost.csv", "trace.csv"):
            assert (tmp_path / "o" / name).exists()
        report = strict_json(tmp_path / "o" / "report.json")
        assert report["converged"] is False and report["iterations"] == 3


class TestBenchCommand:
    def test_row_count_and_layout(self, tmp_path):
        code = main(["bench", "--sizes", "12,16", "--epsilons", "1.0,0.5",
                     "--reps", "1", "--target-err", "5e-2",
                     "--out", str(tmp_path / "b")])
        assert code == 0
        table = read_matrix_csv(tmp_path / "b" / "bench.csv")
        assert table.shape == (4, 4)  # one row per (epsilon, size) pair
        assert set(table[:, 0]) == {12.0, 16.0}

    def test_unconverged_forward_is_a_failure(self, tmp_path, monkeypatch):
        def budget_ran_out(*args, **kwargs):
            result = sinkhorn_solve(*args, **kwargs)
            report = dataclasses.replace(result.report, converged=False)
            return dataclasses.replace(result, report=report)

        monkeypatch.setattr("invot.cli.sinkhorn_solve", budget_ran_out)
        code = main(["bench", "--sizes", "12", "--epsilons", "1.0",
                     "--reps", "1", "--out", str(tmp_path / "b")])
        assert code == 2
        assert read_matrix_csv(tmp_path / "b" / "bench.csv").shape == (1, 4)

    def test_missed_target_is_a_failure(self, tmp_path):
        # three iterations cannot reach a relative error of 1e-300
        code = main(["bench", "--sizes", "12", "--epsilons", "1.0", "--reps", "1",
                     "--target-err", "1e-300", "--max-iter", "3",
                     "--out", str(tmp_path / "b")])
        assert code == 2
        assert read_matrix_csv(tmp_path / "b" / "bench.csv").shape == (1, 4)

    # a nan target would never count as missed, and no reps would measure nothing
    @pytest.mark.parametrize("flag,value", [("--sizes", "abc"),
                                            ("--epsilons", "x"),
                                            ("--target-err", "nan"),
                                            ("--reps", "0")])
    def test_unparsable_list_is_input_error(self, tmp_path, capsys, flag, value):
        code = main(["bench", "--sizes", "12", "--epsilons", "1.0", "--reps", "1",
                     flag, value, "--out", str(tmp_path / "b")])
        assert code == 1
        assert value in capsys.readouterr().err
        assert not (tmp_path / "b" / "bench.csv").exists()


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
                         "--seed", "6", "--out", str(tmp_path / out)]) == 0
        t1 = (tmp_path / "t1" / "loss-trace.csv").read_bytes()
        t2 = (tmp_path / "t2" / "loss-trace.csv").read_bytes()
        assert t1 == t2
        grid = read_matrix_csv(tmp_path / "t1" / "grid-eval.csv")
        assert grid.shape == (100, 2)
        assert (tmp_path / "t1" / "checkpoint.json").exists()

    def test_pairs_without_grid_layout_still_report(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        write_pairs_csv(tmp_path / "pairs.csv",
                        SampleSet(xs=rng.uniform(size=(50, 2)),
                                  ys=rng.uniform(size=(50, 2))))
        code = main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     "--box", "0:1,0:1,0:1,0:1", "--epochs", "2", "--seed", "6",
                     "--out", str(tmp_path / "t")])
        assert code == 0
        assert "grid-eval.csv not written" in capsys.readouterr().err
        assert strict_json(tmp_path / "t" / "report.json")["iterations"] > 0
        assert (tmp_path / "t" / "checkpoint.json").exists()
        assert not (tmp_path / "t" / "grid-eval.csv").exists()

    @pytest.mark.parametrize("seed,code", [(3, 2), (0, 0)])
    def test_dead_cost_net_exit_code(self, tmp_path, capsys, seed, code):
        # seed 3's relu cost net outputs 0 on every feature: it learns nothing
        self.write_pairs(tmp_path)
        assert main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     "--epochs", "2", "--batch", "100", "--ns", "100",
                     "--seed", str(seed), "--out", str(tmp_path / "t")]) == code
        err = capsys.readouterr().err
        assert err.count("cost net learned nothing") == (code == 2)
        report = strict_json(tmp_path / "t" / "report.json")
        assert report["extras"]["cost_net_dead"] is (code == 2)
        assert report["converged"] is True
        for name in ("checkpoint.json", "loss-trace.csv", "grid-eval.csv"):
            assert (tmp_path / "t" / name).exists()

    def test_divergence_exit_code(self, tmp_path, capsys):
        self.write_pairs(tmp_path)
        code = main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     "--epochs", "30", "--batch", "100", "--ns", "100",
                     "--lr", "30.0", "--out", str(tmp_path / "t")])
        capsys.readouterr()
        assert code == 2

    def write_random_pairs(self, tmp_path):
        rng = np.random.default_rng(5)
        write_pairs_csv(tmp_path / "pairs.csv",
                        SampleSet(xs=rng.uniform(size=(20, 1)),
                                  ys=rng.uniform(size=(20, 1))))

    def test_scaleddiff_scale_reaches_checkpoint_and_grid(self, tmp_path):
        self.write_random_pairs(tmp_path)
        assert main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     "--input-mode", "scaleddiff:2", "--epochs", "1",
                     "--out", str(tmp_path / "t")]) == 0
        assert strict_json(tmp_path / "t" / "checkpoint.json")["scale"] == 2.0
        cost = read_checkpoint(tmp_path / "t" / "checkpoint.json")[0]
        assert (cost.input_mode, cost.scale) == ("scaleddiff", 2.0)
        grid = read_matrix_csv(tmp_path / "t" / "grid-eval.csv")
        assert grid.shape == (100, 2)
        # xi = |x - 2y| over the unit box's corners runs from 0 to 2
        assert (grid[0, 0], grid[-1, 0]) == (0.0, 2.0)

    def test_raw_input_grid_covers_the_box(self, tmp_path):
        self.write_random_pairs(tmp_path)  # 1-d x and y
        assert main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     "--input-mode", "raw", "--epochs", "1", "--seed", "6",
                     "--out", str(tmp_path / "t")]) == 0
        grid = read_matrix_csv(tmp_path / "t" / "grid-eval.csv")
        assert grid.shape == (10000, 3)  # (x, y, cost) on a 100 x 100 grid
        assert np.array_equal(grid[[0, -1], :2], [[0.0, 0.0], [1.0, 1.0]])  # box corners
        cost = read_checkpoint(tmp_path / "t" / "checkpoint.json")[0]
        assert np.array_equal(grid[:, 2], cost.evaluate(grid[:, :1], grid[:, 1:2]))

    def test_unknown_input_mode_is_input_error(self, tmp_path, capsys):
        self.write_random_pairs(tmp_path)
        code = main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     "--input-mode", "banana", "--epochs", "1",
                     "--out", str(tmp_path / "t")])
        assert code == 1
        assert "unknown input mode 'banana'" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--lr", "nan", "--epochs", "2"],
                                      ["--lr", "inf", "--epochs", "1"],
                                      ["--box", "0:nan,0:1", "--epochs", "1"],
                                      ["--input-mode", "scaleddiff:nan", "--epochs", "1"],
                                      ["--input-mode", "scaleddiff:inf", "--epochs", "1"]])
    def test_non_finite_train_config_is_input_error(self, tmp_path, capsys, args):
        self.write_random_pairs(tmp_path)
        code = main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     *args, "--out", str(tmp_path / "t")])
        capsys.readouterr()
        assert code == 1
        assert not (tmp_path / "t" / "checkpoint.json").exists()

    @pytest.mark.parametrize("args,message", [
        (["--input-mode", "raw"], "domain box has 2 coordinates, not d_x + d_y = 3"),
        # |x - y| of a 2-d x and a 1-d y would broadcast y over both coordinates
        (["--box", "0:1,0:1,0:1", "--seed", "3"],
         "absdiff needs x and y of one width, not 2 and 1")])
    def test_2d_x_and_1d_y_refused(self, tmp_path, capsys, args, message):
        rng = np.random.default_rng(3)
        write_pairs_csv(tmp_path / "pairs.csv",
                        SampleSet(xs=rng.uniform(size=(20, 2)),
                                  ys=rng.uniform(size=(20, 1))))
        code = main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     *args, "--epochs", "1", "--out", str(tmp_path / "t")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t" / "checkpoint.json").exists()

    def test_report_names_seed_and_rng_once(self, tmp_path, capsys):
        self.write_random_pairs(tmp_path)
        assert main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     "--epochs", "1", "--out", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        text = (tmp_path / "t" / "report.json").read_text()
        report = strict_json(tmp_path / "t" / "report.json")
        assert text.count('"rng"') == 1 and report["rng"] == "numpy-PCG64"
        assert text.count('"seed"') == 1 and text.count('"n_collocation"') == 1
        assert not {"seed", "n_collocation", "rng"} & set(report["extras"])


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

    def test_constant_cost_has_no_correlation(self, tmp_path, capsys, rng):
        # a constant cost has no spread to correlate: nan, with no numpy warning
        # (the suite turns RuntimeWarnings into errors)
        write_matrix_csv(tmp_path / "a.csv", np.ones((4, 4)))
        write_matrix_csv(tmp_path / "b.csv", rng.uniform(0, 1, size=(4, 4)))
        assert main(["eval", "--cost", str(tmp_path / "a.csv"),
                     "--truth", str(tmp_path / "b.csv")]) == 0
        out, err = capsys.readouterr()
        assert "pearson_correlation nan" in out and err == ""


    def test_single_entry_cost_has_no_correlation(self, tmp_path, capsys):
        # one entry has no spread: nan, without np.corrcoef's degrees-of-freedom
        # warning (the suite turns RuntimeWarnings into errors)
        write_matrix_csv(tmp_path / "a.csv", np.array([[0.5]]))
        write_matrix_csv(tmp_path / "b.csv", np.array([[2.0]]))
        assert main(["eval", "--cost", str(tmp_path / "a.csv"),
                     "--truth", str(tmp_path / "b.csv")]) == 0
        out, err = capsys.readouterr()
        assert "pearson_correlation nan" in out and err == ""


def strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestArtifacts:
    def test_every_report_is_strict_json(self, tmp_path, capsys):
        synth_forward(tmp_path, n=12)
        for command in ("inverse", "bcd"):
            main([command, "--plan", str(tmp_path / "f" / "plan.csv"),
                  "--constraint", "sym0", "--max-iter", "5",
                  "--truth", str(tmp_path / "s" / "cost.csv"),
                  "--out", str(tmp_path / command)])
        from test_continuous import quadratic_task
        write_pairs_csv(tmp_path / "pairs.csv", quadratic_task(n_pairs=400))
        assert main(["train-continuous", "--pairs", str(tmp_path / "pairs.csv"),
                     "--epochs", "2", "--batch", "100", "--ns", "100",
                     "--out", str(tmp_path / "t")]) == 0
        capsys.readouterr()
        for out in ("f", "inverse", "bcd", "t"):
            strict_json(tmp_path / out / "report.json")
        # training reports |I - 1| for its integral estimate I: a number
        assert strict_json(tmp_path / "t" / "report.json")[
            "feasibility_residual"] >= 0

    @pytest.mark.parametrize("command,bad", [
        ("forward", "cost"), ("inverse", "plan"), ("bcd", "plan"),
        ("train-continuous", "pairs"), ("eval", "cost"), ("inverse", "G")])
    def test_malformed_csv_is_input_error(self, tmp_path, capsys, command, bad):
        write_problem(tmp_path, np.zeros((2, 2)), np.full(2, 0.5),
                      np.full(2, 0.5))
        write_matrix_csv(tmp_path / "plan.csv", np.full((2, 2), 0.25))
        write_matrix_csv(tmp_path / "G.csv", np.eye(2))
        write_pairs_csv(tmp_path / "pairs.csv",
                        SampleSet(xs=np.zeros((2, 1)), ys=np.ones((2, 1))))
        header = "2,2,1" if bad == "pairs" else "2,2"
        (tmp_path / f"{bad}.csv").write_text(f"{header}\n0.25,0.25\n0.25,oops\n")
        f = {name: str(tmp_path / f"{name}.csv")
             for name in ("cost", "mu", "nu", "plan", "G", "pairs")}
        argv = {
            "forward": ["--cost", f["cost"], "--mu", f["mu"], "--nu", f["nu"]],
            "inverse": ["--plan", f["plan"],
                        "--constraint", f"affinity:{f['G']}:{f['G']}:+"],
            "bcd": ["--plan", f["plan"]],
            "train-continuous": ["--pairs", f["pairs"], "--epochs", "1"],
            "eval": ["--cost", f["cost"], "--truth", f["cost"]],
        }[command]
        out = [] if command == "eval" else ["--out", str(tmp_path / "o")]
        assert main([command] + argv + out) == 1
        assert "on line 3" in capsys.readouterr().err

    def test_bench_suite_option_removed(self, tmp_path, capsys):
        code = main(["bench", "--suite", "fig1", "--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert code == 1
