import json
from dataclasses import dataclass

import numpy as np
import pytest

from invot import CostParameterization, FeedForwardNet, SampleSet, TrainConfig, xavier_init
from invot.errors import BadBounds, ParseError, ShapeHeaderMismatch
from invot.fileio import (
    read_checkpoint,
    read_matrix_csv,
    read_pairs_csv,
    read_vector_csv,
    write_checkpoint,
    write_matrix_csv,
    write_pairs_csv,
    write_report_json,
    write_vector_csv,
)
from invot.types import SolveReport


class TestMatrixCsv:
    def test_round_trip_bitwise(self, tmp_path, rng):
        mat = rng.normal(size=(5, 7)) * np.exp(rng.normal(size=(5, 7)) * 5)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, mat)
        assert np.array_equal(read_matrix_csv(path), mat)

    def test_header_line(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.zeros((3, 4)))
        assert path.read_text().splitlines()[0] == "3,4"

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,3\n1,2,3\n4,5\n")
        with pytest.raises(ParseError) as err:
            read_matrix_csv(path)
        assert err.value.line == 3

    def test_bad_number_names_position(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,3\n1,oops,3\n")
        with pytest.raises(ParseError) as err:
            read_matrix_csv(path)
        assert err.value.line == 2 and err.value.column == 2

    @pytest.mark.parametrize("text,error,message", [
        ("", ParseError, "empty file"), ("\n \n", ParseError, "empty file"),
        ("2\n1,2\n3,4\n", ShapeHeaderMismatch, "expected 'rows,cols' header"),
        ("2,2,1\n1,2\n3,4\n", ShapeHeaderMismatch, "expected 'rows,cols' header")])
    def test_empty_file_or_header_arity_refused(self, tmp_path, text, error, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(error, match=message):
            read_matrix_csv(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("3,2\n1,2\n3,4\n")
        with pytest.raises(ShapeHeaderMismatch):
            read_matrix_csv(path)

    def test_seventeen_digit_layout(self, tmp_path):
        # 17 significant digits, not the shortest repr
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [[0.1, 1 / 3, -0.0], [1e-300, 5e-324, 2.0]])
        assert path.read_text() == (
            "2,3\n"
            "0.10000000000000001,0.33333333333333331,-0\n"
            "1e-300,4.9406564584124654e-324,2\n")


class TestVectorCsv:
    def test_round_trip_bitwise(self, tmp_path, rng):
        vec = rng.normal(size=9)
        path = tmp_path / "v.csv"
        write_vector_csv(path, vec)
        assert np.array_equal(read_vector_csv(path), vec)


class TestPairsCsv:
    def test_round_trip_bitwise(self, tmp_path, rng):
        samples = SampleSet(xs=rng.normal(size=(20, 2)),
                            ys=rng.normal(size=(20, 3)))
        path = tmp_path / "p.csv"
        write_pairs_csv(path, samples)
        back = read_pairs_csv(path)
        assert np.array_equal(back.xs, samples.xs)
        assert np.array_equal(back.ys, samples.ys)

    def test_header_line(self, tmp_path, rng):
        path = tmp_path / "p.csv"
        write_pairs_csv(path, SampleSet(xs=rng.normal(size=(4, 1)),
                                        ys=rng.normal(size=(4, 2))))
        assert path.read_text().splitlines()[0] == "4,3,1"

    @pytest.mark.parametrize("header", ["2,2,x", "2,2.0,1"])
    def test_non_integer_header(self, tmp_path, header):
        path = tmp_path / "p.csv"
        path.write_text(f"{header}\n1,2\n3,4\n")
        with pytest.raises(ShapeHeaderMismatch):
            read_pairs_csv(path)

    def test_bad_number_names_position(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("2,2,1\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as err:
            read_pairs_csv(path)
        assert err.value.line == 3 and err.value.column == 2

    @pytest.mark.parametrize("dx", [0, 2, 3, -1])
    def test_dx_outside_columns(self, tmp_path, dx):
        path = tmp_path / "p.csv"
        path.write_text(f"2,2,{dx}\n1,2\n3,4\n")
        with pytest.raises(ShapeHeaderMismatch):
            read_pairs_csv(path)


class TestCheckpoint:
    def test_round_trip_preserves_evaluations(self, tmp_path, rng):
        cost = CostParameterization(
            input_mode="absdiff",
            net=xavier_init([1, 20, 20, 20, 1], "relu", seed=3))
        alpha = xavier_init([1, 20, 1], "identity", seed=4)
        beta = xavier_init([1, 20, 1], "identity", seed=5)
        config = TrainConfig(epochs=7, seed=11, domain_box=((0, 1), (0, 1)))
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, cost, config, alpha, beta)
        cost2, config2, alpha2, beta2 = read_checkpoint(path)
        probe_x = rng.random((50, 1))
        probe_y = rng.random((50, 1))
        assert np.array_equal(cost.evaluate(probe_x, probe_y),
                              cost2.evaluate(probe_x, probe_y))
        assert np.array_equal(alpha.forward_batch(probe_x)[0],
                              alpha2.forward_batch(probe_x)[0])
        assert np.array_equal(beta.forward_batch(probe_y)[0],
                              beta2.forward_batch(probe_y)[0])
        assert config2 == config

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ParseError):
            read_checkpoint(path)


def tiny_net(dims, activation, weights, biases):
    return FeedForwardNet(dims, [np.array(w, dtype=float) for w in weights],
                          [np.array(b, dtype=float) for b in biases], activation)


def write_tiny_checkpoint(path):
    cost = CostParameterization("absdiff", tiny_net(
        [1, 2, 1], "relu", [[[0.5], [-0.25]], [[1.0, 0.1]]], [[0.0, 1.5], [-2.0]]))
    alpha = tiny_net([1, 1], "identity", [[[3.0]]], [[0.2]])
    beta = tiny_net([1, 1], "identity", [[[-1.0]]], [[1e-300]])
    write_checkpoint(path, cost, TrainConfig(epochs=3, seed=7), alpha, beta)


GOLDEN_CHECKPOINT = """{
 "format": "invot-checkpoint-v1",
 "cost": {
  "layer_dims": [
   1,
   2,
   1
  ],
  "output_activation": "relu",
  "params": [
   "0.5",
   "-0.25",
   "0",
   "1.5",
   "1",
   "0.10000000000000001",
   "-2"
  ]
 },
 "input_mode": "absdiff",
 "scale": 1.0,
 "train_config": {
  "learning_rate": 0.0001,
  "batch_size": 0,
  "n_collocation": 500,
  "epochs": 3,
  "seed": 7,
  "domain_box": [
   [
    0.0,
    1.0
   ],
   [
    0.0,
    1.0
   ]
  ]
 },
 "alpha": {
  "layer_dims": [
   1,
   1
  ],
  "output_activation": "identity",
  "params": [
   "3",
   "0.20000000000000001"
  ]
 },
 "beta": {
  "layer_dims": [
   1,
   1
  ],
  "output_activation": "identity",
  "params": [
   "-1",
   "1e-300"
  ]
 }
}"""


class TestCheckpointFormat:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_tiny_checkpoint(path)
        assert path.read_text() == GOLDEN_CHECKPOINT
        cost, config, alpha, beta = read_checkpoint(path)
        assert config == TrainConfig(epochs=3, seed=7)
        assert alpha.parameters()[1][0] == 0.2 and beta.parameters()[1][0] == 1e-300

    @pytest.mark.parametrize("change", ["missing_seed", "extra_key", "missing_alpha",
                                        "retired_fields"])
    def test_mismatched_keys_rejected(self, tmp_path, change):
        path = tmp_path / "ckpt.json"
        write_tiny_checkpoint(path)
        blob = json.loads(path.read_text())
        if change == "missing_seed":
            del blob["train_config"]["seed"]
        elif change == "extra_key":
            blob["train_config"]["momentum"] = 0.5
        elif change == "retired_fields":  # written before these fields were deleted
            blob["train_config"].update(
                nominal_epsilon=1.0, adam_betas=[0.9, 0.999], adam_eps=1e-8)
        else:
            del blob["alpha"]
        path.write_text(json.dumps(blob))
        with pytest.raises(ParseError):
            read_checkpoint(path)

    @pytest.mark.parametrize("scale", [2.0, float("nan")])
    def test_bad_scale_rejected(self, tmp_path, scale):
        path = tmp_path / "ckpt.json"
        write_tiny_checkpoint(path)  # input mode "absdiff"
        blob = json.loads(path.read_text())
        blob["scale"] = scale
        path.write_text(json.dumps(blob))
        with pytest.raises(BadBounds):
            read_checkpoint(path)

    @pytest.mark.parametrize("net,extra", [("cost", -1), ("alpha", 1), ("beta", -2)])
    def test_parameter_count_mismatch_rejected(self, tmp_path, net, extra):
        path = tmp_path / "ckpt.json"
        write_tiny_checkpoint(path)
        blob = json.loads(path.read_text())
        params = blob[net]["params"]
        blob[net]["params"] = params + ["0"] * extra if extra > 0 else params[:extra]
        path.write_text(json.dumps(blob))
        with pytest.raises(ShapeHeaderMismatch, match="parameter count"):
            read_checkpoint(path)


@dataclass(frozen=True)
class Bounds:
    """A config with a non-finite value, written through vars() like TrainConfig."""

    lower: float
    upper: float


class TestReportJson:
    def test_writes_valid_json_with_rng_tag(self, tmp_path):
        report = SolveReport(iterations=3, objective_trace=np.array([3.0, 2.0]),
                             rel_err_trace=None, feasibility_residual=1e-9,
                             converged=True, wall_clock_seconds=0.1,
                             extras={"log_domain": np.bool_(True)})
        path = tmp_path / "r.json"
        write_report_json(path, report)
        blob = json.loads(path.read_text())
        assert blob["rng"] == "numpy-PCG64"
        assert blob["converged"] is True
        assert blob["extras"]["log_domain"] is True

    def test_non_finite_numbers_written_as_null(self, tmp_path):
        report = SolveReport(iterations=2,
                             objective_trace=np.array([np.inf, 1.0]),
                             rel_err_trace=np.array([np.nan, 0.5]),
                             feasibility_residual=float("nan"),
                             converged=False, wall_clock_seconds=0.1,
                             extras={"bound": -np.inf, "trace": [1.0, np.nan]})
        path = tmp_path / "r.json"
        write_report_json(path, report, Bounds(lower=0.0, upper=np.inf))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        blob = json.loads(path.read_text(), parse_constant=reject)
        assert blob["objective_trace"] == [None, 1.0]
        assert blob["rel_err_trace"] == [None, 0.5]
        assert blob["feasibility_residual"] is None
        assert blob["extras"] == {"bound": None, "trace": [1.0, None]}
        assert blob["config"] == {"lower": 0.0, "upper": None}
