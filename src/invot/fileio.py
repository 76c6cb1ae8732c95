"""CSV / JSON / checkpoint serialization.

Every CSV artifact is one table: a header line, then one line per row of
comma-separated values printed with 17 significant digits (bit-exact float
round trip, '.' decimal, no locale). A matrix has the header ``rows,cols``; a
probability vector is a matrix with cols = 1; pairs have the header
``rows,cols,dx`` and each row holds x (the first dx values, 1 <= dx < cols)
and then y. ``report.json`` is strict JSON, with null for non-finite numbers.
JSON artifacts hold ``vars()`` of the report and configs, so each dataclass is
the only list of its fields; a checkpoint's train config must match it exactly.
A checkpoint holds each net's parameter vector as is (`FeedForwardNet.params`,
whose layout `nets` owns) and reads it back through the net's own checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .continuous import CostParameterization, SampleSet, TrainConfig
from .errors import DimMismatch, ParseError, ShapeHeaderMismatch
from .nets import FeedForwardNet
from .types import ProbabilityVector, as_matrix

_FMT = "%.17g"


def _write_table(path, mat, *extra) -> None:
    """Header ``rows,cols[,extra...]``, then one line per row of ``mat``."""
    with open(path, "w") as fh:
        fh.write(",".join(str(k) for k in mat.shape + extra) + "\n")
        np.savetxt(fh, mat, fmt=_FMT, delimiter=",")


def _read_table(path, layout):
    """(array, header integers) of a table whose header is ``layout``, e.g.
    ``"rows,cols"``; parsed a row at a time, bad columns sought only on error."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split(",")
    if len(header) != layout.count(",") + 1:
        raise ShapeHeaderMismatch(f"expected {layout!r} header, got {lines[0]!r}")
    try:
        dims = [int(x) for x in header]
    except ValueError as exc:
        raise ShapeHeaderMismatch(f"non-integer header {lines[0]!r}") from exc
    rows, cols = dims[:2]
    if len(lines) - 1 != rows:
        raise ShapeHeaderMismatch(
            f"header promises {rows} rows but file has {len(lines) - 1}")
    out = np.empty((rows, cols))
    for r, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != cols:
            raise ParseError(f"row on line {r} has {len(parts)} values, "
                             f"expected {cols}", line=r)
        try:
            out[r - 2] = parts  # numpy parses each item as float() does
        except ValueError:
            for k, item in enumerate(parts, start=1):
                try:
                    float(item)
                except ValueError as exc:
                    raise ParseError(f"bad number {item!r} on line {r}",
                                     line=r, column=k) from exc
            raise
    return out, dims


def write_matrix_csv(path, matrix) -> None:
    _write_table(path, np.atleast_2d(as_matrix(matrix)))


def read_matrix_csv(path) -> np.ndarray:
    return _read_table(path, "rows,cols")[0]


def write_vector_csv(path, vector) -> None:
    if isinstance(vector, ProbabilityVector):
        vec = vector.values
    else:
        vec = np.asarray(vector, dtype=float)
    write_matrix_csv(path, vec.reshape(-1, 1))


def read_vector_csv(path) -> np.ndarray:
    return read_matrix_csv(path).ravel()


def write_pairs_csv(path, samples: SampleSet) -> None:
    _write_table(path, np.concatenate([samples.xs, samples.ys], axis=1),
                 samples.xs.shape[1])


def read_pairs_csv(path) -> SampleSet:
    mat, (_, cols, dx) = _read_table(path, "rows,cols,dx")
    if not 1 <= dx < cols:
        raise ShapeHeaderMismatch(f"pairs header needs 1 <= dx < {cols}, got dx={dx}")
    return SampleSet(xs=mat[:, :dx], ys=mat[:, dx:])


def write_checkpoint(path, cost: CostParameterization, config: TrainConfig,
                     alpha_net: FeedForwardNet, beta_net: FeedForwardNet) -> None:
    """Self-describing JSON checkpoint: dims, activation tags and parameter
    vectors of the three nets, and the train config as ``vars(config)``."""

    def net_blob(net):
        return {
            "layer_dims": list(net.layer_dims),
            "output_activation": net.output_activation,
            "params": [(_FMT % x) for x in net.params],
        }

    blob = {
        "format": "invot-checkpoint-v1",
        "cost": net_blob(cost.net),
        "input_mode": cost.input_mode,
        "scale": cost.scale,
        "train_config": vars(config),
        "alpha": net_blob(alpha_net),
        "beta": net_blob(beta_net),
    }
    Path(path).write_text(json.dumps(blob, indent=1))


def _net_from_blob(blob) -> FeedForwardNet:
    try:
        return FeedForwardNet(blob["layer_dims"], [float(x) for x in blob["params"]],
                              blob["output_activation"])
    except DimMismatch as exc:  # e.g. a parameter count that the dims do not fit
        raise ShapeHeaderMismatch(f"checkpoint {exc}") from exc


def read_checkpoint(path):
    """Returns (cost_parameterization, train_config, alpha_net, beta_net)."""
    blob = json.loads(Path(path).read_text())
    if blob.get("format") != "invot-checkpoint-v1":
        raise ParseError(f"unknown checkpoint format {blob.get('format')!r}")
    try:
        tc = dict(blob["train_config"])
        if set(tc) != {f.name for f in fields(TrainConfig)}:
            raise ParseError(f"train_config keys {sorted(tc)} are not TrainConfig's fields")
        tc["domain_box"] = tuple(tuple(b) for b in tc["domain_box"])
        net, alpha_net, beta_net = (_net_from_blob(blob[k]) for k in ("cost", "alpha", "beta"))
        cost = CostParameterization(blob["input_mode"], net, blob["scale"])
    except KeyError as exc:
        raise ParseError(f"checkpoint is missing key {exc.args[0]!r}") from exc
    return cost, TrainConfig(**tc), alpha_net, beta_net


def write_report_json(path, report, config=None) -> None:
    blob = {**vars(report), "rng": "numpy-PCG64"}
    if config is not None:
        blob["config"] = vars(config)
    write_json(path, blob)


def write_json(path, blob) -> None:
    """Strict JSON: numpy values as plain ones, non-finite floats as null."""
    Path(path).write_text(json.dumps(_jsonable(blob), indent=1, allow_nan=False))


def _jsonable(v):
    """Plain JSON values; non-finite floats become None (null)."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, np.ndarray):
        return _jsonable(v.astype(float).ravel().tolist())
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v
