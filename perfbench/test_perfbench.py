"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import invot.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {
    "setup_s", "forward_s", "inverse_s", "inverse_rel_err", "affinity_s", "chain_s",
    "train_s", "train_final_loss", "logfwd_s", "bcd_s", "bcd_rel_err", "peak_rss_mb",
}


@pytest.fixture(scope="module")
def tiny_record():
    # seconds=0 still runs the two rounds a traced run needs: one traced, one not
    return run.run_benchmark("discrete-recover", seed=3, seconds=0, trace=1,
                             sizes=workloads.TINY)


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_metric_is_emitted(tiny_record):
    assert tiny_record["failed"] == 0, tiny_record["problems"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = run.report_line(tiny_record, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        spec = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == spec


def test_layer_counts_are_exact(tiny_record):
    layers = tiny_record["per_layer"]
    assert layers["trace.unsteady_counts"]["median"] == 0
    for name in ("sinkhorn.iters", "scaling.iters", "bcd.iters", "continuous.steps",
                 "nets.forward_calls", "constraints.prox_calls", "fileio.bytes_read",
                 "fileio.bytes_written"):
        assert layers[name]["median"] > 0, name
    # one log-mode solve per logfwd instance
    assert layers["sinkhorn.log_domain"]["median"] == workloads.TINY["logfwd"]["k"]


def test_self_time_subtracts_direct_children():
    spans = [(1, None, "a", 0.0, 10.0, None), (2, 1, "b", 1.0, 4.0, None),
             (3, 2, "c", 2.0, 3.0, None), (4, 1, "b", 5.0, 6.0, None)]
    assert tracing.self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_install_and_uninstall_restore_the_library():
    original = invot.fileio.read_matrix_csv
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert invot.cli.read_matrix_csv is not original
        assert invot.fileio.read_matrix_csv is invot.cli.read_matrix_csv
    finally:
        tracing.uninstall(undo)
    assert invot.cli.read_matrix_csv is original
    assert invot.fileio.read_matrix_csv is original


def _run_tiny(name):
    op = workloads.OPS[name]
    inst = op.build(workloads.TINY[name], 5, None)
    _seconds, output = op.run(inst, None)
    problems, _quality = op.check(inst, output)
    assert problems == []
    return op, inst, output


def _not_converged(result):
    return dataclasses.replace(result, report=dataclasses.replace(result.report, converged=False))


def test_forward_gates():
    op, inst, result = _run_tiny("forward")
    mat = np.array(result.plan.matrix)
    moved = 0.01 * mat[0, 1]  # keeps the row sums, breaks two column sums
    mat[0, 0] += moved
    mat[0, 1] -= moved
    bad_plan = dataclasses.replace(result.plan, matrix=mat, feas_tol=1.0)
    assert op.check(inst, dataclasses.replace(result, plan=bad_plan))[0]
    assert op.check(inst, _not_converged(result))[0]


def test_logfwd_gate_needs_log_domain():
    op, inst, result = _run_tiny("logfwd")
    report = dataclasses.replace(result.report, extras={"log_domain": False})
    assert op.check(inst, dataclasses.replace(result, report=report))[0]


def test_inverse_and_affinity_gates():
    op, inst, solution = _run_tiny("inverse")
    wrong = invot.CostMatrix(solution.cost.matrix * 1.01)
    assert op.check(inst, dataclasses.replace(solution, cost=wrong))[0]
    assert op.check(inst, _not_converged(solution))[0]
    op, inst, solution = _run_tiny("affinity")
    assert op.check(inst, dataclasses.replace(solution, affinity=solution.affinity + 1e-3))[0]


def test_bcd_gates():
    op, inst, solution = _run_tiny("bcd")
    trace = np.array(solution.report.objective_trace)
    trace[-1] = trace[-2] + 1e-6
    rising = dataclasses.replace(solution.report, objective_trace=trace)
    assert op.check(inst, dataclasses.replace(solution, report=rising))[0]
    wrong = invot.CostMatrix(solution.cost.matrix + 0.5)
    assert op.check(inst, dataclasses.replace(solution, cost=wrong))[0]


def test_train_loss_must_repeat_bit_for_bit():
    op, inst, output = _run_tiny("train")
    report = output[3]
    trace = np.array(report.objective_trace)
    trace[-1] = np.nextafter(trace[-1], np.inf)
    changed = dataclasses.replace(report, objective_trace=trace)
    assert op.check(inst, output[:3] + (changed,))[0]
    nan = dataclasses.replace(report, objective_trace=np.array([np.nan]))
    assert op.check(inst, output[:3] + (nan,))[0]


def test_chain_gates(tmp_path):
    inst = workloads.build_chain(workloads.TINY["chain"], 5, tmp_path / "chain")
    failing = {name: subprocess.CompletedProcess([], 0, "", "") for name, _ in inst["commands"]}
    failing["inverse"] = subprocess.CompletedProcess([], 2, "", "did not converge")
    assert any("exited 2" in p for p in workloads.check_chain(inst, failing)[0])

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ctx = workloads.RoundContext(traced=False, env=env)
    _seconds, outputs = workloads.run_chain(inst, ctx)
    outputs["eval"] = subprocess.CompletedProcess([], 0, "relative_error 5.0e-02\n", "")
    assert any("eval rel err" in p for p in workloads.check_chain(inst, outputs)[0])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "discrete-recover",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
