"""The benchmark (perfbench/) reaches `invot` names by string and by attribute.

A renamed or deleted name, or a forward ``mode`` or cost input-mode spelling
that `sinkhorn_solve` or `CostParameterization` no longer accepts, would only
show when a benchmark run fails; these tests make it fail here instead. They
read perfbench/ and change nothing.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import invot

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _package_attributes():
    """(file, NAME) for each iv.NAME in workloads.py and invot.NAME in test_perfbench.py."""
    found = set()
    for file, alias in (("workloads.py", "iv"), ("test_perfbench.py", "invot")):
        tree = ast.parse((PERFBENCH / file).read_text())
        found |= {(file, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == alias}
    return sorted(found)


@pytest.mark.parametrize("module_name,attr", [t[:2] for t in _targets()],
                         ids=lambda v: v)
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:  # install() replaces cls.__dict__[meth]: inherited does not count
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("file,name", _package_attributes(), ids=lambda v: v)
def test_package_attribute_resolves(file, name):
    # a submodule counts: perfbench imports the ones it names (import invot.cli)
    assert hasattr(invot, name) or importlib.util.find_spec(f"invot.{name}") is not None


def _forward_modes():
    """Every string passed as ``mode`` in workloads.py: keyword or default."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "mode":
            found.add(node.value)
        elif isinstance(node, ast.FunctionDef):
            named = node.args.args[len(node.args.args) - len(node.args.defaults):]
            found |= {d for a, d in zip(named, node.args.defaults) if a.arg == "mode"}
    return sorted({v.value for v in found
                   if isinstance(v, ast.Constant) and isinstance(v.value, str)})


def test_workloads_pass_modes():
    assert _forward_modes()  # the parse still finds the benchmark's modes


@pytest.mark.parametrize("mode", _forward_modes())
def test_forward_mode_accepted(mode):
    rng = np.random.default_rng(0)
    mu, nu = (invot.ProbabilityVector(rng.dirichlet(np.ones(3))) for _ in range(2))
    result = invot.sinkhorn_solve(rng.uniform(size=(3, 3)), mu, nu,
                                  invot.SolverConfig(epsilon=0.5, tol=1e-10), mode=mode)
    assert result.report.converged


def _cost_input_modes():
    """Every string passed to iv.CostParameterization in workloads.py as its
    first argument or as ``input_mode``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "CostParameterization"):
            found |= set(node.args[:1])
            found |= {k.value for k in node.keywords if k.arg == "input_mode"}
    return sorted({v.value for v in found
                   if isinstance(v, ast.Constant) and isinstance(v.value, str)})


def test_workloads_pass_cost_input_modes():
    assert _cost_input_modes()  # the parse still finds the benchmark's input modes


@pytest.mark.parametrize("mode", _cost_input_modes())
def test_cost_input_mode_accepted(mode):
    net = invot.xavier_init([2 if mode == "raw" else 1, 4, 1], "relu", seed=0)
    cost = invot.CostParameterization(mode, net)
    assert cost.evaluate(np.full((3, 1), 0.25), np.full((3, 1), 0.75)).shape == (3,)
