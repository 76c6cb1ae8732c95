"""The benchmark (perfbench/) reaches `invot` names by string and by attribute.

A renamed or deleted name would only show when a benchmark run fails; these
tests make it fail here instead. They read perfbench/ and change nothing.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

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
