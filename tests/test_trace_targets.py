"""The benchmark tracer (perfbench/tracing.py) wraps `invot` names by string.

A renamed or deleted name would only show when a traced benchmark run fails;
this test makes it fail here instead. It reads perfbench/ and changes nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name,attr", [t[:2] for t in _targets()],
                         ids=lambda v: v)
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:  # install() replaces cls.__dict__[meth]: inherited does not count
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
