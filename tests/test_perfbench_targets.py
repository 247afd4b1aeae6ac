"""The benchmark's traced pipeline wraps ovoidlab functions by module and
name; every one of them must still resolve."""

import functools
import importlib
from pathlib import Path

import pytest

PIPELINE = Path(__file__).resolve().parents[1] / "perfbench" / "traced_pipeline.py"


def _targets():
    # executed from its source text, so no bytecode is written beside it
    namespace = {"__name__": "traced_pipeline"}
    exec(compile(PIPELINE.read_text(), str(PIPELINE), "exec"), namespace)
    return namespace["TARGETS"]


@pytest.mark.parametrize("span, module, attr", _targets())
def test_traced_target_resolves(span, module, attr):
    owner = importlib.import_module(module)
    assert callable(functools.reduce(getattr, attr.split("."), owner)), span
