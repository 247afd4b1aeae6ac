"""Start-up cost: a CLI command loads only the modules it runs, no module
of the package loads dataclasses, and the package's lazily loaded
re-exports resolve to their submodules' objects."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ovoidlab

SRC = Path(__file__).resolve().parents[1] / "src"

# the code, codes and polarity modules that only the suites read
SUITE_MODULES = {"ovoidlab.verify", "ovoidlab.gf2code", "ovoidlab.symplectic"}

PROBE = """
import contextlib, io, json, sys
from ovoidlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def modules_after(*argv) -> tuple[int, set[str]]:
    """Exit code of one CLI command and the modules loaded once it ran,
    in a fresh interpreter without `site`, so that only the package and
    the standard library it asks for are loaded."""
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


def test_geometry_loads_no_suite_module_and_no_dataclasses():
    code, modules = modules_after("geometry", "--n", "2", "--no-cache")
    assert code == 0
    assert {"ovoidlab.cli", "ovoidlab.projspace"} <= modules
    assert modules.isdisjoint(SUITE_MODULES | {"dataclasses"})


def test_search_spread_loads_no_suite_module():
    code, modules = modules_after("search-spread", "--n", "2", "--no-cache")
    assert code == 0
    assert {"ovoidlab.fibration", "ovoidlab.ovoids"} <= modules
    assert modules.isdisjoint(SUITE_MODULES | {"dataclasses"})


def test_verify_loads_every_module_but_not_dataclasses():
    # the probe sees the suite modules when a command runs them
    code, modules = modules_after("verify", "--n", "2", "--no-cache",
                                  "--suite", "lemma5")
    assert code == 0
    assert SUITE_MODULES <= modules
    assert "dataclasses" not in modules


def test_every_export_resolves_and_is_listed():
    listed = dir(ovoidlab)
    for name in ovoidlab.__all__:
        assert name in listed
        obj = getattr(ovoidlab, name)
        if name != "__version__":
            assert getattr(sys.modules[obj.__module__], name) is obj
    with pytest.raises(AttributeError, match="no_such_name"):
        ovoidlab.no_such_name


@pytest.mark.parametrize("argv", [
    ("geometry", "--n", "2", "--no-cache"),
    ("verify", "--n", "2", "--suite", "lemma5"),
    ("search-spread", "--n", "2", "--cache-dir", "unused", "--no-cache"),
], ids=lambda argv: argv[0])
def test_cold_command_does_not_load_the_cache_module(argv):
    code, modules = modules_after(*argv)
    assert code == 0
    assert "ovoidlab.projspace" in modules
    assert "ovoidlab.cache" not in modules


@pytest.mark.parametrize("argv", [
    ("geometry", "--n", "1", "--export-json"),
    ("geometry", "--n", "1", "--cache-dir", "{tmp}"),
], ids=["export_json", "cache_dir"])
def test_cache_module_loads_when_used(argv, tmp_path):
    code, modules = modules_after(*(a.format(tmp=tmp_path) for a in argv))
    assert code == 0
    assert "ovoidlab.cache" in modules
