"""Tests of the benchmark harness itself: wrong output must count as a
failed operation, and --quick must pass on a correct package.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402

EXPECTED = checker.load_expected()
VERIFY = list(run.WORKLOADS["verify-q8-cold"].quick_argv)
SEARCH = list(run.WORKLOADS["search-q8-tits"].quick_argv)


def _cli(argv) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "ovoidlab.cli", *argv],
                          capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          timeout=60)
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def verify_out() -> str:
    rc, out = _cli(VERIFY)
    assert checker.check(VERIFY, rc, out, EXPECTED) == []
    return out


class _CannedRunner:
    """Stands in for run.Runner: set-ups run the real CLI, the timed
    invocations replay (exit code, stdout) pairs."""

    def __init__(self, canned):
        self.canned = list(canned)

    def invoke(self, argv):
        rc, out = (_cli(argv) if argv[0] == "geometry"
                   else self.canned.pop(0))
        return run.Invocation(argv, rc, 1.0, 1024, out,
                              checker.check(argv, rc, out, EXPECTED))


def test_wrong_outputs_count_as_failed(verify_out):
    flipped = json.loads(verify_out)
    flipped[3]["counters"]["dim_C"] += 1
    failing = json.loads(verify_out)
    failing[0]["pass"] = False
    canned = [(0, verify_out), (0, json.dumps(flipped)),
              (0, json.dumps(failing)), (1, verify_out)]
    res = run.timed_loop(_CannedRunner(canned),
                         run.WORKLOADS["verify-q8-cold"], VERIFY, 0,
                         len(canned))
    problems = [inv["problems"] for inv in res["record"]["invocations"]]
    assert problems[0] == []
    assert "dim_C" in problems[1][0]
    assert "pass is False" in problems[2][0]
    assert problems[3] == ["exit code 1"]
    assert (res["attempted"], res["failed"]) == (4, 3)
    assert res["metrics"]["ok_share"] == 0.25


def test_search_spread_is_pinned():
    rc, out = _cli(SEARCH)
    assert checker.check(SEARCH, rc, out, EXPECTED) == []
    doc = json.loads(out)
    doc["spread"][-1] += 1
    assert checker.check(SEARCH, 0, json.dumps(doc), EXPECTED)


def test_closed_forms():
    assert [checker.sastry_sin_dim_c(n) for n in (2, 3)] == [50, 298]
    counters = checker.verify_counters(3, EXPECTED["verify"]["3"])
    assert counters["proposition1"]["lines_checked"] == 65 * 72
    assert counters["radical_corollary3"]["dual_grids"] == 2080


def test_layer_metrics_self_time_and_cache_decisions():
    spans = [  # [id, parent, name, start, end, error, attrs]
        [1, 0, "cli.main", 0.0, 10.0, None, None],
        [2, 1, "cache.load_or_build", 0.0, 2.0, None, {"cache": True}],
        [3, 2, "cache.load", 0.0, 0.5, "ValueError: truncated", None],
        [4, 2, "projspace.build", 0.5, 1.5, None,
         {"lines": 357, "pair_entries": 3570}],
        [5, 1, "verify.codes", 2.0, 6.0, None, None],
        [6, 5, "gf2code.code_C", 2.0, 3.0, None, {"dim_C": 50}],
        [7, 5, "gf2code.echelon", 3.0, 3.5, None, None],
    ]
    m, decisions = run.layer_metrics(spans)
    assert decisions == [{"decision": "rebuild",
                          "reason": "ValueError: truncated"}]
    assert (m["cache.hits"], m["cache.misses"]) == (0, 1)
    assert m["verify.codes.self_s"] == 2.5
    assert (m["gf2code.dim_C"], m["projspace.lines"]) == (50, 357)


def test_quick_mode_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"correct": True}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-q8-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
