"""tools/collate_bench.py on hand-made run records."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "collate_bench.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("collate_bench", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def write_record(path, verdict_s, rss, mtime, workload="verify-q8-cold"):
    # records sit in <checkout>/perfbench-out/, as perfbench writes them
    cache = path.parent.parent / "perfbench-out" / "tmp-1" / "cache-1"
    path.write_text(json.dumps({
        "provenance": {"workload": workload, "trace": False, "seconds": 40,
                       "git_sha": path.stem,
                       "argv": ["verify", "--cache-dir", str(cache)]},
        "result": {"correct": True, "attempted": 3, "failed": 0,
                   "metrics": {"verdict_s": {"value": verdict_s, "unit": "s"},
                               "peak_rss_mb": {"value": rss, "unit": "MB"},
                               "ok_share": {"value": 1.0,
                                            "unit": "ratio"}}}}))
    os.utime(path, (mtime, mtime))
    return str(path)


def test_collate_counts_wins_ties_and_order(tmp_path):
    parent = [0.40, 0.42, 0.38, 0.44, 0.41]
    change = [0.35, 0.43, 0.33, 0.39, 0.36]
    pairs = []
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench-out").mkdir(parents=True)
    for i, (p, c) in enumerate(zip(parent, change)):
        # odd pairs ran the change first
        tp, tc = (100 * i, 100 * i + 50)[:: 1 if i % 2 == 0 else -1]
        pairs.append([
            write_record(tmp_path / "parent" / "perfbench-out" / f"{i}.json",
                         p, 20.0, tp),
            write_record(tmp_path / "change" / "perfbench-out" / f"{i}.json",
                         c, 20.0, tc)])
    out = tmp_path / "BENCH.json"
    assert load_tool().main(["--out", str(out), "--note", "n"]
                            + [a for pr in pairs for a in ["--pair", *pr]]) == 0
    doc = json.loads(out.read_text())
    wl = doc["workloads"]["verify-q8-cold/trace0"]
    assert [p["finished_first"] for p in wl["pairs"]] == [
        "parent", "change", "parent", "change", "parent"]
    assert {a for p in wl["pairs"] for s in ("parent", "change")
            for a in p[s]["provenance"]["argv"]} == {
        "verify", "--cache-dir", "perfbench-out/tmp-1/cache-1"}
    v = wl["summary"]["verdict_s"]
    assert (v["change_wins"], v["ties"], v["pairs"]) == (4, 0, 5)
    assert v["parent"]["median"] == 0.41 and v["change"]["median"] == 0.36
    assert (v["parent"]["q1"], v["parent"]["q3"]) == (0.40, 0.42)
    assert abs(v["median_gain"] - 0.05) < 1e-12
    assert v["gain_exceeds_parent_iqr"]
    rss = wl["summary"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["ties"]) == (0, 5)
    assert wl["summary"]["ok_share"]["better"] == "higher"


def test_collate_rejects_mixed_pair(tmp_path):
    a = write_record(tmp_path / "a.json", 0.4, 20.0, 0)
    b = write_record(tmp_path / "b.json", 0.4, 20.0, 10,
                     workload="search-q8-tits")
    with pytest.raises(SystemExit, match="mixes"):
        load_tool().main(["--out", str(tmp_path / "x.json"),
                          "--pair", a, b])
