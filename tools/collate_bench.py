"""Collate benchmark run records into one BENCH_<k>.json file.

    python3 tools/collate_bench.py --out BENCH_11.json --note TEXT \
        --pair PARENT_RECORD CHANGE_RECORD [--pair ...]

Each --pair names two records that perfbench/run.py wrote to a checkout's
perfbench-out/: one run of the parent commit and one run of the change,
of the same workload, trace mode and run length.  For each workload and
trace mode the output holds every run's metric values and provenance,
which side of each pair finished first (from the records' modification
times), and per metric each side's median and quartiles, the parent's
interquartile range and the number of pairs the change won, ties counting
for neither side.  Paths in a run's argv are kept relative to its
checkout, so that runs of two checkouts compare.  Directions and units come from BENCHMARK.json.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_run(path: str) -> dict:
    """One run's record, with the paths in its argv made relative to the
    checkout that ran it (the parent of its perfbench-out/)."""
    rec = json.loads(Path(path).read_text())
    root = str(Path(path).resolve().parent.parent) + os.sep
    prov = dict(rec["provenance"])
    prov["argv"] = [a.removeprefix(root) for a in prov["argv"]]
    return {"record": os.path.basename(path),
            "finished_unix": int(os.stat(path).st_mtime),
            "provenance": prov,
            "correct": rec["result"]["correct"],
            "attempted": rec["result"]["attempted"],
            "failed": rec["result"]["failed"],
            "metrics": {k: v["value"]
                        for k, v in rec["result"]["metrics"].items()}}


def quartiles(values: list) -> dict:
    """Median and quartiles, by statistics.quantiles(method="inclusive")."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list, directions: dict) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        better, unit = directions[name]
        vals = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        stats = {s: quartiles(vals[s]) for s in SIDES}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(vals["parent"], vals["change"]))
        ties = sum(c == p for p, c in zip(vals["parent"], vals["change"]))
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
        out[name] = {"unit": unit, "better": better, **stats,
                     "parent_iqr": parent_iqr,
                     "median_gain": gap,
                     "change_wins": wins, "ties": ties, "pairs": len(pairs),
                     "gain_exceeds_parent_iqr": gap > parent_iqr}
    return out


def collate(pair_paths, spec: dict, note: str) -> dict:
    directions = {m["name"]: (m["better"], m["unit"])
                  for m in spec["end_to_end"] + spec["per_layer"]}
    groups: dict = {}
    for parent_path, change_path in pair_paths:
        runs = {"parent": load_run(parent_path),
                "change": load_run(change_path)}
        keys = {(r["provenance"]["workload"], r["provenance"]["trace"],
                 r["provenance"]["seconds"]) for r in runs.values()}
        if len(keys) != 1:
            raise SystemExit(f"pair {parent_path} / {change_path} mixes "
                             f"runs: {sorted(keys)}")
        first = min(SIDES, key=lambda s: runs[s]["finished_unix"])
        (workload, trace, _), = keys
        groups.setdefault(f"{workload}/trace{int(trace)}", []).append(
            {"finished_first": first, **runs})
    return {
        "note": note,
        "benchmark": {"command": spec["command"],
                      "run_seconds": spec["run_seconds"]},
        "workloads": {key: {"summary": summarize(pairs, directions),
                            "pairs": pairs}
                      for key, pairs in sorted(groups.items())},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--note", default="")
    ap.add_argument("--pair", nargs=2, action="append", required=True,
                    metavar=("PARENT_RECORD", "CHANGE_RECORD"))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = collate(args.pair, spec, args.note)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for key, wl in doc["workloads"].items():
        for name, m in wl["summary"].items():
            print(f"{key} {name}: median {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g} {m['unit']} (parent IQR "
                  f"{m['parent_iqr']:.3g}), change wins "
                  f"{m['change_wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
