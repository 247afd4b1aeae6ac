"""Benchmark of the ovoidlab verifier: time to verdict of the `ovoidlab` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a checkout; the package is imported from its `src/`.
Standard library only.  A run, set-up included, lasts about S seconds.

--trace 0 times the real CLI in a child process, one invocation at a time
(a closed loop with one client).  Before each invocation a set-up builds the
geometry with the CLI (into a fresh private cache on verify-q8-cached, which
the invocation then reads); setup_s is the median set-up.  Each invocation's
exit code and stdout are checked against the expected output (checker.py,
expected.json); only invocations that pass count towards `verdict_s`.  The
end-to-end metrics are printed.

--trace 1 runs the same commands in-process (traced_pipeline.py), in
alternating untraced and traced child processes, and prints the per-layer
metrics taken from the traced runs' spans.  Traced and untraced reports
must be equal apart from elapsed_ms.

The metric names and units come from BENCHMARK.json.  The last stdout line
is {"correct", "attempted", "failed", "metrics"}; the line before it holds
the provenance.  A record of the run, spans included, is written to
perfbench-out/.  The seed only orders the untraced and traced runs of a
pair: the CLI ignores --seed, and every input is fixed by the workload.

--quick runs every workload's command once at q = 4 and the traced
pipeline once, to check the harness itself in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

if __name__ == "__main__":
    sys.dont_write_bytecode = True  # leave no bytecode in the benchmark's dir
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
from traced_pipeline import layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

MIN_INVOCATIONS = 3     # timed CLI invocations per run, at the least
IMPORT_REPEATS = 5      # fresh interpreters timing `import ovoidlab.cli`
CHILD_TIMEOUT_S = 120.0
MAX_SECONDS = 150.0     # longest window, so that a run exits within 180 s


@dataclass(frozen=True)
class Workload:
    argv: tuple           # CLI arguments at q = 8
    quick_argv: tuple     # the same command at q = 4, for --quick
    cached: bool          # set-up fills a private cache that the command reads


WORKLOADS = {
    "verify-q8-cold": Workload(
        ("verify", "--n", "3", "--suite", "all", "--no-cache"),
        ("verify", "--n", "2", "--suite", "all", "--no-cache"), False),
    "verify-q8-cached": Workload(
        ("verify", "--n", "3", "--suite", "all"),
        ("verify", "--n", "2", "--suite", "all"), True),
    # Suzuki-Tits ovoids need odd n >= 3, so --quick searches the tangent
    # complex of the elliptic quadric instead.
    "search-q8-tits": Workload(
        ("search-spread", "--n", "3", "--ovoid", "tits", "--budget", "1000",
         "--no-cache"),
        ("search-spread", "--n", "2", "--ovoid", "elliptic", "--budget",
         "1000", "--no-cache"), False),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Invocation:
    argv: list
    rc: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    problems: list = field(default_factory=list)

    def record(self) -> dict:
        return {"argv": self.argv, "rc": self.rc, "wall_s": self.wall_s,
                "maxrss_kb": self.maxrss_kb, "problems": self.problems}


class Runner:
    """Spawns children with a private environment inside one work dir."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.stderr_path = workdir / "stderr.txt"
        # every child reads its cache location from here unless told
        # otherwise, so no run touches the user's cache
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        OVOIDLAB_CACHE=str(workdir / "default-cache"))
        self.expected = checker.load_expected()
        self._cache_dirs = 0

    def fresh_cache_dir(self) -> Path:
        self._cache_dirs += 1
        return self.workdir / f"cache-{self._cache_dirs}"

    def spawn(self, cmd: list) -> tuple[int, float, int, str]:
        """(exit code, wall seconds from spawn to exit, ru_maxrss in KiB,
        stdout) of one child."""
        out_path = self.workdir / "stdout.txt"
        with open(out_path, "wb") as out, open(self.stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill,
                                       (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # e.g. SystemExit from SIGTERM
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss,
                out_path.read_text(errors="replace"))

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-500:]

    def invoke(self, argv) -> Invocation:
        """One checked invocation of the `ovoidlab` CLI."""
        argv = [str(a) for a in argv]
        rc, wall, rss, stdout = self.spawn(
            [sys.executable, "-m", "ovoidlab.cli", *argv])
        inv = Invocation(argv, rc, wall, rss, stdout)
        inv.problems = checker.check(argv, rc, stdout, self.expected)
        if rc != 0:
            inv.problems.append(f"stderr: {self.stderr_tail()}")
        return inv

    def child_json(self, args) -> dict:
        """Last stdout line of a traced_pipeline.py child, parsed."""
        rc, _, _, stdout = self.spawn(
            [sys.executable, str(HERE / "traced_pipeline.py"), *map(str, args),
             "--src", str(SRC)])
        if rc != 0:
            raise BenchError(f"traced_pipeline {args[0]} exited {rc}: "
                             f"{self.stderr_tail()}")
        return json.loads(stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout (or a packed ref)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commands(runner: Runner, wl: Workload, argv) -> tuple[list, list]:
    """(geometry build, the workload's command), both on one fresh private
    cache directory when the workload is cached."""
    n = checker.arg_value(argv, "--n")
    if not wl.cached:
        return ["geometry", "--n", n, "--no-cache"], list(argv)
    cache_dir = str(runner.fresh_cache_dir())
    return (["geometry", "--n", n, "--cache-dir", cache_dir],
            list(argv) + ["--cache-dir", cache_dir])


def set_up(runner: Runner, wl: Workload, argv) -> tuple[float, list, dict]:
    """Build PG(3,q) with the CLI as the workload's command would find it:
    cold, or into a fresh private cache that the command then reads.
    Returns (seconds taken, the command's argv, geometry summary)."""
    geo_argv, cmd = _commands(runner, wl, argv)
    t0 = time.perf_counter()
    geo = runner.invoke(geo_argv)
    if wl.cached and not geo.problems:
        cache_dir = Path(cmd[-1])
        if not (cache_dir.is_dir() and any(cache_dir.iterdir())):
            geo.problems.append(f"no cache file written in {cache_dir}")
    seconds = time.perf_counter() - t0
    if geo.problems:
        raise BenchError(f"set-up failed: {geo.problems}")
    return seconds, cmd, json.loads(geo.stdout)


def timed_loop(runner: Runner, wl: Workload, argv, deadline: float,
               min_ops: int) -> dict:
    """End-to-end metrics of CLI invocations run one after another, each
    after its own set-up, started while one more set-up and invocation are
    expected to end before `deadline` (a perf_counter time).

    Set-ups are spread over the run rather than done up front, so that
    setup_s and verdict_s see the same drift in machine speed."""
    invs: list[Invocation] = []
    setups: list[float] = []
    while True:
        setup_s, cmd, geo = set_up(runner, wl, argv)
        setups.append(setup_s)
        invs.append(runner.invoke(cmd))
        cycle = (statistics.median(setups)
                 + statistics.median(i.wall_s for i in invs))
        if len(invs) >= min_ops and time.perf_counter() + cycle > deadline:
            break
    ok = [i.wall_s for i in invs if not i.problems]
    return {
        "attempted": len(invs), "failed": len(invs) - len(ok),
        "cmd": cmd, "geometry": geo,
        "metrics": {
            "verdict_s": statistics.median(ok or [i.wall_s for i in invs]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(i.maxrss_kb for i in invs) / 1024,
            "ok_share": len(ok) / len(invs),
        },
        "record": {"setup_s": setups,
                   "invocations": [i.record() for i in invs]},
    }


def traced_loop(runner: Runner, wl: Workload, argv, deadline: float,
                seed: int) -> dict:
    """Per-layer metrics from pairs of untraced and traced in-process runs
    of the workload's commands, started while one more pair is expected to
    end before `deadline`."""
    imports = [runner.child_json(["probe"])["import_s"]
               for _ in range(IMPORT_REPEATS)]
    rng = random.Random(seed)
    walls = {0: [], 1: []}
    per_run: list[dict] = []
    problems: list[str] = []
    first = None
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        order = [0, 1]
        rng.shuffle(order)
        reports = {}
        for traced in order:
            geo_argv, cmd = _commands(runner, wl, argv)
            phases = [geo_argv, cmd] if wl.cached else [cmd]
            doc = runner.child_json(["run", "--traced", traced,
                                     "--phases", json.dumps(phases)])
            attempted += 1
            bad = [f"{ph['argv'][0]}: {p}" for ph in doc["phases"]
                   for p in checker.check(ph["argv"], ph["rc"], ph["stdout"],
                                          runner.expected)]
            reports[traced] = None if bad else checker.strip_elapsed(
                json.loads(doc["phases"][-1]["stdout"]))
            walls[traced].append(sum(ph["wall_s"] for ph in doc["phases"]))
            if traced:
                metrics, decisions = layer_metrics(doc["spans"])
                per_run.append(metrics)
                if first is None:
                    first = {"spans": doc["spans"],
                             "cache_decisions": decisions}
            if bad:
                failed += 1
                problems += bad
        if reports[0] != reports[1]:
            failed += 1
            problems.append("traced reports differ from untraced ones")
        now = time.perf_counter()
        if now + (now - t_start) / len(per_run) > deadline:
            break

    metrics = {k: statistics.median_low(m[k] for m in per_run)
               for k in per_run[0]}
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = (statistics.median(walls[1])
                                   - statistics.median(walls[0]))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "record": {"problems": problems, "walls_s": walls,
                       "import_s": imports, **first}}


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool,
            spec: dict) -> tuple[dict, dict]:
    """(result line, run record) of one benchmark run."""
    if not (SRC / "ovoidlab" / "cli.py").is_file():
        raise BenchError(f"no ovoidlab sources under {SRC}")
    # the window holds set-up too, so that a run lasts about `seconds`
    deadline = time.perf_counter() + min(seconds, MAX_SECONDS)
    wl = WORKLOADS[name]
    argv = wl.quick_argv if quick else wl.argv
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        probe = runner.child_json(["probe"])
        if trace:
            _, cmd, geo = set_up(runner, wl, argv)
            res = traced_loop(runner, wl, argv, deadline, seed)
            wanted = spec["per_layer"]
        else:
            res = timed_loop(runner, wl, argv, deadline,
                             1 if quick else MIN_INVOCATIONS)
            cmd, geo = res["cmd"], res["geometry"]
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "quick": quick, "argv": cmd, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "ovoidlab_version": probe["version"],
        "n": geo["n"], "q": geo["q"], "modulus": geo["modulus"],
        "generator": geo["generator"],
    }
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    record = {"provenance": provenance, "result": result, **res["record"]}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload once at q = 4, untimed")
    args = ap.parse_args(argv)
    # end like an interrupt, so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not args.quick and not args.workload:
        ap.error("--workload is required unless --quick is given")
    runs = ([(name, trace) for name in WORKLOADS for trace in (0, 1)]
            if args.quick else [(args.workload, args.trace)])
    results = {}
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for name, trace in runs:
            result, record = measure(name, args.seed,
                                     0 if args.quick else args.seconds,
                                     bool(trace), args.quick, spec)
            tag = f"{'quick-' if args.quick else ''}{name}-seed{args.seed}"
            (OUT / f"{tag}-trace{trace}.json").write_text(json.dumps(record))
            results[f"{name}/trace{trace}"] = result
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.quick:
        ok = all(r["correct"] for r in results.values())
        print(json.dumps(results, indent=1))
        print(json.dumps({"correct": ok}))
        return 0 if ok else 1
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
