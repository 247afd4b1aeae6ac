"""Child process of the benchmark: runs `ovoidlab` in-process, optionally
with spans around the calls between its modules.

    python3 perfbench/traced_pipeline.py probe --src SRC
    python3 perfbench/traced_pipeline.py run --src SRC --traced 0|1 --phases JSON

`probe` times `import ovoidlab.cli` in this fresh interpreter.  `run` calls
`ovoidlab.cli.main` once per phase (a list of CLI argument lists) with
stdout captured.  With --traced 1 it first replaces every binding of the
functions in TARGETS inside the ovoidlab modules by a wrapper that records
a span, and restores the originals afterwards.  The last stdout line is one
JSON object with the phase outputs, their wall times and the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute): the public functions one ovoidlab module
# calls in another, plus the suites the CLI runs.
TARGETS = (
    ("gfield.ext_build", "ovoidlab.gfield", "ExtFieldCtx.build"),
    ("projspace.build", "ovoidlab.projspace", "build_geometry"),
    ("cache.load_or_build", "ovoidlab.cache", "load_or_build"),
    ("cache.load", "ovoidlab.cache", "load_geometry"),
    ("cache.save", "ovoidlab.cache", "save_geometry"),
    ("ovoids.elliptic", "ovoidlab.ovoids", "elliptic_quadric"),
    ("ovoids.tits", "ovoidlab.ovoids", "tits_ovoid"),
    ("ovoids.tangent_lines", "ovoidlab.ovoids", "tangent_lines"),
    ("symplectic.polarity", "ovoidlab.symplectic", "polarity_from_ovoid"),
    ("symplectic.dual_grids", "ovoidlab.symplectic", "enumerate_dual_grids"),
    ("symplectic.perp_line", "ovoidlab.symplectic", "perp_line"),
    ("fibration.singer", "ovoidlab.fibration", "singer_context"),
    ("fibration.t_orbit", "ovoidlab.fibration", "t_orbit_fibration"),
    ("fibration.regular_check", "ovoidlab.fibration", "is_regular_spread"),
    ("fibration.search", "ovoidlab.fibration",
     "find_regular_spread_in_complex"),
    ("gf2code.code_C", "ovoidlab.gf2code", "code_C"),
    ("gf2code.code_D", "ovoidlab.gf2code", "code_D"),
    ("gf2code.radical_check", "ovoidlab.gf2code", "radical_codim_check"),
    ("gf2code.in_span", "ovoidlab.gf2code", "in_span"),
    ("gf2code.t_orbit_sum", "ovoidlab.gf2code", "t_orbit_sum"),
    ("verify.prop1", "ovoidlab.verify", "verify_proposition1"),
    ("verify.lemma5", "ovoidlab.verify", "verify_lemma5"),
    ("verify.main", "ovoidlab.verify", "verify_main_theorem"),
    ("verify.codes", "ovoidlab.verify", "verify_radical_and_corollary3"),
    ("verify.segre", "ovoidlab.verify", "verify_segre"),
)

class Tracer:
    """In-memory spans: [id, parent id, name, start, end, error, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [0]

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, kwargs, result)`
        runs outside the span and returns the span's attrs."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1], name, clock(), 0.0, None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                rec[6] = after(args, kwargs, out)
            return out

        return traced


def _after_hooks(tracer: Tracer) -> dict:
    from ovoidlab import gf2code

    def rank_of(key):
        echelon = tracer.wrap("gf2code.echelon", gf2code.span_rank)
        return lambda a, k, mat: {key: echelon(mat)}

    def cache_dir(a, k):
        return a[1] if len(a) > 1 else k.get("cache_dir")

    return {
        "projspace.build": lambda a, k, g: {
            "lines": len(g.lines), "pair_entries": len(g.pair_to_line)},
        "cache.load_or_build": lambda a, k, g: {
            "cache": cache_dir(a, k) is not None},
        "cache.load": lambda a, k, g: {"bytes": os.path.getsize(a[0])},
        "cache.save": lambda a, k, path: {"bytes": os.path.getsize(path)},
        "fibration.search": lambda a, k, res: {
            "nodes": res[1], "found": res[0] is not None},
        "gf2code.code_C": rank_of("dim_C"),
        "gf2code.code_D": rank_of("dim_D"),
    }


def _ovoidlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "ovoidlab" or name.startswith("ovoidlab.")]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every TARGETS binding in the loaded ovoidlab modules; restore
    the originals on exit."""
    hooks = _after_hooks(tracer)
    saved = []  # (owner, attribute, original)
    try:
        for span, module, attr in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:  # a static method on a class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                saved.append((cls, meth, orig))
                setattr(cls, meth, staticmethod(
                    tracer.wrap(span, orig.__func__, hooks.get(span))))
                continue
            orig = getattr(owner, attr)
            wrapped = tracer.wrap(span, orig, hooks.get(span))
            for mod in _ovoidlab_modules():
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, name, orig))
                        setattr(mod, name, wrapped)
        yield
    finally:
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)
        leftover = [f"{o.__name__}.{n}" for o, n, orig in saved
                    if vars(o)[n] is not orig]
        if leftover:
            raise RuntimeError(f"not restored: {leftover}")


def _import_cli(src: str):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import ovoidlab.cli as cli
    import_s = time.perf_counter() - t0
    import ovoidlab
    if Path(ovoidlab.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"ovoidlab imported from {ovoidlab.__file__}, "
                         f"not from {src}")
    return cli, ovoidlab.__version__, import_s


def run_phases(cli, phases, tracer: Tracer | None) -> list[dict]:
    out = []
    for argv in phases:
        buf = io.StringIO()
        main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = main(list(argv))
            wall = time.perf_counter() - t0
        out.append({"argv": list(argv), "rc": rc, "wall_s": wall,
                    "stdout": buf.getvalue()})
    return out


def layer_metrics(spans) -> tuple[dict, list]:
    """Per-layer metrics and cache decisions from one traced run's spans."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    attrs = defaultdict(list)
    for _, parent, name, t0, t1, _, extra in spans:
        total[name] += t1 - t0
        calls[name] += 1
        child_time[parent] += t1 - t0
        if extra:
            attrs[name].append(extra)

    def attr_max(name, key):
        return max((a[key] for a in attrs[name] if key in a), default=0)

    decisions = []
    for sid, _, name, _, _, _, extra in spans:
        if name != "cache.load_or_build" or not (extra or {}).get("cache"):
            continue
        loads = [s for s in spans if s[1] == sid and s[2] == "cache.load"]
        if any(s[5] is None for s in loads):
            decisions.append({"decision": "hit"})
        elif loads:
            decisions.append({"decision": "rebuild", "reason": loads[-1][5]})
        else:
            decisions.append({"decision": "miss", "reason": "no cache file"})
    hits = sum(d["decision"] == "hit" for d in decisions)

    searches = calls["fibration.search"]
    found = sum(a.get("found", False) for a in attrs["fibration.search"])
    m = {
        "projspace.lines": attr_max("projspace.build", "lines"),
        "projspace.pair_entries": attr_max("projspace.build", "pair_entries"),
        "cache.bytes": max(attr_max("cache.save", "bytes"),
                           attr_max("cache.load", "bytes")),
        "cache.hits": hits,
        "cache.misses": len(decisions) - hits,
        "fibration.search_nodes": sum(a["nodes"]
                                      for a in attrs["fibration.search"]),
        "fibration.search_found_ratio": found / searches if searches else 0.0,
        "gf2code.dim_C": attr_max("gf2code.code_C", "dim_C"),
        "gf2code.dim_D": attr_max("gf2code.code_D", "dim_D"),
        "gf2code.echelon_s": total["gf2code.echelon"],
    }
    for span, _, _ in TARGETS:
        m[f"{span}_s"] = total[span]
        m[f"{span}_calls"] = calls[span]
        if span.startswith("verify."):
            m[f"{span}.self_s"] = sum(
                (t1 - t0 - child_time[sid]
                 for sid, _, name, t0, t1, _, _ in spans if name == span), 0.0)
    return m, decisions


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("probe", "run"))
    ap.add_argument("--src", required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phases", default="[]")
    args = ap.parse_args(argv)
    cli, version, import_s = _import_cli(args.src)
    doc = {"version": version, "import_s": import_s}
    if args.mode == "run":
        phases = json.loads(args.phases)
        if args.traced:
            tracer = Tracer()
            with instrumented(tracer):
                doc["phases"] = run_phases(cli, phases, tracer)
            doc["spans"] = tracer.spans
        else:
            doc["phases"] = run_phases(cli, phases, None)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
