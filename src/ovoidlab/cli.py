"""Command-line entry point.

Subcommands: geometry, fibration, verify, search-spread, all.
Reports go to stdout (JSON or text); progress logs go to stderr.
Exit codes: 0 = all checks passed, 1 = some verification failed,
2 = usage or internal error.

Each command imports the modules it runs when it runs them, so that
`geometry` loads no suite, `search-spread` loads no code or polarity, and
only a command that reads a cache directory or exports JSON loads the
cache module.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import OvoidlabError
from .gfield import ExtFieldCtx
from .projspace import build_geometry

SUITES = ("prop1", "lemma5", "main", "codes", "segre")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ovoidlab",
        description="Finite-geometry workbench for PG(3,q), W(q), ovoidal "
                    "fibrations and their GF(2) incidence codes (q = 2^n).")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, required=True,
                        help="extension degree, q = 2^n, n in 1..4")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--cache-dir", type=Path, default=None,
                        help="read and write the geometry cache here; a "
                             "file must equal a fresh build (default: cold)")
        sp.add_argument("--no-cache", action="store_true",
                        help="build cold even if --cache-dir is given")
        sp.add_argument("--seed", type=int, default=0,
                        help="accepted for interface stability; "
                             "no command reads it")
        sp.add_argument("--threads", type=int, default=0,
                        help="accepted for interface stability; "
                             "output does not depend on it")

    sp = sub.add_parser("geometry", help="build PG(3,q) tables")
    common(sp)
    sp.add_argument("--export-json", action="store_true",
                    help="dump the full JSON mirror of the cache")

    sp = sub.add_parser("fibration",
                        help="Singer T-orbit fibration and its spread")
    common(sp)

    sp = sub.add_parser("verify", help="run theorem verification suites")
    common(sp)
    sp.add_argument("--suite", choices=SUITES + ("all",), default="all")

    sp = sub.add_parser("search-spread",
                        help="search for a regular spread inside a tangent "
                             "complex")
    common(sp)
    sp.add_argument("--ovoid", choices=("elliptic", "tits"),
                    default="elliptic")
    sp.add_argument("--budget", type=int, default=10 ** 6,
                    help="search node budget (NotFound is not a disproof)")

    sp = sub.add_parser("all", help="geometry + fibration + all suites")
    common(sp)
    return p


def _emit(doc, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        _emit_text(doc)


def _emit_text(doc, indent: str = "") -> None:
    if isinstance(doc, list):
        for item in doc:
            _emit_text(item, indent)
        return
    for key, val in doc.items():
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _emit_text(val, indent + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{indent}{key}:")
            _emit_text(val, indent + "  ")
        else:
            print(f"{indent}{key}: {val}")


def _geometry_summary(g) -> dict:
    return {
        "q": g.q,
        "n": g.ctx.n,
        "modulus": g.ctx.modulus,
        "generator": g.ctx.generator,
        "points": len(g.points),
        "lines": len(g.lines),
        "planes": len(g.planes),
    }


def _fibration_doc(g, fib) -> dict:
    from .fibration import common_tangent_spread
    return {
        "q": g.q,
        "ovoids": [list(ov.pts) for ov in fib.members],
        "spread": list(common_tangent_spread(fib, g).lines),
    }


def _singer_fibration(args, g):
    """The Singer context and its T-orbit fibration, built once per run."""
    from .fibration import singer_context, t_orbit_fibration
    sc = singer_context(g, ExtFieldCtx.build(args.n))
    return sc, t_orbit_fibration(sc)


def _run_suites(g, sc, fib, suites) -> list[dict]:
    from .ovoids import elliptic_quadric
    from .symplectic import member_polarity
    from .verify import (verify_lemma5, verify_main_theorem,
                         verify_proposition1, verify_radical_and_corollary3,
                         verify_segre)
    reports = []
    for name in suites:
        if name == "prop1":
            rep = verify_proposition1(fib, g)
        elif name == "lemma5":
            rep = verify_lemma5(sc)
        elif name == "main":
            rep = verify_main_theorem(fib, g)
        elif name == "codes":
            form = member_polarity(fib, 0, g)
            rep = verify_radical_and_corollary3(form, sc)
        elif name == "segre":
            rep = verify_segre(elliptic_quadric(g), g)
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(name)
        reports.append(rep.to_dict())
    return reports


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if getattr(args, "budget", 1) <= 0:
        print("error: --budget must be > 0", file=sys.stderr)
        return 2

    cache_dir = None if args.no_cache else args.cache_dir
    try:
        if cache_dir is None:
            g = build_geometry(args.n)
        else:
            from .cache import load_or_build
            g = load_or_build(args.n, cache_dir)
    except OvoidlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "geometry":
            if args.export_json:
                from .cache import export_geometry_json
                print(export_geometry_json(g))
            else:
                _emit(_geometry_summary(g), args.format)
            return 0

        if args.command == "fibration":
            _, fib = _singer_fibration(args, g)
            _emit(_fibration_doc(g, fib), args.format)
            return 0

        if args.command == "verify":
            suites = SUITES if args.suite == "all" else (args.suite,)
            reports = _run_suites(g, *_singer_fibration(args, g), suites)
            _emit(reports, args.format)
            return 0 if all(r["pass"] for r in reports) else 1

        if args.command == "search-spread":
            from .fibration import find_regular_spread_in_complex
            from .ovoids import elliptic_quadric, tangent_lines, tits_ovoid
            theta = (tits_ovoid(g) if args.ovoid == "tits"
                     else elliptic_quadric(g))
            tl = tangent_lines(theta, g)

            def progress(nodes):
                print(f"search-spread: {nodes} nodes", file=sys.stderr)

            spread, nodes = find_regular_spread_in_complex(
                tl, g, budget=args.budget, progress=progress)
            _emit({"q": g.q, "ovoid": args.ovoid,
                   "found": spread is not None,
                   "spread": list(spread) if spread else [],
                   "nodes": nodes}, args.format)
            return 0

        if args.command == "all":
            sc, fib = _singer_fibration(args, g)
            fib_doc = _fibration_doc(g, fib)
            reports = _run_suites(g, sc, fib, SUITES)
            _emit({"geometry": _geometry_summary(g),
                   "fibration": fib_doc,
                   "reports": reports}, args.format)
            return 0 if all(r["pass"] for r in reports) else 1
    except OvoidlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - unreachable


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
