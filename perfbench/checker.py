"""Checks one `ovoidlab` invocation's exit code and stdout against the
expected output.

Counters with a closed form in q are derived here; the rest are pinned in
expected.json.  `check` returns a list of problems, empty when the output
is correct.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SUITE_ORDER = ("proposition1", "lemma5", "main_theorem",
               "radical_corollary3", "segre")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(Path(path).read_text())


def arg_value(argv, flag: str, default=None):
    """Value following `flag` in a CLI argument list."""
    return argv[argv.index(flag) + 1] if flag in argv else default


def sastry_sin_dim_c(n: int) -> int:
    """1 + s_{2n} with s_0 = 2, s_1 = 1, s_k = s_{k-1} + 4 s_{k-2}."""
    s = [2, 1]
    while len(s) <= 2 * n:
        s.append(s[-1] + 4 * s[-2])
    return 1 + s[2 * n]


def geometry_summary(n: int) -> dict:
    """Closed-form counts of PG(3, q), q = 2^n (modulus and generator are
    recorded, not checked)."""
    q = 1 << n
    return {"q": q, "n": n, "points": (q + 1) * (q * q + 1),
            "lines": (q * q + 1) * (q * q + q + 1),
            "planes": (q + 1) * (q * q + 1)}


def verify_counters(n: int, pinned: dict) -> dict:
    """Expected counters of every suite at q = 2^n."""
    q = 1 << n
    geo = geometry_summary(n)
    points, lines = geo["points"], geo["lines"]
    grids = q * q * (q * q + 1) // 2
    dim_c = sastry_sin_dim_c(n)
    dim_d = pinned["radical_corollary3"]["dim_D"]
    out = {
        "proposition1": {"spread": q * q + 1,
                         "lines_checked": (q * q + 1) * (q * q + q),
                         "expected_profile": [1, q // 2, q // 2]},
        "lemma5": {"lines_in_spread": q * q + 1,
                   "lines_not_in_spread": (q * q + 1) * (q * q + q),
                   "weight_histogram": pinned["lemma5"]["weight_histogram"]},
        "main_theorem": {"theta0_choices": q + 1,
                         "dual_grids_checked": (q + 1) * grids},
        "radical_corollary3": {"lines_of_W": points, "dual_grids": grids,
                               "dim_C": dim_c, "dim_C_perp": points - dim_c,
                               "dim_D": dim_d,
                               "dim_pairwise_sum_span": dim_d - 1,
                               "radical_codim": 1},
        # W(q) lines and ovoid tangents both number (q+1)(q^2+1)
        "segre": {"tangent_lines": points, "non_tangent_lines": lines - points,
                  "ovoid_kind": "elliptic-claimed"},
    }
    for counters in out.values():
        counters["failures_total"] = 0
    return out


def _check_verify(n: int, doc, expected: dict) -> list[str]:
    q = 1 << n
    if not isinstance(doc, list) or len(doc) != len(SUITE_ORDER):
        return [f"expected a list of {len(SUITE_ORDER)} reports"]
    want = verify_counters(n, expected["verify"][str(n)])
    problems = []
    for theorem, rep in zip(SUITE_ORDER, doc):
        if not isinstance(rep, dict):
            problems.append(f"{theorem}: report is not an object")
            continue
        if rep.get("theorem") != theorem:
            problems.append(f"report {rep.get('theorem')!r}, "
                            f"expected {theorem}")
            continue
        if rep.get("q") != q:
            problems.append(f"{theorem}: q = {rep.get('q')}, expected {q}")
        if rep.get("pass") is not True:
            problems.append(f"{theorem}: pass is {rep.get('pass')!r}")
        if rep.get("failures") != []:
            problems.append(f"{theorem}: failure witnesses present")
        if not isinstance(rep.get("elapsed_ms"), int):
            problems.append(f"{theorem}: elapsed_ms missing")
        if "advisory" in rep:
            problems.append(f"{theorem}: unexpected advisory at q = {q}")
        got = rep.get("counters")
        if not isinstance(got, dict):
            problems.append(f"{theorem}: counters missing")
        elif got != want[theorem]:
            diff = sorted(k for k in set(want[theorem]) | set(got)
                          if got.get(k) != want[theorem].get(k))
            problems.append(f"{theorem}: counters differ in {diff}")
    return problems


def _check_search(n: int, ovoid: str, doc, expected: dict) -> list[str]:
    q = 1 << n
    pinned = expected["search-spread"][f"{n}-{ovoid}"]
    want = {"q": q, "ovoid": ovoid, **pinned}
    if not isinstance(doc, dict):
        return ["search-spread output is not an object"]
    if doc != want:
        keys = sorted(k for k in set(want) | set(doc)
                      if doc.get(k) != want.get(k))
        return [f"search-spread output differs in {keys}"]
    if len(doc["spread"]) != q * q + 1:
        return [f"spread has {len(doc['spread'])} lines, expected {q * q + 1}"]
    return []


def _check_geometry(n: int, doc) -> list[str]:
    want = geometry_summary(n)
    if not isinstance(doc, dict):
        return ["geometry summary is not an object"]
    bad = sorted(k for k in want if doc.get(k) != want[k])
    if bad or not isinstance(doc.get("modulus"), int):
        return [f"geometry summary differs in {bad or ['modulus']}"]
    return []


def check(argv, returncode: int, stdout: str, expected: dict) -> list[str]:
    """Problems with one invocation of `ovoidlab <argv>`; [] means correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    n = int(arg_value(argv, "--n"))
    command = argv[0]
    if command == "verify" and arg_value(argv, "--suite") == "all":
        return _check_verify(n, doc, expected)
    if command == "search-spread":
        return _check_search(n, arg_value(argv, "--ovoid"), doc, expected)
    if command == "geometry":
        return _check_geometry(n, doc)
    raise ValueError(f"no expected output for {argv}")


def strip_elapsed(doc):
    """Reports with elapsed_ms removed, for comparing two runs."""
    if isinstance(doc, list):
        return [strip_elapsed(d) for d in doc]
    if isinstance(doc, dict):
        return {k: v for k, v in doc.items() if k != "elapsed_ms"}
    return doc
