"""Run the committed mutant list against the tests that must kill it.

    python3 tools/mutants.py

Each entry of tools/mutants.json names a file under src/, an exact
snippet that occurs once in it, its replacement, and the pytest ids that
must fail once the snippet is replaced (an id without a parameter counts
as failed when any of its parametrizations fails).  For each entry the
tool copies the repository, without .git and run outputs, to a temporary
directory, replaces the snippet there, runs the named tests, and reports
the mutant killed when every named test fails, a survivor when one
passes, and an error when pytest cannot run them.  It exits 1 on a
survivor or an error.  The repository is never modified.  Standard
library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.json"
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".benchmarks",
                                 "perfbench-out")


def load_mutants() -> list[dict]:
    return json.loads(MUTANTS.read_text())


def mutated_copy(entry: dict, dest: Path) -> None:
    """The repository without its history and run outputs, at dest, with
    the entry's snippet replaced."""
    shutil.copytree(ROOT, dest, ignore=IGNORED)
    target = dest / entry["file"]
    text = target.read_text()
    if text.count(entry["snippet"]) != 1:
        raise SystemExit(f"{entry['id']}: the snippet does not occur "
                         f"exactly once in {entry['file']}")
    target.write_text(text.replace(entry["snippet"], entry["replacement"]))


def failing_tests(dest: Path, tests: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code and the ids that failed or errored in dest."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rfE", *tests],
        cwd=dest, env=env, capture_output=True, text=True, timeout=900)
    # summary lines read "FAILED <id> - <message>"; ids may hold spaces
    failed = {line.split(" ", 1)[1].partition(" - ")[0]
              for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed


def missed(named: list[str], failed: set[str]) -> list[str]:
    """The named ids with no failing test among their parametrizations."""
    return [t for t in named
            if not any(f == t or f.startswith(t + "[") for f in failed)]


def main() -> int:
    survivors = 0
    for entry in load_mutants():
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            repo = Path(tmp) / "repo"
            mutated_copy(entry, repo)
            code, failed = failing_tests(repo, entry["tests"])
        left = missed(entry["tests"], failed)
        survivors += bool(left) or code not in (0, 1)
        if code not in (0, 1):
            print(f"ERROR    {entry['id']}: pytest exit {code}")
        elif left:
            print(f"SURVIVED {entry['id']}: pytest exit {code}; passed or "
                  f"not run: {', '.join(left)}")
        else:
            print(f"killed   {entry['id']}: {len(entry['tests'])} named "
                  f"tests fail")
    print(f"{survivors} survivor(s) or error(s)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
