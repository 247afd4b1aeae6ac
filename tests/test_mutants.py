"""The committed mutant list, tools/mutants.json, cannot go stale
silently: each snippet occurs exactly once in its file under src/, and
each test that must kill it exists.  tools/mutants.py runs the mutants."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENTRIES = json.loads((ROOT / "tools" / "mutants.json").read_text())


def test_mutant_ids_are_unique():
    ids = [e["id"] for e in ENTRIES]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["id"] for e in ENTRIES])
def test_mutant_snippet_occurs_once(entry):
    assert entry["file"].startswith("src/")
    assert entry["snippet"] != entry["replacement"]
    assert (ROOT / entry["file"]).read_text().count(entry["snippet"]) == 1
    assert entry["tests"]
    for test in entry["tests"]:
        path, name = test.split("::")
        name = name.split("[")[0]
        source = (ROOT / path).read_text()
        assert re.search(rf"^def {name}\(", source, re.M), test
