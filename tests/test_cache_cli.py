import hashlib
import json
import struct

import pytest

from ovoidlab import cache as geocache
from ovoidlab.cli import main
from ovoidlab.errors import OvoidlabError


# --- cache -----------------------------------------------------------------

def test_cache_round_trip(geo2, tmp_path):
    path = geocache.save_geometry(geo2, tmp_path)
    assert path.exists() and path.name.startswith("ovoidlab-geo-v1-n2")
    loaded = geocache.load_geometry(path)
    assert geocache.serialize_geometry(loaded) == geocache.serialize_geometry(geo2)


def test_cache_round_trip_q8(geo3, tmp_path):
    loaded = geocache.load_geometry(geocache.save_geometry(geo3, tmp_path))
    assert geocache.serialize_geometry(loaded) == geocache.serialize_geometry(geo3)
    assert loaded.q == 8 and len(loaded.lines) == 4745


def test_cache_loaded_tables_usable(geo2, tmp_path):
    loaded = geocache.load_geometry(geocache.save_geometry(geo2, tmp_path))
    assert loaded.pair_to_line == geo2.pair_to_line
    assert loaded.point_index == geo2.point_index
    assert loaded.point_to_lines == geo2.point_to_lines
    for ln, ln2 in zip(loaded.lines, geo2.lines):
        assert ln.pts == ln2.pts and ln.mask == ln2.mask
    for pl, pl2 in zip(loaded.planes, geo2.planes):
        assert pl.pts == pl2.pts
        assert pl.mask == pl2.mask


@pytest.mark.parametrize("fix,digest", [
    ("geo1", "5201ef28a0f44e8c3d00bc2403442f525959736d325accd45a30bc63e7a0f756"),
    ("geo2", "aeacd40c02b64a88af77e3dc7df671ef89e91e0b7acaec5d548fd76503c3ce6d"),
    ("geo3", "1df2687f1810056a47fa7c77b6ea68586898b7ae2f87eeb27c4d7b457d99ce5d"),
])
def test_serialized_geometry_is_pinned(fix, digest, request):
    data = geocache.serialize_geometry(request.getfixturevalue(fix))
    assert hashlib.sha256(data).hexdigest() == digest


# byte offsets inside a serialized q = 4 cache: 85 points, 357 lines of 5
_HEAD = 4 + struct.calcsize("<IIQQ") + struct.calcsize("<III")
_LINES = _HEAD + 16 * 85
_PLANES = _LINES + 4 * 5 * 357


def _put(data: bytearray, off: int, *values):
    struct.pack_into(f"<{len(values)}I", data, off, *values)


def _point_out_of_range(d):
    _put(d, _LINES + 4 * 4, 999)           # last point of line 0


def _line_not_increasing(d):
    a, b = struct.unpack_from("<2I", d, _LINES)
    _put(d, _LINES, b, a)                  # first two points of line 0


def _plane_normal_differs(d):
    _put(d, _PLANES + 16 * 7 + 12, 3)      # last coordinate of plane 7


def _points_permuted(d):
    for off in (_HEAD, _PLANES):           # swap points 0 and 1 in both
        d[off:off + 32] = d[off + 16:off + 32] + d[off:off + 16]


def _pair_on_two_lines(d):
    d[_LINES + 20:_LINES + 40] = d[_LINES:_LINES + 20]   # line 1 := line 0


def _header_truncated(d):
    del d[12:]


@pytest.mark.parametrize("corrupt, message", [
    (_point_out_of_range, "out of range"),
    (_line_not_increasing, "not strictly increasing"),
    (_plane_normal_differs, "plane normals differ"),
    (_points_permuted, "point coordinates"),
    (_pair_on_two_lines, "lies on two lines"),
    (_header_truncated, "not an ovoidlab geometry cache"),
])
def test_cache_rejects_corruption(corrupt, message, geo2, tmp_path):
    data = bytearray(geocache.serialize_geometry(geo2))
    corrupt(data)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=message):
        geocache.load_geometry(bad)


def test_cache_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises((OvoidlabError, ValueError)):
        geocache.load_geometry(bad)


def test_load_or_build_uses_cache(tmp_path):
    g1 = geocache.load_or_build(2, tmp_path, force=False)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    g2 = geocache.load_or_build(2, tmp_path, force=False)
    assert geocache.serialize_geometry(g1) == geocache.serialize_geometry(g2)


def test_load_or_build_rebuilds_cache_of_another_degree(geo1, geo2, tmp_path):
    path = tmp_path / geocache.cache_filename(2, geo2.ctx.modulus)
    path.write_bytes(geocache.serialize_geometry(geo1))
    g = geocache.load_or_build(2, tmp_path)
    assert g.q == 4
    assert path.read_bytes() == geocache.serialize_geometry(geo2)


def test_export_json(geo2):
    doc = json.loads(geocache.export_geometry_json(geo2))
    assert doc["q"] == 4
    assert len(doc["points"]) == 85
    assert len(doc["lines"]) == 357
    assert len(doc["planes"]) == 85


# --- CLI -------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_geometry_json(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "geometry", "--n", "2",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc == {"q": 4, "n": 2, "modulus": 7, "generator": doc["generator"],
                   "points": 85, "lines": 357, "planes": 85}


def test_cli_rebuilds_corrupt_cache(capsys, geo2, tmp_path):
    data = bytearray(geocache.serialize_geometry(geo2))
    _put(data, _LINES, 999)                # first point of line 0
    path = tmp_path / geocache.cache_filename(2, geo2.ctx.modulus)
    path.write_bytes(bytes(data))
    code, out, err = run_cli(capsys, "geometry", "--n", "2",
                             "--cache-dir", str(tmp_path))
    assert code == 0 and "Traceback" not in err
    assert out == run_cli(capsys, "geometry", "--n", "2", "--no-cache")[1]
    loaded = geocache.load_geometry(path)
    assert geocache.serialize_geometry(loaded) == \
        geocache.serialize_geometry(geo2)


def test_cli_geometry_text(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "geometry", "--n", "2", "--format", "text",
                           "--no-cache")
    assert code == 0
    assert "points: 85" in out and "lines: 357" in out


def test_cli_fibration(capsys):
    code, out, _ = run_cli(capsys, "fibration", "--n", "2", "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["ovoids"]) == 5
    assert all(len(o) == 17 for o in doc["ovoids"])
    assert len(doc["spread"]) == 17


def test_cli_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--no-cache",
                           "--suite", "all")
    assert code == 0
    reports = json.loads(out)
    assert [r["theorem"] for r in reports] == [
        "proposition1", "lemma5", "main_theorem", "radical_corollary3",
        "segre"]
    assert all(r["pass"] for r in reports)


def test_cli_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--no-cache",
                           "--suite", "lemma5")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1 and reports[0]["theorem"] == "lemma5"


def test_cli_verify_q2_advisory(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1", "--no-cache",
                           "--suite", "main")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["pass"] and "advisory" in rep


def test_cli_text_json_same_counters(capsys):
    _, out_json, _ = run_cli(capsys, "verify", "--n", "2", "--no-cache",
                             "--suite", "prop1")
    counters = json.loads(out_json)[0]["counters"]
    _, out_text, _ = run_cli(capsys, "verify", "--n", "2", "--no-cache",
                             "--suite", "prop1", "--format", "text")
    for key, val in counters.items():
        if not isinstance(val, dict):
            assert f"{key}: {val}" in out_text


def test_cli_search_spread(capsys):
    code, out, err = run_cli(capsys, "search-spread", "--n", "2", "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert len(doc["spread"]) == 17
    assert doc["nodes"] >= 1


def test_cli_search_spread_budget_exhausted(capsys):
    code, out, _ = run_cli(capsys, "search-spread", "--n", "2", "--no-cache",
                           "--budget", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False and doc["spread"] == []


def test_cli_usage_errors(capsys, tmp_path):
    assert run_cli(capsys, "verify")[0] == 2            # missing --n
    assert run_cli(capsys, "frobnicate", "--n", "2")[0] == 2
    assert run_cli(capsys, "verify", "--n", "0")[0] == 2
    assert run_cli(capsys, "verify", "--n", "9", "--no-cache")[0] == 2
    assert run_cli(capsys, "search-spread", "--n", "2", "--no-cache",
                   "--budget", "0")[0] == 2


def test_cli_threads_flag_is_inert(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--n", "2", "--no-cache",
                         "--suite", "lemma5", "--threads", "1")
    _, out8, _ = run_cli(capsys, "verify", "--n", "2", "--no-cache",
                         "--suite", "lemma5", "--threads", "8")
    r1, r8 = json.loads(out1)[0], json.loads(out8)[0]
    r1.pop("elapsed_ms"), r8.pop("elapsed_ms")
    assert r1 == r8


def test_cli_all_command(capsys):
    code, out, _ = run_cli(capsys, "all", "--n", "2", "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"geometry", "fibration", "reports"}
    assert all(r["pass"] for r in doc["reports"])


@pytest.mark.parametrize("failing_call, message", [
    (0, "Singer generator has projective order"),
    (1, "T generator has wrong projective order"),
    (2, "K generator has wrong projective order"),
])
def test_cli_singer_order_failure_exits_2(capsys, monkeypatch, failing_call,
                                          message):
    from ovoidlab import fibration
    real = fibration._perm_order_transitive_cycle
    calls = []

    def broken(perm, start):
        calls.append(start)
        return 0 if len(calls) - 1 == failing_call else real(perm, start)

    monkeypatch.setattr(fibration, "_perm_order_transitive_cycle", broken)
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--no-cache",
                             "--suite", "lemma5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_cli_all_builds_singer_context_once(capsys, monkeypatch):
    from ovoidlab import cli
    counts = {"singer_context": 0, "t_orbit_fibration": 0}
    for name in counts:
        real = getattr(cli, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cli, name, counted)
    code, _, _ = run_cli(capsys, "all", "--n", "2", "--no-cache")
    assert code == 0
    assert counts == {"singer_context": 1, "t_orbit_fibration": 1}
