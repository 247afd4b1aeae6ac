import hashlib
import json
import struct

import pytest

from ovoidlab import cache as geocache
from ovoidlab import projspace
from ovoidlab.cli import main

from linecols import lines_by_point, plane_points


# --- cache -----------------------------------------------------------------

def test_cache_round_trip(geo2, tmp_path):
    path = geocache.save_geometry(geo2, tmp_path)
    assert path.exists() and path.name.startswith("ovoidlab-geo-v1-n2")
    fresh = projspace.build_geometry(2)
    assert geocache.load_geometry(path, fresh) is fresh


def test_cache_round_trip_q8(geo3, tmp_path):
    path = geocache.save_geometry(geo3, tmp_path)
    fresh = projspace.build_geometry(3)
    assert geocache.load_geometry(path, fresh) is fresh
    assert fresh.q == 8 and len(fresh.lines) == 4745


def test_cache_loaded_tables_usable(geo2, tmp_path):
    geocache.save_geometry(geo2, tmp_path)
    loaded = geocache.load_or_build(2, tmp_path)
    assert loaded.pair_to_line == geo2.pair_to_line
    assert loaded.point_index == geo2.point_index
    assert lines_by_point(loaded) == lines_by_point(geo2)
    for ln, ln2 in zip(loaded.lines, geo2.lines):
        assert ln.pts == ln2.pts and ln.mask == ln2.mask
    for pl, pl2 in zip(loaded.planes, geo2.planes):
        assert plane_points(pl) == plane_points(pl2)
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


def _line_section(d) -> list[tuple[int, ...]]:
    return list(struct.iter_unpack("<5I", d[_LINES:_PLANES]))


def _put_lines(d, lines):
    for li, pts in enumerate(lines):
        _put(d, _LINES + 20 * li, *pts)


def _labels_5_6_swapped(d):
    # a relabeled 2-design with the right counts, each line and the line
    # list still sorted: only PG(3,4)'s own lines tell it apart
    swap = {5: 6, 6: 5}
    _put_lines(d, sorted(tuple(sorted(swap.get(p, p) for p in pts))
                         for pts in _line_section(d)))


def _lines_10_200_swapped(d):
    lines = _line_section(d)
    lines[10], lines[200] = lines[200], lines[10]
    _put_lines(d, lines)


def _header_truncated(d):
    del d[12:]


def _header_degree_41(d):
    # x^41 + x^3 + 1 is irreducible: a header naming it is compared with
    # the build of PG(3,4), and no field of degree 41 is built
    struct.pack_into("<IQ", d, 8, 41, (1 << 41) | 0b1001)
    del d[_HEAD:]


# a file is accepted only if it is byte-identical to the build, and a
# rejection names the first header field, section or line that differs
@pytest.mark.parametrize("corrupt, message", [
    (_point_out_of_range, "^line 0 differs from the build of PG.3,4.$"),
    (_line_not_increasing, "^line 0 differs from the build of PG.3,4.$"),
    (_plane_normal_differs, "plane normals differ"),
    (_points_permuted, "point coordinates"),
    (_pair_on_two_lines, "^line 1 differs from the build of PG.3,4.$"),
    (_labels_5_6_swapped, "^line 21 differs from the build of PG.3,4.$"),
    (_lines_10_200_swapped, "^line 10 differs from the build of PG.3,4.$"),
    (_header_truncated, "^truncated or padded cache$"),
    (_header_degree_41, "^the header's degree differs from the build of PG"),
])
def test_cache_rejects_corruption(corrupt, message, geo2, tmp_path):
    data = bytearray(geocache.serialize_geometry(geo2))
    corrupt(data)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=message):
        geocache.load_geometry(bad, geo2)


def test_cache_rejects_garbage(geo2, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError, match="^the header's magic differs"):
        geocache.load_geometry(bad, geo2)


def test_load_or_build_uses_cache(tmp_path):
    g1 = geocache.load_or_build(2, tmp_path)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    g2 = geocache.load_or_build(2, tmp_path)
    assert geocache.serialize_geometry(g1) == geocache.serialize_geometry(g2)


def test_cache_hit_builds_once_and_leaves_the_file(geo3, tmp_path,
                                                   monkeypatch):
    path = geocache.save_geometry(geo3, tmp_path)
    data, before = path.read_bytes(), path.stat()
    real, builds = geocache.build_geometry, []

    def counted(n):
        builds.append(n)
        return real(n)

    monkeypatch.setattr(geocache, "build_geometry", counted)
    g = geocache.load_or_build(3, tmp_path)
    assert builds == [3]                   # the load's build, no rebuild
    assert geocache.serialize_geometry(g) == data
    after = path.stat()
    assert path.read_bytes() == data
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)
    assert list(tmp_path.iterdir()) == [path]


def _foreign_modulus_q8(geo3) -> bytes:
    """geo3's cache with the header naming x^3+x^2+1 (0xD), also
    primitive with generator x, instead of x^3+x+1."""
    data = bytearray(geocache.serialize_geometry(geo3))
    struct.pack_into("<Q", data, 12, 0xD)
    return bytes(data)


def _degree_4_header_q8(geo3) -> bytes:
    """geo3's cache with the header naming n = 4 and GF(16)'s modulus
    x^4+x+1 (0x13) and generator 2."""
    data = bytearray(geocache.serialize_geometry(geo3))
    struct.pack_into("<IQQ", data, 8, 4, 0x13, 2)
    return bytes(data)


def _flipped_line_q8(geo3) -> bytes:
    data = bytearray(geocache.serialize_geometry(geo3))
    data[_HEAD + 16 * len(geo3.points)] ^= 1    # first point of line 0
    return bytes(data)


def _garbage(geo3) -> bytes:
    return b"NOPE" + bytes(64)


# what the q = 8 cache directory holds, and whether its file is rebuilt
@pytest.mark.parametrize("content, rebuilt", [
    pytest.param(None, False, id="no_file"),
    pytest.param(geocache.serialize_geometry, False, id="good"),
    pytest.param(_flipped_line_q8, True, id="flipped_line"),
    pytest.param(_foreign_modulus_q8, True, id="foreign_modulus"),
    pytest.param(_degree_4_header_q8, True, id="degree_4_header"),
    pytest.param(_garbage, True, id="garbage"),
])
def test_load_or_build_builds_once(content, rebuilt, geo3, tmp_path,
                                   monkeypatch, capsys):
    # whatever the directory holds, PG(3,8) is built once and nothing else
    path = tmp_path / geocache.cache_filename(3, geo3.ctx.modulus)
    if content is not None:
        path.write_bytes(content(geo3))
    real, builds = geocache.build_geometry, []

    def counted(n):
        builds.append(n)
        return real(n)

    monkeypatch.setattr(geocache, "build_geometry", counted)
    g = geocache.load_or_build(3, tmp_path)
    assert builds == [3]
    good = geocache.serialize_geometry(geo3)
    assert geocache.serialize_geometry(g) == good
    assert path.read_bytes() == good
    err = capsys.readouterr().err
    if rebuilt:
        assert err.startswith(f"cache: rebuilding {path}: ")
        assert err.count("\n") == 1
    else:
        assert err == ""


def _flip(off):
    def corrupt(d):
        d[off] ^= 0xFF
    return corrupt


def _appended(d):
    d.append(0)


def _dropped(d):
    del d[_LINES + 4 * 5 * 100]            # first byte of line 100


_DIFFERS = " from the build of PG.3,4.$"

# one flipped byte in each section of the q = 4 file, one appended and one
# dropped byte, with the reason each is rejected for
_SWEEP = [pytest.param(corrupt, message, id=name)
          for name, corrupt, message in (
    ("magic", _flip(0), "^the header's magic differs" + _DIFFERS),
    ("version", _flip(4), "^the header's version differs" + _DIFFERS),
    ("n", _flip(8), "^the header's degree differs" + _DIFFERS),
    ("modulus", _flip(12), "^the header's modulus differs" + _DIFFERS),
    ("generator", _flip(20), "^the header's generator differs" + _DIFFERS),
    ("n_points", _flip(28), "^the counts or point coordinates differ"),
    ("n_lines", _flip(32), "^the counts or point coordinates differ"),
    ("n_planes", _flip(36), "^the counts or point coordinates differ"),
    ("first_point", _flip(_HEAD), "^the counts or point coordinates differ"),
    ("last_point", _flip(_LINES - 4),
     "^the counts or point coordinates differ"),
    ("first_line", _flip(_LINES), "^line 0 differs" + _DIFFERS),
    ("last_line", _flip(_PLANES - 4), "^line 356 differs" + _DIFFERS),
    ("first_plane", _flip(_PLANES), "^plane normals differ" + _DIFFERS),
    ("last_plane", _flip(_PLANES + 16 * 85 - 4),
     "^plane normals differ" + _DIFFERS),
    ("appended", _appended, "^truncated or padded cache$"),
    ("dropped", _dropped, "^line 100 differs" + _DIFFERS),
)]


@pytest.mark.parametrize("corrupt, message", _SWEEP)
def test_corruption_sweep_q4(corrupt, message, geo2, tmp_path, capsys):
    cold = geocache.serialize_geometry(geo2)
    data = bytearray(cold)
    corrupt(data)
    path = tmp_path / geocache.cache_filename(2, geo2.ctx.modulus)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=message):
        geocache.load_geometry(path, geo2)
    g = geocache.load_or_build(2, tmp_path)
    assert geocache.serialize_geometry(g) == cold
    assert path.read_bytes() == cold
    err = capsys.readouterr().err
    assert err.startswith(f"cache: rebuilding {path}: ")
    assert err.count("\n") == 1


def test_load_or_build_rebuilds_cache_of_another_degree(geo1, geo2, tmp_path):
    path = tmp_path / geocache.cache_filename(2, geo2.ctx.modulus)
    path.write_bytes(geocache.serialize_geometry(geo1))
    g = geocache.load_or_build(2, tmp_path)
    assert g.q == 4
    assert path.read_bytes() == geocache.serialize_geometry(geo2)


def test_failed_write_keeps_previous_cache(geo2, tmp_path, monkeypatch):
    path = tmp_path / geocache.cache_filename(2, geo2.ctx.modulus)
    path.write_bytes(b"previous cache")
    real_open = open

    class HalfWriter:
        """A file whose write stores half the data, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(geocache, "open",
                        lambda *a, **k: HalfWriter(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        geocache.save_geometry(geo2, tmp_path)
    assert path.read_bytes() == b"previous cache"
    assert list(tmp_path.iterdir()) == [path]


def test_load_or_build_reports_rebuild_and_failed_save(geo1, geo2, tmp_path,
                                                      capsys):
    path = tmp_path / geocache.cache_filename(2, geo2.ctx.modulus)
    path.write_bytes(geocache.serialize_geometry(geo1))
    geocache.load_or_build(2, tmp_path)
    assert capsys.readouterr().err == (
        f"cache: rebuilding {path}: the header's degree differs from the "
        f"build of PG(3,4)\n")
    geocache.load_or_build(2, tmp_path)           # a hit prints nothing
    assert capsys.readouterr().err == ""
    not_a_dir = tmp_path / "file"
    not_a_dir.write_bytes(b"")
    g = geocache.load_or_build(2, not_a_dir)
    err = capsys.readouterr().err
    assert g.q == 4 and err.count("\n") == 1
    assert err.startswith(f"cache: cannot save "
                          f"{not_a_dir / path.name}: ")


def test_foreign_modulus_rejected_before_any_table(geo3, tmp_path,
                                                  monkeypatch):
    # only GF(8) and PG(3,8) are built: no table of the header's field
    path = tmp_path / geocache.cache_filename(3, geo3.ctx.modulus)
    path.write_bytes(_foreign_modulus_q8(geo3))
    with pytest.raises(ValueError, match="^the header's modulus differs "
                                         "from the build of PG.3,8.$"):
        geocache.load_geometry(path, geo3)
    fields, builds = [], []
    real_field, real_build = projspace.FieldCtx, geocache.build_geometry

    def field_spy(*args):
        fields.append(args)
        return real_field(*args)

    def build_spy(n):
        builds.append(n)
        return real_build(n)

    monkeypatch.setattr(projspace, "FieldCtx", field_spy)
    monkeypatch.setattr(geocache, "build_geometry", build_spy)
    geocache.load_or_build(3, tmp_path)
    assert (fields, builds) == ([(3,)], [3])


def test_load_or_build_rebuilds_foreign_modulus(geo3, tmp_path, capsys):
    path = tmp_path / geocache.cache_filename(3, geo3.ctx.modulus)
    path.write_bytes(_foreign_modulus_q8(geo3))
    g = geocache.load_or_build(3, tmp_path)
    assert capsys.readouterr().err == (
        f"cache: rebuilding {path}: the header's modulus differs from the "
        f"build of PG(3,8)\n")
    assert (g.ctx.modulus, g.q) == (0xB, 8)
    assert path.read_bytes() == geocache.serialize_geometry(geo3)


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


@pytest.mark.parametrize("argv", [("geometry", "--n", "2"),
                                  ("fibration", "--n", "2", "--format",
                                   "text")])
def test_cli_touches_no_cache_unless_named(argv, capsys, tmp_path,
                                           monkeypatch):
    home, env = tmp_path / "home", tmp_path / "env"
    home.mkdir()
    env.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("OVOIDLAB_CACHE", str(env))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert list(home.iterdir()) == [] and list(env.iterdir()) == []
    assert out == run_cli(capsys, *argv, "--no-cache")[1]


def test_cli_no_cache_overrides_cache_dir(capsys, geo1, geo2, tmp_path):
    # a cache of another degree under the q = 4 name: read, it would be
    # rebuilt and rewritten with a stderr line
    path = tmp_path / geocache.cache_filename(2, geo2.ctx.modulus)
    path.write_bytes(geocache.serialize_geometry(geo1))
    code, out, err = run_cli(capsys, "geometry", "--n", "2",
                             "--cache-dir", str(tmp_path), "--no-cache")
    assert (code, err) == (0, "")
    assert json.loads(out)["points"] == 85
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == geocache.serialize_geometry(geo1)
    empty = tmp_path / "empty"
    run_cli(capsys, "verify", "--n", "2", "--suite", "prop1",
            "--cache-dir", str(empty), "--no-cache")
    assert not empty.exists()


def test_cli_rebuilds_corrupt_cache(capsys, geo2, tmp_path):
    data = bytearray(geocache.serialize_geometry(geo2))
    _put(data, _LINES, 999)                # first point of line 0
    path = tmp_path / geocache.cache_filename(2, geo2.ctx.modulus)
    path.write_bytes(bytes(data))
    code, out, err = run_cli(capsys, "geometry", "--n", "2",
                             "--cache-dir", str(tmp_path))
    assert code == 0 and "Traceback" not in err
    assert err.startswith(f"cache: rebuilding {path}: ")
    assert err.count(str(path)) == 1
    assert "line 0 differs from the build of PG(3,4)" in err
    assert err.count("\n") == 1
    assert out == run_cli(capsys, "geometry", "--n", "2", "--no-cache")[1]
    assert path.read_bytes() == geocache.serialize_geometry(geo2)


def test_cli_cache_dir_that_cannot_be_stated(capsys, tmp_path):
    # a 300-character name: stat and mkdir both fail with ENAMETOOLONG
    # (whether stat raises or reports a miss depends on the Python version)
    unusable = str(tmp_path / ("d" * 300))
    code, out, err = run_cli(capsys, "geometry", "--n", "1",
                             "--cache-dir", unusable)
    assert (code, out) == run_cli(capsys, "geometry", "--n", "1",
                                  "--no-cache")[:2]
    assert err
    assert all(line.startswith("cache: ") for line in err.splitlines())


def _without_elapsed(out: str) -> list:
    reports = json.loads(out)
    for rep in reports:
        rep.pop("elapsed_ms")
    return reports


@pytest.mark.parametrize("corrupt", [_labels_5_6_swapped,
                                     _lines_10_200_swapped])
def test_cli_verify_rebuilds_relabeled_cache(corrupt, capsys, geo2, tmp_path):
    # both files pass every count check; read as PG(3,4), the label swap
    # made `verify` exit 2 and the line swap renumbered lines 10 and 200
    data = bytearray(geocache.serialize_geometry(geo2))
    corrupt(data)
    path = tmp_path / geocache.cache_filename(2, geo2.ctx.modulus)
    path.write_bytes(bytes(data))
    argv = ("verify", "--n", "2", "--suite", "all")
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    assert err.startswith(f"cache: rebuilding {path}: line ")
    assert err.count("\n") == 1
    cold = run_cli(capsys, *argv, "--no-cache")[1]
    assert _without_elapsed(out) == _without_elapsed(cold)
    assert path.read_bytes() == geocache.serialize_geometry(geo2)


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
    # out-of-range degrees fail before any field, table or cache file
    for argv in (("--n", "5", "--no-cache"),
                 ("--n", "9", "--cache-dir", str(tmp_path))):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: n=") and err.count("\n") == 1
        assert "outside the supported range 1..4" in err
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
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
])
def test_cli_singer_order_failure_exits_2(capsys, monkeypatch, failing_call,
                                          message):
    # the failing call reports a first cycle of length 1
    from ovoidlab import fibration
    real = fibration.perm_cycles
    calls = []

    def broken(perm):
        calls.append(perm)
        return [[0]] if len(calls) - 1 == failing_call else real(perm)

    monkeypatch.setattr(fibration, "perm_cycles", broken)
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--no-cache",
                             "--suite", "lemma5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_cli_all_builds_singer_context_once(capsys, monkeypatch):
    # the CLI imports both from the fibration module when a command runs;
    # the suites, loaded first, keep their own bindings of the real ones
    from ovoidlab import fibration, verify
    counts = {"singer_context": 0, "t_orbit_fibration": 0}
    for name in counts:
        real = getattr(fibration, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(fibration, name, counted)
    code, _, _ = run_cli(capsys, "all", "--n", "2", "--no-cache")
    assert code == 0
    assert counts == {"singer_context": 1, "t_orbit_fibration": 1}
    assert verify.t_orbit_fibration is not fibration.t_orbit_fibration


def test_cli_verify_sweeps_the_lines_against_two_ovoids(capsys):
    # a passing run checks one line per T-orbit: the lines are swept
    # against member 0, for the fibration check and its polarity, and
    # against the elliptic quadric of the Segre suite, and the orbits of
    # the Singer group are found once
    from ovoidlab import fibration, ovoids
    for n in (2, 3):
        for cached in (fibration.t_orbit_fibration, fibration.fibration_orbits,
                       ovoids.line_meets):
            cached.cache_clear()
        code, _, _ = run_cli(capsys, "verify", "--n", str(n), "--suite",
                             "all", "--no-cache")
        assert code == 0
        assert fibration.t_orbit_fibration.cache_info().misses == 1
        assert fibration.fibration_orbits.cache_info().misses == 1
        info = ovoids.line_meets.cache_info()
        assert info.misses == info.currsize == 2


def test_cli_verify_solves_and_maps_each_form_once(capsys, monkeypatch):
    # member 0's form, which the main theorem checks on one line per
    # T-orbit and the codes suite reads again, and the elliptic quadric's
    # for Segre: 2 of each, where the full main sweep solved and mapped
    # all q+1 member forms, q+2 = 6 at q = 4
    from ovoidlab import symplectic
    solves = []
    real = symplectic.tangent_nullspace

    def counted(g, tangents):
        solves.append(1)
        return real(g, tangents)

    monkeypatch.setattr(symplectic, "tangent_nullspace", counted)
    symplectic.member_polarity.cache_clear()
    symplectic.polar_lines.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "--n", "2", "--suite", "all",
                         "--no-cache")
    assert code == 0
    assert len(solves) == 2
    assert symplectic.polar_lines.cache_info().misses == 2
