"""Geometry cache: versioned binary file plus a mirroring JSON export.

Layout (all integers little-endian, fixed width):
  magic        4 bytes  b"OVGE"
  version      u32
  n            u32
  modulus      u64
  generator    u64
  n_points     u32, n_lines u32, n_planes u32
  point coords n_points * 4 * u32
  line pts     n_lines * (q+1) * u32
  plane normal n_planes * 4 * u32

A cache is read or written only in a directory that the caller names, and
every consumer succeeds cold.  n fixes every table, so the one valid file
for n is the serialization of build_geometry(n): load_or_build builds
PG(3,2^n) once, before it reads the file, and a load only compares the
file's bytes with that build.  A file is written under a temporary name
and renamed into place, so concurrent writers never leave a torn file.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from array import array
from pathlib import Path

from .projspace import GeometryTables, build_geometry

MAGIC = b"OVGE"
VERSION = 1

# the header fields before the counts, each with its end offset
_HEADER = ((4, "magic"), (8, "version"), (12, "degree"), (20, "modulus"),
           (28, "generator"))


def cache_filename(n: int, modulus: int) -> str:
    return f"ovoidlab-geo-v{VERSION}-n{n}-{modulus:x}.bin"


def serialize_geometry(g: GeometryTables) -> bytes:
    # plane i's normal is point i's coordinates, so one block serves both
    coords = b"".join(struct.pack("<4I", *p.coords) for p in g.points)
    flat = array("I", g.line_pts)          # 4-byte ints, little-endian
    if sys.byteorder == "big":
        flat.byteswap()
    return b"".join([
        MAGIC,
        struct.pack("<IIQQ", VERSION, g.ctx.n, g.ctx.modulus,
                    g.ctx.generator),
        struct.pack("<III", len(g.points), len(g.lines), len(g.planes)),
        coords, flat.tobytes(), coords])


def save_geometry(g: GeometryTables, cache_dir: Path) -> Path:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / cache_filename(g.ctx.n, g.ctx.modulus)
    # a reader sees the old file or the whole new one, never a partial write
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(serialize_geometry(g))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_geometry(path: Path, g: GeometryTables) -> GeometryTables:
    """g, if the cache file at path is byte-identical to its
    serialization.  Raises ValueError otherwise, naming the header field,
    the section or the line where the file first differs."""
    data = Path(path).read_bytes()
    want = serialize_geometry(g)
    if data != want:
        raise ValueError(_first_difference(data, want, g))
    return g


def _first_difference(data: bytes, want: bytes, g: GeometryTables) -> str:
    """Where data first differs from want, the serialization of g."""
    off = next((i for i, (a, b) in enumerate(zip(data, want)) if a != b),
               None)
    if off is None:
        return "truncated or padded cache"
    planes = len(want) - 16 * len(g.planes)
    lines = planes - 4 * len(g.line_pts)
    field = next((name for end, name in _HEADER if off < end), None)
    if field is not None:
        where = f"the header's {field} differs"
    elif off < lines:
        where = "the counts or point coordinates differ"
    elif off < planes:
        where = f"line {(off - lines) // (4 * (g.q + 1))} differs"
    else:
        where = "plane normals differ"
    return f"{where} from the build of PG(3,{g.q})"


def load_or_build(n: int, cache_dir: Path | None) -> GeometryTables:
    """The build of PG(3,2^n).  With a cache_dir, the cache file there is
    left as it is if it equals the build, and rewritten otherwise."""
    g = build_geometry(n)
    if cache_dir is None:
        return g
    path = Path(cache_dir) / cache_filename(n, g.ctx.modulus)
    try:  # a path that cannot be stat'ed is a cache that cannot be read
        if path.exists():
            return load_geometry(path, g)
    except (ValueError, OSError) as exc:
        print(f"cache: rebuilding {path}: {exc}", file=sys.stderr)
    try:
        save_geometry(g, Path(cache_dir))
    except OSError as exc:  # the cache is best-effort
        print(f"cache: cannot save {path}: {exc}", file=sys.stderr)
    return g


def export_geometry_json(g: GeometryTables) -> str:
    """Human-readable mirror of the binary cache."""
    points = [list(p.coords) for p in g.points]
    doc = {
        "format_version": VERSION,
        "n": g.ctx.n,
        "q": g.q,
        "modulus": g.ctx.modulus,
        "generator": g.ctx.generator,
        "points": points,
        "lines": [list(row) for row in g.line_rows()],
        "planes": points,                  # plane i's normal is point i
    }
    return json.dumps(doc, indent=None, separators=(",", ":"))
