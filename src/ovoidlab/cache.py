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
every consumer succeeds cold.  n fixes every table, so a file is valid only
if it equals the serialization of build_geometry(n); a load checks the
header, then builds and compares, and costs a build plus the comparison.
A file is written under a temporary name and renamed into place, so
concurrent writers never leave a torn file.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from array import array
from pathlib import Path

from .gfield import MODULI, FieldCtx
from .projspace import (SUPPORTED_N, GeometryTables, build_geometry,
                        check_degree)

MAGIC = b"OVGE"
VERSION = 1


def cache_filename(n: int, modulus: int) -> str:
    return f"ovoidlab-geo-v{VERSION}-n{n}-{modulus:x}.bin"


def serialize_geometry(g: GeometryTables) -> bytes:
    out = [MAGIC,
           struct.pack("<IIQQ", VERSION, g.ctx.n, g.ctx.modulus,
                       g.ctx.generator),
           struct.pack("<III", len(g.points), len(g.lines), len(g.planes))]
    for p in g.points:
        out.append(struct.pack("<4I", *p.coords))
    flat = array("I", g.line_pts)          # 4-byte ints, little-endian
    if sys.byteorder == "big":
        flat.byteswap()
    out.append(flat.tobytes())
    for pl in g.planes:
        out.append(struct.pack("<4I", *pl.normal))
    return b"".join(out)


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


def load_geometry(path: Path) -> GeometryTables:
    """The build of the degree a cache file's header names, if the file
    is byte-identical to its serialization.  Raises ValueError otherwise,
    naming the header field or the first section that differs."""
    data = Path(path).read_bytes()
    head = 4 + struct.calcsize("<IIQQ")
    if data[:4] != MAGIC or len(data) < head + struct.calcsize("<III"):
        raise ValueError("not an ovoidlab geometry cache")
    version, n, modulus, generator = struct.unpack_from("<IIQQ", data, 4)
    if version != VERSION:
        raise ValueError(f"cache version {version}, expected {VERSION}")
    # checked first: no field is built for a degree outside the range
    if n not in SUPPORTED_N:
        raise ValueError(f"header degree n={n} is outside the supported "
                         f"range {SUPPORTED_N[0]}..{SUPPORTED_N[-1]}")
    # n fixes the field; any other modulus would derive another geometry
    ctx = FieldCtx(n)
    if (modulus, generator) != (ctx.modulus, ctx.generator):
        raise ValueError(f"header names modulus {modulus:#x} and generator "
                         f"{generator}, not GF({ctx.size})'s "
                         f"{ctx.modulus:#x} and {ctx.generator}")
    g = build_geometry(n)
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
    if off < lines:
        where = "the counts or point coordinates differ"
    elif off < planes:
        where = f"line {(off - lines) // (4 * (g.q + 1))} differs"
    else:
        where = "plane normals differ"
    return f"{where} from the build of PG(3,{g.q})"


def load_or_build(n: int, cache_dir: Path | None) -> GeometryTables:
    if cache_dir is None:
        return build_geometry(n)
    check_degree(n)  # before MODULI[n] names the file
    path = Path(cache_dir) / cache_filename(n, MODULI[n])
    if path.exists():
        try:
            g = load_geometry(path)
        except (ValueError, OSError) as exc:
            reason = exc
        else:
            if g.ctx.n == n:
                return g
            reason = f"header names n={g.ctx.n}, modulus {g.ctx.modulus:#x}"
        print(f"cache: rebuilding {path}: {reason}", file=sys.stderr)
    g = build_geometry(n)
    try:
        save_geometry(g, Path(cache_dir))
    except OSError as exc:  # the cache is best-effort
        print(f"cache: cannot save {path}: {exc}", file=sys.stderr)
    return g


def export_geometry_json(g: GeometryTables) -> str:
    """Human-readable mirror of the binary cache."""
    doc = {
        "format_version": VERSION,
        "n": g.ctx.n,
        "q": g.q,
        "modulus": g.ctx.modulus,
        "generator": g.ctx.generator,
        "points": [list(p.coords) for p in g.points],
        "lines": [list(row) for row in g.line_rows()],
        "planes": [list(pl.normal) for pl in g.planes],
    }
    return json.dumps(doc, indent=None, separators=(",", ":"))
