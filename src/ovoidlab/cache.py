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
every consumer succeeds cold.  n fixes the modulus, so a loaded geometry
is bit-identical to a fresh build for the same (version, n).  A file is
written under a temporary name and renamed into place, so concurrent
writers never leave a torn file.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from array import array
from pathlib import Path

from .gfield import MODULI, FieldCtx
from .projspace import (POINT_TYPECODE, SUPPORTED_N, GeometryTables,
                        build_geometry, check_degree, meet_mask,
                        plane_masks, point_coords)

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
    """Reconstruct tables from a cache file, validating the stored arrays
    before the incidence maps are derived from them.

    Raises ValueError on a file that is not a well-formed v1 cache of
    PG(3,q): the lines must be the lines of PG(3,q) in index order."""
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
    q = ctx.size
    n_points, n_lines, n_planes = struct.unpack_from("<III", data, head)
    off = head + struct.calcsize("<III")

    expect = (n_points + n_planes) * 4 + n_lines * (q + 1)
    if len(data) != off + 4 * expect:
        raise ValueError("truncated or padded cache")
    coords = point_coords(q)
    canon = b"".join(struct.pack("<4I", *c) for c in coords)
    if data[off:off + 16 * n_points] != canon:
        raise ValueError("point coordinates are not the points "
                         f"of PG(3,{q}) in lex order")
    # plane i has normal coords[i]; the tables derive the planes from it
    if data[len(data) - 16 * n_planes:] != canon:
        raise ValueError("plane normals differ from point coords")
    if n_lines * q * (q + 1) != n_points * (n_points - 1):
        raise ValueError(f"{n_lines} lines cannot join each pair "
                         "of points exactly once")
    off += 16 * n_points
    flat = array("I", data[off:off + 4 * (q + 1) * n_lines])
    if sys.byteorder == "big":
        flat.byteswap()
    pmasks = plane_masks(ctx, coords)
    pmask = pmasks.__getitem__
    line_masks = []
    # first line out of lex order, reported after the line count check
    unordered, prev = None, flat[:0]
    for li in range(n_lines):
        pts = flat[li * (q + 1):(li + 1) * (q + 1)]
        if pts[-1] >= n_points or any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError(f"points of line {li} are out of range "
                             "or not strictly increasing")
        # the line of PG(3,q) through the first two points, as a mask
        mask = meet_mask(pmask, pts[0], pts[1])
        if sum(1 << p for p in pts) != mask:   # strictly increasing pts
            raise ValueError(f"line {li} is not the line of PG(3,{q}) "
                             f"through points {tuple(pts[:2])}")
        if unordered is None and pts <= prev:
            unordered = li
        prev = pts
        line_masks.append(mask)
    line_pts = array(POINT_TYPECODE, flat)

    g = GeometryTables.from_arrays(ctx, coords, line_pts, line_masks, pmasks)
    if len(g.line_of) != n_lines:
        raise ValueError("some pair of points lies on two lines")
    # strictly increasing lines are distinct; with the line count checked
    # above, distinct lines of PG(3,q) are all of them, in build order
    if unordered is not None:
        raise ValueError(f"line {unordered} is out of lexicographic order")
    return g


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
