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

Caches are optional acceleration: every consumer succeeds cold, and a
loaded geometry is bit-identical to a fresh build for the same (version,
n, modulus).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from .gfield import FieldCtx
from .projspace import GeometryTables, build_geometry, point_coords

MAGIC = b"OVGE"
VERSION = 1


def cache_filename(n: int, modulus: int) -> str:
    return f"ovoidlab-geo-v{VERSION}-n{n}-{modulus:x}.bin"


def serialize_geometry(g: GeometryTables) -> bytes:
    q = g.q
    out = [MAGIC,
           struct.pack("<IIQQ", VERSION, g.ctx.n, g.ctx.modulus,
                       g.ctx.generator),
           struct.pack("<III", len(g.points), len(g.lines), len(g.planes))]
    for p in g.points:
        out.append(struct.pack("<4I", *p.coords))
    for ln in g.lines:
        out.append(struct.pack(f"<{q + 1}I", *ln.pts))
    for pl in g.planes:
        out.append(struct.pack("<4I", *pl.normal))
    return b"".join(out)


def save_geometry(g: GeometryTables, cache_dir: Path) -> Path:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / cache_filename(g.ctx.n, g.ctx.modulus)
    path.write_bytes(serialize_geometry(g))
    return path


def load_geometry(path: Path) -> GeometryTables:
    """Reconstruct tables from a cache file, validating the stored arrays
    before the incidence maps are derived from them.

    Raises ValueError on a file that is not a well-formed v1 cache of a
    PG(3,q) point-line incidence."""
    data = Path(path).read_bytes()
    head = 4 + struct.calcsize("<IIQQ")
    if data[:4] != MAGIC or len(data) < head + struct.calcsize("<III"):
        raise ValueError(f"{path}: not an ovoidlab geometry cache")
    version, n, modulus, generator = struct.unpack_from("<IIQQ", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: cache version {version}, expected {VERSION}")
    ctx = FieldCtx(n, modulus)
    if ctx.generator != generator:
        raise ValueError(f"{path}: generator mismatch")
    q = ctx.size
    n_points, n_lines, n_planes = struct.unpack_from("<III", data, head)
    off = head + struct.calcsize("<III")

    expect = (n_points + n_planes) * 4 + n_lines * (q + 1)
    if len(data) != off + 4 * expect:
        raise ValueError(f"{path}: truncated or padded cache")
    coords = point_coords(q)
    canon = b"".join(struct.pack("<4I", *c) for c in coords)
    if data[off:off + 16 * n_points] != canon:
        raise ValueError(f"{path}: point coordinates are not the points "
                         f"of PG(3,{q}) in lex order")
    # plane i has normal coords[i]; the tables derive the planes from it
    if data[len(data) - 16 * n_planes:] != canon:
        raise ValueError(f"{path}: plane normals differ from point coords")
    if n_lines * q * (q + 1) != n_points * (n_points - 1):
        raise ValueError(f"{path}: {n_lines} lines cannot join each pair "
                         "of points exactly once")
    off += 16 * n_points
    line_pts = list(struct.iter_unpack(
        f"<{q + 1}I", memoryview(data)[off:off + 4 * (q + 1) * n_lines]))
    for li, pts in enumerate(line_pts):
        if pts[-1] >= n_points or any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError(f"{path}: points of line {li} are out of range "
                             "or not strictly increasing")

    g = GeometryTables.from_arrays(ctx, coords, line_pts)
    if len(g.pair_to_line) != n_points * (n_points - 1) // 2:
        raise ValueError(f"{path}: some pair of points lies on two lines")
    return g


def load_or_build(n: int, cache_dir: Path | None, *,
                  force: bool = False) -> GeometryTables:
    if cache_dir is None:
        return build_geometry(n, force=force)
    modulus = FieldCtx(n).modulus
    path = Path(cache_dir) / cache_filename(n, modulus)
    if path.exists():
        try:
            g = load_geometry(path)
        except (ValueError, OSError):
            pass  # fall through to a clean rebuild
        else:
            if (g.ctx.n, g.ctx.modulus) == (n, modulus):
                return g
    g = build_geometry(n, force=force)
    try:
        save_geometry(g, Path(cache_dir))
    except OSError:
        pass  # cache is best-effort
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
        "lines": [list(ln.pts) for ln in g.lines],
        "planes": [list(pl.normal) for pl in g.planes],
    }
    return json.dumps(doc, indent=None, separators=(",", ":"))
