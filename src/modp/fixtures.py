"""Shipped fixtures and small mesh generators used by the tests and the CLI.

The disk meshes are hexagonal-lattice triangulations: with basis vectors at
90 and 150 degrees every edge has length h and the three 3-terminal spokes
at 90, 210, 330 degrees are exact lattice rays, so the Steiner optimum is
representable on the mesh with zero quantization error.
"""

from __future__ import annotations

import json
import math
import os
from typing import TYPE_CHECKING

import numpy as np

from .complexes import IntegerChain, SimplicialComplex, boundary

# the other modules load with the fixtures that use them
if TYPE_CHECKING:
    from .books import VarifoldSample
    from .cones import RayConfiguration

__all__ = [
    "y120",
    "p5_balanced",
    "triangle_complex",
    "strip_complex",
    "disk_mesh",
    "half_plane_mesh",
    "grid_square_complex",
    "rasterize_polyline",
    "plane_sample",
    "tilted_plane_sample",
    "FIXTURE_NAMES",
    "make_fixture",
]


def y120() -> RayConfiguration:
    from .cones import RayConfiguration

    angles = [90.0, 210.0, 330.0]
    dirs = [[math.cos(math.radians(a)), math.sin(math.radians(a))] for a in angles]
    return RayConfiguration(np.array(dirs), np.array([1, 1, 1]), 3)


def p5_balanced() -> RayConfiguration:
    from .cones import RayConfiguration

    dirs = np.array([[1.0, 0.0], [-1.0, 0.0],
                     [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    return RayConfiguration(dirs, np.array([2, 1, 1, 1]), 5)


def triangle_complex():
    """Unit right triangle; returns (complex, boundary 1-chain of the face)."""
    cx = SimplicialComplex(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        {1: [(0, 1), (1, 2), (2, 0)], 2: [(0, 1, 2)]})
    tri = cx.chain(2, {0: 1})
    return cx, boundary(tri)


def strip_complex(n_triangles: int) -> SimplicialComplex:
    """Strip of n triangles: vertices (j/2, j mod 2), triangles (j, j+1, j+2)."""
    nv = n_triangles + 2
    verts = [[j / 2.0, float(j % 2)] for j in range(nv)]
    tris = np.arange(n_triangles)[:, None] + np.arange(3)
    edges = np.unique(tris[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=0)
    return SimplicialComplex(verts, {1: edges, 2: tris})


# hexagonal lattice: point(i, j) = i*e1 + j*e2, |point|^2 = h^2 (i^2+j^2+ij)
_E1 = np.array([0.0, 1.0])
_E2 = np.array([-math.sqrt(3) / 2, 0.5])


def _hex_mesh(h: float, keep):
    """Triangulated subset of the hexagonal lattice.

    ``keep(I, J, points)`` maps arrays of lattice indices and their points
    to a boolean mask.  Vertices are numbered in C order of (i, j); each
    lattice point (i, j) opens at most two triangles, (i, j), (i+1, j),
    (i, j+1) and (i+1, j), (i+1, j+1), (i, j+1), listed in that order, each
    where its three vertices are kept.  Every edge that a kept vertex opens
    to (i+1, j), (i, j+1) or (i+1, j-1) is kept.
    """
    span = int(math.ceil(4.0 / h)) + 2
    I, J = np.meshgrid(np.arange(-span, span + 1), np.arange(-span, span + 1),
                       indexing="ij")
    pts = h * (I[..., None] * _E1 + J[..., None] * _E2)
    # a last row and column of -1 padding: np.roll wraps the neighbours
    # (i+1, .), (., j+1) and (., j-1) that leave the lattice onto it
    mask = np.zeros((I.shape[0] + 1, I.shape[1] + 1), dtype=bool)
    mask[:-1, :-1] = keep(I, J, pts)
    ids = np.full(mask.shape, -1, dtype=np.int64)
    ids[mask] = np.arange(mask.sum())
    kept = mask[:-1, :-1]
    # the lattice points that can open a triangle: (i, j) or (i+1, j) is kept
    near = kept | np.roll(mask, -1, axis=0)[:-1, :-1]

    def shifted(di, dj):
        return np.roll(ids, (-di, -dj), axis=(0, 1))[:-1, :-1][near]

    v, a, b, c, d = (shifted(di, dj) for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1)))
    tris = np.stack([np.c_[v, a, b], np.c_[a, c, b]], axis=1)
    tris = tris[(tris >= 0).all(axis=2)]
    pairs = np.concatenate([np.c_[v, a], np.c_[v, b], np.c_[v, d]])
    edges = np.unique(np.sort(pairs[(pairs >= 0).all(axis=1)], axis=1), axis=0)
    cx = SimplicialComplex(pts[kept], {1: edges, 2: tris})
    return cx, dict(zip(zip(I[kept].tolist(), J[kept].tolist()), range(int(kept.sum()))))


def disk_mesh(h: float):
    """Triangulated unit disk at mesh size ~h (snapped so the boundary radius
    is exactly n*h); returns (complex, info) with the three equilateral
    terminal vertex indices at 90, 210, 330 degrees."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"mesh size h must be finite and > 0, got {h}")
    n = max(1, int(round(1.0 / h)))
    h = 1.0 / n
    n2 = n * n

    cx, index = _hex_mesh(h, lambda I, J, pts: I * I + J * J + I * J <= n2)
    terminals = [index[(n, 0)], index[(-n, n)], index[(0, -n)]]
    return cx, {"h": h, "n": n, "terminals": terminals,
                "terminal_points": [cx.vertices[t] for t in terminals]}


def half_plane_mesh(h: float, metric, x_range=(0.05, 1.3), y_range=(-1.0, 1.0)):
    """Hex mesh of a box in the half-plane with edge volumes replaced by the
    weighted lengths w(midpoint) * h, for mesh Plateau runs in a conformal
    metric."""

    def keep(I, J, pts):
        x, y = pts[..., 0], pts[..., 1]
        return (x_range[0] - 1e-9 <= x) & (x <= x_range[1] + 1e-9) & \
            (y_range[0] - 1e-9 <= y) & (y <= y_range[1] + 1e-9)

    if not 0.0 < h < math.inf:
        raise ValueError(f"mesh size h must be finite and > 0, got {h}")
    cx, index = _hex_mesh(h, keep)
    a, b = cx.simplices[1].T
    mids = (cx.vertices[a] + cx.vertices[b]) / 2
    cx.volumes[1] = metric.w(mids) * cx.volumes[1]
    return cx, index


def snap_to_vertex(cx: SimplicialComplex, point) -> int:
    return int(np.argmin(np.linalg.norm(cx.vertices - np.asarray(point), axis=1)))


def grid_square_complex(n: int):
    """Right-triangulated [-1,1]^2 with n cells per side; diagonal edges run
    from (i,j) to (i+1,j+1).  Returns (complex, spacing).

    Vertex (i, j) has index i*(n+1) + j.  Each vertex opens, in this order,
    the edges to (i+1, j), (i, j+1) and (i+1, j+1) and the triangles
    (i, j), (i+1, j), (i+1, j+1) and (i, j), (i+1, j+1), (i, j+1), where
    those exist.
    """
    spacing = 2.0 / n
    I, J = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    I, J = I.ravel(), J.ravel()
    verts = np.c_[-1.0 + I * spacing, -1.0 + J * spacing]
    v = I * (n + 1) + J
    right, up, diag = v + n + 1, v + 1, v + n + 2
    inner = (I < n) & (J < n)
    edges = np.stack([np.c_[v, right], np.c_[v, up], np.c_[v, diag]], axis=1)
    edges = edges[np.c_[I < n, J < n, inner]]
    tris = np.stack([np.c_[v, right, diag], np.c_[v, diag, up]], axis=1)[inner].reshape(-1, 3)
    return SimplicialComplex(verts, {1: edges, 2: tris}), spacing


# width, in lattice units, of the band below a half-lattice tie that rounds up
_TIE_BAND = 1e-9


def rasterize_polyline(cx: SimplicialComplex, spacing: float, polyline) -> IntegerChain:
    """Snap a polyline onto the 1-skeleton of a grid_square_complex.

    Points resampled at spacing / 3 are clamped to the square and snapped to
    nearest lattice vertices, at most one lattice step apart per axis.  A
    step along (1, 1) or (-1, -1) is a diagonal edge, one along (1, -1) or
    (-1, 1) turns at the vertex one step along the first axis, and an axis
    step is one edge.  Half-lattice ties round up, and so does a coordinate
    up to ``_TIE_BAND`` lattice units below one, so round-off at a tie
    cannot move an edge.  Returns the 1-chain of the walk (edges oriented
    along it).
    """
    from .taylor import _resample

    poly = np.asarray(polyline, dtype=float)
    n = int(round(2.0 / spacing))
    dense = np.clip(_resample(poly, spacing / 3), -1.0, 1.0)
    lattice = np.floor((dense + 1.0) / spacing + 0.5 + _TIE_BAND).astype(int)
    lattice = np.clip(lattice, 0, n)

    step = np.diff(lattice, axis=0)
    turn = step[:, 0] * step[:, 1] < 0
    walk = np.empty((2 * len(lattice) - 1, 2), dtype=lattice.dtype)
    walk[0::2] = lattice
    walk[1::2] = lattice[1:]
    walk[1::2][turn, 1] = lattice[:-1][turn, 1]  # the corner of a turn
    walk = walk[np.r_[True, (np.diff(walk, axis=0) != 0).any(axis=1)]]  # repeats dropped
    ids = walk @ [n + 1, 1]
    return cx.chain_from_simplices(1, np.c_[ids[:-1], ids[1:]])


def plane_sample(delta: float, extent: float = 1.5) -> VarifoldSample:
    """Plane z = 0 through the origin in R^3, cell quadrature at density delta."""
    from .books import VarifoldSample

    axis = np.arange(-extent, extent, delta) + delta / 2
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    wts = np.full(len(pts), delta * delta)
    tang = np.broadcast_to(np.array([[1.0, 0, 0], [0, 1.0, 0]]),
                           (len(pts), 2, 3)).copy()
    return VarifoldSample(pts, wts, 2, tangents=tang, delta=delta)


def tilted_plane_sample(phi: float, delta: float = 0.01,
                        extent: float = 1.5) -> VarifoldSample:
    """Plane {z = (x - 1) tan(phi)} through (1,0,0); every point has
    |q_perp| = sin(phi) relative to the origin."""
    from .books import VarifoldSample

    axis = np.arange(-extent, extent, delta) + delta / 2
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    x, y = gx.ravel(), gy.ravel()
    z = (x - 1.0) * math.tan(phi)
    pts = np.stack([x, y, z], axis=1)
    wts = np.full(len(pts), delta * delta / math.cos(phi))
    t1 = np.array([math.cos(phi), 0.0, math.sin(phi)])
    t2 = np.array([0.0, 1.0, 0.0])
    tang = np.broadcast_to(np.stack([t1, t2]), (len(pts), 2, 3)).copy()
    return VarifoldSample(pts, wts, 2, tangents=tang, delta=delta)


FIXTURE_NAMES = ("y120", "p5-balanced", "triangle-complex", "disk-mesh",
                 "taylor-p3", "tilted-plane")


def make_fixture(name: str, outdir: str, h: float = 0.2) -> list:
    """Write the named fixture's JSON files; returns the paths written."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    def dump(fname, obj):
        path = os.path.join(outdir, fname)
        with open(path, "w") as fh:
            # json.dumps takes the C encoder; json.dump and any indent do not
            fh.write(json.dumps(obj))
        written.append(path)

    if name == "y120":
        dump("y120.json", y120().to_json())
    elif name == "p5-balanced":
        dump("p5-balanced.json", p5_balanced().to_json())
    elif name == "triangle-complex":
        cx, t = triangle_complex()
        dump("triangle-complex.json", cx.to_json())
        dump("triangle-boundary.json", t.to_json())
    elif name == "disk-mesh":
        cx, info = disk_mesh(h)
        dump("disk-mesh.json", cx.to_json())
        b = IntegerChain(cx, 0, {t: 1 for t in info["terminals"]})
        dump("disk-boundary.json", b.to_json())
    elif name == "taylor-p3":
        dump("taylor-p3.json", {"p": 3, "angles": [-40.0, 0.0, 40.0],
                                "radius": 1.0, "weight": "x"})
    elif name == "tilted-plane":
        dump("tilted-plane.json", tilted_plane_sample(0.1, delta=0.02).to_json())
    else:
        raise ValueError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return written
