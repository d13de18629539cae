"""Open books, cones mod p, excess, coherence angle, and the book retraction.

A book is stored through its 2-plane slice: the spine is an (m-1)-plane,
every page is a half-plane spanned by the spine and a unit direction inside
one fixed 2-plane orthogonal to the spine.  All page geometry therefore
reduces to planar angles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "OpenBook",
    "ConeModP",
    "VarifoldSample",
    "dist_to_book",
    "excess",
    "coherence_angle",
    "retract_to_book",
    "density_ratio",
    "ball_volume",
    "sample_cone",
]


def ball_volume(m: int) -> float:
    """Volume of the unit m-ball."""
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    if rows.size == 0:
        return rows
    q, _ = np.linalg.qr(rows.T)
    return q.T[: rows.shape[0]]


@dataclass
class OpenBook:
    """Union of half-planes (pages) sharing a spine, coplanar in one 2-plane.

    ``spine``: (m-1, D) orthonormal rows spanning the spine.
    ``slice_basis``: (2, D) orthonormal rows, orthogonal to the spine; pages
    live in this 2-plane.
    ``pages``: (N, 2) unit direction of each page in slice coordinates.
    """

    spine: np.ndarray
    slice_basis: np.ndarray
    pages: np.ndarray

    def __post_init__(self):
        self.spine = np.atleast_2d(np.asarray(self.spine, dtype=float))
        if self.spine.shape[1] == 0 or self.spine.size == 0:
            self.spine = np.zeros((0, np.asarray(self.slice_basis).shape[1]))
        self.slice_basis = np.asarray(self.slice_basis, dtype=float)
        self.pages = np.asarray(self.pages, dtype=float)
        norms = np.linalg.norm(self.pages, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("page directions must be unit vectors")
        for a in range(len(self.pages)):
            for b in range(a + 1, len(self.pages)):
                if np.linalg.norm(self.pages[a] - self.pages[b]) < 1e-12:
                    raise ValueError("page directions must be pairwise distinct")
        for row in self.spine:
            if np.max(np.abs(self.slice_basis @ row)) > 1e-9:
                raise ValueError("slice plane must be orthogonal to the spine")

    @property
    def m(self) -> int:
        return self.spine.shape[0] + 1

    @property
    def ambient_dim(self) -> int:
        return self.slice_basis.shape[1]

    @property
    def n_pages(self) -> int:
        return len(self.pages)

    def page_angles(self) -> np.ndarray:
        return np.arctan2(self.pages[:, 1], self.pages[:, 0])

    def min_opening_angle(self) -> float:
        """Smallest angle between distinct pages."""
        if self.n_pages < 2:
            return 2 * math.pi
        best = 2 * math.pi
        for a in range(self.n_pages):
            for b in range(a + 1, self.n_pages):
                c = float(np.clip(self.pages[a] @ self.pages[b], -1.0, 1.0))
                best = min(best, math.acos(c))
        return best

    def to_json(self, p: Optional[int] = None, kappa=None) -> dict:
        out = {
            "m": self.m,
            "n": self.ambient_dim - self.m,
            "spine": [list(map(float, r)) for r in self.spine],
            "slice": [list(map(float, r)) for r in self.slice_basis],
            "pages": [{"dir": [float(v[0]), float(v[1])],
                       "kappa": int(kappa[i]) if kappa is not None else 1}
                      for i, v in enumerate(self.pages)],
        }
        if p is not None:
            out["p"] = int(p)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "OpenBook":
        D = data["m"] + data["n"]
        spine = np.array(data["spine"], dtype=float).reshape(data["m"] - 1, D)
        if "slice" in data:
            sl = np.array(data["slice"], dtype=float)
        else:
            # complete the spine to a slice plane
            basis = np.vstack([spine, np.eye(D)]) if spine.size else np.eye(D)
            q = _orthonormalize(basis)[spine.shape[0]:spine.shape[0] + 2]
            sl = q
        pages = np.array([pg["dir"] for pg in data["pages"]], dtype=float)
        return cls(spine, sl, pages)


@dataclass
class ConeModP:
    """Open book with positive integer page multiplicities, mod p."""

    book: OpenBook
    kappa: np.ndarray
    p: int

    def __post_init__(self):
        self.kappa = np.asarray(self.kappa, dtype=int)
        if len(self.kappa) != self.book.n_pages:
            raise ValueError("one multiplicity per page required")
        if np.any(self.kappa < 1):
            raise ValueError("multiplicities must be >= 1")
        if np.any(2 * self.kappa >= self.p):
            raise ValueError("multiplicities must satisfy kappa < p/2")
        if int(self.kappa.sum()) > self.p:
            raise ValueError("total multiplicity exceeds p")


@dataclass
class VarifoldSample:
    """Weighted point cloud standing in for the mass measure of an m-current."""

    points: np.ndarray
    weights: np.ndarray
    m: int
    tangents: Optional[np.ndarray] = None  # (N, m, D) orthonormal frames
    delta: float = 0.0  # sampling density parameter, for tolerance bookkeeping

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights length mismatch")

    def to_json(self) -> dict:
        out = {"m": self.m,
               "points": self.points.tolist(),
               "weights": self.weights.tolist(),
               "delta": self.delta}
        if self.tangents is not None:
            out["tangents"] = np.asarray(self.tangents, dtype=float).tolist()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "VarifoldSample":
        tang = data.get("tangents")
        return cls(np.array(data["points"], float), np.array(data["weights"], float),
                   int(data["m"]),
                   np.array(tang, float) if tang is not None else None,
                   float(data.get("delta", 0.0)))


def _slice_split(q: np.ndarray, S: OpenBook):
    """Decompose q into spine part, slice 2-vector u, and residual norm."""
    q = np.asarray(q, dtype=float)
    u = S.slice_basis @ q
    q_spine = S.spine.T @ (S.spine @ q) if S.spine.size else np.zeros_like(q)
    resid = q - q_spine - S.slice_basis.T @ u
    return u, float(np.linalg.norm(resid))


def _dist2_to_ray(u: np.ndarray, v: np.ndarray) -> float:
    s = float(u @ v)
    if s >= 0.0:
        w = u - s * v
        return float(w @ w)
    return float(u @ u)


def dist_to_book(q, S: OpenBook) -> float:
    """Distance from q to the closed book (min over pages)."""
    u, r = _slice_split(q, S)
    d2 = min(_dist2_to_ray(u, v) for v in S.pages)
    return math.sqrt(d2 + r * r)


def excess(T: VarifoldSample, S: OpenBook, q, R: float) -> float:
    """Scale-normalized squared distance of the sample to the book in B_R(q)."""
    if R <= 0:
        raise ValueError("R must be positive")
    q = np.asarray(q, dtype=float)
    shifted = T.points - q
    inside = np.linalg.norm(shifted, axis=1) < R
    if not np.any(inside):
        return 0.0
    d2 = np.array([dist_to_book(pt, S) ** 2 for pt in shifted[inside]])
    return float(T.weights[inside] @ d2) / R ** (T.m + 2)


def _page_assignment_cost(pagesC, kappaC, pages0, kappa0, limit):
    """Greedy nearest-page grouping; returns max angle or None if invalid."""
    groups = [0] * len(pages0)
    worst = 0.0
    for j, v in enumerate(pagesC):
        cosines = np.clip(pages0 @ v, -1.0, 1.0)
        i = int(np.argmax(cosines))
        ang = math.acos(float(cosines[i]))
        if ang >= limit:
            return None
        groups[i] += int(kappaC[j])
        worst = max(worst, ang)
    if any(groups[i] != int(kappa0[i]) for i in range(len(pages0))):
        return None
    return worst


def coherence_angle(C: ConeModP, C0: ConeModP,
                    max_rotation: Optional[float] = None) -> float:
    """Min over spine-fixing plane rotations O of |O - Id| + max page angle.

    |O - Id| is the spectral norm 2|sin(omega/2)| of a rotation by omega in
    the slice plane.  Raises ValueError("not coherent") when no rotation
    keeps every page of C within a quarter of C0's opening angle of its
    group page.  Ties between rotations are broken toward the smaller
    rotation angle.
    """
    if C.p != C0.p:
        raise ValueError("moduli differ")
    limit = C0.book.min_opening_angle() / 4.0
    pages0, kappa0 = C0.book.pages, C0.kappa
    pagesC, kappaC = C.book.pages, C.kappa

    def cost(omega):
        rot = np.array([[math.cos(omega), -math.sin(omega)],
                        [math.sin(omega), math.cos(omega)]])
        worst = _page_assignment_cost(pagesC @ rot.T, kappaC, pages0, kappa0, limit)
        if worst is None:
            return None
        return 2.0 * abs(math.sin(omega / 2.0)) + worst

    if max_rotation is not None and max_rotation == 0.0:
        c = cost(0.0)
        if c is None:
            raise ValueError("not coherent")
        return c

    span = max_rotation if max_rotation is not None else math.pi / 2
    grid = np.linspace(-span, span, 4001)
    vals = [(cost(w), w) for w in grid]
    feas = [(c, abs(w), w) for c, w in vals if c is not None]
    if not feas:
        raise ValueError("not coherent")
    _, _, w0 = min(feas)
    step = grid[1] - grid[0]
    lo, hi = w0 - step, w0 + step

    # golden-section refine; infeasible points treated as +inf
    inv = (math.sqrt(5) - 1) / 2

    def safe(w):
        c = cost(w)
        return math.inf if c is None else c

    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = safe(x1), safe(x2)
    while b - a > 1e-9:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = safe(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = safe(x2)
    best = min(safe((a + b) / 2), safe(w0), f1, f2)
    if not math.isfinite(best):
        raise ValueError("not coherent")
    return best


def _smoothstep_cutoff(t: float, rho: float) -> float:
    # 1 on t < rho, 0 on t >= 2 rho, cubic in between
    if t < rho:
        return 1.0
    if t >= 2 * rho:
        return 0.0
    s = (t - rho) / rho
    return 1.0 - 3 * s * s + 2 * s ** 3


def retract_to_book(q, S: OpenBook, rho: float) -> np.ndarray:
    """1-homogeneous retraction onto the book (identity on the spine part).

    On the unit sphere of the spine-orthogonal complement the map sends x to
    phi(|x - F0(x)|) * F0(x) where F0 is the closest-page projection and phi
    a cubic cutoff supported in the 2*rho tube around the pages; the map is
    then extended 1-homogeneously.
    """
    if not 0 < rho < 0.125:
        raise ValueError("rho must lie in (0, 1/8)")
    q = np.asarray(q, dtype=float)
    q_spine = S.spine.T @ (S.spine @ q) if S.spine.size else np.zeros_like(q)
    x = q - q_spine
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return q_spine
    xu = x / r
    u = S.slice_basis @ xu
    best = None
    for v in S.pages:
        s = max(float(u @ v), 0.0)
        proj = s * (S.slice_basis.T @ v)
        d = float(np.linalg.norm(xu - proj))
        if best is None or d < best[0]:
            best = (d, proj)
    d, f0 = best
    out = _smoothstep_cutoff(d, rho) * f0
    return q_spine + r * out


def density_ratio(T: VarifoldSample, q, r: float) -> float:
    """Mass of the sample in B_r(q) divided by omega_m r^m."""
    if r <= 0:
        raise ValueError("r must be positive")
    q = np.asarray(q, dtype=float)
    inside = np.linalg.norm(T.points - q, axis=1) < r
    return float(T.weights[inside].sum()) / (ball_volume(T.m) * r ** T.m)


def sample_cone(C: ConeModP, radius: float, delta: float,
                spine_extent: float = 0.0) -> VarifoldSample:
    """Stratified quadrature sample of a cone's mass measure.

    Each page contributes cells of radial size delta centered at
    (j + 1/2) * delta with weight kappa * delta (times the spine cell volume
    when the spine is nontrivial), so the mass of any radial annulus aligned
    with cell boundaries is exact.
    """
    book = C.book
    D = book.ambient_dim
    nrad = max(1, int(round(radius / delta)))
    rad = (np.arange(nrad) + 0.5) * delta
    pts, wts, frames = [], [], []
    spine_dim = book.spine.shape[0]
    if spine_dim == 0 or spine_extent == 0.0:
        spine_cells = [(np.zeros(D), 1.0)]
    else:
        nsp = max(1, int(round(2 * spine_extent / delta)))
        axis = (np.arange(nsp) + 0.5) * delta - spine_extent
        grids = np.meshgrid(*([axis] * spine_dim), indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=1)
        spine_cells = [(book.spine.T @ c, delta ** spine_dim) for c in coords]
    for v, k in zip(book.pages, C.kappa):
        direction = book.slice_basis.T @ v
        for base, cell_vol in spine_cells:
            for r in rad:
                pts.append(base + r * direction)
                wts.append(float(k) * delta * cell_vol)
                frame = np.vstack([direction[None, :], book.spine]) \
                    if spine_dim else direction[None, :]
                frames.append(frame)
    m = spine_dim + 1
    return VarifoldSample(np.array(pts), np.array(wts), m,
                          tangents=np.array(frames), delta=delta)
