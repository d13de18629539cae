"""Open books, cones mod p, excess, coherence angle, and the book retraction.

A book is stored through its 2-plane slice: the spine is an (m-1)-plane,
every page is a half-plane spanned by the spine and a unit direction inside
one fixed 2-plane orthogonal to the spine.  All page geometry therefore
reduces to planar angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def check_directions(dirs: np.ndarray, what: str) -> None:
    """Raise ValueError unless the rows of ``dirs`` are pairwise distinct unit vectors."""
    if np.any(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) > 1e-9):
        raise ValueError(f"{what} directions must be unit vectors")
    a, b = np.triu_indices(len(dirs), 1)
    if np.any(np.linalg.norm(dirs[a] - dirs[b], axis=1) < 1e-12):
        raise ValueError(f"{what} directions must be pairwise distinct")


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
        check_directions(self.pages, "page")
        if self.slice_basis.ndim != 2 or self.slice_basis.shape[0] != 2:
            raise ValueError("slice basis must have two rows")
        frame = np.vstack([self.spine, self.slice_basis])
        if np.max(np.abs(frame @ frame.T - np.eye(len(frame)))) > 1e-9:
            raise ValueError("spine and slice basis rows must be orthonormal "
                             "(Gram matrix within 1e-9 of the identity)")

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
        """Smallest circular gap between the sorted page angles (2 pi for one page)."""
        if self.n_pages < 2:
            return 2 * math.pi
        theta = np.sort(self.page_angles())
        return float(np.diff(theta, append=theta[0] + 2 * math.pi).min())

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
        """The book of ``to_json``.  ``"slice"`` is required: the page
        directions are coordinates in that basis."""
        D = data["m"] + data["n"]
        spine = np.array(data["spine"], dtype=float).reshape(data["m"] - 1, D)
        pages = np.array([pg["dir"] for pg in data["pages"]], dtype=float)
        return cls(spine, data["slice"], pages)


@dataclass
class ConeModP:
    """Open book with positive integer page multiplicities, mod p."""

    book: OpenBook
    kappa: np.ndarray
    p: int

    def __post_init__(self):
        from .complexes import check_modulus

        check_modulus(self.p)
        self.kappa = np.asarray(self.kappa, dtype=int)
        if len(self.kappa) != self.book.n_pages:
            raise ValueError("one multiplicity per page required")
        if np.any(self.kappa < 1):
            raise ValueError("multiplicities must be >= 1")
        if np.any(2 * self.kappa >= self.p):
            raise ValueError("multiplicities must satisfy kappa < p/2")
        if int(self.kappa.sum()) > self.p:
            raise ValueError("total multiplicity exceeds p")

    @classmethod
    def from_json(cls, data: dict) -> "ConeModP":
        """The cone of ``OpenBook.to_json(p, kappa)``; ``kappa`` defaults to 1."""
        kappa = [pg.get("kappa", 1) for pg in data["pages"]]
        return cls(OpenBook.from_json(data), np.array(kappa), data["p"])


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


def _dist2_to_book(Q: np.ndarray, S: OpenBook) -> np.ndarray:
    """Squared distances from the rows of Q (N, D) to the closed book.

    Each row splits into its spine part, its slice 2-vector u and a residual
    orthogonal to both.  The squared distance to the page with direction v
    is |u|^2 where u . v < 0 (the nearest point is on the spine), and
    otherwise the squared component of u across v; the book's distance takes
    the smallest over pages and adds the squared residual.
    """
    U = Q @ S.slice_basis.T
    resid = Q - (Q @ S.spine.T) @ S.spine - U @ S.slice_basis
    along = U @ S.pages.T
    across = U[:, :1] * S.pages[:, 1] - U[:, 1:] * S.pages[:, 0]
    uu = np.einsum("ij,ij->i", U, U)
    d2 = np.where(along >= 0.0, across * across, uu[:, None]).min(axis=1)
    return d2 + np.einsum("ij,ij->i", resid, resid)


def dist_to_book(q, S: OpenBook) -> float:
    """Distance from q to the closed book (min over pages)."""
    q = np.asarray(q, dtype=float)
    return math.sqrt(float(_dist2_to_book(q[None, :], S)[0]))


def excess(T: VarifoldSample, S: OpenBook, q, R: float) -> float:
    """Scale-normalized squared distance of the sample to the book in B_R(q)."""
    if not 0 < R < math.inf:
        raise ValueError(f"R must be finite and greater than 0, got {R}")
    q = np.asarray(q, dtype=float)
    shifted = T.points - q
    inside = np.linalg.norm(shifted, axis=1) < R
    if not np.any(inside):
        return 0.0
    d2 = _dist2_to_book(shifted[inside], S)
    return float(T.weights[inside] @ d2) / R ** (T.m + 2)


def _wrap(x):
    """Angles reduced to [-pi, pi)."""
    return np.remainder(np.asarray(x) + math.pi, 2 * math.pi) - math.pi


class NotCoherentError(ValueError):
    """No spine-fixing rotation carries one cone's pages onto the other's."""


def coherence_angle(C: ConeModP, C0: ConeModP,
                    max_rotation: Optional[float] = None) -> float:
    """Min over spine-fixing plane rotations O of |O - Id| + max page angle.

    O rotates the slice plane by omega with |omega| <= span, where span is
    ``max_rotation`` (default pi/2), capped at pi, and |O - Id| is the
    spectral norm 2|sin(omega/2)|.  Each rotated page of C is grouped with
    the nearest page of C0.  A rotation is admissible when every rotated
    page lies within lam = (C0's opening angle)/4 of its group page and the
    grouped multiplicities equal C0's.  The windows are closed: a page
    exactly lam from its group page counts, so the minimum is attained.
    Raises NotCoherentError("not coherent"), a ValueError, when no rotation
    is admissible.  Page angles compare only within one frame: books whose
    spines span different subspaces, or whose slice bases differ by more
    than 1e-9, raise ValueError, as do different moduli.

    Closed form, from the page angles theta_j of C and phi_i of C0.  Fixing
    the group page i of C's first page fixes every group: with
    c = wrap(phi_i - theta_0), page j goes to the page sigma(j) of C0
    nearest theta_j + c, unique since C0's pages are 4 lam apart, and
    A_j = c + wrap(phi_sigma(j) - theta_j - c) lays it on that page.  The
    admissible rotations are [max A - lam, min A + lam] within
    [-span, span], also shifted by 2 pi where the window crosses +-pi.  On
    it the cost 2|sin(omega/2)| + max_j |omega - A_j| does not increase up
    to (min A + max A)/2 and does not decrease after it, since the first
    term's slope lies in [-1, 1], so that midpoint clamped to the interval
    is the best rotation.  The least cost over the N0 choices of i is
    returned; ties go to the smaller |omega|.
    """
    if C.p != C0.p:
        raise ValueError("moduli differ")
    a, b = C.book, C0.book
    if (a.m != b.m or a.ambient_dim != b.ambient_dim
            or np.abs(a.spine.T @ a.spine - b.spine.T @ b.spine).max() > 1e-9
            or np.abs(a.slice_basis - b.slice_basis).max() > 1e-9):
        raise ValueError("books have different frames: the spines must span the same "
                         "subspace and the slice bases agree within 1e-9")
    lam = C0.book.min_opening_angle() / 4.0
    span = min(math.pi / 2 if max_rotation is None else max_rotation, math.pi)
    theta, phi = C.book.page_angles(), C0.book.page_angles()
    best = None
    for c in _wrap(phi - theta[0]):
        sigma = np.abs(_wrap(phi - (theta[:, None] + c))).argmin(axis=1)
        if not np.array_equal(np.bincount(sigma, weights=C.kappa, minlength=len(phi)), C0.kappa):
            continue
        A = c + _wrap(phi[sigma] - theta - c)
        for a in (A, A - 2 * math.pi, A + 2 * math.pi):
            lo, hi = max(a.max() - lam, -span), min(a.min() + lam, span)
            if lo > hi:
                continue
            omega = float(min(max((a.min() + a.max()) / 2, lo), hi))
            cost = 2.0 * abs(math.sin(omega / 2.0)) + float(np.abs(omega - a).max())
            if best is None or (cost, abs(omega)) < best:
                best = (cost, abs(omega))
    if best is None:
        raise NotCoherentError("not coherent")
    return best[0]


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
    if not 0 < r < math.inf:
        raise ValueError(f"r must be finite and greater than 0, got {r}")
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
