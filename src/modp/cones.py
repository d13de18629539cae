"""1-D cones mod p in the plane: structure checks, competitor certificates,
and a Steiner-type solver for minimal branched networks with mod-p
multiplicities, under the euclidean or a conformal metric.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .books import check_directions
from .complexes import check_modulus, representative_modp

__all__ = [
    "RayConfiguration",
    "StructureReport",
    "CompetitorCertificate",
    "WeightedNetwork",
    "NetworkArc",
    "check_structure",
    "segment_swap_certificate",
    "barycenter_certificate",
    "fermat_point_grid",
    "solve_network",
    "tree_multiplicities",
]

BALANCE_TOL = 1e-9
JUNCTION_MERGE_TOL = 1e-4


@dataclass
class RayConfiguration:
    """Unit rays v_i from the origin with positive multiplicities, mod p."""

    directions: np.ndarray
    kappa: np.ndarray
    p: int

    def __post_init__(self):
        self.directions = np.asarray(self.directions, dtype=float)
        self.kappa = np.asarray(self.kappa, dtype=int)
        check_modulus(self.p)
        check_directions(self.directions, "ray")
        if np.any(self.kappa < 1):
            raise ValueError("multiplicities must be positive")

    def to_json(self) -> dict:
        return {"p": int(self.p),
                "rays": [{"dir": [float(v[0]), float(v[1])], "kappa": int(k)}
                         for v, k in zip(self.directions, self.kappa)]}

    @classmethod
    def from_json(cls, data: dict) -> "RayConfiguration":
        return cls(np.array([r["dir"] for r in data["rays"]], float),
                   np.array([r["kappa"] for r in data["rays"]], int),
                   data["p"])


@dataclass
class StructureReport:
    balanced: bool
    sum_is_p: bool
    multiplicity_bounds: bool
    enough_rays: bool
    balance_residual: float

    @property
    def all_ok(self) -> bool:
        return (self.balanced and self.sum_is_p
                and self.multiplicity_bounds and self.enough_rays)


def check_structure(cfg: RayConfiguration) -> StructureReport:
    """Flags for the structure of a candidate 1-D minimizing cone mod p.

    A singular area-minimizing cone must have N >= 3 distinct rays with
    integer multiplicities in [1, p/2) summing to p and to the zero vector.
    """
    resultant = (cfg.kappa[:, None] * cfg.directions).sum(axis=0)
    res = float(np.linalg.norm(resultant))
    return StructureReport(
        balanced=res <= BALANCE_TOL,
        sum_is_p=int(cfg.kappa.sum()) == cfg.p,
        multiplicity_bounds=bool(np.all(2 * cfg.kappa < cfg.p)),
        enough_rays=len(cfg.kappa) >= 3,
        balance_residual=res,
    )


@dataclass
class CompetitorCertificate:
    kind: str  # "segment_swap" | "barycenter"
    replaced_rays: list
    added_segments: list  # (endpoint_a, endpoint_b, multiplicity)
    mass_change: float
    barycenter: Optional[np.ndarray] = None


def segment_swap_certificate(cfg: RayConfiguration, i: int, j: int) -> CompetitorCertificate:
    """Competitor that trades two unit rays of opposite orientation for the
    chord between their tips; mass change |v_i - v_j| - 2 < 0 unless the
    rays are antipodal.
    """
    vi, vj = cfg.directions[i], cfg.directions[j]
    if np.linalg.norm(vi + vj) < 1e-9:
        raise ValueError("swap degenerate")
    chord = float(np.linalg.norm(vi - vj))
    segments = [(np.zeros(2), vi.copy(), -1), (np.zeros(2), vj.copy(), -1),
                (vi.copy(), vj.copy(), 1)]
    return CompetitorCertificate("segment_swap", [i, j], segments, chord - 2.0)


def barycenter_certificate(cfg: RayConfiguration,
                           hemisphere_normal) -> CompetitorCertificate:
    """Competitor collapsing p units of multiplicity from one open hemisphere
    onto their weighted barycenter z = (1/p) sum m_j v_j; the mass drop
    sum m_j (|v_j - z| - 1) is strictly negative since z != 0.
    """
    n = np.asarray(hemisphere_normal, dtype=float)
    n = n / np.linalg.norm(n)
    p = cfg.p
    sel = [(int(k), idx) for idx, (v, k) in enumerate(zip(cfg.directions, cfg.kappa))
           if float(v @ n) > 1e-12]
    total = sum(k for k, _ in sel)
    if total < p:
        raise ValueError("hypothesis sum kappa >= 2p not witnessed")
    # greedy: rays in decreasing multiplicity (ties by index)
    sel.sort(key=lambda t: (-t[0], t[1]))
    m_plus, remaining = {}, p
    for k, idx in sel:
        take = min(k, remaining)
        if take > 0:
            m_plus[idx] = take
            remaining -= take
        if remaining == 0:
            break
    z = sum(m * cfg.directions[idx] for idx, m in m_plus.items()) / p
    if np.linalg.norm(z) <= 1e-12:
        raise ValueError("barycenter degenerate (z = 0)")
    change = sum(m * (float(np.linalg.norm(cfg.directions[idx] - z)) - 1.0)
                 for idx, m in m_plus.items())
    segments = [(z.copy(), cfg.directions[idx].copy(), m) for idx, m in m_plus.items()]
    return CompetitorCertificate("barycenter", sorted(m_plus), segments, change,
                                 barycenter=z)


def fermat_point_grid(points, weights, grid: float = 1e-4) -> tuple[np.ndarray, float]:
    """Grid-search minimizer of y -> sum w_j |p_j - y|, refined to the given
    final grid spacing (the objective is convex, so multilevel refinement is
    exact up to the final cell size).
    """
    pts = np.asarray(points, dtype=float)
    wts = np.asarray(weights, dtype=float)

    def obj(ys):
        d = np.linalg.norm(pts[None, :, :] - ys[:, None, :], axis=2)
        return d @ wts

    lo = pts.min(axis=0) - 0.1
    hi = pts.max(axis=0) + 0.1
    center = (lo + hi) / 2
    span = float(np.max(hi - lo)) / 2
    best = center
    while True:
        ax = np.linspace(-span, span, 41)
        gx, gy = np.meshgrid(best[0] + ax, best[1] + ax, indexing="ij")
        ys = np.stack([gx.ravel(), gy.ravel()], axis=1)
        vals = obj(ys)
        best = ys[int(np.argmin(vals))]
        spacing = ax[1] - ax[0]
        if spacing <= grid:
            return best, float(vals.min())
        span = 2.5 * spacing


# ---------------------------------------------------------------------------
# branched network solver


@dataclass
class NetworkArc:
    a: int
    b: int
    kappa: int
    polyline: np.ndarray
    length: float  # weighted length


@dataclass
class WeightedNetwork:
    """A solved network; ``junctions``, ``mass`` and ``balance_residuals``
    are derived from its nodes and arcs, written by ``to_json`` and not read."""

    nodes: np.ndarray  # (n_nodes, 2); the terminals, then junctions of >= 3 live arcs
    terminal_multiplicities: list
    arcs: list
    weight_id: str
    p: int = 0
    # topologies whose every start failed, and starts, contraction re-solves
    # and candidates that raised ValueError or FloatingPointError; not in to_json
    skipped_topologies: int = 0
    failed_starts: int = 0

    @property
    def junctions(self) -> list:
        return list(range(len(self.terminal_multiplicities), len(self.nodes)))

    @property
    def mass(self) -> float:
        return float(sum(abs(a.kappa) * a.length for a in self.arcs))

    @property
    def balance_residuals(self) -> dict:
        """{junction: |sum of kappa times the outgoing tangent|}."""
        return {j: float(np.linalg.norm(sum(k * t for k, t in self.junction_tangents(j))))
                for j in self.junctions}

    def junction_tangents(self, j: int) -> list:
        """(kappa, outgoing unit tangent) for arcs meeting node j.

        The tangent is the chord of the polyline's first or last step.  On
        a curved network that is the chord of one of 512 equal steps of the
        geodesic, not the arc's tangent at the node, and the junction is
        balanced on these chords (``_shooting_polish``): a known bias of
        about 1e-3 in the balance and 6e-4 in the junction on the Taylor
        example.
        """
        out = []
        for arc in self.arcs:
            if arc.kappa == 0:
                continue
            if arc.a == j:
                d = arc.polyline[1] - arc.polyline[0]
            elif arc.b == j:
                d = arc.polyline[-2] - arc.polyline[-1]
            else:
                continue
            out.append((abs(arc.kappa), d / np.linalg.norm(d)))
        return out

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "weight": self.weight_id,
            "mass": self.mass,
            "nodes": [list(map(float, q)) for q in self.nodes],
            "terminal_multiplicities": list(map(int, self.terminal_multiplicities)),
            "junctions": list(map(int, self.junctions)),
            "arcs": [{"a": int(a.a), "b": int(a.b), "kappa": int(a.kappa),
                      "length": a.length,
                      "polyline": [list(map(float, q)) for q in a.polyline]}
                     for a in self.arcs],
            "balance_residuals": {str(k): v for k, v in self.balance_residuals.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "WeightedNetwork":
        arcs = [NetworkArc(a["a"], a["b"], a["kappa"], np.array(a["polyline"], float), a["length"])
                for a in data["arcs"]]
        return cls(np.array(data["nodes"], float), data["terminal_multiplicities"], arcs,
                   data["weight"], data["p"])


class EuclideanWeight:
    """Trivial conformal factor; arcs are straight segments."""

    name = "euclidean"
    min_x = None

    def w(self, pts):
        pts = np.atleast_2d(pts)
        return np.ones(len(pts))

    def grad_w(self, pts):
        pts = np.atleast_2d(pts)
        return np.zeros_like(pts)


def _resolve_weight(weight):
    if weight == "euclidean" or weight is None:
        return EuclideanWeight()
    if hasattr(weight, "w") and hasattr(weight, "grad_w"):
        return weight
    raise ValueError(f"unknown weight {weight!r}")


def polyline_weighted_length(poly: np.ndarray, metric) -> float:
    """Midpoint-rule weighted length of a polyline."""
    seg = np.diff(poly, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    mids = 0.5 * (poly[:-1] + poly[1:])
    return float(metric.w(mids) @ lens)


def _full_topologies(n: int):
    """All full Steiner topologies on terminals 0..n-1: every terminal has
    degree 1 and every junction (indices >= n) degree 3.  Inserting leaf t
    into each edge of each tree on 0..t-1 yields each one exactly once."""
    if n == 2:
        return [((0, 1),)]
    out = []

    def insert(edges, njunc, t):
        if t == n:
            out.append(tuple(sorted(edges)))
            return
        for idx, (a, b) in enumerate(edges):
            newj = n + njunc
            new_edges = edges[:idx] + edges[idx + 1:] + [
                (a, newj), (b, newj), (t, newj)]
            insert(new_edges, njunc + 1, t + 1)

    insert([(0, 1)], 0, 2)
    return out


def tree_multiplicities(edges, n_nodes, terminal_mult, p):
    """Edge multiplicities forced by the mod-p boundary data on a tree.

    Each arc oriented a -> b carries kappa with boundary +kappa at b and
    -kappa at a; the prescribed signed sum at node v is terminal_mult[v]
    (0 at junctions).  On a tree the solution is unique mod p; the reduced
    representative in (-p/2, p/2] is returned per edge.  Raises
    ``ValueError`` when the prescribed sum over a component is not 0 mod p.
    """
    adj = {v: [] for v in range(n_nodes)}
    for idx, (a, b) in enumerate(edges):
        adj[a].append((b, idx, -1))
        adj[b].append((a, idx, +1))
    need = {v: int(terminal_mult[v]) if v < len(terminal_mult) else 0
            for v in range(n_nodes)}
    kappa = [None] * len(edges)
    degree = {v: len(adj[v]) for v in range(n_nodes)}
    pending = [v for v in range(n_nodes) if degree[v] == 1]
    removed = [False] * len(edges)
    # a leaf hands its residual on to its neighbour; the node where the
    # elimination of a component ends keeps the residual of that component
    handed_on = [False] * n_nodes
    while pending:
        v = pending.pop()
        live = [(u, idx, s) for u, idx, s in adj[v] if not removed[idx]]
        if not live:
            continue
        u, idx, s = live[0]
        # s = +1 when v is the head (b) of the edge
        kappa[idx] = representative_modp(s * need[v], p)
        need[u] = (need[u] + need[v]) % p
        handed_on[v] = True
        removed[idx] = True
        degree[u] -= 1
        degree[v] -= 1
        if degree[u] == 1:
            pending.append(u)
    if any(need[v] % p for v in range(n_nodes) if not handed_on[v]):
        raise ValueError("multiplicities do not balance mod p")
    return kappa


def _scalar_weight(metric):
    """(x, y) -> (w, dw/dx, dw/dy) as Python floats, for the RK4 loop.

    Uses the metric's own ``w_and_grad`` when it has one; any other weight
    object is evaluated through its array ``w`` and ``grad_w``.
    """
    fn = getattr(metric, "w_and_grad", None)
    if fn is not None:
        return fn

    def w_and_grad(x, y):
        pt = np.array([[x, y]])
        g = metric.grad_w(pt)[0]
        return float(metric.w(pt)[0]), float(g[0]), float(g[1])

    return w_and_grad


def _rk4_shoot(start, theta, length, metric, steps):
    """RK4 for pos' = tau, tau' = (grad w - (grad w . tau) tau) / w, with tau
    renormalized after every step; returns the (steps + 1, 2) polyline."""
    wg = _scalar_weight(metric)
    x, y = float(start[0]), float(start[1])
    tx, ty = math.cos(theta), math.sin(theta)
    h = length / steps
    hh = 0.5 * h
    h6 = h / 6
    pts = [(x, y)]
    for _ in range(steps):
        w, gx, gy = wg(x, y)
        d = gx * tx + gy * ty
        k1x, k1y = (gx - d * tx) / w, (gy - d * ty) / w
        t2x, t2y = tx + hh * k1x, ty + hh * k1y
        w, gx, gy = wg(x + hh * tx, y + hh * ty)
        d = gx * t2x + gy * t2y
        k2x, k2y = (gx - d * t2x) / w, (gy - d * t2y) / w
        t3x, t3y = tx + hh * k2x, ty + hh * k2y
        w, gx, gy = wg(x + hh * t2x, y + hh * t2y)
        d = gx * t3x + gy * t3y
        k3x, k3y = (gx - d * t3x) / w, (gy - d * t3y) / w
        t4x, t4y = tx + h * k3x, ty + h * k3y
        w, gx, gy = wg(x + h * t3x, y + h * t3y)
        d = gx * t4x + gy * t4y
        k4x, k4y = (gx - d * t4x) / w, (gy - d * t4y) / w
        x = x + h6 * (tx + 2 * t2x + 2 * t3x + t4x)
        y = y + h6 * (ty + 2 * t2y + 2 * t3y + t4y)
        tx = tx + h6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        ty = ty + h6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        n = math.sqrt(tx * tx + ty * ty)
        tx, ty = tx / n, ty / n
        pts.append((x, y))
    return np.array(pts)


def _shoot_bvp(a, b, metric, theta0, length0, steps=512):
    """Geodesic from a to b: (polyline of ``steps + 1`` points at equal
    euclidean arc-length spacing, start angle, euclidean length), or None.

    A metric with a ``two_point_geodesic`` method solves it in closed form;
    the shipped weights ``WeightedMetric("x")`` and ``("sqrtx")`` do, with
    catenaries and parabolas.  Any other weight object is shot with RK4 from
    (``theta0``, ``length0``) and ``scipy.optimize.root``.
    """
    closed = getattr(metric, "two_point_geodesic", None)
    if closed is not None:
        return closed(a, b, theta0, steps)
    from scipy.optimize import root

    def miss(x):
        theta, length = x
        poly = _rk4_shoot(a, theta, max(length, 1e-9), metric, steps)
        return poly[-1] - b

    sol = root(miss, np.array([theta0, length0]), method="hybr", tol=1e-13)
    theta, length = sol.x
    poly = _rk4_shoot(a, theta, max(length, 1e-9), metric, steps)
    if np.linalg.norm(poly[-1] - b) > 1e-8:
        return None
    return poly, float(theta), float(length)


class _TopologyProblem:
    """Geometry optimization of one tree topology with fixed multiplicities:
    the variables are the junction coordinates, each live arc one straight
    segment weighted by the midpoint rule."""

    def __init__(self, edges, kappa, terminals, metric):
        self.edges = edges
        self.kappa = kappa
        self.terminals = np.asarray(terminals, dtype=float)
        self.n_term = len(terminals)
        self.n_nodes = max([self.n_term] + [max(e) + 1 for e in edges])
        self.n_junc = self.n_nodes - self.n_term
        self.metric = metric
        self.curved = not isinstance(metric, EuclideanWeight)
        self.live = [i for i, k in enumerate(kappa) if k != 0]
        self.heads = np.array([edges[i][0] for i in self.live], dtype=int)
        self.tails = np.array([edges[i][1] for i in self.live], dtype=int)
        self.weights = np.array([abs(kappa[i]) for i in self.live], dtype=float)

    def segments(self, x):
        """Node array and the live arcs' segments, stacked (n_live, 2, 2)."""
        nodes = np.vstack([self.terminals, x.reshape(self.n_junc, 2)])
        return nodes, np.stack([nodes[self.heads], nodes[self.tails]], axis=1)

    def objective_and_grad(self, x):
        _, polys = self.segments(x)
        seg = np.diff(polys, axis=1)
        lens = np.maximum(np.linalg.norm(seg, axis=2), 1e-300)
        mids = 0.5 * (polys[:, :-1] + polys[:, 1:])
        flat = mids.reshape(-1, 2)
        w = self.metric.w(flat).reshape(lens.shape)
        gw = self.metric.grad_w(flat).reshape(seg.shape)
        total = float(self.weights @ np.sum(w * lens, axis=1))
        k = self.weights[:, None, None]
        units = seg / lens[..., None]
        # contribution of the segment to its two endpoints
        half = 0.5 * gw * lens[..., None]
        wu = w[..., None] * units
        gpoly = np.zeros_like(polys)
        gpoly[:, :-1] += k * (half - wu)
        gpoly[:, 1:] += k * (half + wu)
        grad_nodes = np.zeros((self.n_nodes, 2))
        np.add.at(grad_nodes, self.heads, gpoly[:, 0])
        np.add.at(grad_nodes, self.tails, gpoly[:, -1])
        return total, grad_nodes[self.n_term:].ravel()

    def solve(self, x0):
        from scipy.optimize import minimize

        if len(x0) == 0:
            return self.objective_and_grad(x0)[0], x0
        min_x = getattr(self.metric, "min_x", None)
        bounds = None if min_x is None else [(min_x, None), (None, None)] * self.n_junc
        res = minimize(self.objective_and_grad, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12})
        return float(res.fun), res.x


def _merged(prob, x, keep=None, gone=None):
    """The tree of ``prob``'s live arcs with node ``gone`` merged into node
    ``keep`` (the arc between them dropped, junctions renumbered in order),
    and a start vector at the current positions, the merged node at
    ``keep``'s.  Without ``gone`` it only drops the dead arcs and the
    junctions they leave without an arc."""
    nodes, _ = prob.segments(x)
    arcs = [(keep if a == gone else a, keep if b == gone else b, prob.kappa[i])
            for i in prob.live for a, b in [prob.edges[i]]]
    arcs = [arc for arc in arcs if arc[0] != arc[1]]
    juncs = sorted({v for a, b, _ in arcs for v in (a, b) if v >= prob.n_term})
    label = {v: prob.n_term + k for k, v in enumerate(juncs)}
    sub = _TopologyProblem([(label.get(a, a), label.get(b, b)) for a, b, _ in arcs],
                           [k for _, _, k in arcs], prob.terminals, prob.metric)
    return sub, nodes[juncs].ravel()


def _contract(val, prob, x):
    """Contraction rule for a solved tree: merge the ends of an arc at a
    junction, shortest arc first, when the arc is shorter than
    ``JUNCTION_MERGE_TOL`` times the terminals' span or the junction has
    fewer than three live arcs, and re-solve the smaller tree from the
    current positions, until no merge is left.  A merge at a junction of
    fewer than three live arcs is always kept (such a node is a bend, which
    lightens a straight arc under a conformal weight but not its
    geodesic); any other when its mass is not higher beyond round-off.
    Returns the contracted problem, its variables and the number of
    re-solves that raised."""
    tol = JUNCTION_MERGE_TOL * float(np.max(np.ptp(prob.terminals, axis=0)))
    prob, x = _merged(prob, x)
    n = prob.n_term
    failed = 0
    while True:
        _, polys = prob.segments(x)
        lengths = np.linalg.norm(polys[:, 1] - polys[:, 0], axis=1)
        degree = np.bincount(np.r_[prob.heads, prob.tails], minlength=prob.n_nodes)
        thin = (degree < 3) & (np.arange(prob.n_nodes) >= n)
        for i in np.argsort(lengths, kind="stable"):
            keep, gone = sorted((int(prob.heads[i]), int(prob.tails[i])))
            if gone < n or not (lengths[i] < tol or thin[keep] or thin[gone]):
                continue
            sub, x0 = _merged(prob, x, keep, gone)
            try:
                sub_val, sub_x = sub.solve(x0)
            except (ValueError, FloatingPointError):
                failed += 1
                continue
            if sub_val <= val * (1 + 1e-12) or thin[keep] or thin[gone]:
                prob, x, val = sub, sub_x, sub_val
                break
        else:
            return prob, x, failed


def solve_network(terminals, p: int, weight="euclidean", seed: int = 0,
                  k_interior=None) -> WeightedNetwork:
    """Minimal-mass branched 1-current mod p spanning the given terminals.

    terminals: 2 to 6 ((x, y), multiplicity) pairs with finite points and
    integer multiplicities; p: an integer >= 2.  Enumerates the full
    Steiner topologies (every terminal a leaf, every junction of degree 3),
    derives the forced mod-p arc multiplicities per topology, and optimizes
    the junctions alone by L-BFGS-B from three seeded starts (one when there
    is no junction), under every weight: each arc is one straight segment
    weighted by the midpoint rule, and a weight's ``min_x`` bounds x.
    Each topology's best start is a candidate; in ascending order of mass,
    ties to the first topology, a candidate is contracted (``_contract``),
    so every junction has at least three live arcs, and under a conformal
    weight its arcs become two-point geodesics (``_shoot_bvp``: closed-form
    catenaries and parabolas under the shipped weights, RK4 shooting under
    any other) with its junctions re-balanced on the chords of the arcs'
    end steps (``_shooting_polish``).  The first candidate that raises no
    ValueError or FloatingPointError is returned; each one that does counts
    in ``failed_starts``, and with none left RuntimeError is raised.
    ``k_interior`` is deprecated and ignored: any value but None warns.
    """
    if k_interior is not None:
        warnings.warn(DeprecationWarning(
            "k_interior is ignored: the network solver starts from the junctions alone"),
            stacklevel=2)
    terminals = list(terminals)
    if not 2 <= len(terminals) <= 6:
        raise ValueError(f"need 2 to 6 terminals, got {len(terminals)}")
    pts = np.array([t[0] for t in terminals], dtype=float)
    if pts.shape != (len(terminals), 2) or not np.all(np.isfinite(pts)):
        raise ValueError("terminal points must be finite points of the plane")
    mult = np.array([t[1] for t in terminals])
    if mult.dtype.kind not in "iuf" or not np.all(np.isfinite(mult)) or np.any(mult % 1):
        raise ValueError("terminal multiplicities must be integers")
    mult = [int(m) for m in mult]
    check_modulus(p)
    p = int(p)
    if sum(mult) % p != 0:
        raise ValueError("terminal multiplicities do not sum to 0 mod p")
    metric = _resolve_weight(weight)

    rng = np.random.default_rng(seed)
    n = len(pts)
    njunc = n - 2
    centre = np.tile(pts.mean(axis=0), njunc)
    candidates = []
    skipped = failed = 0
    for edges in sorted(_full_topologies(n)):
        # every topology is a tree, so the sum check above balances it
        kappa = tree_multiplicities(edges, n + njunc, mult, p)
        prob = _TopologyProblem(list(edges), kappa, pts, metric)
        inits = [centre] + [centre + rng.normal(scale=0.05 * (1 + pts.std()), size=2 * njunc)
                            for _ in range(2 if njunc else 0)]
        local_best = None
        for init in inits:
            if getattr(metric, "min_x", None) is not None:
                init = init.copy()
                init[0::2] = np.maximum(init[0::2], 2 * metric.min_x)
            try:
                val, x = prob.solve(init)
            except (ValueError, FloatingPointError):
                failed += 1
                continue
            if local_best is None or val < local_best[0] - 1e-15:
                local_best = (val, x)
        if local_best is None:
            skipped += 1
        else:
            candidates.append((local_best[0], prob, local_best[1]))

    for val, prob, x in sorted(candidates, key=lambda c: c[0]):
        try:
            prob, x, failed_merges = _contract(val, prob, x)
            failed += failed_merges
            nodes, stacked = prob.segments(x)
            polys = dict(zip(prob.live, stacked))
            if prob.curved:
                nodes, polys = _shooting_polish(prob, nodes, polys)
            arcs = [NetworkArc(*prob.edges[idx], int(prob.kappa[idx]), polys[idx],
                               polyline_weighted_length(polys[idx], metric))
                    for idx in prob.live]
        except (ValueError, FloatingPointError):
            failed += 1
            continue
        return WeightedNetwork(nodes, mult, arcs, getattr(metric, "name", "conformal"),
                               p, skipped, failed)
    raise RuntimeError("all topologies failed to optimize")


def _shooting_polish(prob, nodes, polys):
    """Replace straight arcs by two-point geodesics (``_shoot_bvp``, closed
    form under the shipped weights) and re-polish the junctions by Newton
    steps on a finite-difference Hessian with a line search, for conformal
    metrics.  The balance takes the exact start angle of an arc that leaves
    a junction but, for an arc that ends there, the chord of its last of
    512 steps; this is the known junction bias (``junction_tangents``)."""
    metric = prob.metric
    n_term = prob.n_term
    juncs = list(range(n_term, prob.n_nodes))

    def arcs_from(nodes_now, init_polys):
        shot = {}
        for idx in prob.live:
            a, b = prob.edges[idx]
            poly = init_polys[idx]
            d0 = poly[1] - poly[0]
            theta0 = math.atan2(d0[1], d0[0])
            L0 = float(np.sum(np.linalg.norm(np.diff(poly, axis=0), axis=1)))
            res = _shoot_bvp(nodes_now[a], nodes_now[b], metric, theta0, L0)
            if res is None:
                return None
            shot[idx] = res
        return shot

    def junction_grad(nodes_now, shot):
        grads = {}
        for j in juncs:
            g = np.zeros(2)
            wj = float(metric.w(nodes_now[j][None])[0])
            for idx in prob.live:
                a, b = prob.edges[idx]
                poly, theta, _ = shot[idx]
                k = abs(prob.kappa[idx])
                if a == j:
                    tau = np.array([math.cos(theta), math.sin(theta)])
                    g += -k * wj * tau
                elif b == j:
                    d = poly[-1] - poly[-2]
                    tau = d / np.linalg.norm(d)
                    g += k * wj * tau
            grads[j] = g
        return grads

    nodes = nodes.copy()
    shot = arcs_from(nodes, polys)
    if shot is None:
        return nodes, polys
    for _ in range(60):
        grads = junction_grad(nodes, shot)
        gnorm = math.sqrt(sum(float(g @ g) for g in grads.values()))
        if gnorm < 1e-11:
            break
        # finite-difference Hessian over all junction coords
        nj = len(juncs)
        gvec = np.concatenate([grads[j] for j in juncs])
        H = np.zeros((2 * nj, 2 * nj))
        eps = 1e-6
        base_polys = {idx: shot[idx][0] for idx in shot}
        for col in range(2 * nj):
            nn = nodes.copy()
            nn[juncs[col // 2], col % 2] += eps
            sh = arcs_from(nn, base_polys)
            if sh is None:
                return nodes, {idx: shot[idx][0] for idx in shot}
            gp = np.concatenate([junction_grad(nn, sh)[j] for j in juncs])
            H[:, col] = (gp - gvec) / eps
        try:
            step = np.linalg.solve(0.5 * (H + H.T), -gvec)
        except np.linalg.LinAlgError:
            step = -gvec
        t = 1.0
        moved = False
        for _ in range(30):
            nn = nodes.copy()
            for i, j in enumerate(juncs):
                nn[j] += t * step[2 * i: 2 * i + 2]
            sh = arcs_from(nn, base_polys)
            if sh is not None:
                gn = np.concatenate([junction_grad(nn, sh)[j] for j in juncs])
                if np.linalg.norm(gn) < np.linalg.norm(gvec):
                    nodes, shot, moved = nn, sh, True
                    break
            t *= 0.5
        if not moved:
            break
    return nodes, {idx: shot[idx][0] for idx in shot}
