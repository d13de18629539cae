"""1-D cones mod p in the plane: structure checks, competitor certificates,
and a Steiner-type solver for minimal branched networks with mod-p
multiplicities, under the euclidean or a conformal metric.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
        from .books import check_directions

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
    if not 0 < grid < math.inf:
        raise ValueError(f"grid must be finite and greater than 0, got {grid}")
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
    # topologies whose solve (their one start) raised ValueError or
    # FloatingPointError, and those solves and the candidates that raised;
    # not in to_json
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
        """(kappa, outgoing unit tangent) for arcs meeting node j, by the
        one rule that ``_shooting_polish`` balances junctions on
        (``_end_tangents``)."""
        return _end_tangents(j, [(arc.a, arc.b, arc.kappa, arc.polyline) for arc in self.arcs])

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


def _end_tangents(j, arcs):
    """(|kappa|, outgoing unit tangent) at node j of each arc (a, b, kappa,
    polyline) with kappa != 0 that meets it: the chord of the polyline's
    first or last step.  On a curved network that is the chord of one of
    512 equal steps of the geodesic, not the arc's tangent at the node: a
    known bias of about 1e-3 in the balance and 6e-4 in the junction on the
    Taylor example (ROADMAP item 2)."""
    out = []
    for a, b, kappa, poly in arcs:
        if kappa == 0:
            continue
        if a == j:
            d = poly[1] - poly[0]
        elif b == j:
            d = poly[-2] - poly[-1]
        else:
            continue
        out.append((abs(kappa), d / np.linalg.norm(d)))
    return out


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
    if isinstance(weight, EuclideanWeight) or all(
            hasattr(weight, attr) for attr in ("w", "grad_w", "two_point_geodesic")):
        return weight
    raise ValueError(f"unknown weight {weight!r}: a conformal weight needs w, grad_w "
                     "and two_point_geodesic")


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
        # signed arc-node incidence: row e is -1 at the head, +1 at the tail
        self.incidence = np.zeros((len(self.live), self.n_nodes))
        self.incidence[np.arange(len(self.live)), self.heads] = -1.0
        self.incidence[np.arange(len(self.live)), self.tails] = 1.0
        self.pairs = [tuple(sorted((int(a), int(b)))) for a, b in zip(self.heads, self.tails)]
        # the terminals' span sets the merge length and the difference step
        self.span = float(np.max(np.ptp(self.terminals, axis=0))) or 1.0

    def nodes(self, x):
        """The terminals, then the junctions at x: (n_nodes, 2)."""
        return np.concatenate([self.terminals, x.reshape(self.n_junc, 2)])

    def objective_and_grad(self, x):
        """The mass and its gradient at every node, (n_nodes, 2); an arc of
        length 0 adds nothing to the gradient."""
        nodes = self.nodes(x)
        seg = self.incidence @ nodes
        lens = np.maximum(np.hypot(seg[:, 0], seg[:, 1]), 1e-300)
        mids = 0.5 * (nodes[self.heads] + nodes[self.tails])
        w = self.metric.w(mids)
        k = self.weights[:, None]
        # each segment pulls its ends by k w u and moves with its midpoint
        pull = k * (w / lens)[:, None] * seg
        shift = k * 0.5 * self.metric.grad_w(mids) * lens[:, None]
        return float(self.weights @ (w * lens)), \
            self.incidence.T @ pull + np.abs(self.incidence).T @ shift

    def _value_and_grad(self, x):
        total, grad_nodes = self.objective_and_grad(x)
        return total, grad_nodes[self.n_term:].ravel()

    def hessian(self, x, grad):
        """Hessian in the junction coordinates: k (I - u u^T) / L per arc
        under the euclidean weight, forward differences of the exact
        gradient ``grad`` at x under any other."""
        size = 2 * self.n_junc
        if not self.curved:
            d = self.incidence @ self.nodes(x)
            lens = np.maximum(np.hypot(d[:, 0], d[:, 1]), 1e-12 * self.span)
            u = d / lens[:, None]
            blocks = (self.weights / lens)[:, None, None] * (np.eye(2) - u[:, :, None] * u[:, None])
            inc = self.incidence[:, self.n_term:]
            return np.einsum("ea,eb,eij->aibj", inc, inc, blocks).reshape(size, size)
        h = 1e-7 * self.span
        H = np.empty((size, size))
        for col in range(size):
            xh = x.copy()
            xh[col] += h
            H[:, col] = (self._value_and_grad(xh)[1] - grad) / h
        return 0.5 * (H + H.T)

    def solve(self, x0):
        """(mass, junction coordinates) of a local minimum from the start x0.

        A junction with fewer than three live arcs is merged into a
        neighbour before any iteration.  Then damped Newton steps: the exact
        gradient, the ``hessian`` with its eigenvalues replaced by their
        absolute values (floored), Armijo backtracking, and a weight's
        ``min_x`` held by projection.  When a live arc at a junction is
        shorter than ``JUNCTION_MERGE_TOL`` times the terminals' span, the
        tree with that arc merged is solved; its value is returned when
        splitting the merged node again cannot lower the mass (``_split``),
        and otherwise the iteration goes on from the split.  A merged node
        is returned at its ``keep`` node's position, so its arcs have length
        0 exactly (``_contract``)."""
        x = np.array(x0, dtype=float)
        if self.n_junc == 0:
            return self.objective_and_grad(x)[0], x
        n = self.n_term
        degree = np.bincount(np.r_[self.heads, self.tails], minlength=self.n_nodes)
        if np.any(degree[n:] < 3):
            j = n + int(np.argmax(degree[n:] < 3))
            at_j = np.flatnonzero((self.heads == j) | (self.tails == j))
            keep = gone = None
            if len(at_j):
                d = self.incidence[at_j] @ self.nodes(x)
                keep, gone = self.pairs[at_j[np.argmin(np.hypot(d[:, 0], d[:, 1]))]]
            return self._solve_merged(x, keep, gone)

        tol = JUNCTION_MERGE_TOL * self.span
        min_x = getattr(self.metric, "min_x", None)
        if min_x is not None:
            x[0::2] = np.maximum(x[0::2], min_x)
        refused = set()
        val, grad = self._value_and_grad(x)
        for _ in range(100):
            short = self._short_arc(x, tol, refused)
            if short is not None:
                sub_val, merged = self._solve_merged(x, *self.pairs[short])
                split = self._split(merged, short, tol)
                if split is None:
                    return sub_val, merged
                refused.add(self.pairs[short])
                x = split
                val, grad = self._value_and_grad(x)
                continue
            free = np.ones(len(x), dtype=bool)
            if min_x is not None:
                free[0::2] = (x[0::2] > min_x) | (grad[0::2] <= 0)
            if np.max(np.abs(grad[free]), initial=0.0) <= 1e-10:
                break
            lam, V = np.linalg.eigh(self.hessian(x, grad)[np.ix_(free, free)])
            lam = np.maximum(np.abs(lam), 1e-10 * np.max(np.abs(lam)) + 1e-300)
            step = np.zeros_like(x)
            step[free] = -V @ ((V.T @ grad[free]) / lam)
            t = self._first_meeting(x, step, tol, refused)
            for _ in range(40):
                trial = x + t * step
                if min_x is not None:
                    trial[0::2] = np.maximum(trial[0::2], min_x)
                trial_val, trial_grad = self._value_and_grad(trial)
                slope = float(grad @ (trial - x))
                if trial_val <= val + 1e-4 * slope:
                    break
                # the minimum of the parabola through val, slope and trial_val,
                # kept within [0.1, 0.5] of t
                excess = trial_val - val - slope
                t *= min(max(-0.5 * slope / excess, 0.1), 0.5) if excess > 0 else 0.5
            else:
                break  # no decrease left at round-off
            if np.array_equal(trial, x):
                break
            x, val, grad = trial, trial_val, trial_grad
        return val, x

    def _short_arc(self, x, tol, refused):
        """The shortest live arc at a junction shorter than ``tol`` whose
        merge was not refused, or None."""
        d = self.incidence @ self.nodes(x)
        lengths = np.hypot(d[:, 0], d[:, 1])
        for i in np.argsort(lengths, kind="stable"):
            if lengths[i] >= tol:
                return None
            if self.pairs[i][1] >= self.n_term and self.pairs[i] not in refused:
                return int(i)
        return None

    def _first_meeting(self, x, step, tol, refused):
        """The least t in (0, 1) where the ends of an arc along x + t step
        come closest, closer than ``tol``, or 1: a step towards a collapse
        stops at it instead of passing it (arcs whose merge was refused
        excepted)."""
        r0 = self.incidence @ self.nodes(x)
        dr = self.incidence[:, self.n_term:] @ step.reshape(-1, 2)
        dd = np.einsum("ij,ij->i", dr, dr)
        ts = -np.einsum("ij,ij->i", r0, dr) / np.where(dd > 0, dd, 1.0)
        closest = r0 + ts[:, None] * dr
        meet = (ts > 0) & (ts < 1) & (np.hypot(closest[:, 0], closest[:, 1]) < tol)
        return min((float(ts[i]) for i in np.flatnonzero(meet)
                    if self.pairs[i] not in refused), default=1.0)

    def _solve_merged(self, x, keep, gone):
        """The tree with ``gone`` merged into ``keep`` (``_merged``), solved
        from x: its value, and its solution in this tree's coordinates with
        ``gone`` on ``keep``."""
        sub, y0, juncs = _merged(self, x, keep, gone)
        val, y = sub.solve(y0)
        nodes = self.nodes(x)
        nodes[juncs] = y.reshape(-1, 2)
        if gone is not None:
            nodes[gone] = nodes[keep]
        return val, nodes[self.n_term:].ravel()

    def _split(self, x, i, tol):
        """Whether the merged solution x, where live arc i has length 0,
        gains from opening arc i again: None when it does not, else x with
        one side moved ``tol`` along the steepest descent.

        The side is the node at one end of arc i with the nodes joined to it
        by other arcs of length 0, and it moves as one; it must hold no
        terminal, so the other end's side is tried when it does, and with a
        terminal on both the merge stands.  Opening the arc by |d| changes
        the mass by k w |d| + F . d to first order, F the side's summed
        gradient, so it gains when |F| > k w."""
        nodes = self.nodes(x)
        _, grad = self.objective_and_grad(x)
        zero = ~(self.incidence @ nodes).any(axis=1)
        for end in (int(self.tails[i]), int(self.heads[i])):
            side = {end}
            grown = True
            while grown:
                grown = False
                for k in np.flatnonzero(zero):
                    a, b = int(self.heads[k]), int(self.tails[k])
                    if k != i and (a in side) != (b in side):
                        side |= {a, b}
                        grown = True
            if min(side) < self.n_term:
                continue
            side = sorted(side)
            force = grad[side].sum(axis=0)
            size = float(np.linalg.norm(force))
            w = float(self.metric.w(nodes[end][None])[0])
            if size <= self.weights[i] * w * (1 + 1e-9):
                return None
            nodes[side] -= tol * force / size
            return nodes[self.n_term:].ravel()
        return None


def _merged(prob, x, keep=None, gone=None):
    """The tree of ``prob``'s live arcs with node ``gone`` merged into node
    ``keep`` (the arc between them dropped, junctions renumbered in order),
    a start vector at the current positions, the merged node at ``keep``'s,
    and the old index of each junction of the new tree.  Without ``gone``
    it only drops the dead arcs and the junctions they leave without an
    arc."""
    nodes = prob.nodes(x)
    arcs = [(keep if a == gone else a, keep if b == gone else b, prob.kappa[i])
            for i in prob.live for a, b in [prob.edges[i]]]
    arcs = [arc for arc in arcs if arc[0] != arc[1]]
    juncs = sorted({v for a, b, _ in arcs for v in (a, b) if v >= prob.n_term})
    label = {v: prob.n_term + k for k, v in enumerate(juncs)}
    sub = _TopologyProblem([(label.get(a, a), label.get(b, b)) for a, b, _ in arcs],
                           [k for _, _, k in arcs], prob.terminals, prob.metric)
    return sub, nodes[juncs].ravel(), juncs


def _contract(prob, x):
    """The tree that ``prob.solve`` ended on: the dead arcs dropped and every
    live arc of length 0 at a junction merged, with its variables."""
    prob, x, _ = _merged(prob, x)
    while True:
        zero = ~(prob.incidence @ prob.nodes(x)).any(axis=1) & \
            (np.maximum(prob.heads, prob.tails) >= prob.n_term)
        if not zero.any():
            return prob, x
        prob, x, _ = _merged(prob, x, *prob.pairs[int(np.argmax(zero))])


def solve_network(terminals, p: int, weight="euclidean",
                  k_interior=None) -> WeightedNetwork:
    """Minimal-mass branched 1-current mod p spanning the given terminals.

    terminals: 2 to 6 ((x, y), multiplicity) pairs with finite points and
    integer multiplicities; p: an integer >= 2.  Enumerates the full
    Steiner topologies (every terminal a leaf, every junction of degree 3),
    derives the forced mod-p arc multiplicities per topology, and optimizes
    the junctions alone by damped Newton (``_TopologyProblem.solve``), once
    per topology from every junction at the terminals' centroid, under
    every weight: each arc is one straight segment weighted by the midpoint
    rule, and a weight's ``min_x`` bounds x.  The solve contracts as it
    goes: a junction of fewer than three live arcs is merged before it
    iterates, and an arc shorter than ``JUNCTION_MERGE_TOL`` times the
    terminals' span is merged when that is a minimum, so each value is that
    of a finished solve.  Each topology's solve is a candidate; a topology
    whose solve raises ValueError or FloatingPointError is skipped and
    counts in ``skipped_topologies`` and in ``failed_starts``.  In ascending
    order of mass, ties to the first topology, a candidate's merged arcs
    are contracted (``_contract``), and under a conformal weight its arcs
    become the weight's two-point geodesics with its junctions re-balanced
    on the chords of the arcs' end steps (``_shooting_polish``).  The first
    candidate that raises no ValueError or FloatingPointError is returned;
    each one that does counts in ``failed_starts``, and with none left
    RuntimeError is raised, naming the last error.

    weight: "euclidean" (or None, or an ``EuclideanWeight``), where each arc
    is a segment and its ``length`` the segment's length; or a conformal
    weight with ``w``, ``grad_w`` and ``two_point_geodesic(a, b, theta0,
    steps)``, which returns (polyline, start angle, euclidean length,
    weighted length) or None, as ``WeightedMetric`` does in closed form.
    Each arc's ``length`` is that weighted length.  Any other weight raises
    ValueError, as does, under a weight with ``min_x``, a terminal with
    x <= ``min_x``, before any solve.
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
    if getattr(metric, "min_x", None) is not None and np.any(pts[:, 0] <= metric.min_x):
        raise ValueError(f"terminals must lie in x > {metric.min_x:g}, the weight's domain")

    n = len(pts)
    njunc = n - 2
    centre = np.tile(pts.mean(axis=0), njunc)
    candidates = []
    skipped, failed, last = 0, 0, None
    for edges in sorted(_full_topologies(n)):
        # every topology is a tree, so the sum check above balances it
        kappa = tree_multiplicities(edges, n + njunc, mult, p)
        prob = _TopologyProblem(list(edges), kappa, pts, metric)
        try:
            val, x = prob.solve(centre)
        except (ValueError, FloatingPointError) as err:
            skipped += 1
            failed += 1
            last = err
            continue
        candidates.append((val, prob, x))

    for val, prob, x in sorted(candidates, key=lambda c: c[0]):
        try:
            net = _network(prob, x, mult, p)
        except (ValueError, FloatingPointError) as err:
            failed += 1
            last = err
            continue
        net.skipped_topologies, net.failed_starts = skipped, failed
        return net
    raise RuntimeError(f"all topologies failed to optimize; the last: {last}")


def _network(prob, x, mult, p) -> WeightedNetwork:
    """The network of a solved tree: contracted (``_contract``), and under a
    conformal weight with geodesic arcs (``_shooting_polish``).  A tree with
    an arc that cannot be shot is merged along its shortest arc at a
    junction, and one with a junction left unbalanced beyond ``BALANCE_TOL``
    along its shortest arc at that junction: a geodesic junction can
    collapse onto a node where its straight-segment start does not.  The
    merged tree replaces a tree that cannot be shot (ValueError when there
    is no junction to merge), and an unbalanced one when its network does
    not raise ValueError and is not heavier."""
    prob, x = _contract(prob, x)
    nodes = prob.nodes(x)
    if prob.curved:
        try:
            nodes, arcs = _shooting_polish(prob, nodes)
        except ValueError:
            if prob.n_junc == 0:
                raise
            return _merged_network(prob, nodes, range(prob.n_term, prob.n_nodes), mult, p)
    else:
        lengths = np.linalg.norm(prob.incidence @ nodes, axis=1)
        arcs = {idx: (nodes[list(prob.edges[idx])], float(length))
                for idx, length in zip(prob.live, lengths)}
    net = WeightedNetwork(nodes, mult,
                          [NetworkArc(*prob.edges[idx], int(prob.kappa[idx]), *arcs[idx])
                           for idx in prob.live],
                          getattr(prob.metric, "name", "conformal"), p)
    unbalanced = [j for j, r in net.balance_residuals.items()
                  if r > BALANCE_TOL] if prob.curved else []
    if unbalanced:
        try:
            merged = _merged_network(prob, nodes, unbalanced[:1], mult, p)
        except ValueError:
            return net
        if merged.mass <= net.mass:
            return merged
    return net


def _merged_network(prob, nodes, juncs, mult, p) -> WeightedNetwork:
    """The network (``_network``) of ``prob``'s tree at ``nodes`` merged
    along its shortest live arc at one of the junctions ``juncs``."""
    lengths = np.linalg.norm(prob.incidence @ nodes, axis=1)
    i = min((i for i, pair in enumerate(prob.pairs) if set(pair) & set(juncs)),
            key=lengths.__getitem__)
    return _network(*_merged(prob, nodes[prob.n_term:].ravel(), *prob.pairs[i])[:2], mult, p)


def _shooting_polish(prob, nodes):
    """Geodesic arcs for a solved tree under a conformal weight: (nodes,
    {arc: (polyline, weighted length)}).  The arcs become the weight's
    two-point geodesics (``two_point_geodesic``), and Newton steps on a
    finite-difference Hessian, with a line search, balance the junctions on
    the rule of ``junction_tangents``.  Raises ValueError when an arc cannot
    be shot at the start; later it stops where it is when an arc cannot be
    shot, the Hessian is singular or no step lowers the imbalance, and the
    caller judges the residual."""
    metric = prob.metric
    juncs = range(prob.n_term, prob.n_nodes)

    def arcs_from(nodes_now):
        shot = {}
        for idx in prob.live:
            a, b = prob.edges[idx]
            # the start angle (theta0 picks its branch) is not used here
            res = metric.two_point_geodesic(nodes_now[a], nodes_now[b], 0.0, 512)
            if res is None:
                ends = [nodes_now[v].round(6).tolist() for v in (a, b)]
                raise ValueError(f"no geodesic under the weight joins {ends[0]} and {ends[1]}")
            shot[idx] = (res[0], res[3])
        return shot

    def balance(nodes_now, shot):
        """The mass's gradient in the junctions: -sum |kappa| w tau."""
        arcs = [(*prob.edges[idx], prob.kappa[idx], shot[idx][0]) for idx in prob.live]
        return np.ravel([-sum((k * wj * tau for k, tau in _end_tangents(j, arcs)), np.zeros(2))
                         for j, wj in zip(juncs, metric.w(nodes_now[prob.n_term:]))])

    nodes = nodes.copy()
    shot = arcs_from(nodes)
    for _ in range(60):
        gvec = balance(nodes, shot)
        if np.linalg.norm(gvec) < 1e-11:
            break
        # finite-difference Hessian over all junction coords
        H = np.empty((gvec.size, gvec.size))
        try:
            for col in range(gvec.size):
                nn = nodes.copy()
                nn[juncs[col // 2], col % 2] += 1e-6
                H[:, col] = (balance(nn, arcs_from(nn)) - gvec) / 1e-6
            step = np.linalg.solve(0.5 * (H + H.T), -gvec)
        except ValueError:  # an arc that cannot be shot, or a singular Hessian
            break
        t = 1.0
        for _ in range(30):
            nn = nodes.copy()
            nn[prob.n_term:] += t * step.reshape(-1, 2)
            with contextlib.suppress(ValueError):  # an arc that cannot be shot
                sh = arcs_from(nn)
                if np.linalg.norm(balance(nn, sh)) < np.linalg.norm(gvec):
                    break
            t *= 0.5
        else:
            break
        nodes, shot = nn, sh
    return nodes, shot
