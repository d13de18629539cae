"""Dyadic Whitney decomposition over [0,2] x [-2,2]^(m-1), excess-driven
Whitney domains, and the recursive chain-selection map phi with its
summability bound.

Cube geometry is exact: every coordinate is an integer multiple of the cube
side 2^-(k+M), so ordering and distance checks are integer comparisons.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

__all__ = [
    "WhitneyCube",
    "WhitneyDecomposition",
    "WhitneyDomain",
    "build_decomposition",
    "is_below",
    "whitney_domain",
    "rho_and_region",
    "global_selection",
]


@dataclass(frozen=True)
class WhitneyCube:
    """Cube in layer k, row i (position within the layer thickness), lattice
    position j along the spine directions; side 2^-(k+M)."""

    m: int
    M: int
    k: int
    i: int
    j: tuple

    @property
    def side(self) -> float:
        return 2.0 ** -(self.k + self.M)

    @property
    def d_Q(self) -> float:
        return self.side * math.sqrt(self.m)

    # exact integer descriptions at denominator 2^(k+M)
    @property
    def t_min_num(self) -> int:
        return (1 << self.M) + self.i

    def center(self):
        s = self.side
        t = (self.t_min_num + 0.5) * s
        y = tuple((jj + 0.5) * s - 2.0 for jj in self.j)
        return (t,) + y

    @property
    def y_center(self):
        return tuple((jj + 0.5) * self.side - 2.0 for jj in self.j)

    def dist_v_diam_exact(self) -> bool:
        """Exact check of the distance-versus-diameter inequalities:
        2^(M+1) * side >= max dist(Q,V) >= min dist(Q,V) >= 2^M * side,
        equivalent to the stated bounds with d_Q = side * sqrt(m)."""
        lower = (1 << self.M) <= self.t_min_num
        upper = self.t_min_num + 1 <= (1 << (self.M + 1))
        return lower and upper


class WhitneyDecomposition:
    """Layers k = 0..depth-1; layer k holds 2^(mM) * 2^((m-1)(k+2)) cubes of
    side 2^-(k+M) covering [2^-k, 2^-k+1] x [-2,2]^(m-1)."""

    def __init__(self, m: int, M: int, depth: int):
        if m < 2 or M < 1 or depth < 1:
            raise ValueError("require m >= 2, M >= 1, depth >= 1")
        self.m = m
        self.M = M
        self.depth = depth

    def rows(self) -> int:
        return 1 << self.M

    def lattice_width(self, k: int) -> int:
        return 1 << (k + self.M + 2)

    def layer_count(self, k: int) -> int:
        return self.rows() * self.lattice_width(k) ** (self.m - 1)

    def layer_count_formula(self, k: int) -> int:
        return 2 ** (self.m * self.M) * 2 ** ((self.m - 1) * (k + 2))

    def cube(self, k: int, i: int, j) -> WhitneyCube:
        j = tuple(int(v) for v in j)
        if not (0 <= k < self.depth and 0 <= i < self.rows()
                and all(0 <= v < self.lattice_width(k) for v in j)):
            raise ValueError("cube index out of range")
        return WhitneyCube(self.m, self.M, k, i, j)

    def cubes(self, k: int):
        for j in _lattice(self.lattice_width(k), self.m - 1):
            for i in range(self.rows()):
                yield WhitneyCube(self.m, self.M, k, i, j)

    def all_cubes(self):
        for k in range(self.depth):
            yield from self.cubes(k)

    def column_of_point(self, k: int, y) -> tuple:
        s = 2.0 ** -(k + self.M)
        out = []
        for v in y:
            jj = int(math.floor((v + 2.0) / s))
            jj = min(max(jj, 0), self.lattice_width(k) - 1)
            out.append(jj)
        return tuple(out)

    def mbar(self) -> float:
        return 2 ** (self.M + 2) / math.sqrt(self.m)


def build_decomposition(m: int, M: int, depth: int) -> WhitneyDecomposition:
    return WhitneyDecomposition(m, M, depth)


def is_below(Q: WhitneyCube, Q2: WhitneyCube) -> bool:
    """Q is below Q2 iff the spine shadow of Q is contained in that of Q2."""
    if Q.m != Q2.m or Q.M != Q2.M:
        raise ValueError("cubes from different decompositions")
    if Q.k < Q2.k:
        return False
    shift = Q.k - Q2.k
    return all((jj >> shift) == j2 for jj, j2 in zip(Q.j, Q2.j))


class WhitneyDomain:
    """Upward-closed cube family where the excess oracle stays below tau^2
    at every cube at or above the member, at scale Mbar * d_Q.
    ``column_excess`` is the oracle's value per column, {(k, j): value}."""

    def __init__(self, decomposition: WhitneyDecomposition, tau: float,
                 member_columns: set, column_excess: dict):
        self.decomposition = decomposition
        self.tau = tau
        self.member_columns = member_columns  # {(k, j)}
        self.column_excess = column_excess

    def is_member(self, Q: WhitneyCube) -> bool:
        return (Q.k, Q.j) in self.member_columns

    def members(self):
        for k, j in sorted(self.member_columns):
            for i in range(self.decomposition.rows()):
                yield self.decomposition.cube(k, i, j)

    def __len__(self):
        return len(self.member_columns) * self.decomposition.rows()


def whitney_domain(excess_fn, tau: float, decomposition: WhitneyDecomposition) -> WhitneyDomain:
    """Member cubes per the criterion E(y_Q', Mbar * d_Q') < tau^2 for every
    Q' at or above Q.  Membership is decided per column (it does not depend
    on the row) and memoized down the layers; the oracle is called once per
    column, and its values are kept as ``column_excess``."""
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be finite and greater than 0, got {tau}")
    dec = decomposition
    tau2 = tau * tau
    members: set = set()
    column_excess: dict = {}
    for k in range(dec.depth):
        for j in _lattice(dec.lattice_width(k), dec.m - 1):
            cube = dec.cube(k, 0, j)
            radius = dec.mbar() * cube.d_Q  # = 2^(-k+2)
            column_excess[(k, j)] = excess_fn(cube.y_center, radius)
            parent_ok = True if k == 0 else \
                (k - 1, tuple(v >> 1 for v in j)) in members
            if column_excess[(k, j)] < tau2 and parent_ok:
                members.add((k, j))
    return WhitneyDomain(dec, tau, members, column_excess)


def _lattice(width: int, dims: int):
    """Points of {0..width-1}^dims, first axis fastest."""
    return (j[::-1] for j in itertools.product(range(width), repeat=dims))


def rho_and_region(W: WhitneyDomain):
    """The radial distance function rho_W and the graphicality region.

    rho_W(y) = inf{t : (t, y) in the union of member cubes}, with the
    convention inf over the empty set = 2; the region is
    {(x, y) : rho_W(y) <= |x| <= 2}.
    """
    dec = W.decomposition

    def rho(y) -> float:
        deepest = None
        for k in range(dec.depth):
            j = dec.column_of_point(k, y)
            if (k, j) in W.member_columns:
                deepest = k
            else:
                break
        return 2.0 if deepest is None else 2.0 ** -deepest

    def region_contains(x: float, y) -> bool:
        ax = abs(x)
        return rho(y) <= ax <= 2.0

    description = {
        "rho_ceiling": 2.0,
        "member_columns": len(W.member_columns),
        "depth": dec.depth,
    }
    return rho, {"contains": region_contains, **description}


# ---------------------------------------------------------------------------
# recursive global selection


def _chain(dec: WhitneyDecomposition, Q0_key, Qhat_key):
    """Chain from Q0 up its column stack, then a lexicographic shortest path
    of adjacent cubes in the top sub-layer to Q_hat.  Keys are (k, i, j)."""
    k0, i0, j0 = Q0_key
    top_row = dec.rows() - 1
    chain = []
    for i in range(i0, dec.rows()):
        chain.append((k0, i, j0))
    j = j0
    for k in range(k0 - 1, -1, -1):
        j = tuple(v >> 1 for v in j)
        for i in range(dec.rows()):
            chain.append((k, i, j))
    # lateral walk in the top sub-layer, axis by axis, one step at a time
    kh, ih, jh = Qhat_key
    if kh != 0 or ih != top_row:
        raise ValueError("Q_hat must lie in the top sub-layer")
    cur = chain[-1][2]
    pos = list(cur)
    for axis in range(dec.m - 1):
        step = 1 if jh[axis] > pos[axis] else -1
        while pos[axis] != jh[axis]:
            pos[axis] += step
            chain.append((0, top_row, tuple(pos)))
    return chain


def global_selection(decomposition_or_domain, per_cube_choice, Q_hat,
                     kappa0: int):
    """The recursive selection map phi and its summability report.

    ``per_cube_choice`` maps cube keys (k, i, j) to values in {1..kappa0}
    (the local selection h-bar).  Returns (phi, report) where
    phi(Q0_key, s) is a cube key, and the report carries, for every cube Q
    hit by phi, the sum over originating cubes Q0 of (d_Q0 / d_Q)^(m+2)
    split into the finer-layer tail (bounded by 2^M / 7 when restricted to
    cubes below Q), the same-layer count, and lateral-path contributions.
    """
    dec = decomposition_or_domain.decomposition \
        if isinstance(decomposition_or_domain, WhitneyDomain) else decomposition_or_domain
    if isinstance(Q_hat, WhitneyCube):
        Q_hat = (Q_hat.k, Q_hat.i, Q_hat.j)
    kh, ih, jh = Q_hat
    if kh != 0 or ih != dec.rows() - 1:
        raise ValueError("Q_hat must lie in the top sub-layer")

    hbar = per_cube_choice

    def trajectory(Q0):
        """phi(Q0, s) for s = 0..kappa0, computed in one pass."""
        if isinstance(Q0, WhitneyCube):
            Q0 = (Q0.k, Q0.i, Q0.j)
        chain = _chain(dec, Q0, Q_hat)
        values = [hbar[c] for c in chain]
        h0 = values[0]
        idx = [0] * (kappa0 + 1)
        idx[kappa0] = len(chain) - 1  # phi(Q0, kappa0) = Q_hat
        for s in range(kappa0 - 1, -1, -1):
            target = values[idx[s + 1]]
            if target == h0:
                idx[s] = 0
            else:
                idx[s] = values.index(target) - 1
        return [chain[i] for i in idx], chain

    def phi(Q0, s):
        return trajectory(Q0)[0][s]

    phi.trajectory = trajectory
    return phi, _selection_report(dec, hbar, Q_hat, kappa0, trajectory)


def _selection_report(dec, hbar, Q_hat, kappa0, trajectory):
    hit_sums: dict = {}
    same_layer: dict = {}
    below_tail: dict = {}
    path_tail: dict = {}
    for key in hbar:
        k0 = key[0]
        seen = set()
        traj, _ = trajectory(key)
        for q in traj:
            if q in seen:
                continue
            seen.add(q)
            if q == key:
                continue
            ratio = 2.0 ** -((k0 - q[0]) * (dec.m + 2))
            hit_sums[q] = hit_sums.get(q, 0.0) + ratio
            if q[0] == k0:
                same_layer[q] = same_layer.get(q, 0) + 1
            elif is_below(WhitneyCube(dec.m, dec.M, *key), WhitneyCube(dec.m, dec.M, *q)):
                below_tail[q] = below_tail.get(q, 0.0) + ratio
            else:
                path_tail[q] = path_tail.get(q, 0.0) + ratio
    tail_bound = 2 ** dec.M / 7.0
    return {
        "tail_bound": tail_bound,
        "max_below_tail": max(below_tail.values(), default=0.0),
        "max_same_layer_count": max(same_layer.values(), default=0),
        "max_path_tail": max(path_tail.values(), default=0.0),
        "max_total": max(hit_sums.values(), default=0.0),
        "below_tail_ok": max(below_tail.values(), default=0.0) <= tail_bound + 1e-12,
    }
