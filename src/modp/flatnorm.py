"""Flat norms mod p and discrete Plateau problems as integer programs.

Both problems minimize sum_j vol_j |x_j| subject to A x = rhs mod p: for a
Plateau problem A is the boundary map and rhs the boundary data; for a flat
norm A = [I | boundary], x = (R, Z) and rhs = T, which is
T - R - boundary(Z) = 0 mod p.  Where every k-face of the program has at
most two cofaces and p is small, ``_labelling_program`` solves it as a
labelling of the (k+1)-simplices by Z_p: an LP first, and integral labels
only when the LP leaves some label fractional.  Elsewhere ``_modp_program``
states it with one box.  Both hand it to HiGHS (scipy ``milp``) through the
one call in ``_solve_milp``.  Plateau problems with at most 8 boundary
points use an exact Steiner dynamic program; larger point boundaries on a
2-complex with H_1 = 0 use the labelling program on S0 - boundary(Z), S0 a
spanning forest with the right boundary, for p <= 13.
``brute_force_flat_oracle`` is an exhaustive reference for small complexes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .complexes import (
    IntegerChain,
    ModPClass,
    SimplicialComplex,
    boundary,
    check_modulus,
    mass,
    reduce_modp,
    representative_modp,
)

__all__ = [
    "FlatDecomposition",
    "PlateauSolution",
    "flat_norm_modp",
    "flat_distance_modp",
    "plateau_modp",
    "brute_force_flat_oracle",
    "restrict_to_region",
    "mass_in_region",
]

Region = Optional[dict]


def _region_indices(W: Region, complex: SimplicialComplex, degree: int) -> np.ndarray:
    if W is None:
        return np.arange(complex.n_simplices(degree))
    return np.unique(np.fromiter(W.get(degree, ()), dtype=np.int64))


def restrict_to_region(c: IntegerChain, W: Region) -> IntegerChain:
    if W is None:
        return c
    keep = _region_indices(W, c.complex, c.degree)
    v = np.zeros_like(c.vector)
    v[keep] = c.vector[keep]
    return IntegerChain(c.complex, c.degree, v)


def mass_in_region(c: IntegerChain, W: Region) -> float:
    return mass(restrict_to_region(c, W))


@dataclass
class FlatDecomposition:
    """Witness for the flat norm: T = R + boundary(Z) + p*P, value = |R|(W)+|Z|(W)."""

    R: IntegerChain
    Z: Optional[IntegerChain]
    P: IntegerChain
    value: float
    region: Region
    nodes: int = 0
    optimality_gap: float = 0.0
    columns: int = 0  # z columns of the last program HiGHS solved


@dataclass
class PlateauSolution:
    chain: IntegerChain
    mass: float
    boundary_class: ModPClass
    optimality_gap: float
    nodes: int = 0


def _exact_value(T, z_chain, pi_chain, p, W):
    """Objective recomputed from the integer witness; also returns R."""
    R = T
    if z_chain is not None:
        R = R - boundary(z_chain)
    R = R - p * pi_chain
    val = mass_in_region(R, W)
    if z_chain is not None:
        val += mass_in_region(z_chain, W)
    return val, R


def _solve_milp(c, A, lo, hi, lb, ub, integrality, time_limit):
    """Minimize c @ x subject to lo <= A @ x <= hi and lb <= x <= ub with HiGHS.

    The one call into scipy's ``milp``: zero relative gap, integer entries
    of ``x`` rounded.  Returns ``(x, nodes, gap)``.  The gap is 0, or the
    little HiGHS's absolute stopping gap of 1e-6 allows, on a proven optimum;
    on a solve stopped at its time limit it is the gap HiGHS reports, or inf
    when that is missing or not positive, so an unproven incumbent never
    reads as optimal.  A pure LP (no integral entry) reports gap 0 and 0
    nodes when solved.  An infeasible program raises ``ValueError``; only a
    Plateau boundary that does not bound mod p makes one, as a flat norm is
    always feasible.  A solve that ends with no incumbent, an LP stopped at
    its time limit with no solution among them, raises
    ``RuntimeError("MILP failed: ...")``.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    res = milp(c, constraints=LinearConstraint(A, lo, hi), integrality=integrality,
               bounds=Bounds(lb, ub),
               options={"time_limit": float(time_limit), "mip_rel_gap": 0.0})
    if res.status == 2:
        raise ValueError("infeasible: the boundary data does not bound mod p")
    if res.x is None:
        raise RuntimeError(f"MILP failed: {res.message}")
    x = np.where(integrality > 0, np.round(res.x), res.x)
    nodes = int(res.mip_node_count) if res.mip_node_count is not None else 0
    gap = float(res.mip_gap) if res.mip_gap is not None else 0.0
    gap = max(gap, 0.0) if res.status == 0 else (gap if gap > 0 else math.inf)
    return x, nodes, gap


def _check_time_limit(time_limit) -> None:
    """Raise ValueError unless ``time_limit`` is >= 0 (inf for none); HiGHS
    would ignore a negative or NaN limit and solve without one."""
    if not time_limit >= 0:
        raise ValueError(f"time_limit must be >= 0 (inf for none), not {time_limit!r}")


def flat_norm_modp(T: IntegerChain, p: int, W: Region = None,
                   time_limit: float = 120.0) -> FlatDecomposition:
    """Minimize mass(R)+mass(Z) over W subject to T = R + boundary(Z) + p*P.

    Z ranges over integer (k+1)-chains, P over integer k-chains; R and Z
    are priced by volume in W and at 0 outside it.  When p <= 5 and each
    row of the program (a k-face of W) has at most two of its columns (the
    kept (k+1)-simplices) as cofaces, ``_labelling_program`` solves it with
    B the boundary block, R = rep(T - boundary(Z)) on its rows and P what is
    left over: one LP, proven by itself when its labels come out integral,
    and otherwise a second solve with integral labels.  Any other program
    goes to ``_modp_program``, with x = (R, Z), A = [I | boundary] and
    rhs = T, so that P = -y; its box |R_e|, |z_f| <= floor(p/2) and its
    bound on P are proved there.  Either is solved by HiGHS with a zero
    relative gap within ``time_limit`` seconds (>= 0, inf for none).  If the
    time limit stops it with an incumbent, that incumbent is returned with
    the unclosed gap in ``optimality_gap``; with no incumbent a
    ``RuntimeError`` is raised.  ``nodes`` counts each labelling LP as one
    node.  A chain that vanishes mod p on W has value 0 with Z = 0 and
    P = T / p on W, and no program.

    The program is localized to the chain (``_reach``).  Join two
    (k+1)-simplices when they share a k-face in W, and call a k-face of W
    where T is nonzero mod p a seed.  Setting Z to 0 on a component of
    supp Z that holds no coface of a seed raises no cost, and along a path
    in supp Z the simplices of W have volume at most the value.  So for any
    value V of a witness, an optimum lies on the simplices that a search
    from the seeds' cofaces reaches through at most floor(V / vmin) + 1
    simplices of W, vmin the least volume in W_{k+1}.  Call a k-face of W
    where T vanishes mod p heavy when its volume exceeds V.  If a heavy face
    e had exactly one coface f in supp Z, (boundary Z)_e = +/-z_f would be
    nonzero mod p and R alone would cost more than V; so a heavy face with
    one coface seals it to 0, across a heavy face with two cofaces both are
    in supp Z or neither is, and a face with more cofaces tells nothing
    (``_sealed``).  When the cofaces and their one-step reach are at most
    half of the columns, that program is solved first, and then the one its
    value allows, less what the closure of the rest and the sealed cofaces
    across the two-coface heavy faces reaches, unless that lies inside the
    first or is over half of the columns (then all are used).
    Both solves share ``time_limit``.  The gap reported is that of the last
    solve, which holds an optimum; if that solve finds no incumbent, the
    first witness is returned with an infinite gap.
    """
    from scipy import sparse

    check_modulus(p)
    _check_time_limit(time_limit)
    cx = T.complex
    k = T.degree
    has_z = k + 1 <= cx.dim
    nz = cx.n_simplices(k + 1) if has_z else 0
    npi = cx.n_simplices(k)
    t = T.vector
    wr = _region_indices(W, cx, k)
    P = np.zeros(npi, dtype=np.int64)
    seed = t[wr] % p != 0
    if not seed.any():
        P[wr] = t[wr] // p
        pic = IntegerChain(cx, k, P)
        return FlatDecomposition(T - p * pic, cx.chain(k + 1) if has_z else None, pic, 0.0, W)
    P[wr] = np.round(t[wr] / p)  # kept by each face that the program leaves out

    deadline = time.monotonic() + time_limit
    t_dense = t.astype(float)
    B = (cx.incidence[k + 1].tocsr().astype(float) if has_z
         else sparse.csr_matrix((npi, 0)))
    vol_z = cx.volumes[k + 1] if has_z else np.zeros(0)
    in_wz = np.zeros(nz, dtype=bool)
    if has_z:
        in_wz[_region_indices(W, cx, k + 1)] = True
    # the join graph: simplices of degree k + 1 against their faces in W
    join = abs(B[wr])
    columns = np.flatnonzero((join.getnnz(axis=0) > 0) | in_wz)
    vmin = vol_z[in_wz].min() if in_wz.any() else math.inf

    def solve(cols, limit):
        """The decomposition that solves the program with z on ``cols`` and
        0 elsewhere, and R on the faces in W of those columns."""
        mask = np.zeros(nz)
        mask[cols] = 1.0
        rows = wr[join @ mask > 0]
        z = np.zeros(nz, dtype=np.int64)
        pi = P.copy()
        nodes, gap = 0, 0.0
        if len(cols):
            Bw = B[rows][:, cols]
            cost_r = cx.volumes[k][rows]
            cost_z = np.where(in_wz[cols], vol_z[cols], 0.0)
            # the labelling program has p^2 columns per two-coface face: for
            # p >= 7 the boxed program was faster on every flat norm timed
            if p <= 5 and np.diff(Bw.indptr).max(initial=0) <= 2:
                z[cols], nodes, gap = _labelling_program(Bw, t[rows], cost_r, cost_z, p, limit)
                rest = t[rows] - np.rint(Bw @ z[cols]).astype(np.int64)
                pi[rows] = (rest - representative_modp(rest, p)) // p
            else:
                # T - R - boundary(Z) = 0 mod p, with x = (R, Z) and P = -y
                A = sparse.hstack([sparse.eye(len(rows)), Bw])
                x, y, nodes, gap = _modp_program(A, t_dense[rows],
                                                 np.concatenate([cost_r, cost_z]), p, limit)
                z[cols] = x[len(rows):]
                pi[rows] = -y
        zc = IntegerChain(cx, k + 1, z) if has_z else None
        pic = IntegerChain(cx, k, pi)
        val, R = _exact_value(T, zc, pic, p, W)
        return FlatDecomposition(R, zc, pic, val, W, nodes=nodes, optimality_gap=gap,
                                 columns=len(cols))

    start = np.zeros(nz, dtype=bool)
    start[join[seed].indices] = True  # the seeds' cofaces
    near = _reach(join, start, in_wz, 2)  # the cofaces and one step out
    if not 0 < vmin or 2 * near.sum() > len(columns):
        return solve(columns, time_limit)
    first = solve(np.flatnonzero(near), time_limit)
    allowed = _reach(join, start, in_wz, int(min(first.value / vmin, nz)) + 1)
    allowed &= ~_sealed(join, ~seed & (cx.volumes[k][wr] > first.value), ~allowed)
    if not (allowed & ~near).any():
        return first
    cols = np.flatnonzero(allowed) if 2 * allowed.sum() <= len(columns) else columns
    try:
        last = solve(cols, max(deadline - time.monotonic(), 0.0))
    except RuntimeError:  # no incumbent in the time left: the first, unproven
        first.optimality_gap = math.inf
        return first
    last.nodes += first.nodes
    return last


def _reach(join, start, costly, budget: int) -> np.ndarray:
    """The columns of ``join`` that a search from ``start`` reaches while
    passing at most ``budget`` columns marked ``costly``; two columns are
    joined when they share a row.  A boolean mask, by sparse mat-vecs."""
    joint = join.T.tocsr()

    def joined(mask):
        return joint @ (join @ mask.astype(float)) > 0

    def close(mask):  # add what free columns join to the mask
        front = mask
        while front.any():
            front = joined(front) & ~costly & ~mask
            mask = mask | front
        return mask

    seen = close(start & ~costly)
    for _ in range(budget):
        new = costly & ~seen & (start | joined(seen))
        if not new.any():
            break
        seen = close(seen | new)
    return seen


def _sealed(join, heavy, zero) -> np.ndarray:
    """The columns of ``join`` that vanish in an optimum that vanishes on
    ``zero`` and in which no row marked ``heavy`` has exactly one column in
    its support: a heavy row's only column vanishes, and across a heavy row
    with two columns, both vanish or neither does.  A boolean mask."""
    cofaces = np.diff(join.indptr)
    zero = zero.copy()
    zero[join[heavy & (cofaces == 1)].indices] = True
    return _reach(join[heavy & (cofaces == 2)], zero, np.zeros_like(zero), 0)


def flat_distance_modp(T: IntegerChain, S: IntegerChain, p: int, W: Region = None) -> float:
    if T.complex is not S.complex:
        raise ValueError("chains live on different complexes")
    return flat_norm_modp(T - S, p, W).value


def _plateau_steiner_dp(b: ModPClass, p: int) -> PlateauSolution:
    """Exact Plateau solver for 0-dimensional boundary data.

    A mass minimizer among 1-chains with boundary b mod p has forest
    support (pushing a unit around any cycle of the support is mass
    non-increasing in one direction), and on a tree the coefficient of an
    edge is the reduced sum of the terminal multiplicities it cuts off.
    Minimal forests are found by Dreyfus-Wagner dynamic programming over
    terminal subsets s, with ``cost[s]`` one row of a (2^T, n_v) array: the
    least ``cost[s1] + cost[s2]`` over splits of s, then one Dijkstra pass
    from a virtual source joined to each vertex at that cost, with edge
    lengths scaled by the residue s carries.  A subset whose multiplicities
    balance mod p is a finished forest that may lie anywhere, in any
    component: its row is its minimum, reached by a jump to the argmin.
    The witness is one minimal forest, listed in edge-index order.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    cx = b.representative.complex
    terminals = np.flatnonzero(b.representative.vector)
    n_v = cx.n_simplices(0)
    full = (1 << len(terminals)) - 1
    bits = np.arange(full + 1)[:, None] >> np.arange(len(terminals)) & 1
    residue = representative_modp(bits @ b.representative.vector[terminals], p).tolist()
    infeasible = ValueError("infeasible: the boundary data does not bound mod p")
    if residue[full] != 0:
        raise infeasible

    # both directions of each edge at residue 1; row n_v is the virtual source
    tail, head = cx.simplices[1].T
    unit = csr_matrix((np.tile(cx.volumes[1], 2), (np.r_[tail, head], np.r_[head, tail])),
                      shape=(n_v + 1, n_v + 1))
    indptr = unit.indptr.copy()

    cost = np.full((full + 1, n_v), np.inf)
    split = np.zeros((full + 1, n_v), dtype=np.int32)  # s1 of the best merge
    pred = np.full((full + 1, n_v), -1, dtype=np.int32)  # (s, v) extends (s, pred)
    for i, t in enumerate(terminals):
        cost[1 << i, t] = 0.0

    for s in range(1, full + 1):
        row = cost[s]
        s1 = (s - 1) & s
        while s1:
            s2 = s ^ s1
            if s1 < s2:  # each unordered split once
                c = cost[s1] + cost[s2]
                better = c < row
                row[better] = c[better]
                split[s, better] = s1
            s1 = (s1 - 1) & s
        if residue[s] == 0:
            root = int(np.argmin(row))
            row[:] = row[root]
            pred[s] = root
            pred[s, root] = -1
            continue
        src = np.flatnonzero(row < np.inf)
        indptr[-1] = unit.nnz + len(src)
        graph = csr_matrix((np.r_[abs(residue[s]) * unit.data, row[src]],
                            np.r_[unit.indices, src], indptr), shape=unit.shape)
        dist, via = dijkstra(graph, indices=n_v, return_predecessors=True)
        better = dist[:n_v] < row
        row[better] = dist[:n_v][better]
        pred[s, better] = via[:n_v][better]

    root = int(np.argmin(cost[full]))
    if cost[full, root] == np.inf:  # some component's terminals do not balance
        raise infeasible

    forest = []  # rows (v, u, residue[s]): the forest carries residue[s] along edge (v, u)
    stack = [(full, root)]
    while stack:
        s, v = stack.pop()
        u = int(pred[s, v])
        if u >= 0:
            if residue[s]:  # a jump carries nothing
                forest.append((v, u, residue[s]))
            stack.append((s, u))
        elif split[s, v]:
            s1 = int(split[s, v])
            stack += [(s1, v), (s ^ s1, v)]
    forest = np.array(forest, dtype=np.int64).reshape(-1, 3)
    j, sign = cx._find(1, forest[:, :2])
    coeffs = np.bincount(j, sign * forest[:, 2], cx.n_simplices(1)).astype(np.int64)
    return _plateau_solution(b, p, coeffs, 0.0, full + 1)


def _plateau_solution(b: ModPClass, p: int, coeffs: np.ndarray, gap: float,
                      nodes: int) -> PlateauSolution:
    """The reduced chain with these coefficients, checked to bound b mod p."""
    chain = reduce_modp(IntegerChain(b.representative.complex, b.degree + 1, coeffs),
                        p).representative
    if reduce_modp(boundary(chain), p) != b:
        raise RuntimeError("solver returned a chain that does not bound the class")
    return PlateauSolution(chain, mass(chain), b, gap, nodes=nodes)


def plateau_modp(b: ModPClass, p: int, time_limit: float = 120.0) -> PlateauSolution:
    """Mass-minimal integer k-chain whose boundary is congruent to b mod p.

    Point boundary data with at most 8 support points goes to the exact
    Dreyfus-Wagner Steiner dynamic program.  Point boundary data with more
    goes, for p <= 13, to ``_labelling_program`` (``_plateau_labelling``)
    when ``_acyclic_forest`` shows from the simplices alone that the complex
    is a 2-complex with H_1(K; Z_p) = 0: at most two triangles on an edge,
    an edge with one triangle in each group of triangles joined across the
    others, and V - E + F equal to its number of components.  Everything
    else, curve boundaries, complexes with holes and p >= 17 among them,
    goes to the boxed program of ``_modp_program`` (``_plateau_milp``).  A
    program's solve stops after ``time_limit`` seconds, which must be >= 0
    whichever engine runs.  The choice depends on the complex, the boundary
    and p alone.
    """
    check_modulus(p)
    _check_time_limit(time_limit)
    if b.p != p:
        raise ValueError("modulus mismatch between class and argument")
    cx = b.representative.complex
    k = b.degree + 1
    if k > cx.dim:
        raise ValueError("no simplices one degree above the boundary class")
    if b.representative.is_zero():
        return PlateauSolution(cx.chain(k), 0.0, b, 0.0, nodes=0)
    if b.degree == 0 and np.count_nonzero(b.representative.vector) <= 8:
        return _plateau_steiner_dp(b, p)
    # p^2 pair variables per edge: from p = 17 on, some boundaries solved
    # faster as the boxed program, and at p = 31 most did
    forest = _acyclic_forest(cx) if b.degree == 0 and p <= 13 else None
    if forest is not None:
        return _plateau_labelling(b, p, forest, time_limit)
    return _plateau_milp(b, p, time_limit)


def _acyclic_forest(cx: SimplicialComplex):
    """One breadth-first tree per component of the edge graph of ``cx``, as
    (hops from its root, predecessor or -9999 at a root), when ``cx`` is a
    2-complex with H_1(K; Z_p) = 0 for every p by the test below; None
    otherwise.

    The test asks that each edge have at most two triangles, that each group
    of triangles joined across two-triangle edges hold an edge with one
    triangle, and that V - E + F equal the number of components.  A 2-cycle
    mod p is +-constant on a group, as the two triangles of an edge cancel
    there, and vanishes on a group with a one-triangle edge; so H_2(K; Z_p)
    = 0, and V - E + F = b_0 - b_1 over Z_p says that b_1 = 0.  Coordinates
    play no part: a closed surface, whose cycles the count would cancel
    against H_1, fails the group test however it is drawn.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, dijkstra

    if cx.dim != 2:
        return None
    faces = abs(cx.incidence[2].tocsr())
    cofaces = np.diff(faces.indptr)
    if cofaces.max(initial=0) > 2:
        return None
    joined = faces[cofaces == 2]
    n_groups, group = connected_components(joined.T @ joined, directed=False)
    if np.bincount(group[faces[cofaces == 1].indices], minlength=n_groups).min(initial=1) == 0:
        return None
    n_v, (tail, head) = cx.n_simplices(0), cx.simplices[1].T
    graph = csr_matrix((np.ones(len(tail)), (tail, head)), shape=(n_v, n_v))
    n_comp, comp = connected_components(graph, directed=False)
    if n_v - len(tail) + cx.n_simplices(2) != n_comp:
        return None
    roots = np.unique(comp, return_index=True)[1]
    hops, pred, _ = dijkstra(graph, directed=False, indices=roots, unweighted=True,
                             min_only=True, return_predecessors=True)
    return hops.astype(np.int64), pred


def _plateau_labelling(b: ModPClass, p: int, forest, time_limit: float) -> PlateauSolution:
    """The Plateau problem for point boundary data on a complex with
    H_1(K; Z_p) = 0, as ``_labelling_program``.

    S0 carries, along the edge from each vertex of ``forest`` to its
    predecessor, the multiplicities of the vertex's subtree, so that
    boundary(S0) = b mod p; a component whose multiplicities do not sum to 0
    mod p makes the boundary infeasible.  Every chain with boundary b mod p
    is S0 - boundary(Z) mod p for some 2-chain Z, so the solution minimizes
    the mass of rep(S0 - boundary(Z)) with Z unpriced.  Another S0 would
    only relabel Z.
    """
    cx = b.representative.complex
    hops, pred = forest
    below = b.representative.vector.copy()  # the multiplicities of each subtree
    for level in range(hops.max(), 0, -1):
        v = np.flatnonzero(hops == level)
        np.add.at(below, pred[v], below[v])
    if np.any(below[pred < 0] % p):
        raise ValueError("infeasible: the boundary data does not bound mod p")
    child = np.flatnonzero(pred >= 0)
    j, sign = cx._find(1, np.c_[pred[child], child])
    s0 = np.zeros(cx.n_simplices(1), dtype=np.int64)
    s0[j] = sign * representative_modp(below[child], p)
    B = cx.incidence[2].tocsr()
    z, nodes, gap = _labelling_program(B, s0, cx.volumes[1], np.zeros(B.shape[1]), p,
                                       time_limit)
    return _plateau_solution(b, p, s0 - B @ z, gap, nodes)


def _plateau_milp(b: ModPClass, p: int, time_limit: float) -> PlateauSolution:
    """The Plateau problem as ``_modp_program`` with A the boundary map and
    rhs = b.  When the time limit stops the solve early, the incumbent is
    returned with the unclosed gap in ``optimality_gap``; with no incumbent
    a ``RuntimeError`` is raised."""
    cx = b.representative.complex
    k = b.degree + 1
    x, _, nodes, gap = _modp_program(cx.incidence[k], b.representative.vector.astype(float),
                                     cx.volumes[k], p, time_limit)
    return _plateau_solution(b, p, x, gap, nodes)


def _modp_program(A, rhs, cost, p: int, time_limit: float):
    """Minimize sum_j cost_j |x_j| over integer x with A x = rhs mod p.

    The one program of both problems, solved by HiGHS with ``_solve_milp``
    as A (x+ - x-) - p y = rhs in integers, with 0 <= x+, x- <= floor(p/2)
    and |y_e| <= ceil((|rhs_e| + floor(p/2) sum_j |A_ej|) / p).  Returns
    (x, y, nodes, gap) with x = x+ - x- and A x - p y = rhs.

    The box loses no optimum when cost >= 0.  Whether A x = rhs mod p
    depends on x mod p alone, and the representative of x_j in (-p/2, p/2]
    has the least |x_j| of its class; so some optimum has
    |x_j| <= floor(p/2), split with x+_j x-_j = 0 at the same cost.  For
    such x, p |y_e| = |(A x)_e - rhs_e| is at most
    |rhs_e| + floor(p/2) sum_j |A_ej|, and y_e is an integer.
    """
    from scipy import sparse

    m, n = A.shape
    half = p // 2
    y_bound = np.ceil((np.abs(rhs) + half * np.asarray(abs(A).sum(axis=1)).ravel()) / p)
    c_obj = np.concatenate([cost, cost, np.zeros(m)])
    A_eq = sparse.hstack([A, -A, -p * sparse.eye(m)]).tocsr()
    lb = np.concatenate([np.zeros(2 * n), -y_bound])
    ub = np.concatenate([np.full(2 * n, float(half)), y_bound])
    x, nodes, gap = _solve_milp(c_obj, A_eq, rhs, rhs, lb, ub, np.ones(2 * n + m), time_limit)
    x = x.astype(np.int64)
    return x[:n] - x[n:2 * n], x[2 * n:], nodes, gap


def _labelling_program(B, t, row_cost, col_cost, p: int, time_limit: float):
    """Minimize sum_e row_cost_e |rep(t_e - (B z)_e)| + sum_f col_cost_f |z_f|
    over integer z, where rep is the representative in (-p/2, p/2] and each
    row of the +-1 CSR matrix B has at most two entries.

    The labelling program of Kleinberg and Tardos: column f takes a one-hot
    label a_f in Z_p with z_f = rep(a_f).  A row with one entry sigma_f is
    priced linearly in its column's label; a row with two gets p^2 pair
    variables w_e(a, b) whose marginals are its columns' labels and whose
    cost is row_cost_e |rep(t_e - sigma_1 a - sigma_2 b)|; a row with none
    is a constant and left out.  Whether B z = t mod p depends on z mod p
    alone and rep(a) has the least |z| of its class, so an integral labelling
    is an optimum of the boxed program of ``_modp_program`` with A = [I | B].

    The program goes to ``_solve_milp`` as an LP.  When every label comes out
    integral (to 1e-6) the LP optimum is the integer optimum and its own
    proof; otherwise a second call, within what is left of ``time_limit``,
    makes the labels integral (the pair variables follow them).  Returns
    (z, nodes, gap), counting the LP as the root node.
    """
    from scipy import sparse

    deadline = time.monotonic() + time_limit
    n = B.shape[1]
    labels = np.arange(p)
    rep = representative_modp(labels, p)
    t = np.asarray(t, dtype=np.int64)
    sign = np.rint(B.data).astype(np.int64)
    entries = np.diff(B.indptr)
    one, two = (B.indptr[:-1][entries == c] for c in (1, 2))
    unary = np.outer(col_cost, np.abs(rep))
    e = np.flatnonzero(entries == 1)
    np.add.at(unary, B.indices[one], row_cost[e, None] * np.abs(
        representative_modp(t[e, None] - sign[one, None] * labels, p)))
    e = np.flatnonzero(entries == 2)
    pair = row_cost[e, None, None] * np.abs(representative_modp(
        t[e, None, None] - sign[two, None, None] * labels[:, None]
        - sign[two + 1, None, None] * labels, p))

    # rows: each column's labels sum to 1; each pair row's marginals
    # sum_b w(a, b) = u(f1, a) and sum_a w(a, b) = u(f2, b)
    m, nu = len(e), n * p
    w = nu + np.arange(m * p * p).reshape(m, p, p)
    marg = np.arange(m * p).reshape(m, p)
    row_ids = np.concatenate([
        np.repeat(np.arange(n), p),
        np.repeat(n + marg, p, axis=1).ravel(), n + marg.ravel(),
        np.repeat(n + m * p + marg, p, axis=1).ravel(), n + m * p + marg.ravel()])
    col_ids = np.concatenate([
        np.arange(nu),
        w.ravel(), (B.indices[two, None] * p + labels).ravel(),
        w.transpose(0, 2, 1).ravel(), (B.indices[two + 1, None] * p + labels).ravel()])
    vals = np.concatenate([np.ones(nu + m * p * p), -np.ones(m * p),
                           np.ones(m * p * p), -np.ones(m * p)])
    A = sparse.csr_matrix((vals, (row_ids, col_ids)), shape=(n + 2 * m * p, nu + m * p * p))
    rhs = np.concatenate([np.ones(n), np.zeros(2 * m * p)])
    cost = np.concatenate([unary.ravel(), pair.ravel()])
    integrality = np.zeros(len(cost))
    x, _, gap = _solve_milp(cost, A, rhs, rhs, 0.0, 1.0, integrality, time_limit)
    u = x[:nu].reshape(n, p)
    nodes = 1
    if np.abs(u - np.round(u)).max(initial=0.0) > 1e-6:
        integrality[:nu] = 1
        x, more, gap = _solve_milp(cost, A, rhs, rhs, 0.0, 1.0, integrality,
                                   max(deadline - time.monotonic(), 0.0))
        u = x[:nu].reshape(n, p)
        nodes += more
    return rep[np.argmax(u, axis=1)], nodes, gap


def brute_force_flat_oracle(T: IntegerChain, p: int, bound: int, W: Region = None) -> float:
    """Exhaustive flat norm: minimum of mass(R)+mass(Z) over the boxed lattice.

    Enumerates Z over [-bound, bound]^(top simplices), one block of lattice
    points per array step; for each Z the optimal P decouples per k-simplex
    (closest multiple of p, clamped to the box).  The order of a block's
    sums moves the last bits of a value, so each Z within a relative 1e-12
    of the least value so far is evaluated again on its own, with the sums
    in one fixed order; the minimum is taken over those.
    """
    cx = T.complex
    k = T.degree
    has_z = k + 1 <= cx.dim
    nz = cx.n_simplices(k + 1) if has_z else 0
    if nz > 12:
        raise ValueError("complex too large for brute force")
    if (2 * bound + 1) ** nz > 10 ** 7:
        raise ValueError("complex too large for brute force")

    t_dense = T.vector.astype(float)
    B = (cx.incidence[k + 1].toarray().astype(float) if has_z
         else np.zeros((len(t_dense), 0)))
    vol_r = cx.volumes[k]
    vol_z = cx.volumes[k + 1] if has_z else None
    wr = set(_region_indices(W, cx, k).tolist())
    wz = set(_region_indices(W, cx, k + 1).tolist()) if has_z else set()
    mask_r = np.array([i in wr for i in range(cx.n_simplices(k))])
    wvol_r = vol_r * mask_r

    def value(z):
        rem = t_dense - B @ z
        pi = np.clip(np.round(rem / p), -bound, bound)
        return float(wvol_r @ np.abs(rem - p * pi)) + sum(vol_z[i] * abs(z[i]) for i in wz)

    best = math.inf
    base, block = 2 * bound + 1, 1 << 14
    place = base ** np.arange(nz - 1, -1, -1)
    for start in range(0, base ** nz, block):
        z = (np.arange(start, min(start + block, base ** nz))[:, None] // place % base
             - bound).astype(float)
        rem = t_dense - z @ B.T
        pi = np.clip(np.round(rem / p), -bound, bound)
        val = np.abs(rem - p * pi) @ wvol_r + sum(vol_z[i] * np.abs(z[:, i]) for i in wz)
        near = np.flatnonzero(val <= min(best, val.min()) * (1 + 1e-12))
        best = min([best, *(value(z[j]) for j in near)])
    return best
