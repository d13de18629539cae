"""Flat norms mod p and discrete Plateau problems as integer linear programs.

Both problems are handed to HiGHS (scipy ``milp``) as mixed-integer programs
through the one call in ``_solve_milp``, which scales to mesh-sized
instances; Plateau problems with at most 8 boundary points use an exact
Steiner dynamic program instead.  ``brute_force_flat_oracle`` is an
exhaustive reference for small complexes.
"""

from __future__ import annotations

import itertools
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
    reads as optimal.  An infeasible program raises ``ValueError``; only a
    Plateau boundary that does not bound mod p makes one, as a flat norm is
    always feasible.  A solve that ends with no incumbent raises
    ``RuntimeError``.
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

    Z ranges over integer (k+1)-chains, P over integer k-chains; R is
    eliminated.  The mixed-integer program is solved by HiGHS with a zero
    relative gap within ``time_limit`` seconds (>= 0, inf for none).  If the
    time limit stops it with an incumbent, that incumbent is returned with
    the unclosed gap in ``optimality_gap``; with no incumbent a
    ``RuntimeError`` is raised.  A chain that vanishes mod p on W has value
    0 with Z = 0 and P = T / p on W, and no program.

    The variables are boxed without losing an optimum.  With P free, the
    cost of a k-simplex e is vol_e * |t_e - (boundary Z)_e|_p, the distance
    to the nearest multiple of p, which depends on Z only mod p; replacing
    each z_f by its reduced representative keeps every such cost and does
    not raise |z_f|.  So some optimum has |z_f| <= floor(p/2), and for it
    the nearest P_e = round((t_e - (boundary Z)_e) / p) satisfies
    |P_e| <= ceil((|t_e| + c_e * floor(p/2)) / p), where c_e is the number
    of cofaces of e (outside W any P_e costs nothing; P_e = 0 there).

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
    half = p // 2
    bpi = np.ceil((np.abs(t_dense) + np.diff(B.indptr) * half) / p)
    vol_z = cx.volumes[k + 1] if has_z else np.zeros(0)
    in_wz = np.zeros(nz, dtype=bool)
    if has_z:
        in_wz[_region_indices(W, cx, k + 1)] = True
    # the join graph: simplices of degree k + 1 against their faces in W
    join = abs(B[wr])
    columns = np.flatnonzero((join.getnnz(axis=0) > 0) | in_wz)
    vmin = vol_z[in_wz].min() if in_wz.any() else math.inf

    def solve(cols, limit):
        """The decomposition that solves the boxed program with z on
        ``cols`` and 0 elsewhere."""
        mask = np.zeros(nz)
        mask[cols] = 1.0
        rows = wr[join @ mask > 0]
        z = np.zeros(nz, dtype=np.int64)
        pi = P.copy()
        nodes, gap = 0, 0.0
        if len(cols):
            x, nodes, gap = _flat_program(B[rows][:, cols], t_dense[rows], bpi[rows],
                                          vol_z[cols], in_wz[cols], cx.volumes[k][rows],
                                          p, limit)
            z[cols] = x[:len(cols)]
            pi[rows] = x[len(cols):]
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


def _flat_program(B, t, bpi, vol_z, in_wz, vol_r, p, time_limit):
    """The boxed flat-norm program on the columns of B (z) and its rows
    (pi): its integer solution (z, pi), nodes and gap."""
    from scipy import sparse

    nz, nr = B.shape[1], B.shape[0]
    wz = np.flatnonzero(in_wz)
    half = p // 2
    # variables: z (nz), pi (nr), a_z (len(wz)), a_r (nr); constraints in
    # +/- pairs: |z| <= a_z on wz, then |t - Bz - p*pi| <= a_r
    nint = nz + nr
    c_obj = np.concatenate([np.zeros(nint), vol_z[wz], vol_r])
    pm = sparse.csr_matrix([[1.0], [-1.0]])
    both = sparse.csr_matrix([[1.0], [1.0]])
    A_ub = sparse.bmat([
        [sparse.kron(sparse.eye(nz, format="csr")[wz], pm), None,
         sparse.kron(-sparse.eye(len(wz)), both), None],
        [sparse.kron(-B, pm), sparse.kron(-p * sparse.eye(nr, format="csr"), pm),
         None, sparse.kron(-sparse.eye(nr), both)],
    ], format="csr")
    b_ub = np.concatenate([np.zeros(2 * len(wz)), np.kron(-t, [1.0, -1.0])])
    n_aux = len(wz) + nr
    lb = np.concatenate([np.full(nz, -half), -bpi, np.zeros(n_aux)])
    ub = np.concatenate([np.full(nz, half), bpi, np.full(n_aux, np.inf)])
    integrality = np.concatenate([np.ones(nint), np.zeros(n_aux)])
    x, nodes, gap = _solve_milp(c_obj, A_ub, -np.inf, b_ub, lb, ub, integrality, time_limit)
    return x[:nint].astype(np.int64), nodes, gap


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
    Dreyfus-Wagner Steiner dynamic program; everything else to the
    mixed-integer program of ``_plateau_milp``, whose solve stops after
    ``time_limit`` seconds, which must be >= 0 whichever engine runs.
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
    return _plateau_milp(b, p, time_limit)


def _plateau_milp(b: ModPClass, p: int, time_limit: float) -> PlateauSolution:
    """Plateau problem as boundary(x) = b + p*y, solved by HiGHS.

    x is split into nonnegative parts bounded by floor(p/2) and y is a
    bounded integer k-1 chain.  When the time limit stops branch-and-bound
    early, the incumbent is returned with the unclosed gap in
    ``optimality_gap``; with no incumbent a ``RuntimeError`` is raised.
    """
    from scipy import sparse

    cx = b.representative.complex
    k = b.degree + 1
    n = cx.n_simplices(k)
    nb = cx.n_simplices(k - 1)
    B = cx.incidence[k].astype(float)
    b_dense = b.representative.vector.astype(float)
    half = p // 2
    vols = cx.volumes[k]

    row_nnz = np.diff(B.tocsr().indptr)
    y_bound = np.ceil((row_nnz * half + half) / p) + 1

    # variables: x+ (n), x- (n), y (nb)
    c_obj = np.concatenate([vols, vols, np.zeros(nb)])
    A = sparse.hstack([B, -B, -p * sparse.eye(nb)]).tocsr()
    lb = np.concatenate([np.zeros(2 * n), -y_bound])
    ub = np.concatenate([np.full(2 * n, float(half)), y_bound])
    x, nodes, gap = _solve_milp(c_obj, A, b_dense, b_dense, lb, ub,
                                np.ones(2 * n + nb), time_limit)
    return _plateau_solution(b, p, (x[:n] - x[n:2 * n]).astype(np.int64), gap, nodes)


def brute_force_flat_oracle(T: IntegerChain, p: int, bound: int, W: Region = None) -> float:
    """Exhaustive flat norm: minimum of mass(R)+mass(Z) over the boxed lattice.

    Enumerates Z over [-bound, bound]^(top simplices); for each Z the optimal
    P decouples per k-simplex (closest multiple of p, clamped to the box).
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
    B = cx.incidence[k + 1].toarray().astype(float) if has_z else None
    vol_r = cx.volumes[k]
    vol_z = cx.volumes[k + 1] if has_z else None
    wr = set(_region_indices(W, cx, k).tolist())
    wz = set(_region_indices(W, cx, k + 1).tolist()) if has_z else set()
    mask_r = np.array([i in wr for i in range(cx.n_simplices(k))])
    wvol_r = vol_r * mask_r

    best = math.inf
    rng = range(-bound, bound + 1)
    for z in itertools.product(rng, repeat=nz):
        zv = np.array(z, dtype=float)
        rem = t_dense - (B @ zv if has_z else 0.0)
        pi = np.clip(np.round(rem / p), -bound, bound)
        resid = np.abs(rem - p * pi)
        val = float(wvol_r @ resid)
        if has_z:
            val += sum(vol_z[i] * abs(z[i]) for i in wz)
        if val < best:
            best = val
    return best
