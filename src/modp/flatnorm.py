"""Flat norms mod p and discrete Plateau problems as integer linear programs.

Both problems are handed to HiGHS (scipy ``milp``) as mixed-integer programs,
which scales to mesh-sized instances; point-boundary Plateau problems use an
exact Steiner dynamic program instead.  ``brute_force_flat_oracle`` is an
exhaustive reference for small complexes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse as sp_sparse
from scipy.optimize import LinearConstraint, milp
from scipy.optimize import Bounds as OptBounds

from .complexes import (
    IntegerChain,
    ModPClass,
    SimplicialComplex,
    boundary,
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
    return np.array(sorted(int(i) for i in W.get(degree, ())), dtype=int)


def restrict_to_region(c: IntegerChain, W: Region) -> IntegerChain:
    if W is None:
        return c
    keep = set(int(i) for i in W.get(c.degree, ()))
    return IntegerChain(c.complex, c.degree, {i: v for i, v in c.coeffs.items() if i in keep})


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


def _mip_gap(res) -> float:
    """Relative gap a HiGHS ``milp`` result leaves open.

    A proven optimum reports 0, or the little HiGHS's absolute stopping gap
    of 1e-6 allows.  A solve stopped early, at its time limit, reports the
    gap HiGHS gives, or inf when that gap is missing or not positive: an
    unproven incumbent never reads as optimal.
    """
    gap = float(res.mip_gap) if res.mip_gap is not None else 0.0
    if res.status == 0:
        return max(gap, 0.0)
    return gap if gap > 0 else math.inf


def flat_norm_modp(T: IntegerChain, p: int, W: Region = None,
                   time_limit: float = 120.0) -> FlatDecomposition:
    """Minimize mass(R)+mass(Z) over W subject to T = R + boundary(Z) + p*P.

    Z ranges over integer (k+1)-chains, P over integer k-chains; R is
    eliminated.  The mixed-integer program is solved by HiGHS with a zero
    relative gap.  If the time limit stops it with an incumbent, that
    incumbent is returned with the unclosed gap in ``optimality_gap``; with
    no incumbent a ``RuntimeError`` is raised.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    cx = T.complex
    k = T.degree
    has_z = k + 1 <= cx.dim
    nz = cx.n_simplices(k + 1) if has_z else 0
    npi = cx.n_simplices(k)

    zero_pi = IntegerChain(cx, k, {})
    zero_z = IntegerChain(cx, k + 1, {}) if has_z else None

    wr = _region_indices(W, cx, k)
    wz = _region_indices(W, cx, k + 1) if has_z else np.array([], dtype=int)
    if len(wr) == 0 and len(wz) == 0:
        return FlatDecomposition(T, zero_z, zero_pi, 0.0, W, nodes=0)
    if T.is_zero():
        return FlatDecomposition(T, zero_z, zero_pi, 0.0, W, nodes=0)

    maxT = max(abs(c) for c in T.coeffs.values())
    bz = max(p, maxT) + 1
    bpi = maxT

    t_dense = T.to_dense().astype(float)
    B = cx.incidence[k + 1].tocsr().astype(float) if has_z else None
    vol_r = cx.volumes[k]
    vol_z = cx.volumes[k + 1] if has_z else np.zeros(0)

    # variables: z (nz), pi (npi), a_z (len(wz)), a_r (len(wr))
    nint = nz + npi
    nvar = nint + len(wz) + len(wr)
    c_obj = np.zeros(nvar)
    c_obj[nint:nint + len(wz)] = vol_z[wz]
    c_obj[nint + len(wz):] = vol_r[wr]

    ri: list = []
    ci: list = []
    vals: list = []
    rhs: list = []

    def entry(row, col, val):
        ri.append(row)
        ci.append(col)
        vals.append(val)

    for pos, tau in enumerate(wz):
        for sgn in (1.0, -1.0):
            r = len(rhs)
            entry(r, tau, sgn)
            entry(r, nint + pos, -1.0)
            rhs.append(0.0)
    for pos, sig in enumerate(wr):
        # a_r >= +-(T - Bz - p*pi)_sig
        lo_, hi_ = (B.indptr[sig], B.indptr[sig + 1]) if has_z else (0, 0)
        for sgn in (1.0, -1.0):
            r = len(rhs)
            for q in range(lo_, hi_):
                entry(r, int(B.indices[q]), -sgn * float(B.data[q]))
            entry(r, nz + sig, -sgn * float(p))
            entry(r, nint + len(wz) + pos, -1.0)
            rhs.append(-sgn * t_dense[sig])
    A_ub = sp_sparse.csr_matrix((vals, (ri, ci)), shape=(len(rhs), nvar))
    b_ub = np.array(rhs)

    lo0 = np.concatenate([np.full(nz, -bz), np.full(npi, -bpi), np.zeros(len(wz) + len(wr))])
    hi0 = np.concatenate([np.full(nz, bz), np.full(npi, bpi),
                          np.full(len(wz) + len(wr), np.inf)])

    integrality = np.concatenate([np.ones(nz + npi), np.zeros(len(wz) + len(wr))])
    res = milp(c_obj, constraints=LinearConstraint(A_ub, -np.inf, b_ub),
               integrality=integrality, bounds=OptBounds(lo0, hi0),
               options={"time_limit": float(time_limit), "mip_rel_gap": 0.0})
    if res.x is None:
        raise RuntimeError(f"flat norm MILP failed: {res.message}")
    x = res.x
    zc = (IntegerChain(cx, k + 1, {i: int(round(x[i])) for i in range(nz)})
          if has_z else None)
    pic = IntegerChain(cx, k, {i: int(round(x[nz + i])) for i in range(npi)})
    val, R = _exact_value(T, zc, pic, p, W)
    nn = int(res.mip_node_count) if res.mip_node_count is not None else 0
    return FlatDecomposition(R, zc, pic, val, W, nodes=nn, optimality_gap=_mip_gap(res))


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
    terminal subsets, with per-edge cost scaled by the carried residue;
    subsets whose multiplicities already balance mod p travel for free,
    which realizes every grouping of terminals into separate trees.
    """
    cx = b.representative.complex
    terminals = sorted(b.representative.coeffs)
    mult = [b.representative.coeffs[t] for t in terminals]
    T = len(terminals)
    n_v = cx.n_simplices(0)
    wts = cx.volumes[1]

    adj: list = [[] for _ in range(n_v)]
    for j, (a, c) in enumerate(cx.simplices[1]):
        adj[a].append((c, j))
        adj[c].append((a, j))

    full = (1 << T) - 1
    residue = [representative_modp(sum(mult[i] for i in range(T) if s >> i & 1), p)
               for s in range(full + 1)]
    if residue[full] != 0:
        raise ValueError("does not bound mod p")

    INF = math.inf
    cost = [[INF] * n_v for _ in range(full + 1)]
    # parent[s][v] = ("merge", s1) or ("edge", u, edge_index)
    parent: list = [[None] * n_v for _ in range(full + 1)]
    for i, t in enumerate(terminals):
        cost[1 << i][t] = 0.0

    for s in range(1, full + 1):
        row = cost[s]
        par = parent[s]
        s1 = (s - 1) & s
        while s1:
            s2 = s ^ s1
            if s1 < s2:  # each unordered split once
                r1, r2 = cost[s1], cost[s2]
                for v in range(n_v):
                    c = r1[v] + r2[v]
                    if c < row[v]:
                        row[v] = c
                        par[v] = ("merge", s1)
            s1 = (s1 - 1) & s
        scale = abs(residue[s])
        heap = [(row[v], v) for v in range(n_v) if row[v] < INF]
        heapq.heapify(heap)
        while heap:
            d, v = heapq.heappop(heap)
            if d > row[v]:
                continue
            for u, j in adj[v]:
                nd = d + scale * wts[j]
                if nd < row[u] - 1e-15:
                    row[u] = nd
                    par[u] = ("edge", v, j)
                    heapq.heappush(heap, (nd, u))

    root = int(np.argmin(cost[full]))
    if cost[full][root] == INF:
        raise RuntimeError("Steiner DP found no connected solution")

    coeffs: dict = {}
    stack = [(full, root)]
    while stack:
        s, v = stack.pop()
        step = parent[s][v]
        if step is None:
            continue
        if step[0] == "merge":
            stack.append((step[1], v))
            stack.append((s ^ step[1], v))
        else:
            _, u, j = step
            a, c = cx.simplices[1][j]
            sgn = 1 if (a, c) == (v, u) else -1
            coeffs[j] = coeffs.get(j, 0) + sgn * residue[s]
            stack.append((s, u))
    chain = reduce_modp(IntegerChain(cx, 1, coeffs), p).representative
    diff = boundary(chain) - b.representative
    if any(c % p != 0 for c in diff.coeffs.values()):
        raise RuntimeError("solver returned a chain that does not bound the class")
    return PlateauSolution(chain, mass(chain), b, 0.0, nodes=full + 1)


def plateau_modp(b: ModPClass, p: int, time_limit: float = 120.0,
                 mip_rel_gap: float = 0.0, engine: str = "auto") -> PlateauSolution:
    """Mass-minimal integer k-chain whose boundary is congruent to b mod p.

    For point boundary data with at most 8 support points the exact
    Dreyfus-Wagner Steiner engine is used.  Otherwise the problem is
    encoded as boundary(x) = b + p*y with x split into nonneg parts bounded
    by floor(p/2) and y free integer, solved by HiGHS; when the time limit
    stops branch-and-bound early, the incumbent is returned with the
    unclosed gap in ``optimality_gap``.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if b.p != p:
        raise ValueError("modulus mismatch between class and argument")
    cx = b.representative.complex
    k = b.degree + 1
    if k > cx.dim:
        raise ValueError("no simplices one degree above the boundary class")
    if b.representative.is_zero():
        zero = IntegerChain(cx, k, {})
        return PlateauSolution(zero, 0.0, b, 0.0, nodes=0)
    if engine == "dp" or (engine == "auto" and b.degree == 0
                          and len(b.representative.coeffs) <= 8):
        return _plateau_steiner_dp(b, p)

    n = cx.n_simplices(k)
    nb = cx.n_simplices(k - 1)
    B = cx.incidence[k].astype(float)
    b_dense = b.representative.to_dense().astype(float)
    half = p // 2
    vols = cx.volumes[k]

    row_nnz = np.diff(B.tocsr().indptr)
    y_bound = np.ceil((row_nnz * half + half) / p) + 1

    # variables: x+ (n), x- (n), y (nb)
    c_obj = np.concatenate([vols, vols, np.zeros(nb)])
    A = sp_sparse.hstack([B, -B, -p * sp_sparse.eye(nb)]).tocsr()
    constraint = LinearConstraint(A, b_dense, b_dense)
    lo = np.concatenate([np.zeros(2 * n), -y_bound])
    hi = np.concatenate([np.full(2 * n, float(half)), y_bound])
    integrality = np.ones(2 * n + nb)

    res = milp(c_obj, constraints=constraint, integrality=integrality,
               bounds=OptBounds(lo, hi),
               options={"time_limit": float(time_limit),
                        "mip_rel_gap": float(mip_rel_gap)})
    if res.status == 2 or (res.x is None and res.status != 0):
        raise ValueError("does not bound mod p" if res.status == 2
                         else f"solver failed: {res.message}")

    x = np.round(res.x[:n] - res.x[n:2 * n]).astype(int)
    chain = reduce_modp(IntegerChain(cx, k, {i: int(x[i]) for i in range(n)}), p).representative
    nodes = int(res.mip_node_count) if res.mip_node_count is not None else 0

    diff = boundary(chain) - b.representative
    if any(c % p != 0 for c in diff.coeffs.values()):
        raise RuntimeError("solver returned a chain that does not bound the class")
    return PlateauSolution(chain, mass(chain), b, _mip_gap(res), nodes=nodes)


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

    t_dense = T.to_dense().astype(float)
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
