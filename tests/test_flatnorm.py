"""Flat norm mod p and the discrete Plateau problem."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modp
from modp import fixtures, flatnorm
from conftest import random_chain


def test_triangle_flat_norm_is_area(triangle):
    cx, t = triangle
    for p in (2, 3, 5):
        dec = modp.flat_norm_modp(t, p)
        assert dec.value == pytest.approx(0.5, abs=1e-9)


def test_witness_reconstructs_chain(triangle):
    cx, t = triangle
    p = 3
    dec = modp.flat_norm_modp(t, p)
    recon = dec.R + modp.boundary(dec.Z) + p * dec.P
    assert recon == t
    assert dec.value == pytest.approx(modp.mass(dec.R) + modp.mass(dec.Z), abs=1e-9)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 3), (4, 5)])
def test_matches_brute_oracle_small(n, p):
    cx = fixtures.strip_complex(n)
    rng = np.random.default_rng(n * 10 + p)
    for _ in range(5):
        t = random_chain(rng, cx, 1, lo=-2, hi=2)
        val = modp.flat_norm_modp(t, p).value
        oracle = modp.brute_force_flat_oracle(t, p, 3)
        assert val == pytest.approx(oracle, abs=1e-8)


def test_region_restriction_drops_outside_mass(triangle):
    cx, t = triangle
    # region containing no simplices: everything is free
    empty = {0: set(), 1: set(), 2: set()}
    assert modp.flat_norm_modp(t, 3, empty).value == pytest.approx(0.0, abs=1e-9)
    assert modp.mass_in_region(t, empty) == 0.0
    assert modp.mass_in_region(t, None) == pytest.approx(modp.mass(t))


def test_flat_distance_is_a_metric_sample():
    cx = fixtures.strip_complex(3)
    rng = np.random.default_rng(7)
    a = random_chain(rng, cx, 1, lo=-2, hi=2)
    b = random_chain(rng, cx, 1, lo=-2, hi=2)
    d_ab = modp.flat_distance_modp(a, b, 3)
    d_ba = modp.flat_distance_modp(b, a, 3)
    assert d_ab == pytest.approx(d_ba, abs=1e-8)
    assert modp.flat_distance_modp(a, a, 3) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]))
def test_adding_p_times_anything_is_invisible(seed, p):
    cx = fixtures.strip_complex(3)
    rng = np.random.default_rng(seed)
    t = random_chain(rng, cx, 1, lo=-2, hi=2)
    q = random_chain(rng, cx, 1, lo=-1, hi=1)
    base = modp.flat_norm_modp(t, p).value
    shifted = modp.flat_norm_modp(t + p * q, p).value
    assert shifted == pytest.approx(base, abs=1e-8)


def test_plateau_p2_single_terminal_pair_is_shortest_path():
    cx, info = fixtures.disk_mesh(0.2)
    v0, v1 = info["terminals"][:2]
    b = modp.reduce_modp(modp.IntegerChain(cx, 0, {v0: 1, v1: 1}), 2)
    sol = modp.plateau_modp(b, 2)
    # shortest lattice path between the two snapped terminals
    dists = {v0: 0.0}
    import heapq
    heap = [(0.0, v0)]
    adj = {}
    for j, (a, c) in enumerate(cx.simplices[1]):
        adj.setdefault(a, []).append((c, cx.volumes[1][j]))
        adj.setdefault(c, []).append((a, cx.volumes[1][j]))
    while heap:
        d, u = heapq.heappop(heap)
        if d > dists.get(u, math.inf):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dists.get(v, math.inf):
                dists[v] = nd
                heapq.heappush(heap, (nd, v))
    assert sol.mass == pytest.approx(dists[v1], abs=1e-9)


def _random_boundary(rng, cx, p, n):
    """n distinct vertices with nonzero multiplicities summing to 0 mod p (n even for p=2)."""
    pts = rng.choice(cx.n_simplices(0), size=n, replace=False)
    mult = [int(m) for m in rng.integers(1, p, size=n - 1)]
    if sum(mult) % p == 0:  # the last point needs a nonzero residue
        mult[-1] = mult[-1] % (p - 1) + 1
    mult.append(-sum(mult) % p)
    return modp.reduce_modp(
        modp.IntegerChain(cx, 0, {int(t): m for t, m in zip(pts, mult)}), p)


def test_plateau_engines_agree_on_small_mesh():
    # guards the split between the Steiner DP and the MILP in plateau_modp,
    # on up to 8 points, the cut-over
    for h, count in ((0.45, 24), (0.25, 12)):
        cx, info = fixtures.disk_mesh(h)
        # on h=0.25 the MILP takes 10 s for the symmetric three points, up to 5 s for these
        cases = [] if h == 0.25 else [modp.reduce_modp(
            modp.IntegerChain(cx, 0, {t: 1 for t in info["terminals"]}), 3)]
        rng = np.random.default_rng(606)
        for i in range(count):
            p = (2, 3, 5)[i % 3]
            n = int(rng.integers(2, 9))
            cases.append(_random_boundary(rng, cx, p, n + n % 2 if p == 2 else n))
        assert max(len(b.representative.coeffs) for b in cases) == 8
        for b in cases:
            dp = flatnorm._plateau_steiner_dp(b, b.p)
            milp = flatnorm._plateau_milp(b, b.p, 120.0)
            assert dp.mass == pytest.approx(milp.mass, abs=1e-9)
            assert milp.optimality_gap < 1e-6
            for sol in (dp, milp):
                assert modp.reduce_modp(modp.boundary(sol.chain), b.p) == b


def test_steiner_dp_masses_are_pinned():
    # masses of the heapq Dreyfus-Wagner recursion that the array DP replaced
    cx, _ = fixtures.disk_mesh(0.05)
    rng = np.random.default_rng(808)
    cases = [_random_boundary(rng, cx, p, n) for n in (3, 4, 5, 6) for p in (3, 5)]
    pinned = [0.95, 1.8500000000000008, 0.9000000000000002, 3.25,
              1.6500000000000001, 2.3000000000000003, 1.6000000000000005, 3.500000000000001]
    for b, want in zip(cases, pinned, strict=True):
        sol = flatnorm._plateau_steiner_dp(b, b.p)
        assert sol.mass == pytest.approx(want, abs=1e-12)
        assert modp.reduce_modp(modp.boundary(sol.chain), b.p) == b
        assert list(sol.chain.coeffs) == sorted(sol.chain.coeffs)
        assert flatnorm._plateau_steiner_dp(b, b.p).chain.coeffs == sol.chain.coeffs


@pytest.mark.parametrize("engine", ["dp", "milp"])
def test_plateau_on_disconnected_complex(engine):
    solve = {"dp": flatnorm._plateau_steiner_dp,
             "milp": lambda b, p: flatnorm._plateau_milp(b, p, 120.0)}[engine]
    # two unit edges in different components; `across` balances only across them
    cx = modp.SimplicialComplex([[0, 0], [1, 0], [0, 2], [1, 2]], {1: [(0, 1), (2, 3)]})
    both = modp.reduce_modp(modp.IntegerChain(cx, 0, {0: 1, 1: -1, 2: 1, 3: -1}), 3)
    across = modp.reduce_modp(modp.IntegerChain(cx, 0, {0: 1, 2: 2}), 3)
    sol = solve(both, 3)
    assert sol.mass == pytest.approx(2.0, abs=1e-12)
    assert modp.reduce_modp(modp.boundary(sol.chain), 3) == both
    with pytest.raises(ValueError, match="infeasible: the boundary data does not bound mod p"):
        solve(across, 3)


def test_plateau_mixed_multiplicities():
    cx, info = fixtures.disk_mesh(0.2)
    t0, t1, t2 = info["terminals"]
    b = modp.reduce_modp(modp.IntegerChain(cx, 0, {t0: 1, t1: 2, t2: 2}), 5)
    sol = modp.plateau_modp(b, 5)
    assert modp.reduce_modp(modp.boundary(sol.chain), 5) == b


def test_plateau_zero_boundary_is_zero():
    cx, _ = fixtures.disk_mesh(0.45)
    b = modp.reduce_modp(modp.IntegerChain(cx, 0, {}), 3)
    sol = modp.plateau_modp(b, 3)
    assert sol.mass == 0.0


def test_plateau_infeasible_residue_raises():
    cx, info = fixtures.disk_mesh(0.45)
    t0 = info["terminals"][0]
    b = modp.reduce_modp(modp.IntegerChain(cx, 0, {t0: 1}), 3)
    with pytest.raises(ValueError, match="does not bound"):
        modp.plateau_modp(b, 3)


def test_plateau_milp_without_incumbent_is_a_solver_failure():
    # more than 8 points go to the MILP, which time_limit=0 stops before any incumbent
    cx, _ = fixtures.disk_mesh(0.25)
    b = modp.reduce_modp(modp.IntegerChain(cx, 0, {v: 1 for v in range(0, 36, 4)}), 3)
    with pytest.raises(RuntimeError, match="MILP failed"):
        modp.plateau_modp(b, 3, time_limit=0.0)
    assert modp.plateau_modp(b, 3).optimality_gap < 1e-6


def test_flat_norm_matches_brute_oracle_on_random_strips():
    # guards the single HiGHS flat-norm path against the exhaustive oracle
    cx = fixtures.strip_complex(4)
    rng = np.random.default_rng(2040)
    for i in range(40):
        p = (2, 3, 5)[i % 3]
        t = random_chain(rng, cx, 1, lo=-2, hi=2)
        dec = modp.flat_norm_modp(t, p)
        assert dec.value == pytest.approx(modp.brute_force_flat_oracle(t, p, 3), abs=1e-8)
        assert 0.0 <= dec.optimality_gap < 1e-6  # HiGHS stops at an absolute gap of 1e-6
    # larger coefficients, with and without a region: the oracle's box (6)
    # holds the variable box of flat_norm_modp and the one it replaced
    # (|Z| <= max(p, max|T|) + 1, |P| <= max|T|), and the witness stays in
    # the proven box |Z| <= floor(p/2), |P_e| <= ceil((|t_e| + c_e floor(p/2)) / p)
    cofaces = np.diff(cx.incidence[2].tocsr().indptr)
    part = {1: set(range(7)), 2: {0, 1, 2}}
    for i in range(7):
        p = (2, 3, 5)[i % 3]
        W = part if i == 6 else None
        t = random_chain(rng, cx, 1, lo=-5, hi=5)
        dec = modp.flat_norm_modp(t, p, W)
        assert dec.value == pytest.approx(modp.brute_force_flat_oracle(t, p, 6, W), abs=1e-8)
        assert dec.R + modp.boundary(dec.Z) + p * dec.P == t
        assert np.abs(dec.Z.to_dense()).max() <= p // 2
        box = np.ceil((np.abs(t.to_dense()) + cofaces * (p // 2)) / p)
        assert np.all(np.abs(dec.P.to_dense()) <= box)


def test_time_limited_flat_norm_never_claims_an_unproven_value():
    cx = fixtures.strip_complex(16)
    rng = np.random.default_rng(3)
    t = random_chain(rng, cx, 1, lo=-2, hi=2)
    exact = modp.flat_norm_modp(t, 3)
    assert exact.optimality_gap < 1e-6
    with pytest.raises(RuntimeError, match="MILP failed"):
        modp.flat_norm_modp(t, 3, time_limit=0.0)  # stopped before any incumbent
    try:
        dec = modp.flat_norm_modp(t, 3, time_limit=0.05)
    except RuntimeError:
        return
    # an incumbent cut off by the time limit carries its open gap
    assert dec.optimality_gap > 1e-9 or dec.value == pytest.approx(exact.value, abs=1e-9)
