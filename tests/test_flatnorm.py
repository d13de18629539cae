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


@pytest.mark.parametrize("p, times", [(2, 1), (3, 1), (5, 1), (3, 2)])
def test_plateau_spans_a_curve_boundary(p, times):
    # a closed curve mod p, the paper's m = 2 setting: the MILP spans the
    # boundary of [-1, 1]^2 by the whole square, also 2 * boundary mod 3
    cx, _ = fixtures.grid_square_complex(2)
    square = cx.chain(2, {i: 1 for i in range(cx.n_simplices(2))})
    b = modp.reduce_modp(times * modp.boundary(square), p)
    sol = modp.plateau_modp(b, p)
    assert sol.mass == pytest.approx(4.0, abs=1e-9)
    assert sol.optimality_gap == 0.0
    assert modp.reduce_modp(modp.boundary(sol.chain), p) == b


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


@pytest.mark.parametrize("limit", [-1.0, math.nan])
def test_time_limit_that_does_nothing_is_rejected(triangle, limit):
    # HiGHS would ignore the limit and solve to optimality
    cx, t = triangle
    with pytest.raises(ValueError, match="time_limit"):
        modp.flat_norm_modp(t, 3, time_limit=limit)
    with pytest.raises(ValueError, match="time_limit"):  # vanishes mod 3: no program
        modp.flat_norm_modp(3 * t, 3, time_limit=limit)
    mesh, _ = fixtures.disk_mesh(0.25)
    few = modp.reduce_modp(modp.IntegerChain(mesh, 0, {v: 1 for v in range(0, 12, 4)}), 3)
    nine = modp.reduce_modp(modp.IntegerChain(mesh, 0, {v: 1 for v in range(0, 36, 4)}), 3)
    for b in (few, nine):  # the Steiner DP and the MILP
        with pytest.raises(ValueError, match="time_limit"):
            modp.plateau_modp(b, 3, time_limit=limit)
    assert modp.flat_norm_modp(t, 3, time_limit=math.inf).value == pytest.approx(0.5, abs=1e-9)
    assert modp.plateau_modp(few, 3, time_limit=math.inf).optimality_gap == 0.0


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


def test_chain_that_vanishes_mod_p_needs_no_program(monkeypatch):
    def no_solve(*args):
        raise AssertionError("HiGHS was called")

    monkeypatch.setattr(flatnorm, "_solve_milp", no_solve)
    cx = fixtures.strip_complex(4)
    q = random_chain(np.random.default_rng(5), cx, 1, lo=-2, hi=2)
    for p in (2, 3, 5):
        dec = modp.flat_norm_modp(p * q, p)
        assert dec.value == 0.0 and dec.nodes == dec.columns == 0
        assert dec.Z.is_zero() and dec.P == q and dec.R.is_zero()
    # vanishing mod p on the region is enough; off it P is 0
    W = {1: {0, 1, 2}, 2: {0}}
    t = 3 * q + modp.IntegerChain(cx, 1, {5: 1, 8: 2})
    dec = modp.flat_norm_modp(t, 3, W)
    assert dec.value == 0.0 and dec.Z.is_zero()
    assert dec.R + 3 * dec.P == t
    assert set(dec.P.coeffs) <= W[1]


def _ball(cx, radius):
    inside = np.linalg.norm(cx.vertices, axis=1) <= radius
    return {k: set(np.flatnonzero(inside[cx.simplices[k]].all(axis=1)).tolist())
            for k in (1, 2)}


def test_localized_program_keeps_the_value_of_the_full_program(monkeypatch):
    # sparse chains, as the decay ladder makes them: the difference of a
    # rasterized segment across a ball and a bent one with the same ends, on
    # a grid; then small closed loops and shallow arcs over their chords,
    # whose values lie below 1/8, the shortest grid edge, so that every face
    # in W where T vanishes mod p is heavy.  Each is solved on the
    # neighbourhood of the chain, the small ones again without the seal, and
    # all again with the neighbourhood forced to every column and nothing
    # sealed
    cx, spacing = fixtures.grid_square_complex(16)
    cofaces = np.diff(cx.incidence[2].tocsr().indptr)
    rng = np.random.default_rng(2020)
    cases = []
    for i in range(40):
        p = (2, 3, 5)[i % 3]
        t = cx.chain(1)
        for _ in range(int(rng.integers(1, 3))):
            a, b = rng.uniform(-1, 1, (2, 2)) * rng.uniform(0.5, 1, (2, 1))
            b = -np.sign(a) * np.abs(b)  # the far quadrant: the segment crosses the ball
            bent = np.array([a, (a + b) / 2 + rng.uniform(-0.1, 0.1, 2), b])
            t = t + int(rng.integers(1, p)) * (
                fixtures.rasterize_polyline(cx, spacing, np.array([a, b]))
                - fixtures.rasterize_polyline(cx, spacing, bent))
        cases.append((t, p, _ball(cx, rng.uniform(0.3, 0.9))))
    rng = np.random.default_rng(2323)
    for i in range(20):
        p = (2, 3, 5)[i % 3]
        if i % 2:  # a small closed loop
            n = int(rng.integers(3, 5))
            angle = (rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(n) / n
                     + rng.uniform(-0.3, 0.3, n))
            corners = rng.uniform(-0.3, 0.3, 2) + rng.uniform(0.16, 0.24, (n, 1)) * np.c_[
                np.cos(angle), np.sin(angle)]
            t = fixtures.rasterize_polyline(cx, spacing, np.vstack([corners, corners[:1]]))
        else:  # a chord and a shallow arc over it
            a = rng.uniform(-0.3, 0.3, 2)
            phi = rng.uniform(0, 2 * np.pi)
            b = a + rng.uniform(0.4, 0.8) * np.array([np.cos(phi), np.sin(phi)])
            s = np.linspace(0, 1, 9)[:, None]
            normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
            arc = a + s * (b - a) + rng.uniform(0.08, 0.14) * 4 * s * (1 - s) * normal
            t = (fixtures.rasterize_polyline(cx, spacing, np.array([a, b]))
                 - fixtures.rasterize_polyline(cx, spacing, arc))
        cases.append((t, p, None if i % 4 == 0 else _ball(cx, rng.uniform(0.65, 0.8))))
    small = cases[40:]
    local = [modp.flat_norm_modp(t, p, W) for t, p, W in cases]
    monkeypatch.setattr(flatnorm, "_sealed", lambda join, heavy, zero: np.zeros_like(zero))
    unsealed = [modp.flat_norm_modp(t, p, W) for t, p, W in small]
    monkeypatch.setattr(flatnorm, "_reach",
                        lambda join, start, costly, budget: np.ones(join.shape[1], bool))
    fulls = [modp.flat_norm_modp(t, p, W) for t, p, W in cases]
    for (t, p, W), dec, full in zip(cases, local, fulls, strict=True):
        assert dec.value == pytest.approx(full.value, abs=1e-9)
        assert dec.optimality_gap < 1e-6 and full.optimality_gap < 1e-6
        assert dec.R + modp.boundary(dec.Z) + p * dec.P == t
        assert np.abs(dec.Z.to_dense()).max() <= p // 2
        box = np.ceil((np.abs(t.to_dense()) + cofaces * (p // 2)) / p)
        assert np.all(np.abs(dec.P.to_dense()) <= box)
        assert dec.columns <= full.columns
    assert sum(dec.value > 0 for dec in local[:40]) >= 30
    # a quarter end on fewer columns than the region offers; the rest are 0,
    # or have values that allow over half of them
    assert sum(0 < d.columns < f.columns for d, f in zip(local[:40], fulls)) >= 9
    # every small chain has a value below the edge; the seal ends at least
    # half of them on fewer columns
    assert all(0 < dec.value < spacing for dec in local[40:])
    assert sum(d.columns < u.columns for d, u in zip(local[40:], unsealed, strict=True)) >= 10


@pytest.mark.parametrize("width,p", [(w, p) for w in (3, 4) for p in (2, 3, 5)])
def test_second_program_reaches_the_middle_of_a_wide_filling(width, p):
    # the optimal Z fills a square loop 3 or 4 cells wide; its middle lies
    # beyond the loop's cofaces and their neighbours, where the first
    # program ends, so only the second program, which the first value
    # allows, finds the filling
    cx, spacing = fixtures.grid_square_complex(8)
    corners = width / 2 * spacing * np.array([[-1, -1], [1, -1], [1, 1], [-1, 1], [-1, -1]])
    t = fixtures.rasterize_polyline(cx, spacing, corners)
    dec = modp.flat_norm_modp(t, p)
    assert dec.value == pytest.approx((width * spacing) ** 2, abs=1e-12)  # 0.5625, 1.0
    assert dec.R.is_zero() and modp.boundary(dec.Z) + p * dec.P == t


def _open_book_with_a_strip():
    # an open book: two thin pages A and B and a tall page C on the spine
    # (0, 1), which T does not touch; C's other edges have no second coface,
    # so C is sealed, but the optimum fills A and B across the spine.  A
    # strip N, M, Q hangs off A, with its open edges outside W, and four far
    # triangles pad the complex, so that a second program runs on what the
    # first value allows
    verts = [(0, 0, 0), (1, 0, 0), (0.5, 0.02, 0), (0.5, -0.02, 0), (0.5, 0, 1),
             (0.25, 0.6, 0), (0.75, 0.6, 0), (0.5, 1.1, 0)]
    tris = [(0, 1, 2), (0, 3, 1), (0, 1, 4), (0, 2, 5), (2, 5, 6), (5, 6, 7)]
    for i in range(4):
        verts += [(5 + i, 5, 0), (5.1 + i, 5, 0), (5 + i, 5.02, 0)]
        tris.append((len(verts) - 3, len(verts) - 2, len(verts) - 1))
    edges = sorted({tuple(sorted(e)) for a, b, c in tris for e in ((a, b), (b, c), (a, c))})
    cx = modp.SimplicialComplex(verts, {1: edges, 2: tris})
    open_edges = {(0, 5), (2, 6), (5, 7), (6, 7)}
    W = {1: {i for i, e in enumerate(edges) if e not in open_edges}, 2: set(range(len(tris)))}
    t = modp.boundary(modp.IntegerChain(cx, 2, {0: 1, 1: 1}))
    assert t.vector[edges.index((0, 1))] == 0
    return t, W


def test_a_heavy_face_with_three_cofaces_passes_no_seal_on(monkeypatch):
    t, W = _open_book_with_a_strip()
    programs = []
    solve = flatnorm._solve_milp
    monkeypatch.setattr(flatnorm, "_solve_milp", lambda *a: programs.append(a) or solve(*a))
    dec = modp.flat_norm_modp(t, 3, W)
    assert len(programs) == 2 and dec.columns == 5  # C is left out
    assert dec.value == pytest.approx(0.02, abs=1e-12)
    assert dec.value == pytest.approx(modp.brute_force_flat_oracle(t, 3, 1, W), abs=1e-12)
    assert dec.Z.coeffs == {0: 1, 1: 1} and dec.R.is_zero()


def test_second_program_without_incumbent_returns_the_first_unproven(monkeypatch):
    # the second program stops with no incumbent: the first program's
    # witness comes back, with its own value and an infinite gap
    t, W = _open_book_with_a_strip()
    programs, made = [], []
    solve, decomposition = flatnorm._solve_milp, flatnorm.FlatDecomposition

    def first_only(*a):
        programs.append(a)
        if len(programs) == 2:
            raise RuntimeError("MILP failed: Time limit reached")
        return solve(*a)

    monkeypatch.setattr(flatnorm, "_solve_milp", first_only)
    monkeypatch.setattr(flatnorm, "FlatDecomposition",
                        lambda *a, **kw: made.append(decomposition(*a, **kw)) or made[-1])
    dec = modp.flat_norm_modp(t, 3, W)
    assert len(programs) == 2 and len(made) == 1 and dec is made[0]
    assert dec.R + modp.boundary(dec.Z) + 3 * dec.P == t
    assert dec.value == modp.mass_in_region(dec.R, W) + modp.mass_in_region(dec.Z, W)
    assert dec.optimality_gap == math.inf


def test_region_indices_out_of_range_are_rejected(triangle):
    # a region names simplices as a chain does: no index past the end and
    # none below 0, which numpy would read from the end
    cx, t = triangle
    with pytest.raises(ValueError, match="out of range in degree 1"):
        modp.flat_norm_modp(t, 3, {1: [0, 1, 99]})
    negative = {1: [-1], 2: [0]}
    for call in (lambda: modp.flat_norm_modp(t, 2, negative),
                 lambda: modp.brute_force_flat_oracle(t, 2, 1, negative),
                 lambda: modp.mass_in_region(t, {1: [-1]}),
                 lambda: modp.restrict_to_region(t, {1: [3]})):
        with pytest.raises(ValueError, match="out of range in degree 1"):
            call()
    with pytest.raises(ValueError, match="out of range in degree 2"):
        modp.flat_norm_modp(t, 2, {1: [0], 2: [1]})
    assert modp.mass_in_region(t, {1: [0, 1, 2]}) == pytest.approx(modp.mass(t))


@pytest.mark.parametrize("bound", [-1, 1.0, 2.5, "3", None])
def test_oracle_bound_must_be_a_nonnegative_integer(triangle, bound):
    cx, t = triangle
    with pytest.raises(ValueError, match="bound"):
        modp.brute_force_flat_oracle(t, 3, bound)


def test_oracle_takes_a_zero_or_numpy_integer_bound(triangle):
    cx, t = triangle
    assert modp.brute_force_flat_oracle(t, 3, 0) == pytest.approx(modp.mass(t))
    assert modp.brute_force_flat_oracle(t, 3, np.int64(1)) == pytest.approx(0.5)


def test_light_faces_where_t_vanishes_seal_nothing():
    # a ladder of four 0.1 x 1 rectangles; T is its two end rungs.  The
    # optimum fills the ladder and pays R along its top and bottom, edges
    # where T vanishes that have one coface each; they are shorter than the
    # first program's value (2, T itself), so they seal nothing, and the
    # second program reaches the middle of the ladder
    m, dx = 4, 0.1
    verts = [(i * dx, y) for y in (0.0, 1.0) for i in range(m + 1)]
    tris = [t for i in range(m) for t in ((i, i + 1, m + i + 2), (i, m + i + 2, m + i + 1))]
    edges = sorted({tuple(sorted(e)) for a, b, c in tris for e in ((a, b), (b, c), (a, c))})
    cx = modp.SimplicialComplex(verts, {1: edges, 2: tris})
    rim = modp.boundary(modp.IntegerChain(cx, 2, {j: 1 for j in range(len(tris))}))
    rungs = [edges.index((0, m + 1)), edges.index((m, 2 * m + 1))]
    t = modp.IntegerChain(cx, 1, {j: int(rim.vector[j]) for j in rungs})
    for p in (2, 3, 5):
        dec = modp.flat_norm_modp(t, p)
        assert dec.value == pytest.approx(m * dx + 2 * m * dx, abs=1e-12)
        assert dec.value == pytest.approx(modp.brute_force_flat_oracle(t, p, 1), abs=1e-12)
        assert dec.R + modp.boundary(dec.Z) + p * dec.P == t


# regions of strip_complex(4), two of them with an empty W_{k+1}
_STRIP_REGIONS = [{1: {0, 1, 2, 3, 4, 5}, 2: {0, 1}}, {1: {2, 3, 4, 5, 6}, 2: {1, 2, 3}},
                  {1: set(range(9)), 2: set()}, {1: {0, 3, 4, 6, 7}, 2: set()}]


def test_localized_program_matches_brute_oracle_with_regions():
    # on the strip the neighbourhood of a chain in a region, and one that
    # no coface of W costs anything to cross (an empty W_{k+1})
    cx = fixtures.strip_complex(4)
    rng = np.random.default_rng(77)
    for i in range(24):
        p = (2, 3, 5)[i % 3]
        W = _STRIP_REGIONS[i % 4]
        t = random_chain(rng, cx, 1, lo=-2, hi=2, density=0.4)
        dec = modp.flat_norm_modp(t, p, W)
        assert dec.value == pytest.approx(modp.brute_force_flat_oracle(t, p, 3, W), abs=1e-8)
        assert dec.R + modp.boundary(dec.Z) + p * dec.P == t


def _witness_inputs():
    # labelling programs (p = 2, 3, 5) and boxed ones (p = 7) on a long
    # strip; a heavy face with three cofaces; regions that leave faces out;
    # and two p = 2 chains with a seed face that has no coface at all
    cx = fixtures.strip_complex(32)
    rng = np.random.default_rng(35)
    for p in (2, 3, 5, 7):
        for _ in range(3):
            yield random_chain(rng, cx, 1, lo=-2, hi=2), p, None
    t, W = _open_book_with_a_strip()
    yield t, 3, W
    cx = fixtures.strip_complex(4)
    for i, W in enumerate(_STRIP_REGIONS):
        yield random_chain(rng, cx, 1, lo=-3, hi=3), (2, 3, 5)[i % 3], W
    line = modp.SimplicialComplex([[0.0], [1.0], [3.0]], {1: [(0, 1), (1, 2)]})
    yield modp.IntegerChain(line, 1, {0: -1, 1: 3}), 2, None
    cx = modp.SimplicialComplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]],
                                {1: [(0, 1), (1, 2), (2, 0), (1, 3)], 2: [(0, 1, 2)]})
    yield modp.IntegerChain(cx, 1, {0: 1, 1: 1, 3: -1}), 2, None


def test_witness_is_the_representative_of_what_z_leaves():
    # one rule on every path: R = rep(T - boundary(Z)) in (-p/2, p/2] on
    # W's k-faces, R = T - boundary(Z) off them, and P what is left over
    for t, p, W in _witness_inputs():
        dec = modp.flat_norm_modp(t, p, W)
        rest = (t - modp.boundary(dec.Z) if dec.Z is not None else t).to_dense()
        inside = np.zeros(len(rest), dtype=bool)
        inside[list(W[t.degree]) if W else slice(None)] = True
        R = dec.R.to_dense()
        assert np.array_equal(R[inside], modp.representative_modp(rest[inside], p))
        assert np.array_equal(R[~inside], rest[~inside])
        assert np.array_equal(R + p * dec.P.to_dense(), rest)
        z_mass = modp.mass_in_region(dec.Z, W) if dec.Z is not None else 0.0
        assert dec.value == modp.mass_in_region(dec.R, W) + z_mass


def test_region_degrees_the_complex_lacks_are_rejected(triangle):
    # a region names degrees of the complex, 0 to its dimension
    cx, t = triangle
    for W in ({5: [0]}, {-1: [3]}, {5: [0], -1: [3]}, {"1": [0]}, {1.0: [0]}):
        for call in (lambda: modp.flat_norm_modp(t, 3, W),
                     lambda: modp.mass_in_region(t, W),
                     lambda: modp.brute_force_flat_oracle(t, 3, 1, W)):
            with pytest.raises(ValueError, match="region degree"):
                call()
    assert modp.mass_in_region(t, {0: [0], 1: [0], 2: [0]}) == pytest.approx(1.0)


def _labelled_value(B, t, row_cost, col_cost, p, z):
    rest = t - np.rint(B @ z).astype(np.int64)
    return float(row_cost @ np.abs(modp.representative_modp(rest, p)) + col_cost @ np.abs(z))


def _boxed_value(B, t, row_cost, col_cost, p):
    # the same program as _modp_program with A = [I | B], its witness checked
    from scipy import sparse

    A = sparse.hstack([sparse.eye(B.shape[0]), B]).tocsr()
    x, y, _, gap = flatnorm._modp_program(A, t.astype(float), np.r_[row_cost, col_cost], p,
                                          math.inf)
    assert gap < 1e-6
    assert np.array_equal(np.rint(A @ x).astype(np.int64) - p * y, t)
    assert np.abs(x).max(initial=0) <= p // 2
    return float(np.r_[row_cost, col_cost] @ np.abs(x))


def _recorded_programs(monkeypatch):
    # every labelling program solved from here on, with its answer
    programs = []
    solve = flatnorm._labelling_program

    def record(*args):
        out = solve(*args)
        programs.append((args, out))
        return out

    monkeypatch.setattr(flatnorm, "_labelling_program", record)
    return programs


def test_labelling_program_matches_the_boxed_program_on_flat_norms(taylor_p3, monkeypatch):
    # seeded strip_complex(32) chains and the four localized ladder programs
    # of taylor_p3: each labelling program has the boxed program's value,
    # and its witness has values in (-p/2, p/2]
    programs = _recorded_programs(monkeypatch)
    cx = fixtures.strip_complex(32)
    rng = np.random.default_rng(2929)
    for i in range(9):
        p = (2, 3, 5)[i % 3]
        t = random_chain(rng, cx, 1, lo=-1, hi=1, density=0.3)
        dec = modp.flat_norm_modp(t, p)
        assert dec.R + modp.boundary(dec.Z) + p * dec.P == t
        assert dec.optimality_gap == 0.0
    strips = len(programs)
    assert strips >= 9
    decs = modp.taylor._flat_ladder(taylor_p3, taylor_p3.singular_circles[0],
                                    [0.2, 0.1, 0.05, 0.025])
    assert len(programs) == strips + 4 and all(dec.optimality_gap == 0.0 for dec in decs)
    for (B, t, row_cost, col_cost, p, _), (z, _, gap) in programs:
        assert gap == 0.0 and np.all((-p / 2 < z) & (z <= p / 2))
        assert _labelled_value(B, t, row_cost, col_cost, p, z) == pytest.approx(
            _boxed_value(B, t, row_cost, col_cost, p), abs=1e-9)


def _seeded_boundary(cx, seed):
    # T distinct random vertices, multiplicities in [1, p), the last one
    # balancing the sum mod p
    rng = np.random.default_rng(seed)
    p = (2, 3, 5)[seed % 3]
    pts = rng.choice(cx.n_simplices(0), int(rng.integers(9, 15)), replace=False)
    mult = [int(m) for m in rng.integers(1, p, len(pts))]
    mult[-1] = (mult[-1] - sum(mult)) % p
    return modp.reduce_modp(modp.IntegerChain(cx, 0, dict(zip(pts.tolist(), mult))), p)


@pytest.mark.parametrize("seed,fractional", [(0, True), (19, True), (39, True), (84, True),
                                             (8, False), (12, False), (16, False), (29, False)])
def test_labelling_plateau_matches_the_boxed_program(seed, fractional, monkeypatch):
    # 9 to 14 points on disk_mesh(0.25), p = 2, 3 and 5; a fractional LP
    # (seed 19: 3.875 against 4) takes one more call, with integral labels,
    # and lands on the boxed program's value
    cx, _ = fixtures.disk_mesh(0.25)
    b = _seeded_boundary(cx, seed)
    assert len(b.representative.coeffs) > 8
    calls = []
    solve = flatnorm._solve_milp
    monkeypatch.setattr(flatnorm, "_solve_milp",
                        lambda *a: calls.append(a[6].any()) or solve(*a))
    sol = modp.plateau_modp(b, b.p)
    assert calls == ([False, True] if fractional else [False])
    milp = flatnorm._plateau_milp(b, b.p, 120.0)
    assert sol.mass == pytest.approx(milp.mass, abs=1e-9)
    assert sol.optimality_gap < 1e-6 and milp.optimality_gap < 1e-6
    for s in (sol, milp):
        assert modp.reduce_modp(modp.boundary(s.chain), b.p) == b


def test_labelling_plateau_on_two_disks(monkeypatch):
    # ten points, five on each of two disjoint disks: balanced on each disk,
    # the value is the sum of the two disks' values; balanced only across
    # them, infeasible (the boxed program ran into a 120 s limit on this)
    def no_boxed(*args):
        raise AssertionError("the boxed program was called")

    monkeypatch.setattr(flatnorm, "_plateau_milp", no_boxed)
    cx, _ = fixtures.disk_mesh(0.25)
    n = cx.n_simplices(0)
    both = _two_disks(cx)
    pts = [3, 11, 20, 38, 52]
    left, right = dict(zip(pts, [1, 1, 2, 1, 1])), dict(zip(pts, [2, 2, 1, 2, 2]))
    b = modp.reduce_modp(modp.IntegerChain(
        both, 0, {**left, **{v + n: m for v, m in right.items()}}), 3)
    sol = modp.plateau_modp(b, 3)
    alone = [modp.plateau_modp(modp.reduce_modp(modp.IntegerChain(cx, 0, c), 3), 3).mass
             for c in (left, right)]
    assert sol.mass == pytest.approx(sum(alone), abs=1e-9)
    assert modp.reduce_modp(modp.boundary(sol.chain), 3) == b
    # five 1s on the left (2 mod 3) and five 2s on the right (1 mod 3)
    across = modp.reduce_modp(modp.IntegerChain(
        both, 0, {**dict.fromkeys(pts, 1), **dict.fromkeys([v + n for v in pts], 2)}), 3)
    with pytest.raises(ValueError, match="infeasible: the boundary data does not bound mod p"):
        modp.plateau_modp(across, 3)


def _two_disks(cx):
    # two disjoint copies of cx, the second shifted right by 3 and numbered after the first
    n = cx.n_simplices(0)
    return modp.SimplicialComplex(np.r_[cx.vertices, cx.vertices + [3.0, 0.0]],
                                  {k: np.r_[cx.simplices[k], cx.simplices[k] + n]
                                   for k in (1, 2)})


def test_plateau_balanced_only_across_disks_is_infeasible_before_any_program(monkeypatch):
    # p = 17 goes to the boxed program, which takes seconds to prove that a
    # boundary summing to 0 mod p only across the two disks has no solution,
    # or stops at its time limit first and raises RuntimeError
    def no_program(*args):
        raise AssertionError("a program was solved")

    monkeypatch.setattr(flatnorm, "_solve_milp", no_program)
    cx, _ = fixtures.disk_mesh(0.25)
    n = cx.n_simplices(0)
    pts = [3, 11, 20, 38, 52]
    across = modp.reduce_modp(modp.IntegerChain(_two_disks(cx), 0, {
        **dict.fromkeys(pts, 1), **dict.fromkeys([v + n for v in pts], 16)}), 17)
    with pytest.raises(ValueError, match="infeasible: the boundary data does not bound mod p"):
        modp.plateau_modp(across, 17, time_limit=5)


@pytest.mark.parametrize("two", [False, True], ids=["one_disk", "two_disks"])
def test_rooted_steiner_dp_matches_the_labelling_program(two):
    # 2 to 8 points, p = 2, 3, 5 and 7; on two disks each disk's points
    # balance on their own, and the DP's root (the last terminal, on the
    # second disk) lies with the fewer points
    disk, _ = fixtures.disk_mesh(0.25)
    cx = _two_disks(disk) if two else disk
    forest = flatnorm._acyclic_forest(cx)
    n = disk.n_simplices(0)
    rng = np.random.default_rng(3030 + two)
    for i in range(16):
        p = (2, 3, 5, 7)[i % 4]
        if two:
            right = 2 if p == 2 else int(rng.integers(2, 4))
            left = int(rng.choice(range(right + 1 + (p == 2), 9 - right, 1 + (p == 2))))
            counts = (left, right)
        else:
            counts = (int(rng.integers(1, 5)) * 2 if p == 2 else int(rng.integers(2, 9)),)
        coeffs = {}
        for shift, count in zip((0, n), counts):
            part = _random_boundary(rng, disk, p, count).representative.coeffs
            coeffs.update({v + shift: m for v, m in part.items()})
        b = modp.reduce_modp(modp.IntegerChain(cx, 0, coeffs), p)
        dp = flatnorm._plateau_steiner_dp(b, p)
        assert dp.nodes == 2 ** (len(coeffs) - 1)
        labelling = flatnorm._plateau_labelling(b, p, forest, math.inf)
        assert dp.mass == pytest.approx(labelling.mass, abs=1e-9)
        assert labelling.optimality_gap < 1e-6
        assert modp.reduce_modp(modp.boundary(dp.chain), p) == b
        if two:  # one multiplicity moved across: balanced only across the disks
            first, moved = min(coeffs), max(coeffs)
            shifted = modp.reduce_modp(modp.IntegerChain(
                cx, 0, {**coeffs, first: coeffs[first] + 1, moved: coeffs[moved] - 1}), p)
            with pytest.raises(ValueError, match="infeasible"):
                flatnorm._plateau_steiner_dp(shifted, p)


def test_plateau_on_a_disk_with_a_hole_takes_the_boxed_program(monkeypatch):
    # disk_mesh(0.25) without its middle triangle has V - E + F = 0 but one
    # component, so H_1 != 0: the optimum here winds around the hole, where
    # S0 - boundary(Z) cannot reach, and the labelling program would read
    # 2.75 for this 10-point boundary mod 3 where the optimum is 2.25
    disk, _ = fixtures.disk_mesh(0.25)
    middle = disk.vertices[disk.simplices[2]].mean(axis=1)
    hole = int(np.argmin(np.linalg.norm(middle, axis=1)))
    cx = modp.SimplicialComplex(disk.vertices, {1: disk.simplices[1],
                                                2: np.delete(disk.simplices[2], hole, axis=0)})
    assert flatnorm._acyclic_forest(cx) is None
    near = np.argsort(np.linalg.norm(disk.vertices - middle[hole], axis=1))[:30]
    rng = np.random.default_rng(4)
    pts = rng.choice(near, 10, replace=False).tolist()
    mult = [int(m) for m in rng.integers(1, 3, 10)]
    mult[-1] = (mult[-1] - sum(mult)) % 3
    b = modp.reduce_modp(modp.IntegerChain(cx, 0, dict(zip(pts, mult))), 3)
    boxed = []
    solve = flatnorm._plateau_milp
    monkeypatch.setattr(flatnorm, "_plateau_milp", lambda *a: boxed.append(a) or solve(*a))
    sol = modp.plateau_modp(b, 3)
    assert len(boxed) == 1
    assert sol.mass == pytest.approx(2.25, abs=1e-9)
    assert sol.mass == pytest.approx(solve(b, 3, 120.0).mass, abs=1e-9)
    # the disk's trees have the same edges: the labelling program on them
    wrong = flatnorm._plateau_labelling(b, 3, flatnorm._acyclic_forest(disk), math.inf)
    assert wrong.mass == pytest.approx(2.75, abs=1e-9)


def test_integral_lp_proves_the_flat_norm_exactly():
    # the 40 seeded strip_complex(4) chains of the oracle test: each labelling
    # LP is integral, so the value is the oracle's to 1e-12 with gap 0
    cx = fixtures.strip_complex(4)
    rng = np.random.default_rng(2040)
    for i in range(40):
        p = (2, 3, 5)[i % 3]
        t = random_chain(rng, cx, 1, lo=-2, hi=2)
        dec = modp.flat_norm_modp(t, p)
        assert dec.value == pytest.approx(modp.brute_force_flat_oracle(t, p, 3), abs=1e-12)
        assert dec.optimality_gap == 0.0


def _sphere_with_a_loop(n):
    # the boundary of a tetrahedron, drawn in the plane with overlapping
    # triangles, and a loop of n edges through new vertices at vertex 0:
    # one component and V - E + F = 1, but H_1 = H_2 = Z
    ang = np.linspace(0, 2 * np.pi, n, endpoint=False)[1:]
    ang = ang + 0.15 * np.sin(3 * ang)
    vertices = np.r_[[(0, 0), (1, 0), (0.5, 1), (0.5, 0.3)],
                     np.c_[np.cos(ang) - 1, np.sin(ang)]]
    ring = [0, *range(4, n + 3), 0]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             *(sorted(ring[i:i + 2]) for i in range(n))]
    return modp.SimplicialComplex(vertices, {1: np.array(edges),
                                             2: np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3),
                                                          (1, 2, 3)])})


def test_plateau_on_a_sphere_with_a_loop_takes_the_boxed_program():
    # the count V - E + F alone would pass this complex, and S0 - boundary(Z)
    # is then fixed on the loop, where a 9-point boundary mod 3 would read
    # 4.79 against the optimum 3.39; the sphere has no one-triangle edge,
    # so the H_1 check sends it to the boxed program
    cx = _sphere_with_a_loop(12)
    assert cx.n_simplices(0) - cx.n_simplices(1) + cx.n_simplices(2) == 1
    assert flatnorm._acyclic_forest(cx) is None
    b = modp.reduce_modp(modp.IntegerChain(cx, 0, dict.fromkeys([0, 4, 5, 7, 8, 9, 10, 11, 12],
                                                                1)), 3)
    sol = modp.plateau_modp(b, 3)
    assert sol.mass == pytest.approx(flatnorm._plateau_milp(b, 3, 120.0).mass, abs=1e-9)
    assert sol.mass == pytest.approx(3.3866036499326406, abs=1e-9)
    assert modp.reduce_modp(modp.boundary(sol.chain), 3) == b


def test_a_closed_surface_fails_the_h1_check():
    # the six-vertex projective plane: V - E + F = 1 on one component, and
    # H_1 = Z_2 mod 2; every edge has two triangles, so no group is open
    faces = np.array([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4),
                      (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)])
    edges = np.unique(np.sort(faces[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1), axis=0)
    angle = np.arange(6) * np.pi / 3
    cx = modp.SimplicialComplex(np.c_[np.cos(angle), np.sin(angle)], {1: edges, 2: faces})
    assert (6, 15, 10) == tuple(cx.n_simplices(k) for k in range(3))
    assert np.all(np.diff(cx.incidence[2].tocsr().indptr) == 2)
    assert flatnorm._acyclic_forest(cx) is None
    # the disk still passes it: its rim edges have one triangle
    assert flatnorm._acyclic_forest(fixtures.disk_mesh(0.25)[0]) is not None


def test_larger_p_takes_the_boxed_program(monkeypatch):
    # the labelling program has p^2 pair variables per face: flat norms use
    # it up to p = 5 and Plateau problems up to p = 13, the boxed program
    # beyond; the p = 7 flat norms still match the oracle
    programs = _recorded_programs(monkeypatch)
    cx = fixtures.strip_complex(4)
    rng = np.random.default_rng(7)
    for p in (5, 7, 11):
        t = random_chain(rng, cx, 1, lo=-3, hi=3)
        dec = modp.flat_norm_modp(t, p)
        assert len(programs) == (p == 5)
        programs.clear()
        if p == 7:
            assert dec.value == pytest.approx(modp.brute_force_flat_oracle(t, p, 3), abs=1e-9)
    engines = []
    monkeypatch.setattr(flatnorm, "_plateau_labelling", lambda *a: engines.append("labelling"))
    monkeypatch.setattr(flatnorm, "_plateau_milp", lambda *a: engines.append("boxed"))
    disk, _ = fixtures.disk_mesh(0.25)
    for p in (13, 17):
        modp.plateau_modp(modp.reduce_modp(modp.IntegerChain(
            disk, 0, dict.fromkeys(range(1, 10), 1) | {10: p - 9}), p), p)
    assert engines == ["labelling", "boxed"]
