"""Rotationally symmetric weighted-network example and its decay scans."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

import modp
from modp import fixtures


def test_p3_example_has_one_singular_circle(taylor_p3):
    R = taylor_p3
    assert len(R.singular_circles) == 1
    c = R.singular_circles[0]
    assert 0.5 < c["x"] < 1.0
    assert len(c["tangents"]) == 3
    assert c["multiplicities"] == [1, 1, 1]


def test_junction_is_weighted_balanced(taylor_p3):
    assert max(taylor_p3.generator.balance_residuals.values()) < 1e-5


def test_tangent_book_geometry(taylor_p3):
    c = taylor_p3.singular_circles[0]
    q = np.array([c["x"], 0.0, c["y"]])
    book = modp.tangent_book_at(taylor_p3, q)
    assert book.n_pages == 3
    assert book.m == 2
    # spine is tangent to the circle: orthogonal to the radial direction
    assert abs(book.spine[0] @ np.array([1.0, 0.0, 0.0])) < 1e-12


def test_revolved_sample_mass_matches_coarea(taylor_p3):
    # revolving the generator with weight x produces total mass
    # 2 pi * weighted length of the generator
    total = float(taylor_p3.sample.weights.sum())
    assert total == pytest.approx(2.0 * math.pi * taylor_p3.generator.mass, rel=0.01)


def test_geodesic_shoot_conserves_clairaut_momentum():
    metric = modp.WeightedMetric("x")
    arc, info = modp.geodesic_shoot([1.0, 0.0], [0.0, 1.0], 0.5, metric)
    assert info["clairaut_drift"] < 1e-6
    assert not info["axis_hit"]
    seg = np.diff(arc, axis=0)
    assert np.linalg.norm(seg, axis=1).sum() == pytest.approx(0.5, rel=1e-6)
    with pytest.raises(ValueError):
        modp.geodesic_shoot([-1.0, 0.0], [0.0, 1.0], 0.5, metric)


@pytest.mark.parametrize("weight,curve", [
    ("x", lambda y: np.cosh(y)),              # catenary, Clairaut constant 1
    ("sqrtx", lambda y: 1.0 + y ** 2 / 4.0),  # parabola, Clairaut constant 1
])
def test_geodesic_shoot_follows_exact_geodesic(weight, curve):
    arc, info = modp.geodesic_shoot([1.0, 0.0], [0.0, 1.0], 0.5,
                                    modp.WeightedMetric(weight))
    assert not info["axis_hit"]
    assert np.abs(arc[:, 0] - curve(arc[:, 1])).max() < 1e-9


@pytest.mark.xfail(strict=True, reason="the shooting polish balances the chord "
                   "of the last RK4 step at the junction, not the arc's true "
                   "tangent; the exact exit angles of the outer arcs sit 120.039 "
                   "degrees from the middle one, a residual of about 1.2e-3")
def test_junction_balances_exact_arc_tangents(taylor_p3):
    net = taylor_p3.generator
    j = net.junctions[0]
    resid = np.zeros(2)
    for arc in net.arcs:
        if j not in (arc.a, arc.b):
            continue
        a = net.nodes[j]
        b = net.nodes[arc.b if arc.a == j else arc.a]
        chord = b - a
        _, theta, _, _ = taylor_p3.metric.two_point_geodesic(
            a, b, math.atan2(chord[1], chord[0]), 512)
        resid += abs(arc.kappa) * np.array([math.cos(theta), math.sin(theta)])
    assert np.linalg.norm(resid) < 1e-5


def _two_point_pairs(weight, count, seed):
    """Seeded endpoint pairs with x in [0.3, 1.5] and |dy| below 1.3 times
    the smaller x, which a geodesic of either weight joins: the rise of
    the arcs through their vertex peaks at 1.3255 (catenaries) or 2
    (parabolas) times the smaller x or higher."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(count):
        xa, xb = rng.uniform(0.3, 1.5, 2)
        ya = rng.uniform(-0.5, 0.5)
        yb = ya + 1.3 * min(xa, xb) * rng.uniform(-1.0, 1.0)
        pairs.append(pytest.param(weight, (xa, ya), (xb, yb), id=f"{weight}-seed{seed}-{k}"))
    return pairs


# the Taylor junction as the network solver returns it
TAYLOR_JUNCTION_X = 0.8368776394247799
TWO_POINT_CASES = [
    *_two_point_pairs("x", 3, 12), *_two_point_pairs("sqrtx", 3, 12),
    *(pytest.param(w, (0.5, 0.25), (1.5, 0.25), id=f"{w}-c-zero") for w in ("x", "sqrtx")),
    # like the middle arc of the Taylor network
    *(pytest.param(w, (1.0, 0.0), (TAYLOR_JUNCTION_X, 1e-12), id=f"{w}-dy-1e-12")
      for w in ("x", "sqrtx")),
    *(pytest.param(w, (1.0, -0.5), (1.2, 0.6), id=f"{w}-through-vertex")
      for w in ("x", "sqrtx")),
]


def _shoot(a, theta, length, metric, steps=512):
    """The geodesic ODE integrated forward from a by ``steps`` RK4 steps
    (``geodesic_shoot``): an independent reference for the closed-form arcs."""
    poly, info = modp.geodesic_shoot(a, [math.cos(theta), math.sin(theta)], length, metric,
                                     steps=steps)
    assert not info["axis_hit"]
    return poly


@pytest.mark.parametrize("weight, a, b", TWO_POINT_CASES)
def test_closed_form_geodesic_matches_rk4_shooting(weight, a, b):
    a, b = np.array(a), np.array(b)
    chord = b - a
    metric = modp.WeightedMetric(weight)
    poly, theta, length, _ = metric.two_point_geodesic(a, b, math.atan2(chord[1], chord[0]), 512)
    assert poly.shape == (513, 2)
    # shot from the closed form's start angle and length, the ODE lands on b
    shot = _shoot(a, theta, length, metric)
    np.testing.assert_allclose(shot[-1], b, rtol=0, atol=1e-10)
    np.testing.assert_allclose(poly, shot, rtol=0, atol=1e-10)
    if a[1] == b[1]:
        assert np.all(poly[:, 1] == a[1])


@pytest.mark.parametrize("weight", ["x", "sqrtx"])
def test_closed_form_geodesic_passes_its_vertex(weight):
    # the through-vertex case above: the arc turns back in x on its way up
    poly, _, _, _ = modp.WeightedMetric(weight).two_point_geodesic(
        np.array([1.0, -0.5]), np.array([1.2, 0.6]), 0.0, 512)
    inner = int(np.argmin(poly[:, 0]))
    assert 0 < inner < len(poly) - 1 and poly[inner, 0] < 1.0 - 5e-3


def test_closed_form_geodesic_takes_the_lighter_of_two_catenaries():
    from scipy.optimize import brentq

    # the catenaries x = r cosh((y - 1/2) / r) through (1, 0) and (1, 1):
    # r cosh(1 / 2r) = 1 has a deep root near 0.24 and a shallow one near 0.85
    a, b = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    metric = modp.WeightedMetric("x")
    # (start angle, length, weighted length r^2 (h + sinh(2h) / 2), h = 1 / 2r)
    hints = []
    for lo, hi in [(0.2, 0.3), (0.6, 1.0)]:
        r = brentq(lambda r: r * math.cosh(0.5 / r) - 1, lo, hi)
        hints.append((math.atan2(1.0, math.sinh(-0.5 / r)), 2 * r * math.sinh(0.5 / r),
                      r * r * (0.5 / r + math.sinh(1 / r) / 2)))
    # the deep arc turns sharply: 512 RK4 steps miss b by 1.4e-10
    deep, shallow = (_shoot(a, *h[:2], metric, steps=2048) for h in hints)
    for shot in (deep, shallow):
        np.testing.assert_allclose(shot[-1], b, rtol=0, atol=1e-10)
    assert modp.weighted_length(shallow, metric) < modp.weighted_length(deep, metric) - 0.1
    assert deep[:, 0].min() < 0.3 < 0.8 < shallow[:, 0].min()
    # the closed form returns the lighter arc even when the hint points at the other
    for hint in hints:
        poly, theta, length, w_length = metric.two_point_geodesic(a, b, hint[0], 2048)
        np.testing.assert_allclose(poly, shallow, rtol=0, atol=1e-10)
        assert theta == pytest.approx(hints[1][0], abs=1e-10)
        assert length == pytest.approx(hints[1][1], abs=1e-10)
        assert w_length == pytest.approx(hints[1][2], rel=1e-14)


TAYLOR_TERMINALS = [((math.cos(math.radians(a)), math.sin(math.radians(a))), 1)
                    for a in (-40.0, 0.0, 40.0)]


def test_taylor_network_uses_closed_form_arcs():
    metric = modp.WeightedMetric("x")
    net = modp.solve_network(TAYLOR_TERMINALS, 3, weight=metric)
    (j,) = net.junctions
    # the biased junction that the benchmark's surface workload pins: the
    # polish balances end-step chords (see the strict xfail above); the
    # balanced exact tangents put it at x = 0.8362529565
    assert net.nodes[j][0] == pytest.approx(TAYLOR_JUNCTION_X, abs=1e-9)
    assert net.nodes[j][1] == pytest.approx(0.0, abs=1e-9)
    # each arc is its closed form, with its exact weighted length
    for arc in net.arcs:
        poly, _, _, w_length = metric.two_point_geodesic(net.nodes[arc.a], net.nodes[arc.b],
                                                         0.0, 512)
        assert np.array_equal(arc.polyline, poly) and arc.length == w_length
    assert net.mass == pytest.approx(1.1567754661204686, abs=1e-9)


def test_k_interior_is_deprecated_and_ignored():
    metric = modp.WeightedMetric("x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = modp.solve_network(TAYLOR_TERMINALS, 3, weight=metric)
    with pytest.warns(DeprecationWarning, match="k_interior is ignored"):
        old = modp.solve_network(TAYLOR_TERMINALS, 3, weight=metric, k_interior=8)
    assert np.array_equal(old.nodes, net.nodes)
    assert old.to_json() == net.to_json()


def _revolve_loop(net, delta):
    """Reference for ``_revolve_sample``: one ring per resampled segment,
    point by point."""
    from modp.taylor import _resample

    pts, wts, frames = [], [], []
    for arc in net.arcs:
        if arc.kappa == 0:
            continue
        poly = _resample(arc.polyline, delta)
        for a, b in zip(poly[:-1], poly[1:]):
            dl = float(np.linalg.norm(b - a))
            if dl == 0:
                continue
            (xm, ym), (tx, ty) = 0.5 * (a + b), (b - a) / dl
            nphi = max(16, int(round(2 * math.pi * xm / delta)))
            for i in range(nphi):
                phi = (i + 0.5) * (2 * math.pi / nphi)
                c, s = math.cos(phi), math.sin(phi)
                pts.append((xm * c, xm * s, ym))
                wts.append(abs(arc.kappa) * (2 * math.pi * xm * dl) / nphi)
                frames.append([[tx * c, tx * s, ty], [-s, c, 0.0]])
    return np.array(pts), np.array(wts), np.array(frames)


def test_revolve_sample_matches_point_loop():
    from modp.taylor import _revolve_sample

    net = modp.solve_network(TAYLOR_TERMINALS, 3, weight=modp.WeightedMetric("x"))
    sample = _revolve_sample(net, 0.04)
    pts, wts, frames = _revolve_loop(net, 0.04)
    assert sample.points.shape == pts.shape and sample.tangents.shape == frames.shape
    np.testing.assert_allclose(sample.points, pts, rtol=0, atol=1e-14)
    np.testing.assert_allclose(sample.weights, wts, rtol=0, atol=1e-14)
    np.testing.assert_allclose(sample.tangents, frames, rtol=0, atol=1e-14)


def test_build_validation():
    with pytest.raises(ValueError):
        modp.build_taylor_example(2, [0.0, 30.0])
    with pytest.raises(ValueError):
        modp.build_taylor_example(3, [0.0, 30.0])
    with pytest.raises(ValueError, match="axis"):
        modp.build_taylor_example(3, [-95.0, 0.0, 95.0])


def test_unbalanced_junction_is_an_error_not_a_circle():
    # the polish stops with geodesic arcs that do not balance at the junction,
    # and merging the junction into a terminal gives no lighter network
    with pytest.raises(RuntimeError, match=r"junction 3 .* unbalanced: residual 0\.0475"):
        modp.build_taylor_example(3, [-46.0, 0.0, 46.0])


def test_terminals_that_no_geodesic_joins_are_a_solver_failure():
    # the junction-only start puts the junction at the min_x clamp on the
    # axis (ROADMAP item 4's axis case), where no geodesic of x > 0 reaches
    # it, and no catenary joins the terminals at -60 and 50 degrees
    with pytest.raises(RuntimeError, match="all topologies failed .* no geodesic"):
        modp.build_taylor_example(3, [-60.0, 10.0, 50.0])


def test_json_round_trip(taylor_p3):
    data = json.loads(json.dumps(taylor_p3.to_json()))
    assert data["p"] == 3
    assert len(data["singular_circles"]) == 1
    assert data["radius"] == pytest.approx(1.0)
    back = modp.RevolvedCurrent.from_json(data)
    for c, b in zip(taylor_p3.singular_circles, back.singular_circles, strict=True):
        assert (b["x"], b["y"], b["multiplicities"]) == (c["x"], c["y"], c["multiplicities"])
        assert np.array_equal(b["tangents"], c["tangents"])
    net, got = taylor_p3.generator, back.generator
    assert np.array_equal(got.nodes, net.nodes)
    for a, b in zip(net.arcs, got.arcs, strict=True):
        assert np.array_equal(a.polyline, b.polyline) and a.length == b.length
    for name in ("points", "weights", "tangents"):
        assert np.array_equal(getattr(back.sample, name), getattr(taylor_p3.sample, name))


def test_loaded_surface_derives_its_circles_from_the_arcs(taylor_p3):
    data = json.loads(json.dumps(taylor_p3.to_json()))
    data["singular_circles"] = []
    data["generator"].update(mass=0.0, junctions=[], balance_residuals={})
    back = modp.RevolvedCurrent.from_json(data)
    assert back.singular_circles[0]["x"] == taylor_p3.singular_circles[0]["x"]
    # turning the last step of an arc at the junction unbalances it
    data["generator"]["arcs"][0]["polyline"][-2][0] += 1e-3
    with pytest.raises(RuntimeError, match="junction 3 .* unbalanced"):
        modp.RevolvedCurrent.from_json(data)


def test_decay_scan_rows_without_flat(taylor_p3):
    c = taylor_p3.singular_circles[0]
    q = (c["x"], 0.0, c["y"])
    rows = modp.decay_scan(taylor_p3, q, [0.2, 0.1], with_flat=False)
    assert [row["r"] for row in rows] == [0.2, 0.1]
    assert all(row["flat_distance"] is None and row["flat_gap"] is None for row in rows)
    assert rows[0]["excess"] >= rows[1]["excess"] >= 0.0


def test_flat_ladder_values_are_pinned(taylor_p3):
    # flat distances of the decay ladder, recorded with the earlier, looser
    # variable box of the flat-norm program; a box that cut off an optimum
    # would raise one of them
    c = taylor_p3.singular_circles[0]
    rows = modp.decay_scan(taylor_p3, (c["x"], 0.0, c["y"]), [0.2, 0.1, 0.05, 0.025])
    expected = [0.03906250000000001, 0.017578125000000003,
                0.005859375000000002, 0.005859375000000002]
    np.testing.assert_allclose([row["flat_distance"] for row in rows], expected,
                               rtol=0, atol=1e-12)
    assert all(row["flat_gap"] <= 1e-9 for row in rows)


def test_rasterized_ray_is_stable_under_round_off():
    cx, spacing = fixtures.grid_square_complex(modp.taylor.LADDER_GRID_N)

    def ray(theta):
        return np.array([[0.0, 0.0], [2.0 * math.cos(theta), 2.0 * math.sin(theta)]])

    for degrees in (120.0, 240.0):
        theta = math.radians(degrees)
        chain = fixtures.rasterize_polyline(cx, spacing, ray(theta))
        for turn in (1e-12, -1e-12):
            assert fixtures.rasterize_polyline(cx, spacing, ray(theta + turn)) == chain


def _walked_polyline(cx, spacing, polyline):
    # the rasterizer as a walk: from each snapped sample, step towards the
    # next one, diagonally only along (1, 1), until it is reached; also
    # returns the snapped samples
    n = int(round(2.0 / spacing))
    dense = np.clip(modp.taylor._resample(np.asarray(polyline, dtype=float), spacing / 3),
                    -1.0, 1.0)
    lattice = np.clip(np.floor((dense + 1.0) / spacing + 0.5 + fixtures._TIE_BAND).astype(int),
                      0, n)
    walk = [lattice[0]]
    for nxt in lattice[1:]:
        while not np.array_equal(walk[-1], nxt):
            di, dj = np.sign(nxt - walk[-1])
            walk.append(walk[-1] + ((di, dj) if di == dj else (di, 0) if di else (0, dj)))
    ids = np.array(walk) @ [n + 1, 1]
    return cx.chain_from_simplices(1, np.c_[ids[:-1], ids[1:]]), lattice


def test_rasterizer_matches_the_walk(taylor_p3):
    # the ladder's arcs at five radii, its tangent rays, and seeded random
    # polylines, some of them short, on coarse and fine grids
    c = taylor_p3.singular_circles[0]
    junction = np.array([c["x"], c["y"]])
    polylines = [(arc.polyline - junction) / r for r in (0.2, 0.1, 0.05, 0.025, 0.0125)
                 for arc in taylor_p3.generator.arcs if arc.kappa]
    polylines += [np.vstack([np.zeros(2), 2.0 * np.asarray(tau)]) for tau in c["tangents"]]
    rng = np.random.default_rng(35)
    polylines += [rng.uniform(-1.3, 1.3, (int(rng.integers(1, 8)), 2)) * rng.uniform(0.02, 1.0)
                  for _ in range(60)]
    for n in (8, 32, 64):
        cx, spacing = fixtures.grid_square_complex(n)
        for poly in polylines:
            walked, lattice = _walked_polyline(cx, spacing, poly)
            assert np.abs(np.diff(lattice, axis=0)).max(initial=0) <= 1
            assert fixtures.rasterize_polyline(cx, spacing, poly) == walked


def test_concurrent_flat_ladder_equals_sequential_rungs(taylor_p3):
    # a rung's values do not depend on the other rungs of its ladder
    c = taylor_p3.singular_circles[0]
    q = (c["x"], 0.0, c["y"])
    radii = [0.2, 0.1, 0.05, 0.025]
    ladder = modp.decay_scan(taylor_p3, q, radii)
    alone = [modp.decay_scan(taylor_p3, q, [r])[0] for r in radii]
    assert [row["flat_distance"] for row in ladder] == \
        [row["flat_distance"] for row in alone]
    assert [row["flat_gap"] for row in ladder] == [row["flat_gap"] for row in alone]


def test_flat_ladder_starts_no_thread(taylor_p3, monkeypatch):
    import threading

    def start(self):
        raise AssertionError("the flat ladder started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    c = taylor_p3.singular_circles[0]
    rows = modp.decay_scan(taylor_p3, (c["x"], 0.0, c["y"]), [0.1, 0.05])
    assert all(row["flat_distance"] > 0 for row in rows)


def test_decay_scan_raises_what_a_rung_raises(taylor_p3, monkeypatch):
    from modp import flatnorm

    calls = itertools.count()

    def flat_norm(T, p, W=None):
        if next(calls) == 1:
            raise RuntimeError("rung failed")
        return flatnorm.FlatDecomposition(T, None, T, 0.0, W)

    monkeypatch.setattr(flatnorm, "flat_norm_modp", flat_norm)
    c = taylor_p3.singular_circles[0]
    with pytest.raises(RuntimeError, match="rung failed"):
        modp.decay_scan(taylor_p3, (c["x"], 0.0, c["y"]), [0.2, 0.1, 0.05, 0.025])


@pytest.mark.parametrize("radii", [[], [math.nan], [math.inf], [0.2, 0.0], [0.2, -0.1]])
def test_decay_scan_rejects_bad_radii(taylor_p3, radii):
    q = (taylor_p3.singular_circles[0]["x"], 0.0, taylor_p3.singular_circles[0]["y"])
    with pytest.raises(ValueError, match="radii"):
        modp.decay_scan(taylor_p3, q, radii, with_flat=False)


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
def test_sample_spacing_must_be_finite_and_positive(taylor_p3, delta):
    with pytest.raises(ValueError, match="delta"):
        modp.build_taylor_example(3, [-40.0, 0.0, 40.0], delta=delta)
    data = taylor_p3.to_json()
    data["delta"] = delta
    with pytest.raises(ValueError, match="delta"):
        modp.RevolvedCurrent.from_json(data)


def test_decay_scan_rejects_far_point(taylor_p3):
    with pytest.raises(ValueError, match="circle"):
        modp.decay_scan(taylor_p3, (0.1, 0.0, 0.9), [0.2], with_flat=False)


def test_small_rungs_solve_a_sliver_of_the_ball(taylor_p3, monkeypatch):
    # the flat norm is localized to the chain and sealed at the grid edges
    # where it vanishes mod p, which are longer than every rung's value: each
    # rung proves its value with its first program, over under a tenth of
    # the triangles with an edge in the ball (the columns of the program
    # without localization); the two smallest rungs also use under a tenth
    # of the triangles inside the ball
    from modp import flatnorm

    cx, _ = fixtures.grid_square_complex(modp.taylor.LADDER_GRID_N)
    inside = np.linalg.norm(cx.vertices, axis=1) <= 0.85
    ball = np.count_nonzero(inside[cx.simplices[2]].all(axis=1))
    offered = np.count_nonzero(inside[cx.simplices[2]].sum(axis=1) >= 2)
    programs = []
    solve = flatnorm._solve_milp
    monkeypatch.setattr(flatnorm, "_solve_milp", lambda *a: programs.append(a) or solve(*a))
    decs = modp.taylor._flat_ladder(taylor_p3, taylor_p3.singular_circles[0],
                                    [0.2, 0.1, 0.05, 0.025])
    assert len(programs) == 4
    for dec in decs:
        assert 0 < dec.columns < 0.1 * offered
        assert dec.optimality_gap <= 1e-9
    assert all(dec.columns < 0.1 * ball for dec in decs[2:])


def _meets_level_exactly(f, x, level):
    # f equals the level at x, or f - level changes sign between x and a
    # neighbouring float
    g = f(x) - level
    return g == 0 or any((f(math.nextafter(x, to)) - level < 0) != (g < 0)
                         for to in (-math.inf, math.inf))


def test_level_crossings_of_a_parabola():
    from modp.taylor import _level_crossings

    def f(s):
        return -(s - 1.0) ** 2

    assert _level_crossings(f, -3.0, 2.0, 0.1) is None  # above the maximum 0
    both = _level_crossings(f, -3.0, 2.0, -0.25)
    assert both == pytest.approx([0.5, 1.5], abs=1e-15)
    # f(1.2) = -0.04 lies above the level: no crossing right of the peak
    one = _level_crossings(f, -3.0, 1.2, -0.25)
    assert one == pytest.approx([0.5], abs=1e-15)
    assert all(_meets_level_exactly(f, x, -0.25) for x in both + one)


def test_taylor_roots_are_exact_and_near_scipys(monkeypatch):
    # the closed-form arcs find their roots without scipy.optimize, so that
    # a curved network loads none; each root of the Taylor build is exact to
    # float precision and within scipy's brentq tolerance of scipy's root
    from scipy.optimize import brentq

    from modp import taylor

    calls = []
    crossings = taylor._level_crossings

    def record(f, lo, hi, level):
        calls.append((f, lo, hi, level, crossings(f, lo, hi, level)))
        return calls[-1][-1]

    monkeypatch.setattr(taylor, "_level_crossings", record)
    modp.build_taylor_example(3, [-40.0, 0.0, 40.0])
    roots = 0
    for f, lo, hi, level, found in calls:
        if found is None:
            continue
        below = [end for end in (lo, hi) if f(end) < level]
        assert len(found) == len(below)
        for end, x in zip(below, found):
            assert _meets_level_exactly(f, x, level)
            theirs = brentq(lambda s: f(s) - level, *sorted((end, x)), xtol=1e-15)
            assert abs(x - theirs) <= 1e-15 + 4 * np.finfo(float).eps * abs(theirs)
            roots += 1
    assert roots > 50
