"""Ray configurations, competitor certificates, and weighted networks."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

import modp
from modp import cones, fixtures
from modp.complexes import representative_modp


def test_y120_passes_all_flags():
    rep = modp.check_structure(fixtures.y120())
    assert rep.all_ok
    assert rep.balance_residual <= 1e-9


def test_p5_four_ray_passes():
    cfg = fixtures.p5_balanced()
    rep = modp.check_structure(cfg)
    assert rep.all_ok
    assert cfg.p == 5


def test_half_p_multiplicity_rejected():
    cfg = modp.RayConfiguration(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                np.array([2, 2]), 4)
    rep = modp.check_structure(cfg)
    assert not rep.multiplicity_bounds
    assert not rep.all_ok


def test_unbalanced_rejected():
    cfg = modp.RayConfiguration(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        np.array([1, 1, 1]), 3)
    rep = modp.check_structure(cfg)
    assert not rep.balanced


def test_ray_configuration_json_round_trip():
    cfg = fixtures.p5_balanced()
    back = modp.RayConfiguration.from_json(cfg.to_json())
    np.testing.assert_allclose(back.directions, cfg.directions)
    np.testing.assert_array_equal(back.kappa, cfg.kappa)
    assert back.p == cfg.p


def test_ray_configuration_validation():
    kappa = np.array([1, 1])
    with pytest.raises(ValueError, match="^ray directions must be unit vectors$"):
        modp.RayConfiguration(np.array([[1.0, 0.0], [0.0, 2.0]]), kappa, 3)
    with pytest.raises(ValueError, match="^ray directions must be pairwise distinct$"):
        modp.RayConfiguration(np.array([[0.0, 1.0], [0.0, 1.0]]), kappa, 3)


@pytest.mark.parametrize("p", [3.7, 3.0, 1, 0, -3])
def test_cones_reject_a_bad_modulus(p):
    data = fixtures.y120().to_json()
    data["p"] = p
    with pytest.raises(ValueError, match=r"^p must be an integer >= 2$"):
        modp.RayConfiguration.from_json(data)
    book = {"m": 1, "n": 1, "p": p, "spine": [], "slice": [[1.0, 0.0], [0.0, 1.0]],
            "pages": [{"dir": ray["dir"]} for ray in data["rays"]]}
    with pytest.raises(ValueError, match=r"^p must be an integer >= 2$"):
        modp.ConeModP.from_json(book)


def test_segment_swap_at_120_degrees():
    cfg = fixtures.y120()
    cert = modp.segment_swap_certificate(cfg, 0, 1)
    chord = float(np.linalg.norm(cfg.directions[0] - cfg.directions[1]))
    assert cert.mass_change == chord - 2.0
    assert abs(cert.mass_change - (math.sqrt(3.0) - 2.0)) < 1e-12


def test_segment_swap_antipodal_degenerate():
    cfg = modp.RayConfiguration(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                                np.array([1, 1, 1]), 3)
    with pytest.raises(ValueError, match="degenerate"):
        modp.segment_swap_certificate(cfg, 0, 1)


def test_barycenter_greedy_selection_example():
    # two rays at 80 and 100 degrees plus balancing rays below; p = 3 takes
    # multiplicity 1 from the first and 2 from the second
    a1, a2 = math.radians(80.0), math.radians(100.0)
    up = np.array([[math.cos(a1), math.sin(a1)],
                   [math.cos(a2), math.sin(a2)]])
    resultant = up[0] + 2 * up[1]
    down = -resultant / np.linalg.norm(resultant)
    side = np.array([down[1], -down[0]])
    dirs = np.vstack([up, down, side, -side])
    kappa = np.array([1, 2, 2, 1, 1])
    cfg = modp.RayConfiguration(dirs, kappa, 3)
    cert = modp.barycenter_certificate(cfg, [0.0, 1.0])
    assert cert.replaced_rays == [0, 1]
    assert cert.mass_change < 0
    expected = (up[0] * 1 + up[1] * 2) / 3.0
    np.testing.assert_allclose(cert.barycenter, expected, atol=1e-12)


def test_barycenter_needs_enough_mass():
    cfg = fixtures.y120()
    with pytest.raises(ValueError):
        modp.barycenter_certificate(cfg, [0.0, 1.0])


def test_fermat_point_of_equilateral_is_center():
    pts = np.array([[math.cos(a), math.sin(a)]
                    for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
                              math.pi / 2 + 4 * math.pi / 3)])
    z, val = modp.fermat_point_grid(pts, np.ones(3), grid=1e-4)
    assert np.linalg.norm(z) < 2e-4
    assert val == pytest.approx(3.0, abs=1e-6)


def test_tree_multiplicities_path():
    # path 0-1-2 with terminal multiplicities (1, 1, 1) mod 3; each arc a->b
    # contributes -kappa at a and +kappa at b
    m0, m1 = modp.tree_multiplicities([(0, 1), (1, 2)], 3, {0: 1, 1: 1, 2: 1}, 3)
    assert (-m0) % 3 == 1          # node 0
    assert (m0 - m1) % 3 == 1      # node 1
    assert m1 % 3 == 1             # node 2


def test_tree_multiplicities_rejects_unbalanced_data():
    # the edge 0 -> 1 has boundary (-1, +1), so no multiplicity gives (1, 1) mod 3
    with pytest.raises(ValueError, match="balance"):
        modp.tree_multiplicities([(0, 1)], 2, [1, 1], 3)


def test_solve_network_equilateral():
    net = modp.solve_network(
        [((0.0, 1.0), 1),
         ((-math.sqrt(3) / 2, -0.5), 1),
         ((math.sqrt(3) / 2, -0.5), 1)], 3)
    assert abs(net.mass - 3.0) <= 1e-6
    assert len(net.junctions) == 1
    pairs = net.junction_tangents(net.junctions[0])
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            cosang = float(np.clip(pairs[a][1] @ pairs[b][1], -1.0, 1.0))
            assert abs(math.degrees(math.acos(cosang)) - 120.0) <= 1e-5
    assert max(net.balance_residuals.values()) < 1e-9


def test_solve_network_matches_fermat_point_on_random_triangles():
    # guards the L-BFGS-only junction optimization (no Newton polish)
    rng = np.random.default_rng(20)
    for _ in range(20):
        th = np.sort(rng.uniform(0, 2 * math.pi, 3))
        rad = rng.uniform(0.5, 1.5, 3)
        pts = np.c_[rad * np.cos(th), rad * np.sin(th)]
        net = modp.solve_network([(tuple(q), 1) for q in pts], 3)
        # the grid's cell must sit well below the 1e-6 tolerance: where the
        # Fermat point is a terminal the objective grows linearly off it
        _, fermat_mass = modp.fermat_point_grid(pts, np.ones(3), grid=1e-8)
        assert net.mass == pytest.approx(fermat_mass, abs=1e-6)
        assert all(r < 1e-6 for r in net.balance_residuals.values())


class _UndefinedNearOrigin:
    """Unit weight that raises FloatingPointError within 0.2 of the origin."""

    name = "undefined-near-origin"

    def w(self, pts):
        pts = np.atleast_2d(pts)
        if np.any(np.linalg.norm(pts, axis=1) < 0.2):
            raise FloatingPointError("weight undefined near the origin")
        return np.ones(len(pts))

    def grad_w(self, pts):
        return np.zeros_like(np.atleast_2d(pts))


class _FlakyEuclidean(cones.EuclideanWeight):
    """The euclidean weight, except that its first ``calls`` evaluations raise
    FloatingPointError."""

    def __init__(self, calls):
        self.calls = calls

    def w(self, pts):
        self.calls -= 1
        if self.calls >= 0:
            raise FloatingPointError("weight not ready")
        return super().w(pts)


EQUILATERAL = [((0.0, 1.0), 1), ((-math.sqrt(3) / 2, -0.5), 1), ((math.sqrt(3) / 2, -0.5), 1)]
# valid terminals mod 3, for the cases where only p is wrong
TWO_TERMINALS = [((0.0, 0.0), 1), ((1.0, 0.0), 2)]


def test_solve_network_reports_skipped_topologies_and_failed_starts():
    net = modp.solve_network(EQUILATERAL, 3)
    # with balanced terminals every tree topology balances mod p
    assert (net.skipped_topologies, net.failed_starts) == (0, 0)
    assert "skipped_topologies" not in net.to_json()
    assert "failed_starts" not in net.to_json()
    # the one Steiner topology starts its junction at the origin, where the
    # weight raises, and there is no other topology to fall back on
    with pytest.raises(RuntimeError, match="all topologies failed"):
        modp.solve_network(EQUILATERAL, 3, weight=_UndefinedNearOrigin())
    # the first start fails; the two jittered ones still find the Y
    net = modp.solve_network(EQUILATERAL, 3, weight=_FlakyEuclidean(1))
    assert (net.skipped_topologies, net.failed_starts) == (0, 1)
    assert net.mass == pytest.approx(3.0, abs=1e-9)
    assert len(net.junctions) == 1
    # sources on the left, sinks on the right: the first topology in sorted
    # order pairs the sources (the optimal H, mass 4 + 2 sqrt(3)) and loses
    # all three starts; the others carry two horizontal segments
    terms = [((-2.0, 1.0), 1), ((-2.0, -1.0), 1), ((2.0, 1.0), -1), ((2.0, -1.0), -1)]
    assert modp.solve_network(terms, 3).mass == pytest.approx(4 + 2 * math.sqrt(3), abs=1e-9)
    net = modp.solve_network(terms, 3, weight=_FlakyEuclidean(3))
    assert (net.skipped_topologies, net.failed_starts) == (1, 3)
    assert net.mass == pytest.approx(8.0, abs=1e-9)
    assert net.junctions == []


@pytest.mark.parametrize("terminals, p, match", [
    pytest.param([], 3, "2 to 6 terminals", id="none"),
    pytest.param([((0.0, 0.0), 3)], 3, "2 to 6 terminals", id="one"),
    pytest.param([((float(k), 0.0), 1) for k in range(7)], 3, "2 to 6 terminals", id="seven"),
    pytest.param([((math.nan, 0.0), 1), ((1.0, 0.0), 2)], 3, "finite points of the plane",
                 id="nan-point"),
    pytest.param([((math.inf, 0.0), 1), ((1.0, 0.0), 2)], 3, "finite points of the plane",
                 id="inf-point"),
    pytest.param([((0.0, 0.0, 0.0), 1), ((1.0, 0.0, 0.0), 2)], 3, "finite points of the plane",
                 id="3d-points"),
    pytest.param([((0.0, 0.0), 1.5), ((1.0, 0.0), 1.5)], 3, "integers", id="half-multiplicity"),
    pytest.param([((0.0, 0.0), math.nan), ((1.0, 0.0), 1)], 3, "integers", id="nan-multiplicity"),
    pytest.param(TWO_TERMINALS, 0, "integer >= 2", id="p-zero"),
    pytest.param(TWO_TERMINALS, 1, "integer >= 2", id="p-one"),
    pytest.param(TWO_TERMINALS, -2, "integer >= 2", id="p-negative"),
    pytest.param(TWO_TERMINALS, 3.0, "integer >= 2", id="p-float"),
])
def test_solve_network_rejects_bad_terminals(terminals, p, match):
    with pytest.raises(ValueError, match=match):
        modp.solve_network(terminals, p)


def _balanced_star(kappa, p, rng):
    """Seeded unit rays with multiplicities ``kappa`` mod p that pass
    ``check_structure``: the first rays at random angles, the last two
    closing the balance.  A draw where some group of rays would gain by
    leaving on a common stem (|sum of kappa_i v_i| above the stem's
    multiplicity |kappa| mod p, with a 0.05 margin) is not minimizing and
    is drawn again."""
    kappa = np.array(kappa)
    n = len(kappa)
    while True:
        ang = rng.uniform(0.0, 2 * math.pi, n - 2)
        dirs = np.c_[np.cos(ang), np.sin(ang)]
        resultant = kappa[:-2] @ dirs
        r = float(np.linalg.norm(resultant))
        a, b = kappa[-2:]
        if not abs(a - b) < r < a + b:
            continue
        phi = math.atan2(-resultant[1], -resultant[0]) + \
            math.acos((a * a + r * r - b * b) / (2 * a * r))
        va = np.array([math.cos(phi), math.sin(phi)])
        vb = (-resultant - a * va) / b
        dirs = np.vstack([dirs, va, vb / np.linalg.norm(vb)])
        try:
            cfg = modp.RayConfiguration(dirs, kappa, p)
        except ValueError:
            continue
        stems = [list(s) for m in range(2, n - 1) for s in itertools.combinations(range(n), m)]
        if modp.check_structure(cfg).all_ok and all(
                np.linalg.norm(kappa[s] @ dirs[s]) <= abs(representative_modp(kappa[s].sum(), p)) - 0.05
                for s in stems):
            return cfg


class _StraightUnitWeight:
    """Unit weight with straight closed-form geodesics, like the euclidean
    one but polished as a conformal weight; ``w`` raises FloatingPointError
    on the 512-step polyline of an arc that comes within ``band`` of the
    x-axis, that is, only on the final arc lengths."""

    name = "straight"

    def __init__(self, band):
        self.band = band

    def w(self, pts):
        pts = np.atleast_2d(pts)
        if len(pts) >= 512 and np.any(np.abs(pts[:, 1]) < self.band):
            raise FloatingPointError("weight undefined near the x-axis")
        return np.ones(len(pts))

    def grad_w(self, pts):
        return np.zeros_like(np.atleast_2d(pts))

    def two_point_geodesic(self, a, b, theta0, steps):
        d = b - a
        theta = theta0 + math.remainder(math.atan2(d[1], d[0]) - theta0, 2 * math.pi)
        return a + np.linspace(0.0, 1.0, steps + 1)[:, None] * d, theta, float(np.hypot(*d))


def test_solve_network_takes_the_next_candidate_when_one_raises():
    # the H (mass 4 + 2 sqrt(3)) crosses the x-axis, the next candidate's
    # two horizontal segments (mass 8) keep off it
    terms = [((-2.0, 1.0), 1), ((-2.0, -1.0), 1), ((2.0, 1.0), -1), ((2.0, -1.0), -1)]
    net = modp.solve_network(terms, 3, weight=_StraightUnitWeight(0.0))
    assert (net.skipped_topologies, net.failed_starts) == (0, 0)
    assert net.mass == pytest.approx(4 + 2 * math.sqrt(3), abs=1e-9)
    net = modp.solve_network(terms, 3, weight=_StraightUnitWeight(0.5))
    assert (net.skipped_topologies, net.failed_starts) == (0, 1)
    assert net.mass == pytest.approx(8.0, abs=1e-9)
    assert net.junctions == []
    with pytest.raises(RuntimeError, match="all topologies failed"):
        modp.solve_network(terms, 3, weight=_StraightUnitWeight(2.0))


def _curved_instances():
    """Seeded conformal-weight networks: weights x and sqrt(x) in turn,
    n = 3, 4, 5 terminals in turn in [0.5, 1.5] x [-0.6, 0.6], p drawn from
    {2, 3, 5} (2 only for even n: multiplicities lie in 1..p-1)."""
    rng = np.random.default_rng(17)
    out = []
    for k in range(24):
        weight = ("x", "sqrtx")[k % 2]
        n = 3 + (k // 2) % 3
        p = int(rng.choice((2, 3, 5) if n % 2 == 0 else (3, 5)))
        while True:
            mult = rng.integers(1, p, n)
            if mult.sum() % p == 0:
                break
        pts = np.c_[rng.uniform(0.5, 1.5, n), rng.uniform(-0.6, 0.6, n)]
        out.append((weight, p, [(tuple(map(float, q)), int(m)) for q, m in zip(pts, mult)]))
    return out


# the masses of _curved_instances from the solver that also moved 8 interior
# points per arc by L-BFGS-B before the polish
POLYLINE_START_MASSES = [
    1.2311603850702293, 0.22625339195912808, 0.9539720276045348, 0.8149488487415135,
    1.4387294375046904, 1.8353214112667966, 1.8492854925464182, 0.7106718634957291,
    2.134803802390575, 1.248775234129973, 0.8202654078560043, 0.5599529088661684,
    0.824404489388656, 0.8980934316989728, 0.9801982114563689, 0.9562545471794811,
    1.5175946833441127, 1.8779752345126166, 1.8489782579037097, 1.5934791074002863,
    2.017260057617133, 0.9107401553878209, 1.3351660500461646, 1.1967148385904074]


def test_junction_only_start_loses_no_mass_on_curved_networks():
    for (weight, p, terms), old in zip(_curved_instances(), POLYLINE_START_MASSES, strict=True):
        net = modp.solve_network(terms, p, weight=modp.WeightedMetric(weight))
        # the mass sums 512 midpoint steps per arc; against 20000 steps of the
        # same arcs it reads 2e-9 to 8e-8 high, by network, so a smaller excess
        # is quadrature and not a lost minimum
        assert net.mass <= old * (1 + 1e-7)
        live = [v for arc in net.arcs if arc.kappa for v in (arc.a, arc.b)]
        assert all(live.count(j) >= 3 for j in net.junctions)


# every multiplicity pattern that passes check_structure for p = 3..7 with
# at most 5 rays, and the 6-ray (2, 1, 1, 1, 1, 1) mod 7 star, a full
# topology with all four junctions collapsed; the 6-ray star mod 6, which
# also passes, is left out because each 6-ray solve takes 7-10 s
STARS = [(3, (1, 1, 1)), (4, (1, 1, 1, 1)), (5, (2, 2, 1)), (5, (2, 1, 1, 1)),
         (5, (1, 1, 1, 1, 1)), (6, (2, 2, 2)), (6, (2, 2, 1, 1)), (6, (2, 1, 1, 1, 1)),
         (7, (3, 3, 1)), (7, (3, 2, 2)), (7, (3, 2, 1, 1)), (7, (3, 1, 1, 1, 1)),
         (7, (2, 2, 2, 1)), (7, (2, 2, 1, 1, 1)), (7, (2, 1, 1, 1, 1, 1))]


@pytest.mark.parametrize("p, kappa", STARS,
                         ids=[f"p{p}-{''.join(map(str, k))}" for p, k in STARS])
def test_solve_network_finds_balanced_stars(p, kappa):
    cfg = _balanced_star(kappa, p, np.random.default_rng([p, *kappa]))
    net = modp.solve_network([(tuple(v), int(k)) for v, k in zip(cfg.directions, cfg.kappa)], p)
    assert net.mass == pytest.approx(sum(kappa), abs=1e-9)
    assert len(net.junctions) == 1
    (j,) = net.junctions
    assert len(net.junction_tangents(j)) == len(kappa)
    assert net.balance_residuals[j] < 1e-6


def test_solve_network_contracts_collapsed_junctions():
    # 5 unit terminals mod 5 drawn like the surface workload's networks; in
    # most of them the best full topology collapses into one 5-arc node
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(20):
            th = np.sort(rng.uniform(0, 2 * math.pi, 5))
            rad = rng.uniform(0.5, 1.5, 5)
            net = modp.solve_network([((r * math.cos(a), r * math.sin(a)), 1)
                                      for a, r in zip(th, rad)], 5)
            assert all(r < 1e-6 for r in net.balance_residuals.values())
            assert all(len(net.junction_tangents(j)) >= 3 for j in net.junctions)
            assert all(a.length > 0 for a in net.arcs)
            assert net.mass == sum(abs(a.kappa) * a.length for a in net.arcs)


def test_collinear_terminals_have_no_junction():
    net = modp.solve_network([((0.0, 0.0), 1), ((1.0, 0.0), 1), ((2.0, 0.0), 1)], 3)
    assert net.junctions == []
    assert net.mass == pytest.approx(2.0, abs=1e-9)


def test_weighted_lengths_closed_forms():
    a, b, c, L = 0.25, 1.0, 0.7, 0.9
    radial = np.c_[np.linspace(a, b, 2001), np.zeros(2001)]
    vertical = np.c_[np.full(2001, c), np.linspace(0.0, L, 2001)]
    w_x = modp.WeightedMetric("x")
    w_s = modp.WeightedMetric("sqrtx")
    assert modp.polyline_weighted_length(radial, w_x) == \
        pytest.approx((b ** 2 - a ** 2) / 2.0, rel=1e-6)
    assert modp.polyline_weighted_length(radial, w_s) == \
        pytest.approx((2.0 / 3.0) * (b ** 1.5 - a ** 1.5), rel=1e-6)
    assert modp.polyline_weighted_length(vertical, w_x) == \
        pytest.approx(c * L, rel=1e-9)


def test_network_json_round_trip():
    net = modp.solve_network([((0.0, 1.0), 1), ((1.0, 0.0), 1), ((0.2, 0.2), 1)], 3)
    data = json.loads(json.dumps(net.to_json()))
    assert data["p"] == 3
    assert len(data["arcs"]) == len(net.arcs)
    assert data["mass"] == net.mass
    # mass, junctions and residuals are derived from the arcs, not read back
    data.update(mass=-1.0, junctions=[], balance_residuals={})
    back = modp.WeightedNetwork.from_json(data)
    assert (back.mass, back.junctions, back.balance_residuals) == \
        (net.mass, net.junctions, net.balance_residuals)
    assert back.to_json() == net.to_json()


def test_full_topologies_are_distinct_and_counted():
    for n in range(3, 8):
        trees = cones._full_topologies(n)
        assert len(trees) == len(set(trees)) == math.prod(range(1, 2 * n - 4, 2))


class _NamelessUnitWeight:
    """A weight object with ``w`` and ``grad_w`` only."""

    def w(self, pts):
        return np.ones(len(np.atleast_2d(pts)))

    def grad_w(self, pts):
        return np.zeros_like(np.atleast_2d(pts))


def test_solve_network_takes_a_weight_without_name():
    net = modp.solve_network([((0.0, 0.0), 1), ((1.0, 0.0), -1)], 3,
                             weight=_NamelessUnitWeight())
    assert net.mass == pytest.approx(1.0, abs=1e-9)
    assert net.weight_id == "conformal"
