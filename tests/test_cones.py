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


@pytest.mark.parametrize("grid", [0.0, -1.0, math.nan, math.inf])
def test_fermat_point_grid_rejects_a_bad_grid(grid):
    with pytest.raises(ValueError, match="grid"):
        modp.fermat_point_grid([q for q, _ in EQUILATERAL], np.ones(3), grid=grid)


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
    # guards the Newton junction start on the euclidean weight (no geodesic polish)
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


def _straight_geodesic(weight, a, b, theta0, steps):
    """``two_point_geodesic`` of a weight that is 1 wherever it is defined:
    the segment from a to b, its length, and a weighted length that
    evaluates ``weight.w`` on the segment's ``steps + 1`` points."""
    d = b - a
    theta = theta0 + math.remainder(math.atan2(d[1], d[0]) - theta0, 2 * math.pi)
    poly = a + np.linspace(0.0, 1.0, steps + 1)[:, None] * d
    length = float(np.hypot(*d))
    return poly, theta, length, length * float(weight.w(poly).mean())


class _UndefinedNearOrigin:
    """Unit weight that raises FloatingPointError within 0.2 of the origin."""

    name = "undefined-near-origin"
    two_point_geodesic = _straight_geodesic

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
    # sources on the left, sinks on the right: the first topology in sorted
    # order pairs the sources (the optimal H, mass 4 + 2 sqrt(3)) and its one
    # solve fails; the others carry two horizontal segments
    terms = [((-2.0, 1.0), 1), ((-2.0, -1.0), 1), ((2.0, 1.0), -1), ((2.0, -1.0), -1)]
    assert modp.solve_network(terms, 3).mass == pytest.approx(4 + 2 * math.sqrt(3), abs=1e-9)
    net = modp.solve_network(terms, 3, weight=_FlakyEuclidean(1))
    assert (net.skipped_topologies, net.failed_starts) == (1, 1)
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
    on the 513 points of an arc that comes within ``band`` of the x-axis,
    that is, only where ``two_point_geodesic`` takes an arc's weighted
    length."""

    name = "straight"
    two_point_geodesic = _straight_geodesic

    def __init__(self, band):
        self.band = band

    def w(self, pts):
        pts = np.atleast_2d(pts)
        if len(pts) >= 512 and np.any(np.abs(pts[:, 1]) < self.band):
            raise FloatingPointError("weight undefined near the x-axis")
        return np.ones(len(pts))

    def grad_w(self, pts):
        return np.zeros_like(np.atleast_2d(pts))


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


# the masses of _curved_instances from the solver that started each topology
# three times, from the centroid and from two seeded jitters of it, with each
# arc's exact weighted length (a 512-step midpoint sum read 1.4e-9 to 2.4e-7
# higher)
THREE_START_MASSES = [
    1.2310701520337046, 0.22625339163969777, 0.9539720037742555, 0.8149488315471345,
    1.4059639976302045, 1.8353213997487876, 1.849285486568496, 0.7106718615561902,
    2.1348037279564016, 1.2487751663501632, 0.8201786865660522, 0.5599529016624819,
    0.8244044873109821, 0.8980934133903374, 0.9801981697748433, 0.9562545449400159,
    1.5175946874569708, 1.877975214387284, 1.84897820608808, 1.5934789839561798,
    2.01725999091588, 0.9107401309853229, 1.335145493293119, 1.1966681847343297]


def test_junction_only_start_loses_no_mass_on_curved_networks():
    for (weight, p, terms), old, last in zip(_curved_instances(), POLYLINE_START_MASSES,
                                             THREE_START_MASSES, strict=True):
        net = modp.solve_network(terms, p, weight=modp.WeightedMetric(weight))
        # the old masses summed 512 midpoint steps per arc, which read up to
        # 8e-8 high, so a smaller excess is quadrature and not a lost minimum
        assert net.mass <= old * (1 + 1e-7)
        assert net.mass == pytest.approx(last, rel=1e-12, abs=0)
        live = [v for arc in net.arcs if arc.kappa for v in (arc.a, arc.b)]
        assert all(live.count(j) >= 3 for j in net.junctions)
        assert max(net.balance_residuals.values(), default=0) < 1e-6



@pytest.mark.xfail(strict=True, reason="the solver knows no arc that ends on the "
                   "rotation axis, where w = x costs nothing: it returns an "
                   "interior junction at (0.596, 0.134) with residual 5.5e-3 and "
                   "mass 1.10515, where three flat disks cost sum x^2 / 2 = 0.91223")
def test_curved_network_balances_or_ends_on_the_axis():
    terms = [((0.9324215843194972, 0.09673751500737926), 1),
             ((0.6998797365053646, 0.7474921500286722), 1),
             ((0.6820698159120229, -0.6375722741216245), 1)]
    net = modp.solve_network(terms, 3, weight=modp.WeightedMetric("x"))
    assert max(net.balance_residuals.values(), default=0) <= cones.BALANCE_TOL
    assert net.mass <= 0.912231


# the masses of the H below from the polish that balanced an arc leaving a
# junction on its exact start angle, while the residual read its chord
EXACT_START_ANGLE_H_MASSES = {"x": 10.293207930915, "sqrtx": 7.183513799926}


@pytest.mark.parametrize("weight", ["x", "sqrtx"])
def test_curved_junctions_balance_on_the_tangents_they_report(weight):
    # two junctions joined by an arc: both ends of it are balanced on the
    # chords that balance_residuals reads
    terms = [((1.0, 0.3), 1), ((1.0, -0.3), 2), ((3.0, 0.3), -1), ((3.0, -0.3), -2)]
    net = modp.solve_network(terms, 5, weight=modp.WeightedMetric(weight))
    assert len(net.junctions) == 2
    assert max(net.balance_residuals.values()) <= cones.BALANCE_TOL
    assert net.mass <= EXACT_START_ANGLE_H_MASSES[weight]
    assert all(len(arc.polyline) == 513 for arc in net.arcs)


def test_curved_networks_have_only_geodesic_arcs():
    # a tree with an arc that no geodesic of x > 0 joins is merged, and one
    # without a junction to merge fails; no network falls back to straight
    # two-point arcs
    rng = np.random.default_rng(99)
    failed = []
    for k in range(60):
        pts = np.c_[rng.uniform(0.3, 1.5, 3), rng.uniform(-0.8, 0.8, 3)]
        weight = modp.WeightedMetric(("x", "sqrtx")[k % 2])
        try:
            net = modp.solve_network([(tuple(q), 1) for q in pts], 3, weight=weight)
        except RuntimeError as err:
            assert "no geodesic" in str(err)
            failed.append(k)
            continue
        assert all(len(arc.polyline) == 513 for arc in net.arcs)
    assert failed == [22, 54]


def test_solve_network_rejects_terminals_outside_the_weights_domain():
    terms = [((math.cos(a), math.sin(a)), 1) for a in (0.3, 2.1, 4.4)]
    assert modp.solve_network(terms, 3).mass > 0
    for weight in ("x", "sqrtx"):
        with pytest.raises(ValueError, match=r"x > 1e-09"):
            modp.solve_network(terms, 3, weight=modp.WeightedMetric(weight))
        with pytest.raises(ValueError, match=r"x > 1e-09"):  # on the axis
            modp.solve_network([((0.0, 0.0), 1), ((1.0, 0.0), 2)], 3,
                               weight=modp.WeightedMetric(weight))


def _euclidean_instances():
    """Seeded euclidean networks: n = 3..6 terminals in the unit disk with
    signed multiplicities 1..p-1 summing to 0 mod p, two per (n, p) for p in
    {2, 3, 5} (2 only for even n), then four balanced stars, whose full
    topologies all collapse into one junction."""
    rng = np.random.default_rng(18)
    out = []
    for n in range(3, 7):
        for p in (2, 3, 5):
            if p == 2 and n % 2:
                continue
            for _ in range(2):
                while True:
                    mult = rng.integers(1, p, n) * rng.choice((-1, 1), n)
                    if mult.sum() % p == 0:
                        break
                r, a = np.sqrt(rng.uniform(0, 1, n)), rng.uniform(0, 2 * math.pi, n)
                out.append((p, [((float(x), float(y)), int(m))
                                for x, y, m in zip(r * np.cos(a), r * np.sin(a), mult)]))
    for p, kappa in ((3, (1, 1, 1)), (5, (2, 2, 1)), (5, (2, 1, 1, 1)), (5, (1, 1, 1, 1, 1))):
        cfg = _balanced_star(kappa, p, np.random.default_rng([p, *kappa]))
        out.append((p, [(tuple(map(float, v)), int(k)) for v, k in zip(cfg.directions, cfg.kappa)]))
    return out


# the masses of _euclidean_instances from the solver that optimized the
# junctions by scipy's L-BFGS-B and contracted the best candidate afterwards
LBFGS_MASSES = [
    1.6798075135587323, 1.4622234670152825, 1.4941463235075116, 1.323973043519544,
    1.842649061997358, 0.9685844992120763, 1.493160249087543, 1.4020260357442984,
    1.9753966314717102, 1.73672586847458, 1.7365928776813873, 1.6705327338138962,
    3.672235908392163, 3.018606844049965, 1.1567950882770865, 2.1401936767344676,
    1.708100781238779, 0.9811611857786064, 3.426656773353726, 1.6360742781687858, 3.0, 5.0,
    5.000000000000001, 5.0]


def test_newton_start_keeps_the_euclidean_masses():
    for (p, terms), old in zip(_euclidean_instances(), LBFGS_MASSES, strict=True):
        assert modp.solve_network(terms, p).mass == pytest.approx(old, rel=1e-12, abs=0)


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


def test_topology_solve_opens_a_merge_that_is_no_minimum():
    # from the centre start the two junctions of the H coincide: merged, they
    # give the X of mass 4 sqrt(5), and the solve must open them again
    terms = np.array([(-2.0, 1.0), (-2.0, -1.0), (2.0, 1.0), (2.0, -1.0)])
    edges = [(0, 4), (1, 4), (2, 5), (3, 5), (4, 5)]
    kappa = modp.tree_multiplicities(edges, 6, [1, 1, -1, -1], 3)
    prob = cones._TopologyProblem(edges, kappa, terms, cones.EuclideanWeight())
    val, x = prob.solve(np.zeros(4))
    assert val == pytest.approx(4 + 2 * math.sqrt(3), rel=1e-12)
    np.testing.assert_allclose(x, [-2 + 1 / math.sqrt(3), 0, 2 - 1 / math.sqrt(3), 0],
                               atol=1e-9)


def test_collinear_terminals_have_no_junction():
    net = modp.solve_network([((0.0, 0.0), 1), ((1.0, 0.0), 1), ((2.0, 0.0), 1)], 3)
    assert net.junctions == []
    assert net.mass == pytest.approx(2.0, abs=1e-9)


def test_weighted_lengths_closed_forms():
    a, b, c, L = 0.25, 1.0, 0.7, 0.9
    vertical = np.c_[np.full(2001, c), np.linspace(0.0, L, 2001)]
    w_x = modp.WeightedMetric("x")
    w_s = modp.WeightedMetric("sqrtx")
    radial = [np.array([a, 0.0]), np.array([b, 0.0]), 0.0, 512]
    assert w_x.two_point_geodesic(*radial)[3] == pytest.approx((b ** 2 - a ** 2) / 2.0, rel=1e-15)
    assert w_s.two_point_geodesic(*radial)[3] == \
        pytest.approx((2.0 / 3.0) * (b ** 1.5 - a ** 1.5), rel=1e-15)
    assert modp.weighted_length(vertical, w_x) == pytest.approx(c * L, rel=1e-9)


def _simpson_length(metric, a, b, steps=4096):
    """Composite Simpson of w along the closed-form geodesic from a to b, whose
    ``steps + 1`` points lie at equal euclidean arc-length spacing."""
    poly, _, length, _ = metric.two_point_geodesic(a, b, 0.0, steps)
    f = metric.w(poly)
    return length / (3 * steps) * (f[0] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum() + f[-1])


def test_curved_arc_lengths_are_the_integrals_of_their_closed_forms():
    taylor = [((math.cos(math.radians(a)), math.sin(math.radians(a))), 1)
              for a in (-40.0, 0.0, 40.0)]
    cases = [*_curved_instances(), ("x", 3, taylor), ("sqrtx", 3, taylor)]
    for weight, p, terms in cases:
        metric = modp.WeightedMetric(weight)
        net = modp.solve_network(terms, p, weight=metric)
        for arc in net.arcs:
            reference = _simpson_length(metric, net.nodes[arc.a], net.nodes[arc.b])
            assert arc.length == pytest.approx(reference, rel=1e-11, abs=0)
    # the horizontal branch, both ways round
    for weight in ("x", "sqrtx"):
        metric = modp.WeightedMetric(weight)
        for a, b in (((0.5, 0.25), (1.5, 0.25)), ((1.5, -0.3), (0.2, -0.3))):
            a, b = np.array(a), np.array(b)
            poly, _, _, w_length = metric.two_point_geodesic(a, b, 0.0, 512)
            assert np.all(poly[:, 1] == a[1])
            assert w_length == pytest.approx(_simpson_length(metric, a, b), rel=1e-11, abs=0)


def test_solve_network_needs_a_geodesic_of_a_conformal_weight():
    class ArrayOnly:
        """A unit weight with w and grad_w and no two_point_geodesic."""

        def w(self, pts):
            return np.ones(len(np.atleast_2d(pts)))

        def grad_w(self, pts):
            return np.zeros_like(np.atleast_2d(pts))

    with pytest.raises(ValueError, match="two_point_geodesic"):
        modp.solve_network(EQUILATERAL, 3, weight=ArrayOnly())
    with pytest.raises(ValueError, match="unknown weight"):
        modp.solve_network(EQUILATERAL, 3, weight="x")
    assert modp.solve_network(EQUILATERAL, 3, weight=cones.EuclideanWeight()).to_json() == \
        modp.solve_network(EQUILATERAL, 3).to_json()


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
    """A weight object with ``w``, ``grad_w`` and ``two_point_geodesic`` only."""

    two_point_geodesic = _straight_geodesic

    def w(self, pts):
        return np.ones(len(np.atleast_2d(pts)))

    def grad_w(self, pts):
        return np.zeros_like(np.atleast_2d(pts))


def test_solve_network_takes_a_weight_without_name():
    net = modp.solve_network([((0.0, 0.0), 1), ((1.0, 0.0), -1)], 3,
                             weight=_NamelessUnitWeight())
    assert net.mass == pytest.approx(1.0, abs=1e-9)
    assert net.weight_id == "conformal"
