"""Open books, excess, coherence, retraction, and cone samples."""

import json
import math

import numpy as np
import pytest

import modp
from modp import fixtures


def _plane_book_2d(angles_deg):
    pages = np.array([[math.cos(math.radians(a)), math.sin(math.radians(a))]
                      for a in angles_deg])
    return modp.OpenBook(np.zeros((0, 2)), np.eye(2), pages)


def test_dist_to_single_page():
    book = _plane_book_2d([0.0])
    assert modp.dist_to_book([-1.0, 0.0], book) == pytest.approx(1.0)
    assert modp.dist_to_book([2.0, 0.0], book) == pytest.approx(0.0, abs=1e-12)


def test_book_validation():
    with pytest.raises(ValueError, match="^page directions must be unit vectors$"):
        modp.OpenBook(np.zeros((0, 2)), np.eye(2), np.array([[2.0, 0.0]]))
    with pytest.raises(ValueError, match="^page directions must be pairwise distinct$"):
        modp.OpenBook(np.zeros((0, 2)), np.eye(2),
                      np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_min_opening_angle_of_close_pages():
    eps = 1e-8
    book = _plane_book_2d([17.0, 17.0 + math.degrees(eps), 200.0])
    assert book.min_opening_angle() == pytest.approx(eps, rel=1e-6)
    assert _plane_book_2d([40.0]).min_opening_angle() == 2 * math.pi


def test_book_rejects_frame_that_is_not_orthonormal():
    pages = [[math.cos(a), math.sin(a)] for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    spine = [[0.0, 0.0, 1.0]]
    with pytest.raises(ValueError, match="orthonormal"):
        modp.OpenBook(spine, [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]], pages)
    with pytest.raises(ValueError, match="orthonormal"):  # slice rows not orthogonal
        modp.OpenBook(spine, [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]], pages)
    with pytest.raises(ValueError, match="orthonormal"):  # spine not unit
        modp.OpenBook([[0.0, 0.0, 2.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], pages)
    with pytest.raises(ValueError, match="two rows"):
        modp.OpenBook(spine, [[1.0, 0.0, 0.0]], pages)
    book = modp.OpenBook(spine, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], pages)
    assert modp.dist_to_book([1.0, 0.0, 0.0], book) == pytest.approx(0.0, abs=1e-12)


def _random_book(rng, m, D):
    frame = np.linalg.qr(rng.normal(size=(D, D)))[0].T
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, int(rng.integers(3, 6))))
    pages = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return modp.OpenBook(frame[:m - 1], frame[m - 1:m + 1], pages)


def _reference_dist(x, book):
    """Distance in ambient coordinates to each closed half-plane spine + ray."""
    on_spine = book.spine.T @ (book.spine @ x)
    best = math.inf
    for v in book.pages:
        d = book.slice_basis.T @ v
        nearest = on_spine + max(float(d @ x), 0.0) * d
        best = min(best, float(np.linalg.norm(x - nearest)))
    return best


@pytest.mark.parametrize("m,D", [(2, 3), (1, 2)])
def test_distance_kernel_matches_half_plane_reference(m, D):
    from modp.books import _dist2_to_book

    rng = np.random.default_rng(17 + m)
    for _ in range(4):
        book = _random_book(rng, m, D)
        X = rng.normal(size=(500, D))
        X[:50] = rng.uniform(0.0, 2.0, size=(50, 1)) * (book.slice_basis.T @ book.pages[0])
        ref = np.array([_reference_dist(x, book) for x in X])
        np.testing.assert_allclose(_dist2_to_book(X, book), ref ** 2, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose([modp.dist_to_book(x, book) for x in X[:50]], ref[:50],
                                   rtol=1e-12, atol=1e-12)
        weights = rng.uniform(0.0, 1.0, len(X))
        sample = modp.VarifoldSample(X, weights, m)
        q, R = X[0] * 0.5, 1.5
        inside = [i for i, x in enumerate(X) if np.linalg.norm(x - q) < R]
        by_point = sum(weights[i] * modp.dist_to_book(X[i] - q, book) ** 2 for i in inside)
        assert modp.excess(sample, book, q, R) == pytest.approx(by_point / R ** (m + 2),
                                                               rel=1e-12)


def test_cone_multiplicity_validation(y_cone):
    with pytest.raises(ValueError, match="p/2"):
        modp.ConeModP(y_cone.book, [2, 1, 1], 3)
    with pytest.raises(ValueError, match=">= 1"):
        modp.ConeModP(y_cone.book, [0, 1, 1], 3)


def test_book_json_round_trip(y_cone):
    data = y_cone.book.to_json(p=3, kappa=y_cone.kappa)
    back = modp.OpenBook.from_json(data)
    np.testing.assert_allclose(back.pages, y_cone.book.pages)
    assert back.m == y_cone.book.m
    cone = modp.ConeModP.from_json(json.loads(json.dumps(data)))
    assert np.array_equal(cone.book.pages, y_cone.book.pages)
    assert cone.kappa.tolist() == [1, 1, 1] and cone.p == 3


def test_excess_of_book_sample_is_zero(y_cone):
    s = modp.sample_cone(y_cone, 1.0, 0.01)
    assert modp.excess(s, y_cone.book, [0.0, 0.0], 0.5) < 1e-12


def test_excess_sees_displacement(y_cone):
    s = modp.sample_cone(y_cone, 1.0, 0.01)
    rot = _plane_book_2d([100.0, 220.0, 340.0])
    assert modp.excess(s, rot, [0.0, 0.0], 0.5) > 1e-4


def test_coherence_of_rotated_copy(y_cone):
    omega = 0.05
    deg = math.degrees(omega)
    rotated = modp.ConeModP(_plane_book_2d([90.0 + deg, 210.0 + deg, 330.0 + deg]),
                            [1, 1, 1], 3)
    val = modp.coherence_angle(rotated, y_cone)
    assert val == pytest.approx(2.0 * math.sin(omega / 2.0), abs=2e-15)


def test_coherence_identity_is_zero(y_cone):
    assert modp.coherence_angle(y_cone, y_cone) == 0.0


def test_coherence_finds_a_narrow_window(y_cone):
    # the admissible rotations form a window 0.02 degrees wide
    delta = 0.0225
    C = modp.ConeModP(_plane_book_2d([90.0 + 29.99 + delta, 210.0 - 29.99 + delta,
                                      330.0 + delta]), [1, 1, 1], 3)
    assert modp.coherence_angle(C, y_cone) == pytest.approx(0.5238169417522749, rel=1e-14)


def test_coherence_with_pinned_rotation_is_the_largest_page_angle(y_cone):
    moved = modp.ConeModP(_plane_book_2d([95.0, 207.0, 331.0]), [1, 1, 1], 3)
    val = modp.coherence_angle(moved, y_cone, max_rotation=0.0)
    assert val == pytest.approx(math.radians(5.0), abs=1e-15)


def _dense_coherence(C, C0, span, n=20001):
    """Coherence angle over n evenly spaced rotations in [-span, span]."""
    lam = C0.book.min_opening_angle() / 4.0
    theta, phi = C.book.page_angles(), C0.book.page_angles()
    omega = np.linspace(-span, span, n)
    x = phi[None, None, :] - theta[None, :, None] - omega[:, None, None]
    gap = np.abs(np.arctan2(np.sin(x), np.cos(x)))
    group = gap.argmin(axis=2)
    worst = gap.min(axis=2).max(axis=1)
    kappa = ((group[..., None] == np.arange(len(phi))) * C.kappa[:, None]).sum(axis=1)
    ok = (worst <= lam) & (kappa == C0.kappa).all(axis=1)
    assert ok.any()
    return float((2.0 * np.abs(np.sin(omega / 2.0)) + worst)[ok].min()), 2.0 * span / (n - 1)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("span", [math.pi / 2, math.pi])
def test_coherence_groups_pages_with_multiplicities(seed, span):
    C0 = modp.ConeModP(_plane_book_2d([0.0, 120.0, 240.0]), [2, 2, 1], 5)
    rng = np.random.default_rng(seed)
    # with span = pi the best rotation lies near +-pi, and for seeds 5 and 6
    # past it: its window crosses from one end of [-pi, pi] to the other
    turn = 180.0 + rng.uniform(-3.0, 3.0) if span == math.pi else rng.uniform(-25.0, 25.0)
    angles = np.array([0.0, 0.0, 120.0, 120.0, 240.0]) + rng.uniform(-14.0, 14.0, 5) + turn
    C = modp.ConeModP(_plane_book_2d(angles), [1] * 5, 5)
    reference, step = _dense_coherence(C, C0, span)
    val = modp.coherence_angle(C, C0, max_rotation=span if span == math.pi else None)
    assert reference - 2.0 * step <= val <= reference + 1e-12


def test_incoherent_displacement_raises(y_cone):
    # one page pushed a third of the opening angle, rotation pinned to zero
    third = math.degrees(y_cone.book.min_opening_angle() / 3.0)
    moved = modp.ConeModP(_plane_book_2d([90.0 + third, 210.0, 330.0]),
                          [1, 1, 1], 3)
    with pytest.raises(ValueError, match="not coherent"):
        modp.coherence_angle(moved, y_cone, max_rotation=0.0)


def _spine_book_3d(spine, slice_basis):
    """Three pages at 120 degrees around the given spine of R^3."""
    pages = [[math.cos(a), math.sin(a)] for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return modp.OpenBook(np.array([spine], float), np.array(slice_basis, float), pages)


def test_coherence_compares_books_in_one_frame_only():
    e3 = modp.ConeModP(_spine_book_3d([0, 0, 1], [[1, 0, 0], [0, 1, 0]]), [1, 1, 1], 3)
    e1 = modp.ConeModP(_spine_book_3d([1, 0, 0], [[0, 1, 0], [0, 0, 1]]), [1, 1, 1], 3)
    # the same page angles in different frames are different cones
    with pytest.raises(ValueError, match="different frames"):
        modp.coherence_angle(e3, e1)
    # a spine of opposite sign spans the same line
    flipped = modp.ConeModP(_spine_book_3d([0, 0, -1], [[1, 0, 0], [0, 1, 0]]), [1, 1, 1], 3)
    assert modp.coherence_angle(flipped, e3) == 0.0
    # a turned slice basis is another frame for the same plane
    c, s = math.cos(0.3), math.sin(0.3)
    turned = modp.ConeModP(_spine_book_3d([0, 0, 1], [[c, s, 0], [-s, c, 0]]), [1, 1, 1], 3)
    with pytest.raises(ValueError, match="different frames"):
        modp.coherence_angle(turned, e3)


def test_retraction_properties(y_cone):
    book = y_cone.book
    rho = 0.1
    # identity on the book
    on_page = np.array([0.0, 2.0])
    np.testing.assert_allclose(modp.retract_to_book(on_page, book, rho),
                               on_page, atol=1e-12)
    # image lies on the book
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = rng.normal(size=2)
        out = modp.retract_to_book(q, book, rho)
        assert modp.dist_to_book(out, book) < 1e-9
    # 1-homogeneous
    q = np.array([0.31, 0.17])
    np.testing.assert_allclose(modp.retract_to_book(3.0 * q, book, rho),
                               3.0 * np.asarray(modp.retract_to_book(q, book, rho)),
                               atol=1e-12)
    with pytest.raises(ValueError):
        modp.retract_to_book(q, book, 0.5)


def test_density_ratio_of_plane_is_one():
    s = fixtures.plane_sample(0.01)
    assert modp.density_ratio(s, [0.0, 0.0, 0.0], 1.0) == pytest.approx(1.0, abs=0.03)


def test_y_cone_density_is_three_halves(y_cone):
    s = modp.sample_cone(y_cone, 1.0, 0.01)
    assert modp.density_ratio(s, [0.0, 0.0], 0.5) == pytest.approx(1.5, abs=0.03)


def test_varifold_sample_json_round_trip():
    s = fixtures.tilted_plane_sample(0.1, delta=0.05)
    back = modp.VarifoldSample.from_json(s.to_json())
    np.testing.assert_allclose(back.points, s.points)
    np.testing.assert_allclose(back.weights, s.weights)
    assert back.m == s.m
    np.testing.assert_allclose(back.tangents, s.tangents)


def test_varifold_sample_json_is_exact_python_floats():
    s = fixtures.tilted_plane_sample(0.1, delta=0.05)
    data = s.to_json()
    values = ([v for q in data["points"] for v in q] + data["weights"]
              + [v for fr in data["tangents"] for row in fr for v in row])
    assert all(type(v) is float for v in values)
    # same JSON text as converting one float at a time
    reference = {"m": s.m,
                 "points": [list(map(float, q)) for q in s.points],
                 "weights": list(map(float, s.weights)),
                 "delta": s.delta,
                 "tangents": [[list(map(float, v)) for v in fr] for fr in s.tangents]}
    assert json.dumps(data) == json.dumps(reference)
    back = modp.VarifoldSample.from_json(json.loads(json.dumps(data)))
    np.testing.assert_array_equal(back.points, s.points)
    np.testing.assert_array_equal(back.weights, s.weights)
    np.testing.assert_array_equal(back.tangents, s.tangents)
