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
    with pytest.raises(ValueError, match="unit"):
        modp.OpenBook(np.zeros((0, 2)), np.eye(2), np.array([[2.0, 0.0]]))
    with pytest.raises(ValueError, match="distinct"):
        modp.OpenBook(np.zeros((0, 2)), np.eye(2),
                      np.array([[1.0, 0.0], [1.0, 0.0]]))


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
    assert val <= 2.0 * abs(math.sin(omega / 2.0)) + 1e-6


def test_coherence_identity_is_zero(y_cone):
    assert modp.coherence_angle(y_cone, y_cone) == pytest.approx(0.0, abs=1e-9)


def test_incoherent_displacement_raises(y_cone):
    # one page pushed a third of the opening angle, rotation pinned to zero
    third = math.degrees(y_cone.book.min_opening_angle() / 3.0)
    moved = modp.ConeModP(_plane_book_2d([90.0 + third, 210.0, 330.0]),
                          [1, 1, 1], 3)
    with pytest.raises(ValueError, match="not coherent"):
        modp.coherence_angle(moved, y_cone, max_rotation=0.0)


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
