"""Density profiles and monotonicity quadrature checks."""

import math

import numpy as np
import pytest

import modp
from modp import fixtures


def test_cone_density_profile_is_constant(y_cone):
    delta = 0.01
    s = modp.sample_cone(y_cone, 1.0, delta)
    # radii aligned with the radial quadrature cells make the count exact
    radii = [20 * delta, 40 * delta, 60 * delta, 80 * delta, 100 * delta]
    prof = modp.density_profile(s, [0.0, 0.0], radii)
    assert max(prof) - min(prof) <= 1e-12


def test_density_profile_requires_increasing_radii(y_cone):
    s = modp.sample_cone(y_cone, 1.0, 0.05)
    with pytest.raises(ValueError):
        modp.density_profile(s, [0.0, 0.0], [0.4, 0.2])
    for radii in ([0.2, math.nan], [math.nan], [0.2, math.inf], [0.0, 0.2]):
        with pytest.raises(ValueError, match="finite"):
            modp.density_profile(s, [0.0, 0.0], radii)


def test_plane_through_origin_has_no_perp_part():
    s = fixtures.plane_sample(0.02)
    perp = modp.perp_components(s)
    assert np.abs(perp).max() < 1e-12


def test_perp_needs_tangents():
    s = fixtures.plane_sample(0.05)
    s.tangents = None
    with pytest.raises(ValueError, match="tangent"):
        modp.perp_components(s)


def test_off_plane_density_starts_at_zero_then_grows():
    s = fixtures.plane_sample(0.02)
    q = [0.0, 0.0, 0.5]
    prof = modp.density_profile(s, q, [0.25, 0.75, 1.0])
    assert prof[0] == 0.0
    assert prof[1] > 0.0
    assert prof[2] > prof[1]


def test_weighted_identity_on_plane_holds():
    s = fixtures.plane_sample(0.01, extent=1.1)
    g_val = lambda pts: np.linalg.norm(pts, axis=1)
    g_grad = lambda pts: pts / np.linalg.norm(pts, axis=1)[:, None]
    rep = modp.weighted_monotonicity_check(s, g_val, g_grad, k=1, alpha=1.0, R1=1.0)
    assert rep.holds
    # closed forms: lhs = pi * R1, mass term = 2 pi * R1
    assert rep.lhs == pytest.approx(math.pi, rel=0.02)
    assert rep.details["mass_term"] == pytest.approx(2.0 * math.pi, rel=0.02)


def test_tilted_plane_perp_term_scales_quadratically():
    g_val = lambda pts: np.linalg.norm(pts, axis=1)
    g_grad = lambda pts: pts / np.linalg.norm(pts, axis=1)[:, None]

    def perp_term(phi):
        # k = 0 keeps the radial weight integrable so the sin^2(phi) factor
        # in |q_perp|^2 dominates the scaling
        s = fixtures.tilted_plane_sample(phi, delta=0.02)
        rep = modp.weighted_monotonicity_check(s, g_val, g_grad,
                                               k=0, alpha=1.0, R1=1.0)
        return rep.details["perp_term"]

    small, double = perp_term(0.02), perp_term(0.04)
    assert double / small == pytest.approx(4.0, rel=0.05)


def test_alpha_range_enforced():
    s = fixtures.plane_sample(0.05)
    g_val = lambda pts: np.linalg.norm(pts, axis=1)
    g_grad = lambda pts: pts / np.linalg.norm(pts, axis=1)[:, None]
    with pytest.raises(ValueError):
        modp.weighted_monotonicity_check(s, g_val, g_grad, k=0, alpha=2.5, R1=1.0)


def test_scalar_callables_accepted_per_point():
    s = fixtures.plane_sample(0.05)
    g_val = lambda q: float(np.linalg.norm(q))
    g_grad = lambda q: np.asarray(q) / np.linalg.norm(q)
    rep = modp.weighted_monotonicity_check(s, g_val, g_grad, k=1, alpha=1.0, R1=1.0)
    assert rep.holds
    # per-point and block callables give the same quadrature off the plane too
    t = fixtures.tilted_plane_sample(0.3, delta=0.05)
    point = modp.weighted_monotonicity_check(t, g_val, g_grad, k=1, alpha=1.0, R1=1.0)
    block = modp.weighted_monotonicity_check(
        t, lambda pts: np.linalg.norm(pts, axis=1),
        lambda pts: pts / np.linalg.norm(pts, axis=1)[:, None], k=1, alpha=1.0, R1=1.0)
    assert point.lhs == pytest.approx(block.lhs, abs=1e-12)
    assert point.rhs == pytest.approx(block.rhs, abs=1e-12)
    assert point.details["perp_term"] == pytest.approx(block.details["perp_term"], abs=1e-12)
    assert block.details["perp_term"] > 1.0


def test_cone_comparison_with_itself_vanishes(y_cone):
    s = modp.sample_cone(y_cone, 1.0, 0.02)
    rep = modp.cone_comparison_check(s, s, f=lambda t: 1.0,
                                     fprime=lambda t: 0.0, R1=0.8)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.holds


def test_cone_comparison_constant_f_reduces_to_mass(y_cone):
    s = modp.sample_cone(y_cone, 1.0, 0.02)
    heavier = modp.sample_cone(modp.ConeModP(y_cone.book, [2, 2, 2], 7), 1.0, 0.02)
    rep = modp.cone_comparison_check(s, heavier, f=lambda t: 1.0,
                                     fprime=lambda t: 0.0, R1=0.8)
    inside_t = np.linalg.norm(s.points, axis=1) < 0.8
    inside_c = np.linalg.norm(heavier.points, axis=1) < 0.8
    mass_diff = heavier.weights[inside_c].sum() - s.weights[inside_t].sum()
    assert rep.lhs == pytest.approx(mass_diff, abs=1e-12)
