"""Quadrature diagnostics for the monotonicity identities on varifold samples.

Normal components q-perp are taken from the analytic tangent frames carried
by the sample; nothing is estimated from neighbors, so quadrature error is
the only error source on the fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .books import VarifoldSample, density_ratio

__all__ = [
    "MonotonicityReport",
    "density_profile",
    "weighted_monotonicity_check",
    "cone_comparison_check",
    "perp_components",
]


@dataclass
class MonotonicityReport:
    radii: list = field(default_factory=list)
    density_ratios: list = field(default_factory=list)
    lhs: float = 0.0
    rhs: float = 0.0
    residual: float = 0.0
    curvature_budget: float = 0.0
    tolerance: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + self.tolerance


def density_profile(T: VarifoldSample, q, radii) -> list:
    """Density ratio Theta(q, r) along an increasing radius grid."""
    radii = [float(r) for r in radii]
    if not all(0 < r < math.inf for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be finite, greater than 0 and increasing")
    return [density_ratio(T, q, r) for r in radii]


def perp_components(T: VarifoldSample, center=None) -> np.ndarray:
    """q-perp = q - projection of q onto the sample's tangent planes."""
    if T.tangents is None:
        raise ValueError("fixture must provide tangent planes")
    q = T.points if center is None else T.points - np.asarray(center, float)
    proj = np.einsum("nkd,nk->nd", T.tangents,
                     np.einsum("nkd,nd->nk", T.tangents, q))
    return q - proj


def _eval_pair(g_val: Callable, g_grad: Callable, pts: np.ndarray):
    """Values (N,) and gradients (N, D) of g at the rows of ``pts``.

    The pair is vectorised when ``g_val`` maps the (N, D) block to shape
    (N,); then ``g_grad`` gets the block too.  Otherwise both are called one
    point at a time.
    """
    vals = np.asarray(g_val(pts), dtype=float)
    if vals.shape == (len(pts),):
        grads = np.asarray(g_grad(pts), dtype=float)
        if grads.shape != pts.shape:
            raise ValueError(f"g_grad returned shape {grads.shape} for a block of "
                             f"shape {pts.shape}, although g_val is vectorised")
        return vals, grads
    vals = np.array([float(g_val(q)) for q in pts])
    grads = np.array([np.asarray(g_grad(q), dtype=float) for q in pts]).reshape(pts.shape)
    return vals, grads


def weighted_monotonicity_check(T: VarifoldSample, g_val: Callable,
                                g_grad: Callable, k: int, alpha: float,
                                R1: float, curvature_budget: float = 0.0,
                                ghat_sup: float = 1.0,
                                constant_C: float = 1.0) -> MonotonicityReport:
    """Quadrature of the weighted monotonicity inequality for homogeneous g:

    (alpha/2) int g^2 / |q|^(m+2k-alpha)
        <= (m+2k)/R1^(m+2k-alpha) int g^2
           + (2/alpha) int |grad g|^2 |q_perp|^2 / |q|^(m+2k-alpha)
           + C * A * sup(ghat)^2 * ||T||(B_R1) / R1^(m-alpha),

    all integrals over B_R1 against the sample weights.  g_val and g_grad
    either both take an (N, D) block of points, returning shapes (N,) and
    (N, D), or both take one point; the block call of g_val decides which.
    """
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0, 2)")
    m = T.m
    r = np.linalg.norm(T.points, axis=1)
    inside = r < R1
    pts = T.points[inside]
    wts = T.weights[inside]
    rr = np.maximum(r[inside], 1e-300)
    g, grads = _eval_pair(g_val, g_grad, pts)
    g2 = g ** 2
    perp = perp_components(T)[inside]
    perp2 = np.einsum("nd,nd->n", perp, perp)
    grad2 = np.einsum("nd,nd->n", grads, grads)
    expo = m + 2 * k - alpha
    lhs = 0.5 * alpha * float(wts @ (g2 / rr ** expo))
    term1 = (m + 2 * k) / R1 ** expo * float(wts @ g2)
    term2 = (2.0 / alpha) * float(wts @ (grad2 * perp2 / rr ** expo))
    term3 = constant_C * curvature_budget * ghat_sup ** 2 * \
        float(wts.sum()) / R1 ** (m - alpha)
    rhs = term1 + term2 + term3
    tol = 3.0 * T.delta * float(wts.sum())
    return MonotonicityReport(lhs=lhs, rhs=rhs, residual=lhs - rhs,
                              curvature_budget=curvature_budget, tolerance=tol,
                              details={"mass_term": term1, "perp_term": term2,
                                       "curvature_term": term3})


def cone_comparison_check(T: VarifoldSample, C: VarifoldSample,
                          f: Callable, fprime: Callable, R1: float,
                          mean_curvature: Optional[Callable] = None) -> MonotonicityReport:
    """Quadrature of the radial comparison inequality against a cone:

    int f d||C|| - int f d||T|| + m int F(|q|) |q_perp|^2 / |q|^(m+2) d||T||
        <= - int F(|q|) q_perp . H_T / |q|^m d||T||,

    with F(t) = -int_t^R1 f'(s) s^m ds; the right side vanishes for
    minimizer fixtures with H_T = 0.
    """
    from scipy.integrate import quad

    m = T.m

    def F(t):
        val, _ = quad(lambda s: fprime(s) * s ** m, t, R1, limit=200)
        return -val

    def radial_integral(sample, fn):
        r = np.linalg.norm(sample.points, axis=1)
        inside = r < R1
        vals = np.array([fn(t) for t in r[inside]])
        return float(sample.weights[inside] @ vals), inside, r

    ic, _, _ = radial_integral(C, f)
    it, inside, r = radial_integral(T, f)
    rr = np.maximum(r[inside], 1e-300)
    perp = perp_components(T)[inside]
    perp2 = np.einsum("nd,nd->n", perp, perp)
    Fvals = np.array([F(t) for t in rr])
    term = m * float(T.weights[inside] @ (Fvals * perp2 / rr ** (m + 2)))
    lhs = ic - it + term
    if mean_curvature is None:
        rhs = 0.0
    else:
        H = np.array([mean_curvature(q) for q in T.points[inside]])
        rhs = -float(T.weights[inside]
                     @ (Fvals * np.einsum("nd,nd->n", perp, H) / rr ** m))
    tol = 3.0 * max(T.delta, C.delta) * float(T.weights[inside].sum())
    return MonotonicityReport(lhs=lhs, rhs=rhs, residual=lhs - rhs,
                              tolerance=tol,
                              details={"cone_mass": ic, "sample_mass": it,
                                       "perp_term": term})
