"""Rotationally symmetric singular surfaces via weighted geodesic networks.

A surface of revolution about the y-axis is encoded by its generator in the
half-plane {x > 0}, and its area is the weighted length of the generator;
both the area-of-revolution weight w(x) = x (the default) and the tensor
convention x*(dx^2 + dy^2), i.e. w(x) = sqrt(x), are supported.  A network
whose junctions balance is stationary for weighted length, so its surface is
stationary with a singular circle at each junction.  It need not minimize
area: the shipped -40/0/40 example is heavier than three flat disks.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .books import OpenBook, VarifoldSample, excess
from .cones import BALANCE_TOL, WeightedNetwork, solve_network

__all__ = [
    "WeightedMetric",
    "RevolvedCurrent",
    "geodesic_shoot",
    "weighted_length",
    "build_taylor_example",
    "decay_scan",
    "tangent_book_at",
]


@dataclass
class WeightedMetric:
    """Conformal weight on the half-plane {x > 0}: w(x) = x or sqrt(x)."""

    name: str = "x"
    min_x = 1e-9

    def __post_init__(self):
        if self.name not in ("x", "sqrtx"):
            raise ValueError("weight must be 'x' or 'sqrtx'")

    def w(self, pts):
        pts = np.atleast_2d(pts)
        x = np.maximum(pts[:, 0], self.min_x)
        return x if self.name == "x" else np.sqrt(x)

    def grad_w(self, pts):
        pts = np.atleast_2d(pts)
        g = np.zeros_like(pts)
        if self.name == "x":
            g[:, 0] = 1.0
        else:
            x = np.maximum(pts[:, 0], self.min_x)
            g[:, 0] = 0.5 / np.sqrt(x)
        return g

    def w_and_grad(self, x: float, y: float) -> tuple:
        """w and grad w at one point as Python floats, clamped as ``w``."""
        x = max(x, self.min_x)
        if self.name == "x":
            return x, 1.0, 0.0
        r = math.sqrt(x)
        return r, 0.5 / r, 0.0

    def two_point_geodesic(self, a, b, theta0: float, steps: int):
        """The geodesic from a to b in closed form, as ``solve_network``
        takes it: (polyline of ``steps + 1`` points at equal euclidean
        arc-length spacing, start angle taken within pi of ``theta0``,
        euclidean length, weighted length), or None when no geodesic of
        {x >= min_x} joins them.

        Along a geodesic w * tau_y = c (Clairaut).  With r = |c| and v the
        signed offset from the arc's vertex, the geodesics are the catenaries
        x = hypot(r, v), y = B + c asinh(v / r) under w = x (v is the arc
        length), and the parabolas x = r^2 + v^2, y = B + 2 c v under
        w = sqrt(x); tau = (v, c) / hypot(v, c) in both.  Let X be x resp.
        sqrt(x) and start at the end with the smaller X: r = X_lo sech(s)
        and v_lo = -X_lo tanh(s), so s < 0 climbs straight to the other
        end and s > 0 passes the vertex first.  The rise |dy| of the arc is
        zero at both ends of the s-line and has one maximum between, so
        it takes a given rise at most twice; of those arcs the one of least
        weighted length is returned.  c = 0 is the horizontal segment, whose
        weighted length per unit length is the mean of w over it:
        (x_lo + x_hi) / 2 under w = x and (2/3) (X_lo^2 + X_lo X_hi + X_hi^2)
        / (X_lo + X_hi) under w = sqrt(x).
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if min(a[0], b[0]) < self.min_x or np.array_equal(a, b):
            return None
        flip = b[0] < a[0]
        lo, hi = (b, a) if flip else (a, b)
        dy = float(hi[1] - lo[1])
        cat = self.name == "x"
        X_lo, X_hi = (float(lo[0]), float(hi[0])) if cat else \
            (math.sqrt(lo[0]), math.sqrt(hi[0]))

        def ends(s):
            r = X_lo / math.cosh(s)
            return r, -X_lo * math.tanh(s), math.sqrt((X_hi - r) * (X_hi + r))

        def rise(s):
            r, v0, v1 = ends(s)
            if cat:
                return r * (math.asinh(v1 / r) - math.asinh(v0 / r))
            return 2 * r * (v1 - v0)

        def weighted_length(s):
            r, v0, v1 = ends(s)
            if cat:
                return 0.5 * (_vertex_integral(v1, r) - _vertex_integral(v0, r))
            return 2 * r * r * (v1 - v0) + 2 * (v1 ** 3 - v0 ** 3) / 3

        target = abs(dy)
        # each end of the s-bracket doubles until the rise there falls below
        # the target
        left = right = 8.0
        while rise(-left) >= target and left < _S_MAX:
            left = min(2 * left, _S_MAX)
        while rise(right) >= target and right < _S_MAX:
            right = min(2 * right, _S_MAX)
        if rise(-left) >= target:
            # |c| below X_lo sech(_S_MAX): the horizontal segment
            n = np.linspace(0.0, 1.0, steps + 1)[:, None]
            poly = lo + n * (hi - lo)
            d = hi - lo
            length = float(np.hypot(*d))
            mean_w = 0.5 * (X_lo + X_hi) if cat else \
                (2 / 3) * (X_lo * X_lo + X_lo * X_hi + X_hi * X_hi) / (X_lo + X_hi)
            w_length = length * mean_w
        else:
            roots = _level_crossings(rise, -left, right, target)
            if roots is None:
                return None
            s = min(roots, key=weighted_length)
            w_length = weighted_length(s)
            r, v0, v1 = ends(s)
            if cat:
                v = np.linspace(v0, v1, steps + 1)
                x, rel = np.hypot(r, v), np.arcsinh(v / r)
                length = v1 - v0
            else:
                arc0, arc1 = _vertex_integral(v0, r), _vertex_integral(v1, r)
                v = _invert_vertex_integral(np.linspace(arc0, arc1, steps + 1), r)
                v[0], v[-1] = v0, v1
                x, rel = r * r + v * v, v
                length = arc1 - arc0
            # y from the rise fraction, so both ends land on a and b exactly
            poly = np.stack([x, lo[1] + dy * (rel - rel[0]) / (rel[-1] - rel[0])], axis=1)
            poly[0], poly[-1] = lo, hi
            c = math.copysign(r, dy)
            d = np.array([v1, c]) if flip else np.array([v0, c])
        if not np.all(np.isfinite(poly)):
            return None
        if flip:
            poly, d = poly[::-1].copy(), -d
        theta = theta0 + math.remainder(math.atan2(d[1], d[0]) - theta0, 2 * math.pi)
        return poly, theta, float(length), float(w_length)


# |s| bound of the closed-form arcs: sech(600) > 1e-261, so r and r^2 stay
# positive floats; a rise below the one at s = -600 is the horizontal segment
_S_MAX = 600.0


def _vertex_integral(v, r):
    """v hypot(r, v) + r^2 asinh(v / r): twice the weighted length of a
    catenary from its vertex, and the arc length of a parabola."""
    return v * np.hypot(r, v) + r * r * np.arcsinh(v / r)


def _invert_vertex_integral(target, r):
    """The v with ``_vertex_integral(v, r) == target``, elementwise by
    Newton's method.  The function is odd, increasing and convex for v > 0
    with derivative 2 hypot(r, v); the start min(sqrt|t|, |t| / 2r) lies
    beyond the root, so the iteration closes in monotonically."""
    t = np.abs(target)
    v = np.minimum(np.sqrt(t), t / (2 * r))
    for _ in range(100):
        step = (_vertex_integral(v, r) - t) / (2 * np.hypot(r, v))
        v = v - step
        if np.all(np.abs(step) <= 4e-16 * np.maximum(v, r)):
            break
    return np.copysign(v, target)


def _level_crossings(f, lo, hi, level):
    """The points of [lo, hi] where the unimodal f meets ``level``, one on
    each side of its maximum where f at that end lies below the level; None
    when the maximum stays below it.  An end where f reaches the level
    bounds the other end's bracket.  Otherwise golden-section steps toward
    the maximum stop where f first reaches the level, and the ends they
    discard narrow both brackets.  Bisection halves each bracket down to
    two adjacent floats and returns its end where f reaches the level.
    """
    g = (math.sqrt(5) - 1) / 2
    f_lo, f_hi = f(lo) - level, f(hi) - level
    if f_lo >= 0 or f_hi >= 0:
        top = lo if f_lo >= 0 else hi
    else:
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        f1, f2 = f(x1) - level, f(x2) - level
        while f1 < 0 and f2 < 0:
            if hi - lo < 1e-12:
                return None
            if f1 < f2:
                lo, f_lo, x1, f1 = x1, f1, x2, f2
                x2 = lo + g * (hi - lo)
                f2 = f(x2) - level
            else:
                hi, f_hi, x2, f2 = x2, f2, x1, f1
                x1 = hi - g * (hi - lo)
                f1 = f(x1) - level
        top = x1 if f1 >= 0 else x2
    crossings = []
    for a, fa in ((lo, f_lo), (hi, f_hi)):
        if fa >= 0:
            continue
        # f(a) < level <= f(b)
        b = top
        mid = 0.5 * (a + b)
        while mid not in (a, b):
            if f(mid) < level:
                a = mid
            else:
                b = mid
            mid = 0.5 * (a + b)
        crossings.append(b)
    return crossings


def _rk4_shoot(start, theta, length, metric, steps):
    """RK4 for pos' = tau, tau' = (grad w - (grad w . tau) tau) / w, with tau
    renormalized after every step; returns the (steps + 1, 2) polyline."""
    wg = metric.w_and_grad
    x, y = float(start[0]), float(start[1])
    tx, ty = math.cos(theta), math.sin(theta)
    h = length / steps
    hh = 0.5 * h
    h6 = h / 6
    pts = [(x, y)]
    for _ in range(steps):
        w, gx, gy = wg(x, y)
        d = gx * tx + gy * ty
        k1x, k1y = (gx - d * tx) / w, (gy - d * ty) / w
        t2x, t2y = tx + hh * k1x, ty + hh * k1y
        w, gx, gy = wg(x + hh * tx, y + hh * ty)
        d = gx * t2x + gy * t2y
        k2x, k2y = (gx - d * t2x) / w, (gy - d * t2y) / w
        t3x, t3y = tx + hh * k2x, ty + hh * k2y
        w, gx, gy = wg(x + hh * t2x, y + hh * t2y)
        d = gx * t3x + gy * t3y
        k3x, k3y = (gx - d * t3x) / w, (gy - d * t3y) / w
        t4x, t4y = tx + h * k3x, ty + h * k3y
        w, gx, gy = wg(x + h * t3x, y + h * t3y)
        d = gx * t4x + gy * t4y
        k4x, k4y = (gx - d * t4x) / w, (gy - d * t4y) / w
        x = x + h6 * (tx + 2 * t2x + 2 * t3x + t4x)
        y = y + h6 * (ty + 2 * t2y + 2 * t3y + t4y)
        tx = tx + h6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        ty = ty + h6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        n = math.sqrt(tx * tx + ty * ty)
        tx, ty = tx / n, ty / n
        pts.append((x, y))
    return np.array(pts)


def geodesic_shoot(start, direction, length: float, metric: WeightedMetric,
                   steps: int = 2048):
    """RK4 integration of d/ds (w * tau) = grad w in arclength parametrization.

    Returns (polyline, info) where info reports the Clairaut momentum drift
    max |w(x) tau_y - const| and whether the trajectory was truncated at the
    axis x = 0.
    """
    start = np.asarray(start, dtype=float)
    if start[0] <= 0:
        raise ValueError("start must have x > 0")
    if length == 0:
        return start[None, :].copy(), {"clairaut_drift": 0.0, "axis_hit": False}
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    theta = math.atan2(d[1], d[0])
    poly = _rk4_shoot(start, theta, length, metric, steps)
    axis_hit = False
    cut = np.nonzero(poly[:, 0] <= metric.min_x)[0]
    if len(cut):
        poly = poly[: cut[0] + 1]
        axis_hit = True
    # Clairaut momentum w(x) * tau_y along the discrete trajectory
    seg = np.diff(poly, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    good = lens > 0
    tau_y = seg[good, 1] / lens[good]
    mids = 0.5 * (poly[:-1] + poly[1:])[good]
    mom = metric.w(mids) * tau_y
    drift = float(mom.max() - mom.min()) if len(mom) else 0.0
    return poly, {"clairaut_drift": drift, "axis_hit": axis_hit}


def weighted_length(arc, metric: WeightedMetric) -> float:
    """Composite-Simpson quadrature of the weighted length of a polyline."""
    arc = np.asarray(arc, dtype=float)
    seg = np.diff(arc, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    mids = 0.5 * (arc[:-1] + arc[1:])
    wa = metric.w(arc[:-1])
    wb = metric.w(arc[1:])
    wm = metric.w(mids)
    return float(((wa + 4 * wm + wb) / 6.0) @ lens)


@dataclass
class RevolvedCurrent:
    generator: WeightedNetwork
    sample: VarifoldSample
    singular_circles: list
    metric: WeightedMetric
    radius: float
    p: int
    delta: float

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "weight": self.metric.name,
            "radius": self.radius,
            "delta": self.delta,
            "generator": self.generator.to_json(),
            "singular_circles": [
                {"x": float(c["x"]), "y": float(c["y"]),
                 "tangents": [list(map(float, t)) for t in c["tangents"]],
                 "multiplicities": list(map(int, c["multiplicities"]))}
                for c in self.singular_circles],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RevolvedCurrent":
        """The surface of ``to_json``; its circles and sample are derived from
        the generator's arcs as ``build_taylor_example`` derives them."""
        net = WeightedNetwork.from_json(data["generator"])
        return cls(net, _revolve_sample(net, data["delta"]), _singular_circles(net),
                   WeightedMetric(data["weight"]), data["radius"], data["p"], data["delta"])


def _resample(poly: np.ndarray, step: float) -> np.ndarray:
    """Re-parametrize a polyline with roughly uniform spacing <= step."""
    seg = np.diff(poly, axis=0)
    lens = np.linalg.norm(seg, axis=1)
    total = lens.sum()
    if total == 0:
        return poly[:1]
    n = max(2, int(math.ceil(total / step)) + 1)
    s = np.concatenate([[0.0], np.cumsum(lens)])
    t = np.linspace(0, total, n)
    x = np.interp(t, s, poly[:, 0])
    y = np.interp(t, s, poly[:, 1])
    return np.stack([x, y], axis=1)


def _revolve_sample(net: WeightedNetwork, delta: float) -> VarifoldSample:
    """Revolve the weighted arcs about the y-axis into a varifold sample.

    Each nonzero segment of an arc resampled at spacing ``delta``, with
    midpoint (x, y), becomes a ring of n = max(16, round(2 pi x / delta))
    points at the centres of n equal angular cells.  Each point has weight
    |kappa| * 2 pi x * (segment length) / n and the frame (segment tangent
    turned by its angle, circle direction).  Rings follow arcs and segments
    in order, and points within a ring follow the angle.  ``delta`` must be
    finite and greater than 0 (ValueError).
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and greater than 0, got {delta}")
    pts, wts, frames = [], [], []
    for arc in net.arcs:
        if arc.kappa == 0:
            continue
        poly = _resample(arc.polyline, delta)
        seg = np.diff(poly, axis=0)
        lens = np.linalg.norm(seg, axis=1)
        keep = lens != 0
        dl = lens[keep]
        xm, ym = (0.5 * (poly[:-1] + poly[1:]))[keep].T
        tx, ty = (seg[keep] / dl[:, None]).T
        nphi = np.maximum(16, np.rint(2 * math.pi * xm / delta).astype(np.int64))
        ring = np.repeat(np.arange(len(nphi)), nphi)
        first = np.cumsum(nphi) - nphi
        phi = (np.arange(len(ring)) - first[ring] + 0.5) * (2 * math.pi / nphi)[ring]
        c, s = np.cos(phi), np.sin(phi)
        wts.append((abs(arc.kappa) * (2 * math.pi * xm * dl) / nphi)[ring])
        xm, ym, tx, ty = xm[ring], ym[ring], tx[ring], ty[ring]
        pts.append(np.stack([xm * c, xm * s, ym], axis=1))
        frames.append(np.stack([tx * c, tx * s, ty, -s, c, np.zeros_like(c)],
                               axis=1).reshape(-1, 2, 3))
    return VarifoldSample(np.concatenate(pts), np.concatenate(wts), 2,
                          tangents=np.concatenate(frames), delta=delta)


def build_taylor_example(p: int, terminal_angles, radius: float = 1.0,
                         weight: str = "x", delta: float = 0.02) -> RevolvedCurrent:
    """Rotationally symmetric example: solve the weighted network for p unit
    terminals on the arc of the given radius, then revolve about the y-axis.

    Angles are degrees measured from the positive x-axis of the half-plane.
    The network is solved once per topology from a fixed start
    (``solve_network``), so the example depends on its arguments alone.
    A junction whose arc tangents do not balance to ``cones.BALANCE_TOL``
    is not a singular circle and raises ``RuntimeError``.
    """
    if p < 3:
        raise ValueError("p must be >= 3")
    angles = [float(a) for a in terminal_angles]
    if len(angles) != p:
        raise ValueError(f"need exactly {p} terminal angles")
    term_pts = np.array([[radius * math.cos(math.radians(a)),
                          radius * math.sin(math.radians(a))] for a in angles])
    if np.any(term_pts[:, 0] <= 1e-3 * radius):
        raise ValueError("terminals must stay away from the rotation axis")
    metric = WeightedMetric(weight)
    net = solve_network([(pt, 1) for pt in term_pts], p, weight=metric)
    return RevolvedCurrent(net, _revolve_sample(net, delta), _singular_circles(net),
                           metric, radius, p, delta)


def _singular_circles(net: WeightedNetwork) -> list:
    """One circle per junction: its (x, y) and its arcs' tangents and
    multiplicities.  No junction, or one with fewer than three arcs, raises
    ``ValueError``; one unbalanced beyond ``BALANCE_TOL``, ``RuntimeError``."""
    residuals = net.balance_residuals
    circles = []
    for j in net.junctions:
        tans = net.junction_tangents(j)
        if len(tans) < 3:
            raise ValueError("no singular circle (degenerate)")
        if residuals[j] > BALANCE_TOL:
            raise RuntimeError(f"junction {j} at ({net.nodes[j][0]:.6g}, {net.nodes[j][1]:.6g}) "
                               f"is unbalanced: residual {residuals[j]:.3g}")
        circles.append({"x": float(net.nodes[j][0]), "y": float(net.nodes[j][1]),
                        "tangents": [t for _, t in tans],
                        "multiplicities": [k for k, _ in tans]})
    if not circles:
        raise ValueError("no singular circle (degenerate)")
    return circles


def tangent_book_at(R: RevolvedCurrent, q) -> OpenBook:
    """Tangent open book at a point of a singular circle: spine = the circle
    tangent line, pages = the junction arc tangents in the meridian plane."""
    q = np.asarray(q, dtype=float)
    circle = _nearest_circle(R, q)
    phi = math.atan2(q[1], q[0])
    c, s = math.cos(phi), math.sin(phi)
    spine = np.array([[-s, c, 0.0]])
    slice_basis = np.array([[c, s, 0.0], [0.0, 0.0, 1.0]])
    pages = np.array(circle["tangents"], dtype=float)
    pages = pages / np.linalg.norm(pages, axis=1)[:, None]
    return OpenBook(spine, slice_basis, pages)


def _nearest_circle(R: RevolvedCurrent, q) -> dict:
    q = np.asarray(q, dtype=float)
    xq = math.hypot(q[0], q[1])
    best, bd = None, math.inf
    for c in R.singular_circles:
        d = math.hypot(xq - c["x"], q[2] - c["y"])
        if d < bd:
            best, bd = c, d
    if best is None or bd > 0.05 * R.radius:
        raise ValueError("q not near any singular circle")
    return best


def decay_scan(R: RevolvedCurrent, q, radii, with_flat: bool = True) -> list:
    """Excess (and optionally flat-distance) ladder at a singular point.

    For each radius r the excess of the revolved sample against the tangent
    book at q is recorded, together with the fitted constant making the
    top-rung r^(1/2) upper bound an equality.  The flat distance column
    compares the rescaled generator network with its tangent rays on the
    fixed ``LADDER_GRID_N``-square triangulated grid, localized away from the
    clipping boundary; ``flat_gap`` is that flat norm's ``optimality_gap``,
    positive when its solve stopped at the time limit (both are None without
    the flat ladder).  The rungs of the flat ladder are independent integer
    programs and run concurrently, one thread per rung up to the number of
    CPUs this process may use; there is no option for it.
    """
    q = np.asarray(q, dtype=float)
    circle = _nearest_circle(R, q)
    book = tangent_book_at(R, q)
    radii = sorted((float(r) for r in radii), reverse=True)
    if not radii or not all(0 < r < math.inf for r in radii):
        raise ValueError("radii must be non-empty, finite and greater than 0")
    excesses = [excess(R.sample, book, q, r) for r in radii]
    c_excess = excesses[0] / math.sqrt(radii[0])
    flats = _flat_ladder(R, circle, radii) if with_flat else [None] * len(radii)
    c_flat = flats[0].value / radii[0] ** 0.25 if with_flat else None
    return [{
        "r": r,
        "excess": e,
        "flat_distance": None if fl is None else fl.value,
        "flat_gap": None if fl is None else fl.optimality_gap,
        "fitted_C": c_excess,
        "fitted_C_flat": c_flat,
    } for r, e, fl in zip(radii, excesses, flats)]


# cells per side of the square grid that carries the flat-distance ladder
LADDER_GRID_N = 32


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _flat_ladder(R: RevolvedCurrent, circle, radii) -> list:
    """The flat decomposition of each rung, in the order of ``radii``.

    HiGHS releases the interpreter lock while it solves, so the rungs run on
    a thread pool; an exception raised in a rung is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor

    from .fixtures import grid_square_complex, rasterize_polyline
    from .flatnorm import flat_norm_modp

    cx, spacing = grid_square_complex(LADDER_GRID_N)
    junction = np.array([circle["x"], circle["y"]])
    inside = np.linalg.norm(cx.vertices, axis=1) <= 0.85
    ball = {k: np.flatnonzero(inside[cx.simplices[k]].all(axis=1)) for k in (1, 2)}
    rays = [np.vstack([np.zeros(2), 2.0 * np.asarray(tau)]) for tau in circle["tangents"]]
    S = sum((k * rasterize_polyline(cx, spacing, ray)
             for ray, k in zip(rays, circle["multiplicities"])), cx.chain(1))

    def rung(r):
        T = sum((arc.kappa * rasterize_polyline(cx, spacing, (arc.polyline - junction) / r)
                 for arc in R.generator.arcs if arc.kappa), cx.chain(1))
        return flat_norm_modp(T - S, R.p, ball)

    with ThreadPoolExecutor(max_workers=min(len(radii), _usable_cpus())) as pool:
        return list(pool.map(rung, radii))
