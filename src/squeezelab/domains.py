"""Bounded domains: planar curve-bounded regions and weighted quadratic regions.

Planar domains carry analytic boundary parameterizations (with cached
samples) so boundary distances can be refined far below the sample
resolution; this matters for the z log z image domain, whose geometry near
the origin lives at scales of 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, SolverError

__all__ = [
    "Curve",
    "ParamCurve",
    "CircleCurve",
    "PolylineCurve",
    "MappedCurve",
    "PlanarDomain",
    "DefiningFunctionDomain",
    "DomainPoint",
    "OmegaPrimeParams",
    "boundary_distance",
    "build_omega_prime",
    "build_omega",
    "phi_map",
    "phi_deriv",
    "disc",
    "annulus",
    "ball",
    "ellipsoid",
    "preset",
    "domain_from_spec",
    "random_interior_points",
]


# ---------------------------------------------------------------------------
# curves


class Curve:
    """Closed parameterized boundary curve, t in [0, 1) periodic."""

    def __init__(self, params: np.ndarray):
        self._params = np.asarray(params, dtype=float)
        self._points = None
        self._edges = None

    def point(self, t):
        raise NotImplementedError

    @property
    def params(self) -> np.ndarray:
        return self._params

    def points(self) -> np.ndarray:
        if self._points is None:
            self._points = self.point(self._params)
        return self._points

    def crossings(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Even-odd test of finite points ``z`` (a 1-d array) against the sample polygon.

        Returns ``odd`` (a ray from each point towards +x crosses the polygon
        an odd number of times) and ``on_sample`` (the point equals a sample).
        """
        if self._edges is None:
            self._edges = _EdgeIndex(self.points())
        return self._edges.crossings(z)

    def signed_area(self) -> float:
        p = self.points()
        q = np.roll(p, -1)
        return float(0.5 * np.sum(p.real * q.imag - p.imag * q.real))

    def refined(self, factor: int = 2) -> "Curve":
        """Same curve with collocation parameters subdivided by ``factor``."""
        t = self._params
        nxt = np.roll(t, -1).copy()
        nxt[-1] += 1.0
        pieces = [t]
        for j in range(1, factor):
            pieces.append((t + (nxt - t) * j / factor) % 1.0)
        return self._clone(np.unique(np.concatenate(pieces)))

    def _clone(self, params: np.ndarray) -> "Curve":
        raise NotImplementedError


# elements per temporary array of the batched planar kernels: the few
# temporaries of one chunk take about 1 MB together, whatever the batch size
_CHUNK = 1 << 15


class _EdgeIndex:
    """Edges of a closed sample polygon, bucketed into horizontal strips.

    Strip boundaries are every fourth distinct sample height, so each strip
    holds a few samples however the samples cluster.  Row ``j`` of ``table``
    lists every edge whose closed height range meets strip ``j``, padded
    with a sentinel edge that no point crosses or equals, so one fancy index
    gathers the candidate edges of a batch of points.
    """

    def __init__(self, points: np.ndarray):
        n = len(points)
        nxt = np.roll(points, -1)
        x0, y0, y1 = points.real, points.imag, nxt.imag
        dy = y1 - y0
        flat = dy == 0  # never crossed: no height lies in [y0, y1) or [y1, y0)
        dxdy = np.where(flat, 0.0, (nxt.real - x0) / np.where(flat, 1.0, dy))
        # rows x0, y0, y1, dx/dy of every edge; edge n is the sentinel, whose
        # NaN ends fail every comparison
        self.edges = np.column_stack([np.stack([x0, y0, y1, dxdy]), [np.nan, np.nan, np.nan, 0.0]])
        self.cuts = np.unique(y0)[1:-1:4]  # strip j holds heights in [cuts[j-1], cuts[j])
        first = np.searchsorted(self.cuts, np.minimum(y0, y1), "right")
        last = np.searchsorted(self.cuts, np.maximum(y0, y1), "right")
        span = last - first + 1
        edge = np.repeat(np.arange(n), span)
        strip = np.repeat(first - np.cumsum(span) + span, span) + np.arange(len(edge))
        order = np.argsort(strip, kind="stable")
        edge, strip = edge[order], strip[order]
        per_strip = np.bincount(strip, minlength=len(self.cuts) + 1)
        slot = np.arange(len(edge)) - np.repeat(np.cumsum(per_strip) - per_strip, per_strip)
        self.table = np.full((len(per_strip), per_strip.max()), n, dtype=np.int32)
        self.table[strip, slot] = edge

    def crossings(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        odd = np.empty(len(z), dtype=bool)
        on_sample = np.empty(len(z), dtype=bool)
        step = max(1, _CHUNK // self.table.shape[1])
        for s in range(0, len(z), step):
            x = z.real[s : s + step, None]
            y = z.imag[s : s + step, None]
            x0, y0, y1, dxdy = self.edges[:, self.table[np.searchsorted(self.cuts, y[:, 0], "right")]]
            with np.errstate(invalid="ignore", over="ignore"):
                # offsets from the edge's first sample are exact for nearby
                # points, so the side of the edge is decided at their scale
                hit = ((y0 > y) != (y1 > y)) & (x - x0 < (y - y0) * dxdy)
            odd[s : s + step] = np.logical_xor.reduce(hit, axis=1)
            on_sample[s : s + step] = ((x0 == x) & (y0 == y)).any(axis=1)
        return odd, on_sample


def _uniform_params(n: int) -> np.ndarray:
    return np.arange(n) / n


class ParamCurve(Curve):
    """Curve given by an explicit callable t -> complex point."""

    def __init__(self, func, n: int = 4096, extra_params=None):
        self.func = func
        t = _uniform_params(n)
        if extra_params is not None:
            t = np.unique(np.concatenate([t, np.asarray(extra_params) % 1.0]))
        super().__init__(t)

    def point(self, t):
        return self.func(np.asarray(t, dtype=float) % 1.0)

    def _clone(self, params):
        c = ParamCurve(self.func, n=2)
        c._params = params
        c._points = None
        return c


class CircleCurve(ParamCurve):
    """Circle of given center/radius; orientation +1 (ccw) or -1 (cw)."""

    def __init__(self, center: complex, radius: float, orientation: int = 1, n: int = 2048):
        if radius <= 0:
            raise ConfigError("circle radius must be positive")
        self.center = center = complex(center)
        self.radius = radius = float(radius)
        self.orientation = orientation = int(orientation)

        # the closure holds the values, not ``self``: a curve that referred to
        # itself would outlive its domain until a full garbage collection
        def f(t):
            ang = 2.0 * np.pi * t * orientation
            return center + radius * np.exp(1j * ang)

        super().__init__(f, n=n)


class PolylineCurve(Curve):
    """Closed polyline through given vertices (arc-length parameterized)."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=complex)
        if v.size < 3:
            raise ConfigError("polyline needs at least 3 vertices")
        self.vertices = v
        seg = np.abs(np.roll(v, -1) - v)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        self._total = cum[-1]
        self._cum = cum / self._total
        super().__init__(self._cum[:-1])

    def point(self, t):
        t = np.asarray(t, dtype=float) % 1.0
        idx = np.clip(np.searchsorted(self._cum, t, side="right") - 1, 0, len(self.vertices) - 1)
        t0 = self._cum[idx]
        t1 = self._cum[idx + 1]
        frac = np.where(t1 > t0, (t - t0) / np.where(t1 > t0, t1 - t0, 1.0), 0.0)
        a = self.vertices[idx]
        b = self.vertices[(idx + 1) % len(self.vertices)]
        return a + frac * (b - a)

    def _clone(self, params):
        c = PolylineCurve(self.vertices)
        c._params = params
        c._points = None
        return c


class MappedCurve(Curve):
    """Pointwise image of another curve under a holomorphic map."""

    def __init__(self, base: Curve, mapping, extra_params=None):
        self.base = base
        self.mapping = mapping
        t = base.params
        if extra_params is not None:
            t = np.unique(np.concatenate([t, np.asarray(extra_params) % 1.0]))
        super().__init__(t)

    def point(self, t):
        return self.mapping(self.base.point(t))

    def _clone(self, params):
        c = MappedCurve(self.base, self.mapping)
        c._params = params
        c._points = None
        return c


# ---------------------------------------------------------------------------
# planar domains


@dataclass(frozen=True)
class DomainPoint:
    """Interior point with its boundary distance and a nearest boundary point.

    A planar batch query fills each field with an array, one entry per point.
    """

    z: complex | np.ndarray
    d: float | np.ndarray
    nearest: complex | np.ndarray


def _unit(v):
    n = float(np.linalg.norm(np.atleast_1d(np.asarray(v))))
    if n == 0:
        raise DomainError("zero direction")
    return v / n


class PlanarDomain:
    """Bounded planar domain: one outer curve and zero or more holes.

    Points are complex numbers; ``contains`` also takes an array of them.
    """

    def __init__(self, outer: Curve, holes=(), smoothness: str = "Cinf", name: str = ""):
        self.outer = outer
        self.holes = list(holes)
        self.smoothness = smoothness
        self.name = name
        if outer.signed_area() <= 0:
            raise ConfigError("outer curve must be positively oriented")
        for h in self.holes:
            if h.signed_area() >= 0:
                raise ConfigError("hole curves must be negatively oriented")
            hp = h.points()
            odd, on_sample = outer.crossings(hp[:: max(1, len(hp) // 16)])
            if not np.all(odd & ~on_sample):
                raise ConfigError("hole not strictly inside the outer curve")
        for i, h in enumerate(self.holes):
            for g in self.holes[i + 1 :]:
                dmin = np.min(np.abs(h.points()[:, None] - g.points()[None, ::8]))
                if dmin <= 0:
                    raise ConfigError("holes intersect")

    @property
    def connectivity(self) -> int:
        return 1 + len(self.holes)

    @property
    def scale(self) -> float:
        """Largest distance of an outer boundary sample from the samples' mean."""
        pts = self.outer.points()
        return float(np.max(np.abs(pts - np.mean(pts))))

    def curves(self):
        return [self.outer] + self.holes

    def as_point(self, z) -> complex:
        return complex(z)

    def contains(self, z):
        """Membership of one point (a bool) or of each point of an array (a bool array).

        A point is inside when it crosses the outer sample polygon an odd
        number of times and every hole's an even number of times; a
        non-finite point and a point equal to a boundary sample are outside.
        """
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        inside = np.isfinite(flat)
        for k, curve in enumerate(self.curves()):
            idx = np.flatnonzero(inside)  # holes only test the points still inside
            odd, on_sample = curve.crossings(flat[idx])
            inside[idx] = (odd if k == 0 else ~odd) & ~on_sample
        return bool(inside[0]) if z.ndim == 0 else inside.reshape(z.shape)

    def boundary_gap(self, z) -> float:
        """Unsigned distance from the point z to the nearest boundary sample (coarse)."""
        samples = np.concatenate([c.points() for c in self.curves()])
        return float(np.min(np.abs(samples - complex(z))))

    def boundary_distance(self, z) -> DomainPoint:
        """Distance from one interior point (a float ``d``) or from each point of an array (arrays).

        A coarse scan over the curve samples, then Brent refinement on the
        parameterization, batched over the points; the nearest point is the
        first strict minimum in curve order.
        """
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        inside = self.contains(flat)
        if not inside.all():
            bad = complex(flat[np.argmin(inside)])
            raise DomainError(f"point {bad} is not interior (boundary gap {self.boundary_gap(bad):.3e})")
        d = np.full(flat.shape, np.inf)
        nearest = np.zeros(flat.shape, dtype=complex)
        for curve in self.curves():
            dc, wc = _curve_distance(curve, flat)
            closer = dc < d
            d, nearest = np.where(closer, dc, d), np.where(closer, wc, nearest)
        if z.ndim == 0:
            return DomainPoint(z=complex(z), d=float(d[0]), nearest=nearest[0])
        return DomainPoint(z=z, d=d.reshape(z.shape), nearest=nearest.reshape(z.shape))

    def inward_normal(self, p) -> complex:
        """Inward unit normal at a boundary point, from the deepest of 128 probes around it."""
        theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
        probes = complex(p) + (1e-4 * self.scale) * np.exp(1j * theta)
        probes = probes[self.contains(probes)]
        if not len(probes):
            raise DomainError("no interior direction found at the boundary point")
        bp = boundary_distance(self, probes)
        k = np.argmax(bp.d)
        return _unit(bp.z[k] - bp.nearest[k])

    def tangent_ball_radius(self, p, inward) -> float:
        """Largest radius, by bisection, whose disc tangent at the boundary point ``p`` passes a distance test.

        A disc of radius r centred at p + r ``inward`` passes when its centre
        is at least r (1 - 1e-6) from the boundary.
        """
        r_max = 2.0 * self.scale
        inward = _unit(inward)

        def ok(r: float) -> bool:
            center = p + r * inward
            if not self.contains(center):
                return False
            return boundary_distance(self, center).d >= r * (1.0 - 1e-6)

        lo, hi = 0.0, r_max
        if ok(r_max):
            return r_max
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        if lo == 0.0:
            raise DomainError("no interior tangent ball found at the given boundary point")
        return lo

    def to_spec(self) -> dict:
        return {
            "kind": "planar",
            "outer": [[float(p.real), float(p.imag)] for p in self.outer.points()],
            "holes": [[[float(p.real), float(p.imag)] for p in h.points()] for h in self.holes],
            "smoothness": {"Cinf": "Cinf", "C2": "C2", "C1": "C1"}[self.smoothness],
        }

    def _interior_candidates(self, rng, count: int) -> np.ndarray:
        """Interior points among ``count`` uniform draws from the outer curve's bounding box.

        One draw is an (x, y) pair; points within 1e-6 of a boundary sample
        are dropped too.
        """
        p = self.outer.points()
        xy = rng.uniform((p.real.min(), p.imag.min()), (p.real.max(), p.imag.max()), size=(count, 2))
        z = xy.view(complex)[:, 0]  # each row read as x + iy, bit for bit
        inner = z[self.contains(z)]
        # a sample within 1e-6 of a point is within 1e-6 of it in x: only the
        # samples in an x-window twice that wide are measured exactly
        s = np.concatenate([c.points() for c in self.curves()])
        s = s[np.argsort(s.real)]
        lo = np.searchsorted(s.real, inner.real - 2e-6)
        width = np.searchsorted(s.real, inner.real + 2e-6, "right") - lo
        owner = np.repeat(np.arange(len(inner)), width)
        sample = np.repeat(lo - np.cumsum(width) + width, width) + np.arange(len(owner))
        return np.delete(inner, owner[np.abs(s[sample] - inner[owner]) <= 1e-6])


# Brent's bounded minimiser (R. P. Brent, Algorithms for Minimization without
# Derivatives, 1973), with the constants of scipy's ``fminbound``
_SQRT_EPS = np.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))


def _bounded_brent(f, lo, hi, xatol: float, maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimise ``f`` on every window ``[lo[j], hi[j]]`` at once, one lane per window.

    Each lane takes the steps of scipy's bounded scalar minimiser, with the
    same operations in the same order (its parabolic and golden-section
    branches become masks), so its minimiser has the same bits; a lane that
    has converged keeps its state. ``f`` maps one abscissa per lane to the
    objective values. Returns the minimisers and their objective values.
    Raises ``SolverError`` when an objective value is NaN or a lane still
    moves after ``maxiter`` evaluations.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    xf = a + _GOLDEN * (b - a)
    nfc, fulc = xf, xf
    rat = e = np.zeros_like(xf)
    fx = f(xf)
    if np.isnan(fx).any():
        raise SolverError("bounded Brent: objective is NaN at a window's first point")
    fnfc = ffulc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    num = 1
    while (active := np.abs(xf - xm) > tol2 - 0.5 * (b - a)).any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # parabola through the three best points, tried where the step before last was long
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                         & (p > q * (a - xf)) & (p < q * (b - xf)))
            step = (p + 0.0) / q
        x = xf + step
        near_end = ((x - a) < tol2) | ((b - x) < tol2)
        step = np.where(near_end, tol1 * (np.sign(xm - xf) + ((xm - xf) == 0)), step)
        golden = np.where(xf >= xm, a - xf, b - xf)
        e = np.where(parabolic, rat, golden)
        rat = np.where(parabolic, step, _GOLDEN * golden)
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        x = np.where(active, x, xf)  # a converged lane evaluates its minimiser again
        fu = f(x)
        num += 1
        if np.isnan(fu).any():
            raise SolverError("bounded Brent: objective is NaN inside a window")

        better = fu <= fx
        lower = np.where(better, x >= xf, x < xf)  # the end that moves is a, else b
        end = np.where(better, xf, x)
        a, b = np.where(active & lower, end, a), np.where(active & ~lower, end, b)
        to_nfc = active & (better | (fu <= fnfc) | (nfc == xf))
        to_fulc = active & ~to_nfc & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        fulc = np.where(to_nfc, nfc, np.where(to_fulc, x, fulc))
        ffulc = np.where(to_nfc, fnfc, np.where(to_fulc, fu, ffulc))
        nfc = np.where(to_nfc, end, nfc)
        fnfc = np.where(to_nfc, np.where(better, fx, fu), fnfc)
        xf = np.where(active & better, x, xf)
        fx = np.where(active & better, fu, fx)

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            raise SolverError(f"bounded Brent: {int(active.sum())} windows unconverged after {maxiter} evaluations")
    return xf, fx


def _curve_distance(curve: Curve, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point of ``z`` to ``curve``, and the nearest curve point.

    The windows between the neighbours of each point's four nearest samples
    (two windows where one wraps past t = 0) are refined by one Brent run;
    each point keeps its first strict minimum in window order.
    """
    t, pts = curve.params, curve.points()
    n, k = len(t), min(4, len(t))
    closest = np.empty((len(z), k), dtype=np.intp)
    step = max(1, _CHUNK // n)
    for s in range(0, len(z), step):
        closest[s : s + step] = np.argsort(np.abs(pts - z[s : s + step, None]), axis=1)[:, :k]
    lo, hi = t[(closest - 1) % n], t[(closest + 1) % n]
    wrap = hi < lo
    # two lanes per sample: a wrapped window splits into (lo, 1 + hi) and
    # (lo - 1, hi), an unwrapped one leaves its second lane unused
    lanes = np.stack([np.ones_like(wrap), wrap], axis=-1).reshape(len(z), 2 * k)
    lo = np.stack([lo, lo - 1.0], axis=-1).reshape(len(z), 2 * k)[lanes]
    hi = np.stack([np.where(wrap, 1.0 + hi, hi), hi], axis=-1).reshape(len(z), 2 * k)[lanes]
    zl = np.broadcast_to(z[:, None], lanes.shape)[lanes]

    def sq_dist(s):
        w = curve.point(s) - zl
        return w.real * w.real + w.imag * w.imag

    w = curve.point(_bounded_brent(sq_dist, lo, hi, xatol=1e-15, maxiter=400)[0])
    # np.hypot is the scalar abs; numpy's vectorised complex abs can differ in the last bit
    dw = w - zl
    d = np.full(lanes.shape, np.inf)
    d[lanes] = np.hypot(dw.real, dw.imag)
    at = np.zeros(lanes.shape, dtype=complex)
    at[lanes] = w
    best = np.argmin(d, axis=1)
    rows = np.arange(len(z))
    return d[rows, best], at[rows, best]


def boundary_distance(dom, z) -> DomainPoint:
    """Euclidean distance from an interior point to the boundary of ``dom``.

    The library asks every domain through this function rather than the
    method, so that a wrapper installed here (``perfbench/tracing.py``)
    sees every distance query.
    """
    return dom.boundary_distance(z)


# ---------------------------------------------------------------------------
# weighted quadratic domains


class DefiningFunctionDomain:
    """Weighted quadratic domain {sum_j w_j |z_j|^2 < 1} in C^n, one positive weight per coordinate.

    The ball has ``w = 1`` and the ellipsoid ``w = (1, 1/b^2, ...)``; the
    boundary distance, the inward normal and the tangent balls are closed
    forms in ``w``.  Points are ``(n,)`` arrays.
    """

    def __init__(self, w, name: str = ""):
        w = np.asarray(w, dtype=float)
        if w.ndim != 1 or not len(w) or not np.all(np.isfinite(w) & (w > 0)):
            raise ConfigError(f"weights must be a non-empty vector of positive finite numbers, not {w}")
        self.w = w
        self.dim = len(w)
        self.name = name

    @property
    def scale(self) -> float:
        """Longest semi-axis, 1/sqrt(min w)."""
        return float(1.0 / np.sqrt(self.w.min()))

    def as_point(self, z) -> np.ndarray:
        return np.atleast_1d(np.asarray(z, dtype=complex))

    def contains(self, z):
        """``sum_j w_j |z_j|^2 < 1`` at one point ``(n,)`` (a bool) or at each row of ``(m, n)`` (a bool array).

        A non-finite point is outside.
        """
        inside = np.add.reduce(self.w * np.abs(np.asarray(z, dtype=complex)) ** 2, axis=-1) < 1.0
        return bool(inside) if inside.ndim == 0 else inside

    def inward_normal(self, p) -> np.ndarray:
        return -_unit(self.w * self.as_point(p))

    def to_spec(self) -> dict:
        return {"kind": "defining", "name": self.name, "w": self.w.tolist()}

    def _interior_candidates(self, rng, count: int) -> np.ndarray:
        """Interior points among ``count`` uniform draws from the box |Re z_j|, |Im z_j| <= 1/sqrt(w_j).

        One draw is the real parts, then the imaginary parts, of one point.
        """
        half = np.tile(1.0 / np.sqrt(self.w), 2)
        xy = rng.uniform(-half, half, size=(count, 2 * self.dim))
        z = xy[:, : self.dim] + 1j * xy[:, self.dim :]
        return z[self.contains(z)]

    def boundary_distance(self, z) -> DomainPoint:
        """Distance from one interior point ``(n,)`` to the boundary, with a nearest boundary point."""
        z = self.as_point(z)
        if not self.contains(z):
            raise DomainError(f"point {z} is not interior")
        d, nearest = self.exact_distance(z)
        return DomainPoint(z=z, d=d, nearest=nearest)

    def exact_distance(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        """Distance from the interior point ``z`` to the boundary, and a nearest boundary point.

        The nearest point is x_j = z_j / (1 - t w_j), where t in [0, 1/max w)
        solves sum_j w_j |z_j|^2 / (1 - t w_j)^2 = 1, whose left side
        increases with t (D. Eberly, "Distance from a point to an ellipse, an
        ellipsoid, or a hyperellipsoid", Geometric Tools, 2011).  Bisection
        runs in u = 1 - t max w, where each denominator c_j + u r_j keeps its
        relative precision near the pole, until the bracket stops shrinking
        or meets an exact root, and returns the end inside the domain.  When
        every coordinate of the largest weight is zero and the root would lie
        past the pole, t = 1/max w and the nearest points form a sphere in
        those coordinates.  Equal weights give the round formula.
        """
        w, m = self.w, self.w.max()
        top = w == m
        k = w * np.abs(z) ** 2
        r = w / m
        c = 1.0 - r
        if not k[top].any():
            excess = np.sum(k[~top] / c[~top] ** 2) - 1.0  # at u = 0
            if excess <= 0.0:
                nearest = np.zeros(self.dim, dtype=complex)
                nearest[~top] = z[~top] / c[~top]
                nearest[np.argmax(top)] = np.sqrt(-excess / m)
                return float(np.linalg.norm(nearest - z)), nearest
        if top.all():  # a ball of radius 1/sqrt(w)
            radius, nz = 1.0 / np.sqrt(w[0]), np.linalg.norm(z)
            return float(radius - nz), z / nz * radius
        lo, hi = 0.0, 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while lo < (u := 0.5 * (lo + hi)) < hi:
                excess = np.sum(k / (c + u * r) ** 2) - 1.0
                if excess == 0.0:
                    break
                lo, hi = (u, hi) if excess > 0.0 else (lo, u)
            else:
                u = hi
        nearest = z / (c + u * r)
        return float(np.linalg.norm(nearest - z)), nearest

    def tangent_ball_radius(self, p, inward) -> float:
        """Radius of the largest ball in the domain tangent at the boundary point ``p``.

        Its centre lies on the inward normal, and the radius is
        R = |w p| / max w: with c = p - w p / max w, every z has
        sum_j w_j |z_j|^2 - 1 <= max w (|z - c|^2 - R^2).  Raises
        ``DomainError`` when ``p`` is off the boundary or ``inward`` is not
        the inward normal there.
        """
        p = self.as_point(p)
        level = np.sum(self.w * np.abs(p) ** 2)
        if abs(level - 1.0) > 1e-12:
            raise DomainError(f"point {p} is off the boundary (sum w|p|^2 = {level!r})")
        wp = self.w * p
        if np.linalg.norm(_unit(self.as_point(inward)) + _unit(wp)) > 1e-6:
            raise DomainError(f"direction {inward} is not the inward normal at {p}")
        return float(np.linalg.norm(wp) / self.w.max())


def _dimension(dim) -> int:
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ConfigError(f"dimension must be a positive integer, not {dim!r}")
    return int(dim)


def ball(dim: int = 2) -> DefiningFunctionDomain:
    """Unit ball of C^dim."""
    return DefiningFunctionDomain(np.ones(_dimension(dim)), name="ball")


def ellipsoid(b: float = 1.0 / np.sqrt(2.0), dim: int = 2) -> DefiningFunctionDomain:
    """Ellipsoid {|z1|^2 + |z2|^2/b^2 + ... < 1}, contained in the ball for b < 1."""
    if not (np.isfinite(b) and b > 0):
        raise ConfigError(f"ellipsoid semi-axis b must be positive and finite, not {b!r}")
    w = np.ones(_dimension(dim))
    with np.errstate(over="ignore", divide="ignore"):  # a weight out of range is rejected below
        w[1:] = 1.0 / np.float64(b) ** 2
    return DefiningFunctionDomain(w, name="ellipsoid")


# ---------------------------------------------------------------------------
# the half-plane annulus and its z log z image


def _smoothstep(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)

    def g(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    a = g(x)
    b = g(1.0 - x)
    return a / (a + b)


@dataclass(frozen=True)
class OmegaPrimeParams:
    """Shape parameters of the smooth half-plane ring domain.

    The outer boundary is the exact segment {iy : |y| <= flat_half} of the
    imaginary axis closed up by the graph x = width * exp(-y^2/(Y^2-y^2)),
    a C-infinity bump meeting the segment at +-i*flat_half with
    infinite-order tangency.  One small circular hole sits off the real
    axis so the real approach sequence of the image experiment stays clear
    of it.

    The domain is deliberately thin: z log z folds the right half plane
    (its critical point is 1/e, and e.g. 0.25 and 0.5, or i and -i, have
    identical images), and a wide domain necessarily contains fold
    partners of its own near-axis points.  A narrow profile with widths
    shrinking toward +-i*flat_half keeps the restriction injective, which
    the image construction certifies empirically.
    """

    flat_half: float = 0.9
    width: float = 0.22
    hole_center: complex = 0.09 + 0.35j
    hole_radius: float = 0.04
    samples: int = 4096

    def validate(self):
        if self.hole_radius <= 0:
            raise ConfigError("hole radius must be positive (connectivity violation)")
        if not 0 < self.width < 1.0 / np.e:
            raise ConfigError("width must lie in (0, 1/e) to keep the real fold outside")
        if self.flat_half <= 0 or self.flat_half >= 1:
            raise ConfigError("flat_half must lie in (0, 1)")
        hc = complex(self.hole_center)
        if hc.real - self.hole_radius <= 0:
            raise ConfigError("hole touches the imaginary axis")


def _lens_profile(y, flat_half: float, width: float):
    """Width of the domain at height y; C-infinity, vanishing at +-flat_half."""
    y = np.asarray(y, dtype=float)
    y2 = flat_half**2
    out = np.zeros_like(y)
    inside = np.abs(y) < flat_half
    out[inside] = width * np.exp(-y[inside] ** 2 / (y2 - y[inside] ** 2))
    return out


def build_omega_prime(params: OmegaPrimeParams | None = None) -> PlanarDomain:
    """Smooth doubly connected domain in the right half plane.

    Its boundary contains the exact segment {iy : |y| <= flat_half} of the
    imaginary axis; the rest of the outer curve lies in the open right half
    plane, and one circular hole makes it a topological annulus.
    """
    p = params or OmegaPrimeParams()
    p.validate()
    Y, W = p.flat_half, p.width

    def outer(t):
        t = np.asarray(t, dtype=float) % 1.0
        out = np.empty(t.shape, dtype=complex)
        arc = t < 0.5  # right-side graph, bottom to top (ccw)
        y = 4.0 * Y * t[arc] - Y
        out[arc] = _lens_profile(y, Y, W) + 1j * y
        y = 3.0 * Y - 4.0 * Y * t[~arc]  # axis segment, top to bottom
        out[~arc] = 1j * y
        return out

    # cluster parameters geometrically toward the origin (t = 0.75) so the
    # z log z image is resolved at the cusp scale
    dt = 2.0 ** (-np.arange(1, 52, dtype=float)) / (4.0 * Y)
    extra = np.concatenate([0.75 + dt, 0.75 - dt, 0.25 + dt / 2, 0.25 - dt / 2])
    outer_curve = ParamCurve(outer, n=p.samples, extra_params=extra)
    hole = CircleCurve(p.hole_center, p.hole_radius, orientation=-1, n=max(1024, p.samples // 4))

    dmin = np.min(np.abs(hole.points()[:, None] - outer_curve.points()[None, ::4]))
    if dmin < 1e-6:
        raise ConfigError("hole touches the outer boundary")
    dom = PlanarDomain(outer_curve, [hole], smoothness="Cinf", name="omega_prime")
    dom.params = p
    if np.min(outer_curve.points().real) < -1e-12:
        raise ConfigError("outer curve crossed into the left half plane")
    return dom


def phi_map(z):
    """Principal-branch z log z on the closed right half plane.

    The removable singularity at 0 is filled with the limit value 0.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any(z.real < -1e-15):
        raise DomainError("phi_map requires Re z >= 0 (principal branch)")
    out = np.zeros_like(z)
    nz = z != 0
    out[nz] = z[nz] * np.log(z[nz])
    return out[0] if scalar else out


def phi_deriv(z):
    """Derivative log z + 1 of the z log z map."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.atleast_1d(z) == 0):
        raise DomainError("derivative unbounded at 0")
    return np.log(z) + 1.0


def build_omega(omega_prime: PlanarDomain) -> PlanarDomain:
    """Image domain under z log z, boundary refined near the origin image."""
    if omega_prime.connectivity != 2:
        raise ConfigError("expected a doubly connected half-plane domain")
    p = getattr(omega_prime, "params", OmegaPrimeParams())
    # the preimage of the cusp-like image point is the origin, t = 0.75 of
    # the outer parameterisation: cluster parameters geometrically toward it
    dt = 2.0 ** (-np.arange(1, 52, dtype=float)) / (4.0 * p.flat_half)
    extra = np.concatenate([0.75 + dt, 0.75 - dt])
    outer = MappedCurve(omega_prime.outer, phi_map, extra_params=extra)
    holes = [MappedCurve(h, phi_map) for h in omega_prime.holes]
    return PlanarDomain(outer, holes, smoothness="C1", name="omega_zlogz")


# ---------------------------------------------------------------------------
# presets and serialization


def disc(n: int = 2048) -> PlanarDomain:
    return PlanarDomain(CircleCurve(0.0, 1.0, orientation=1, n=n), [], smoothness="Cinf", name="disc")


def annulus(modulus: float, center: complex = 0.0, scale: float = 1.0, n: int = 2048) -> PlanarDomain:
    if not 0.0 < modulus < 1.0:
        raise ConfigError("annulus modulus must lie in (0, 1)")
    outer = CircleCurve(center, scale, orientation=1, n=n)
    inner = CircleCurve(center, scale * modulus, orientation=-1, n=n)
    return PlanarDomain(outer, [inner], smoothness="Cinf", name=f"annulus_{modulus}")


def preset(name: str, **kw):
    """Named sample domains used across the experiments."""
    if name == "disc":
        return disc(**kw)
    if name == "ball":
        return ball(**kw)
    if name == "ellipsoid":
        return ellipsoid(**kw)
    if name == "omega_prime":
        return build_omega_prime(kw.get("params"))
    if name == "omega_zlogz":
        return build_omega(build_omega_prime(kw.get("params")))
    if name.startswith("annulus_"):
        return annulus(float(name.split("_", 1)[1]), **kw)
    raise ConfigError(f"unknown preset {name!r}")


def domain_from_spec(spec: dict):
    if spec["kind"] == "planar":
        outer = PolylineCurve([complex(a, b) for a, b in spec["outer"]])
        holes = [PolylineCurve([complex(a, b) for a, b in h]) for h in spec.get("holes", [])]
        return PlanarDomain(outer, holes, smoothness=spec.get("smoothness", "C2"))
    if spec["kind"] == "defining":
        return DefiningFunctionDomain(spec["w"], name=spec.get("name", ""))
    raise ConfigError(f"unknown domain kind {spec.get('kind')!r}")


def random_interior_points(dom, count: int, seed: int = 0) -> np.ndarray:
    """Rejection-sampled interior points (planar: complex; defining: C^n rows).

    Each round draws exactly as many candidates as points are still missing,
    so the points are those a one-candidate-at-a-time loop would return, and
    no candidate is drawn that such a loop would not draw.
    """
    rng = np.random.default_rng(seed)
    points = dom._interior_candidates(rng, count)
    while len(points) < count:
        points = np.concatenate([points, dom._interior_candidates(rng, count - len(points))])
    return points
