"""Bounded domains: planar curve-bounded regions and weighted quadratic regions.

Planar domains carry analytic boundary parameterizations (with cached
samples) so boundary distances can be refined far below the sample
resolution; this matters for the z log z image domain, whose geometry near
the origin lives at scales of 1e-9.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .ball import _row_norms
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
        """Same curve with collocation parameters subdivided by ``factor``; its samples and edges are built afresh."""
        t = self._params
        nxt = np.roll(t, -1).copy()
        nxt[-1] += 1.0
        fine = copy.copy(self)
        Curve.__init__(fine, _merged(t, [t + (nxt - t) * j / factor for j in range(1, factor)]))
        return fine


# elements per temporary array of the batched planar kernels: the few
# temporaries of one chunk take about 1 MB together, whatever the batch size
_CHUNK = 1 << 15


def _blocks(rows: int, width: int) -> list[slice]:
    """Slices of ``rows`` rows, each block holding about ``_CHUNK`` elements at ``width`` per row, and at least one row."""
    step = max(1, _CHUNK // width)
    return [slice(s, s + step) for s in range(0, rows, step)]


def _least(values, rows: int, width: int, k: int) -> np.ndarray:
    """Column indices of the ``k`` least of the ``width`` values in each of ``rows`` rows, least first.

    ``values(block)`` gives the values of a row block (``_blocks``); ties keep the partition's order.
    """
    out = np.empty((rows, k), dtype=np.intp)
    for block in _blocks(rows, width):
        v = values(block)
        part = np.argpartition(v, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(v, part, axis=1), axis=1, kind="stable")
        out[block] = np.take_along_axis(part, order, axis=1)
    return out


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
        for block in _blocks(len(z), self.table.shape[1]):
            x = z.real[block, None]
            y = z.imag[block, None]
            x0, y0, y1, dxdy = self.edges[:, self.table[np.searchsorted(self.cuts, y[:, 0], "right")]]
            with np.errstate(invalid="ignore", over="ignore"):
                # offsets from the edge's first sample are exact for nearby
                # points, so the side of the edge is decided at their scale
                hit = ((y0 > y) != (y1 > y)) & (x - x0 < (y - y0) * dxdy)
            odd[block] = np.logical_xor.reduce(hit, axis=1)
            on_sample[block] = ((x0 == x) & (y0 == y)).any(axis=1)
        return odd, on_sample


def _merged(t: np.ndarray, extra_params) -> np.ndarray:
    """The parameters ``t`` with those of ``extra_params``, read modulo 1, merged in: sorted, each once."""
    if extra_params is None:
        return t
    return np.unique(np.concatenate([t, np.ravel(extra_params) % 1.0]))


class ParamCurve(Curve):
    """Curve given by an explicit callable t -> complex point."""

    def __init__(self, func, n: int = 4096, extra_params=None):
        self.func = func
        super().__init__(_merged(np.arange(n) / n, extra_params))

    def point(self, t):
        return self.func(np.asarray(t, dtype=float) % 1.0)


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


class MappedCurve(Curve):
    """Pointwise image of another curve under a holomorphic map."""

    def __init__(self, base: Curve, mapping, extra_params=None):
        self.base = base
        self.mapping = mapping
        super().__init__(_merged(base.params, extra_params))

    def point(self, t):
        return self.mapping(self.base.point(t))


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
    """``v`` over its norm; a direction whose norm underflows is first scaled up by 2^1022, which is exact."""
    n = float(np.linalg.norm(np.atleast_1d(np.asarray(v))))
    if n < np.finfo(float).tiny:  # the squares in the norm lost their digits
        v = v * 2.0**1022
        n = float(np.linalg.norm(np.atleast_1d(np.asarray(v))))
    if n == 0:
        raise DomainError("zero direction")
    return v / n


def _min_gap(p: np.ndarray, q: np.ndarray) -> float:
    """Least distance |p_i - q_j| between two point sets, over row blocks of about ``_CHUNK`` pairs."""
    return min(float(np.min(np.abs(p[block, None] - q))) for block in _blocks(len(p), len(q)))


class PlanarDomain:
    """Bounded planar domain: one outer curve and zero or more holes.

    Points are complex numbers; ``contains`` also takes an array of them.
    """

    geodesic_slices = False  # a slice disc is a disc inside the plane, not the plane

    def __init__(self, outer: Curve, holes=(), name: str = ""):
        self.outer = outer
        self.holes = list(holes)
        self.name = name
        self._conformal_maps = {}  # conformal.canonical_annulus_map's memo, keyed by resolution
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
                if _min_gap(h.points(), g.points()[::8]) <= 0:
                    raise ConfigError("holes intersect")
        # the order in x of every curve's samples, for the sampler's 1e-6 test
        self._x_order = np.argsort(np.concatenate([c.points() for c in self.curves()]).real).astype(np.int32)

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

    def boundary_distance(self, z) -> DomainPoint:
        """Distance from one interior point (a float ``d``) or from each point of an array (arrays).

        The nearest point is refined on every curve by one lockstep Brent
        run; see ``_planar_distances``.
        """
        return _planar_distances([(self, z)])[0]

    def inward_normal(self, p) -> complex:
        """Inward unit normal of the boundary curve at a boundary point."""
        return complex(self._frames(np.array([complex(p)]))[1][0])

    def tangent_ball_radius(self, p, inward):
        """Radius of the largest disc in the domain tangent at the boundary point ``p`` with inward normal n = ``inward``.

        The shrinking-ball minimum of |q - p|^2 / (2 <q - p, n>) over boundary
        points q with <q - p, n> > 0 (Ma, Bae & Choi, Visual Computer 28, 2012):
        over the samples, then around each curve's four smallest sample ratios
        by one lockstep Brent run on the parameter.  Samples within 1e-3
        ``scale`` of p, where <q - p, n> has lost its digits, are left out.
        Batch-first like ``contains``; raises ``DomainError`` for a centre outside.
        """
        p, n = np.broadcast_arrays(np.asarray(p, dtype=complex), np.asarray(inward, dtype=complex))
        shape, p, n = p.shape, p.ravel(), n.ravel() / np.abs(n.ravel())
        near = (1e-3 * self.scale) ** 2

        def ratio(q, rows):
            w = q - p[rows]
            along = w.real * n[rows].real + w.imag * n[rows].imag
            sq = w.real * w.real + w.imag * w.imag
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where((along > 0.0) & (sq > near), sq / (2.0 * along), np.inf)

        rows = np.arange(len(p))
        r = np.full(len(p), np.inf)
        curves, lanes = self.curves(), []  # each curve's Brent windows (start, width) and their rows
        for curve in curves:
            t, q = curve.params, curve.points()
            k = min(4, len(t))
            best = _least(lambda block: ratio(q, rows[block, None]), len(p), len(t), k)
            r = np.minimum(r, ratio(q[best[:, 0]], rows))
            lo = t[best - 1].ravel()
            hi = lo + (t[(best + 1).ravel() % len(t)] - lo) % 1.0
            lanes.append((lo, hi, np.repeat(rows, k)))
        fx, _, owner = _refine(curves, lanes, ratio, xatol=1e-12)
        np.minimum.at(r, owner, fx)
        if not np.all(self.contains(p + r * n)):
            raise DomainError("no interior tangent ball found at the given boundary point")
        return float(r[0]) if not shape else r.reshape(shape)

    def _frames(self, p):
        """A curve point next to each boundary point of the 1-d array ``p``, and the inward unit normal there.

        The point is the curve where ``p`` projects on a chord about its nearest
        sample, so it agrees with its normal whatever the error in ``p``; the
        normal turns a central difference left, where each curve has the domain.
        """
        gap = np.full(p.shape, np.inf)
        foot, normal = np.zeros_like(p), np.zeros_like(p)
        for curve in self.curves():
            t, q = curve.params, curve.points()
            k = np.empty(len(p), dtype=np.intp)
            for block in _blocks(len(p), len(t)):  # argmin, not ``_least``: a tie takes the first sample
                k[block] = np.argmin(np.abs(q - p[block, None]), axis=1)
            h = 0.125 / len(t)
            chord = curve.point(t[k] + h) - curve.point(t[k] - h)
            at = t[k] + 2.0 * h * (np.conj(chord) * (p - q[k])).real / (chord.real**2 + chord.imag**2)
            tangent = curve.point(at + h) - curve.point(at - h)
            d = np.abs(q[k] - p)
            closer = d < gap
            gap = np.where(closer, d, gap)
            foot = np.where(closer, curve.point(at), foot)
            normal = np.where(closer, 1j * tangent / np.abs(tangent), normal)
        return foot, normal

    def slice_disc(self, z, v):
        """Radius R and centre offset c (centre z + c v/|v|) of the disc through one point (floats) or each point of an array.

        The line z + C v is the plane.  The disc is tangent at the nearest
        boundary point p, its centre ``tangent_ball_radius`` along the curve's
        normal there, and R is the centre's boundary distance, which certifies
        it.  Raises ``DomainError`` when the disc misses z, as at a corner.
        """
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        foot, normal = self._frames(boundary_distance(self, flat).nearest)
        center = foot + self.tangent_ball_radius(foot, normal) * normal
        radius = boundary_distance(self, center).d
        offset = (center - flat) * np.conj(_unit(self.as_point(v)))
        if np.any(radius <= np.abs(offset)):
            raise DomainError(f"the tangent disc misses the point {complex(flat[np.argmax(radius <= np.abs(offset))])}")
        if z.ndim == 0:
            return float(radius[0]), complex(offset[0])
        return radius.reshape(z.shape), offset.reshape(z.shape)

    def to_spec(self) -> dict:
        return {
            "kind": "planar",
            "outer": [[float(p.real), float(p.imag)] for p in self.outer.points()],
            "holes": [[[float(p.real), float(p.imag)] for p in h.points()] for h in self.holes],
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
        s = np.concatenate([c.points() for c in self.curves()])[self._x_order]
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
    branches become masks), so its minimiser has the same bits.  A lane
    that meets the stopping test is retired: its minimiser and value go to
    the output and it leaves every state array.  ``f(x, lanes)`` maps one
    abscissa per live lane to the objective values, ``lanes`` holding the
    live lanes' indices in increasing order; it runs under the solver's
    ``np.errstate``.  Returns the minimisers and their objective values.
    Raises ``SolverError`` when an objective value is NaN or a lane still
    moves after ``maxiter`` evaluations.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x_out, f_out = np.empty_like(a), np.empty_like(a)
    lanes = np.arange(len(a))
    xf = a + _GOLDEN * (b - a)
    nfc, fulc = xf, xf
    rat = e = np.zeros_like(xf)
    num = 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fx = f(xf, lanes)
        if np.isnan(fx).any():
            raise SolverError("bounded Brent: objective is NaN at a window's first point")
        fnfc = ffulc = fx
        while True:
            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
            tol2 = 2.0 * tol1
            live = np.abs(xf - xm) > tol2 - 0.5 * (b - a)
            if not live.all():  # retire the converged lanes
                done = ~live
                x_out[lanes[done]], f_out[lanes[done]] = xf[done], fx[done]
                lanes, a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, xm, tol1, tol2 = (
                    v[live] for v in (lanes, a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, xm, tol1, tol2))
            if not len(lanes):
                return x_out, f_out
            to_mid, from_nfc, from_fulc, to_a, to_b = xm - xf, xf - nfc, xf - fulc, a - xf, b - xf
            # parabola through the three best points, tried where the step before last was long
            r = from_nfc * (fx - ffulc)
            q = from_fulc * (fx - fnfc)
            p = from_fulc * q - from_nfc * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parabolic = (np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e)) & (p > q * to_a) & (p < q * to_b)
            step = (p + 0.0) / q
            x = xf + step
            near_end = ((x - a) < tol2) | ((b - x) < tol2)
            step = np.where(near_end, tol1 * (np.sign(to_mid) + (to_mid == 0)), step)
            golden = np.where(xf >= xm, to_a, to_b)
            e = np.where(parabolic, rat, golden)
            rat = np.where(parabolic, step, _GOLDEN * golden)
            x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
            fu = f(x, lanes)
            num += 1
            if np.isnan(fu).any():
                raise SolverError("bounded Brent: objective is NaN inside a window")

            better = fu <= fx
            lower = np.where(better, x >= xf, x < xf)  # the end that moves is a, else b
            end = np.where(better, xf, x)
            a, b = np.where(lower, end, a), np.where(lower, b, end)
            to_nfc = better | (fu <= fnfc) | (nfc == xf)
            to_fulc = ~to_nfc & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
            fulc = np.where(to_nfc, nfc, np.where(to_fulc, x, fulc))
            ffulc = np.where(to_nfc, fnfc, np.where(to_fulc, fu, ffulc))
            nfc = np.where(to_nfc, end, nfc)
            fnfc = np.where(to_nfc, np.where(better, fx, fu), fnfc)
            xf, fx = np.where(better, x, xf), np.where(better, fu, fx)
            if num >= maxiter:
                raise SolverError(f"bounded Brent: {len(lanes)} windows unconverged after {maxiter} evaluations")


def _sample_windows(curve: Curve, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameter windows about the four samples of ``curve`` nearest each point of ``z`` (``_least``), nearest first.

    A window runs between the sample's two neighbours; one that wraps past
    t = 0 splits into two lanes, (lo, 1 + hi) and (lo - 1, hi).  Returns
    arrays ``lo`` and ``hi`` with one row per point and two lanes per
    sample, and the mask of the lanes in use (an unwrapped window leaves
    its second lane unused).
    """
    t, pts = curve.params, curve.points()
    n, k = len(t), min(4, len(t))
    closest = _least(lambda block: np.abs(pts - z[block, None]), len(z), n, k)
    lo, hi = t[(closest - 1) % n], t[(closest + 1) % n]
    wrap = hi < lo
    lanes = np.stack([np.ones_like(wrap), wrap], axis=-1).reshape(len(z), 2 * k)
    lo = np.stack([lo, lo - 1.0], axis=-1).reshape(len(z), 2 * k)
    hi = np.stack([np.where(wrap, 1.0 + hi, hi), hi], axis=-1).reshape(len(z), 2 * k)
    return lo, hi, lanes


def _refine(curves, windows, objective, xatol: float):
    """One lockstep Brent run over the parameter windows of every curve.

    ``windows`` gives each curve's windows as arrays ``(lo, hi, rows)``,
    ``rows`` naming the point each window serves, and ``objective(q, rows)``
    maps the curve points ``q`` of the live windows, with those windows'
    rows, to their values.  Each curve is evaluated on its live windows
    only, and not at all once they have all converged.  Returns the least
    values, the curve points where they are taken and ``rows``, each
    concatenated curve after curve.
    """
    lo, hi, rows = (np.concatenate(x) for x in zip(*windows))
    cuts = np.cumsum([0] + [len(x[0]) for x in windows])

    def points(x, lanes):  # ``point`` reads its parameter modulo 1, so a window may pass t = 1
        at = np.searchsorted(lanes, cuts)  # live lanes keep their order, so each curve's lie between its cuts
        q = np.empty(len(x), dtype=complex)
        for c, i, j in zip(curves, at, at[1:]):
            if i < j:
                q[i:j] = c.point(x[i:j])
        return q

    x, fx = _bounded_brent(lambda x, lanes: objective(points(x, lanes), rows[lanes]), lo, hi, xatol=xatol, maxiter=400)
    return fx, points(x, np.arange(len(x))), rows


def _planar_distances(queries) -> list[DomainPoint]:
    """``PlanarDomain.boundary_distance`` of each ``(domain, points)`` query, all refined in one run.

    Every query is checked first: a point outside its domain raises
    ``DomainError``.  A coarse scan then picks each point's four nearest
    samples on every curve of its domain, and the parameter windows about
    them, on every curve of every query, are refined by one lockstep Brent
    run (``_refine``).  The nearest point is the first strict minimum in
    curve order, then in window order.  Each query gets the bits it would
    get alone.
    """
    flats = []
    for dom, z in queries:
        flat = np.asarray(z, dtype=complex).ravel()
        inside = dom.contains(flat)
        if not inside.all():
            bad = complex(flat[np.argmin(inside)])
            gap = np.min(np.abs(np.concatenate([c.points() for c in dom.curves()]) - bad))
            raise DomainError(f"point {bad} is not interior (boundary gap {gap:.3e})")
        flats.append(flat)
    flat = np.concatenate(flats)  # every query's points, query after query

    def sq_dist(q, rows):
        w = q - flat[rows]
        return w.real * w.real + w.imag * w.imag

    # each point's windows fill one row, curve after curve
    curves, windows, cells, base, width = [], [], [], 0, 0
    for (dom, _), z in zip(queries, flats):
        col = 0
        for curve in dom.curves():
            lo, hi, lanes = _sample_windows(curve, z)
            owner, k = np.nonzero(lanes)
            curves.append(curve)
            windows.append((lo[lanes], hi[lanes], base + owner))
            cells.append((base + owner, col + k))
            col += lanes.shape[1]
        base, width = base + len(z), max(width, col)
    _, w, owner = _refine(curves, windows, sq_dist, xatol=1e-15)
    cells = tuple(np.concatenate(x) for x in zip(*cells))
    dw = w - flat[owner]
    d = np.full((len(flat), width), np.inf)  # a domain with fewer windows than the widest leaves its row's tail empty
    d[cells] = np.hypot(dw.real, dw.imag)  # the scalar abs; numpy's vectorised one can differ in the last bit
    at = np.zeros(d.shape, dtype=complex)
    at[cells] = w
    rows, best = np.arange(len(flat)), np.argmin(d, axis=1)
    split = np.cumsum([len(z) for z in flats])[:-1]
    out = []
    for (_, z), dq, nq in zip(queries, np.split(d[rows, best], split), np.split(at[rows, best], split)):
        z = np.asarray(z, dtype=complex)
        if z.ndim == 0:
            out.append(DomainPoint(z=complex(z), d=float(dq[0]), nearest=nq[0]))
        else:
            out.append(DomainPoint(z=z, d=dq.reshape(z.shape), nearest=nq.reshape(z.shape)))
    return out


def boundary_distance(dom, z, *more):
    """Euclidean distance from an interior point, or from each point of an array, to the boundary of ``dom``.

    Further ``(domain, points)`` pairs are answered in the same lockstep
    Brent run, each with the bits of its own call, and the result is then
    a list with one ``DomainPoint`` per query, ``dom``'s first.  Such
    queries take planar domains only; a quadratic one raises
    ``ConfigError``.  The library asks every domain through this function
    rather than the method, so that a wrapper installed here
    (``perfbench/tracing.py``) sees every distance query.
    """
    if not more:
        return dom.boundary_distance(z)
    queries = [(dom, z), *more]
    if not all(isinstance(q, tuple) and len(q) == 2 and isinstance(q[0], PlanarDomain) for q in queries):
        raise ConfigError("distances answered together take (planar domain, points) pairs")
    return _planar_distances(queries)


# ---------------------------------------------------------------------------
# weighted quadratic domains


class DefiningFunctionDomain:
    """Weighted quadratic domain {sum_j w_j |z_j|^2 < 1} in C^n, one positive weight per coordinate.

    The ball has ``w = 1`` and the ellipsoid ``w = (1, 1/b^2, ...)``; the
    boundary distance, the inward normal and the tangent balls are closed
    forms in ``w``.  Points are ``(n,)`` arrays.
    """

    geodesic_slices = True  # each slice disc is the whole slice, a complex geodesic (see ``slice_disc``)

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
        """Distance from one interior point ``(n,)`` (a float ``d``) or from each row of ``(m, n)`` (arrays).

        Each row gets the bits of its one-point query, with a nearest boundary point.
        """
        z = self.as_point(z)
        inside = self.contains(z)
        if not np.all(inside):
            raise DomainError(f"point {z if z.ndim == 1 else z[np.argmin(inside)]} is not interior")
        d, nearest = self.exact_distance(z)
        return DomainPoint(z=z, d=d, nearest=nearest)

    def exact_distance(self, z: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        """Distance from the interior point ``z``, or from each row of ``z``, to the boundary, and a nearest boundary point.

        The nearest point is x_j = z_j / (1 - t w_j), where t in [0, 1/max w)
        solves sum_j w_j |z_j|^2 / (1 - t w_j)^2 = 1, whose left side
        increases with t (D. Eberly, "Distance from a point to an ellipse, an
        ellipsoid, or a hyperellipsoid", Geometric Tools, 2011).  Bisection
        runs in u = 1 - t max w, where each denominator c_j + u r_j keeps its
        relative precision near the pole, until the bracket stops shrinking
        or meets an exact root, and returns the end inside the domain; rows
        bisect in lockstep, each stopping on its own.  When every coordinate
        of the largest weight is zero, or too small to square, and the root
        would lie at or past the pole, t = 1/max w and the nearest points
        form a sphere in those coordinates.  Equal weights give the round
        formula.
        """
        rows = np.atleast_2d(z)
        w, m = self.w, self.w.max()
        top = w == m
        k = w * np.abs(rows) ** 2
        r = w / m
        c = 1.0 - r
        nearest = np.zeros(rows.shape, dtype=complex)
        excess = np.sum(k[:, ~top] / c[~top] ** 2, axis=-1) - 1.0  # at u = 0
        # top coordinates whose squares are subnormal have lost digits, which
        # the bisection's root u ~ 1e-154 would inherit; such rows take the
        # limit u = 0 instead, on the sphere point in their direction
        sphere = (k[:, top] < np.finfo(float).tiny).all(axis=-1) & (excess <= 0.0)
        nearest[np.ix_(sphere, ~top)] = rows[np.ix_(sphere, ~top)] / c[~top]
        nearest[sphere, np.argmax(top)] = np.sqrt(-excess[sphere] / m)
        lift = np.flatnonzero(sphere & (rows[:, top] != 0).any(axis=-1))
        zt = rows[np.ix_(lift, top)] * 2.0**600  # exact, and now safe to square
        nearest[np.ix_(lift, top)] = zt / _row_norms(zt)[:, None] * np.sqrt(-excess[lift] / m)[:, None]
        rest = ~sphere
        if top.all():  # a ball of radius 1/sqrt(w)
            radius, nz = 1.0 / np.sqrt(w[0]), _row_norms(rows[rest])
            nearest[rest] = rows[rest] / nz[:, None] * radius
        else:
            kr = k[rest]
            lo, hi = np.zeros(len(kr)), np.ones(len(kr))
            root = np.zeros(len(kr), dtype=bool)
            u = 0.5 * (lo + hi)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                while (run := ~root & (lo < u) & (u < hi)).any():
                    excess = np.sum(kr[run] / (c + u[run, None] * r) ** 2, axis=-1) - 1.0
                    root[run] = excess == 0.0
                    lo[run] = np.where(excess > 0.0, u[run], lo[run])
                    hi[run] = np.where(excess >= 0.0, hi[run], u[run])  # a NaN excess lowers hi
                    u = np.where(root, u, 0.5 * (lo + hi))
            nearest[rest] = rows[rest] / (c + np.where(root, u, hi)[:, None] * r)
        d = _row_norms(nearest - rows)
        if top.all():
            d[rest] = radius - nz
        return (float(d[0]), nearest[0]) if z.ndim == 1 else (d, nearest)

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

    def slice_disc(self, z, v):
        """Radius R and centre offset c (centre z + c u, u = v/|v|) of the slice z + C u through one point ``(n,)`` or each row.

        With A = sum w|u|^2, beta = sum w conj(z) u and g = (1 - sum w|z|^2) / A
        the slice is |s + conj(beta)/A|^2 < g + |beta/A|^2, so c = -conj(beta)/A
        and R = sqrt(g + |c|^2).  It is a complex geodesic, the image of one of
        the ball's (L. Lempert, Bull. SMF 109, 1981) under diag(1/sqrt(w)).
        """
        z, v = self.as_point(z), _unit(self.as_point(v))
        q = 1.0 - np.add.reduce(self.w * np.abs(z) ** 2, axis=-1)  # > 0 exactly where ``contains`` holds
        if not np.all(q > 0.0):
            raise DomainError(f"point {z if z.ndim == 1 else z[np.argmin(q > 0.0)]} is not interior")
        a = np.add.reduce(self.w * np.abs(v) ** 2)
        offset = -np.conj(np.add.reduce(self.w * np.conj(z) * v, axis=-1)) / a
        c = np.abs(offset)
        radius = np.sqrt(q / a + c * c)  # c * c is c ** 2 with the same bits for one point and for rows
        return (float(radius), complex(offset)) if radius.ndim == 0 else (radius, offset)


def _integer(value, what: str, least: int) -> int:
    """``value`` as an int; ``ConfigError`` unless it is an integer of at least ``least``."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigError(f"{what} must be an integer of at least {least}, not {value!r}")
    return int(value)


def ball(dim: int = 2) -> DefiningFunctionDomain:
    """Unit ball of C^dim."""
    return DefiningFunctionDomain(np.ones(_integer(dim, "dimension", 1)), name="ball")


def ellipsoid(b: float = 1.0 / np.sqrt(2.0), dim: int = 2) -> DefiningFunctionDomain:
    """Ellipsoid {|z1|^2 + |z2|^2/b^2 + ... < 1}, contained in the ball for b < 1."""
    if not (np.isfinite(b) and b > 0):
        raise ConfigError(f"ellipsoid semi-axis b must be positive and finite, not {b!r}")
    w = np.ones(_integer(dim, "dimension", 1))
    with np.errstate(over="ignore", divide="ignore"):  # a weight out of range is rejected below
        w[1:] = 1.0 / np.float64(b) ** 2
    return DefiningFunctionDomain(w, name="ellipsoid")


# ---------------------------------------------------------------------------
# the half-plane annulus and its z log z image


# The lens's shape: the flat half-length of its axis segment, the width of
# its bump, its hole, and the sample counts of the outer curve and the hole.
_LENS_FLAT_HALF = 0.9
_LENS_WIDTH = 0.22
_LENS_HOLE_CENTER = 0.09 + 0.35j
_LENS_HOLE_RADIUS = 0.04
_LENS_SAMPLES = 4096
_LENS_HOLE_SAMPLES = 1024

# Parameter steps 2^-(1..51) / (4 flat_half) about the lens's origin, t = 0.75, that resolve the z log z cusp
_CUSP_STEPS = 2.0 ** (-np.arange(1, 52, dtype=float)) / (4.0 * _LENS_FLAT_HALF)


def _lens_profile(y):
    """Width of the domain at height y; C-infinity, vanishing at +-flat_half."""
    y = np.asarray(y, dtype=float)
    y2 = _LENS_FLAT_HALF**2
    out = np.zeros_like(y)
    inside = np.abs(y) < _LENS_FLAT_HALF
    out[inside] = _LENS_WIDTH * np.exp(-y[inside] ** 2 / (y2 - y[inside] ** 2))
    return out


def build_omega_prime() -> PlanarDomain:
    """Smooth doubly connected domain in the right half plane.

    The outer boundary is the exact segment {iy : |y| <= flat_half} of the
    imaginary axis closed up by the graph x = width * exp(-y^2/(Y^2-y^2)),
    a C-infinity bump meeting the segment at +-i*flat_half with
    infinite-order tangency; the rest of the outer curve lies in the open
    right half plane.  One small circular hole makes it a topological
    annulus, and it sits off the real axis so the real approach sequence
    of the image experiment stays clear of it.

    The domain is deliberately thin: z log z folds the right half plane
    (its critical point is 1/e, and e.g. 0.25 and 0.5, or i and -i, have
    identical images), and a wide domain necessarily contains fold
    partners of its own near-axis points.  A narrow profile, width 0.22
    < 1/e, with widths shrinking toward +-i*flat_half keeps the
    restriction injective, which the image construction certifies
    empirically.
    """
    Y = _LENS_FLAT_HALF

    def outer(t):
        t = np.asarray(t, dtype=float) % 1.0
        out = np.empty(t.shape, dtype=complex)
        arc = t < 0.5  # right-side graph, bottom to top (ccw)
        y = 4.0 * Y * t[arc] - Y
        out[arc] = _lens_profile(y) + 1j * y
        y = 3.0 * Y - 4.0 * Y * t[~arc]  # axis segment, top to bottom
        out[~arc] = 1j * y
        return out

    dt = _CUSP_STEPS
    extra = np.concatenate([0.75 + dt, 0.75 - dt, 0.25 + dt / 2, 0.25 - dt / 2])
    outer_curve = ParamCurve(outer, n=_LENS_SAMPLES, extra_params=extra)
    hole = CircleCurve(_LENS_HOLE_CENTER, _LENS_HOLE_RADIUS, orientation=-1, n=_LENS_HOLE_SAMPLES)
    return PlanarDomain(outer_curve, [hole], name="omega_prime")


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
    # the image's cusp is the image of the lens's origin
    extra = np.concatenate([0.75 + _CUSP_STEPS, 0.75 - _CUSP_STEPS])
    outer = MappedCurve(omega_prime.outer, phi_map, extra_params=extra)
    holes = [MappedCurve(h, phi_map) for h in omega_prime.holes]
    return PlanarDomain(outer, holes, name="omega_zlogz")


# ---------------------------------------------------------------------------
# presets and serialization


def disc(n: int = 2048) -> PlanarDomain:
    return PlanarDomain(CircleCurve(0.0, 1.0, orientation=1, n=n), [], name="disc")


def annulus(modulus: float, center: complex = 0.0, scale: float = 1.0, n: int = 2048) -> PlanarDomain:
    if not 0.0 < modulus < 1.0:
        raise ConfigError("annulus modulus must lie in (0, 1)")
    outer = CircleCurve(center, scale, orientation=1, n=n)
    inner = CircleCurve(center, scale * modulus, orientation=-1, n=n)
    return PlanarDomain(outer, [inner], name=f"annulus_{modulus}")


def preset(name: str):
    """Named sample domains used across the experiments."""
    if name == "disc":
        return disc()
    if name == "ball":
        return ball()
    if name == "ellipsoid":
        return ellipsoid()
    if name == "omega_prime":
        return build_omega_prime()
    if name == "omega_zlogz":
        return build_omega(build_omega_prime())
    if name.startswith("annulus_"):
        return annulus(float(name.split("_", 1)[1]))
    raise ConfigError(f"unknown preset {name!r}")


def domain_from_spec(spec: dict):
    if spec["kind"] == "planar":
        outer = PolylineCurve([complex(a, b) for a, b in spec["outer"]])
        holes = [PolylineCurve([complex(a, b) for a, b in h]) for h in spec.get("holes", [])]
        return PlanarDomain(outer, holes)
    if spec["kind"] == "defining":
        return DefiningFunctionDomain(spec["w"], name=spec.get("name", ""))
    raise ConfigError(f"unknown domain kind {spec.get('kind')!r}")


def random_interior_points(dom, count: int, seed: int = 0) -> np.ndarray:
    """Rejection-sampled interior points (planar: complex; defining: C^n rows).

    The first round draws ``count`` candidates, and each later one enough
    for the points still missing at the acceptance rate seen so far.  The
    generator draws its stream in order and the first accepted candidates
    are kept, so the points are those a one-candidate-at-a-time loop would
    return.
    """
    count = _integer(count, "point count", 0)
    rng = np.random.default_rng(seed)
    points, drawn = dom._interior_candidates(rng, count), count
    while len(points) < count:
        missing = count - len(points)
        # a quarter more than the rate predicts, and at most 64 draws per missing point
        size = int(1.25 * missing * drawn / max(len(points), drawn / 64)) + 8
        points = np.concatenate([points, dom._interior_candidates(rng, size)])
        drawn += size
    return points[:count]
