"""Bounded domains: planar curve-bounded regions and weighted quadratic regions.

Planar domains carry analytic boundary parameterizations (with cached
samples) so boundary distances can be refined far below the sample
resolution; this matters for the z log z image domain, whose geometry near
the origin lives at scales of 1e-9.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .ball import _row_norms
from .errors import ConfigError, DomainError, SolverError

__all__ = [
    "Curve",
    "ParamCurve",
    "CircleCurve",
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
    "random_interior_points",
]


# ---------------------------------------------------------------------------
# curves


class Curve:
    """Closed parameterized boundary curve, t in [0, 1) periodic."""

    def __init__(self, params: np.ndarray):
        self._params = np.asarray(params, dtype=float)
        self._points = None
        self._index = None

    def point(self, t):
        raise NotImplementedError

    def jet(self, t):
        """The curve points ``point(t)`` and their derivatives in t, from one evaluation; batch-first."""
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
        return self._sample_index().crossings(z)

    def _sample_index(self) -> "_SampleIndex":
        if self._index is None:
            self._index = _SampleIndex(self.points())
        return self._index

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
_RUN = 32  # consecutive samples per block of a curve's sample index


def _blocks(rows: int, width: int) -> list[slice]:
    """Slices of ``rows`` rows, each block holding about ``_CHUNK`` elements at ``width`` per row, and at least one row."""
    step = max(1, _CHUNK // width)
    return [slice(s, s + step) for s in range(0, rows, step)]


def _least(values, rows: int, width: int, k: int) -> np.ndarray:
    """Column indices of the ``k`` least of the ``width`` values in each of ``rows`` rows, least first.

    ``values(block)`` gives the values of a row block (``_blocks``).  Ties go
    to the lower column, as in a stable sort, whatever CPU features numpy's
    partition dispatches to: a row where it left out a column that ties the
    k-th value is sorted in full.
    """
    out = np.empty((rows, k), dtype=np.intp)
    for block in _blocks(rows, width):
        v = values(block)
        part = np.argpartition(v, k - 1, axis=1)[:, :k]
        least = np.take_along_axis(v, part, axis=1)
        out[block] = np.take_along_axis(part, np.lexsort((part, least)), axis=1)
        kth = least.max(axis=1, keepdims=True)
        tied = np.flatnonzero(np.count_nonzero(v == kth, axis=1) > np.count_nonzero(least == kth, axis=1))
        if len(tied):
            out[block.start + tied] = np.argsort(v[tied], axis=1, kind="stable")[:, :k]
    return out


def _box_squares(z, x0, x1, y0, y1) -> tuple[np.ndarray, np.ndarray]:
    """Squared least and greatest distance from ``z`` to the box [x0, x1] x [y0, y1], the least 0 inside it; broadcasts."""
    # x0 - x and x - x1 sum to x0 - x1 <= 0: the greater is the gap to the box, the lesser minus that to its far side
    ax, bx, ay, by = x0 - z.real, z.real - x1, y0 - z.imag, z.imag - y1
    gx, gy = np.maximum(np.maximum(ax, bx), 0.0), np.maximum(np.maximum(ay, by), 0.0)
    fx, fy = np.minimum(ax, bx), np.minimum(ay, by)
    return gx * gx + gy * gy, fx * fx + fy * fy


class _SampleIndex:
    """A curve's samples, indexed for the crossing test and for the nearest samples.

    Edges of the closed sample polygon are bucketed into horizontal strips,
    cut at every fourth distinct sample height, so each strip holds a few
    samples however the samples cluster.  Row ``j`` of ``table`` lists every
    edge whose closed height range meets strip ``j``, padded with a sentinel
    edge that no point crosses or equals, so one fancy index gathers the
    candidate edges of a batch of points.  Runs of ``_RUN`` consecutive
    samples form blocks, ``boxes`` holds x0, x1, y0, y1 of each one's box
    (``box`` of the curve's), and ``gap`` is the largest sample step.

    The first crossing test also builds a grid over the box (``_build_grid``):
    ``shape`` gives its columns and rows of square cells of side ``side``
    from ``origin``, and one lookup in ``_state`` answers most points without
    the strip gather.
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
        self.points = points
        self.gap = float(np.max(np.abs(nxt - points)))
        self.starts = np.arange(0, n, _RUN)
        self.sizes = np.minimum(_RUN, n - self.starts)
        self.boxes = [f.reduceat(c, self.starts) for c in (x0, y0) for f in (np.minimum, np.maximum)]
        self.box = [f.reduce(b) for f, b in zip((np.minimum, np.maximum) * 2, self.boxes)]
        self._state = None

    def _strip(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``crossings`` of the points ``x + iy`` by the strip table, each point against its strip's edges."""
        odd = np.zeros(len(x), dtype=bool)
        on_sample = np.zeros(len(x), dtype=bool)
        # a point above or below every sample crosses no edge and equals no sample
        level = np.flatnonzero((y >= self.box[2]) & (y <= self.box[3]))
        for block in _blocks(len(level), self.table.shape[1]):
            at = level[block]
            px, py = x[at, None], y[at, None]
            x0, y0, y1, dxdy = self.edges[:, self.table[np.searchsorted(self.cuts, py[:, 0], "right")]]
            with np.errstate(invalid="ignore", over="ignore"):
                # offsets from the edge's first sample are exact for nearby
                # points, so the side of the edge is decided at their scale
                hit = ((y0 > py) != (y1 > py)) & (px - x0 < (py - y0) * dxdy)
            odd[at] = np.logical_xor.reduce(hit, axis=1)
            on_sample[at] = ((x0 == px) & (y0 == py)).any(axis=1)
        return odd, on_sample

    def _build_grid(self):
        """Square cells over the box, each in ``_state`` 0 or 1, the parity of a cell no edge comes near, or 2, one an edge does.

        Cells are about 8 per sample and no smaller than ``gap``, laid row
        after row from the box's lower left corner less ``reach``.  A cell is
        marked (2) when it meets an edge's box dilated by ``reach``, 1e-6
        plus 4096 ulps of the largest sample coordinate: the strip test's
        intercepts round by far less, so it decides a point outside every
        dilated box as the exact polygon does.  The map from a point to its
        cell is monotone in x and y, and the dilated boxes are marked through
        the same map, so a point placed in an unmarked cell is outside all of
        them.  A row's run of unmarked cells is then a rectangle that misses
        the polygon, and the strip test's parity at the centre of its first
        cell holds for all of it.
        """
        p, n = self.points, len(self.points)
        x0, x1, y0, y1 = self.box
        reach = 1e-6 + 4096 * np.spacing(max(-x0, x1, -y0, y1))
        self.side = side = max(self.gap, np.sqrt((x1 - x0) * (y1 - y0) / (8 * n)), reach)
        self.origin = (x0 - reach, y0 - reach)
        nx, ny = self.shape = (int(self._place(x1 + reach, 0)) + 1, int(self._place(y1 + reach, 1)) + 1)
        nxt = np.roll(p, -1)
        lo_x, hi_x, lo_y, hi_y = (
            self._place(f(a, b) + s, axis).astype(np.intp)
            for a, b, axis in ((p.real, nxt.real, 0), (p.imag, nxt.imag, 1))
            for f, s in ((np.minimum, -reach), (np.maximum, reach)))
        # a dilated box is at most gap + 2 reach <= 3 side wide, so it spans at most 4 cells a side
        free = np.ones(nx * ny, dtype=bool)
        for i in range(int(np.max(hi_x - lo_x)) + 1):
            for j in range(int(np.max(hi_y - lo_y)) + 1):
                free[((lo_y + j) * nx + lo_x + i)[(lo_x + i <= hi_x) & (lo_y + j <= hi_y)]] = False
        first = free.copy()  # the first cell of each run of unmarked cells in a row
        first[1:] &= ~free[:-1]
        first[::nx] = free[::nx]
        start = np.flatnonzero(first)
        parity = self._strip(self.origin[0] + (start % nx + 0.5) * side, self.origin[1] + (start // nx + 0.5) * side)[0]
        # uint8, read by `> 1` and a cast to bool: numpy loops the reports run anyway, so the
        # grid faults in no more numpy code (`== 1` on int8 would, 64 kB of it)
        self._state = np.full(nx * ny, 2, dtype=np.uint8)
        runs = np.flatnonzero(first[free])  # each run's first cell among the unmarked ones
        self._state[free] = np.repeat(parity, np.diff(runs, append=np.count_nonzero(free)))

    def _place(self, c, axis: int):
        """Grid coordinate of ``c`` along x (``axis`` 0) or y (1), the cell's index at its integer part."""
        return (c - self.origin[axis]) / self.side

    def _cells(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the points of ``z`` on the grid, and the state of each one's cell (``_build_grid``)."""
        if self._state is None:
            self._build_grid()
        u, v = self._place(z.real, 0), self._place(z.imag, 1)
        at = np.flatnonzero((u >= 0.0) & (u < self.shape[0]) & (v >= 0.0) & (v < self.shape[1]))  # NaN is off it
        return at, self._state[v[at].astype(np.intp) * self.shape[0] + u[at].astype(np.intp)]

    def crossings(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``Curve.crossings``: off the grid both False, in an unmarked cell ``odd`` its parity, else the strip test's."""
        odd, on_sample = np.zeros(len(z), dtype=bool), np.zeros(len(z), dtype=bool)
        at, state = self._cells(z)
        odd[at] = state  # a marked cell's 2 reads True until the strip test answers its points
        near = at[state > 1]
        if len(near):
            odd[near], on_sample[near] = self._strip(z.real[near], z.imag[near])
        return odd, on_sample

    def bounds(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distance from each point of ``z`` to the nearest block box, and the least distance to a block's farthest corner.

        Every sample lies in its block's box, so the first is a lower and the
        second an upper bound on the distance to the nearest sample.
        """
        box, corner = np.empty(len(z)), np.empty(len(z))
        for block in _blocks(len(z), len(self.starts)):
            near, far = _box_squares(z[block, None], *self.boxes)
            box[block], corner[block] = near.min(axis=1), far.min(axis=1)
        return np.sqrt(box), np.sqrt(corner)

    def least(self, z: np.ndarray, k: int) -> np.ndarray:
        """Indices of the ``k`` samples nearest each point of ``z``, in ``_least``'s order (ties to the lower index).

        A block of k samples or more has k within its box's farthest corner
        from z, so only the blocks no farther than the nearest such corner
        are measured, by ``np.abs(points - z)``.
        """
        out = np.empty((len(z), k), dtype=np.intp)
        for block in _blocks(len(z), len(self.starts)):
            box, corner = _box_squares(z[block, None], *self.boxes)
            reach = np.min(corner, axis=1, where=self.sizes >= k, initial=np.inf, keepdims=True)
            # squares keep their relative precision down to tiny, and a tiny square may keep no digits
            near = box <= reach * (1.0 + 2e-9) + np.finfo(float).tiny
            count = near @ self.sizes  # each row's candidate samples, which also bound the rows of a block
            for rows in _blocks(len(near), count.max()):
                # the candidates' samples, row after row and in order within a row
                row, run = np.nonzero(near[rows])
                size = self.sizes[run]
                row = np.repeat(row, size)
                sample = np.repeat(self.starts[run] - np.cumsum(size) + size, size) + np.arange(len(row))
                first = np.cumsum(count[rows]) - count[rows]
                v = np.full((len(first), count[rows].max()), np.inf)  # a row's unused tail stays infinite
                v[row, np.arange(len(row)) - first[row]] = np.abs(self.points[sample] - z[block][rows][row])
                out[block][rows] = sample[first[:, None] + _least(lambda r: v[r], len(first), v.shape[1], k)]
        return out


def _merged(t: np.ndarray, extra_params) -> np.ndarray:
    """The parameters ``t`` with those of ``extra_params``, read modulo 1, merged in: sorted, each once."""
    if extra_params is None:
        return t
    return np.unique(np.concatenate([t, np.ravel(extra_params) % 1.0]))


class ParamCurve(Curve):
    """Curve given by an explicit callable t -> complex point and its derivative ``deriv``, t -> d point / dt."""

    def __init__(self, func, deriv=None, n: int = 4096, extra_params=None):
        if not callable(deriv):
            raise ConfigError("a ParamCurve needs the derivative of its parameterisation")
        self.func = func
        self.deriv = deriv
        super().__init__(_merged(np.arange(n) / n, extra_params))

    def point(self, t):
        return self.func(np.asarray(t, dtype=float) % 1.0)

    def jet(self, t):
        t = np.asarray(t, dtype=float) % 1.0
        return self.func(t), self.deriv(t)


class CircleCurve(Curve):
    """Circle of given center/radius; orientation +1 (ccw) or -1 (cw)."""

    def __init__(self, center: complex, radius: float, orientation: int = 1, n: int = 2048):
        self.center = center = complex(center)
        self.radius = radius = float(radius)
        if not (np.isfinite(center) and np.isfinite(radius) and radius > 0):
            raise ConfigError(f"circle needs a finite centre and a finite positive radius, not {center!r}, {radius!r}")
        if isinstance(orientation, bool) or orientation not in (1, -1):
            raise ConfigError(f"circle orientation must be +1 or -1, not {orientation!r}")
        self.orientation = int(orientation)
        super().__init__(np.arange(n) / n)

    def _turn(self, t):
        return np.exp(1j * (2.0 * np.pi * (np.asarray(t, dtype=float) % 1.0) * self.orientation))

    def point(self, t):
        return self.center + self.radius * self._turn(t)

    def jet(self, t):
        e = self._turn(t)
        return self.center + self.radius * e, (2j * np.pi * self.orientation * self.radius) * e


class MappedCurve(Curve):
    """Pointwise image of another curve under a holomorphic map, ``deriv`` its derivative."""

    def __init__(self, base: Curve, mapping, deriv=None, extra_params=None):
        if not callable(deriv):
            raise ConfigError("a MappedCurve needs the derivative of its map")
        self.base = base
        self.mapping = mapping
        self.deriv = deriv
        super().__init__(_merged(base.params, extra_params))

    def point(self, t):
        return self.mapping(self.base.point(t))

    def jet(self, t):
        b, db = self.base.jet(t)
        return self.mapping(b), self.deriv(b) * db


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
        self._area = outer.signed_area()  # the sample polygons' area, each hole's signed area negative
        if self._area <= 0:
            raise ConfigError("outer curve must be positively oriented")
        for h in self.holes:
            hole_area = h.signed_area()
            if hole_area >= 0:
                raise ConfigError("hole curves must be negatively oriented")
            self._area += hole_area
            hp = h.points()
            odd, on_sample = outer.crossings(hp[:: max(1, len(hp) // 16)])
            if not np.all(odd & ~on_sample):
                raise ConfigError("hole not strictly inside the outer curve")
        for i, h in enumerate(self.holes):
            for g in self.holes[i + 1 :]:
                q = g.points()[::8]
                if np.any(h.points()[h._sample_index().least(q, 1)[:, 0]] == q):  # a sample of g is one of h's
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

    def boundary_distance(self, z) -> DomainPoint:
        """Distance from one interior point (a float ``d``) or from each point of an array (arrays).

        The nearest point is a zero of the slope Re(conj(q - z) q') of the
        squared distance, refined on every curve by one lockstep run of
        Brent's zero-finder; see ``_planar_distances``.
        """
        return _planar_distances([(self, z)])[0]

    def tangent_ball_radius(self, p, inward):
        """Radius of the largest disc in the domain tangent at the boundary point ``p`` with inward normal n = ``inward``.

        The shrinking-ball minimum of |q - p|^2 / (2 <q - p, n>) over boundary
        points q with <q - p, n> > 0 (Ma, Bae & Choi, Visual Computer 28, 2012):
        over the samples, then around each curve's four smallest sample ratios
        by one lockstep run of Brent's zero-finder on the sign of the ratio's
        derivative in the parameter (``_refine``).  Samples within 1e-3
        ``scale`` of p, where <q - p, n> has lost its digits, are left out.
        Batch-first like ``contains``; raises ``DomainError`` for a centre outside.
        """
        p, n = np.broadcast_arrays(np.asarray(p, dtype=complex), np.asarray(inward, dtype=complex))
        shape, p, n = p.shape, p.ravel(), n.ravel() / np.abs(n.ravel())
        near = (1e-3 * self.scale) ** 2

        def ratio(q, rows, dq=None):
            """The ratio at the curve points ``q``, and given their derivatives ``dq``, a slope of its sign."""
            w, nr = q - p[rows], n[rows]
            along = w.real * nr.real + w.imag * nr.imag
            sq = w.real * w.real + w.imag * w.imag
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where((along > 0.0) & (sq > near), sq / (2.0 * along), np.inf)
            if dq is None:
                return r
            # (sq / 2 along)' has the sign of 2 along Re(conj(w) dq) - sq <dq, n>, finite wherever q is
            return r, 2.0 * along * (w.real * dq.real + w.imag * dq.imag) - sq * (dq.real * nr.real + dq.imag * nr.imag)

        rows = np.arange(len(p))
        r = np.full(len(p), np.inf)
        curves, lanes = self.curves(), []  # each curve's windows (lo, hi) and their rows
        for curve in curves:
            t, q = curve.params, curve.points()
            k = min(4, len(t))
            best = _least(lambda block: ratio(q, rows[block, None]), len(p), len(t), k)
            r = np.minimum(r, ratio(q[best[:, 0]], rows))
            lanes.append((*_windows(curve, best.ravel()), np.repeat(rows, k)))
        fx, _, owner = _refine(curves, lanes, lambda q, dq, rows: ratio(q, rows, dq))
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
            k = curve._sample_index().least(p, 1)[:, 0]
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

    def _acceptance(self) -> float:
        """Share of the sampling box (``_interior_candidates``) inside the domain: the polygons' area over the box's."""
        x0, x1, y0, y1 = self.outer._sample_index().box
        return float(self._area / ((x1 - x0) * (y1 - y0)))

    def _interior_candidates(self, rng, count: int) -> np.ndarray:
        """Interior points among ``count`` uniform draws from the outer curve's bounding box.

        One draw is an (x, y) pair.
        """
        x0, x1, y0, y1 = self.outer._sample_index().box
        xy = rng.uniform((x0, y0), (x1, y1), size=(count, 2))
        z = xy.view(complex)[:, 0]  # each row read as x + iy, bit for bit
        return z[self.contains(z)]


def _brentq(f, a, b, fa, fb, xtol: float, rtol: float, maxiter: int) -> np.ndarray:
    """A zero of ``f`` in every bracket ``[a[j], b[j]]`` at once, one lane per bracket.

    ``fa`` and ``fb`` are the values at the ends, nonzero and of opposite
    signs.  Each lane takes the steps of scipy's ``brentq`` (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4), with the
    same operations in the same order (its branches become masks), so its
    zero has the same bits.  A lane that meets the stopping test is
    retired: its zero goes to the output and it leaves every state array.
    ``f(x, lanes)`` maps one abscissa per live lane to the values there,
    ``lanes`` holding the live lanes' indices in increasing order; it runs
    under the solver's ``np.errstate``.  Raises ``SolverError`` when a value
    is NaN or a lane still moves after ``maxiter`` evaluations.
    """
    xpre, xcur, fpre, fcur = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    x_out = np.empty_like(xpre)
    lanes = np.arange(len(xpre))
    xblk, fblk, spre, scur = (np.zeros_like(xpre) for _ in range(4))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(maxiter):
            flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            step = xcur - xpre
            spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)  # the end nearer zero becomes xcur
            xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
            delta = (xtol + rtol * np.abs(xcur)) / 2.0
            sbis = (xblk - xcur) / 2.0
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if done.any():  # retire the converged lanes
                x_out[lanes[done]] = xcur[done]
                live = ~done
                lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    v[live] for v in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))
            if not len(lanes):
                return x_out
            # inverse quadratic interpolation, or the secant step where xpre is the far end
            dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2.0 * np.abs(stry) < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)))
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0.0, delta, -delta))
            fcur = f(xcur, lanes)
            if np.isnan(fcur).any():
                raise SolverError("Brent zero-finder: a value is NaN inside a bracket")
    raise SolverError(f"Brent zero-finder: {len(lanes)} brackets unconverged after {maxiter} evaluations")


def _windows(curve: Curve, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter windows ``(lo, hi)`` about each sample index, neighbour to neighbour; one that wraps past t = 0 ends past 1."""
    t = curve.params
    lo = t[(samples - 1) % len(t)]
    return lo, lo + (t[(samples + 1) % len(t)] - lo) % 1.0


# The zero-finder's tolerances, on the offset s = t - lo in a window, where rtol adds next to
# nothing: 4 eps is the least relative tolerance scipy's brentq takes.  2^-53 is the spacing of
# parameters in [0.5, 1), which holds the image's cusp, so the least step, xtol / 2, moves t
# there by one or two spacings and a zero stops in a bracket under 3 spacings wide.  Measured on
# the counterexample's image points: xtol = 2^-52 took 9 passes, as steps of one spacing
# rounded back to the same t, and 3.5 * 2^-53 missed the least distance by 8e-13 relative.
# On t itself, rtol = 4 eps would leave the zero 6 spacings of 0.75 wide.
_XTOL = 3 * 2.0**-53
_RTOL = 4.0 * np.finfo(float).eps


def _refine(curves, windows, objective):
    """One lockstep run of the Brent zero-finder over the parameter windows of every curve.

    ``windows`` gives each curve's windows as arrays ``(lo, hi, rows)``,
    ``rows`` naming the point each window serves, and ``objective(q, dq,
    rows)`` maps curve points ``q`` and their derivatives ``dq`` in t, with
    their windows' rows, to values and to slopes of the sign of the values'
    derivative in t.  One pass evaluates every window's two ends, the far
    one at the parameter just below it: ``jet`` reads a corner's derivative
    from above, so the slope at each end is the one inside the window.  A
    window whose slope goes from negative to positive brackets a minimum,
    and ``_brentq`` finds it as a zero of the slope; each curve is evaluated
    on its live brackets only.  Returns, for each window, the least value
    among its ends (ties to the first) and, where it brackets, its point of
    least |slope| evaluated, the zero (ties to the zero, whose value is flat
    to rounding over many spacings of t), then the curve points where they
    are taken and ``rows``, each concatenated curve after curve.  Raises
    ``SolverError`` when a curve point is NaN.
    """
    lo, hi, rows = (np.concatenate(x) for x in zip(*windows))
    cuts = np.cumsum([0] + [len(x[0]) for x in windows])

    def jets(s, lanes):  # at t = lo + s; ``jet`` reads t modulo 1, so a window may pass t = 1
        at = np.searchsorted(lanes, cuts)  # live lanes keep their order, so each curve's lie between its cuts
        t = (lo[lanes] + s.T).T
        q, dq = np.empty(t.shape, dtype=complex), np.empty(t.shape, dtype=complex)
        for c, i, j in zip(curves, at, at[1:]):
            if i < j:
                q[i:j], dq[i:j] = c.jet(t[i:j])
        return q, dq

    lanes, width = np.arange(len(lo)), np.nextafter(hi, lo) - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as at a cusp, where a slope may be NaN
        q, dq = jets(np.stack([np.zeros_like(width), width], axis=1), lanes)
        value, slope = objective(q, dq, rows[:, None])
        if np.isnan(value).any():
            raise SolverError("a curve point is NaN at a window's end")
        end = (value[:, 1] < value[:, 0]).astype(np.intp)
        best, nearest = value[lanes, end], q[lanes, end]
        bracket = np.flatnonzero((slope[:, 0] < 0.0) & (slope[:, 1] > 0.0))
        flat, zero_value, zero = np.full(len(bracket), np.inf), np.full(len(bracket), np.inf), q[bracket, 0]

        def f(s, live):  # the slopes, keeping each bracket's point of least |slope| so far
            q, dq = jets(s, bracket[live])
            v, g = objective(q, dq, rows[bracket[live]])
            closer = np.abs(g) <= flat[live]  # ties to the later point
            at = live[closer]
            flat[at], zero_value[at], zero[at] = np.abs(g[closer]), v[closer], q[closer]
            return g

        _brentq(f, np.zeros(len(bracket)), width[bracket], slope[bracket, 0], slope[bracket, 1], _XTOL, _RTOL, 100)
        inner = zero_value <= best[bracket]
        best[bracket[inner]], nearest[bracket[inner]] = zero_value[inner], zero[inner]
    return best, nearest, rows


def _planar_distances(queries) -> list[DomainPoint]:
    """``PlanarDomain.boundary_distance`` of each ``(domain, points)`` query, all refined in one run.

    Every query is checked first: a point outside its domain raises
    ``DomainError``.  A coarse scan then picks each point's four nearest
    samples on every curve of its domain, and the parameter windows about
    them, on every curve of every query, are refined by one lockstep run of
    Brent's zero-finder on the slope Re(conj(q - z) q') of the squared
    distance (``_refine``).  The nearest point is the first strict minimum
    in curve order, then in window order.  Each query gets the bits it
    would get alone.

    A curve is neither scanned nor refined for a point whose nearest point
    it cannot hold.  Assuming the scan's resolution, that the curve between
    a sample's neighbours stays within 2 gap of it (gap: the curve's largest
    step between samples), every value on curve c is at least the distance
    to its nearest block box (``_SampleIndex.bounds``) less 2 gap_c.  The
    lane about a curve's nearest sample evaluates that sample's neighbours,
    so it ends at most gap above that sample's distance.  That distance is
    at most the least distance to a block's farthest corner, which bounds
    every curve before any is scanned.  A curve whose lower bound exceeds,
    by a relative 1e-9, the least of these upper bounds plus 2 gap, or the
    nearest sample's distance plus 2 gap on a curve scanned before it, is
    left out, the outer curve too; lanes are independent, so every bit
    stays.
    """
    flats = []
    for dom, z in queries:
        flat = np.asarray(z, dtype=complex).ravel()
        inside = dom.contains(flat)
        if not inside.all():
            bad = complex(flat[np.argmin(inside)])
            gap = min(np.min(np.abs(c.points() - bad)) for c in dom.curves())
            raise DomainError(f"point {bad} is not interior (boundary gap {gap:.3e})")
        flats.append(flat)
    flat = np.concatenate(flats)  # every query's points, query after query

    def sq_dist(q, dq, rows):  # the squared distance and half its derivative, Re(conj(q - z) dq)
        w = q - flat[rows]
        return w.real * w.real + w.imag * w.imag, w.real * dq.real + w.imag * dq.imag

    curves, windows, base = [], [], 0
    for (dom, _), z in zip(queries, flats):
        indices = [curve._sample_index() for curve in dom.curves()]
        bounds = [index.bounds(z) for index in indices]
        reach = np.min([far + 2.0 * index.gap for index, (_, far) in zip(indices, bounds)], axis=0)
        for c, (curve, index, (box, _)) in enumerate(zip(dom.curves(), indices, bounds)):
            near = np.flatnonzero(box - 2.0 * index.gap <= reach * (1.0 + 1e-9))
            if c and not len(near):  # a hole no point needs; the outer curve always runs, even for no points
                continue
            closest = index.least(z[near], min(4, len(curve.params)))
            reach[near] = np.minimum(reach[near], np.abs(curve.points()[closest[:, 0]] - z[near]) + 2.0 * index.gap)
            curves.append(curve)
            windows.append((*_windows(curve, closest.ravel()), base + np.repeat(near, closest.shape[1])))
        base += len(z)
    _, w, owner = _refine(curves, windows, sq_dist)
    dw = w - flat[owner]
    d = np.hypot(dw.real, dw.imag)  # the scalar abs; numpy's vectorised one can differ in the last bit
    # lanes come curve after curve, point after point, window after window, so a stable sort
    # by point, then distance, puts each point's first strict minimum first
    order = np.lexsort((d, owner))
    best = order[np.searchsorted(owner[order], np.arange(len(flat)))]
    split = np.cumsum([len(z) for z in flats])[:-1]
    out = []
    for (_, z), dq, nq in zip(queries, np.split(d[best], split), np.split(w[best], split)):
        z = np.asarray(z, dtype=complex)
        if z.ndim == 0:
            out.append(DomainPoint(z=complex(z), d=float(dq[0]), nearest=nq[0]))
        else:
            out.append(DomainPoint(z=z, d=dq.reshape(z.shape), nearest=nq.reshape(z.shape)))
    return out


def boundary_distance(dom, z, *more):
    """Euclidean distance from an interior point, or from each point of an array, to the boundary of ``dom``.

    Further ``(domain, points)`` pairs are answered in the same lockstep
    zero-finder run, each with the bits of its own call, and the result is then
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

    def as_point(self, z) -> np.ndarray:
        return np.atleast_1d(np.asarray(z, dtype=complex))

    def contains(self, z):
        """``sum_j w_j |z_j|^2 < 1`` at one point ``(n,)`` (a bool) or at each row of ``(m, n)`` (a bool array).

        A non-finite point is outside.
        """
        inside = np.add.reduce(self.w * np.abs(np.asarray(z, dtype=complex)) ** 2, axis=-1) < 1.0
        return bool(inside) if inside.ndim == 0 else inside

    def _acceptance(self) -> float:
        """Share of the sampling box (``_interior_candidates``) inside the domain, pi^n / (n! 4^n) for every ``w``."""
        return math.pi**self.dim / (math.factorial(self.dim) * 4**self.dim)

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
        if sphere.any():
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
    """``value`` as an int; ``ConfigError`` unless it is an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
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
        out = np.empty(t.shape, dtype=complex)
        arc = t < 0.5  # right-side graph, bottom to top (ccw)
        y = 4.0 * Y * t[arc] - Y
        out[arc] = _lens_profile(y) + 1j * y
        y = 3.0 * Y - 4.0 * Y * t[~arc]  # axis segment, top to bottom
        out[~arc] = 1j * y
        return out

    def tangent(t):  # d outer / dt: 4Y (dx/dy + i) on the graph, dx/dy = -2y Y^2 x / (Y^2 - y^2)^2, and -4Yi on the segment
        y = 4.0 * Y * t - Y
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # where |y| >= Y, masked below
            gap = Y * Y - y * y
            slope = -2.0 * y * (Y * Y) * (_LENS_WIDTH * np.exp(-y * y / gap)) / (gap * gap)
        slope = np.where((t < 0.5) & (np.abs(y) < Y), slope, 0.0)
        return np.where(t < 0.5, 4.0 * Y * (slope + 1j), -4.0j * Y)

    dt = _CUSP_STEPS
    extra = np.concatenate([0.75 + dt, 0.75 - dt, 0.25 + dt / 2, 0.25 - dt / 2])
    outer_curve = ParamCurve(outer, tangent, n=_LENS_SAMPLES, extra_params=extra)
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
    return _log_plus_one(z)


def _log_plus_one(z):
    """``phi_deriv`` without its check: at 0, where the derivative is unbounded, -inf, with numpy's warning."""
    return np.log(z) + 1.0


def build_omega(omega_prime: PlanarDomain) -> PlanarDomain:
    """Image domain under z log z, boundary refined near the origin image."""
    if omega_prime.connectivity != 2:
        raise ConfigError("expected a doubly connected half-plane domain")
    # the image's cusp is the image of the lens's origin
    extra = np.concatenate([0.75 + _CUSP_STEPS, 0.75 - _CUSP_STEPS])
    # at the cusp the chain rule gives a NaN slope, which brackets no minimum
    outer = MappedCurve(omega_prime.outer, phi_map, _log_plus_one, extra_params=extra)
    holes = [MappedCurve(h, phi_map, _log_plus_one) for h in omega_prime.holes]
    return PlanarDomain(outer, holes, name="omega_zlogz")


# ---------------------------------------------------------------------------
# presets and serialization


def disc() -> PlanarDomain:
    return PlanarDomain(CircleCurve(0.0, 1.0, orientation=1), [], name="disc")


def annulus(modulus: float, center: complex = 0.0, scale: float = 1.0) -> PlanarDomain:
    if not 0.0 < modulus < 1.0:
        raise ConfigError("annulus modulus must lie in (0, 1)")
    outer = CircleCurve(center, scale, orientation=1)
    inner = CircleCurve(center, scale * modulus, orientation=-1)
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
        try:
            modulus = float(name.split("_", 1)[1])
        except ValueError:
            raise ConfigError(f"preset {name!r} has no annulus modulus") from None
        return annulus(modulus)
    raise ConfigError(f"unknown preset {name!r}")


def random_interior_points(dom, count: int, seed: int = 0) -> np.ndarray:
    """Rejection-sampled interior points (planar: complex; defining: C^n rows).

    The first round draws a tenth more candidates than the domain's
    acceptance rate (``_acceptance``: the share of its sampling box inside
    it) predicts, and each later one enough for the points still missing at
    the rate seen so far; no round draws more than 64 per point.  The
    generator draws its stream in order and the first accepted candidates
    are kept, so the points are those a one-candidate-at-a-time loop would
    return.
    """
    count = _integer(count, "point count", 0)
    rng = np.random.default_rng(seed)
    drawn = int(1.1 * count / max(dom._acceptance(), 1.1 / 64))
    points = dom._interior_candidates(rng, drawn)
    while len(points) < count:
        missing = count - len(points)
        # a quarter more than the rate predicts, and at most 64 draws per missing point
        size = int(1.25 * missing * drawn / max(len(points), drawn / 64)) + 8
        points = np.concatenate([points, dom._interior_candidates(rng, size)])
        drawn += size
    return points[:count]
