"""Bounded domains: planar curve-bounded regions and defining-function regions.

Planar domains carry analytic boundary parameterizations (with cached
samples) so boundary distances can be refined far below the sample
resolution; this matters for the z log z image domain, whose geometry near
the origin lives at scales of 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ConfigError, DomainError

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
    """Interior point with its boundary distance and a nearest boundary point."""

    z: complex | np.ndarray
    d: float
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

    def boundary_gap(self, z):
        """Unsigned distance from z (one point or an array) to the nearest boundary sample (coarse)."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        samples = np.concatenate([c.points() for c in self.curves()])
        gap = np.empty(flat.shape)
        step = max(1, _CHUNK // len(samples))
        for s in range(0, len(flat), step):
            gap[s : s + step] = np.min(np.abs(samples - flat[s : s + step, None]), axis=1)
        return float(gap[0]) if z.ndim == 0 else gap.reshape(z.shape)

    def boundary_distance(self, z) -> DomainPoint:
        """Coarse scan over the curve samples, then Brent refinement on the parameterization."""
        z = complex(z)
        if not self.contains(z):
            gap = self.boundary_gap(z)
            raise DomainError(f"point {z} is not interior (boundary gap {gap:.3e})")
        d, nearest = min((_curve_distance(c, z) for c in self.curves()), key=lambda c: c[0])
        return DomainPoint(z=z, d=float(d), nearest=nearest)

    def inward_normal(self, p) -> complex:
        """Inward unit normal at a boundary point, from the deepest of 128 probes around it."""
        theta = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
        probes = complex(p) + (1e-4 * self.scale) * np.exp(1j * theta)
        deepest = max((boundary_distance(self, q) for q in probes[self.contains(probes)]),
                      key=lambda bp: bp.d, default=None)
        if deepest is None:
            raise DomainError("no interior direction found at the boundary point")
        return _unit(deepest.z - deepest.nearest)

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
        return inner[self.boundary_gap(inner) > 1e-6]


def _refine_on_curve(curve: Curve, z: complex, t_lo: float, t_hi: float) -> tuple[float, complex]:
    """Brent refinement of min_t |curve(t) - z| on [t_lo, t_hi]."""

    def obj(t):
        w = curve.point(np.array([t]))[0] - z
        return w.real * w.real + w.imag * w.imag

    res = minimize_scalar(obj, bounds=(t_lo, t_hi), method="bounded",
                          options={"xatol": 1e-15, "maxiter": 400})
    t = float(res.x)
    w = curve.point(np.array([t]))[0]
    return abs(w - z), w


def _curve_distance(curve: Curve, z: complex) -> tuple[float, complex]:
    pts = curve.points()
    t = curve.params
    d2 = np.abs(pts - z)
    order = np.argsort(d2)[:4]
    best = (np.inf, None)
    n = len(t)
    for i in order:
        lo = t[(i - 1) % n]
        hi = t[(i + 1) % n]
        if hi < lo:  # wrapped window
            for a, b in ((lo, 1.0 + t[(i + 1) % n]), (lo - 1.0, hi)):
                cand = _refine_on_curve(curve, z, a, b)
                if cand[0] < best[0]:
                    best = cand
        else:
            cand = _refine_on_curve(curve, z, lo, hi)
            if cand[0] < best[0]:
                best = cand
    return best


def boundary_distance(dom, z) -> DomainPoint:
    """Euclidean distance from an interior point to the boundary of ``dom``.

    The library asks every domain through this function rather than the
    method, so that a wrapper installed here (``perfbench/tracing.py``)
    sees every distance query.
    """
    return dom.boundary_distance(z)


# ---------------------------------------------------------------------------
# defining-function domains


class DefiningFunctionDomain:
    """Region {rho < 0} in C^n with a smooth defining function."""

    def __init__(self, rho, grad, bbox_radius: float, dim: int, name: str = "",
                 witness=None, exact_distance=None, params=None):
        self.rho = rho
        self.grad = grad
        self.bbox_radius = float(bbox_radius)
        self.dim = int(dim)
        self.name = name
        # keyword arguments that rebuild this domain with ``preset(name, **params)``
        self.params = dict(params or {})
        self.witness = np.zeros(dim, dtype=complex) if witness is None else np.asarray(witness, dtype=complex)
        self.exact_distance = exact_distance
        if self.rho(self.witness) >= 0:
            raise ConfigError("interior witness point has rho >= 0")

    @property
    def scale(self) -> float:
        return self.bbox_radius

    def as_point(self, z) -> np.ndarray:
        return np.atleast_1d(np.asarray(z, dtype=complex))

    def contains(self, z):
        """``rho < 0`` at one point ``(n,)`` (a bool) or at each row of ``(m, n)`` (a bool array)."""
        inside = self.rho(np.asarray(z, dtype=complex)) < 0
        return bool(inside) if np.ndim(inside) == 0 else inside

    def inward_normal(self, p) -> np.ndarray:
        return -_unit(self.grad(self.as_point(p)))

    def to_spec(self) -> dict:
        return {"kind": "defining", "rho": self.name, "bbox": [self.bbox_radius], "dim": self.dim,
                "params": dict(self.params)}

    def _interior_candidates(self, rng, count: int) -> np.ndarray:
        """Interior points among ``count`` uniform draws from the cube [-bbox, bbox]^(2 dim).

        One draw is the real parts, then the imaginary parts, of one point.
        """
        xy = rng.uniform(-self.bbox_radius, self.bbox_radius, size=(count, 2 * self.dim))
        z = xy[:, : self.dim] + 1j * xy[:, self.dim :]
        return z[self.contains(z)]

    def _project_newton(self, z: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """Newton on the nearest-point conditions x-z = lam*grad, rho(x)=0."""
        n = self.dim

        def pack(x):
            return np.concatenate([x.real, x.imag])

        def unpack(v):
            return v[:n] + 1j * v[n:]

        x = x0.copy()
        g = self.grad(x)
        lam = float(np.real(np.vdot(pack(self.grad(x)), pack(x - z))) /
                    max(np.vdot(pack(g), pack(g)).real, 1e-30))

        def F(v):
            x = unpack(v[:-1])
            lam = v[-1]
            g = self.grad(x)
            top = pack(x - z) - lam * pack(g)
            return np.concatenate([top, [self.rho(x)]])

        v = np.concatenate([pack(x), [lam]])
        for _ in range(60):
            f = F(v)
            if np.max(np.abs(f)) < 1e-13:
                break
            # finite-difference Jacobian; the system is tiny
            m = len(v)
            J = np.empty((m, m))
            h = 1e-7
            for j in range(m):
                vp = v.copy()
                vp[j] += h
                J[:, j] = (F(vp) - f) / h
            try:
                step = np.linalg.solve(J, -f)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(J, -f, rcond=None)
            v = v + step
        return unpack(v[:-1])

    def boundary_distance(self, z) -> DomainPoint:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if self.rho(z) >= 0:
            raise DomainError(f"point not interior: rho(z) = {float(self.rho(z)):.6g} >= 0")
        if self.exact_distance is not None:
            d, nearest = self.exact_distance(z)
            return DomainPoint(z=z, d=float(d), nearest=nearest)
        # Newton from several outward rays; the nearest-point conditions have
        # spurious stationary points (e.g. the far end of an axis), so keep
        # the closest converged candidate.
        directions = [z - self.witness]
        for j in range(self.dim):
            for s in (1.0, -1.0, 1.0j, -1.0j):
                e = np.zeros(self.dim, dtype=complex)
                e[j] = s
                directions.append(e)
        rng = np.random.default_rng(7)
        for _ in range(4):
            v = rng.normal(size=2 * self.dim)
            directions.append(v[: self.dim] + 1j * v[self.dim:])
        best = None
        for direction in directions:
            nrm = np.linalg.norm(direction)
            if nrm < 1e-14:
                continue
            direction = direction / nrm
            lo, hi = 0.0, 2.0 * self.bbox_radius
            if self.rho(z + hi * direction) < 0:
                continue
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if self.rho(z + mid * direction) < 0:
                    lo = mid
                else:
                    hi = mid
            x0 = z + 0.5 * (lo + hi) * direction
            x = self._project_newton(z, x0)
            if abs(self.rho(x)) > 1e-8:
                continue
            d = float(np.linalg.norm(x - z))
            if best is None or d < best[0]:
                best = (d, x)
        if best is None:
            raise DomainError("nearest-point solve failed from every start direction")
        return DomainPoint(z=z, d=best[0], nearest=best[1])


def ball(dim: int = 2) -> DefiningFunctionDomain:
    """Unit ball of C^dim."""

    def rho(z):
        return float(np.sum(np.abs(z) ** 2) - 1.0) if np.ndim(z) == 1 else np.sum(np.abs(z) ** 2, axis=-1) - 1.0

    def grad(z):
        return 2.0 * np.asarray(z, dtype=complex)

    def exact(z):
        nz = np.linalg.norm(z)
        if nz == 0:
            nearest = np.zeros(dim, dtype=complex)
            nearest[0] = 1.0
            return 1.0, nearest
        return 1.0 - nz, z / nz

    return DefiningFunctionDomain(rho, grad, bbox_radius=1.0, dim=dim, name="ball",
                                  exact_distance=exact, params={"dim": dim})


def ellipsoid(b: float = 1.0 / np.sqrt(2.0), dim: int = 2) -> DefiningFunctionDomain:
    """Ellipsoid {|z1|^2 + |z2|^2/b^2 + ... < 1}, contained in the ball for b < 1."""
    w = np.ones(dim)
    w[1:] = 1.0 / b**2

    def rho(z):
        z = np.asarray(z, dtype=complex)
        return np.sum(w * np.abs(z) ** 2, axis=-1) - 1.0

    def grad(z):
        return 2.0 * w * np.asarray(z, dtype=complex)

    return DefiningFunctionDomain(rho, grad, bbox_radius=1.0, dim=dim, name="ellipsoid",
                                  params={"b": float(b), "dim": dim})


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
        return preset(spec["rho"], **spec.get("params", {}))
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
