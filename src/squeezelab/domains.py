"""Bounded domains: planar curve-bounded regions and defining-function regions.

Planar domains carry analytic boundary parameterizations (with cached
samples) so boundary distances can be refined far below the sample
resolution; this matters for the z log z image domain, whose geometry near
the origin lives at scales of 1e-9.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    "contains",
    "build_omega_prime",
    "build_omega",
    "phi_map",
    "phi_deriv",
    "disc",
    "annulus",
    "ball",
    "ellipsoid",
    "preset",
    "domain_to_spec",
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

    def point(self, t):
        raise NotImplementedError

    @property
    def params(self) -> np.ndarray:
        return self._params

    def points(self) -> np.ndarray:
        if self._points is None:
            self._points = self.point(self._params)
        return self._points

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
        self.center = complex(center)
        self.radius = float(radius)
        self.orientation = int(orientation)

        def f(t):
            ang = 2.0 * np.pi * t * self.orientation
            return self.center + self.radius * np.exp(1j * ang)

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


def _winding(points: np.ndarray, z: complex) -> float:
    w = points - z
    if np.any(w == 0):  # z sits on a sample; treat as non-interior
        return 0.0
    ang = np.angle(np.roll(w, -1) / w)
    return float(np.sum(ang) / (2.0 * np.pi))


class PlanarDomain:
    """Bounded planar domain: one outer curve and zero or more holes."""

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
            if not np.all([_winding(outer.points(), p) > 0.5 for p in hp[:: max(1, len(hp) // 16)]]):
                raise ConfigError("hole not strictly inside the outer curve")
        for i, h in enumerate(self.holes):
            for g in self.holes[i + 1 :]:
                dmin = np.min(np.abs(h.points()[:, None] - g.points()[None, ::8]))
                if dmin <= 0:
                    raise ConfigError("holes intersect")

    @property
    def connectivity(self) -> int:
        return 1 + len(self.holes)

    def curves(self):
        return [self.outer] + self.holes

    def contains(self, z: complex, tol: float = 0.0) -> bool:
        z = complex(z)
        if tol > 0 and self.boundary_gap(z) < tol:
            return False
        if abs(round(_winding(self.outer.points(), z)) - 1) > 0.25:
            return False
        for h in self.holes:
            if abs(round(_winding(h.points(), z))) > 0.25:
                return False
        return True

    def boundary_gap(self, z: complex) -> float:
        """Unsigned distance from z to the sampled boundary (coarse)."""
        return min(float(np.min(np.abs(c.points() - z))) for c in self.curves())

    def interior_point(self) -> complex:
        p = self.outer.points()
        c = np.mean(p)
        if self.contains(c):
            return complex(c)
        # fall back: scan a grid inside the bounding box
        lo, hi = p.real.min(), p.real.max()
        lo2, hi2 = p.imag.min(), p.imag.max()
        for x in np.linspace(lo, hi, 41)[1:-1]:
            for y in np.linspace(lo2, hi2, 41)[1:-1]:
                if self.contains(complex(x, y)):
                    return complex(x, y)
        raise DomainError("could not locate an interior point")


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
    """Euclidean distance from an interior point to the domain boundary.

    Planar: coarse scan over curve samples plus Brent refinement on the
    analytic parameterization.  Defining-function: Newton iteration on the
    first-order conditions of the nearest-point problem.
    """
    if isinstance(dom, PlanarDomain):
        z = complex(z)
        if not dom.contains(z):
            gap = dom.boundary_gap(z)
            raise DomainError(f"point {z} is not interior (boundary gap {gap:.3e})")
        best = (np.inf, None)
        for c in dom.curves():
            cand = _curve_distance(c, z)
            if cand[0] < best[0]:
                best = cand
        return DomainPoint(z=z, d=float(best[0]), nearest=best[1])
    if isinstance(dom, DefiningFunctionDomain):
        return dom.boundary_distance(z)
    raise ConfigError(f"unsupported domain type {type(dom)!r}")


def contains(dom, z) -> bool:
    if isinstance(dom, PlanarDomain):
        return dom.contains(complex(z))
    if isinstance(dom, DefiningFunctionDomain):
        return dom.contains(z)
    raise ConfigError(f"unsupported domain type {type(dom)!r}")


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

    def contains(self, z, tol: float = 0.0) -> bool:
        return bool(self.rho(np.asarray(z, dtype=complex)) < -tol)

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
    dom = PlanarDomain(outer, holes, smoothness="C1", name="omega_zlogz")
    dom.preimage = omega_prime
    return dom


# ---------------------------------------------------------------------------
# presets and serialization


def disc(n: int = 2048) -> PlanarDomain:
    return PlanarDomain(CircleCurve(0.0, 1.0, orientation=1, n=n), [], smoothness="Cinf", name="disc")


def annulus(modulus: float, center: complex = 0.0, scale: float = 1.0, n: int = 2048) -> PlanarDomain:
    if not 0.0 < modulus < 1.0:
        raise ConfigError("annulus modulus must lie in (0, 1)")
    outer = CircleCurve(center, scale, orientation=1, n=n)
    inner = CircleCurve(center, scale * modulus, orientation=-1, n=n)
    dom = PlanarDomain(outer, [inner], smoothness="Cinf", name=f"annulus_{modulus}")
    dom.modulus_exact = modulus
    return dom


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


def domain_to_spec(dom) -> dict:
    if isinstance(dom, PlanarDomain):
        return {
            "kind": "planar",
            "outer": [[float(p.real), float(p.imag)] for p in dom.outer.points()],
            "holes": [[[float(p.real), float(p.imag)] for p in h.points()] for h in dom.holes],
            "smoothness": {"Cinf": "Cinf", "C2": "C2", "C1": "C1"}[dom.smoothness],
        }
    if isinstance(dom, DefiningFunctionDomain):
        return {"kind": "defining", "rho": dom.name, "bbox": [dom.bbox_radius], "dim": dom.dim,
                "params": dict(dom.params)}
    raise ConfigError(f"unsupported domain type {type(dom)!r}")


def domain_from_spec(spec: dict):
    if spec["kind"] == "planar":
        outer = PolylineCurve([complex(a, b) for a, b in spec["outer"]])
        holes = [PolylineCurve([complex(a, b) for a, b in h]) for h in spec.get("holes", [])]
        return PlanarDomain(outer, holes, smoothness=spec.get("smoothness", "C2"))
    if spec["kind"] == "defining":
        return preset(spec["rho"], **spec.get("params", {}))
    raise ConfigError(f"unknown domain kind {spec.get('kind')!r}")


def load_domain(path: str):
    with open(path) as fh:
        return domain_from_spec(json.load(fh))


def random_interior_points(dom, count: int, seed: int = 0) -> np.ndarray:
    """Rejection-sampled interior points (planar: complex; defining: C^n rows)."""
    rng = np.random.default_rng(seed)
    out = []
    if isinstance(dom, PlanarDomain):
        p = dom.outer.points()
        lo, hi = p.real.min(), p.real.max()
        lo2, hi2 = p.imag.min(), p.imag.max()
        while len(out) < count:
            z = complex(rng.uniform(lo, hi), rng.uniform(lo2, hi2))
            if dom.contains(z) and dom.boundary_gap(z) > 1e-6:
                out.append(z)
        return np.array(out)
    while len(out) < count:
        z = rng.uniform(-dom.bbox_radius, dom.bbox_radius, size=2 * dom.dim)
        z = z[: dom.dim] + 1j * z[dom.dim :]
        if dom.contains(z):
            out.append(z)
    return np.array(out)
