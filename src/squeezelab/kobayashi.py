"""Upper bounds for the Kobayashi distance on bounded domains.

The infinitesimal metric is bounded above by the Poincare metric of any
analytic disc through the point; we use affine discs inside the domain,
improved by a two-sided chord construction, and integrate along explicit
paths.  The terminal approach to a smooth boundary point is evaluated in
closed form against an interior tangent ball, which isolates the
(1/2) log(1/d) leading term analytically instead of through quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import kobayashi_ball
from .domains import _unit, boundary_distance, random_interior_points
from .errors import ConfigError, DomainError

__all__ = [
    "PathSpec",
    "DistanceBound",
    "infinitesimal_upper",
    "distance_upper",
    "lemma_log_bound_verify",
    "inclusion_monotonicity_check",
    "tangent_ball_radius",
    "exact_disc_distance",
    "slit_disc_distance",
]


# ---------------------------------------------------------------------------
# path plumbing


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-linear path description inside a domain.

    ``waypoints`` are the interior nodes between the two endpoints of
    ``distance_upper``.  When ``terminal_normal`` is set, the last segment
    must run along the inward normal of a boundary point and is integrated
    in closed form.
    """

    waypoints: tuple = ()
    terminal_normal: bool = False
    refinement: int = 64

    def __post_init__(self):
        if self.refinement < 2:
            raise ConfigError("refinement must be at least 2")


@dataclass(frozen=True)
class DistanceBound:
    """A certified Kobayashi distance bound with its per-segment makeup."""

    value: float
    kind: str  # "upper" or "exact"
    decomposition: tuple = ()
    quad_error: float = 0.0


def _pt_diff_norm(a, b):
    return float(np.linalg.norm(np.atleast_1d(np.asarray(a - b))))


# ---------------------------------------------------------------------------
# affine analytic discs


def _ray_exit(dom, z, v, r_cap: float) -> float:
    """Largest t with the segment {z + s v : 0 <= s < t} inside dom."""
    t = min(max(boundary_distance(dom, z).d, 1e-14), r_cap)
    while t < r_cap and dom.contains(z + t * v):
        t *= 2.0
    hi = min(t, r_cap)
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dom.contains(z + mid * v):
            lo = mid
        else:
            hi = mid
    return lo


# unit roots pulled 1e-12 inside the circle: the sampled circle of each disc check
_CIRCLE = {n: np.exp(2j * np.pi * np.arange(n) / n) * (1.0 - 1e-12) for n in (64, 128)}


def _certified_disc_scale(dom, center, v, radius: float) -> float:
    """Largest shrink factor whose disc {center + zeta v, |zeta|<radius} passes the circle samples."""

    def circle_inside(r: float, samples: int) -> bool:
        return bool(np.all(dom.contains(center + np.multiply.outer(r * _CIRCLE[samples], v))))

    if circle_inside(radius, 64) and circle_inside(radius, 128):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if circle_inside(mid * radius, 128):
            lo = mid
        else:
            hi = mid
    return lo


def infinitesimal_upper(dom, z, v) -> float:
    """Upper bound for the infinitesimal Kobayashi metric at z in direction v.

    Uses the Poincare metric of the largest affine disc through z in the
    complex line z + C v that passes the sampled circle check: first the
    disc whose diameter is the chord of the line through z (exact for
    convex slices), shrunk until its sampled circle lies inside, with the
    boundary-distance disc as the final fallback.
    """
    z = dom.as_point(z)
    if not dom.contains(z):
        raise DomainError("base point of the disc is not interior")
    v = dom.as_point(v)
    vhat = _unit(v)
    speed = float(np.linalg.norm(np.atleast_1d(v)))
    r_cap = 4.0 * dom.scale

    rp = _ray_exit(dom, z, vhat, r_cap)
    rm = _ray_exit(dom, z, -vhat, r_cap)
    d0 = boundary_distance(dom, z).d
    if rp <= 0 or rm <= 0:
        return speed / max(d0, 1e-300)

    center = z + (0.5 * (rp - rm)) * vhat
    radius = 0.5 * (rp + rm)
    scale = _certified_disc_scale(dom, center, vhat, radius)
    off = 0.5 * abs(rp - rm)
    if scale * radius <= off + 1e-15:
        # chord disc not certifiable around z; fall back to the centered disc
        center, radius, off = z, min(rp, rm, d0), 0.0
        scale = _certified_disc_scale(dom, center, vhat, radius)
        radius *= max(scale, 1e-15)
    else:
        radius *= scale
    return speed * radius / (radius * radius - off * off)


# ---------------------------------------------------------------------------
# integrated bounds


def _segment_bound(dom, a, b, refinement: int) -> tuple[float, float]:
    """Trapezoid integral of the disc bound along [a, b] with refinement control."""
    length = _pt_diff_norm(a, b)
    if length == 0:
        return 0.0, 0.0
    direction = _unit(b - a)

    cache = {}

    def kappa(s: float) -> float:
        if s not in cache:
            cache[s] = infinitesimal_upper(dom, a + s * (b - a), direction)
        return cache[s]

    m = refinement
    val = None
    for _ in range(5):
        s = np.linspace(0.0, 1.0, m + 1)
        f = np.array([kappa(float(x)) for x in s])
        new = float(np.trapezoid(f, s) * length)
        if val is not None and abs(new - val) <= 1e-4 * max(abs(new), 1e-12):
            return new, abs(new - val)
        prev, val = val, new
        m *= 2
    return val, abs(val - prev)


def _terminal_closed_form(dom, anchor, b) -> tuple[float, dict]:
    """Closed-form disc integral for the normal approach to the boundary.

    Inside an interior tangent ball of radius R0 at the nearest boundary
    point of b, the chord disc at normal depth t has the two-sided radii
    (t, 2 R0 - t), so the integral of the disc bound from depth d to depth
    delta0 is (1/2) log(delta0 (2 R0 - d) / (d (2 R0 - delta0))).
    """
    bp = boundary_distance(dom, b)
    d = bp.d
    inward = _unit(b - bp.nearest)
    delta0 = _pt_diff_norm(anchor, bp.nearest)
    seg_dir = _unit(anchor - b)
    align = abs(np.vdot(np.atleast_1d(np.asarray(seg_dir)), np.atleast_1d(np.asarray(inward))))
    if abs(align - 1.0) > 1e-6:
        raise DomainError("terminal segment is not aligned with the inward normal")
    r0 = tangent_ball_radius(dom, bp.nearest, inward)
    if delta0 > r0 * (1.0 + 1e-9):
        raise DomainError(
            f"terminal segment depth {delta0:.3e} exceeds the tangent ball radius {r0:.3e}"
        )
    value = 0.5 * np.log(delta0 * (2.0 * r0 - d) / (d * (2.0 * r0 - delta0)))
    return float(value), {"d": d, "delta0": delta0, "tangent_radius": r0}


def distance_upper(dom, a, b, path: PathSpec | None = None) -> DistanceBound:
    """Upper bound for the Kobayashi distance d_K(a, b) along a given path.

    The bound integrates :func:`infinitesimal_upper` along the piecewise
    linear path a -> waypoints -> b, with the final segment replaced by the
    tangent-ball closed form when ``terminal_normal`` is set.
    """
    path = path or PathSpec()
    a = dom.as_point(a)
    b = dom.as_point(b)
    nodes = [a] + [dom.as_point(w) for w in path.waypoints] + [b]
    if _pt_diff_norm(a, b) == 0:
        return DistanceBound(0.0, "upper", (), 0.0)

    parts = []
    quad = 0.0
    s = np.linspace(0.0, 1.0, 64)
    for i, (start, end) in enumerate(zip(nodes, nodes[1:])):
        inside = dom.contains(start + np.multiply.outer(s, end - start))
        if not np.all(inside):
            raise DomainError(f"path segment {i} leaves the domain near s={s[np.argmin(inside)]:.3f}")
        if path.terminal_normal and i == len(nodes) - 2:
            val, meta = _terminal_closed_form(dom, start, end)
            parts.append({"segment": i, "value": val, "method": "closed-form", **meta})
        else:
            val, err = _segment_bound(dom, start, end, path.refinement)
            parts.append({"segment": i, "value": val, "method": "trapezoid"})
            quad += err
    total = float(sum(p["value"] for p in parts))
    return DistanceBound(total, "upper", tuple(parts), quad)


# ---------------------------------------------------------------------------
# boundary geometry helpers


def tangent_ball_radius(dom, boundary_pt, inward, r_max: float | None = None) -> float:
    """Largest certified radius of an interior ball tangent at boundary_pt."""
    r_max = r_max or 2.0 * dom.scale
    inward = _unit(inward)

    def ok(r: float) -> bool:
        center = boundary_pt + r * inward
        if not dom.contains(center):
            return False
        return boundary_distance(dom, center).d >= r * (1.0 - 1e-6)

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


# ---------------------------------------------------------------------------
# the log(1/d) + C verifier


def lemma_log_bound_verify(
    dom,
    base,
    boundary_target,
    num_scales: int = 20,
    inward=None,
    delta_frac: float = 0.8,
    waypoints: tuple = (),
) -> dict:
    """Check d_K(base, p) <= (1/2) log(1/d(p)) + C along a normal approach.

    Points p_k sit at depths d_k = delta0 * 2^(-k) along the inward normal
    of boundary_target, with delta0 a fixed fraction of the tangent-ball
    radius.  The base-to-anchor bound is computed once by quadrature; each
    deeper point only adds the closed-form tangent-ball term, so u_k =
    bound_k - (1/2) log(1/d_k) is exact up to the fixed quadrature error.
    The fitted constant is max u_k; the tail-slope diagnostic certifies
    there is no upward drift at small scales.
    """
    if num_scales < 3:
        raise ConfigError("need at least 3 scales")
    base = dom.as_point(base)
    target = dom.as_point(boundary_target)
    inward = dom.inward_normal(target) if inward is None else _unit(dom.as_point(inward))
    r0 = tangent_ball_radius(dom, target, inward)
    delta0 = delta_frac * r0
    anchor = target - delta0 * (-inward)  # = target + delta0*inward, kept explicit
    base_bound = distance_upper(dom, base, anchor, PathSpec(waypoints=tuple(waypoints)))

    rows = []
    for k in range(1, num_scales + 1):
        d_k = delta0 * 2.0 ** (-k)
        terminal = 0.5 * np.log(delta0 * (2.0 * r0 - d_k) / (d_k * (2.0 * r0 - delta0)))
        bound_k = base_bound.value + float(terminal)
        u_k = bound_k - 0.5 * np.log(1.0 / d_k)
        rows.append({"k": k, "d": d_k, "bound": bound_k, "u": float(u_k)})

    u = np.array([r["u"] for r in rows])
    c_fit = float(np.max(u))
    tail = u[-max(num_scales // 3, 2):]
    slope = float(np.max(np.diff(tail))) if len(tail) > 1 else 0.0
    return {
        "domain": getattr(dom, "name", ""),
        "scales": rows,
        "C_fit": c_fit,
        "tail_slope": slope,
        "passed": bool(np.isfinite(c_fit) and slope <= 1e-2),
        "base_bound": base_bound.value,
        "quad_error": base_bound.quad_error,
        "tangent_radius": float(r0),
        "delta0": float(delta0),
    }


# ---------------------------------------------------------------------------
# exact planar oracles and the inclusion check


def exact_disc_distance(a: complex, b: complex) -> float:
    """Poincare/Kobayashi distance of the unit disc."""
    a, b = complex(a), complex(b)
    if abs(a) >= 1 or abs(b) >= 1:
        raise DomainError("points must lie in the open unit disc")
    m = abs((a - b) / (1.0 - np.conj(b) * a))
    return float(np.arctanh(m))


def _slit_disc_uniformize(z: complex) -> complex:
    """Conformal map of the unit disc minus the radius [0, 1) onto the disc."""
    z = complex(z)
    if abs(z) >= 1 or (z.imag == 0 and z.real >= 0):
        raise DomainError("point not in the slit disc")
    w = np.sqrt(abs(z)) * np.exp(0.5j * (np.angle(z) % (2.0 * np.pi)))  # upper half disc
    zeta = -0.5 * (w + 1.0 / w)  # upper half plane
    return (zeta - 1j) / (zeta + 1j)


def slit_disc_distance(a: complex, b: complex) -> float:
    """Exact Kobayashi distance of the disc minus the radius [0, 1)."""
    return exact_disc_distance(_slit_disc_uniformize(a), _slit_disc_uniformize(b))


def inclusion_monotonicity_check(
    inner_dom,
    outer_formula=None,
    pairs: int = 200,
    seed: int = 0,
    oracle=None,
    sample_points=None,
) -> dict:
    """Distance monotonicity under inclusion: d_outer <= d_inner.

    ``outer_formula(a, b)`` is the exact distance of the enclosing domain
    (default: the unit ball/disc formula).  Where an exact ``oracle`` for
    the inner distance exists the inequality is asserted strictly; without
    one, only computed upper bounds are available and a bound falling below
    the outer formula is recorded as a flag, not a failure, since an upper
    bound cannot certify the lower inequality on its own.
    """
    if outer_formula is None:
        outer_formula = kobayashi_ball
    if sample_points is None:
        sample_points = random_interior_points(inner_dom, pairs, seed=seed)

    strict_failures = []
    flags = []
    checked = 0
    base = inner_dom.as_point(sample_points[0])
    for z in sample_points[1:]:
        z = inner_dom.as_point(z)
        outer_val = outer_formula(base, z)
        checked += 1
        if oracle is not None:
            inner_val = oracle(base, z)
            if inner_val < outer_val - 1e-10:
                strict_failures.append({"z": str(z), "inner": inner_val, "outer": outer_val})
        else:
            try:
                ub = distance_upper(inner_dom, base, z).value
            except DomainError:
                ub = None  # straight segment leaves the domain; skip
            if ub is not None and ub < outer_val - 1e-9:
                flags.append({"z": str(z), "upper": ub, "outer": outer_val})
    return {
        "checked": checked,
        "strict_failures": strict_failures,
        "flags": flags,
        "passed": not strict_failures,
    }
