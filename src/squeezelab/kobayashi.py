"""Upper bounds for the Kobayashi distance on bounded domains.

The infinitesimal metric is bounded above by the Poincare metric of any
analytic disc through the point; each domain gives one certified affine disc
per point and direction (``slice_disc``).  On weighted quadratic domains it
is the whole slice, a complex geodesic, so the metric and the distance along
a straight segment are exact closed forms; on planar domains the bound is
integrated along explicit paths.  ``lemma_log_bound_verify`` takes the normal
approach to a smooth boundary point in closed form against an interior tangent
ball, which isolates the (1/2) log(1/d) leading term analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import _integer, _unit
from .errors import DomainError

__all__ = [
    "PathSpec",
    "DistanceBound",
    "infinitesimal_upper",
    "distance_upper",
    "lemma_log_bound_verify",
    "tangent_ball_radius",
]


# ---------------------------------------------------------------------------
# path plumbing


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-linear path description inside a domain.

    ``waypoints`` are the interior nodes between the two endpoints of
    ``distance_upper``.
    """

    waypoints: tuple = ()
    refinement: int = 64

    def __post_init__(self):
        _integer(self.refinement, "refinement", 2)


@dataclass(frozen=True)
class DistanceBound:
    """A Kobayashi distance upper bound with its per-segment makeup; ``quad_error`` is an estimate, not a bound."""

    value: float
    kind: str  # "upper" or "exact"
    decomposition: tuple = ()
    quad_error: float = 0.0


def _pt_diff_norm(a, b):
    return float(np.linalg.norm(np.atleast_1d(np.asarray(a - b))))


# ---------------------------------------------------------------------------
# affine analytic discs


def infinitesimal_upper(dom, z, v):
    """Upper bound |v| R / (R^2 - |c|^2) for the infinitesimal Kobayashi metric at z in direction v.

    R and c are the radius and centre offset of the domain's ``slice_disc``,
    so the bound is exact on weighted quadratic domains.  One point gives a
    float; rows of points give an array with the bits of the one-point calls.
    """
    v = dom.as_point(v)
    radius, offset = dom.slice_disc(z, v)
    # c * c, not c ** 2: a scalar ** 2 goes to libm's pow, which may round
    # otherwise than the product an array's ** 2 computes
    c = np.abs(offset)
    kappa = float(np.linalg.norm(np.atleast_1d(v))) * radius / (radius * radius - c * c)
    return float(kappa) if np.ndim(kappa) == 0 else kappa


# ---------------------------------------------------------------------------
# integrated bounds


def _segment_bound(dom, a, b, refinement: int) -> tuple[float, float]:
    """Trapezoid integral along [a, b] and |T_2m - T_m|, returned after five levels even when unconverged."""
    length = _pt_diff_norm(a, b)
    if length == 0:
        return 0.0, 0.0
    direction = _unit(b - a)

    m = refinement
    s = np.linspace(0.0, 1.0, m + 1)
    # one integrand call per level through the module attribute, which a tracer may wrap
    f = infinitesimal_upper(dom, a + np.multiply.outer(s, b - a), direction)
    val = float(np.trapezoid(f, s) * length)
    for _ in range(4):
        m *= 2
        s = np.linspace(0.0, 1.0, m + 1)
        # level 2m's even nodes are level m's, bit for bit: only the odd ones are new
        f = np.insert(f, np.arange(1, len(f)), infinitesimal_upper(dom, a + np.multiply.outer(s[1::2], b - a), direction))
        new = float(np.trapezoid(f, s) * length)
        err = abs(new - val)
        if err <= 1e-4 * max(abs(new), 1e-12):
            break
        val = new
    return new, err


def _slice_segment(dom, a, b) -> float:
    """Poincare distance artanh(L R / |R^2 - |c|^2 + conj(c) L|) of a and b = a + L u in a's slice disc along u."""
    length = _pt_diff_norm(a, b)
    if length == 0:
        return 0.0
    radius, offset = dom.slice_disc(a, b - a)
    return float(np.arctanh(length * radius / abs(radius * radius - abs(offset) ** 2 + np.conj(offset) * length)))


def distance_upper(dom, a, b, path: PathSpec | None = None) -> DistanceBound:
    """Upper bound for the Kobayashi distance d_K(a, b) along a given path.

    The path is piecewise linear, a -> waypoints -> b.  Where slices are
    complex geodesics a segment is the distance in its slice disc, and a
    one-segment path is ``kind`` "exact".  Elsewhere :func:`infinitesimal_upper`
    is integrated: the integrand is certified, the quadrature is not (a segment
    may stop unconverged after five trapezoid levels), and ``quad_error`` is an
    a-posteriori estimate, not a bound.
    """
    path = path or PathSpec()
    a, b = dom.as_point(a), dom.as_point(b)
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
        if dom.geodesic_slices:
            parts.append({"segment": i, "value": _slice_segment(dom, start, end), "method": "slice-disc"})
        else:
            val, err = _segment_bound(dom, start, end, path.refinement)
            parts.append({"segment": i, "value": val, "method": "trapezoid"})
            quad += err
    total = float(sum(p["value"] for p in parts))
    exact = len(parts) == 1 and parts[0]["method"] == "slice-disc"
    return DistanceBound(total, "exact" if exact else "upper", tuple(parts), quad)


# ---------------------------------------------------------------------------
# boundary geometry helpers


def tangent_ball_radius(dom, boundary_pt, inward) -> float:
    """Radius of the largest interior ball tangent at ``boundary_pt`` along ``inward``.

    A closed form on both domain kinds; see each domain's method.
    """
    return dom.tangent_ball_radius(boundary_pt, inward)


# ---------------------------------------------------------------------------
# the log(1/d) + C verifier


def lemma_log_bound_verify(dom, base, boundary_target, inward, num_scales: int = 20) -> dict:
    """Check d_K(base, p) <= (1/2) log(1/d(p)) + C along a normal approach.

    Points p_k sit at depths d_k = delta0 * 2^(-k) along ``inward``, the
    inward normal at boundary_target (normalised here), with delta0 = 0.8 times the tangent-ball radius.
    The base-to-anchor bound is computed once by quadrature; each deeper
    point only adds the closed-form tangent-ball term, so u_k = bound_k -
    (1/2) log(1/d_k) is exact up to the fixed quadrature error.
    The fitted constant is max u_k; the tail-slope diagnostic certifies
    there is no upward drift at small scales.
    """
    num_scales = _integer(num_scales, "num_scales", 3)
    base = dom.as_point(base)
    target = dom.as_point(boundary_target)
    inward = _unit(dom.as_point(inward))
    r0 = tangent_ball_radius(dom, target, inward)
    delta0 = 0.8 * r0
    anchor = target - delta0 * (-inward)  # = target + delta0*inward, kept explicit
    base_bound = distance_upper(dom, base, anchor)

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

