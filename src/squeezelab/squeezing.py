"""Certified lower bounds for the squeezing function.

Each bound is witnessed by an explicit injective holomorphic map into the
unit ball: inclusions composed with ball automorphisms for annuli,
canonical-annulus transport for planar ring domains, and the recentring
pipeline (centering automorphism -> axis Moebius map), a closed form whose
inscribed-radius margins mirror the confinement estimates it is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ball import BallAutomorphism, _row_norms, sphere_samples
from .conformal import canonical_annulus_map
from .domains import DefiningFunctionDomain, PlanarDomain, _integer, boundary_distance
from .errors import ConfigError, DomainError, SolverError

__all__ = [
    "EmbeddingMap",
    "SqueezeBound",
    "certify_injective",
    "annulus_squeeze_lower",
    "squeeze_lower_planar",
    "theorem21_pipeline",
    "ball_centering_embeddings",
    "ellipsoid_boundary_samples",
]


@dataclass
class EmbeddingMap:
    """Injective holomorphic map into the unit ball with evaluators.

    ``forward`` is batch-first: it maps an ``(m, n)`` array of rows (one
    point per row) to their images in one call, and a point ``(n,)`` to its
    image.  ``boundary_sets`` are samples of the domain boundary (one array per
    boundary component).  No report uses it; it and its two builders,
    ``ball_centering_embeddings`` and ``ellipsoid_boundary_samples``, remain
    only because the benchmark tracer looks the builders up by name.
    """

    forward: object
    boundary_sets: tuple
    name: str = ""
    params: dict = field(default_factory=dict)
    certificate: dict | None = None


@dataclass
class SqueezeBound:
    """Lower bound for the squeezing function at a point, and the witness that gives it.

    Each witness is the symbolic value 1 of a simply connected planar domain
    or a closed form on the round annulus, transported through the
    canonical annulus map on ring domains.
    """

    at: object
    lower: float
    one_minus_lower: float
    witness: dict

    def __post_init__(self):
        if not 0.0 < self.lower <= 1.0:
            raise ConfigError(f"lower bound {self.lower} outside (0, 1]")


def certify_injective(forward, sample_points, pairs: int = 10_000, seed: int = 0) -> dict:
    """Empirical pairwise-separation certificate for a planar embedding.

    ``forward`` is called once, on the whole 1-d array of complex samples,
    and the drawn index pairs with two distinct indices are compared.
    """
    pts = np.asarray(sample_points)
    if pts.ndim != 1 or not len(pts):
        raise ConfigError(f"injectivity samples must be a non-empty 1-d array of points, not shape {pts.shape}")
    pairs = _integer(pairs, "pairs", 1)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, len(pts), pairs)
    j = rng.integers(0, len(pts), pairs)
    keep = i != j
    i, j = i[keep], j[keep]
    if not len(i):
        raise ConfigError(f"no pair of distinct samples among the {pairs} drawn from {len(pts)} points")
    fi = np.asarray(forward(pts))
    sep_dom = np.abs(pts[i] - pts[j])
    sep_img = np.abs(fi[i] - fi[j])
    margin = float(np.min(sep_img))
    worst = int(np.argmin(sep_img))
    return {
        "pairs": int(len(i)),
        "min_image_separation": margin,
        "min_ratio": float(np.min(sep_img / np.maximum(sep_dom, 1e-300))),
        "worst_pair": (str(pts[i[worst]]), str(pts[j[worst]])),
        "injective": bool(margin > 0.0),
    }


# ---------------------------------------------------------------------------
# annuli


def annulus_squeeze_lower(modulus: float, z: complex) -> SqueezeBound:
    """Best bound over the inclusion family of the round annulus.

    Candidate witnesses: the inclusion {modulus < |w| < 1} into the disc
    re-centred at z, and the same after the ring involution w -> modulus/w.
    Both evaluate in closed form: the inclusion gives (|z|-m)/(1-m|z|).
    """
    m = float(modulus)
    if not 0.0 < m < 1.0:
        raise ConfigError("modulus must lie in (0, 1)")
    z = complex(z)
    if not m < abs(z) < 1.0:
        raise DomainError(f"|z|={abs(z):.6g} outside the annulus ({m}, 1)")

    t = abs(z)
    lower, one_minus, kind = _best_inclusion(m, t, 1.0 - t)
    return SqueezeBound(at=z, lower=float(lower), one_minus_lower=float(one_minus),
                        witness={"kind": kind, "modulus": m, "z": str(z)})


def _best_inclusion(rho: float, t: float, gap: float) -> tuple[float, float, str]:
    """(lower, 1 - lower, kind) of the better witness on {rho < |w| < 1} at |w| = ``t``, 1 - |w| = ``gap``.

    The inclusion's 1 - lower is computed from ``gap`` without cancellation;
    the ring involution w -> rho/w maps |w| = t to rho/t.
    """
    one_minus_incl = gap * (1.0 + rho) / (1.0 - rho * t)
    incl = 1.0 - one_minus_incl
    t2 = rho / t
    inv = (t2 - rho) / (1.0 - rho * t2)
    if incl >= inv:
        return incl, one_minus_incl, "inclusion"
    return inv, 1.0 - inv, "inclusion-after-involution"


def squeeze_lower_planar(dom: PlanarDomain, z):
    """Squeezing lower bound for a planar domain via its canonical model, at one point or each point of an array.

    Simply connected domains get the exact value 1 symbolically (the
    uniformizing map onto the disc is itself an embedding); ring domains
    transport the annulus bound through the canonical map, which leaves
    the squeezing function unchanged because it is a biholomorphism.
    Batch-first: an array of points gives a list of bounds, one per point,
    from one ``contains`` call and one ``forward_gap`` evaluation, and each
    bound has the bits of its one-point call.
    """
    if not isinstance(dom, PlanarDomain):
        raise ConfigError(f"squeeze_lower_planar needs a planar domain, got {type(dom).__name__}")
    at = z
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    inside = dom.contains(flat)
    if not inside.all():
        raise DomainError(f"point {complex(flat[np.argmin(inside)])} is not in the {dom.name or 'planar'} domain")
    ats = [at] if z.ndim == 0 else flat.tolist()
    if dom.connectivity == 1:
        bounds = [SqueezeBound(at=a, lower=1.0, one_minus_lower=0.0,
                               witness={"kind": "riemann-family", "symbolic": True}) for a in ats]
    elif dom.connectivity == 2:
        amap = canonical_annulus_map(dom)
        # the lone powers give every point the bits of a point passed alone
        t_abs, gap = amap.forward_gap(flat, _lone=True)
        bounds = [_transported(a, amap.modulus, t, g) for a, t, g in zip(ats, t_abs.tolist(), gap.tolist())]
    else:
        raise ConfigError("only connectivity 1 or 2 supported")
    return bounds[0] if z.ndim == 0 else bounds


def _transported(at, rho: float, t_abs: float, gap: float) -> SqueezeBound:
    """The round annulus's bound at the point ``at``, whose image has |t| = ``t_abs`` and 1 - |t| = ``gap``."""
    if not rho < t_abs < 1.0:
        raise DomainError(f"mapped point |t|={t_abs:.6g} outside ({rho}, 1)")
    lower, one_minus, kind = _best_inclusion(rho, t_abs, gap)
    return SqueezeBound(
        at=at,
        lower=float(lower),
        one_minus_lower=float(one_minus),
        witness={"kind": f"annulus-transport/{kind}", "modulus": rho, "abs_t": t_abs, "gap": gap},
    )


# ---------------------------------------------------------------------------
# the recentring pipeline


def ball_centering_embeddings(points, dim: int = 2, boundary_count: int = 20_000,
                              boundary_radius: float = 1.0 - 1e-12, seed: int = 0):
    """Embeddings of the unit ball given by automorphisms centering each point."""
    sphere = sphere_samples(dim, boundary_count, boundary_radius, seed)
    maps = []
    for p in points:
        aut = BallAutomorphism.centering(np.asarray(p, dtype=complex))
        maps.append(
            EmbeddingMap(
                forward=aut.apply,
                boundary_sets=(sphere,),
                name="ball-centering",
                params={"p": str(np.asarray(p))},
            )
        )
    return maps


def ellipsoid_boundary_samples(b: float, count: int = 20_000, seed: int = 0,
                               inset: float = 1e-12) -> np.ndarray:
    """Near-boundary samples of the ellipsoid {|z1|^2 + |z2|^2/b^2 < 1}."""
    rng = np.random.default_rng(seed)
    alpha = np.arcsin(np.sqrt(rng.uniform(0.0, 1.0, count)))
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, (2, count))
    z1 = np.cos(alpha) * np.exp(1j * p1)
    z2 = b * np.sin(alpha) * np.exp(1j * p2)
    return (1.0 - inset) * np.column_stack([z1, z2])


def _centering_gap(w: np.ndarray, p: np.ndarray):
    """Largest 1 - ||F(zeta)||^2 over the boundary of {sum_j w_j |zeta_j|^2 < 1}, every w_j >= 1.

    F = psi_r o U is the ball automorphism centering p, with r = ||p|| and p
    on axis k (any axis when the weights are equal, where U preserves the
    domain).  With s = |zeta_k| and the rest of the boundary mass on the
    largest other weight w_o, 1 - ||F(zeta)||^2 = (1 - r^2)(A - B s^2)/(1 - r s)^2,
    A = 1 - 1/w_o, B = 1 - w_k/w_o.  Its maximum over s in [0, 1/sqrt(w_k)]
    is at s* = min(r A/B, 1/sqrt(w_k)), or at 1/sqrt(w_k) when B <= 0.  At
    s* = r A/B the quotient is A/(1 + r^2 (B - A)/(B (1 - r^2))), which is A
    exactly when w_k = 1.  One point ``(n,)`` gives a float, rows ``(m, n)``
    an array.
    """
    rows = np.atleast_2d(p)
    r = _row_norms(rows)
    k = np.argmax(np.abs(rows), axis=-1)
    wk = w[k]
    # the largest other weight of each axis; one coordinate has none, and s = 1/sqrt(w_k) is forced
    wo = np.array([np.delete(w, j).max() if len(w) > 1 else w[j] for j in range(len(w))])[k]
    a, b = 1.0 - 1.0 / wo, 1.0 - wk / wo
    q = (1.0 - r) * (1.0 + r)
    with np.errstate(divide="ignore", invalid="ignore"):  # the branch not taken may divide by b = 0
        gap = np.where((b > 0.0) & (r * a < b / np.sqrt(wk)),
                       a / (1.0 + r * r * (1.0 - wk) / (wo * b * q)),
                       q * (1.0 - 1.0 / wk) / (1.0 - r / np.sqrt(wk)) ** 2)
    return float(gap[0]) if np.ndim(p) == 1 else gap


def theorem21_pipeline(dom, points, C) -> dict:
    """Confinement + recentring chain for the centering automorphisms of a family of points.

    ``dom`` is a weighted quadratic domain {sum_j w_j |z_j|^2 < 1} with every
    w_j >= 1, so that it lies in the unit ball.  For each point p_i the
    embedding is the ball automorphism F = psi_r o U with F(p_i) = 0, and
    every row is a closed form on the true boundary:

    * eps_i = (1 - min ||F||)/d_i over the boundary, from the largest gap
      1 - ||F||^2 (``_centering_gap``) as gap/(1 + sqrt(1 - gap))/d_i;
    * the confinement of F(0) inside the ball of radius 1 - d_i/e^(2C);
    * the recentring psi with psi(F(0)) = 0, which is checked to 1e-12: psi o F
      fixes 0, so by Cartan's theorem it is unitary, and the inscribed radius
      of (psi o F)(dom) is the least boundary norm 1/sqrt(max w), certified
      against 1 - 6 C eps_i with a slack of 1e-6.

    The points are stacked once: one ``boundary_distance`` query gives every
    d_i, one stacked ``BallAutomorphism.centering`` gives every F and another
    every psi, and each row has the bits of a one-point call.  A point off
    the coordinate axes on a domain whose weights are not all equal, or a
    weight below 1, raises ``ConfigError``; an error names the first
    offending point.
    """
    c = float(C)
    if not c > 0:
        raise ConfigError(f"C must be positive, got {c}")
    if not isinstance(dom, DefiningFunctionDomain):
        raise ConfigError(f"theorem21_pipeline needs a weighted quadratic domain, got {type(dom).__name__}")
    w = dom.w
    if w.min() < 1.0:
        raise ConfigError(f"weights must be >= 1 so that the domain lies in the unit ball, not {w}")
    inscribed = float(1.0 / np.sqrt(w.max()))
    tol = 1e-6

    P = np.array([dom.as_point(p) for p in points] or np.zeros((0, dom.dim)), dtype=complex)
    off = np.where(P != 0, 1.0, 0.0).sum(axis=-1) > 1.0  # more than one nonzero coordinate
    if off.any() and w.min() < w.max():
        i = int(np.argmax(off))
        raise ConfigError(f"point {i + 1} = {P[i]} is off the coordinate axes of a domain that is not a ball")
    d = boundary_distance(dom, P).d
    gap = _centering_gap(w, P)
    eps = gap / (1.0 + np.sqrt(1.0 - gap)) / d

    phi0 = BallAutomorphism.centering(P).apply(np.zeros_like(P))
    r = _row_norms(phi0)
    confinement_margin = 1.0 - d / np.exp(2.0 * c) - r

    psi = BallAutomorphism.centering(phi0)
    residual = _row_norms(psi.apply(phi0))
    if (residual > 1e-12).any():
        i = int(np.argmax(residual > 1e-12))
        raise SolverError(f"row {i + 1}: the recentring leaves ||psi(F(0))|| = {residual[i]:.3e} > 1e-12")
    floor = 1.0 - 6.0 * c * eps
    weak_radius_warning = (d < c) & (r > 1.0 - d / c)

    rows = [{
        "i": i,
        "d": d_i,
        "eps": eps_i,
        "r": r_i,
        "confinement_margin": margin_i,
        "inscribed": inscribed,
        "inscribed_floor": floor_i,
        "inscribed_margin": inscribed - floor_i + tol,
        "squeeze_lower_at_0": inscribed,
        "one_minus_bound": 1.0 - inscribed,
        "trend_margin": 6.0 * c * eps_i + tol - (1.0 - inscribed),
        "weak_radius_warning": warn_i,
        "evidence": "closed form",
    } for i, d_i, eps_i, r_i, margin_i, floor_i, warn_i in zip(
        range(1, len(P) + 1), d.tolist(), eps.tolist(), r.tolist(), confinement_margin.tolist(),
        floor.tolist(), weak_radius_warning.tolist())]

    return {
        "C": c,
        "rows": rows,
        "all_confined": all(r["confinement_margin"] >= 0 for r in rows),
        "all_inscribed": all(r["inscribed_margin"] >= 0 for r in rows),
        "trend_ok": all(r["trend_margin"] >= 0 for r in rows),
    }
