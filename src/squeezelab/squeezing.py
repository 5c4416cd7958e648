"""Certified lower bounds for the squeezing function.

Every number reported here is a true lower bound witnessed by an explicit
injective holomorphic map into the unit ball: inclusions composed with
ball automorphisms for annuli, canonical-annulus transport for planar ring
domains, and the recentring pipeline (embedding -> axis Moebius map) whose
inscribed-radius margins mirror the confinement estimates it is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .ball import BallAutomorphism, _psi_norms_batch, sphere_samples
from .conformal import AnnulusMap, canonical_annulus_map
from .domains import PlanarDomain, boundary_distance
from .errors import ConfigError, DomainError

__all__ = [
    "EmbeddingMap",
    "SqueezeBound",
    "certify_injective",
    "squeeze_lower_from_embedding",
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
    boundary component); ``ordered`` marks whether consecutive samples are
    adjacent on the curve, which enables a curvature-based resolution
    margin for sampled minima.
    """

    forward: object
    boundary_sets: tuple
    ordered: bool = True
    name: str = ""
    params: dict = field(default_factory=dict)
    certificate: dict | None = None


@dataclass
class SqueezeBound:
    """Certified lower bound for the squeezing function at a point."""

    at: object
    lower: float
    one_minus_lower: float
    witness: dict

    def __post_init__(self):
        if not 0.0 < self.lower <= 1.0:
            raise ConfigError(f"lower bound {self.lower} outside (0, 1]")


def certify_injective(forward, sample_points, pairs: int = 10_000, seed: int = 0) -> dict:
    """Empirical pairwise-separation certificate for an embedding.

    ``forward`` is called once, on the whole sample array.
    """
    pts = np.asarray(sample_points)
    rng = np.random.default_rng(seed)
    n = len(pts)
    i = rng.integers(0, n, pairs)
    j = rng.integers(0, n, pairs)
    keep = i != j
    i, j = i[keep], j[keep]
    fi = np.asarray(forward(pts))
    sep_dom = np.abs(pts[i] - pts[j]) if pts.ndim == 1 else np.linalg.norm(pts[i] - pts[j], axis=-1)
    sep_img = (
        np.abs(fi[i] - fi[j]) if fi.ndim == 1 else np.linalg.norm(fi[i] - fi[j], axis=-1)
    )
    margin = float(np.min(sep_img))
    worst = int(np.argmin(sep_img))
    return {
        "pairs": int(len(i)),
        "min_image_separation": margin,
        "min_ratio": float(np.min(sep_img / np.maximum(sep_dom, 1e-300))),
        "worst_pair": (str(pts[i[worst]]), str(pts[j[worst]])),
        "injective": bool(margin > 0.0),
    }


def _resolution_margin(norms: np.ndarray, ordered: bool) -> float:
    """Sagitta-style safety margin for a sampled minimum along a curve."""
    if not ordered or len(norms) < 8:
        return 0.0
    second = np.abs(np.diff(norms, n=2, append=norms[:2]))
    return float(np.max(second) / 8.0)


def _inscribed_after(aut: BallAutomorphism, emb: EmbeddingMap) -> float:
    """Min norm of the boundary image after recentring, minus the margin."""
    lows = []
    for pts in emb.boundary_sets:
        imgs = emb.forward(pts)
        rotated = imgs @ aut.align.T
        norms = _psi_norms_batch(aut.r, rotated)
        if np.any(norms >= 1.0 + 1e-12):
            raise DomainError("boundary image escapes the closed ball")
        lows.append(float(np.min(norms)) - _resolution_margin(norms, emb.ordered))
    return min(lows)


def squeeze_lower_from_embedding(dom, z, emb: EmbeddingMap) -> SqueezeBound:
    """Inscribed-radius bound after normalizing the embedding to send z to 0.

    Post-composes with the ball automorphism centering f(z); the distance
    from the origin to the normalized boundary image, minus a resolution
    margin, is a lower bound for the squeezing function at z.
    """
    w0 = np.atleast_1d(np.asarray(emb.forward(z), dtype=complex))
    if np.linalg.norm(w0) >= 1.0:
        raise DomainError(f"embedding sends z outside the ball: ||f(z)|| = {np.linalg.norm(w0)}")
    aut = BallAutomorphism.centering(w0)
    lower = _inscribed_after(aut, emb)
    if lower <= 0.0:
        raise DomainError("degenerate boundary image: no positive inscribed radius")
    return SqueezeBound(
        at=z,
        lower=lower,
        one_minus_lower=1.0 - lower,
        witness={"kind": "embedding", "name": emb.name, "center_r": float(aut.r), **emb.params},
    )


# ---------------------------------------------------------------------------
# annuli


def _mobius_abs(a: complex, w: np.ndarray) -> np.ndarray:
    return np.abs((w - a) / (1.0 - np.conj(a) * w))


def _min_on_circle(a: complex, radius: float) -> float:
    """Exact minimum of |mobius_a| over the circle |w| = radius."""

    def f(theta):
        return _mobius_abs(a, radius * np.exp(1j * theta))

    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    vals = f(theta)
    k = int(np.argmin(vals))
    lo, hi = theta[k] - 2.0 * np.pi / 4096, theta[k] + 2.0 * np.pi / 4096
    res = minimize_scalar(lambda t: float(f(np.array([t]))[0]), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-14})
    return float(min(res.fun, vals[k]))


def annulus_squeeze_lower(modulus: float, z: complex, cross_check: bool = False) -> SqueezeBound:
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
    incl = (t - m) / (1.0 - m * t)
    one_minus_incl = (1.0 - t) * (1.0 + m) / (1.0 - m * t)
    t2 = m / t
    inv = (t2 - m) / (1.0 - m * t2)
    if incl >= inv:
        lower, one_minus, kind = incl, one_minus_incl, "inclusion"
    else:
        lower, one_minus, kind = inv, 1.0 - inv, "inclusion-after-involution"

    witness = {"kind": kind, "modulus": m, "z": str(z)}
    if cross_check:
        a = z if kind == "inclusion" else m / z
        witness["sampled_min"] = _min_on_circle(a, m)
    return SqueezeBound(at=z, lower=float(lower), one_minus_lower=float(one_minus), witness=witness)


def squeeze_lower_planar(dom: PlanarDomain, z: complex, amap: AnnulusMap | None = None) -> SqueezeBound:
    """Squeezing lower bound for a planar domain via its canonical model.

    Simply connected domains get the exact value 1 symbolically (the
    uniformizing map onto the disc is itself an embedding); ring domains
    transport the annulus bound through the canonical map, which leaves
    the squeezing function unchanged because it is a biholomorphism.
    """
    if not isinstance(dom, PlanarDomain):
        raise ConfigError(f"squeeze_lower_planar needs a planar domain, got {type(dom).__name__}")
    if not dom.contains(z):
        raise DomainError(f"point {complex(z)} is not in the {dom.name or 'planar'} domain")
    if dom.connectivity == 1:
        return SqueezeBound(at=z, lower=1.0, one_minus_lower=0.0,
                            witness={"kind": "riemann-family", "symbolic": True})
    if dom.connectivity != 2:
        raise ConfigError("only connectivity 1 or 2 supported")
    if amap is None:
        amap = getattr(dom, "_annulus_map", None)
        if amap is None:
            amap = canonical_annulus_map(dom)
            dom._annulus_map = amap
    rho = amap.modulus
    t_abs, gap = amap.forward_gap(complex(z))
    t_abs, gap = float(t_abs), float(gap)
    if not rho < t_abs < 1.0:
        raise DomainError(f"mapped point |t|={t_abs:.6g} outside ({rho}, 1)")

    one_minus_incl = gap * (1.0 + rho) / (1.0 - rho * t_abs)
    incl = 1.0 - one_minus_incl
    t2 = rho / t_abs
    inv = (t2 - rho) / (1.0 - rho * t2)
    if incl >= inv:
        lower, one_minus, kind = incl, one_minus_incl, "inclusion"
    else:
        lower, one_minus, kind = inv, 1.0 - inv, "inclusion-after-involution"
    return SqueezeBound(
        at=z,
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
                ordered=False,
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


def theorem21_pipeline(dom, maps, points, C, tol: float = 1e-6) -> dict:
    """Confinement + recentring chain for a family of normalized embeddings.

    For each embedding F with F(p_i) = 0 the pipeline measures eps_i from
    the boundary image, checks the confinement of F(0) inside the ball of
    radius 1 - d(p_i)/e^(2C), recentres with the axis Moebius map, and
    certifies the inscribed radius 1 - 6 C eps_i of the composed image.
    """
    c = float(C)
    if not c > 0:
        raise ConfigError(f"C must be positive, got {c}")
    if len(maps) != len(points):
        raise ConfigError("one embedding per point required")
    origin = np.zeros(getattr(dom, "dim", 1), dtype=complex)

    rows = []
    for i, (emb, p) in enumerate(zip(maps, points), start=1):
        p = np.asarray(p, dtype=complex)
        zero_img = np.atleast_1d(np.asarray(emb.forward(p), dtype=complex))
        if np.linalg.norm(zero_img) > 1e-10:
            raise ConfigError(f"map {i} does not send its point to the origin "
                              f"(||F(p)|| = {np.linalg.norm(zero_img):.3e})")
        d_i = float(boundary_distance(dom, p).d)

        # measured eps: the boundary image must contain B(0, 1 - eps*d)
        min_norm = np.inf
        for pts in emb.boundary_sets:
            imgs = emb.forward(pts)
            min_norm = min(min_norm, float(np.min(np.linalg.norm(imgs, axis=1))))
        eps_i = max((1.0 - min_norm) / d_i, 0.0)

        phi0 = np.atleast_1d(np.asarray(emb.forward(origin), dtype=complex))
        r = float(np.linalg.norm(phi0))
        confinement_radius = 1.0 - d_i / np.exp(2.0 * c)
        confinement_margin = confinement_radius - r

        psi = BallAutomorphism.centering(phi0) if r > 0 else BallAutomorphism(0.0, np.eye(len(phi0), dtype=complex))
        # inscribed radius of (psi o F)(dom), evaluated without composing
        # through the strict open-ball check (boundary norms may round to 1)
        inscribed = _inscribed_after(psi, emb)
        floor = 1.0 - 6.0 * c * eps_i
        inscribed_margin = inscribed - floor + tol

        weak_radius_ok = r <= 1.0 - d_i / c if d_i < c else True
        rows.append({
            "i": i,
            "d": d_i,
            "eps": eps_i,
            "r": r,
            "confinement_margin": confinement_margin,
            "inscribed": inscribed,
            "inscribed_floor": floor,
            "inscribed_margin": inscribed_margin,
            "squeeze_lower_at_0": inscribed,
            "one_minus_bound": 1.0 - inscribed,
            "trend_margin": 6.0 * c * eps_i + tol - (1.0 - inscribed),
            "weak_radius_warning": not weak_radius_ok,
        })

    return {
        "C": c,
        "rows": rows,
        "all_confined": all(r["confinement_margin"] >= 0 for r in rows),
        "all_inscribed": all(r["inscribed_margin"] >= 0 for r in rows),
        "trend_ok": all(r["trend_margin"] >= 0 for r in rows),
    }
