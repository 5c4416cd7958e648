"""Canonical annulus maps for doubly connected planar domains.

The harmonic measure u (u = 1 on the outer curve, u = 0 on the hole) is
approximated by a real-linear combination of harmonic basis functions:
a log term about the hole plus Laurent and Taylor tails, fitted by least
squares on boundary collocation points.  With a = the log coefficient the
ring maps onto {exp(-1/a) < |w| < 1} via w = exp((F - 1)/a) where F is the
analytic completion of u; the multivalued log cancels against exp, so the
map is evaluated branch-free as (z - z_h) * exp(single-valued part).

Domains symmetric in no particular way use the plain basis.  For domains
whose outer boundary contains a segment of the imaginary axis, a mirrored
basis (every element minus its Schwarz reflection across the axis) makes
u = 1 exact on the whole axis, which preserves relative accuracy of
1 - |w| for points exponentially close to that segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import PlanarDomain, random_interior_points
from .errors import ConfigError, SolverError

__all__ = ["AnnulusMap", "canonical_annulus_map"]


@dataclass
class AnnulusMap:
    """Conformal equivalence of a ring domain with {modulus < |w| < 1}."""

    modulus: float
    residual: float
    mirrored: bool
    _eval: object = field(repr=False)
    _eval_deriv: object = field(repr=False)
    _seeds: np.ndarray = field(repr=False)
    _seed_images: np.ndarray = field(repr=False)
    _contains: object = field(repr=False, default=None)

    def forward(self, z):
        """Map domain points to the standard annulus."""
        return self._eval(np.asarray(z, dtype=complex))

    def forward_gap(self, z):
        """Return (|w|, 1 - |w|) with the gap evaluated without cancellation."""
        t = np.asarray(z, dtype=complex)
        logw = self._eval(t, want="log_abs")
        gap = -np.expm1(logw)
        return np.exp(logw), gap

    def backward(self, w):
        """Invert the map by Newton iteration from precomputed seeds."""
        w = np.asarray(w, dtype=complex)
        scalar = w.ndim == 0
        out = np.array([self._backward_one(x) for x in np.atleast_1d(w)])
        return out[0] if scalar else out

    def _backward_one(self, w: complex) -> complex:
        order = np.argsort(np.abs(self._seed_images - w))
        for idx in order[:8]:
            z = self._seeds[idx]
            for _ in range(80):
                f = self._eval(z) - w
                if abs(f) < 1e-13:
                    break
                df = self._eval_deriv(z)
                if df == 0:
                    break
                step = f / df
                if abs(step) > 0.5:
                    step *= 0.5 / abs(step)
                z = z - step
            # the analytic formula extends beyond the ring; only an
            # in-domain preimage inverts the restriction
            if abs(self._eval(z) - w) < 1e-10 and (
                self._contains is None or self._contains(z)
            ):
                return z
        raise SolverError(f"backward map failed to converge at w={w}")


def _reflect(z):
    return -np.conj(z)


def _basis_functions(z_h, r_h, z_c, r_c, n_laurent, n_taylor, mirrored, charges=()):
    """Single-valued analytic basis entries with REAL coefficients.

    Each entry is (f, fprime); u collects Re f.  A raw element g
    contributes the two entries g and i*g (real and imaginary coefficient
    directions).  In mirrored form the entries are g - g~ and i*(g + g~)
    with g~(z) = conj(g(-conj(z))) the Schwarz reflection across the
    imaginary axis; the real part of either vanishes identically on the
    axis, and the pair spans exactly the reflection-odd harmonic space.
    """
    raw = []

    def make_laurent(k):
        def f(z):
            return (r_h / (z - z_h)) ** k

        def fp(z):
            return -k * (r_h / (z - z_h)) ** k / (z - z_h)

        return f, fp

    def make_taylor(k):
        def f(z):
            return ((z - z_c) / r_c) ** k

        def fp(z):
            return (k / r_c) * ((z - z_c) / r_c) ** (k - 1)

        return f, fp

    for k in range(1, n_laurent + 1):
        raw.append(make_laurent(k))
    for k in range(1, n_taylor + 1):
        raw.append(make_taylor(k))

    def make_pole(q, s):
        def f(z):
            return s / (z - q)

        def fp(z):
            return -s / (z - q) ** 2

        return f, fp

    for q, s in charges:
        raw.append(make_pole(q, s))

    entries = []
    for f, fp in raw:
        if not mirrored:
            entries.append((f, fp))
            entries.append((lambda z, f=f: 1j * f(z), lambda z, fp=fp: 1j * fp(z)))
        else:
            # reflection h(z) = conj(f(-conj(z))) has h'(z) = -conj(f'(-conj(z)))
            entries.append(
                (
                    lambda z, f=f: f(z) - np.conj(f(-np.conj(z))),
                    lambda z, fp=fp: fp(z) + np.conj(fp(-np.conj(z))),
                )
            )
            entries.append(
                (
                    lambda z, f=f: 1j * (f(z) + np.conj(f(-np.conj(z)))),
                    lambda z, fp=fp: 1j * (fp(z) - np.conj(fp(-np.conj(z)))),
                )
            )
    return entries


def _outer_charges(dom, zo: np.ndarray, count: int, mirror: bool):
    """Pole locations offset outward from the outer curve (fundamental solutions).

    Charges adapt the basis to boundary regions the global Laurent/Taylor
    tails resolve poorly, e.g. narrow channels between the outer curve and
    the hole.  In mirrored mode only the open-half-plane part of the curve
    receives charges; the axis segment is exact by symmetry.
    """
    if count <= 0:
        return []
    # outward normal of the positively oriented outer curve: -i * tangent
    tangent = np.roll(zo, -1) - np.roll(zo, 1)
    normal = -1j * tangent / np.where(np.abs(tangent) > 0, np.abs(tangent), 1.0)
    keep = np.ones(len(zo), dtype=bool)
    if mirror:
        keep = zo.real > 1e-9
    idx = np.nonzero(keep)[0]
    if len(idx) == 0:
        return []
    pick = idx[np.linspace(0, len(idx) - 1, count).astype(int)]
    pick = np.unique(pick)
    qs = zo[pick]
    spacing = np.abs(np.roll(qs, -1) - qs)
    spacing[-1] = spacing[-2] if len(spacing) > 1 else 0.1
    cand = qs + 3.0 * spacing * normal[pick]
    outside = ~dom.contains(cand)
    return [(complex(q), float(max(ds, 1e-6))) for q, ds in zip(cand[outside], spacing[outside])]


def canonical_annulus_map(
    dom: PlanarDomain,
    n_laurent: int = 24,
    n_taylor: int = 48,
    mfs_charges: int = 64,
    mirror: bool | None = None,
    resolution: int = 1,
    seed_count: int = 400,
) -> AnnulusMap:
    """Conformal map of a connectivity-2 planar domain onto a round annulus.

    ``resolution`` refines the boundary collocation by that factor, which
    supports Cauchy-stability checks of the recovered modulus.
    """
    if dom.connectivity != 2:
        raise ConfigError(f"need connectivity 2, got {dom.connectivity}")
    outer = dom.outer if resolution == 1 else dom.outer.refined(resolution)
    hole = dom.holes[0] if resolution == 1 else dom.holes[0].refined(resolution)
    zo = outer.points()
    zi = hole.points()
    if len(zo) < 1024 or len(zi) < 256:
        raise ConfigError("boundary resolution too low for the harmonic solve")

    if mirror is None:
        mirror = bool(np.min(np.abs(zo.real)) < 1e-9 and dom.name.startswith("omega_prime"))

    z_h = complex(np.mean(zi))
    r_h = float(np.mean(np.abs(zi - z_h)))
    z_c = complex(np.mean(zo))
    r_c = float(np.max(np.abs(zo - z_c)))
    if mirror:
        z_c = complex(0.0, z_c.imag)  # keep the Taylor center on the axis

    charges = _outer_charges(dom, zo, mfs_charges, mirror)
    elems = _basis_functions(z_h, r_h, z_c, r_c, n_laurent, n_taylor, mirror, charges)
    pts = np.concatenate([zo, zi])

    def log_re(z):
        val = np.log(np.abs(z - z_h))
        if mirror:
            val = val - np.log(np.abs(z + np.conj(z_h)))
        return val

    cols = []
    if not mirror:
        cols.append(np.ones(len(pts)))
    cols.append(log_re(pts))
    for f, _ in elems:
        cols.append(f(pts).real)
    A = np.column_stack(cols)
    rhs = np.concatenate([np.ones(len(zo)), np.zeros(len(zi))])
    if mirror:
        rhs = rhs - 1.0  # u = 1 + (mirrored combination)
    coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    residual = float(np.max(np.abs(A @ coef - rhs)))

    off = 0 if mirror else 1
    beta0 = 0.0 if mirror else float(coef[0])
    a = float(coef[off])
    if a <= 0:
        raise SolverError(f"log coefficient a={a:.3e} not positive; solve inconsistent")
    b = coef[off + 1:]  # one real coefficient per basis entry

    def s_part(z, deriv=False):
        """Single-valued analytic tail Sum_j Re-combination, or its derivative."""
        total = np.zeros_like(np.asarray(z, dtype=complex))
        for (f, fp), c in zip(elems, b):
            total = total + c * (fp(z) if deriv else f(z))
        return total

    base_shift = (beta0 - 1.0) if not mirror else 0.0

    def eval_forward(z, want="value"):
        z = np.asarray(z, dtype=complex)
        s = s_part(z)
        expo = (base_shift + s) / a
        if mirror:
            ratio = (z - z_h) / (z + np.conj(z_h))
            if want == "log_abs":
                return np.log(np.abs(ratio)) + expo.real
            return ratio * np.exp(expo)
        if want == "log_abs":
            return np.log(np.abs(z - z_h)) + expo.real
        return (z - z_h) * np.exp(expo)

    def eval_deriv(z):
        z = np.asarray(z, dtype=complex)
        w = eval_forward(z)
        dlog = 1.0 / (z - z_h) + s_part(z, deriv=True) / a
        if mirror:
            dlog = dlog - 1.0 / (z + np.conj(z_h))
        return w * dlog

    modulus = float(np.exp(-1.0 / a))
    seeds = random_interior_points(dom, seed_count, seed=11)
    seed_images = eval_forward(seeds)

    amap = AnnulusMap(
        modulus=modulus,
        residual=residual,
        mirrored=bool(mirror),
        _eval=eval_forward,
        _eval_deriv=eval_deriv,
        _seeds=seeds,
        _seed_images=seed_images,
        _contains=dom.contains,
    )

    # boundary correspondence sanity: outer -> |w| = 1, hole -> |w| = modulus
    out_dev = float(np.max(np.abs(np.abs(eval_forward(zo)) - 1.0)))
    in_dev = float(np.max(np.abs(np.abs(eval_forward(zi)) - modulus)))
    if max(out_dev, in_dev) > 1e-3:
        raise SolverError(
            f"boundary correspondence failed: outer dev {out_dev:.2e}, hole dev {in_dev:.2e}"
        )
    amap.boundary_deviation = max(out_dev, in_dev)
    return amap
