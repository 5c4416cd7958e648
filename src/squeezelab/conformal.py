"""Canonical annulus maps for doubly connected planar domains.

The harmonic measure u (u = 1 on the outer curve, u = 0 on the hole) is
approximated by a real-linear combination of harmonic basis functions:
a log term about the hole plus Laurent and Taylor tails and poles outside
the outer curve, fitted by least squares on boundary collocation points.
With a = the log coefficient the ring maps onto {exp(-1/a) < |w| < 1} via
w = exp((F - 1)/a) where F is the analytic completion of u; the
multivalued log cancels against exp, so the map is evaluated branch-free
as (z - z_h) * exp(single-valued part).

Domains symmetric in no particular way use the plain basis.  For domains
whose outer boundary contains a segment of the imaginary axis, a mirrored
basis (every element minus its Schwarz reflection across the axis) makes
u = 1 exact on the whole axis, which preserves relative accuracy of
1 - |w| for points exponentially close to that segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .domains import _CHUNK, Curve, PlanarDomain, random_interior_points
from .errors import ConfigError, SolverError

__all__ = ["AnnulusMap", "canonical_annulus_map"]

# exponents of the Laurent tail about the hole and of the Taylor tail
_LAURENT = np.arange(1, 25)
_TAYLOR = np.arange(1, 49)
# charge counts tried in turn until the boundary deviation between the
# collocation nodes is at most _TOLERANCE
_CHARGES = (64, 128, 256)
_TOLERANCE = 1e-3


def _powers(x, ks, lone: bool):
    """``x ** k`` for each exponent in ``ks``, along a new last axis, with the bits of ``x ** k``.

    numpy's ``**`` squares an array but takes the general power of a lone
    point; ``np.power`` always takes the general power.
    """
    p = np.power(x[..., None], ks)
    if not lone:
        p[..., ks == 2] = np.square(x)[..., None]
    return p


@dataclass(frozen=True)
class _Basis:
    """Single-valued analytic basis with REAL coefficients, evaluated as one matrix.

    The raw elements are the Laurent powers (r_h/(z - z_h))^k, the Taylor
    powers ((z - z_c)/r_c)^k and the poles s/(z - q).  A raw element g
    gives the two columns g and i*g (real and imaginary coefficient
    directions); u collects their real parts.  In mirrored form the columns
    are g - g~ and i*(g + g~) with g~(z) = conj(g(-conj(z))) the Schwarz
    reflection across the imaginary axis; the real part of either vanishes
    identically on the axis, and the pair spans exactly the reflection-odd
    harmonic space.
    """

    z_h: complex
    r_h: float
    z_c: complex
    r_c: float
    poles: np.ndarray
    strengths: np.ndarray
    mirrored: bool

    @property
    def size(self) -> int:
        return 2 * (len(_LAURENT) + len(_TAYLOR) + len(self.poles))

    def chunks(self, n: int):
        """Row slices of at most ``_CHUNK`` matrix elements covering ``n`` rows."""
        step = max(1, _CHUNK // self.size)
        return [slice(i, i + step) for i in range(0, n, step)]

    def _raw(self, z, deriv: bool, lone: bool):
        dz = z - self.z_h
        laurent = _powers(self.r_h / dz, _LAURENT, lone)
        v = (z - self.z_c) / self.r_c
        dq = z[..., None] - self.poles
        if not deriv:
            return np.concatenate([laurent, _powers(v, _TAYLOR, lone), self.strengths / dq], axis=-1)
        return np.concatenate([
            -_LAURENT * laurent / dz[..., None],
            (_TAYLOR / self.r_c) * _powers(v, _TAYLOR - 1, lone),
            -self.strengths / (np.power(dq, 2) if lone else np.square(dq)),
        ], axis=-1)

    def __call__(self, z, deriv: bool = False):
        """The columns (or their derivatives) at ``z``, along a new last axis."""
        lone = z.ndim == 0
        g = self._raw(z, deriv, lone)
        out = np.empty(g.shape[:-1] + (2 * g.shape[-1],), dtype=complex)
        if not self.mirrored:
            out[..., 0::2] = g
            out[..., 1::2] = 1j * g
            return out
        # the reflection h(z) = conj(g(-conj(z))) has h'(z) = -conj(g'(-conj(z)))
        h = np.conj(self._raw(-np.conj(z), deriv, lone))
        if deriv:
            h = -h
        out[..., 0::2] = g - h
        out[..., 1::2] = 1j * (g + h)
        return out

    def fold(self, coef: np.ndarray, z, deriv: bool = False):
        """Sum_j coef_j g_j(z), added left to right over the columns, in row chunks."""
        if z.ndim == 0:
            return np.cumsum(coef * self(z, deriv))[-1]
        flat = z.ravel()
        out = np.empty(len(flat), dtype=complex)
        for rows in self.chunks(len(flat)):
            out[rows] = np.cumsum(coef * self(flat[rows], deriv), axis=-1)[:, -1]
        return out.reshape(z.shape)


@dataclass
class AnnulusMap:
    """Conformal equivalence of a ring domain with {modulus < |w| < 1}.

    ``boundary_deviation`` is the largest distance of |w| from 1 on the
    outer curve and from ``modulus`` on the hole, measured halfway between
    the collocation nodes.
    """

    modulus: float
    residual: float
    mirrored: bool
    boundary_deviation: float
    _basis: _Basis = field(repr=False)
    _coef: np.ndarray = field(repr=False)
    _a: float = field(repr=False)
    _shift: float = field(repr=False)
    _domain: PlanarDomain = field(repr=False)
    _seeds: tuple | None = field(repr=False, default=None)

    def _prefactor(self, z):
        """The branch-free factor (z - z_h), or its mirrored ratio."""
        z_h = self._basis.z_h
        if self.mirrored:
            return (z - z_h) / (z + np.conj(z_h))
        return z - z_h

    def _exponent(self, z, deriv: bool = False):
        return (self._shift + self._basis.fold(self._coef, z, deriv)) / self._a

    def forward(self, z):
        """Map domain points to the standard annulus."""
        z = np.asarray(z, dtype=complex)
        return self._prefactor(z) * np.exp(self._exponent(z))

    def forward_gap(self, z):
        """Return (|w|, 1 - |w|) with the gap evaluated without cancellation."""
        z = np.asarray(z, dtype=complex)
        logw = np.log(np.abs(self._prefactor(z))) + self._exponent(z).real
        gap = -np.expm1(logw)
        return np.exp(logw), gap

    def derivative(self, z):
        """dw/dz at domain points."""
        z = np.asarray(z, dtype=complex)
        w = self.forward(z)
        z_h = self._basis.z_h
        dlog = 1.0 / (z - z_h) + self._basis.fold(self._coef, z, deriv=True) / self._a
        if self.mirrored:
            dlog = dlog - 1.0 / (z + np.conj(z_h))
        return w * dlog

    def backward(self, w):
        """Invert the map by Newton iteration from seeds drawn on the first call."""
        if self._seeds is None:
            seeds = random_interior_points(self._domain, 400, seed=11)
            self._seeds = (seeds, self.forward(seeds))
        w = np.asarray(w, dtype=complex)
        scalar = w.ndim == 0
        out = np.array([self._backward_one(x) for x in np.atleast_1d(w)])
        return out[0] if scalar else out

    def _backward_one(self, w: complex) -> complex:
        seeds, images = self._seeds
        for idx in np.argsort(np.abs(images - w))[:8]:
            z = seeds[idx]
            for _ in range(80):
                f = self.forward(z) - w
                if abs(f) < 1e-13:
                    break
                df = self.derivative(z)
                if df == 0:
                    break
                step = f / df
                if abs(step) > 0.5:
                    step *= 0.5 / abs(step)
                z = z - step
            # the analytic formula extends beyond the ring; only an
            # in-domain preimage inverts the restriction
            if abs(self.forward(z) - w) < 1e-10 and self._domain.contains(z):
                return z
        raise SolverError(f"backward map failed to converge at w={w}")


def _outer_charges(dom, zo: np.ndarray, count: int, mirror: bool):
    """Pole locations offset outward from the outer curve (fundamental solutions).

    Charges adapt the basis to boundary regions the global Laurent/Taylor
    tails resolve poorly, e.g. narrow channels between the outer curve and
    the hole.  In mirrored mode only the open-half-plane part of the curve
    receives charges; the axis segment is exact by symmetry.  Returns the
    poles and their strengths.
    """
    # outward normal of the positively oriented outer curve: -i * tangent
    tangent = np.roll(zo, -1) - np.roll(zo, 1)
    normal = -1j * tangent / np.where(np.abs(tangent) > 0, np.abs(tangent), 1.0)
    idx = np.nonzero(zo.real > 1e-9)[0] if mirror else np.arange(len(zo))
    if len(idx) == 0:
        return np.zeros(0, dtype=complex), np.zeros(0)
    pick = np.unique(idx[np.linspace(0, len(idx) - 1, count).astype(int)])
    qs = zo[pick]
    spacing = np.abs(np.roll(qs, -1) - qs)
    spacing[-1] = spacing[-2] if len(spacing) > 1 else 0.1
    cand = qs + 3.0 * spacing * normal[pick]
    outside = ~dom.contains(cand)
    return cand[outside], np.maximum(spacing[outside], 1e-6)


def _midpoints(curve: Curve) -> np.ndarray:
    """Curve points halfway in parameter between consecutive collocation nodes."""
    t = curve.params
    return curve.point((t + np.append(t[1:], t[0] + 1.0)) / 2)


def _fit(dom: PlanarDomain, zo, zi, mirror: bool, charges: int) -> AnnulusMap:
    """Least-squares harmonic measure with ``charges`` poles; deviation not yet measured."""
    z_h = complex(np.mean(zi))
    r_h = float(np.mean(np.abs(zi - z_h)))
    z_c = complex(np.mean(zo))
    r_c = float(np.max(np.abs(zo - z_c)))
    if mirror:
        z_c = complex(0.0, z_c.imag)  # keep the Taylor center on the axis
    basis = _Basis(z_h, r_h, z_c, r_c, *_outer_charges(dom, zo, charges, mirror), mirror)

    pts = np.concatenate([zo, zi])
    off = 0 if mirror else 1
    A = np.empty((len(pts), off + 1 + basis.size))
    A[:, :off] = 1.0
    A[:, off] = np.log(np.abs(pts - z_h))
    if mirror:
        A[:, off] = A[:, off] - np.log(np.abs(pts + np.conj(z_h)))
    for rows in basis.chunks(len(pts)):
        A[rows, off + 1:] = basis(pts[rows]).real
    rhs = np.concatenate([np.ones(len(zo)), np.zeros(len(zi))])
    if mirror:
        rhs = rhs - 1.0  # u = 1 + (mirrored combination)
    coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    residual = float(np.max(np.abs(A @ coef - rhs)))

    a = float(coef[off])
    if a <= 0:
        raise SolverError(f"log coefficient a={a:.3e} not positive; solve inconsistent")
    shift = 0.0 if mirror else float(coef[0]) - 1.0
    return AnnulusMap(float(np.exp(-1.0 / a)), residual, mirror, np.inf,
                      basis, coef[off + 1:], a, shift, dom)


def canonical_annulus_map(dom: PlanarDomain, resolution: int = 1) -> AnnulusMap:
    """Conformal map of a connectivity-2 planar domain onto a round annulus.

    ``resolution`` refines the boundary collocation by that factor, which
    supports Cauchy-stability checks of the recovered modulus.  The number
    of charges doubles until the boundary deviation halfway between the
    collocation nodes is at most ``_TOLERANCE``.
    """
    if dom.connectivity != 2:
        raise ConfigError(f"need connectivity 2, got {dom.connectivity}")
    outer = dom.outer if resolution == 1 else dom.outer.refined(resolution)
    hole = dom.holes[0] if resolution == 1 else dom.holes[0].refined(resolution)
    zo = outer.points()
    zi = hole.points()
    if len(zo) < 1024 or len(zi) < 256:
        raise ConfigError("boundary resolution too low for the harmonic solve")
    mirror = bool(np.min(np.abs(zo.real)) < 1e-9 and dom.name.startswith("omega_prime"))
    mid_o, mid_i = _midpoints(outer), _midpoints(hole)

    for charges in _CHARGES:
        amap = _fit(dom, zo, zi, mirror, charges)
        # boundary correspondence: outer -> |w| = 1, hole -> |w| = modulus
        out_dev = float(np.max(np.abs(np.abs(amap.forward(mid_o)) - 1.0)))
        in_dev = float(np.max(np.abs(np.abs(amap.forward(mid_i)) - amap.modulus)))
        if max(out_dev, in_dev) <= _TOLERANCE:
            return replace(amap, boundary_deviation=max(out_dev, in_dev))
    raise SolverError(f"boundary correspondence failed with {charges} charges: "
                      f"outer dev {out_dev:.2e}, hole dev {in_dev:.2e}")
