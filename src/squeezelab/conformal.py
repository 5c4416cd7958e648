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
in the closed right half-plane whose outer curve reaches the imaginary
axis (the lens's contains a segment of it), a mirrored basis (every
element minus its Schwarz reflection across the axis) makes u = 1 exact
on the whole axis, which preserves relative accuracy of 1 - |w| for
points exponentially close to that segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .domains import Curve, PlanarDomain, _blocks, _integer
from .errors import ConfigError, SolverError

__all__ = ["AnnulusMap", "canonical_annulus_map"]

# exponents of the Laurent tail about the hole and of the Taylor tail
_LAURENT = np.arange(1, 25)
_TAYLOR = np.arange(1, 49)
# charge counts tried in turn until the boundary deviation between the
# collocation nodes is at most _TOLERANCE
_CHARGES = (64, 128, 256)
_TOLERANCE = 1e-3
_ROWS = 768  # collocation rows per block of the fit's streamed QR


def _powers(x, ks):
    """``x ** k`` for each exponent in ``ks``, along a new last axis, with the bits of an array's ``x ** k``.

    numpy's ``**`` squares an array, while ``np.power`` takes the general power.
    """
    p = np.power(x[..., None], ks)
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
    harmonic space.  A Taylor power about a centre on the axis reflects to (-1)^k
    times itself, so its pair keeps g - g~ for odd k and i*(g + g~) for even k,
    the other member being identically 0.
    """

    z_h: complex
    r_h: float
    z_c: complex
    r_c: float
    poles: np.ndarray
    strengths: np.ndarray
    mirrored: bool

    @property
    def live(self) -> np.ndarray:
        """Indices of the pair columns that are not identically zero: the columns the basis gives."""
        cols = np.arange(2 * (len(_LAURENT) + len(_TAYLOR) + len(self.poles)))
        return np.delete(cols, 2 * (len(_LAURENT) + _TAYLOR - 1) + _TAYLOR % 2) if self.mirrored else cols

    def _raw(self, z, deriv: bool):
        dq = z[..., None] - self.poles
        if deriv:
            poles = -self.strengths / np.square(dq)
        else:
            poles = self.strengths / dq
        dz = z - self.z_h
        laurent = _powers(self.r_h / dz, _LAURENT)
        v = (z - self.z_c) / self.r_c
        if not deriv:
            return np.concatenate([laurent, _powers(v, _TAYLOR), poles], axis=-1)
        return np.concatenate([
            -_LAURENT * laurent / dz[..., None],
            (_TAYLOR / self.r_c) * _powers(v, _TAYLOR - 1),
            poles,
        ], axis=-1)

    def __call__(self, z, deriv: bool = False):
        """The columns (or their derivatives) at ``z``, along a new last axis."""
        g = self._raw(z, deriv)
        out = np.empty(g.shape[:-1] + (2 * g.shape[-1],), dtype=complex)
        if not self.mirrored:
            out[..., 0::2] = g
            out[..., 1::2] = 1j * g
            return out
        # the reflection h(z) = conj(g(-conj(z))) has h'(z) = -conj(g'(-conj(z)))
        h = np.conj(self._raw(-np.conj(z), deriv))
        if deriv:
            h = -h
        out[..., 0::2] = g - h
        out[..., 1::2] = 1j * (g + h)
        return out[..., self.live]

    def fold(self, coef: np.ndarray, z, deriv: bool = False):
        """Sum_j coef_j g_j(z), added left to right over the columns, in row blocks; a lone point is a one-row block."""
        flat = z.ravel()
        out = np.empty(len(flat), dtype=complex)
        for rows in _blocks(len(flat), len(self.live)):
            out[rows] = np.cumsum(coef * self(flat[rows], deriv), axis=-1)[:, -1]
        return out.reshape(z.shape)


@dataclass
class AnnulusMap:
    """Conformal equivalence of a ring domain with {modulus < |w| < 1}.

    ``boundary_deviation`` is the largest distance of |w| from 1 on the
    outer curve and from ``modulus`` on the hole, measured halfway between
    the collocation nodes.  ``residual`` is the 2-norm of the fit's residual
    at the collocation nodes, which bounds its largest entry.
    """

    modulus: float
    residual: float
    mirrored: bool
    boundary_deviation: float
    _basis: _Basis = field(repr=False)
    _coef: np.ndarray = field(repr=False)
    _a: float = field(repr=False)
    _shift: float = field(repr=False)

    def _prefactor(self, z):
        """The branch-free factor (z - z_h), or its mirrored ratio."""
        z_h = self._basis.z_h
        if self.mirrored:
            return (z - z_h) / (z + np.conj(z_h))
        return z - z_h

    def _exponent(self, z):
        return (self._shift + self._basis.fold(self._coef, z)) / self._a

    def forward(self, z):
        """Map domain points to the standard annulus."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()  # a lone point as one row: numpy's scalar complex product rounds differently
        return (self._prefactor(flat) * np.exp(self._exponent(flat))).reshape(z.shape)[()]

    def forward_gap(self, z):
        """Return (|w|, 1 - |w|) with the gap evaluated without cancellation."""
        z = np.asarray(z, dtype=complex)
        logw = np.log(np.abs(self._prefactor(z))) + self._exponent(z).real
        gap = -np.expm1(logw)
        return np.exp(logw), gap

    def derivative(self, z):
        """dw/dz at domain points."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()  # as in ``forward``
        z_h = self._basis.z_h
        dlog = 1.0 / (flat - z_h) + self._basis.fold(self._coef, flat, deriv=True) / self._a
        if self.mirrored:
            dlog = dlog - 1.0 / (flat + np.conj(z_h))
        return (self.forward(flat) * dlog).reshape(z.shape)[()]


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


def _matrix(basis: _Basis, pts, rhs) -> np.ndarray:
    """The least-squares rows at the collocation points ``pts``: the constant (plain basis only), the log term, ``basis``, then the right-hand side ``rhs``."""
    off = 0 if basis.mirrored else 1
    A = np.empty((len(pts), off + 2 + len(basis.live)))
    A[:, :off] = 1.0
    A[:, off] = np.log(np.abs(pts - basis.z_h))
    if basis.mirrored:
        A[:, off] = A[:, off] - np.log(np.abs(pts + np.conj(basis.z_h)))
    for rows in _blocks(len(pts), len(basis.live)):
        A[rows, off + 1:-1] = basis(pts[rows]).real
    A[:, -1] = rhs
    return A


def _fit(basis: _Basis, pts, rhs) -> AnnulusMap:
    """Least-squares harmonic measure in ``basis`` at the collocation points ``pts``; deviation not yet measured.

    [A | rhs] goes ``_ROWS`` rows at a time into the R = [[R11, r], [0, rho]] of a Householder QR, so A is never whole;
    c solves R11 c = r truncated as ``lstsq(A, rhs)`` truncates, and |A c - rhs| = hypot(|R11 c - r|, rho).
    """
    R = _matrix(basis, pts[:0], rhs[:0])  # no rows yet
    for s in range(0, len(pts), _ROWS):
        R = np.linalg.qr(np.vstack([R, _matrix(basis, pts[s:s + _ROWS], rhs[s:s + _ROWS])]), mode="r")
    n = R.shape[1] - 1
    coef, *_ = np.linalg.lstsq(R[:n, :n], R[:n, n], rcond=np.finfo(float).eps * len(pts))
    residual = float(np.hypot(np.linalg.norm(R[:n, :n] @ coef - R[:n, n]), R[n, n]))

    mirror = basis.mirrored
    off = 0 if mirror else 1
    a = float(coef[off])
    if a <= 0:
        raise SolverError(f"log coefficient a={a:.3e} not positive; solve inconsistent")
    shift = 0.0 if mirror else float(coef[0]) - 1.0
    return AnnulusMap(float(np.exp(-1.0 / a)), residual, mirror, np.inf,
                      basis, coef[off + 1:], a, shift)


def canonical_annulus_map(dom: PlanarDomain, resolution: int = 1) -> AnnulusMap:
    """Conformal map of a connectivity-2 planar domain onto a round annulus.

    ``resolution`` refines the boundary collocation by that factor, which
    supports Cauchy-stability checks of the recovered modulus.  The number
    of charges doubles until the boundary deviation halfway between the
    collocation nodes is at most ``_TOLERANCE``.  Each domain builds its map
    at a given resolution once: later calls return the same map.
    """
    if dom.connectivity != 2:
        raise ConfigError(f"need connectivity 2, got {dom.connectivity}")
    resolution = _integer(resolution, "resolution", 1)
    if resolution not in dom._conformal_maps:
        dom._conformal_maps[resolution] = _build(dom, resolution)
    return dom._conformal_maps[resolution]


def _build(dom: PlanarDomain, resolution: int) -> AnnulusMap:
    """The map that ``canonical_annulus_map`` memoises, fitted afresh."""
    outer = dom.outer if resolution == 1 else dom.outer.refined(resolution)
    hole = dom.holes[0] if resolution == 1 else dom.holes[0].refined(resolution)
    zo = outer.points()
    zi = hole.points()
    if len(zo) < 1024 or len(zi) < 256:
        raise ConfigError("boundary resolution too low for the harmonic solve")
    # read from the curve, not the name, so that an unnamed domain with the lens's curve gets the same basis
    mirror = bool(-1e-12 <= zo.real.min() < 1e-9)
    z_h = complex(np.mean(zi))
    r_h = float(np.mean(np.abs(zi - z_h)))
    z_c = complex(np.mean(zo))
    r_c = float(np.max(np.abs(zo - z_c)))
    if mirror:
        z_c = complex(0.0, z_c.imag)  # keep the Taylor center on the axis
    pts = np.concatenate([zo, zi])
    rhs = np.concatenate([np.ones(len(zo)), np.zeros(len(zi))])
    if mirror:
        rhs = rhs - 1.0  # u = 1 + (mirrored combination)
    mid_o, mid_i = _midpoints(outer), _midpoints(hole)

    for charges in _CHARGES:
        basis = _Basis(z_h, r_h, z_c, r_c, *_outer_charges(dom, zo, charges, mirror), mirror)
        amap = _fit(basis, pts, rhs)
        # boundary correspondence: outer -> |w| = 1, hole -> |w| = modulus
        out_dev = float(np.max(np.abs(np.abs(amap.forward(mid_o)) - 1.0)))
        in_dev = float(np.max(np.abs(np.abs(amap.forward(mid_i)) - amap.modulus)))
        if max(out_dev, in_dev) <= _TOLERANCE:
            return replace(amap, boundary_deviation=max(out_dev, in_dev))
    raise SolverError(f"boundary correspondence failed with {charges} charges: "
                      f"outer dev {out_dev:.2e}, hole dev {in_dev:.2e}")
