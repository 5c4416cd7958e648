"""Exact geometry of the unit ball in complex n-space.

Axis Moebius automorphisms, unitary alignment of a point onto the positive
first axis, the Kobayashi distance of the ball, and the algebraic norm
identity behind the inscribed-radius bound for the recentred embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "BallAutomorphism",
    "as_point",
    "psi_apply",
    "psi_invert",
    "unitary_align",
    "kobayashi_ball",
    "norm_psi_identity",
    "lemma25_bound",
    "sphere_samples",
]


def _as_points(z) -> np.ndarray:
    """Coerce ``z`` to one point ``(n,)`` or rows ``(m, n)`` of C^n and validate finiteness."""
    p = np.atleast_1d(np.asarray(z, dtype=complex))
    if p.ndim > 2 or p.shape[-1] < 1:
        raise DomainError("points of C^n must be an (n,) or (m, n) array with n >= 1")
    if not np.all(np.isfinite(p)):
        raise DomainError("point has non-finite coordinates")
    return p


def as_point(z) -> np.ndarray:
    """Coerce ``z`` to a 1-d complex array and validate finiteness."""
    p = _as_points(z)
    if p.ndim != 1:
        raise DomainError("a point of C^n must be a 1-d array with n >= 1")
    return p


def _check_r(r: float) -> float:
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"translation parameter r={r} outside [0, 1)")
    return r


def _check_in_ball(z: np.ndarray, what: str = "point") -> np.ndarray:
    norms = np.linalg.norm(z, axis=-1)
    if np.any(norms >= 1.0):
        raise DomainError(f"{what} has norm {np.max(norms):.17g} >= 1")
    return z


def psi_apply(r: float, z) -> np.ndarray:
    """Axis Moebius automorphism of the unit ball.

    Maps (r, 0, ..., 0) to the origin:
    w = ((z1 - r)/(1 - z1 r), sqrt(1-r^2) z2/(1 - z1 r), ...).
    ``z`` is one point ``(n,)`` or rows ``(m, n)``; each row maps on its own.
    """
    r = _check_r(r)
    z = _check_in_ball(_as_points(z))
    denom = 1.0 - z[..., 0] * r
    w = np.empty_like(z)
    w[..., 0] = (z[..., 0] - r) / denom
    w[..., 1:] = np.sqrt(1.0 - r * r) * z[..., 1:] / denom[..., None]
    return w


def psi_invert(r: float, w) -> np.ndarray:
    """Inverse of :func:`psi_apply`; algebraically the same map with -r."""
    r = _check_r(r)
    w = _check_in_ball(_as_points(w))
    denom = 1.0 + w[..., 0] * r
    z = np.empty_like(w)
    z[..., 0] = (w[..., 0] + r) / denom
    z[..., 1:] = np.sqrt(1.0 - r * r) * w[..., 1:] / denom[..., None]
    return z


def unitary_align(p) -> np.ndarray:
    """Unitary U with U p = (||p||, 0, ..., 0).

    Built from a QR factorisation whose first column is fixed to p/||p||
    with the phase normalised away.
    """
    p = as_point(p)
    norm = np.linalg.norm(p)
    if norm == 0.0:
        raise DomainError("cannot align the zero vector: undefined direction")
    n = p.size
    a = np.concatenate([p[:, None], np.eye(n, dtype=complex)], axis=1)
    q, rmat = np.linalg.qr(a)
    # q[:,0] = p / rmat[0,0]; rotate the column so it equals p-hat exactly.
    phase = rmat[0, 0] / abs(rmat[0, 0])
    q[:, 0] *= phase
    return q.conj().T


def kobayashi_ball(z, w) -> float:
    """Kobayashi distance of the unit ball.

    d(0, z) = (1/2) log((1 + ||z||)/(1 - ||z||)); general pairs by moving
    w to the origin with a unitary followed by an axis Moebius map.
    """
    z = _check_in_ball(as_point(z), "first point")
    w = _check_in_ball(as_point(w), "second point")
    if z.size != w.size:
        raise DomainError("points live in different dimensions")
    nw = np.linalg.norm(w)
    if nw == 0.0:
        s = np.linalg.norm(z)
    else:
        u = unitary_align(w)
        s = np.linalg.norm(psi_apply(nw, u @ z))
    return float(np.arctanh(min(s, 1.0 - 1e-17)))


def norm_psi_identity(r: float, z) -> tuple[float, float]:
    """Two independent evaluations of ||psi_r(z)||^2.

    lhs sums the squared moduli of the image components; rhs is the closed
    form 1 - (1-r^2)(1-||z||^2)/|1 - z1 r|^2.  Both are evaluated in
    extended precision so the comparison isolates the algebra, not
    round-off near r, ||z|| -> 1.
    """
    r = _check_r(r)
    z = _check_in_ball(as_point(z))
    x = z.real.astype(np.longdouble)
    y = z.imag.astype(np.longdouble)
    rl = np.longdouble(r)
    den = (1.0 - x[0] * rl) ** 2 + (y[0] * rl) ** 2
    one_m_r2 = (1.0 - rl) * (1.0 + rl)
    # direct route
    num1 = (x[0] - rl) ** 2 + y[0] ** 2
    tail = np.sum(x[1:] ** 2 + y[1:] ** 2)
    lhs = (num1 + one_m_r2 * tail) / den
    # closed-form route
    nz2 = np.sum(x**2 + y**2)
    rhs = 1.0 - one_m_r2 * (1.0 - nz2) / den
    return float(lhs), float(rhs)


@dataclass(frozen=True)
class BallAutomorphism:
    """Axis Moebius map preceded by a unitary rotation.

    ``apply`` sends ``align^-1 (r, 0, .., 0)`` to the origin.  ``apply`` and
    ``invert`` take one point ``(n,)`` or rows ``(m, n)``.
    """

    r: float
    align: np.ndarray

    def __post_init__(self):
        _check_r(self.r)
        a = np.asarray(self.align, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError("alignment must be a square matrix")
        dev = np.max(np.abs(a @ a.conj().T - np.eye(a.shape[0])))
        if dev > 1e-12:
            raise ConfigError(f"alignment not unitary: deviation {dev:.3e}")
        object.__setattr__(self, "align", a)

    @classmethod
    def centering(cls, p) -> "BallAutomorphism":
        """The automorphism sending the interior point p to the origin."""
        p = _check_in_ball(as_point(p))
        norm = float(np.linalg.norm(p))
        if norm == 0.0:
            return cls(0.0, np.eye(p.size, dtype=complex))
        return cls(norm, unitary_align(p))

    # The stacked matrix-vector product rotates every row exactly as
    # ``align @ z`` rotates one point; ``z @ align.T`` may differ in the last bits.
    def apply(self, z) -> np.ndarray:
        z = _check_in_ball(_as_points(z))
        return psi_apply(self.r, np.matmul(self.align, z[..., None])[..., 0])

    def invert(self, w) -> np.ndarray:
        z = psi_invert(self.r, w)
        return np.matmul(self.align.conj().T, z[..., None])[..., 0]


def sphere_samples(n: int, count: int, radius: float, seed: int) -> np.ndarray:
    """Deterministic uniform samples on the sphere of given radius in C^n."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 2 * n))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return radius * (v[:, :n] + 1j * v[:, n:])


def _psi_norms_batch(r: float, zs: np.ndarray) -> np.ndarray:
    """Vectorised ||psi_r(z)|| for an array of points (rows)."""
    denom = np.abs(1.0 - zs[:, 0] * r) ** 2
    num = np.abs(zs[:, 0] - r) ** 2 + (1.0 - r * r) * np.sum(
        np.abs(zs[:, 1:]) ** 2, axis=1
    )
    return np.sqrt(num / denom)


def lemma25_bound(
    C: float,
    eps: float,
    d: float,
    r: float | None = None,
    sphere_count: int = 10_000,
    dim: int = 2,
    seed: int = 0,
) -> dict:
    """Inscribed-radius margin sweep for the recentring automorphism.

    Samples the sphere ||z|| = 1 - 2 eps d and reports the minimum of
    ||psi_r(z)|| - (1 - 6 C eps) together with the intermediate squared
    bound 1 - 10 C eps.  Admissible r means r <= 1 - d/C: that is the
    restriction the inequality chain actually consumes (through
    1/(1-r) <= C/d); under the weaker confinement radius 1 - d/exp(2C)
    the final bound is numerically false, so that range is rejected here.
    """
    c = float(C)
    if not c > 0:
        raise ConfigError(f"C must be positive, got {c}")
    if eps <= 0 or eps > 1.0 / (18.0 * c) + 1e-15:
        raise ConfigError(
            f"eps={eps} outside (0, 1/(18C)] = (0, {1.0 / (18.0 * c):.6g}]"
        )
    if d <= 0 or 1.0 - 2.0 * eps * d <= 0:
        raise ConfigError("d must satisfy 0 < d and 2*eps*d < 1")
    r_max = 1.0 - d / c
    if r is None:
        r = max(r_max, 0.0)
    if r < 0 or r >= 1:
        raise ConfigError(f"r={r} outside [0, 1)")
    if r > r_max + 1e-14:
        raise ConfigError(f"r={r} exceeds the admissible bound 1 - d/C = {r_max}")

    radius = 1.0 - 2.0 * eps * d
    zs = sphere_samples(dim, sphere_count, radius, seed)
    norms = _psi_norms_batch(r, zs)
    floor = 1.0 - 6.0 * c * eps
    floor_sq = 1.0 - 10.0 * c * eps

    # closed-form worst case: z1 = ||z|| real positive
    worst = np.zeros(dim, dtype=complex)
    worst[0] = radius
    worst_norm = _psi_norms_batch(r, worst[None, :])[0]

    margins = norms - floor
    sq_margins = norms**2 - floor_sq
    return {
        "C": c,
        "eps": eps,
        "d": d,
        "r": r,
        "radius": radius,
        "min_margin": float(np.min(margins)),
        "min_margin_sq": float(np.min(sq_margins)),
        "worst_axis_margin": float(worst_norm - floor),
        "worst_axis_margin_sq": float(worst_norm**2 - floor_sq),
        "samples": int(sphere_count),
    }
