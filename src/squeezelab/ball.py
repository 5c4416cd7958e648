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


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex ``(m, n)`` array, bit for bit.

    That norm takes one dot product of the real parts and one of the
    imaginary parts; ``np.vecdot`` runs the same dot product on each row.
    """
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _as_points(z) -> np.ndarray:
    """Coerce ``z`` to one point ``(n,)`` or rows ``(m, n)`` of C^n and validate finiteness."""
    p = np.asarray(z, dtype=complex)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim > 2 or p.shape[-1] < 1:
        raise DomainError("points of C^n must be an (n,) or (m, n) array with n >= 1")
    if not np.isfinite(p).all():
        raise DomainError("point has non-finite coordinates")
    return p


def as_point(z) -> np.ndarray:
    """Coerce ``z`` to a 1-d complex array and validate finiteness."""
    p = _as_points(z)
    if p.ndim != 1:
        raise DomainError("a point of C^n must be a 1-d array with n >= 1")
    return p


def _check_r(r):
    """``r`` as a float, or as an array with one value per row; each must lie in [0, 1)."""
    if np.ndim(r) == 0:
        r = float(r)
        if not 0.0 <= r < 1.0:
            raise DomainError(f"translation parameter r={r} outside [0, 1)")
        return r
    a = np.asarray(r, dtype=float)
    bad = ~((0.0 <= a) & (a < 1.0))
    if bad.any():
        raise DomainError(f"translation parameter r={a[bad][0]} outside [0, 1)")
    return a


def _check_in_ball(z: np.ndarray, what: str = "point") -> np.ndarray:
    # the squared norms of ``np.linalg.norm(z, axis=-1)``; a double's square
    # root is >= 1 exactly when the double is, so no root is needed to decide
    sq = np.add.reduce((z.conj() * z).real, axis=-1)
    if (sq >= 1.0).any():
        raise DomainError(f"{what} has norm {np.sqrt(np.max(sq)):.17g} >= 1")
    return z


def psi_apply(r, z) -> np.ndarray:
    """Axis Moebius automorphism of the unit ball.

    Maps (r, 0, ..., 0) to the origin:
    w = ((z1 - r)/(1 - z1 r), sqrt(1-r^2) z2/(1 - z1 r), ...).
    ``z`` is one point ``(n,)`` or rows ``(m, n)``; each row maps on its own,
    by the one ``r`` or by its own entry of an array of ``m`` values.
    """
    return _moebius(_check_r(r), _check_in_ball(_as_points(z)))


def psi_invert(r, w) -> np.ndarray:
    """Inverse of :func:`psi_apply`: the same map with -r."""
    return _moebius(-_check_r(r), _check_in_ball(_as_points(w)))


def _moebius(r, z: np.ndarray) -> np.ndarray:
    """The axis Moebius map of :func:`psi_apply` on checked ``r`` (any sign) and ``z``."""
    denom = 1.0 - z[..., 0] * r
    w = np.empty_like(z)
    w[..., 0] = (z[..., 0] - r) / denom
    w[..., 1:] = np.sqrt(1.0 - r * r)[..., None] * z[..., 1:] / denom[..., None]
    return w


def unitary_align(p) -> np.ndarray:
    """Unitary U with U p = (||p||, 0, ..., 0)."""
    p = as_point(p)
    if np.linalg.norm(p) == 0.0:
        raise DomainError("cannot align the zero vector: undefined direction")
    return _align_rows(p[None])[0]


def _align_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`unitary_align` of each nonzero row of ``(m, n)``, an ``(m, n, n)`` stack.

    Built from one stacked QR factorisation whose first column is fixed to
    p/||p|| with the phase normalised away; each row gets the bits of its
    one-point call.
    """
    m, n = rows.shape
    a = np.empty((m, n, n + 1), dtype=complex)
    a[:, :, 0] = rows
    a[:, :, 1:] = np.eye(n)
    q, rmat = np.linalg.qr(a)
    # q[:, 0] = p / rmat[0, 0]; rotate the column so it equals p-hat exactly.
    phase = rmat[:, 0, 0] / abs(rmat[:, 0, 0])
    q[:, :, 0] *= phase[:, None]
    return q.conj().swapaxes(-1, -2)


def kobayashi_ball(z, w) -> float:
    """Kobayashi distance of the unit ball.

    d(0, z) = (1/2) log((1 + ||z||)/(1 - ||z||)); general pairs by moving
    w to the origin with ``BallAutomorphism.centering(w)``.
    """
    z = _check_in_ball(as_point(z), "first point")
    w = _check_in_ball(as_point(w), "second point")
    if z.size != w.size:
        raise DomainError("points live in different dimensions")
    s = np.linalg.norm(BallAutomorphism.centering(w).apply(z))
    return float(np.arctanh(min(s, 1.0 - 1e-17)))


def norm_psi_identity(r: float, z) -> tuple[float, float]:
    """Two independent evaluations of ||psi_r(z)||^2.

    lhs sums the squared moduli of the image components; rhs is the closed
    form 1 - (1-r^2)(1-||z||^2)/|1 - z1 r|^2.  Both are evaluated in
    extended precision so the comparison isolates the algebra, not
    round-off near r, ||z|| -> 1.
    """
    r = _check_r(r)
    z = _check_in_ball(as_point(z)).astype(np.clongdouble)
    x, y = z.real, z.imag
    rl = np.longdouble(r)
    den = (1.0 - x[0] * rl) ** 2 + (y[0] * rl) ** 2
    one_m_r2 = (1.0 - rl) * (1.0 + rl)
    sq = x**2 + y**2
    # direct route
    num1 = (x[0] - rl) ** 2 + y[0] ** 2
    lhs = (num1 + one_m_r2 * np.add.reduce(sq[1:])) / den
    # closed-form route
    rhs = 1.0 - one_m_r2 * (1.0 - np.add.reduce(sq)) / den
    return float(lhs), float(rhs)


@dataclass(frozen=True)
class BallAutomorphism:
    """Axis Moebius map preceded by a unitary rotation.

    ``apply`` sends ``align^-1 (r, 0, .., 0)`` to the origin.  ``apply`` and
    ``invert`` take one point ``(n,)`` or rows ``(m, n)``.  A stack of ``m``
    automorphisms has one ``r`` per row and ``align`` of shape ``(m, n, n)``,
    and maps row i of ``(m, n)`` by automorphism i.
    """

    r: float | np.ndarray
    align: np.ndarray

    def __post_init__(self):
        r = _check_r(self.r)
        a = np.asarray(self.align, dtype=complex)
        if a.shape[:-2] != np.shape(r) or a.ndim < 2 or a.shape[-2] != a.shape[-1]:
            raise ConfigError("alignment must be a square matrix, or a stack of them with one per r")
        n = a.shape[-1]
        # the largest row norm of a a^H - I over the stack
        dev = np.max(_row_norms((a @ a.conj().swapaxes(-1, -2) - np.eye(n)).reshape(-1, n)), initial=0.0)
        if dev > 1e-12:
            raise ConfigError(f"alignment not unitary: deviation {dev:.3e}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "align", a)

    @classmethod
    def centering(cls, p) -> "BallAutomorphism":
        """The automorphism sending the interior point p to the origin; rows ``(m, n)`` give a stack, one per row.

        ``r`` is the norm of p, and a zero p gets r = 0 and the identity.
        Each row gets the bits of its one-point call.
        """
        p = _check_in_ball(_as_points(p))
        rows = np.atleast_2d(p)
        r = _row_norms(rows)
        zero = r == 0.0
        align = _align_rows(np.where(zero[:, None], 1.0, rows))  # a zero row aligns a stand-in
        align[zero] = np.eye(rows.shape[1])
        return cls(float(r[0]), align[0]) if p.ndim == 1 else cls(r, align)

    # The stacked matrix-vector product rotates every row exactly as
    # ``align @ z`` rotates one point; ``z @ align.T`` may differ in the last bits.
    def apply(self, z) -> np.ndarray:
        z = _check_in_ball(_as_points(z))
        return psi_apply(self.r, np.matmul(self.align, z[..., None])[..., 0])

    def invert(self, w) -> np.ndarray:
        z = psi_invert(self.r, w)
        return np.matmul(self.align.conj().swapaxes(-1, -2), z[..., None])[..., 0]


def sphere_samples(n: int, count: int, radius: float, seed: int) -> np.ndarray:
    """Deterministic uniform samples on the sphere of given radius in C^n."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 2 * n))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return radius * (v[:, :n] + 1j * v[:, n:])


def lemma25_bound(C: float, eps: float, d: float, r: float) -> dict:
    """Inscribed-radius margin of the recentring automorphism, in closed form.

    On the sphere ||z|| = rho = 1 - 2 eps d, ||psi_r(z)||^2 =
    1 - (1 - r^2)(1 - rho^2)/|1 - r z1|^2 is least at z1 = rho, where
    ||psi_r(z)|| = |rho - r|/(1 - r rho).  Reports that minimum minus
    1 - 6 C eps, and its square minus the intermediate bound 1 - 10 C eps.
    Admissible r means r <= 1 - d/C: that is the restriction the inequality
    chain actually consumes (through 1/(1-r) <= C/d); under the weaker
    confinement radius 1 - d/exp(2C) the final bound is numerically false,
    so that range is rejected here.
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
    if r < 0 or r >= 1:
        raise ConfigError(f"r={r} outside [0, 1)")
    if r > r_max + 1e-14:
        raise ConfigError(f"r={r} exceeds the admissible bound 1 - d/C = {r_max}")

    radius = 1.0 - 2.0 * eps * d
    worst_norm = abs(radius - r) / (1.0 - r * radius)
    return {
        "C": c,
        "eps": eps,
        "d": d,
        "r": r,
        "radius": radius,
        "min_margin": float(worst_norm - (1.0 - 6.0 * c * eps)),
        "min_margin_sq": float(worst_norm**2 - (1.0 - 10.0 * c * eps)),
        "evidence": "closed form",
    }
