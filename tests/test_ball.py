"""Unit ball automorphisms, the distance formula, and the norm identity.

Oracles: the one-dimensional Moebius/Poincare closed forms, evaluated
independently of the implementation under test.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab.ball import (
    BallAutomorphism,
    kobayashi_ball,
    lemma25_bound,
    norm_psi_identity,
    psi_apply,
    psi_invert,
    sphere_samples,
)
from squeezelab.errors import ConfigError, DomainError


def random_ball_point(rng, n, rmax=0.999):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    return v * rmax * rng.uniform() ** (1.0 / (2 * n))


class TestAxisMoebius:
    def test_fixed_point_structure(self):
        # one-dimensional oracle: psi_r(z) = (r - z)/(1 - r z) up to sign
        for r in (0.0, 0.3, 0.9, 1 - 1e-8):
            img = psi_apply(r, np.array([r + 0j]))
            np.testing.assert_allclose(np.abs(img), 0.0, atol=1e-14)

    def test_matches_scalar_moebius_on_axis(self, rng):
        for _ in range(200):
            r = rng.uniform(0, 0.99)
            x = rng.uniform(-0.99, 0.99)
            img = psi_apply(r, np.array([x + 0j]))
            oracle = (x - r) / (1.0 - x * r)
            np.testing.assert_allclose(img[0].real, oracle, atol=1e-13)
            assert abs(img[0].imag) < 1e-15

    def test_roundtrip(self, rng):
        for n in (1, 2, 3):
            for _ in range(100):
                r = rng.uniform(0, 0.999)
                z = random_ball_point(rng, n)
                back = psi_invert(r, psi_apply(r, z))
                np.testing.assert_allclose(back, z, atol=1e-12)

    def test_rejects_exterior_points(self):
        with pytest.raises(DomainError):
            psi_apply(0.5, np.array([1.0 + 0j, 0.5]))
        with pytest.raises(DomainError):
            psi_apply(1.5, np.array([0.0 + 0j]))


class TestUnitaryAlign:
    def test_sends_point_to_positive_axis(self, rng):
        for n in (1, 2, 3):
            for _ in range(50):
                p = random_ball_point(rng, n)
                u = BallAutomorphism.centering(p).align
                img = u @ p
                np.testing.assert_allclose(img[0], np.linalg.norm(p), atol=1e-13)
                np.testing.assert_allclose(img[1:], 0.0, atol=1e-13)
                np.testing.assert_allclose(
                    u @ u.conj().T, np.eye(n), atol=1e-13
                )


class TestKobayashiBall:
    def test_origin_formula(self):
        # d(0, s e1) = arctanh(s); independent series check at s = 0.5
        s = 0.5
        oracle = 0.5 * np.log((1 + s) / (1 - s))
        assert kobayashi_ball(np.zeros(2), np.array([s, 0.0])) == pytest.approx(
            oracle, abs=1e-14
        )
        assert oracle == pytest.approx(0.5493061443340549, abs=1e-12)

    def test_one_dim_matches_poincare(self, rng):
        for _ in range(300):
            a = random_ball_point(rng, 1)[0]
            b = random_ball_point(rng, 1)[0]
            m = abs((a - b) / (1 - np.conj(b) * a))
            oracle = float(np.arctanh(m))
            got = kobayashi_ball(np.array([a]), np.array([b]))
            np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_symmetry_and_automorphism_invariance(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 4))
            z, w, p = (random_ball_point(rng, n) for _ in range(3))
            d = kobayashi_ball(z, w)
            assert d == pytest.approx(kobayashi_ball(w, z), abs=1e-11)
            aut = BallAutomorphism.centering(p)
            d2 = kobayashi_ball(aut.apply(z), aut.apply(w))
            np.testing.assert_allclose(d2, d, atol=1e-10)

    def test_triangle_inequality(self, rng):
        violations = 0
        for _ in range(300):
            n = int(rng.integers(1, 4))
            a, b, c = (random_ball_point(rng, n) for _ in range(3))
            if kobayashi_ball(a, c) > kobayashi_ball(a, b) + kobayashi_ball(b, c) + 1e-10:
                violations += 1
        assert violations == 0


class TestNormIdentity:
    def test_random_points(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 4))
            r = rng.uniform(0, 1 - 1e-6)
            z = random_ball_point(rng, n)
            lhs, rhs = norm_psi_identity(r, z)
            assert abs(lhs - rhs) < 1e-13

    def test_matches_actual_norm(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 4))
            r = rng.uniform(0, 0.999)
            z = random_ball_point(rng, n)
            lhs, _ = norm_psi_identity(r, z)
            direct = float(np.linalg.norm(psi_apply(r, z)) ** 2)
            np.testing.assert_allclose(lhs, direct, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        r=st.floats(0.0, 1.0 - 1e-9),
        x=st.floats(-0.999, 0.999),
        y=st.floats(-0.7, 0.7),
    )
    def test_identity_property(self, r, x, y):
        if x * x + y * y >= 0.999:
            return
        lhs, rhs = norm_psi_identity(r, np.array([x + 1j * y]))
        assert abs(lhs - rhs) < 1e-12


class TestBallAutomorphism:
    def test_centering_sends_point_to_origin(self, rng):
        for n in (1, 2, 3):
            p = random_ball_point(rng, n)
            aut = BallAutomorphism.centering(p)
            np.testing.assert_allclose(aut.apply(p), 0.0, atol=1e-13)
            z = random_ball_point(rng, n)
            np.testing.assert_allclose(aut.invert(aut.apply(z)), z, atol=1e-12)

    def test_rejects_nonunitary_alignment(self):
        with pytest.raises(ConfigError):
            BallAutomorphism(0.5, 2.0 * np.eye(2))


class TestCenteringIsUnitary:
    """``centering`` skips the unitary check of ``__post_init__``; its QR factors must pass it anyway."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacks_deviate_by_at_most_1e_12(self, rng, n):
        p = np.array([random_ball_point(rng, n) for _ in range(200)])
        p[::7] = 0.0
        p[1::11] *= 1e-150  # tiny rows, whose squares underflow
        a = BallAutomorphism.centering(p).align
        dev = np.linalg.norm(a @ a.conj().swapaxes(-1, -2) - np.eye(n), axis=-1)
        assert dev.max() <= 1e-12
        assert np.array_equal(a[::7], np.broadcast_to(np.eye(n), a[::7].shape))

    def test_centering_does_not_run_the_check(self, rng, monkeypatch):
        def refuse(self):
            raise AssertionError("__post_init__ ran")

        monkeypatch.setattr(BallAutomorphism, "__post_init__", refuse)
        aut = BallAutomorphism.centering(random_ball_point(rng, 2))
        assert np.array_equal(aut.apply(np.zeros(2)), [-aut.r, 0.0])

    def test_a_caller_alignment_is_still_checked(self, rng):
        aut = BallAutomorphism.centering(random_ball_point(rng, 3))
        BallAutomorphism(aut.r, aut.align)  # the QR factor passes the caller's check too
        with pytest.raises(ConfigError, match="not unitary"):
            BallAutomorphism(0.5, aut.align * (1.0 + 1e-9))
        with pytest.raises(ConfigError, match="not unitary"):
            BallAutomorphism(0.5, np.array([[1.0, 1.0], [0.0, 1.0]]))


def _ball_rows(data, m, n, rmax=0.999):
    """Hypothesis-drawn complex rows (m, n) strictly inside the ball."""
    coords = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * m * n, max_size=2 * m * n))
    v = np.asarray(coords).reshape(2, m, n)
    z = v[0] + 1j * v[1]
    norms = np.linalg.norm(z, axis=1)
    z[norms == 0.0, 0] = 0.5
    scale = data.draw(st.lists(st.floats(0.0, rmax), min_size=m, max_size=m))
    return z * (np.asarray(scale) / np.linalg.norm(z, axis=1))[:, None]


class TestBatchedAutomorphism:
    """Batched rows must give the per-row results bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 3]), m=st.integers(1, 12))
    def test_batch_equals_rows(self, data, n, m):
        # off-axis centres in C^2 and C^3 exercise a non-trivial rotation
        aut = BallAutomorphism.centering(_ball_rows(data, 1, n)[0])
        z = _ball_rows(data, m, n)
        batch = aut.apply(z)
        assert batch.shape == (m, n)
        assert np.array_equal(batch, np.array([aut.apply(row) for row in z]))
        assert np.array_equal(aut.invert(z), np.array([aut.invert(row) for row in z]))
        assert np.array_equal(psi_apply(aut.r, z), np.array([psi_apply(aut.r, row) for row in z]))
        np.testing.assert_allclose(aut.invert(batch), z, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.sampled_from([2, 3]), m=st.integers(2, 8),
           bad=st.sampled_from([1.0, 1.5, np.nan, np.inf]))
    def test_one_bad_row_rejects_batch(self, data, n, m, bad):
        aut = BallAutomorphism.centering(_ball_rows(data, 1, n)[0])
        z = _ball_rows(data, m, n)
        z[data.draw(st.integers(0, m - 1)), 0] = bad
        with pytest.raises(DomainError):
            aut.apply(z)
        with pytest.raises(DomainError):
            aut.invert(z)


class TestStackedAutomorphism:
    """A stack of centering automorphisms, one per row, must give the one-point results bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 3]), m=st.integers(1, 8))
    def test_stacked_centering_equals_rows(self, data, n, m):
        p, z = _ball_rows(data, m, n), _ball_rows(data, m, n)
        stack = BallAutomorphism.centering(p)
        assert stack.r.shape == (m,) and stack.align.shape == (m, n, n)
        image, back = stack.apply(z), stack.invert(z)
        for i in range(m):
            one = BallAutomorphism.centering(p[i])
            assert type(one.r) is float and one.r == stack.r[i]
            assert np.array_equal(one.align, stack.align[i])
            assert np.array_equal(one.apply(z[i]), image[i])
            assert np.array_equal(one.invert(z[i]), back[i])
        assert np.array_equal(psi_apply(stack.r, z), np.array([psi_apply(r, row) for r, row in zip(stack.r, z)]))
        assert np.array_equal(psi_invert(stack.r, z), np.array([psi_invert(r, row) for r, row in zip(stack.r, z)]))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 3]), m=st.integers(1, 8))
    def test_zero_row_gets_the_identity(self, data, n, m):
        p, z = _ball_rows(data, m, n), _ball_rows(data, m, n)
        zero = data.draw(st.integers(0, m - 1))
        p[zero] = 0.0
        stack = BallAutomorphism.centering(p)
        assert stack.r[zero] == 0.0
        assert np.array_equal(stack.align[zero], np.eye(n))
        assert np.array_equal(stack.apply(z)[zero], z[zero])
        one = BallAutomorphism.centering(p[zero])
        assert one.r == 0.0 and np.array_equal(one.align, np.eye(n))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 3]), m=st.integers(1, 8),
           scale=st.sampled_from([0.5, 1.0 + 1e-9, 2.0]))
    def test_one_nonunitary_matrix_rejects_stack(self, data, n, m, scale):
        stack = BallAutomorphism.centering(_ball_rows(data, m, n))
        align = stack.align.copy()
        align[data.draw(st.integers(0, m - 1))] *= scale
        with pytest.raises(ConfigError, match="not unitary"):
            BallAutomorphism(stack.r, align)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 3]), m=st.integers(1, 8),
           bad=st.sampled_from([-0.1, 1.0, 1.5, np.nan, np.inf]))
    def test_one_bad_r_rejects_stack(self, data, n, m, bad):
        z = _ball_rows(data, m, n)
        stack = BallAutomorphism.centering(z)
        r = stack.r.copy()
        r[data.draw(st.integers(0, m - 1))] = bad
        with pytest.raises(DomainError, match="outside"):
            BallAutomorphism(r, stack.align)
        with pytest.raises(DomainError, match="outside"):
            psi_apply(r, z)
        with pytest.raises(DomainError, match="outside"):
            psi_invert(r, z)


class TestFrozenBits:
    def test_distance_and_inverse_keep_their_bits(self):
        # zero points on either side, n = 1..4, points within 1e-9 of the sphere, one r and stacked r
        rng = np.random.default_rng(18)
        parts = []
        for n in (1, 2, 3, 4):
            pts = np.array([random_ball_point(rng, n, rmax) for rmax in [0.999] * 36 + [1 - 1e-9] * 4])
            pts[::8] = 0.0
            parts += [kobayashi_ball(z, w) for z, w in zip(pts, pts[::-1])]
            parts += [kobayashi_ball(pts[1], pts[1])]
            r = rng.uniform(0.0, 0.999, len(pts))
            r[::5] = 0.0
            parts += [psi_invert(r[1], pts), psi_invert(r, pts)]
            parts += [psi_invert(ri, p) for ri, p in zip(r, pts)]
        digest = hashlib.sha256(b"".join(np.asarray(p).tobytes() for p in parts)).hexdigest()
        assert digest == "218e0f2c2213f8a3b5b79181e7e0a2106a6013a5f117148efb8664c36a9d3cdb"


class TestSphereSamples:
    def test_radius_and_determinism(self):
        s = sphere_samples(2, 500, 0.75, seed=3)
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 0.75, atol=1e-12)
        np.testing.assert_array_equal(s, sphere_samples(2, 500, 0.75, seed=3))


def _psi_norms_batch(r: float, zs: np.ndarray) -> np.ndarray:
    """Vectorised ||psi_r(z)|| for an array of points (rows)."""
    denom = np.abs(1.0 - zs[:, 0] * r) ** 2
    num = np.abs(zs[:, 0] - r) ** 2 + (1.0 - r * r) * np.sum(
        np.abs(zs[:, 1:]) ** 2, axis=1
    )
    return np.sqrt(num / denom)


class TestInscribedRadiusBound:
    def test_margin_nonnegative_for_admissible_range(self):
        rep = lemma25_bound(1.0, 1.0 / 18.0, 1e-2, r=0.99)
        assert rep["min_margin"] >= 0.0
        assert rep["min_margin_sq"] >= 0.0

    @pytest.mark.parametrize("C, eps, d, r", [(1.0, 1 / 18, 1e-2, 0.99), (0.5, 1 / 36, 1e-3, 0.5),
                                              (2.0, 1 / 36, 1e-1, 0.0), (2.0, 1 / 36, 1e-1, 0.95)])
    def test_margin_is_the_sphere_minimum(self, C, eps, d, r):
        # the closed form is attained at z1 = ||z||, and no sample of the sphere goes below it
        rep = lemma25_bound(C, eps, d, r=r)
        assert rep["evidence"] == "closed form"
        floor = 1.0 - 6.0 * C * eps
        axis = np.zeros((1, 2), dtype=complex)
        axis[0, 0] = rep["radius"]
        norms = _psi_norms_batch(r, np.vstack([axis, sphere_samples(2, 20_000, rep["radius"], seed=3)]))
        assert rep["min_margin"] == pytest.approx(norms[0] - floor, abs=1e-15)
        assert rep["min_margin"] <= np.min(norms[1:]) - floor + 1e-15
        assert rep["min_margin_sq"] == pytest.approx(norms[0] ** 2 - (1.0 - 10.0 * C * eps), abs=1e-15)

    def test_rejects_oversized_eps(self):
        with pytest.raises(ConfigError):
            lemma25_bound(1.0, 0.1, 1e-2, r=0.9)

    def test_rejects_r_beyond_admissible_radius(self):
        # 1 - d/C is the largest r the inequality chain supports
        with pytest.raises(ConfigError):
            lemma25_bound(1.0, 1.0 / 18.0, 1e-2, r=0.9999)

    def test_constant_validation(self):
        with pytest.raises(ConfigError):
            lemma25_bound(0.0, 1.0 / 18.0, 1e-2, r=0.9)
