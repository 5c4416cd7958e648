"""Unit ball automorphisms, the distance formula, and the norm identity.

Oracles: the one-dimensional Moebius/Poincare closed forms, evaluated
independently of the implementation under test.
"""

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
    unitary_align,
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
                u = unitary_align(p)
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


class TestSphereSamples:
    def test_radius_and_determinism(self):
        s = sphere_samples(2, 500, 0.75, seed=3)
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 0.75, atol=1e-12)
        np.testing.assert_array_equal(s, sphere_samples(2, 500, 0.75, seed=3))


class TestInscribedRadiusBound:
    def test_margin_nonnegative_for_admissible_range(self):
        rep = lemma25_bound(1.0, 1.0 / 18.0, 1e-2, r=0.99)
        assert rep["min_margin"] >= 0.0
        assert rep["min_margin_sq"] >= 0.0

    def test_rejects_oversized_eps(self):
        with pytest.raises(ConfigError):
            lemma25_bound(1.0, 0.1, 1e-2)

    def test_rejects_r_beyond_admissible_radius(self):
        # 1 - d/C is the largest r the inequality chain supports
        with pytest.raises(ConfigError):
            lemma25_bound(1.0, 1.0 / 18.0, 1e-2, r=0.9999)

    def test_constant_validation(self):
        with pytest.raises(ConfigError):
            lemma25_bound(0.0, 1.0 / 18.0, 1e-2)
