"""Kobayashi distance bounds, the logarithmic boundary estimate, and oracles.

Exact references: the Poincare metric/distance of the disc, its slit-disc
transport through an explicit uniformization, and the round tangent-ball
geometry of the disc and the ellipsoid.
"""

import hashlib
import json

import numpy as np
import pytest

from squeezelab.domains import ball, boundary_distance, disc, ellipsoid, random_interior_points
from squeezelab.errors import ConfigError, DomainError
from squeezelab.kobayashi import (
    DistanceBound,
    PathSpec,
    distance_upper,
    exact_disc_distance,
    inclusion_monotonicity_check,
    infinitesimal_upper,
    lemma_log_bound_verify,
    slit_disc_distance,
    tangent_ball_radius,
)


class TestExactOracles:
    def test_disc_distance(self):
        assert exact_disc_distance(0.0, 0.5) == pytest.approx(np.arctanh(0.5), abs=1e-14)
        # symmetry and invariance under rotation
        a, b = 0.2 + 0.1j, -0.5j
        assert exact_disc_distance(a, b) == pytest.approx(exact_disc_distance(b, a), abs=1e-14)
        w = np.exp(0.7j)
        assert exact_disc_distance(w * a, w * b) == pytest.approx(
            exact_disc_distance(a, b), abs=1e-13
        )
        with pytest.raises(DomainError):
            exact_disc_distance(1.0, 0.0)

    def test_slit_disc_dominates_disc(self, rng):
        # removing the slit can only increase the distance
        for _ in range(50):
            a = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0.2, 2 * np.pi - 0.2))
            b = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0.2, 2 * np.pi - 0.2))
            assert slit_disc_distance(a, b) >= exact_disc_distance(a, b) - 1e-12

    def test_slit_disc_symmetric_in_conjugation(self):
        # the slit disc is preserved by z -> conj(z)
        a, b = 0.3 + 0.4j, -0.2 + 0.5j
        assert slit_disc_distance(a, b) == pytest.approx(
            slit_disc_distance(np.conj(a), np.conj(b)), abs=1e-10
        )


class TestInfinitesimalBound:
    def test_disc_center_is_sharp(self):
        # Poincare metric at 0 equals 1 in the arctanh normalization
        assert infinitesimal_upper(disc(), 0.0, 1.0) == pytest.approx(1.0, rel=1e-3)

    def test_dominates_exact_metric(self, rng):
        d = disc()
        for _ in range(10):
            z = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            exact = 1.0 / (1.0 - abs(z) ** 2)
            got = infinitesimal_upper(d, z, np.exp(1j * rng.uniform(0, 2 * np.pi)))
            assert got >= exact * (1 - 1e-6)
            assert got <= 6.0 * exact  # certified disc is lossy but bounded


class TestDistanceUpper:
    def test_disc_segment_close_to_exact(self):
        b = distance_upper(disc(), 0.0, 0.5)
        assert isinstance(b, DistanceBound)
        exact = np.arctanh(0.5)
        assert exact <= b.value <= exact * 1.02 + b.quad_error

    def test_ball_segment(self):
        dom = ball(2)
        a = np.zeros(2, dtype=complex)
        c = np.array([0.5, 0.0], dtype=complex)
        exact = np.arctanh(0.5)
        b = distance_upper(dom, a, c)
        assert exact - 1e-9 <= b.value <= exact * 1.05

    def test_ball_bound_bytes_frozen(self):
        # the batched disc and segment checks must give the bound of the pointwise loops
        pts = random_interior_points(ball(2), 8, seed=1)
        bound = distance_upper(ball(2), pts[0], pts[1], PathSpec(refinement=8))
        text = json.dumps({"value": bound.value, "kind": bound.kind, "quad_error": bound.quad_error,
                           "decomposition": bound.decomposition}, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3e323ca322b157975b7f34db06abfcf050d8559c70b7e20d32961c49c63cb77b")

    def test_waypoints_and_validation(self):
        d = disc(512)
        b = distance_upper(d, -0.5, 0.5, PathSpec(waypoints=(0.2j,)))
        assert b.value >= exact_disc_distance(-0.5, 0.5) - 1e-9
        assert repr(b.value) == "1.4783083711589913"  # frozen
        with pytest.raises(ConfigError):
            PathSpec(refinement=1)


class TestTangentBall:
    def test_disc_full_radius(self):
        r0 = tangent_ball_radius(disc(), 1.0, -1.0)
        assert r0 == pytest.approx(1.0, abs=1e-6)

    def test_ellipsoid_curvature_limited(self):
        # at (1, 0) the boundary curvature bounds the inscribed tangent ball
        # well below the half-diameter
        e = ellipsoid()
        bp = np.array([1.0, 0.0], dtype=complex)
        r0 = tangent_ball_radius(e, bp, np.array([-1.0, 0.0], dtype=complex))
        assert 0.45 < r0 < 0.55

    def test_inward_normal_disc(self):
        n = disc().inward_normal(1.0 + 0.0j)
        np.testing.assert_allclose(n, -1.0, atol=1e-3)


class TestLogBoundVerify:
    def test_disc_constant_matches_half_log_two(self):
        rep = lemma_log_bound_verify(disc(), 0.0, 1.0, num_scales=20, inward=-1.0)
        # frozen: the dyadic tangent-ball tail contributes exactly (1/2)log 2
        assert rep["C_fit"] == pytest.approx(0.5 * np.log(2.0), abs=5e-3)
        assert rep["tail_slope"] <= 1e-2
        assert rep["passed"]

    def test_ellipsoid_finite_constant(self):
        rep = lemma_log_bound_verify(
            ellipsoid(),
            np.zeros(2, dtype=complex),
            np.array([1.0, 0.0], dtype=complex),
            num_scales=12,
            inward=np.array([-1.0, 0.0], dtype=complex),
        )
        assert np.isfinite(rep["C_fit"])
        assert rep["C_fit"] == pytest.approx(0.4903, abs=5e-3)  # frozen
        assert rep["tail_slope"] <= 1e-2

    def test_lens_finite_constant(self, omega_prime):
        rep = lemma_log_bound_verify(
            omega_prime, 0.05, complex(omega_prime.params.width),
            num_scales=12, inward=-1.0,
        )
        assert np.isfinite(rep["C_fit"])
        assert rep["C_fit"] == pytest.approx(-0.14517, abs=5e-3)  # frozen
        assert rep["tail_slope"] <= 1e-2


class TestInclusionMonotonicity:
    def test_disc_oracle_no_strict_failures(self):
        rep = inclusion_monotonicity_check(
            disc(), pairs=40, seed=1, oracle=exact_disc_distance
        )
        assert rep["strict_failures"] == []

    def test_ball_upper_bounds_consistent(self):
        rep = inclusion_monotonicity_check(ball(2), pairs=4, seed=2)
        assert rep["strict_failures"] == []
