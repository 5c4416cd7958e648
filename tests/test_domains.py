"""Domain presets, boundary distance, and the cusped image domain.

Oracles: exact distances for the disc, ball, and ellipsoid; hand-evaluated
values of the map z log z and its collisions outside the source lens.
"""

import json

import numpy as np
import pytest

from squeezelab.domains import (
    OmegaPrimeParams,
    annulus,
    ball,
    boundary_distance,
    build_omega,
    build_omega_prime,
    contains,
    disc,
    domain_from_spec,
    domain_to_spec,
    ellipsoid,
    phi_deriv,
    phi_map,
    preset,
    random_interior_points,
)
from squeezelab.errors import ConfigError, DomainError


class TestDiscDomain:
    def test_boundary_distance_oracle(self):
        d = disc()
        for z in (0.0, 0.3 + 0.4j, -0.75j, 0.9):
            # exact: 1 - |z|
            got = boundary_distance(d, z).d
            np.testing.assert_allclose(got, 1.0 - abs(complex(z)), atol=1e-9)

    def test_membership(self):
        d = disc()
        assert d.contains(0.5j)
        assert not d.contains(1.2)
        with pytest.raises(DomainError):
            boundary_distance(d, 1.5)


class TestDefiningFunctionDomains:
    def test_ball_distance(self):
        b = ball(2)
        assert boundary_distance(b, np.zeros(2, dtype=complex)).d == pytest.approx(1.0, abs=1e-8)
        p = np.array([0.6, 0.0], dtype=complex)
        assert boundary_distance(b, p).d == pytest.approx(0.4, abs=1e-8)

    def test_ellipsoid_distance_oracle(self):
        # {|z1|^2 + 2 |z2|^2 < 1}: nearest boundary point from 0 lies on
        # the short axis at distance 1/sqrt(2)
        e = ellipsoid()
        got = boundary_distance(e, np.zeros(2, dtype=complex)).d
        assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)

    def test_contains(self):
        e = ellipsoid()
        assert e.contains(np.array([0.9, 0.0], dtype=complex))
        assert not e.contains(np.array([0.0, 0.9], dtype=complex))


class TestLensDomain:
    def test_structure(self, omega_prime):
        assert omega_prime.connectivity == 2
        p = omega_prime.params
        assert p.width < 1.0 / np.e

    def test_dyadic_points_interior(self, omega_prime):
        for k in range(1, 31):
            assert omega_prime.contains(2.0 ** -(k + 2))

    def test_hole_excluded(self, omega_prime):
        assert not omega_prime.contains(omega_prime.params.hole_center)

    def test_right_half_plane(self, omega_prime):
        for c in omega_prime.curves():
            assert np.min(c.points().real) >= -1e-9

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            OmegaPrimeParams(width=0.5).validate()  # must stay below 1/e
        with pytest.raises(ConfigError):
            OmegaPrimeParams(hole_center=0.0 + 0.3j).validate()  # on the axis


class TestPhiMap:
    def test_values(self):
        # z log z at z = e^{-1}: -1/e
        assert phi_map(np.exp(-1.0)) == pytest.approx(-np.exp(-1.0), abs=1e-15)
        # purely imaginary collisions: i log i = -pi/2 = -i log(-i)
        np.testing.assert_allclose(phi_map(1j), -np.pi / 2, atol=1e-15)
        np.testing.assert_allclose(phi_map(-1j), -np.pi / 2, atol=1e-15)

    def test_derivative_oracle(self, rng):
        for _ in range(100):
            z = rng.uniform(0.05, 0.9) * np.exp(1j * rng.uniform(-1.4, 1.4))
            h = 1e-7
            fd = (phi_map(z + h) - phi_map(z - h)) / (2 * h)
            np.testing.assert_allclose(phi_deriv(z), fd, rtol=1e-6)

    def test_real_collision_pair_outside_lens(self, omega_prime):
        # z log z identifies 0.25 and 0.5; a source domain containing both
        # could not embed injectively, so the lens must exclude them
        assert phi_map(0.25) == pytest.approx(phi_map(0.5), abs=1e-15)
        assert not omega_prime.contains(0.25)
        assert not omega_prime.contains(0.5)


class TestOmega:
    def test_connectivity_and_images(self, omega_prime, omega):
        assert omega.connectivity == 2
        for k in (1, 5, 10, 20, 30):
            assert omega.contains(phi_map(2.0 ** -(k + 2)))

    def test_image_distance_scaling(self, omega):
        # d(q_k) ~ p_k |log p_k| while d'(p_k) ~ p_k: the map expands
        # boundary distance near the cusp
        p = 2.0 ** -12
        d = boundary_distance(omega, phi_map(p)).d
        assert 0.2 * p * abs(np.log(p)) < d < 2.0 * p * abs(np.log(p))


class TestUtilities:
    def test_winding_guard_on_boundary_sample(self):
        d = disc()
        z = d.outer.points()[0]
        assert not d.contains(z)

    def test_spec_roundtrip(self, omega_prime):
        spec = domain_to_spec(omega_prime)
        dom2 = domain_from_spec(spec)
        assert dom2.connectivity == 2
        assert dom2.contains(0.05) and not dom2.contains(0.5)

    def test_defining_spec_roundtrip_keeps_parameters(self):
        e = ellipsoid(b=0.3)
        dom2 = domain_from_spec(json.loads(json.dumps(domain_to_spec(e))))
        assert not e.contains(np.array([0.0, 0.5]))
        assert not dom2.contains(np.array([0.0, 0.5]))
        assert dom2.contains(np.array([0.0, 0.25]))
        assert domain_from_spec(domain_to_spec(ball(3))).dim == 3

    def test_random_interior_points(self, omega_prime):
        pts = random_interior_points(omega_prime, 100, seed=4)
        assert all(omega_prime.contains(p) for p in pts)
        np.testing.assert_array_equal(pts, random_interior_points(omega_prime, 100, seed=4))

    def test_presets(self):
        assert preset("disc").connectivity == 1
        assert annulus(0.3).connectivity == 2
        assert contains(ball(2), np.zeros(2, dtype=complex))
        with pytest.raises(ConfigError):
            preset("no-such-domain")
