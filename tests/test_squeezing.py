"""Squeezing lower bounds: closed forms on the annulus, planar transport,
injectivity certificates, and the recentring pipeline.

Oracle: on the round annulus {m < |w| < 1} the inclusion witness gives the
exact value (|z| - m)/(1 - m |z|), checked against an independently coded
Moebius expression.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab.domains import annulus, ball, disc, ellipsoid
from squeezelab.errors import ConfigError
from squeezelab.squeezing import (
    EmbeddingMap,
    SqueezeBound,
    annulus_squeeze_lower,
    ball_centering_embeddings,
    certify_injective,
    ellipsoid_boundary_samples,
    squeeze_lower_from_embedding,
    squeeze_lower_planar,
    theorem21_pipeline,
)


class TestAnnulusClosedForm:
    def test_matches_moebius_oracle(self):
        # inclusion dominates the involution witness for t >= sqrt(m)
        m = 0.1
        for t in np.linspace(0.35, 0.95, 20):
            got = annulus_squeeze_lower(m, t)
            oracle = abs((t - m) / (1.0 - m * t))
            assert got.witness["kind"] == "inclusion"
            assert got.lower == pytest.approx(oracle, abs=1e-12)

    def test_involution_witness_near_hole(self):
        # close to the inner circle the reflected inclusion is better
        got = annulus_squeeze_lower(0.1, 0.15)
        assert got.witness["kind"] == "inclusion-after-involution"
        t2 = 0.1 / 0.15
        assert got.lower == pytest.approx((t2 - 0.1) / (1 - 0.1 * t2), abs=1e-12)

    def test_cross_check_minimum_on_circle(self):
        # the minimum of the Moebius modulus over the inner circle is the witness's own bound
        for z in (0.5 * np.exp(0.7j), 0.15, 0.95j):
            b = annulus_squeeze_lower(0.1, z, cross_check=True)
            assert b.witness["sampled_min"] == pytest.approx(b.lower, abs=1e-12)

    def test_rotation_invariance(self):
        b1 = annulus_squeeze_lower(0.2, 0.5)
        b2 = annulus_squeeze_lower(0.2, 0.5 * np.exp(2.1j))
        assert b1.lower == pytest.approx(b2.lower, abs=1e-13)

    def test_one_minus_avoids_cancellation(self):
        # (1 - L)/(1 - t) -> (1 + m)/(1 - m) as t -> 1; at 1 - t = 1e-12
        # the naive difference has no significant digits left
        m = 0.1
        t = 1.0 - 1e-12
        b = annulus_squeeze_lower(m, t)
        # compare against the stable closed form at the represented t
        ratio = b.one_minus_lower / (1.0 - t)
        assert ratio == pytest.approx((1 + m) / (1 - m * t), rel=1e-9)

    def test_asymptotic_ratio_frozen(self):
        m = 0.1
        t = 1.0 - 1e-4
        b = annulus_squeeze_lower(m, t)
        assert b.one_minus_lower / 1e-4 == pytest.approx(1.2222, rel=2e-2)

    @settings(max_examples=40, deadline=None)
    @given(m=st.floats(0.01, 0.9), t=st.floats(0.0, 1.0))
    def test_stable_form_consistent(self, m, t):
        tt = m + (1.0 - m) * (0.02 + 0.96 * t)  # keep t in (m, 1)
        b = annulus_squeeze_lower(m, tt)
        assert abs((1.0 - b.lower) - b.one_minus_lower) < 1e-12

    def test_validation(self):
        with pytest.raises(ConfigError):
            annulus_squeeze_lower(1.1, 0.5)
        with pytest.raises(ConfigError):
            SqueezeBound(at=0.0, lower=1.5, one_minus_lower=-0.5, witness={})


class TestPlanarTransport:
    def test_simply_connected_is_one(self):
        b = squeeze_lower_planar(disc(), 0.3 + 0.1j)
        assert b.lower == 1.0

    def test_round_annulus_matches_closed_form(self, round_annulus, round_annulus_map):
        for z in (0.5, -0.7j, 0.4 + 0.4j):
            via_map = squeeze_lower_planar(round_annulus, z, amap=round_annulus_map)
            direct = annulus_squeeze_lower(0.3, z)
            assert via_map.lower == pytest.approx(direct.lower, abs=1e-8)

    def test_lens_frozen_value(self, omega_prime, lens_map):
        b = squeeze_lower_planar(omega_prime, 0.05, amap=lens_map)
        assert b.lower == pytest.approx(0.987463906880143, abs=1e-9)

    def test_lens_ratio_stable_in_depth(self, omega_prime, lens_map):
        # frozen: (1 - L)/d stabilizes near 0.2764 down the dyadic scales
        from squeezelab.domains import boundary_distance

        ratios = []
        for p in (2.0 ** -8, 2.0 ** -12, 2.0 ** -16):
            b = squeeze_lower_planar(omega_prime, p, amap=lens_map)
            d = boundary_distance(omega_prime, p).d
            ratios.append(b.one_minus_lower / d)
        np.testing.assert_allclose(ratios, 0.2764, rtol=5e-3)  # frozen


class TestInjectivityCertificate:
    def test_accepts_injective_map(self, rng):
        pts = rng.uniform(0.2, 0.8, 200) + 1j * rng.uniform(-0.3, 0.3, 200)
        cert = certify_injective(lambda z: z * np.log(z), pts, pairs=2000, seed=0)
        assert cert["injective"]
        assert cert["min_image_separation"] > 0

    def test_flags_collision(self):
        pts = np.array([0.5 + 0.5j, -0.5 - 0.5j, 0.3, 0.7j])
        cert = certify_injective(lambda z: z * z, pts, pairs=500, seed=0)
        assert not cert["injective"]


class TestPipeline:
    def test_ball_small(self):
        pts = [np.array([1.0 - 2.0 ** (-i), 0.0], dtype=complex) for i in (1, 2, 3)]
        maps = ball_centering_embeddings(pts, boundary_radius=1.0 - 1e-14, seed=0)
        rep = theorem21_pipeline(ball(2), maps, pts, C=0.35)
        assert rep["all_confined"] and rep["all_inscribed"] and rep["trend_ok"]
        assert min(r["inscribed"] for r in rep["rows"]) >= 1.0 - 1e-6
        assert max(r["eps"] for r in rep["rows"]) < 1e-8

    def test_requires_normalized_maps(self):
        pts = [np.array([0.5, 0.0], dtype=complex)]
        maps = ball_centering_embeddings([np.zeros(2)], seed=0)  # centers 0, not p
        with pytest.raises(ConfigError):
            theorem21_pipeline(ball(2), maps, pts, C=0.35)

    def test_lower_from_ball_centering_embedding(self):
        # the ball's squeezing function is 1; recentring the embedding at a
        # second point keeps the boundary image on the sphere
        p = np.array([0.5, 0.2j], dtype=complex)
        z = np.array([-0.3, 0.4], dtype=complex)
        (emb,) = ball_centering_embeddings([p], boundary_count=5000, boundary_radius=1.0 - 1e-14)
        b = squeeze_lower_from_embedding(ball(2), z, emb)
        assert b.lower >= 1.0 - 1e-9
        assert b.witness["center_r"] == pytest.approx(np.linalg.norm(emb.forward(z)), abs=1e-15)

    def test_ellipsoid_boundary_samples_on_surface(self):
        b = 1.0 / np.sqrt(2.0)
        s = ellipsoid_boundary_samples(b, count=2000, seed=1)
        vals = np.abs(s[:, 0]) ** 2 + np.abs(s[:, 1]) ** 2 / b**2
        np.testing.assert_allclose(vals, 1.0, atol=1e-9)

    def test_ellipsoid_pipeline_row(self):
        p = np.array([0.5, 0.0], dtype=complex)
        samples = ellipsoid_boundary_samples(1.0 / np.sqrt(2.0), count=5000, seed=2)
        from squeezelab.ball import BallAutomorphism

        aut = BallAutomorphism.centering(p)
        emb = EmbeddingMap(forward=aut.apply, boundary_sets=(samples,))
        rep = theorem21_pipeline(ellipsoid(), [emb], [p], C=0.5)
        row = rep["rows"][0]
        assert row["confinement_margin"] >= 0
        assert row["inscribed_margin"] >= 0
