"""Canonical annulus map: round-annulus oracle, stability, and injectivity.

Oracle: on a round annulus the identity (up to rotation/scaling) is the
canonical map, so the recovered modulus must match the construction
parameter to near machine precision.
"""

import hashlib

import numpy as np
import pytest

from squeezelab.cli import main
from squeezelab.conformal import canonical_annulus_map
from squeezelab.domains import PlanarDomain, annulus, disc, phi_map, preset, random_interior_points
from squeezelab.errors import ConfigError
from squeezelab.squeezing import certify_injective, squeeze_lower_planar


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestRoundAnnulusOracle:
    def test_modulus_recovered(self, round_annulus_map):
        assert round_annulus_map.modulus == pytest.approx(0.3, abs=1e-10)

    def test_forward_preserves_circles(self, round_annulus_map):
        # |z| = s must land on |w| = s for the round annulus (up to rotation)
        for s in (0.35, 0.6, 0.95):
            z = s * np.exp(1j * np.linspace(0, 2 * np.pi, 40))
            w = round_annulus_map.forward(z)
            np.testing.assert_allclose(np.abs(w), s, atol=1e-9)

    def test_forward_injective_on_samples(self, round_annulus, round_annulus_map):
        pts = random_interior_points(round_annulus, 50, seed=8)
        assert certify_injective(round_annulus_map.forward, pts)["injective"]

    def test_scale_and_translation_invariance(self):
        moved = annulus(0.3, center=1.5 - 0.5j, scale=2.0)
        amap = canonical_annulus_map(moved)
        assert amap.modulus == pytest.approx(0.3, abs=1e-4)

    def test_rejects_simply_connected(self):
        with pytest.raises(ConfigError):
            canonical_annulus_map(disc())

    @pytest.mark.parametrize("resolution", [0, 1.5, "2", True])
    def test_rejects_a_bad_resolution(self, resolution):
        dom = annulus(0.3)
        with pytest.raises(ConfigError, match="resolution"):
            canonical_annulus_map(dom, resolution=resolution)
        assert dom._conformal_maps == {}


class TestLensMap:
    def test_modulus_frozen_value(self, lens_map):
        assert lens_map.modulus == pytest.approx(0.34842830858, abs=1e-6)

    def test_residual_small(self, lens_map):
        assert lens_map.residual < 1e-6
        assert lens_map.boundary_deviation < 1e-6
        assert lens_map.mirrored

    def test_forward_gap_scaling_near_cusp_point(self, lens_map):
        # near the imaginary-axis segment 1 - |w| scales linearly with the
        # distance; the ratio is frozen from a Cauchy-stable computation
        for k in (10, 16, 24, 32):
            p = 2.0 ** -k
            _, gap = lens_map.forward_gap(p)
            assert gap > 0
            assert gap / p == pytest.approx(0.133559, rel=1e-3)

    def test_forward_injective_on_samples(self, omega_prime, lens_map):
        pts = random_interior_points(omega_prime, 120, seed=5)
        assert certify_injective(lens_map.forward, pts)["injective"]

    def test_hole_maps_to_inner_circle(self, omega_prime, lens_map):
        w = lens_map.forward(omega_prime.holes[0].points()[::32])
        np.testing.assert_allclose(np.abs(w), lens_map.modulus, atol=1e-6)


class TestFrozenBits:
    """Digests recorded with the per-column basis evaluation that the basis matrix replaced.

    A lone point goes through the basis as a one-row block, so it has the
    bits of its row in a batch; the batch digests pin both.
    """

    @pytest.mark.parametrize("which, digest", [
        ("lens", "d7f28636a730b229ba62189e7683005080815a8894c5e522a41e290912b28b49"),
        ("annulus", "393b27a4fa94369c24f8cd2a80722591773fd9c27a03110b5cf2059ef9f85391"),
    ])
    def test_batch_forward_gap(self, which, digest, request):
        dom = request.getfixturevalue("omega_prime" if which == "lens" else "round_annulus")
        amap = request.getfixturevalue("lens_map" if which == "lens" else "round_annulus_map")
        pts = random_interior_points(dom, 300, seed=2)
        assert _sha256(*amap.forward_gap(pts)) == digest

    @pytest.mark.parametrize("which, digest", [
        ("lens", "7bf3ef75c7ac4e5739179f26cda9648d4858c1e0fb545fafeaa25069254e2d4d"),
        ("annulus", "93397e8c9a7662af6bf7385257589df08d5ce9493df90f765e7f0fd71e6a7312"),
    ])
    def test_batch_derivative(self, which, digest, request):
        dom = request.getfixturevalue("omega_prime" if which == "lens" else "round_annulus")
        amap = request.getfixturevalue("lens_map" if which == "lens" else "round_annulus_map")
        assert _sha256(amap.derivative(random_interior_points(dom, 300, seed=2))) == digest

    def test_lone_forward_gap_equals_its_batch_row(self, lens_map):
        # the counterexample's radial p_k
        pts = np.array([2.0 ** -(k + 2) for k in range(1, 41)])
        lone = np.array([lens_map.forward_gap(complex(p)) for p in pts]).T
        assert lone.tobytes() == np.array(lens_map.forward_gap(pts)).tobytes()

    @pytest.mark.parametrize("which", ["lens", "annulus"])
    def test_lone_derivative_equals_its_batch_row(self, which, request):
        dom = request.getfixturevalue("omega_prime" if which == "lens" else "round_annulus")
        amap = request.getfixturevalue("lens_map" if which == "lens" else "round_annulus_map")
        pts = random_interior_points(dom, 50, seed=2)
        lone = np.array([amap.derivative(complex(p)) for p in pts])
        assert lone.tobytes() == amap.derivative(pts).tobytes()


class TestBasisChoice:
    def test_rebuilt_lens_gets_the_mirrored_basis(self, omega_prime, lens_map, round_annulus_map):
        # the lens's curves in an unnamed domain; its outer curve still lies
        # in the closed right half-plane and touches the imaginary axis
        rebuilt = PlanarDomain(omega_prime.outer, omega_prime.holes)
        assert rebuilt.name == ""
        assert canonical_annulus_map(rebuilt).mirrored and lens_map.mirrored
        assert not round_annulus_map.mirrored
        for k in (12, 20, 30):
            lens = squeeze_lower_planar(omega_prime, 2.0**-k)
            assert squeeze_lower_planar(rebuilt, 2.0**-k).one_minus_lower == lens.one_minus_lower

    def test_image_domain_keeps_the_plain_basis(self):
        # the z log z image reaches Re z = -1.41, left of the axis
        image = preset("omega_zlogz")
        assert image.outer.points().real.min() < -1.0
        assert not canonical_annulus_map(image).mirrored


class TestChargeDoubling:
    def test_image_domain_squeeze_matches_lens(self, capsys):
        # 64 charges leave the z log z image off by 9.5e-2 between the
        # collocation nodes; the map doubles them until it fits
        at = complex(phi_map(0.05))
        assert at == -0.14978661367769955
        assert main(["squeeze", "--preset", "omega_zlogz", "--at", repr(at.real)]) == 0
        assert "one_minus_lower" in capsys.readouterr().out
        image = squeeze_lower_planar(preset("omega_zlogz"), at)
        lens = squeeze_lower_planar(preset("omega_prime"), 0.05)
        assert image.one_minus_lower == pytest.approx(lens.one_minus_lower, rel=1e-4)

    def test_image_domain_map_keeps_its_bits(self, omega):
        # the 64- and 128-charge fits each build every column, and the map
        # keeps its frozen bits
        amap = canonical_annulus_map(omega)
        assert len(amap._basis.poles) == 128
        assert amap.modulus == 0.3484283085594218
        assert amap.boundary_deviation == 4.807575502363548e-06

    def test_deviation_measured_between_nodes(self, lens_map, round_annulus_map):
        assert 0 < lens_map.boundary_deviation < 1e-7
        assert 0 < round_annulus_map.boundary_deviation < 1e-12

class TestOneMapPerDomain:
    def test_one_map_per_resolution(self, fitted_domains):
        dom = annulus(0.3)
        first = canonical_annulus_map(dom)
        assert canonical_annulus_map(dom) is first
        fine = canonical_annulus_map(dom, 2)
        assert fine is not first and canonical_annulus_map(dom, resolution=2) is fine
        assert fitted_domains == [dom, dom]

    def test_rebuilt_domain_gets_its_own_map(self, omega_prime, lens_map, fitted_domains):
        rebuilt = PlanarDomain(omega_prime.outer, omega_prime.holes)
        assert canonical_annulus_map(rebuilt) is not lens_map
        assert canonical_annulus_map(omega_prime) is lens_map
        assert fitted_domains == [rebuilt]
