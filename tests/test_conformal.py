"""Canonical annulus map: round-annulus oracle, stability, and injectivity.

Oracle: on a round annulus the identity (up to rotation/scaling) is the
canonical map, so the recovered modulus must match the construction
parameter to near machine precision.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squeezelab
from squeezelab import conformal
from squeezelab.cli import main
from squeezelab.conformal import canonical_annulus_map
from squeezelab.domains import PlanarDomain, annulus, disc, phi_map, preset, random_interior_points
from squeezelab.errors import ConfigError
from squeezelab.experiments import ExperimentConfig, run_counterexample
from squeezelab.squeezing import certify_injective, squeeze_lower_planar


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _child(code, **env):
    """The stdout of ``code`` run by a fresh interpreter, with ``env`` added to its environment only."""
    src = str(Path(squeezelab.__file__).resolve().parent.parent)
    # no bytecode: the child would otherwise write it into the package directory
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
                          env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1", **env}).stdout


def _collocation(dom):
    """The collocation points of ``dom``'s map and its mirrored right-hand side, as the fit takes them."""
    zo, zi = dom.outer.points(), dom.holes[0].points()
    return np.concatenate([zo, zi]), np.concatenate([np.zeros(len(zo)), -np.ones(len(zi))])


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
    """Digests recorded with the streamed QR fit over the basis's nonzero columns.

    A lone point goes through the basis as a one-row block, so it has the
    bits of its row in a batch; the batch digests pin both.
    """

    @pytest.mark.parametrize("which, digest", [
        pytest.param("lens", "a6d504b103020e4a29f843b376b8b7ea9622b81d713767368e0a310070941113", id="lens"),
        pytest.param("annulus", "51cdf267c6c751f3372e2373f08528009f28f3f93b24101ea73b5a0d528f9878", id="annulus"),
    ])
    def test_batch_forward_gap(self, which, digest, request):
        dom = request.getfixturevalue("omega_prime" if which == "lens" else "round_annulus")
        amap = request.getfixturevalue("lens_map" if which == "lens" else "round_annulus_map")
        pts = random_interior_points(dom, 300, seed=2)
        assert _sha256(*amap.forward_gap(pts)) == digest

    @pytest.mark.parametrize("which, digest", [
        pytest.param("lens", "354440bdecef6aaa0ac60afe63e3ec09b5dc71dacc96388312ac8c62ebe8b020", id="lens"),
        pytest.param("annulus", "a5d2f35f3fee710988b634cf0ca729f015a3e7a44f227a0fc97670ac2cf02200", id="annulus"),
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
        # the 64- and 128-charge fits each stream their rows through a QR, and
        # the map keeps its frozen bits
        amap = canonical_annulus_map(omega)
        assert len(amap._basis.poles) == 128
        assert amap.modulus == 0.34842830855954293
        assert amap.boundary_deviation == 4.807577649201811e-06

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


class TestStreamedFit:
    """The fit streams its rows through a QR over the basis's nonzero columns and keeps the dense solution."""

    def test_agrees_with_a_dense_solve(self, omega_prime, lens_map):
        pts, rhs = _collocation(omega_prime)
        A = conformal._matrix(lens_map._basis, pts, rhs)[:, :-1]
        dense, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        assert lens_map.modulus == pytest.approx(np.exp(-1.0 / dense[0]), rel=1e-12, abs=0)
        u = A @ np.concatenate([[lens_map._a], lens_map._coef])
        np.testing.assert_allclose(u, A @ dense, rtol=0, atol=1e-10)
        # a 2-norm of the residual vector, so at least its largest entry
        assert lens_map.residual >= np.max(np.abs(A @ dense - rhs))

    def test_only_nonzero_columns(self, omega_prime, lens_map, round_annulus_map):
        A = conformal._matrix(lens_map._basis, *_collocation(omega_prime))[:, :-1]
        assert A.shape[1] == 225 and np.any(A != 0, axis=0).all()
        # the plain basis keeps both columns of every raw element
        basis = round_annulus_map._basis
        assert len(basis.live) == 2 * (len(conformal._LAURENT) + len(conformal._TAYLOR) + len(basis.poles))

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak from /proc/self/status")
    def test_fit_raises_the_peak_by_less_than_15_mb(self):
        # a dense 5,324 x 273 matrix and lstsq's copy of it raised it by 25 MB.  The peak is VmHWM, the
        # ru_maxrss of the child's own memory: Linux starts a child's ru_maxrss at its parent's resident size
        code = ("from squeezelab.conformal import canonical_annulus_map; "
                "from squeezelab.domains import build_omega_prime; dom = build_omega_prime(); "
                "peak = lambda: int(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM'))); "
                "before = peak(); canonical_annulus_map(dom); print(peak() - before)")
        assert int(_child(code)) < 15 * 1024

    @pytest.mark.parametrize("env", [pytest.param({"OPENBLAS_NUM_THREADS": "1"}, id="one-thread"),
                                     pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, id="prescott")])
    def test_same_values_under_another_blas_setting(self, env, lens_map):
        code = ("import json; from squeezelab.conformal import canonical_annulus_map; "
                "from squeezelab.domains import build_omega_prime; "
                "from squeezelab.experiments import ExperimentConfig, run_counterexample; "
                "amap = canonical_annulus_map(build_omega_prime()); "
                "rows = run_counterexample(ExperimentConfig('counterexample', scales=12)).tables['radial']; "
                "print(json.dumps([amap.modulus, amap.boundary_deviation, [r['R_k'] for r in rows]]))")
        modulus, deviation, ratios = json.loads(_child(code, **env))
        rows = run_counterexample(ExperimentConfig("counterexample", scales=12)).tables["radial"]
        assert modulus == pytest.approx(lens_map.modulus, rel=1e-11, abs=0)
        assert deviation == pytest.approx(lens_map.boundary_deviation, rel=1e-3, abs=0)
        np.testing.assert_allclose(ratios, [r["R_k"] for r in rows], rtol=1e-8, atol=0)
