"""Domain presets, boundary distance, and the cusped image domain.

Oracles: exact distances for the disc, ball, and ellipsoid; hand-evaluated
values of the map z log z and its collisions outside the source lens.
"""

import collections
import gc
import hashlib
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

import squeezelab
from squeezelab import conformal, domains
from squeezelab.domains import (
    CircleCurve,
    Curve,
    DefiningFunctionDomain,
    MappedCurve,
    ParamCurve,
    PlanarDomain,
    _brentq,
    _unit,
    annulus,
    ball,
    boundary_distance,
    build_omega,
    build_omega_prime,
    disc,
    ellipsoid,
    phi_deriv,
    phi_map,
    preset,
    random_interior_points,
)
from squeezelab.errors import ConfigError, DomainError, SolverError


class PolylineCurve(Curve):
    """Closed polyline through given vertices (arc-length parameterized)."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=complex)
        if v.size < 3:
            raise ConfigError("polyline needs at least 3 vertices")
        self.vertices = v
        seg = np.abs(np.roll(v, -1) - v)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        self._total = cum[-1]
        self._cum = cum / self._total
        super().__init__(self._cum[:-1])

    def jet(self, t):
        t = np.asarray(t, dtype=float) % 1.0
        idx = np.clip(np.searchsorted(self._cum, t, side="right") - 1, 0, len(self.vertices) - 1)
        t0 = self._cum[idx]
        t1 = self._cum[idx + 1]
        frac = np.where(t1 > t0, (t - t0) / np.where(t1 > t0, t1 - t0, 1.0), 0.0)
        a = self.vertices[idx]
        b = self.vertices[(idx + 1) % len(self.vertices)]
        return a + frac * (b - a), (b - a) / (t1 - t0)  # each edge is straight, traversed at constant speed


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

    def test_axis_points_exact(self):
        # the nearest point of (1 - 2^-i, 0) is the vertex (1, 0)
        for i in range(1, 53):
            for dom in (ball(2), ellipsoid()):
                bp = boundary_distance(dom, np.array([1.0 - 2.0**-i, 0.0]))
                assert bp.d == 2.0**-i, (dom.name, i)

    def test_degenerate_branch(self):
        # for |x| <= 1/2 the nearest points of (x, 0) form a circle in z2,
        # and d^2 = |x|^2 + (1 - 4|x|^2)/2 = 1/2 - |x|^2
        e = ellipsoid()
        for x in np.linspace(-0.5, 0.5, 41):
            for phase in (1.0, np.exp(0.7j)):
                z = np.array([x * phase, 0.0])
                bp = boundary_distance(e, z)
                assert bp.d == pytest.approx(np.sqrt(0.5 - x * x), abs=1e-15)
                assert np.sum(e.w * np.abs(bp.nearest) ** 2) == pytest.approx(1.0, abs=1e-15)
                assert np.linalg.norm(bp.nearest - z) == pytest.approx(bp.d, abs=1e-15)
                # the distance is 1-Lipschitz, so next to the degenerate set it
                # stays within |z2| of the limit; there the root nears the pole
                for z2 in (1e-6, 1e-9, 1e-12, 1e-15):
                    near = boundary_distance(e, np.array([x * phase, z2]))
                    assert abs(near.d - np.sqrt(0.5 - x * x)) <= z2 + 1e-15

    @settings(max_examples=150, deadline=None)
    @given(b=st.floats(0.2, 2.0), rho=st.floats(0.0, 0.999), alpha=st.floats(0.0, np.pi / 2),
           phases=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)))
    @example(b=1.0 / np.sqrt(2.0), rho=0.3, alpha=0.0, phases=(0.0, 0.0))
    @example(b=1.0 / np.sqrt(2.0), rho=0.4, alpha=1e-12, phases=(0.5, -2.0))
    @example(b=1.5, rho=0.5, alpha=np.pi / 2, phases=(0.0, 1.0))
    @example(b=1.5, rho=0.9, alpha=np.pi / 2 - 1e-13, phases=(0.0, 1.0))
    def test_ellipse_oracle(self, b, rho, alpha, phases):
        # the nearest point keeps each coordinate's phase, so the distance is
        # the planar distance from (|z1|, |z2|) to the ellipse s1^2 + s2^2/b^2 = 1
        a1, a2 = rho * np.cos(alpha), b * rho * np.sin(alpha)
        e = ellipsoid(b=b)
        z = np.array([a1 * np.exp(1j * phases[0]), a2 * np.exp(1j * phases[1])])
        bp = boundary_distance(e, z)

        def sq_dist(theta):
            return (np.cos(theta) - a1) ** 2 + (b * np.sin(theta) - a2) ** 2

        grid = np.linspace(0.0, np.pi / 2, 2001)
        k = int(np.argmin(sq_dist(grid)))
        res = minimize_scalar(sq_dist, bounds=(grid[max(k - 1, 0)], grid[min(k + 1, 2000)]), method="bounded",
                              options={"xatol": 1e-14, "maxiter": 500})
        assert res.status == 0
        ref = np.sqrt(min(res.fun, sq_dist(grid[k])))
        assert bp.d == pytest.approx(ref, abs=1e-12)
        assert np.sum(e.w * np.abs(bp.nearest) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(bp.nearest - z) == pytest.approx(bp.d, abs=1e-15)

    @pytest.mark.parametrize("b, z, d", [
        (1.0, [1.5891830067814317e-156, 0.0], 1.0),
        (1.0, [1.5891830067814317e-156 * np.exp(2.59j), 0.0], 1.0),
        (1.0, [1e-170, 1e-160j], 1.0),
        (2.0, [1.1241e-157, 3.1701e-156], 1.0),
        (1.0 / np.sqrt(2.0), [0.3, 1e-158j], np.sqrt(0.41)),  # the degenerate d^2 = 1/2 - x^2
    ])
    def test_tiny_top_coordinates(self, b, z, d):
        # |z_j|^2 is subnormal for the coordinates of the largest weight; the
        # nearest point must still lie on the boundary, at distance d
        e = ellipsoid(b=b)
        z = np.array(z, dtype=complex)
        bp = boundary_distance(e, z)
        assert bp.d == pytest.approx(d, abs=1e-15)
        assert np.sum(e.w * np.abs(bp.nearest) ** 2) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(bp.nearest - z) == pytest.approx(bp.d, abs=1e-15)

    @pytest.mark.parametrize("make", [ball, ellipsoid])
    def test_non_finite_point_raises(self, make, recwarn):
        dom = make()
        for z in ([np.nan, 0.0], [0.0, complex(0.0, np.inf)], [-np.inf, np.nan]):
            assert not dom.contains(np.array(z, dtype=complex))
            with pytest.raises(DomainError, match="not interior"):
                boundary_distance(dom, np.array(z, dtype=complex))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("make, kw", [
        (ellipsoid, {"b": 0.0}), (ellipsoid, {"b": -0.5}), (ellipsoid, {"b": np.nan}), (ellipsoid, {"b": np.inf}),
        (ellipsoid, {"b": -np.inf}), (ellipsoid, {"b": 1e-200}), (ellipsoid, {"dim": 0}),
        (ball, {"dim": 0}), (ball, {"dim": -1}), (ball, {"dim": 2.5}),
    ])
    def test_bad_parameters_raise_config_error(self, make, kw):
        with pytest.raises(ConfigError):
            make(**kw)

    def test_sampling_box_reaches_the_long_axis(self):
        # ellipsoid(b=1.5) reaches |z2| = 1.5, beyond the unit cube
        pts = random_interior_points(ellipsoid(b=1.5), 400, seed=2)
        assert np.max(np.abs(pts[:, 1].real)) > 1.0 and np.max(np.abs(pts[:, 1].imag)) > 1.0
        assert ellipsoid(b=1.5).contains(pts).all()


class TestLensDomain:
    def test_structure(self, omega_prime):
        assert omega_prime.connectivity == 2
        assert domains._LENS_WIDTH < 1.0 / np.e

    def test_dyadic_points_interior(self, omega_prime):
        for k in range(1, 31):
            assert omega_prime.contains(2.0 ** -(k + 2))

    def test_hole_excluded(self, omega_prime):
        assert not omega_prime.contains(domains._LENS_HOLE_CENTER)

    def test_right_half_plane(self, omega_prime):
        for c in omega_prime.curves():
            assert np.min(c.points().real) >= -1e-9

    def test_build_holds_little_memory(self):
        build_omega_prime()  # imports and caches that a first build leaves behind
        tracemalloc.start()
        try:
            build_omega_prime()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_intersecting_holes_raise(self):
        def hole():
            return CircleCurve(0.3j, 0.1, orientation=-1, n=64)

        with pytest.raises(ConfigError, match="holes intersect"):
            PlanarDomain(CircleCurve(0.0, 1.0, n=64), [hole(), hole()])


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


def _jet_params(curve) -> np.ndarray:
    """The curve's samples, 2,000 uniform parameters past t = 1, the cusp and tip steps, and 0, 1/4, 1/2, 3/4 and the
    parameters just below them."""
    half = domains._CUSP_STEPS / 2
    ends = np.array([0.0, 0.25, 0.5, 0.75])
    return np.concatenate([curve.params, np.random.default_rng(34).uniform(0.0, 1.25, 2000),
                           0.75 + domains._CUSP_STEPS, 0.75 - domains._CUSP_STEPS, 0.25 + half, 0.25 - half,
                           ends, np.nextafter(ends, 0.0)])


class TestCurveBits:
    """The lens's and its image's curves keep their sample points, points and derivatives bit for bit."""

    # sha256 of points(), then of jet(_jet_params) as points and derivatives, for the outer curve and the hole
    _DIGESTS = {
        "omega_prime": [
            ("a81bf7dbc41fab8ac9601f6cbd304919dfe9e4a450f30bef0c2b30b9a7f11c9f",
             "6d1a8f28fd97e56950e1d5d90925cba1ef1a16be257f28d580337af16eeb057a",
             "25ef07a983edb6b658c8eef31de23e00429ed668e2ad9f75e7f1c638d8cd91da"),
            ("535d32294ce9abbfed1f4ee21b403a22fb3bde743756c6cee2e19763cbe876d8",
             "fd169bcfe49da43d727d10b8ae755cf38c4839657b7629dfedf9c6dd587eb8cf",
             "06b30e00941fccfa96a691046345ad7400a93beba2257b942e7f88c495fd53e8"),
        ],
        "omega_zlogz": [
            ("1585d0666b74c6eec078c3b2fd2d96d8ef2100abfd47dc1cdcac3be093fb2171",
             "49fd40588b134116bb8438af6514be7a66a151b747e9a9b7a2ed1e52be4f2b94",
             "d8fc5ce10aca64d1cc54d2d1d57f1abf232b8bc3e6682d97c37795d4b3f52b3a"),
            ("9fedef8b9c62505af83de9b719295d4ddfb705b3f4a9cac78a41abf2f5088d45",
             "3fea47e5a2ccd447f658b0a3129f3af611e98a8a649c3f3255aa587c3819a082",
             "bf0c5d7bb4df030f99e263e4a39d9940a8984c863bf2f961867ab85809641216"),
        ],
    }

    @pytest.mark.parametrize("name", sorted(_DIGESTS))
    def test_points_and_derivatives_frozen(self, name, omega_prime, omega):
        dom = {"omega_prime": omega_prime, "omega_zlogz": omega}[name]
        for curve, digests in zip(dom.curves(), self._DIGESTS[name]):
            with np.errstate(divide="ignore", invalid="ignore"):  # the image's derivative is infinite at 0.75
                q, dq = curve.jet(_jet_params(curve))
            assert tuple(hashlib.sha256(x.tobytes()).hexdigest() for x in (curve.points(), q, dq)) == digests


class TestUtilities:
    def test_winding_guard_on_boundary_sample(self):
        d = disc()
        z = d.outer.points()[0]
        assert not d.contains(z)

    def test_circle_curve_freed_without_cycle_collection(self):
        # a curve caches its samples and edge index; a reference cycle through
        # its parameterisation would keep them until a full collection
        curve = CircleCurve(0.3j, 0.5, orientation=-1)
        curve.crossings(np.array([0.3j]))
        ref = weakref.ref(curve)
        gc.disable()
        try:
            del curve
            assert ref() is None
        finally:
            gc.enable()

    def test_refined_curve_builds_its_own_edges(self):
        # at angle pi/8 and radius 0.95 a point lies outside the octagon of 8
        # samples and inside the 16-gon of the refined curve
        coarse = CircleCurve(0.0, 1.0, n=8)
        z = np.array([0.95 * np.exp(1j * np.pi / 8)])
        assert not coarse.crossings(z)[0][0]  # builds the octagon's edge index
        fine = coarse.refined()
        assert type(fine) is CircleCurve and len(fine.points()) == 16
        assert np.array_equal(fine.points(), coarse.point(np.arange(16) / 16))
        assert fine.crossings(z)[0][0]
        assert not coarse.crossings(z)[0][0] and len(coarse.points()) == 8

    def test_random_interior_points(self, omega_prime):
        pts = random_interior_points(omega_prime, 100, seed=4)
        assert all(omega_prime.contains(p) for p in pts)
        np.testing.assert_array_equal(pts, random_interior_points(omega_prime, 100, seed=4))

    @pytest.mark.parametrize("count", [-1, 2.5, "3", True])
    def test_random_interior_points_rejects_a_bad_count(self, count):
        with pytest.raises(ConfigError, match="point count"):
            random_interior_points(disc(), count)
        assert random_interior_points(disc(), 0).shape == (0,)

    @pytest.mark.parametrize("orientation", [2, -2, 0, 1.5, True])
    def test_circle_orientation_is_plus_or_minus_one(self, orientation):
        # orientation 2 wound the sample polygon twice: the domain built, held no point,
        # and the rejection sampler never returned
        with pytest.raises(ConfigError, match="orientation"):
            CircleCurve(0.0, 1.0, orientation=orientation)
        assert CircleCurve(0.0, 1.0, orientation=-1).signed_area() < 0

    @pytest.mark.parametrize("center, radius", [
        (0.0, np.nan), (0.0, np.inf), (0.0, 0.0), (0.0, -1.0), (np.nan, 1.0), (complex(0.0, np.inf), 1.0),
    ])
    def test_circle_needs_a_finite_centre_and_radius(self, center, radius):
        with pytest.raises(ConfigError, match="circle"):
            CircleCurve(center, radius)
        with pytest.raises(ConfigError, match="circle"):
            annulus(0.3, center=center, scale=radius)

    @pytest.mark.parametrize("n", [2.5, True, 2, 0, -1])
    def test_a_curve_has_three_samples_or_more(self, n):
        # n = 2.5 built the 3 samples t = 0, 0.4 and 0.8, and n = 0, 1, 2 or True a curve whose
        # domain then failed with "outer curve must be positively oriented"
        def jet(t):
            e = np.exp(2j * np.pi * t)
            return e, 2j * np.pi * e

        with pytest.raises(ConfigError, match="sample count n"):
            ParamCurve(jet, n=n)
        with pytest.raises(ConfigError, match="sample count n"):
            CircleCurve(0.0, 1.0, n=n)
        assert len(ParamCurve(jet, n=np.int64(3)).points()) == len(CircleCurve(0.0, 1.0, n=3).points()) == 3

    def test_presets(self):
        assert preset("disc").connectivity == 1
        assert annulus(0.3).connectivity == 2
        assert ball(2).contains(np.zeros(2, dtype=complex))
        with pytest.raises(ConfigError):
            preset("no-such-domain")


# ---------------------------------------------------------------------------
# the domain protocol: batch membership equals pointwise membership

_PROTOCOL_DOMAINS = {
    "disc": disc(),
    "omega_prime": build_omega_prime(),
    "ball": ball(2),
    "ellipsoid": ellipsoid(),
}

_coord = st.floats(-1.2, 1.2, allow_nan=False)
# planar points cover the lens [0, 0.22] x [-0.9, 0.9] and the disc, inside and out
_planar_batch = st.lists(st.complex_numbers(max_magnitude=1.3, allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=40).map(lambda z: np.array(z, dtype=complex))
_rows_batch = st.lists(st.tuples(_coord, _coord, _coord, _coord), min_size=1, max_size=40).map(
    lambda rows: np.array([[a + 1j * b, c + 1j * d] for a, b, c, d in rows], dtype=complex))


def _assert_batch_equals_points(dom, batch):
    got = dom.contains(batch)
    assert isinstance(got, np.ndarray) and got.dtype == bool and got.shape == (len(batch),)
    one_by_one = [dom.contains(p) for p in batch]
    assert all(type(v) is bool for v in one_by_one)
    np.testing.assert_array_equal(got, one_by_one)


class TestContainsProtocol:
    @pytest.mark.parametrize("name", ["disc", "omega_prime"])
    @settings(max_examples=40, deadline=None)
    @given(batch=_planar_batch)
    @example(batch=np.array([0.05 + 0.0j]))
    @example(batch=np.array([1.25 + 0.0j]))
    @example(batch=np.array([0.05, 0.5, -0.1j, 0.1 + 0.5j, 1.25, 0.01 - 0.3j]))
    def test_planar_batch_equals_points(self, name, batch):
        _assert_batch_equals_points(_PROTOCOL_DOMAINS[name], batch)

    @pytest.mark.parametrize("name", ["ball", "ellipsoid"])
    @settings(max_examples=60, deadline=None)
    @given(batch=_rows_batch)
    @example(batch=np.array([[0.1, 0.2j]]))
    @example(batch=np.array([[1.1, 0.0]], dtype=complex))
    @example(batch=np.array([[0.1, 0.2j], [0.0, 0.9], [0.9, 0.0], [1.1, 0.1j], [0.0, 0.0]], dtype=complex))
    def test_rows_batch_equals_points(self, name, batch):
        _assert_batch_equals_points(_PROTOCOL_DOMAINS[name], batch)

    def test_mixed_batches_have_both_answers(self):
        planar = np.array([0.05, 0.5, 1.25, 0.01 - 0.3j])
        rows = np.array([[0.1, 0.2j], [0.0, 0.9], [1.1, 0.1j]], dtype=complex)
        for name, batch in (("disc", planar), ("omega_prime", planar), ("ball", rows), ("ellipsoid", rows)):
            got = _PROTOCOL_DOMAINS[name].contains(batch)
            assert got.any() and not got.all(), name


# ---------------------------------------------------------------------------
# planar membership: the indexed even-odd kernel against a winding-number sum

_PLANAR_DOMAINS = {
    "disc": _PROTOCOL_DOMAINS["disc"],
    "annulus": annulus(0.3),
    "omega_prime": _PROTOCOL_DOMAINS["omega_prime"],
    "omega_zlogz": build_omega(_PROTOCOL_DOMAINS["omega_prime"]),
}


def _winding_inside(dom, z: complex) -> bool:
    """Reference: winding number 1 about the outer curve and 0 about every hole."""

    def winding(points):
        w = points - z
        return np.sum(np.angle(np.roll(w, -1) / w)) / (2.0 * np.pi) if np.all(w != 0) else 0.0

    return round(winding(dom.outer.points())) == 1 and all(round(winding(h.points())) == 0 for h in dom.holes)


def _samples(dom) -> np.ndarray:
    return np.concatenate([c.points() for c in dom.curves()])


_unit_interval = st.floats(0.0, 1.0)


class TestCrossingKernel:
    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    @settings(max_examples=60, deadline=None)
    @given(u=st.lists(st.tuples(_unit_interval, _unit_interval), min_size=1, max_size=20))
    def test_box_points_match_winding_sum(self, name, u):
        dom = _PLANAR_DOMAINS[name]
        p = dom.outer.points()
        lo = complex(p.real.min(), p.imag.min())
        size = complex(p.real.max(), p.imag.max()) - lo
        z = np.array([lo - 0.1 * size + complex(1.2 * a * size.real, 1.2 * b * size.imag) for a, b in u])
        np.testing.assert_array_equal(dom.contains(z), [_winding_inside(dom, q) for q in z])

    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    @settings(max_examples=60, deadline=None)
    @given(near=st.lists(st.tuples(st.integers(0, 10**6), st.floats(1e-9, 1e-7), st.floats(0.0, 2.0 * np.pi)),
                         min_size=1, max_size=20))
    def test_points_near_samples_match_winding_sum(self, name, near):
        dom = _PLANAR_DOMAINS[name]
        samples = _samples(dom)
        z = np.array([samples[i % len(samples)] + r * np.exp(1j * t) for i, r, t in near])
        np.testing.assert_array_equal(dom.contains(z), [_winding_inside(dom, q) for q in z])

    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    def test_samples_and_non_finite_points_are_outside(self, name, recwarn):
        dom = _PLANAR_DOMAINS[name]
        assert not dom.contains(_samples(dom)).any()
        bad = np.array([complex(np.nan, 0.0), complex(0.05, np.nan), complex(np.inf, 0.0), complex(-np.inf, 0.1),
                        complex(0.05, np.inf), complex(0.05, -np.inf), complex(np.nan, np.inf)])
        assert not dom.contains(bad).any()
        assert not any(dom.contains(q) for q in bad)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_batch_across_chunks_equals_pieces(self):
        dom = _PLANAR_DOMAINS["omega_zlogz"]
        xy = np.random.default_rng(11).uniform(-2.0, 1.0, size=(40_000, 2))
        z = xy[:, 0] + 1j * xy[:, 1]
        got = dom.contains(z)
        assert got.any() and not got.all()
        np.testing.assert_array_equal(got, np.concatenate([dom.contains(z[i : i + 997]) for i in range(0, len(z), 997)]))

    def test_hole_outside_outer_rejected(self):
        with pytest.raises(ConfigError):
            PlanarDomain(CircleCurve(0.0, 1.0), [CircleCurve(3.0, 0.5, orientation=-1)])


class TestRowBlockSeams:
    """Row blocks far smaller than the default give the batched planar kernels and the map fit the default's bits."""

    @pytest.mark.parametrize("chunk", [1, 10_007])
    def test_small_blocks_keep_the_bits(self, chunk, omega_prime, lens_map, monkeypatch):
        z = random_interior_points(omega_prime, 300, seed=9)
        probe = np.concatenate([z, z + 0.1])  # the shifted half is partly outside

        def results():
            near = boundary_distance(omega_prime, z)
            return [omega_prime.contains(probe), near.d, near.nearest, near.normal,
                    omega_prime.tangent_ball_radius(near.nearest, near.normal), *lens_map.forward_gap(z)]

        default = results()
        assert default[0].any() and not default[0].all()
        monkeypatch.setattr(domains, "_CHUNK", chunk)
        for got, want in zip(results(), default):
            assert got.tobytes() == want.tobytes()
        assert conformal._build(omega_prime, 1)._coef.tobytes() == lens_map._coef.tobytes()  # the fit's matrix


def _grid_probes(curve) -> np.ndarray:
    """Points that test a curve's cell grid: its samples, edge midpoints, points 1e-9 to 1e-7 from samples,
    cell corners and grid edges, points just off the grid, and uniform points over the grid and around it."""
    index = curve._sample_index()
    curve.crossings(np.zeros(0, dtype=complex))  # builds the grid
    p = curve.points()
    rng = np.random.default_rng(17)
    (gx, gy), side, (nx, ny) = index.origin, index.side, index.shape
    near = p[rng.integers(0, len(p), 4000)] + rng.uniform(1e-9, 1e-7, 4000) * np.exp(2j * np.pi * rng.uniform(size=4000))
    cx, cy = gx + np.arange(nx + 1) * side, gy + np.arange(ny + 1) * side
    rows, cols = cy[rng.integers(0, ny + 1, 60)], cx[rng.integers(0, nx + 1, 60)]
    borders = np.concatenate([(cx[None, :] + 1j * rows[:, None]).ravel(), (cols[None, :] + 1j * cy[:, None]).ravel()])
    ends = np.array([gx, cx[-1], np.nextafter(gx, -np.inf), np.nextafter(cx[-1], np.inf)])
    off = (ends[:, None] + 1j * np.array([gy, cy[-1], np.nextafter(gy, -np.inf), np.nextafter(cy[-1], np.inf)])).ravel()
    box = (gx - side + (nx + 2) * side * rng.uniform(size=20_000)) + 1j * (gy - side + (ny + 2) * side * rng.uniform(size=20_000))
    return np.concatenate([p, 0.5 * (p + np.roll(p, -1)), near, borders, off, box])


def _far_annulus():
    return annulus(0.5, center=1e6 + 1e6j)


def _tiny_domain():
    """A disc of radius 1e-7 with a hole, finer than the grid's dilation of 1e-6: every cell is marked."""
    return PlanarDomain(CircleCurve(0.3, 1e-7, n=256), [CircleCurve(0.3 + 2e-8j, 3e-8, orientation=-1, n=64)])


_GRID_DOMAINS = {**_PLANAR_DOMAINS, "far_annulus": _far_annulus(), "tiny": _tiny_domain()}


class TestQueryMemory:
    def test_a_large_query_holds_little_memory(self, omega_prime):
        # each curve's squared distances to its block boxes are held for one row block of points at a time;
        # held for all 2,000 points at once they took the peak from 3.5 MB to 11.4 MB
        z = random_interior_points(omega_prime, 2000, seed=1)
        boundary_distance(omega_prime, z[:10])  # imports and caches that a first query leaves behind
        tracemalloc.start()
        try:
            boundary_distance(omega_prime, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestCellGrid:
    """Each curve's cell grid gives the strip test's ``odd`` and ``on_sample``, bit for bit."""

    @staticmethod
    def _assert_grid_equals_strip(curve, z):
        odd, on_sample = curve.crossings(z)
        want_odd, want_on = curve._sample_index()._strip(z.real, z.imag)
        np.testing.assert_array_equal(odd, want_odd)
        np.testing.assert_array_equal(on_sample, want_on)
        return odd, on_sample

    @pytest.mark.parametrize("name", sorted(_GRID_DOMAINS))
    def test_grid_equals_strip_scan(self, name):
        for curve in _GRID_DOMAINS[name].curves():
            odd, on_sample = self._assert_grid_equals_strip(curve, _grid_probes(curve))
            assert odd.any() and not odd.all() and on_sample.any()

    @pytest.mark.parametrize("name", ["omega_prime", "omega_zlogz", "far_annulus"])
    def test_most_cells_answer_alone(self, name):
        for curve in _GRID_DOMAINS[name].curves():
            state = curve._sample_index()._state
            assert np.count_nonzero(state == 2) < 0.2 * len(state) and (state == 1).any()

    def test_every_cell_of_a_tiny_curve_is_marked(self):
        for curve in _GRID_DOMAINS["tiny"].curves():
            assert (curve._sample_index()._state == 2).all()

    def test_one_element_blocks_build_the_same_grid(self, monkeypatch):
        default = []
        for curve in build_omega_prime().curves():
            z = _grid_probes(curve)[::7]  # every kind of probe, fewer of them
            default.append((z, curve._sample_index()._state, curve.crossings(z)))
        monkeypatch.setattr(domains, "_CHUNK", 1)
        for curve, (z, state, (odd, on_sample)) in zip(build_omega_prime().curves(), default):
            got_odd, got_on = self._assert_grid_equals_strip(curve, z)
            assert curve._sample_index()._state.tobytes() == state.tobytes()
            assert got_odd.tobytes() == odd.tobytes() and got_on.tobytes() == on_sample.tobytes()

    @pytest.mark.parametrize("name", sorted(_GRID_DOMAINS))
    def test_sampler_keeps_exactly_the_draws_contains_accepts(self, name):
        dom = _GRID_DOMAINS[name]
        samples = _samples(dom)
        rng = np.random.default_rng(5)
        # samples, points 0.5e-6 to 1.5e-6 from them, and uniform box points
        r = np.concatenate([np.zeros(300), rng.uniform(0.5e-6, 1.5e-6, 3000), np.full(300, 1e-6)])
        z = samples[rng.integers(0, len(samples), len(r))] + r * np.exp(2j * np.pi * rng.uniform(size=len(r)))
        p = dom.outer.points()
        box = rng.uniform((p.real.min(), p.imag.min()), (p.real.max(), p.imag.max()), size=(3000, 2)).view(complex)[:, 0]
        z = np.concatenate([z, box])

        class Fixed:  # draws the points ``z`` in place of uniform ones
            def uniform(self, low, high, size):
                assert size == (len(z), 2)
                return z.view(float).reshape(size)

        inside = dom.contains(z)
        assert inside.any() and not inside.all()
        assert dom._interior_candidates(Fixed(), len(z)).tobytes() == z[inside].tobytes()

    def test_index_and_grid_builds_hold_little_memory(self):
        lens = build_omega_prime()
        curves = lens.curves() + build_omega(lens).curves()
        probe = np.array([0.1 + 0.1j])
        for curve in curves:
            curve._index = None  # the samples stay cached
        tracemalloc.start()
        try:
            for curve in curves:
                curve.crossings(probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestSamplerFrozen:
    """The batched rejection sampler returns the points of the one-at-a-time loop."""

    def test_lens_points(self):
        pts = random_interior_points(build_omega_prime(), 200, seed=4)
        assert pts.dtype == complex and pts.shape == (200,)
        assert _digest(pts) == "9428574a4d5c27246bae4bc3216ba1ebea70b0d3e47cd751761a9d275a58c146"

    def test_image_domain_points(self):
        pts = random_interior_points(_PLANAR_DOMAINS["omega_zlogz"], 500, seed=3)
        assert pts.dtype == complex and pts.shape == (500,)
        assert _digest(pts) == "1ea1fb81ddbb17c9b56e63b7ca850cb004bba8b34e4ca31c8123c436aae40bd7"

    def test_ball_points(self):
        pts = random_interior_points(ball(2), 8, seed=1)
        assert pts.dtype == complex and pts.shape == (8, 2)
        assert _digest(pts) == "b0ce0736232c825a6001bbb8660269f6f6ea2e44177aefb8b31e548bbbd79c89"


class TestSamplerRounds:
    """Later rounds are sized from the acceptance rate; the points stay those of the one-at-a-time loop."""

    @pytest.mark.parametrize("make", [build_omega_prime, lambda: _PLANAR_DOMAINS["omega_zlogz"], ball, ellipsoid])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_prefix_consistency(self, make, seed):
        dom = make()
        points = random_interior_points(dom, 60, seed=seed)
        for m in (1, 7, 59):
            assert np.array_equal(random_interior_points(dom, m, seed=seed), points[:m])

    def test_lens_sample_takes_at_most_three_rounds(self, monkeypatch):
        rounds = []
        candidates = PlanarDomain._interior_candidates

        def spy(dom, rng, count):
            rounds.append(count)
            return candidates(dom, rng, count)

        monkeypatch.setattr(PlanarDomain, "_interior_candidates", spy)
        lens = build_omega_prime()
        assert random_interior_points(lens, 2000, seed=0).shape == (2000,)
        # one round, a tenth more than the polygons' share of the box predicts
        assert rounds == [int(1.1 * 2000 / lens._acceptance())] == [3724]

    def test_a_domain_finer_than_1e_6_is_sampled(self):
        # every draw lies within 1e-6 of a boundary sample; the first round must keep some,
        # or the rounds would never end
        dom = _tiny_domain()
        assert len(dom._interior_candidates(np.random.default_rng(0), 64))
        points = random_interior_points(dom, 5, seed=0)
        assert points.shape == (5,) and dom.contains(points).all()


# ---------------------------------------------------------------------------
# planar boundary distance: the lockstep Brent zero-finder on bounded brackets


_brent_windows = dict(
    which=st.integers(0, 1),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.floats(1e-10, 0.1), st.floats(0.0, 2.0 * np.pi)),
                   min_size=1, max_size=12))


def _slope(curve, z, lo):
    """The slope Re(conj(q - z) dq) of the squared distance from ``z``, at the offset s from ``lo``, as ``_refine`` takes it."""

    def slope(s, lanes):
        q, dq = curve.jet(lo[lanes] + s)
        w = q - z[lanes]
        return w.real * dq.real + w.imag * dq.imag

    return slope


def _near_samples(name, which, picks):
    """For points near chosen samples of a curve, the slope on the window about each sample, with the windows' widths
    and the slope at both ends; only the windows over which it goes from negative to positive are kept."""
    curves = _PLANAR_DOMAINS[name].curves()
    curve = curves[which % len(curves)]
    i = np.array([k % len(curve.params) for k, _, _ in picks])
    z = curve.points()[i] + np.array([r * np.exp(1j * a) for _, r, a in picks])
    lo, hi = domains._windows(curve, i)
    every, slope = np.arange(len(z)), _slope(curve, z, lo)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as in ``_refine``: an end may be a cusp
        ga, gb = slope(np.zeros(len(z)), every), slope(hi - lo, every)
    keep = np.flatnonzero((ga < 0.0) & (gb > 0.0))
    assume(len(keep))
    return _slope(curve, z[keep], lo[keep]), (hi - lo)[keep], ga[keep], gb[keep]


def _scipy_brentq(slope, width):
    """scipy's brentq on each bracket [0, width], one at a time, at the tolerances of ``_refine``."""
    ref = []
    for j, b in enumerate(width):
        x, res = brentq(lambda s, j=j: float(slope(np.array([s]), np.array([j]))[0]), 0.0, b,
                        xtol=domains._XTOL, rtol=domains._RTOL, maxiter=100, full_output=True)
        assert res.converged
        ref.append(res)
    return ref


class TestBoundedBrent:
    """``_brentq`` against scipy's ``brentq`` on the slope of the squared distance, whose zero is a window's argmin."""

    @staticmethod
    def _run(slope, width, ga, gb, seen):
        def f(s, lanes):
            seen.append(lanes)
            return slope(s, lanes)

        return _brentq(f, np.zeros(len(width)), width, ga, gb, domains._XTOL, domains._RTOL, maxiter=100)

    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    @settings(max_examples=25, deadline=None)
    @given(**_brent_windows)
    def test_argmin_matches_scipy_bit_for_bit(self, name, which, picks):
        slope, width, ga, gb = _near_samples(name, which, picks)
        got = self._run(slope, width, ga, gb, [])
        ref = [res.root for res in _scipy_brentq(slope, width)]
        np.testing.assert_array_equal(got.view(np.int64), np.array(ref).view(np.int64))

    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    @settings(max_examples=10, deadline=None)
    @given(**_brent_windows)
    def test_each_lane_evaluates_as_often_as_scipy(self, name, which, picks):
        slope, width, ga, gb = _near_samples(name, which, picks)
        seen = []
        self._run(slope, width, ga, gb, seen)
        # scipy's count holds the two ends, which the caller evaluates
        calls = 2 + np.bincount(np.concatenate([np.zeros(0, dtype=np.intp)] + seen), minlength=len(width))
        assert calls.tolist() == [res.function_calls for res in _scipy_brentq(slope, width)]

    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    @settings(max_examples=10, deadline=None)
    @given(**_brent_windows)
    def test_live_lanes_only_shrink(self, name, which, picks):
        slope, width, ga, gb = _near_samples(name, which, picks)
        seen = []
        self._run(slope, width, ga, gb, seen)
        if seen:
            assert np.isin(seen[0], np.arange(len(width))).all()
        for before, now in zip(seen, seen[1:]):
            assert np.all(np.diff(now) > 0) and np.isin(now, before).all()

    def test_iteration_cap_raises(self):
        f = lambda s, _: s**3 - 0.3  # noqa: E731
        a, b = np.array([0.0, 0.5]), np.array([1.0, 0.9])
        with pytest.raises(SolverError, match="unconverged"):
            _brentq(f, a, b, f(a, None), f(b, None), domains._XTOL, domains._RTOL, maxiter=3)
        assert np.allclose(_brentq(f, a, b, f(a, None), f(b, None), domains._XTOL, domains._RTOL, 100), 0.3 ** (1 / 3))

    def test_nan_objective_raises(self):
        # samples lie on the unit circle; between them the curve is undefined
        grid = np.arange(64) / 64

        def on_samples_only(t):
            e = np.where(np.isin(t, grid), np.exp(2j * np.pi * t), np.nan)
            return e, 2j * np.pi * e

        dom = PlanarDomain(ParamCurve(on_samples_only, n=64))
        assert dom.contains(0.1 + 0.03j)  # whose nearest point lies between samples
        with pytest.raises(SolverError, match="NaN"):
            boundary_distance(dom, 0.1 + 0.03j)

    def test_a_curve_needs_its_derivative(self):
        # a curve is its one callable jet, which gives the derivatives with the points
        for jet in (None, 0.5, np.exp(2j * np.pi * np.arange(8) / 8)):
            with pytest.raises(ConfigError, match="callable jet"):
                ParamCurve(jet)
            with pytest.raises(ConfigError, match="callable jet"):
                MappedCurve(disc().outer, jet)

    def test_a_point_and_a_derivative_callable_raise(self):
        # the second callable is no sample count, and a map takes its jet alone
        with pytest.raises(ConfigError, match="sample count n"):
            ParamCurve(lambda t: np.exp(2j * np.pi * t), lambda t: 2j * np.pi * np.exp(2j * np.pi * t))
        with pytest.raises(TypeError):
            MappedCurve(disc().outer, phi_map, phi_deriv)

    def test_a_window_ending_at_the_cusp(self, recwarn):
        # at t = 0.75 the lens's origin maps to the image's cusp, where phi' is
        # unbounded: the end counts by its distance and brackets nothing
        omega = _PLANAR_DOMAINS["omega_zlogz"]
        with np.errstate(divide="ignore", invalid="ignore"):
            q, dq = omega.outer.jet(np.array([0.75]))
        assert q[0] == 0 and not np.isfinite(dq[0])
        z = phi_map(2.0 ** -np.arange(44, 56))
        lo, hi = domains._windows(omega.outer, omega.outer._sample_index().least(z, 4))
        assert np.any(lo == 0.75) and np.any(hi == 0.75) and np.any((lo < 0.75) & (hi > 0.75))
        bp = boundary_distance(omega, z)
        assert np.isfinite(bp.nearest).all() and np.all(bp.d <= np.abs(z))
        # a window starting at the cusp, for a point whose nearest point in it is that end
        value, at, _, _ = domains._refine([omega.outer], [(np.array([0.75]), np.array([0.75 + 2.0**-40]), np.array([0]))],
                                          lambda q, dq, rows: (np.abs(q - 0.01) ** 2, np.real(np.conj(q - 0.01) * dq)))
        assert value.tolist() == [np.abs(0.0 - 0.01) ** 2] and at.tolist() == [0j]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _assert_distance_batch_equals_points(dom, z):
    batch = boundary_distance(dom, z)
    assert batch.d.shape == batch.nearest.shape == batch.normal.shape == z.shape
    for zj, dj, wj, nj in zip(z, batch.d, batch.nearest, batch.normal):
        one = boundary_distance(dom, zj)
        assert type(one.d) is float and type(one.normal) is complex
        assert (one.d, one.nearest, one.normal) == (dj, wj, nj)


class TestBoundaryDistanceBatch:
    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), count=st.integers(1, 12))
    def test_batch_equals_points(self, name, seed, count):
        dom = _PLANAR_DOMAINS[name]
        _assert_distance_batch_equals_points(dom, random_interior_points(dom, count, seed=seed))

    @pytest.mark.parametrize("name", ["omega_prime", "omega_zlogz"])
    def test_counterexample_points_batch_equals_points(self, name):
        p = 2.0 ** -np.arange(3, 43)
        _assert_distance_batch_equals_points(_PLANAR_DOMAINS[name], p if name == "omega_prime" else phi_map(p))

    def test_polygon_with_three_samples(self):
        triangle = PlanarDomain(PolylineCurve([0, 1, 1j]))
        _assert_distance_batch_equals_points(triangle, np.array([0.2 + 0.2j, 0.1 + 0.5j]))
        assert boundary_distance(triangle, 0.1 + 0.5j).d == pytest.approx(0.1, abs=1e-15)

    def test_outside_point_in_batch_raises(self):
        with pytest.raises(DomainError, match="not interior"):
            boundary_distance(disc(), np.array([0.1, 0.2j, 1.5, 0.3]))

    def test_empty_batch(self):
        bp = boundary_distance(_PLANAR_DOMAINS["omega_prime"], np.array([], dtype=complex))
        assert bp.d.shape == bp.nearest.shape == (0,)


def _report_points(lens):
    """The counterexample report's 40 radial lens points and its 48 image points on Omega."""
    p = 2.0 ** -np.arange(3, 43)
    angular = np.array([2.0 ** -(k + 2) * np.exp(1j * theta) for theta in (-0.3, 0.3) for k in (5, 10, 15, 20)])
    return p, phi_map(np.concatenate([p, angular[lens.contains(angular)]]))


def _assert_same_bits(got, want):
    assert type(got.d) is type(want.d) and type(got.normal) is type(want.normal)
    for field in ("d", "nearest", "normal"):
        assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()


class TestSeveralQueries:
    """``boundary_distance(a, za, (b, zb))`` answers both queries in one run, each with its own bits."""

    def test_report_points(self):
        lens, omega = _PLANAR_DOMAINS["omega_prime"], _PLANAR_DOMAINS["omega_zlogz"]
        p, q = _report_points(lens)
        assert len(q) == 48
        image, radial = boundary_distance(omega, q, (lens, p))
        _assert_same_bits(image, boundary_distance(omega, q))
        _assert_same_bits(radial, boundary_distance(lens, p))

    @pytest.mark.parametrize("za, zb", [
        (np.array([0.35, 0.65, -0.65j, 0.5 + 0.1j]), np.array([0.0, 0.3 + 0.4j, -0.99])),
        (0.65, np.array([0.0, 0.5j])),
        (np.array([0.35, 0.65]), 0.0),
        (np.array([], dtype=complex), np.array([0.0, 0.5j])),
        (np.array([0.35, 0.65]), np.array([], dtype=complex)),
    ])
    def test_annulus_and_disc(self, za, zb):
        ring, round_disc = _PLANAR_DOMAINS["annulus"], disc()
        a, b = boundary_distance(ring, za, (round_disc, zb))
        _assert_same_bits(a, boundary_distance(ring, za))
        _assert_same_bits(b, boundary_distance(round_disc, zb))
        c, d, e = boundary_distance(round_disc, zb, (ring, za), (round_disc, zb))
        _assert_same_bits(c, b), _assert_same_bits(d, a), _assert_same_bits(e, b)

    def test_outside_point_in_a_later_query(self):
        ring, z = _PLANAR_DOMAINS["annulus"], np.array([0.5, 0.1, 0.6j])
        with pytest.raises(DomainError) as alone:
            boundary_distance(ring, z)
        with pytest.raises(DomainError) as together:
            boundary_distance(disc(), np.array([0.0]), (ring, z))
        assert str(together.value) == str(alone.value)

    @pytest.mark.parametrize("first, more", [
        (lambda: disc(), lambda: [(ball(2), np.zeros(2))]),
        (lambda: ball(2), lambda: [(disc(), 0.0)]),
        (lambda: disc(), lambda: [(disc(), 0.0), (ellipsoid(), np.zeros((1, 2)))]),
        (lambda: disc(), lambda: [disc()]),
    ])
    def test_quadratic_or_malformed_query_raises(self, first, more):
        with pytest.raises(ConfigError):
            boundary_distance(first(), 0.0, *more())


class TestNearestSampleOrder:
    """Values recorded with each point's four nearest samples taken by distance, then by lower sample index.

    That is the order of a stable sort of the point's row of sample
    distances, whatever CPU features numpy dispatches to.  Where two windows
    reach the same least distance, as at the disc's centre or on the lens's
    axis of symmetry, the first in that order gives the nearest point.
    Re-recorded when the windows were refined on the slope of the squared
    distance rather than on the squared distance.
    """

    def test_disc_centre_where_every_sample_nearly_ties(self):
        bp = boundary_distance(disc(), 0)
        assert bp.d == 1.0
        assert bp.nearest == 0.9977230666441916 + 0.06744391956366405j

    @pytest.mark.parametrize("name, digest", [
        pytest.param("omega_prime", "9ac20a1665426883a6c30b32d49d24e4e80f5054e08bd5823c19f90e268791b8", id="omega_prime"),
        pytest.param("omega_zlogz", "a2ba255eee733db9133f1dd4762807adb4ad760d88119df21afa78e9d92dc1c2", id="omega_zlogz"),
    ])
    def test_counterexample_points(self, name, digest):
        p = 2.0 ** -np.arange(3, 43)
        bp = boundary_distance(_PLANAR_DOMAINS[name], p if name == "omega_prime" else phi_map(p))
        assert hashlib.sha256(bp.d.tobytes() + bp.nearest.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("z, d, nearest", [
        (0.9j, 0.09999999999999998, 6.123233995736766e-17 + 1j),
        (0.35, 0.04999999999999999, 0.3),
        # equally far from both circles: the outer curve comes first
        (0.65, 0.35, 1.0),
        (-0.65j, 0.35, -1.8369701987210297e-16 - 1j),
        (0.65 * np.exp(0.3j), 0.35, 0.955336489125606 + 0.29552020666133955j),
    ])
    def test_annulus_points(self, z, d, nearest):
        bp = boundary_distance(_PLANAR_DOMAINS["annulus"], z)
        assert (bp.d, bp.nearest) == (d, nearest)

    @pytest.mark.parametrize("holes, digest", [
        (0, "d922b9f256ed71f5e6baad2552b3e968422a819ee808a7c3d1f4b92fa30f4496"),
        (1, "235e0c5c4f5d87052403a60ec1c698c63261627867f13ee52cd6c38a996329e7"),
    ])
    def test_annulus_curves_batch(self, holes, digest):
        ring = _PLANAR_DOMAINS["annulus"]
        dom = PlanarDomain(ring.outer, ring.holes[:holes])
        z = np.array([0.9j, 0.35, 0.65, -0.65j, 0.65 * np.exp(0.3j), 0.5 + 0.1j])
        bp = boundary_distance(dom, z)
        assert hashlib.sha256(bp.d.tobytes() + bp.nearest.tobytes()).hexdigest() == digest


def _stable_least(curve, z):
    """The four nearest samples of each point by a stable sort of its row, the brute-force tie order."""
    return np.argsort(np.abs(curve.points() - z[:, None]), axis=1, kind="stable")[:, :4]


def _index_probes(name):
    """Random points of a planar preset, with points where its samples tie or cluster."""
    dom = _PLANAR_DOMAINS[name]
    p, q = _report_points(_PLANAR_DOMAINS["omega_prime"])
    special = {
        "disc": [0.0],  # the centre
        "annulus": [0.65, -0.65, 0.65j, -0.65j, 0.5, -0.9j],  # on the symmetry axes
        "omega_prime": p,  # the report's points
        "omega_zlogz": q,
    }[name]
    z = np.concatenate([random_interior_points(dom, 200, seed=4), special])
    return dom, z


class TestSampleIndex:
    """Each curve's block index finds the four nearest samples that a stable sort of the dense row finds."""

    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    def test_four_nearest_match_a_stable_sort(self, name):
        dom, z = _index_probes(name)
        for curve in dom.curves():
            want = _stable_least(curve, z)
            np.testing.assert_array_equal(curve._sample_index().least(z, 4), want)
            dense = domains._least(lambda block: np.abs(curve.points() - z[block, None]), len(z), len(want), 4)
            np.testing.assert_array_equal(dense, want)

    def test_curve_shorter_than_one_block(self):
        curve = CircleCurve(0.0, 1.0, n=20)
        assert len(curve.points()) < domains._RUN
        z = np.array([0.0, 0.3 + 0.1j, -0.5j, 0.99])
        np.testing.assert_array_equal(curve._sample_index().least(z, 4), _stable_least(curve, z))

    @pytest.mark.parametrize("name, value", [("_RUN", 1), ("_RUN", 7), ("_RUN", 4096), ("_CHUNK", 1)])
    def test_block_lengths_keep_the_bits(self, name, value, monkeypatch):
        def results():
            lens = build_omega_prime()  # fresh curves, whose indices are built at the patched length
            p, q = _report_points(lens)
            out = list(boundary_distance(build_omega(lens), q, (lens, p)))
            out += [boundary_distance(dom, random_interior_points(dom, 60, seed=6)) for dom in (disc(), annulus(0.3))]
            return [x for bp in out for x in (bp.d, bp.nearest)], lens

        default, _ = results()
        monkeypatch.setattr(domains, name, value)
        got, lens = results()
        for a, b in zip(got, default):
            assert a.tobytes() == b.tobytes()
        z = random_interior_points(lens, 100, seed=8)
        np.testing.assert_array_equal(lens.outer._sample_index().least(z, 4), _stable_least(lens.outer, z))


def _tie_heavy():
    """200 rows of 4,300 values in 0..5, nearly all tied, and ``_least``'s four columns of each row."""
    v = np.random.default_rng(3).integers(0, 6, size=(200, 4300)).astype(float)
    return v, domains._least(lambda block: v[block], 200, 4300, 4)


# the digest of ``_tie_heavy``'s columns, computed in a child process
_TIE_HEAVY_CHILD = ("import hashlib, numpy as np; from squeezelab import domains; "
                    "v = np.random.default_rng(3).integers(0, 6, size=(200, 4300)).astype(float); "
                    "print(hashlib.sha256(domains._least(lambda block: v[block], 200, 4300, 4).tobytes()).hexdigest())")


def _avx512_dispatched() -> list:
    """The AVX-512 targets that numpy dispatches kernels to in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in ("X86_V4", "AVX512_SPR", "AVX512_ICL") if f in __cpu_dispatch__ and __cpu_features__.get(f)]


class TestTieOrder:
    """``_least`` breaks ties by the lower column, the same on every CPU."""

    def test_least_is_a_stable_sort(self):
        v, least = _tie_heavy()
        np.testing.assert_array_equal(least, np.argsort(v, axis=1, kind="stable")[:, :4])

    @pytest.mark.skipif(not _avx512_dispatched(), reason="numpy dispatches no AVX-512 kernel here")
    def test_same_indices_without_avx512(self):
        # numpy's partition breaks ties differently in its AVX-512 kernels;
        # the variable is set for the child process only
        src = str(Path(squeezelab.__file__).resolve().parent.parent)
        # no bytecode: the child would otherwise write it into the package directory
        env = {"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1",
               "NPY_DISABLE_CPU_FEATURES": " ".join(_avx512_dispatched())}
        child = subprocess.run([sys.executable, "-c", _TIE_HEAVY_CHILD], capture_output=True, text=True,
                               check=True, timeout=120, env=env)
        assert child.stdout.strip() == hashlib.sha256(_tie_heavy()[1].tobytes()).hexdigest()


class TestOneBrentRun:
    """A planar distance batch refines the windows of every curve that can hold a nearest point in one lockstep run."""

    @pytest.fixture()
    def runs(self, monkeypatch):
        """The number of brackets of each ``_brentq`` run."""
        lanes = []
        brentq_run = domains._brentq

        def spy(f, a, *args, **kw):
            lanes.append(len(a))
            return brentq_run(f, a, *args, **kw)

        monkeypatch.setattr(domains, "_brentq", spy)
        return lanes

    @pytest.fixture()
    def curve_windows(self, monkeypatch):
        """The number of windows of each curve, per ``_refine`` call."""
        counts = []
        refine = domains._refine

        def spy(curves, windows, *args, **kw):
            counts.append([len(lo) for lo, _, _ in windows])
            return refine(curves, windows, *args, **kw)

        monkeypatch.setattr(domains, "_refine", spy)
        return counts

    @pytest.mark.parametrize("name", ["annulus", "omega_prime", "omega_zlogz"])
    def test_one_run_per_batch(self, name, runs, curve_windows):
        dom = _PLANAR_DOMAINS[name]
        boundary_distance(dom, random_interior_points(dom, 12, seed=1))
        assert len(runs) == 1 and sum(curve_windows[0]) >= 12 * 4
        assert 12 <= runs[0] <= sum(curve_windows[0])  # at least one bracket per point
        boundary_distance(dom, random_interior_points(dom, 1, seed=1)[0])
        assert len(runs) == 2

    def test_one_run_for_several_queries(self, runs, curve_windows):
        lens, omega = _PLANAR_DOMAINS["omega_prime"], _PLANAR_DOMAINS["omega_zlogz"]
        p, q = _report_points(lens)
        boundary_distance(omega, q, (lens, p))
        # the outer curves only: no hole can hold a nearest point, so neither hole reaches the run
        assert len(runs) == 1
        assert curve_windows == [[len(q) * 4, len(p) * 4]]

    def test_each_curve_point_evaluated_once(self, monkeypatch):
        # in the report's query each pass evaluates a curve's points and derivatives in one jet call, the lens's
        # for its own windows and for the image's, and each curve's block squares serve its bounds and its
        # nearest samples
        lens, omega = _PLANAR_DOMAINS["omega_prime"], _PLANAR_DOMAINS["omega_zlogz"]
        p, q = _report_points(lens)
        boundary_distance(omega, q, (lens, p))  # the curves' samples and indices, which a first query builds
        calls = collections.Counter()

        def spy(name, f):
            def counted(*args):
                calls[name] += 1
                return f(*args)

            return counted

        monkeypatch.setattr(lens.outer, "_jet", spy("lens", lens.outer._jet))
        for curve in omega.curves():
            monkeypatch.setattr(curve, "_jet", spy("z log z", curve._jet))
        monkeypatch.setattr(domains, "_box_squares", spy("squares", domains._box_squares))
        boundary_distance(omega, q, (lens, p))
        assert calls == {"lens": 8, "z log z": 7, "squares": 4}

    @pytest.mark.parametrize("z", [0.9, 0.9 + 1e-9j])
    def test_a_window_past_t_0_is_one_lane(self, z, runs, curve_windows):
        # the four samples nearest z straddle t = 0, and the windows about two of them wrap;
        # each is one lane ending past 1, not two lanes searching the same arc
        d = boundary_distance(disc(), z).d
        assert curve_windows == [[4]] and len(runs) == 1
        assert d == pytest.approx(1.0 - abs(z), rel=1e-15)

    def test_report_query_takes_at_most_8_passes(self, monkeypatch):
        passes = [1]  # the window ends
        brentq_run = domains._brentq

        def spy(f, *args, **kw):
            def counted(x, lanes):
                passes.append(len(x))
                return f(x, lanes)

            return brentq_run(counted, *args, **kw)

        monkeypatch.setattr(domains, "_brentq", spy)
        lens, omega = _PLANAR_DOMAINS["omega_prime"], _PLANAR_DOMAINS["omega_zlogz"]
        p, q = _report_points(lens)
        boundary_distance(omega, q, (lens, p))
        assert 1 < len(passes) <= 8

    def test_point_equally_far_from_both_circles_keeps_both(self, curve_windows):
        ring = _PLANAR_DOMAINS["annulus"]
        assert boundary_distance(ring, 0.65).d == 0.35
        assert len(curve_windows) == 1 and all(n >= 4 for n in curve_windows[0])

    def test_a_point_by_the_hole_leaves_the_outer_curve_out(self, curve_windows, monkeypatch):
        # 0.695 from the outer circle and 0.005 from the hole: the outer curve's nearest block
        # box lies farther than the hole's farthest corner, so it gets no window
        ring = _PLANAR_DOMAINS["annulus"]
        z = 0.305 * np.exp(2j * np.pi * np.random.default_rng(1).uniform(size=100))
        pruned = boundary_distance(ring, z)
        assert curve_windows == [[0, 400]]
        np.testing.assert_allclose(pruned.d, np.abs(z) - 0.3, rtol=1e-13)
        # with no curve left out, both curves are refined and every bit stays
        monkeypatch.setattr(domains._SampleIndex, "bounds", lambda index, z: (np.zeros(len(z)), np.full(len(z), np.inf)))
        _assert_same_bits(boundary_distance(ring, z), pruned)
        assert curve_windows[1] == [400, 400]

    def test_tangent_ball_radius_makes_one_run(self, runs):
        dom = _PLANAR_DOMAINS["annulus"]
        assert dom.tangent_ball_radius(np.array([1.0, 0.3j]), np.array([-1.0, 1j])) == pytest.approx(0.35)
        assert len(runs) == 1


def _param_circle(center, radius, n=2048):
    """A circle given as a plain ``ParamCurve``, by one callable giving its points and their derivatives."""

    def jet(t):
        e = np.exp(2j * np.pi * t)
        return center + radius * e, 2j * np.pi * radius * e

    return ParamCurve(jet, n=n)


class TestNearestPointAccuracy:
    """The nearest points are zeros of the slope of the squared distance, found to the parameter's resolution."""

    @pytest.mark.parametrize("make, center, radii", [
        pytest.param(disc, 0.0, [1.0], id="disc"),
        pytest.param(lambda: annulus(0.3), 0.0, [1.0, 0.3], id="annulus"),
        pytest.param(lambda: PlanarDomain(_param_circle(0.2, 0.7)), 0.2, [0.7], id="param_circle"),
    ])
    def test_circles_match_the_closed_form(self, make, center, radii):
        dom = make()
        z = random_interior_points(dom, 200, seed=3)
        bp = boundary_distance(dom, z)
        r = np.abs(z - center)
        gaps = np.array([np.abs(radius - r) for radius in radii])
        which = np.argmin(gaps, axis=0)
        exact, radius = gaps[which, np.arange(len(z))], np.array(radii)[which]
        # a curve point's coordinates are rounded, an absolute error of a few spacings
        # of its size; relative to the distance that grows next to the circle
        assert np.all(np.abs(bp.d - exact) <= 1e-14 * exact + 4.0 * np.spacing(abs(center) + radius))
        np.testing.assert_allclose(bp.nearest, center + radius * (z - center) / r, rtol=0.0, atol=1e-13)

    def test_report_image_points_reach_a_dense_scan(self):
        # the counterexample's 48 image points, against |gamma(t) - q| at 4,001 parameters
        # across each window of each curve
        omega = _PLANAR_DOMAINS["omega_zlogz"]
        _, q = _report_points(_PLANAR_DOMAINS["omega_prime"])
        d = boundary_distance(omega, q).d
        scan = np.full(len(q), np.inf)
        for curve in omega.curves():
            lo, hi = domains._windows(curve, curve._sample_index().least(q, 4))
            t = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, 4001)
            scan = np.minimum(scan, np.abs(curve.point(t) - q[:, None, None]).min(axis=(1, 2)))
        assert np.all(d <= scan * (1.0 + 1e-15))

    @pytest.mark.parametrize("name", ["disc", "annulus", "omega_prime"])
    def test_normal_points_from_the_nearest_point_to_z(self, name):
        # z lies on the inward normal at its nearest point, so (z - nearest) / d is that normal
        dom = _PLANAR_DOMAINS[name]
        z = random_interior_points(dom, 200, seed=4)
        bp = boundary_distance(dom, z)
        np.testing.assert_allclose(bp.normal, (z - bp.nearest) / bp.d, rtol=0.0, atol=1e-12)


def _assert_quadratic_batch_equals_points(dom, z):
    batch = boundary_distance(dom, z)
    assert batch.d.shape == (len(z),) and batch.nearest.shape == batch.normal.shape == z.shape
    for zj, dj, wj, nj in zip(z, batch.d, batch.nearest, batch.normal):
        one = boundary_distance(dom, zj)
        assert type(one.d) is float and one.d == dj
        assert np.array_equal(one.nearest, wj) and np.array_equal(one.normal, nj)


class TestQuadraticDistanceBatch:
    @pytest.mark.parametrize("make", [ball, ellipsoid])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), count=st.integers(1, 12))
    def test_batch_equals_points(self, make, seed, count):
        dom = make()
        _assert_quadratic_batch_equals_points(dom, random_interior_points(dom, count, seed=seed))

    @pytest.mark.parametrize("make", [ball, ellipsoid])
    def test_special_rows_batch_equals_points(self, make):
        # the degenerate rows (x, 0) with |x| <= 1/2 (a sphere of nearest
        # points on the ellipsoid), their neighbours next to the pole and too
        # small to square, the centre, the axis vertices, mixed with generic rows
        x = np.linspace(-0.5, 0.5, 21) * np.exp(0.7j)
        rows = [np.column_stack([x, np.zeros_like(x)]), np.column_stack([x, np.full_like(x, 1e-12)]),
                np.column_stack([x, np.full_like(x, 1e-158j)]), [[1e-170, 1e-160j]],
                np.zeros((1, 2)), [[1.0 - 2.0**-i, 0.0] for i in range(1, 53)],
                random_interior_points(make(), 5, seed=4)]
        _assert_quadratic_batch_equals_points(make(), np.concatenate(rows).astype(complex))

    @pytest.mark.parametrize("make", [lambda: ball(2), ellipsoid, lambda: ellipsoid(0.3, 3)])
    def test_tangent_ball_takes_the_normal(self, make):
        dom = make()
        z = random_interior_points(dom, 50, seed=1)
        bp = boundary_distance(dom, z)
        np.testing.assert_allclose(bp.normal, (z - bp.nearest) / bp.d[:, None], rtol=0.0, atol=1e-12)
        for x, n in zip(bp.nearest, bp.normal):
            assert dom.tangent_ball_radius(x, n) > 0.0

    def test_centre_of_ball(self):
        bp = boundary_distance(ball(2), np.zeros((3, 2)))
        assert bp.d.tolist() == [1.0, 1.0, 1.0]
        assert bp.nearest.tolist() == [[1.0, 0.0]] * 3

    @pytest.mark.parametrize("make", [ball, ellipsoid])
    def test_outside_row_raises(self, make):
        with pytest.raises(DomainError, match=r"point \[0\.\+0\.j 1\.\+0\.j\] is not interior"):
            boundary_distance(make(), np.array([[0.1, 0.0], [0.0, 1.0], [0.2, 0.0]]))

    @pytest.mark.parametrize("make", [ball, ellipsoid])
    def test_empty_batch(self, make):
        bp = boundary_distance(make(), np.zeros((0, 2), dtype=complex))
        assert bp.d.shape == (0,) and bp.nearest.shape == (0, 2)


_weights = st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4)
_complex_coord = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _assert_slice_circle_touches_the_boundary(dom, z, v):
    # the circle of radius s = R - |offset| about z in the line z + C v touches
    # the boundary at the point opposite the slice disc's centre and lies
    # inside just below that radius
    radius, offset = dom.slice_disc(z, v)
    s = radius - abs(offset)
    vhat = v / np.linalg.norm(v)
    beta = np.sum(dom.w * np.conj(z) * vhat)
    toward = np.exp(-1j * np.angle(beta))  # conj(beta) / |beta|, without dividing by a subnormal |beta|
    assert abs(np.sum(dom.w * np.abs(z + s * toward * vhat) ** 2) - 1.0) <= 1e-12
    circle = np.exp(2j * np.pi * np.arange(4096) / 4096) * s * (1.0 - 1e-12)
    assert dom.contains(z + np.multiply.outer(circle, vhat)).all()


class _Drawn:
    """Stands in for ``st.data()`` in an ``@example``: each ``draw`` returns the next given value."""

    def __init__(self, *values):
        self.values = values
        self.count = 0

    def draw(self, strategy):
        value = self.values[self.count % len(self.values)]
        self.count += 1
        return value


class TestSliceDistance:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), w=_weights, level=st.floats(0.0, 0.99))
    # sum w|z|^2 is subnormal here, so level / q overflows
    @example(data=_Drawn([1.9331129491301375e-159 + 0j], [1.0 + 0j]), w=[1.0], level=0.5)
    def test_quadratic_slice_circle_touches_the_boundary(self, data, w, level):
        # z at sum w|z|^2 = level, any direction v
        dom = DefiningFunctionDomain(w)
        n = dom.dim
        vectors = st.lists(_complex_coord, min_size=n, max_size=n)
        z = np.array(data.draw(vectors))
        v = np.array(data.draw(vectors.filter(lambda c: np.linalg.norm(c) > 1e-3)))
        q = np.sum(dom.w * np.abs(z) ** 2)
        z = z * (np.sqrt(level) / np.sqrt(q)) if q > 0 else z
        _assert_slice_circle_touches_the_boundary(dom, z, v)

    def test_quadratic_slice_circle_at_a_subnormal_point(self):
        # <z, v> is subnormal here, and conj(beta) / |beta| overflowed once
        dom = DefiningFunctionDomain([1.0])
        _assert_slice_circle_touches_the_boundary(dom, np.array([2.225073858507e-311 + 0j]), np.array([1.0 + 0j]))

    @pytest.mark.parametrize("make", [ball, ellipsoid])
    def test_quadratic_batch_equals_rows(self, make):
        dom = make()
        z = np.concatenate([random_interior_points(dom, 12, seed=6), np.zeros((1, 2))])
        for v in (np.array([1.0, 0.0]), np.array([0.3 - 0.2j, 1j])):
            radius, offset = dom.slice_disc(z, v)
            assert radius.shape == offset.shape == (len(z),)
            for zj, rj, cj in zip(z, radius, offset):
                one = dom.slice_disc(zj, v)
                assert type(one[0]) is float and type(one[1]) is complex and one == (rj, cj)
        assert all(x.shape == (0,) for x in dom.slice_disc(np.zeros((0, 2)), v))

    @pytest.mark.parametrize("name", ["disc", "omega_prime"])
    def test_planar_is_boundary_distance(self, name):
        # the disc is tangent at the nearest boundary point, and z lies on its
        # normal there, so the edge of the disc is the boundary distance from z
        dom = _PLANAR_DOMAINS[name]
        z = random_interior_points(dom, 6, seed=2)
        radius, offset = dom.slice_disc(z, 1j)
        d = boundary_distance(dom, z).d
        np.testing.assert_allclose(radius - np.abs(offset), d, rtol=1e-6)
        assert np.all(radius - np.abs(offset) <= d + 1e-12)
        assert dom.slice_disc(z[0], 1.0)[0] == radius[0]

    def test_planar_disc_at_a_corner_raises(self):
        # in the unit square the disc tangent at an edge's midpoint is the
        # inscribed circle; next to a corner the nearest point is on an edge,
        # and the disc tangent there is inscribed in the corner
        square = PlanarDomain(PolylineCurve([0, 1, 1 + 1j, 1j]))
        radius, offset = square.slice_disc(0.5 + 0.1j, 1.0)
        assert radius == pytest.approx(0.5, abs=1e-12) and offset == pytest.approx(0.4j, abs=1e-12)
        radius, offset = square.slice_disc(0.01 + 0.01j, 1.0)
        assert radius == pytest.approx(0.01, abs=1e-15) and abs(offset) <= 1e-15
        # the nearest point of 0.99 + 0.8j is the reflex corner 1 + 1j, whose normal
        # is that of the edge leaving it, and no disc tangent there holds the point
        ell = PlanarDomain(PolylineCurve([0, 2, 2 + 1j, 1 + 1j, 1 + 2j, 2j]))
        assert boundary_distance(ell, 0.99 + 0.8j).nearest == 1 + 1j
        with pytest.raises(DomainError, match="tangent disc misses"):
            ell.slice_disc(0.99 + 0.8j, 1.0)
        # the nearest point of phi(2^-50) is the image's cusp, where the curve has no normal
        omega, z = _PLANAR_DOMAINS["omega_zlogz"], phi_map(2.0**-50)
        bp = boundary_distance(omega, z)
        assert bp.nearest == 0 and np.isnan(bp.normal)
        with pytest.raises(DomainError, match="no boundary normal"):
            omega.slice_disc(z, 1.0)

    def test_planar_centre_lies_on_the_normal_through_z(self):
        # the centre, the nearest point and z are collinear: the centre is on the
        # inward normal at the nearest point, and so is z
        lens = _PLANAR_DOMAINS["omega_prime"]
        z = random_interior_points(lens, 200, seed=4)
        radius, offset = lens.slice_disc(z, 1j)
        foot = boundary_distance(lens, z).nearest
        to_centre, to_z = z + offset * 1j - foot, z - foot
        sine = (np.conj(to_centre) * to_z).imag / (np.abs(to_centre) * np.abs(to_z))
        assert np.max(np.abs(sine)) <= 1e-11

    @pytest.mark.parametrize("make", [ball, ellipsoid])
    def test_outside_row_raises(self, make):
        with pytest.raises(DomainError, match="not interior"):
            make().slice_disc(np.array([[0.1, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))

    def test_underflowing_direction(self):
        # the norm of [5e-324, 0] squares to 0, yet the direction is e_1
        assert np.array_equal(_unit(np.array([5e-324, 0.0])), [1.0, 0.0])
        assert _unit(5e-324j) == 1j
        with pytest.raises(DomainError, match="zero direction"):
            _unit(np.zeros(2))
        z = np.array([0.3 + 0.1j, 0.2])
        assert ball(2).slice_disc(z, np.array([5e-324, 0.0])) == ball(2).slice_disc(z, np.array([1.0, 0.0]))


def test_import_loads_no_scipy():
    src = str(Path(squeezelab.__file__).resolve().parent.parent)
    code = ("import sys, squeezelab.cli, squeezelab.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
                         env={"PYTHONPATH": src, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.stdout.strip() == "[]"
