"""Domain presets, boundary distance, and the cusped image domain.

Oracles: exact distances for the disc, ball, and ellipsoid; hand-evaluated
values of the map z log z and its collisions outside the source lens.
"""

import gc
import hashlib
import json
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import squeezelab
from squeezelab.domains import (
    CircleCurve,
    DefiningFunctionDomain,
    OmegaPrimeParams,
    ParamCurve,
    PlanarDomain,
    _bounded_brent,
    annulus,
    ball,
    boundary_distance,
    build_omega,
    build_omega_prime,
    disc,
    domain_from_spec,
    ellipsoid,
    phi_deriv,
    phi_map,
    preset,
    random_interior_points,
)
from squeezelab.errors import ConfigError, DomainError, SolverError


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
                bp = boundary_distance(e, np.array([x * phase, 0.0]))
                assert bp.d == pytest.approx(np.sqrt(0.5 - x * x), abs=1e-15)
                assert np.sum(e.w * np.abs(bp.nearest) ** 2) == pytest.approx(1.0, abs=1e-15)
                assert np.linalg.norm(bp.nearest - bp.z) == pytest.approx(bp.d, abs=1e-15)
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
        bp = boundary_distance(e, np.array([a1 * np.exp(1j * phases[0]), a2 * np.exp(1j * phases[1])]))

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
        assert np.linalg.norm(bp.nearest - bp.z) == pytest.approx(bp.d, abs=1e-15)

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

    def test_spec_roundtrip(self, omega_prime):
        spec = omega_prime.to_spec()
        dom2 = domain_from_spec(spec)
        assert dom2.connectivity == 2
        assert dom2.contains(0.05) and not dom2.contains(0.5)

    def test_defining_spec_roundtrip_keeps_parameters(self):
        e = ellipsoid(b=0.3)
        dom2 = domain_from_spec(json.loads(json.dumps(e.to_spec())))
        assert not e.contains(np.array([0.0, 0.5]))
        assert not dom2.contains(np.array([0.0, 0.5]))
        assert dom2.contains(np.array([0.0, 0.25]))
        assert domain_from_spec(ball(3).to_spec()).dim == 3

    def test_defining_spec_roundtrip_from_weights_alone(self):
        dom = DefiningFunctionDomain([1.0, 3.0])
        rebuilt = domain_from_spec(json.loads(json.dumps(dom.to_spec())))
        assert rebuilt.w.tobytes() == dom.w.tobytes()
        e = ellipsoid(b=0.3)
        assert domain_from_spec(json.loads(json.dumps(e.to_spec()))).w.tobytes() == e.w.tobytes()

    def test_random_interior_points(self, omega_prime):
        pts = random_interior_points(omega_prime, 100, seed=4)
        assert all(omega_prime.contains(p) for p in pts)
        np.testing.assert_array_equal(pts, random_interior_points(omega_prime, 100, seed=4))

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

    @pytest.mark.parametrize("name", sorted(_PROTOCOL_DOMAINS))
    def test_spec_roundtrip_agrees_on_contains(self, name):
        dom = _PROTOCOL_DOMAINS[name]
        rebuilt = domain_from_spec(json.loads(json.dumps(dom.to_spec())))
        rng = np.random.default_rng(3)
        xy = rng.uniform(-1.1, 1.1, size=(300, 4))
        pts = xy[:, 0] + 1j * xy[:, 1] if name in ("disc", "omega_prime") else xy[:, :2] + 1j * xy[:, 2:]
        pts = np.concatenate([pts, random_interior_points(dom, 50, seed=5)])
        inside = dom.contains(pts)
        assert inside.any() and not inside.all()
        np.testing.assert_array_equal(rebuilt.contains(pts), inside)


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


# ---------------------------------------------------------------------------
# planar boundary distance: the lockstep bounded Brent kernel


class TestBoundedBrent:
    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    @settings(max_examples=25, deadline=None)
    @given(which=st.integers(0, 1),
           picks=st.lists(st.tuples(st.integers(0, 10**6), st.floats(1e-10, 0.1), st.floats(0.0, 2.0 * np.pi)),
                          min_size=1, max_size=12))
    def test_argmin_matches_scipy_bit_for_bit(self, name, which, picks):
        curves = _PLANAR_DOMAINS[name].curves()
        curve = curves[which % len(curves)]
        # points near chosen samples, each with the parameter window around its sample
        t, n = curve.params, len(curve.params)
        i = np.array([k % n for k, _, _ in picks])
        z = curve.points()[i] + np.array([r * np.exp(1j * a) for _, r, a in picks])
        lo, hi = t[(i - 1) % n], t[(i + 1) % n]
        lo = np.where(hi < lo, lo - 1.0, lo)

        def sq_dist(s):
            w = curve.point(s) - z
            return w.real * w.real + w.imag * w.imag

        got, _ = _bounded_brent(sq_dist, lo, hi, xatol=1e-15, maxiter=400)
        ref = []
        for zj, a, b in zip(z, lo, hi):

            def one(s, zj=zj):
                w = curve.point(np.array([s]))[0] - zj
                return w.real * w.real + w.imag * w.imag

            res = minimize_scalar(one, bounds=(a, b), method="bounded", options={"xatol": 1e-15, "maxiter": 400})
            assert res.status == 0
            ref.append(float(res.x))
        np.testing.assert_array_equal(got.view(np.int64), np.array(ref).view(np.int64))

    def test_iteration_cap_raises(self):
        with pytest.raises(SolverError):
            _bounded_brent(lambda s: (s - 0.3) ** 2, np.array([0.0, 0.5]), np.array([1.0, 0.6]), xatol=1e-15,
                           maxiter=5)

    def test_nan_objective_raises(self):
        # samples lie on the unit circle; between them the curve is undefined
        grid = np.arange(64) / 64

        def on_samples_only(t):
            return np.where(np.isin(t, grid), np.exp(2j * np.pi * t), np.nan)

        dom = PlanarDomain(ParamCurve(on_samples_only, n=64))
        assert dom.contains(0.1)
        with pytest.raises(SolverError):
            boundary_distance(dom, 0.1)


def _assert_distance_batch_equals_points(dom, z):
    batch = boundary_distance(dom, z)
    assert batch.d.shape == batch.nearest.shape == z.shape
    for zj, dj, wj in zip(z, batch.d, batch.nearest):
        one = boundary_distance(dom, zj)
        assert type(one.d) is float and type(one.z) is complex
        assert (one.d, one.nearest) == (dj, wj)


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
        triangle = domain_from_spec({"kind": "planar", "outer": [[0, 0], [1, 0], [0, 1]]})
        _assert_distance_batch_equals_points(triangle, np.array([0.2 + 0.2j, 0.1 + 0.5j]))
        assert boundary_distance(triangle, 0.1 + 0.5j).d == pytest.approx(0.1, abs=1e-15)

    def test_outside_point_in_batch_raises(self):
        with pytest.raises(DomainError, match="not interior"):
            boundary_distance(disc(), np.array([0.1, 0.2j, 1.5, 0.3]))

    def test_empty_batch(self):
        bp = boundary_distance(_PLANAR_DOMAINS["omega_prime"], np.array([], dtype=complex))
        assert bp.d.shape == bp.nearest.shape == (0,)


def test_import_loads_no_scipy():
    src = str(Path(squeezelab.__file__).resolve().parent.parent)
    code = ("import sys, squeezelab.cli, squeezelab.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
                         env={"PYTHONPATH": src, "PATH": ""})
    assert out.stdout.strip() == "[]"
