"""Domain presets, boundary distance, and the cusped image domain.

Oracles: exact distances for the disc, ball, and ellipsoid; hand-evaluated
values of the map z log z and its collisions outside the source lens.
"""

import gc
import hashlib
import json
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import squeezelab
from squeezelab import conformal, domains
from squeezelab.domains import (
    CircleCurve,
    DefiningFunctionDomain,
    ParamCurve,
    PlanarDomain,
    _bounded_brent,
    _unit,
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
        bp = boundary_distance(e, np.array(z, dtype=complex))
        assert bp.d == pytest.approx(d, abs=1e-15)
        assert np.sum(e.w * np.abs(bp.nearest) ** 2) == pytest.approx(1.0, abs=1e-15)
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

    def test_spec_roundtrip(self, omega_prime):
        spec = omega_prime.to_spec()
        dom2 = domain_from_spec(spec)
        assert dom2.connectivity == 2
        assert dom2.contains(0.05) and not dom2.contains(0.5)
        # specs written before the smoothness label was dropped still load
        assert domain_from_spec({**spec, "smoothness": "C2"}).connectivity == 2

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

    @pytest.mark.parametrize("count", [-1, 2.5, "3"])
    def test_random_interior_points_rejects_a_bad_count(self, count):
        with pytest.raises(ConfigError, match="point count"):
            random_interior_points(disc(), count)
        assert random_interior_points(disc(), 0).shape == (0,)

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


class TestRowBlockSeams:
    """Row blocks far smaller than the default give the batched planar kernels and the map fit the default's bits."""

    @pytest.mark.parametrize("chunk", [1, 10_007])
    def test_small_blocks_keep_the_bits(self, chunk, omega_prime, lens_map, monkeypatch):
        z = random_interior_points(omega_prime, 300, seed=9)
        probe = np.concatenate([z, z + 0.1])  # the shifted half is partly outside

        def results():
            near = boundary_distance(omega_prime, z)
            foot, normal = omega_prime._frames(near.nearest)
            return [omega_prime.contains(probe), near.d, near.nearest, foot, normal,
                    omega_prime.tangent_ball_radius(foot, normal), *lens_map.forward_gap(z)]

        default = results()
        assert default[0].any() and not default[0].all()
        monkeypatch.setattr(domains, "_CHUNK", chunk)
        for got, want in zip(results(), default):
            assert got.tobytes() == want.tobytes()
        assert conformal._build(omega_prime, 1)._coef.tobytes() == lens_map._coef.tobytes()  # the fit's matrix


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
        assert random_interior_points(build_omega_prime(), 2000, seed=0).shape == (2000,)
        assert rounds[0] == 2000 and len(rounds) <= 3


# ---------------------------------------------------------------------------
# planar boundary distance: the lockstep bounded Brent kernel


_brent_windows = dict(
    which=st.integers(0, 1),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.floats(1e-10, 0.1), st.floats(0.0, 2.0 * np.pi)),
                   min_size=1, max_size=12))


def _near_samples(name, which, picks):
    """A curve, points near chosen samples of it, and the parameter window about each sample."""
    curves = _PLANAR_DOMAINS[name].curves()
    curve = curves[which % len(curves)]
    t, n = curve.params, len(curve.params)
    i = np.array([k % n for k, _, _ in picks])
    z = curve.points()[i] + np.array([r * np.exp(1j * a) for _, r, a in picks])
    lo, hi = t[(i - 1) % n], t[(i + 1) % n]
    return curve, z, np.where(hi < lo, lo - 1.0, lo), hi


def _scipy_brent(curve, z, lo, hi):
    """scipy's bounded minimiser of the squared distance on each window, one at a time."""
    ref = []
    for zj, a, b in zip(z, lo, hi):

        def one(s, zj=zj):
            w = curve.point(np.array([s]))[0] - zj
            return w.real * w.real + w.imag * w.imag

        res = minimize_scalar(one, bounds=(a, b), method="bounded", options={"xatol": 1e-15, "maxiter": 400})
        assert res.status == 0
        ref.append(res)
    return ref


class TestBoundedBrent:
    @staticmethod
    def _sq_dist(curve, z, seen):
        """Squared distance from ``z`` on the live lanes, recording each ``lanes`` array it is given."""

        def f(s, lanes):
            seen.append(lanes)
            w = curve.point(s) - z[lanes]
            return w.real * w.real + w.imag * w.imag

        return f

    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    @settings(max_examples=25, deadline=None)
    @given(**_brent_windows)
    def test_argmin_matches_scipy_bit_for_bit(self, name, which, picks):
        curve, z, lo, hi = _near_samples(name, which, picks)
        got, _ = _bounded_brent(self._sq_dist(curve, z, []), lo, hi, xatol=1e-15, maxiter=400)
        ref = [float(res.x) for res in _scipy_brent(curve, z, lo, hi)]
        np.testing.assert_array_equal(got.view(np.int64), np.array(ref).view(np.int64))

    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    @settings(max_examples=10, deadline=None)
    @given(**_brent_windows)
    def test_each_lane_evaluates_as_often_as_scipy(self, name, which, picks):
        curve, z, lo, hi = _near_samples(name, which, picks)
        seen = []
        _bounded_brent(self._sq_dist(curve, z, seen), lo, hi, xatol=1e-15, maxiter=400)
        calls = np.bincount(np.concatenate(seen), minlength=len(z))
        assert calls.tolist() == [res.nfev for res in _scipy_brent(curve, z, lo, hi)]

    @pytest.mark.parametrize("name", sorted(_PLANAR_DOMAINS))
    @settings(max_examples=10, deadline=None)
    @given(**_brent_windows)
    def test_live_lanes_only_shrink(self, name, which, picks):
        curve, z, lo, hi = _near_samples(name, which, picks)
        seen = []
        _bounded_brent(self._sq_dist(curve, z, seen), lo, hi, xatol=1e-15, maxiter=400)
        assert seen[0].tolist() == list(range(len(z)))
        for before, now in zip(seen, seen[1:]):
            assert np.all(np.diff(now) > 0) and np.isin(now, before).all()

    def test_iteration_cap_raises(self):
        with pytest.raises(SolverError):
            _bounded_brent(lambda s, _: (s - 0.3) ** 2, np.array([0.0, 0.5]), np.array([1.0, 0.6]), xatol=1e-15,
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


def _report_points(lens):
    """The counterexample report's 40 radial lens points and its 48 image points on Omega."""
    p = 2.0 ** -np.arange(3, 43)
    angular = np.array([2.0 ** -(k + 2) * np.exp(1j * theta) for theta in (-0.3, 0.3) for k in (5, 10, 15, 20)])
    return p, phi_map(np.concatenate([p, angular[lens.contains(angular)]]))


def _assert_same_bits(got, want):
    assert type(got.d) is type(want.d) and type(got.z) is type(want.z)
    assert np.asarray(got.d).tobytes() == np.asarray(want.d).tobytes()
    assert np.asarray(got.nearest).tobytes() == np.asarray(want.nearest).tobytes()


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
    """Values recorded when each point's four nearest samples came from a full sort of its row."""

    def test_disc_centre_where_every_sample_nearly_ties(self):
        bp = boundary_distance(disc(), 0)
        assert bp.d == 1.0
        assert bp.nearest == 0.7921041246503129 - 0.6103859891183295j

    @pytest.mark.parametrize("name, digest", [
        ("omega_prime", "eef108cad7d1a66532066a9664da83b6906c694337710f8580bfa62ab9891b77"),
        ("omega_zlogz", "3e7af1e2d2a2e8a7d6ce2a40e7bfaad7c7ed8582e920d86a3a34b6e7aa739c7f"),
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
        (0.65 * np.exp(0.3j), 0.35, 0.2866009467355578 + 0.0886560620052682j),
    ])
    def test_annulus_points(self, z, d, nearest):
        bp = boundary_distance(_PLANAR_DOMAINS["annulus"], z)
        assert (bp.d, bp.nearest) == (d, nearest)

    @pytest.mark.parametrize("holes, digest", [
        (0, "1a7bf7baee5215e6a78b0d321a092c631b9bc83cf95ccf71226a6a6893ed2872"),
        (1, "39714b79fb81559e10934f9f37884bc9dbd79fb4f965d4a32b7c0f93c667bef6"),
    ])
    def test_annulus_curves_batch(self, holes, digest):
        ring = _PLANAR_DOMAINS["annulus"]
        dom = PlanarDomain(ring.outer, ring.holes[:holes])
        z = np.array([0.9j, 0.35, 0.65, -0.65j, 0.65 * np.exp(0.3j), 0.5 + 0.1j])
        bp = boundary_distance(dom, z)
        assert hashlib.sha256(bp.d.tobytes() + bp.nearest.tobytes()).hexdigest() == digest


class TestOneBrentRun:
    """A planar distance batch refines the windows of every curve in one lockstep run."""

    @pytest.fixture()
    def runs(self, monkeypatch):
        lanes = []
        brent = domains._bounded_brent

        def spy(f, lo, hi, **kw):
            lanes.append(len(lo))
            return brent(f, lo, hi, **kw)

        monkeypatch.setattr(domains, "_bounded_brent", spy)
        return lanes

    @pytest.mark.parametrize("name", ["annulus", "omega_prime", "omega_zlogz"])
    def test_one_run_per_batch(self, name, runs):
        dom = _PLANAR_DOMAINS[name]
        boundary_distance(dom, random_interior_points(dom, 12, seed=1))
        assert len(runs) == 1 and runs[0] >= 12 * 4 * dom.connectivity
        boundary_distance(dom, random_interior_points(dom, 1, seed=1)[0])
        assert len(runs) == 2

    def test_one_run_for_several_queries(self, runs):
        lens, omega = _PLANAR_DOMAINS["omega_prime"], _PLANAR_DOMAINS["omega_zlogz"]
        p, q = _report_points(lens)
        boundary_distance(omega, q, (lens, p))
        assert runs == [len(q) * 4 * 2 + len(p) * 4 * 2]  # no window of these points wraps past t = 0

    def test_tangent_ball_radius_makes_one_run(self, runs):
        dom = _PLANAR_DOMAINS["annulus"]
        assert dom.tangent_ball_radius(np.array([1.0, 0.3j]), np.array([-1.0, 1j])) == pytest.approx(0.35)
        assert len(runs) == 1


def _assert_quadratic_batch_equals_points(dom, z):
    batch = boundary_distance(dom, z)
    assert batch.d.shape == (len(z),) and batch.nearest.shape == z.shape
    for zj, dj, wj in zip(z, batch.d, batch.nearest):
        one = boundary_distance(dom, zj)
        assert type(one.d) is float and one.d == dj
        assert np.array_equal(one.nearest, wj)


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
        # inscribed circle, while at a corner no tangent disc holds the point
        square = domain_from_spec({"kind": "planar", "outer": [[0, 0], [1, 0], [1, 1], [0, 1]]})
        radius, offset = square.slice_disc(0.5 + 0.1j, 1.0)
        assert radius == pytest.approx(0.5, abs=1e-12) and offset == pytest.approx(0.4j, abs=1e-12)
        with pytest.raises(DomainError, match="tangent disc misses"):
            square.slice_disc(0.01 + 0.01j, 1.0)

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
                         env={"PYTHONPATH": src, "PATH": ""})
    assert out.stdout.strip() == "[]"
