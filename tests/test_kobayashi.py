"""Kobayashi distance bounds, the logarithmic boundary estimate, and oracles.

Exact references: the Poincare metric/distance of the disc, its slit-disc
transport through an explicit uniformization, and the round tangent-ball
geometry of the disc and the ellipsoid.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squeezelab import kobayashi
from squeezelab.domains import (
    ball,
    boundary_distance,
    build_omega_prime,
    disc,
    ellipsoid,
    random_interior_points,
)
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


_KAPPA_DOMAINS = {"ball": ball(2), "ellipsoid": ellipsoid(), "disc": disc(), "lens": build_omega_prime()}


def _direction(dom, angles):
    if dom.name in ("disc", "omega_prime"):
        return np.exp(1j * angles[0])
    return np.array([np.cos(angles[1]) * np.exp(1j * angles[0]), np.sin(angles[1]) * np.exp(1j * angles[2])])


def _assert_kappa_batch_equals_points(dom, z, v):
    batch = infinitesimal_upper(dom, z, v)
    assert batch.shape == (len(z),)
    for zj, kj in zip(z, batch):
        one = infinitesimal_upper(dom, zj, v)
        assert type(one) is float and one == kj


class TestInfinitesimalBatch:
    @pytest.mark.parametrize("name", sorted(_KAPPA_DOMAINS))
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), count=st.integers(1, 6),
           angles=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 3))
    @example(seed=0, count=1, angles=(0.0, 0.0, 0.0))
    def test_batch_equals_points(self, name, seed, count, angles):
        dom = _KAPPA_DOMAINS[name]
        _assert_kappa_batch_equals_points(dom, random_interior_points(dom, count, seed=seed), _direction(dom, angles))

    # one point per branch of the disc choice and domain kind: the chord disc
    # whole (certified at scale 1), the chord disc clipped to the distance
    # from its centre to the boundary inside the line, and the centred
    # disc taken when the clipped chord disc no longer holds z
    @pytest.mark.parametrize("name, z, v, branch", [
        ("disc", 0.0, 1.0, "certified at 1"),
        ("disc", 0.3 + 0.5j, 1.0, "clipped to slice"),
        ("disc", 0.8 + 0.5j, 1.0, "centred fallback"),
        ("lens", 0.05, 1.0, "certified at 1"),
        ("lens", 0.05, 1j, "clipped to slice"),
        ("ball", [0.0, 0.0], [1.0, 0.0], "certified at 1"),
        ("ball", [0.3 + 0.2j, 0.4], [1.0, 0.0], "clipped to slice"),
        ("ball", [0.8 + 0.3j, 0.4], [1.0, 0.0], "centred fallback"),
        ("ellipsoid", [0.0, 0.0], [1.0, 0.0], "certified at 1"),
        ("ellipsoid", [0.3 + 0.2j, 0.3], [1.0, 0.0], "clipped to slice"),
        ("ellipsoid", [0.8 + 0.3j, 0.3], [1.0, 0.0], "centred fallback"),
    ])
    def test_each_branch_batch_equals_point(self, monkeypatch, name, z, v, branch):
        exits, reach = [], []
        ray_exit = kobayashi._ray_exit
        dom = _KAPPA_DOMAINS[name]
        slice_distance = dom.slice_distance

        def exit_spy(*args):
            exits.append(ray_exit(*args))
            return exits[-1]

        def reach_spy(*args):
            reach.append(slice_distance(*args))
            return reach[-1]

        monkeypatch.setattr(kobayashi, "_ray_exit", exit_spy)
        monkeypatch.setattr(dom, "slice_distance", reach_spy)
        z, v = dom.as_point(z), dom.as_point(v)
        infinitesimal_upper(dom, z, v)
        (rp, rm), (s,) = exits[0], reach[0]
        hit = ("certified at 1" if s >= 0.5 * (rp + rm) else
               "clipped to slice" if s > 0.5 * abs(rp - rm) + 1e-15 else "centred fallback")
        assert hit == branch
        monkeypatch.undo()
        others = random_interior_points(dom, 4, seed=3)
        _assert_kappa_batch_equals_points(dom, np.concatenate([others[:2], [z], others[2:]]), v)

    def test_lens_disc_stays_inside(self, omega_prime):
        # the sampled circle search accepted a chord disc that leaves the lens
        # here (3366.08); the reference is the largest disc about the chord
        # centre whose 20,000 circle points pass the membership test
        z, v = random_interior_points(omega_prime, 200, seed=5)[45], 1j
        rp, rm = kobayashi._ray_exit(omega_prime, np.array([z, z]), np.array([v, -v]), 4.0 * omega_prime.scale,
                                     np.full(2, boundary_distance(omega_prime, z).d))
        center, circle = z + 0.5 * (rp - rm) * v, np.exp(2j * np.pi * np.arange(20_000) / 20_000)
        lo, hi = 0.0, 0.5 * (rp + rm)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if omega_prime.contains(center + mid * circle).all() else (lo, mid)
        off = 0.5 * abs(rp - rm)
        assert lo > off
        reference = lo / (lo * lo - off * off)
        assert infinitesimal_upper(omega_prime, z, v) == pytest.approx(reference, rel=1e-3)

    @pytest.mark.parametrize("real_product", [False, True])
    def test_ball_kobayashi_royden_oracle(self, real_product):
        # F^2 = |v|^2 / (1 - |z|^2) + |<z, v>|^2 / (1 - |z|^2)^2 is the exact
        # metric of the ball; when <z, v> is real the chord disc is the slice
        # disc, a complex geodesic, so the bound is F itself
        rng = np.random.default_rng(7)
        for z in random_interior_points(ball(2), 400, seed=8):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            if real_product:
                v -= 1j * np.vdot(z, v).imag / np.vdot(z, z).real * z
            q = 1.0 - np.vdot(z, z).real
            f = np.sqrt(np.vdot(v, v).real / q + abs(np.vdot(z, v)) ** 2 / q**2)
            kappa = infinitesimal_upper(ball(2), z, v)
            assert kappa >= f * (1.0 - 1e-12)
            if real_product:
                assert kappa == pytest.approx(f, rel=1e-12)

    def test_outside_row_raises(self):
        with pytest.raises(DomainError, match="not interior"):
            infinitesimal_upper(ball(2), np.array([[0.1, 0.0], [0.9, 0.9]]), np.array([1.0, 0.0]))

    def test_empty_batch(self):
        assert infinitesimal_upper(ball(2), np.zeros((0, 2)), np.array([1.0, 0.0])).shape == (0,)
        assert infinitesimal_upper(disc(), np.zeros(0, dtype=complex), 1.0).shape == (0,)


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
        # recorded with the chord disc clipped to its slice distance
        pts = random_interior_points(ball(2), 8, seed=1)
        bound = distance_upper(ball(2), pts[0], pts[1], PathSpec(refinement=8))
        text = json.dumps({"value": bound.value, "kind": bound.kind, "quad_error": bound.quad_error,
                           "decomposition": bound.decomposition}, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1d55d8585659b7f193274f3568b4db67489991d5ba657e3c33c64bdb175227fb")

    @pytest.mark.parametrize("seed, digest", [
        (1, "cd404891ee0cca0e20ef59fe15aded5ab8d4fdf51b768673ad3b320d293bed07"),
        (2, "cb06746876bf0eeab8f30f538b0b741f7b9b0479c9ae12c94ef2bf83ea359dc4"),
        (3, "5ecc8e8da7becdfe14b13a2b4f01166469b959303dd3116c23c06c46cf7a686c"),
    ])
    def test_ball_pair_bytes_frozen(self, seed, digest):
        # the four pairs of one seed of the ball_distance benchmark workload;
        # digests recorded with the chord disc clipped to its slice distance
        pts = random_interior_points(ball(2), 8, seed=seed)
        bounds = [distance_upper(ball(2), pts[i], pts[i + 1], PathSpec(refinement=8)) for i in range(0, 8, 2)]
        text = json.dumps([{"value": b.value, "kind": b.kind, "quad_error": b.quad_error,
                            "decomposition": b.decomposition} for b in bounds], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_one_integrand_call_per_level(self, monkeypatch):
        # a tracer wraps the module attribute, so each refinement level must
        # reach it once, with only the nodes its cache does not hold yet
        sizes = []
        kappa = kobayashi.infinitesimal_upper

        def counting(dom, z, v):
            sizes.append(len(z))
            return kappa(dom, z, v)

        monkeypatch.setattr(kobayashi, "infinitesimal_upper", counting)
        pts = random_interior_points(ball(2), 8, seed=1)
        bound = distance_upper(ball(2), pts[0], pts[1], PathSpec(refinement=8))
        assert sizes == [9, 8, 16, 32, 64]
        monkeypatch.undo()
        assert distance_upper(ball(2), pts[0], pts[1], PathSpec(refinement=8)) == bound

    def test_waypoints_and_validation(self):
        d = disc(512)
        b = distance_upper(d, -0.5, 0.5, PathSpec(waypoints=(0.2j,)))
        assert b.value >= exact_disc_distance(-0.5, 0.5) - 1e-9
        assert repr(b.value) == "1.4783072573823541"  # frozen: discs certified against the round circle
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

    def test_quadratic_radius_is_exact(self):
        # R = |w p| / max w: b^2 at the ellipsoid vertex, where the weight 1/b^2
        # of b = 1/sqrt(2) rounds to 2 + 4.4e-16; the ball's own radius 1
        assert tangent_ball_radius(ball(2), np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 1.0
        e = ellipsoid()
        assert tangent_ball_radius(e, np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 1.0 / e.w.max()
        assert 1.0 / e.w.max() == pytest.approx(0.5, abs=2e-16)
        # at the co-vertex (0, ib) the ball centred at 0 of radius b touches
        b = 1.0 / np.sqrt(e.w[1])
        assert tangent_ball_radius(e, np.array([0.0, 1j * b]), np.array([0.0, -1j])) == pytest.approx(b, abs=1e-15)

    def test_quadratic_tangent_ball_lies_inside(self):
        e = ellipsoid()
        for z in random_interior_points(e, 20, seed=3):
            p = boundary_distance(e, z).nearest
            inward = e.inward_normal(p)
            r0 = tangent_ball_radius(e, p, inward)
            center = p + r0 * inward
            assert boundary_distance(e, center).d == pytest.approx(r0, rel=1e-9)

    def test_quadratic_rejects_off_boundary_point_and_wrong_normal(self):
        e = ellipsoid()
        with pytest.raises(DomainError, match="off the boundary"):
            tangent_ball_radius(e, np.array([0.9, 0.0]), np.array([-1.0, 0.0]))
        with pytest.raises(DomainError, match="not the inward normal"):
            tangent_ball_radius(e, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError, match="not the inward normal"):
            tangent_ball_radius(ball(2), np.array([1.0, 0.0]), np.array([-1.0, 0.1]))

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
