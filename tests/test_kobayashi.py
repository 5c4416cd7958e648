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

from squeezelab import domains, kobayashi
from squeezelab.ball import kobayashi_ball
from squeezelab.domains import (
    CircleCurve,
    PlanarDomain,
    annulus,
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
    infinitesimal_upper,
    lemma_log_bound_verify,
    tangent_ball_radius,
)


def exact_disc_distance(a: complex, b: complex) -> float:
    """Poincare/Kobayashi distance of the unit disc."""
    a, b = complex(a), complex(b)
    if abs(a) >= 1 or abs(b) >= 1:
        raise DomainError("points must lie in the open unit disc")
    m = abs((a - b) / (1.0 - np.conj(b) * a))
    return float(np.arctanh(m))


def _slit_disc_uniformize(z: complex) -> complex:
    """Conformal map of the unit disc minus the radius [0, 1) onto the disc."""
    z = complex(z)
    if abs(z) >= 1 or (z.imag == 0 and z.real >= 0):
        raise DomainError("point not in the slit disc")
    w = np.sqrt(abs(z)) * np.exp(0.5j * (np.angle(z) % (2.0 * np.pi)))  # upper half disc
    zeta = -0.5 * (w + 1.0 / w)  # upper half plane
    return (zeta - 1j) / (zeta + 1j)


def slit_disc_distance(a: complex, b: complex) -> float:
    """Exact Kobayashi distance of the disc minus the radius [0, 1)."""
    return exact_disc_distance(_slit_disc_uniformize(a), _slit_disc_uniformize(b))


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
        # the disc is the ball of C^1, whose distance is the closed form of squeezelab.ball
        pts = random_interior_points(disc(), 40, seed=1)
        for z in pts[1:]:
            assert exact_disc_distance(pts[0], z) == pytest.approx(kobayashi_ball([pts[0]], [z]), abs=1e-10)

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
        # the disc tangent at the nearest boundary point of the disc is the
        # disc itself, so the bound is the Poincare metric 1 / (1 - |z|^2)
        z = random_interior_points(d, 300, seed=4)
        for v in (1.0, 1j, np.exp(0.7j)):
            ratio = infinitesimal_upper(d, z, v) * (1.0 - np.abs(z) ** 2)
            assert np.all((1.0 - 1e-12 <= ratio) & (ratio <= 1.0 + 1e-9))


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
    @example(seed=75, count=4, angles=(0.0, 0.0, 0.0))  # the disc's last row once squared by pow alone
    def test_batch_equals_points(self, name, seed, count, angles):
        dom = _KAPPA_DOMAINS[name]
        _assert_kappa_batch_equals_points(dom, random_interior_points(dom, count, seed=seed), _direction(dom, angles))

    # the points that took each branch of the former chord construction: the
    # chord disc whole, clipped to its centre's slice distance, and the
    # centred disc; each must still give its one-point bits inside a batch
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
        discs = []
        dom = _KAPPA_DOMAINS[name]
        slice_disc = dom.slice_disc

        def disc_spy(*args):
            discs.append(slice_disc(*args))
            return discs[-1]

        monkeypatch.setattr(dom, "slice_disc", disc_spy)
        z, v = dom.as_point(z), dom.as_point(v)
        others = random_interior_points(dom, 4, seed=3)
        batch = np.concatenate([others[:2], [z], others[2:]])
        kappa = infinitesimal_upper(dom, batch, v)
        (radius, offset), = discs
        for j, zj in enumerate(batch):
            assert slice_disc(zj, v) == (radius[j], offset[j])
            assert infinitesimal_upper(dom, zj, v) == kappa[j]

    def test_lens_disc_stays_inside(self, omega_prime):
        # a chord disc once left the lens here (3366.08 against a dense
        # 3551.9): every point of the slice disc's circle just inside its
        # radius must pass the membership test
        z, v = random_interior_points(omega_prime, 200, seed=5)[45], 1j
        radius, offset = omega_prime.slice_disc(z, v)
        assert abs(offset) < radius
        circle = z + offset * v + radius * (1.0 - 1e-12) * np.exp(2j * np.pi * np.arange(4096) / 4096)
        assert omega_prime.contains(circle).all()
        assert infinitesimal_upper(omega_prime, z, v) == radius / (radius * radius - abs(offset) ** 2)

    @pytest.mark.parametrize("real_product", [False, True])
    def test_ball_kobayashi_royden_oracle(self, real_product):
        # F^2 = |v|^2 / (1 - |z|^2) + |<z, v>|^2 / (1 - |z|^2)^2 is the exact
        # metric of the ball, and the slice disc is a complex geodesic, so the
        # bound is F itself, whether <z, v> is real or not; a weighted
        # quadratic domain is the ball's image under diag(1/sqrt(w)), so its
        # metric is F at (sqrt(w) z, sqrt(w) v)
        rng = np.random.default_rng(7)
        for dom in (ball(2), ellipsoid(0.3), ellipsoid(2.0, dim=3)):
            for z in random_interior_points(dom, 400, seed=8):
                v = rng.normal(size=dom.dim) + 1j * rng.normal(size=dom.dim)
                x, u = np.sqrt(dom.w) * z, np.sqrt(dom.w) * v
                if real_product:
                    u -= 1j * np.vdot(x, u).imag / np.vdot(x, x).real * x
                    v = u / np.sqrt(dom.w)
                q = 1.0 - np.vdot(x, x).real
                f = np.sqrt(np.vdot(u, u).real / q + abs(np.vdot(x, u)) ** 2 / q**2)
                assert infinitesimal_upper(dom, z, v) == pytest.approx(f, rel=1e-12)

    def test_underflowing_direction(self):
        # the norm of [5e-324, 0] squares to 0: the direction is still e_1
        z = np.array([0.3 + 0.1j, 0.2])
        kappa = infinitesimal_upper(ball(2), z, np.array([5e-324, 0.0]))
        assert 0.0 <= kappa <= 5e-324 * 2.0 * infinitesimal_upper(ball(2), z, np.array([1.0, 0.0]))

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

    @pytest.mark.parametrize("dom", [ball(2), ellipsoid(0.3), ellipsoid(2.0, dim=3)], ids=lambda d: str(d.w))
    def test_quadratic_segment_is_exact(self, dom):
        # the Poincare distance in the slice disc, a complex geodesic, is the
        # ball's distance at (sqrt(w) a, sqrt(w) b)
        for seed in range(1, 6):
            pts = random_interior_points(dom, 8, seed=seed)
            for a, b in zip(pts, pts[1:]):
                bound = distance_upper(dom, a, b)
                assert bound.kind == "exact" and bound.quad_error == 0.0
                assert bound.value == pytest.approx(kobayashi_ball(np.sqrt(dom.w) * a, np.sqrt(dom.w) * b), abs=1e-10)

    def test_disc_pairs_dominate_exact(self):
        # the metric is exact here, but a straight segment is a geodesic only
        # on a diameter: bound / exact measured 1.000033 to 1.144 on these pairs
        pts = random_interior_points(disc(), 16, seed=1)
        ratios = [distance_upper(disc(), a, b).value / exact_disc_distance(a, b) for a, b in zip(pts[::2], pts[1::2])]
        assert min(ratios) >= 1.0, ratios

    def test_ball_bound_bytes_frozen(self):
        # recorded with the closed-form distance in the slice disc
        pts = random_interior_points(ball(2), 8, seed=1)
        bound = distance_upper(ball(2), pts[0], pts[1], PathSpec(refinement=8))
        text = json.dumps({"value": bound.value, "kind": bound.kind, "quad_error": bound.quad_error,
                           "decomposition": bound.decomposition}, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "adb8e19fc6abf33d29461d2c49e6d76abde6c6f49b6f5966b733ccd0e5879fbd")

    @pytest.mark.parametrize("seed, digest", [
        pytest.param(1, "acefda5584d3f79da4053f7175025cf0cf48aeb41a5e5c7d61953a0113d7deb0", id="1"),
        pytest.param(2, "a0f0da58ce2a364f3f26b04d9fab2ddda7c0b2d741aa376bd46c53ea8d346ce4", id="2"),
        pytest.param(3, "4566e1567ccd46bf867f3a05be7e2378714818a241f0802cd98f81c1fbcbc3f5", id="3"),
    ])
    def test_ball_pair_bytes_frozen(self, seed, digest):
        # the four pairs of one seed of the ball_distance benchmark workload;
        # digests recorded with the closed-form distance in the slice disc
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
        pts = random_interior_points(disc(), 8, seed=1)
        bound = distance_upper(disc(), pts[0], pts[1], PathSpec(refinement=8))
        assert sizes == [9, 8, 16, 32, 64]
        monkeypatch.undo()
        assert distance_upper(disc(), pts[0], pts[1], PathSpec(refinement=8)) == bound

    def test_waypoints_and_validation(self):
        d = PlanarDomain(CircleCurve(0.0, 1.0, n=512), name="disc")
        b = distance_upper(d, -0.5, 0.5, PathSpec(waypoints=(0.2j,)))
        assert b.value >= exact_disc_distance(-0.5, 0.5) - 1e-9
        assert repr(b.value) == "1.1987837157546009"  # frozen: discs tangent at the round circle
        with pytest.raises(ConfigError):
            PathSpec(refinement=1)

    @pytest.mark.parametrize("refinement", [2.5, 8.0, "8", True])
    def test_refinement_must_be_an_integer(self, refinement):
        with pytest.raises(ConfigError, match="refinement"):
            PathSpec(refinement=refinement)


class TestTangentBall:
    def test_disc_full_radius(self):
        r0 = tangent_ball_radius(disc(), 1.0, -1.0)
        assert r0 == pytest.approx(1.0, abs=1e-6)
        assert 1.0 - 1e-9 <= r0 <= 1.0

    def test_planar_radius_never_exceeds_the_truth(self, omega_prime):
        # at the lens tip the disc reaches across to the axis, half the width
        r0 = tangent_ball_radius(omega_prime, complex(domains._LENS_WIDTH), -1.0)
        assert 0.11 - 1e-9 <= r0 <= 0.11
        # the round annulus, at an outer point: the disc fills the ring's width
        assert tangent_ball_radius(annulus(0.3), 1.0, -1.0) <= 0.35
        # one call per row gives the bits of the batch
        p = np.exp(1j * np.linspace(0.0, 6.0, 5))
        batch = tangent_ball_radius(annulus(0.3), p, -p)
        assert [tangent_ball_radius(annulus(0.3), pj, -pj) for pj in p] == batch.tolist()

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
            inward = -e.w * p / np.linalg.norm(e.w * p)
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


class TestLogBoundVerify:
    def test_disc_constant_matches_half_log_two(self):
        rep = lemma_log_bound_verify(disc(), 0.0, 1.0, num_scales=20, inward=-1.0)
        # frozen: the dyadic tangent-ball tail contributes exactly (1/2)log 2
        assert rep["C_fit"] == pytest.approx(0.5 * np.log(2.0), abs=5e-3)
        assert rep["tail_slope"] <= 1e-2
        assert rep["passed"]

    @pytest.mark.parametrize("num_scales", [2, 3.5, "20", True])
    def test_rejects_a_bad_scale_count(self, num_scales):
        with pytest.raises(ConfigError, match="num_scales"):
            lemma_log_bound_verify(disc(), 0.0, 1.0, num_scales=num_scales, inward=-1.0)

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
            omega_prime, 0.05, complex(domains._LENS_WIDTH),
            num_scales=12, inward=-1.0,
        )
        assert np.isfinite(rep["C_fit"])
        assert rep["C_fit"] == pytest.approx(-0.14517, abs=5e-3)  # frozen
        assert rep["tail_slope"] <= 1e-2
