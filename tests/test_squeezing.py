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

from squeezelab import squeezing
from squeezelab.ball import BallAutomorphism
from squeezelab.conformal import AnnulusMap, canonical_annulus_map
from squeezelab.domains import (
    DefiningFunctionDomain,
    _bounded_brent,
    annulus,
    ball,
    disc,
    ellipsoid,
    random_interior_points,
)
from squeezelab.errors import ConfigError, DomainError, SolverError
from squeezelab.squeezing import (
    SqueezeBound,
    _centering_gap,
    annulus_squeeze_lower,
    certify_injective,
    ellipsoid_boundary_samples,
    squeeze_lower_planar,
    theorem21_pipeline,
)


def _mobius_abs(a: complex, w: np.ndarray) -> np.ndarray:
    return np.abs((w - a) / (1.0 - np.conj(a) * w))


def _min_on_circle(a: complex, radius: float) -> float:
    """Exact minimum of |mobius_a| over the circle |w| = radius."""

    def f(theta):
        return _mobius_abs(a, radius * np.exp(1j * theta))

    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    vals = f(theta)
    k = int(np.argmin(vals))
    lo, hi = theta[k] - 2.0 * np.pi / 4096, theta[k] + 2.0 * np.pi / 4096
    fun = _bounded_brent(lambda theta, _: f(theta), np.array([lo]), np.array([hi]), xatol=1e-14, maxiter=500)[1][0]
    return float(min(fun, vals[k]))


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
            b = annulus_squeeze_lower(0.1, z)
            a = z if b.witness["kind"] == "inclusion" else 0.1 / z
            assert _min_on_circle(a, 0.1) == pytest.approx(b.lower, abs=1e-12)

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

    def test_round_annulus_matches_closed_form(self, round_annulus):
        for z in (0.5, -0.7j, 0.4 + 0.4j):
            via_map = squeeze_lower_planar(round_annulus, z)
            direct = annulus_squeeze_lower(0.3, z)
            assert via_map.lower == pytest.approx(direct.lower, abs=1e-8)

    def test_lens_frozen_value(self, omega_prime):
        b = squeeze_lower_planar(omega_prime, 0.05)
        assert b.lower == pytest.approx(0.987463906880143, abs=1e-9)

    def test_lens_ratio_stable_in_depth(self, omega_prime):
        # frozen: (1 - L)/d stabilizes near 0.2764 down the dyadic scales
        from squeezelab.domains import boundary_distance

        ratios = []
        for p in (2.0 ** -8, 2.0 ** -12, 2.0 ** -16):
            b = squeeze_lower_planar(omega_prime, p)
            d = boundary_distance(omega_prime, p).d
            ratios.append(b.one_minus_lower / d)
        np.testing.assert_allclose(ratios, 0.2764, rtol=5e-3)  # frozen

    def test_no_new_fit_once_the_map_is_built(self, fitted_domains):
        dom = annulus(0.3)
        amap = canonical_annulus_map(dom)
        assert fitted_domains == [dom]
        assert squeeze_lower_planar(dom, 0.5).witness["modulus"] == amap.modulus
        squeeze_lower_planar(dom, np.array([0.5, -0.7j]))
        assert fitted_domains == [dom]


def _assert_squeeze_batch_equals_points(dom, z, amap):
    batch = squeeze_lower_planar(dom, z)
    assert len(batch) == len(z)
    for zj, b in zip(z, batch):
        one = squeeze_lower_planar(dom, complex(zj))
        assert (b.lower, b.one_minus_lower, b.witness) == (one.lower, one.one_minus_lower, one.witness)
        assert b.at == zj
        # and the bits of the map's own one-point path
        assert (b.witness["abs_t"], b.witness["gap"]) == tuple(float(x) for x in amap.forward_gap(complex(zj)))


class TestPlanarBatch:
    """An array of points gives one bound per point, each with the bits of its one-point call."""

    def test_counterexample_points(self, omega_prime, lens_map):
        p = 2.0 ** -np.arange(3, 43)
        approach = np.array([2.0 ** (-(k + 2)) * np.exp(1j * t) for t in (-0.3, 0.3) for k in (5, 10, 15, 20)])
        z = np.concatenate([p, approach])
        assert omega_prime.contains(z).all() and len(z) == 48
        _assert_squeeze_batch_equals_points(omega_prime, z, lens_map)

    def test_lens_sample(self, omega_prime, lens_map):
        z = random_interior_points(omega_prime, 300, seed=2)
        # one point, 1.1e-3 from the boundary, maps to |t| = 1 within the
        # map's boundary deviation: alone or in a batch, it raises alike
        failed = []
        for zj in z:
            try:
                squeeze_lower_planar(omega_prime, complex(zj))
            except DomainError as err:
                failed.append((zj, str(err)))
        assert len(failed) == 1 and "|t|=1 outside" in failed[0][1]
        with pytest.raises(DomainError) as err:
            squeeze_lower_planar(omega_prime, z)
        assert str(err.value) == failed[0][1]
        _assert_squeeze_batch_equals_points(omega_prime, z[z != failed[0][0]], lens_map)

    def test_round_annulus(self, round_annulus, round_annulus_map):
        z = random_interior_points(round_annulus, 300, seed=2)
        batch = squeeze_lower_planar(round_annulus, z)
        assert {b.witness["kind"] for b in batch} == {"annulus-transport/inclusion",
                                                      "annulus-transport/inclusion-after-involution"}
        _assert_squeeze_batch_equals_points(round_annulus, z, round_annulus_map)

    def test_simply_connected_is_one_everywhere(self):
        batch = squeeze_lower_planar(disc(), np.array([0.0, 0.3 + 0.1j, -0.9j]))
        assert [(b.lower, b.one_minus_lower, b.witness["kind"]) for b in batch] == [(1.0, 0.0, "riemann-family")] * 3

    def test_outside_point_is_named(self, round_annulus):
        with pytest.raises(DomainError, match=r"point 0\.1j is not in the annulus_0\.3 domain"):
            squeeze_lower_planar(round_annulus, np.array([0.5, 0.1j, 1.5]))

    def test_one_forward_gap_call(self, omega_prime, monkeypatch):
        calls = []
        forward_gap = AnnulusMap.forward_gap

        def spy(amap, z, **kw):
            calls.append(np.shape(z))
            return forward_gap(amap, z, **kw)

        monkeypatch.setattr(AnnulusMap, "forward_gap", spy)
        squeeze_lower_planar(omega_prime, random_interior_points(omega_prime, 50, seed=3))
        assert calls == [(50,)]


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

    @pytest.mark.parametrize("pts", [np.zeros((4, 2), dtype=complex), np.zeros(0, dtype=complex)], ids=["rows", "empty"])
    def test_rejects_samples_that_are_not_a_planar_array(self, pts):
        with pytest.raises(ConfigError, match="1-d array"):
            certify_injective(lambda z: z, pts)

    @pytest.mark.parametrize("pts, pairs", [(np.array([0.5j]), 100), (np.array([0.5j, 0.3]), 0),
                                            (np.array([0.5j, 0.3]), -1), (np.array([0.5j, 0.3]), 2.5)],
                             ids=["one-point", "no-pairs", "negative-pairs", "fractional-pairs"])
    def test_rejects_draws_without_a_distinct_pair(self, pts, pairs):
        with pytest.raises(ConfigError, match="pair"):
            certify_injective(lambda z: z, pts, pairs=pairs)


def _on_boundary(w, count, seed):
    """Points exactly on the boundary sum w |z|^2 = 1: Gaussian directions scaled onto it."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, len(w))) + 1j * rng.normal(size=(count, len(w)))
    return v / np.sqrt(np.sum(w * np.abs(v) ** 2, axis=1))[:, None]


def _axis_point(dim, k, x):
    p = np.zeros(dim, dtype=complex)
    p[k] = x
    return p


# (weights, point): both branches of the maximiser s*, every axis kind
# (largest, smallest and middle weight), complex and zero points, one coordinate
GAP_CASES = [
    pytest.param([1.0, 1.0], _axis_point(2, 0, 0.5), id="ball-axis"),
    pytest.param([1.0, 1.0], np.array([0.3j, 0.4]), id="ball-off-axis"),
    pytest.param([1.0, 2.0], _axis_point(2, 0, 0.5), id="ellipsoid-r0.5"),
    pytest.param([1.0, 2.0], _axis_point(2, 0, 0.999), id="ellipsoid-r0.999"),
    pytest.param([1.0, 2.0], _axis_point(2, 0, 0.3 - 0.4j), id="ellipsoid-complex"),
    pytest.param([1.0, 2.0], _axis_point(2, 1, 0.5), id="ellipsoid-minor-axis"),
    pytest.param([1.0, 1.0 / 0.09, 1.0 / 0.09], _axis_point(3, 0, 0.7), id="thin-ellipsoid"),
    pytest.param([1.0, 1.0 / 0.09, 1.0 / 0.09], _axis_point(3, 2, 0.2), id="thin-ellipsoid-minor"),
    pytest.param([2.0, 1.0, 5.0], _axis_point(3, 0, 0.3), id="interior-s"),
    pytest.param([2.0, 1.0, 5.0], _axis_point(3, 0, 0.6), id="boundary-s"),
    pytest.param([2.0, 1.0, 5.0], _axis_point(3, 1, 0.9), id="unit-weight-axis"),
    pytest.param([2.0, 1.0, 5.0], np.zeros(3, dtype=complex), id="origin"),
    pytest.param([3.0, 3.0], np.array([0.2, 0.3j]), id="small-ball-off-axis"),
]


def _psi_norms_batch(r: float, zs: np.ndarray) -> np.ndarray:
    """Vectorised ||psi_r(z)|| for an array of points (rows)."""
    denom = np.abs(1.0 - zs[:, 0] * r) ** 2
    num = np.abs(zs[:, 0] - r) ** 2 + (1.0 - r * r) * np.sum(
        np.abs(zs[:, 1:]) ** 2, axis=1
    )
    return np.sqrt(num / denom)


class TestClosedFormPipeline:
    @pytest.mark.parametrize("w, p", GAP_CASES + [
        pytest.param([1.5], np.array([0.4 + 0.2j]), id="one-coordinate")])
    def test_below_every_boundary_sample(self, w, p):
        w = np.asarray(w)
        aut = BallAutomorphism.centering(p)
        sampled = _psi_norms_batch(aut.r, _on_boundary(w, 20_000, seed=4) @ aut.align.T)
        assert np.sqrt(1.0 - _centering_gap(w, p)) <= np.min(sampled) + 1e-12

    @pytest.mark.parametrize("w, p", GAP_CASES)
    def test_matches_a_longdouble_scan(self, w, p):
        # maximise (1 - r^2)(A - B s^2)/(1 - r s)^2 over s in [0, 1/sqrt(w_k)] by a
        # grid scan zoomed in around its best node, in extended precision
        ld = np.longdouble
        w = np.asarray(w, dtype=ld)
        k = int(np.argmax(np.abs(p)))
        r = ld(np.linalg.norm(p))
        wo = np.max(np.delete(w, k))
        a, b = 1 - 1 / wo, 1 - w[k] / wo

        def gap(s):
            return (1 - r * r) * (a - b * s * s) / (1 - r * s) ** 2

        lo, hi = ld(0), 1 / np.sqrt(w[k])
        best = ld(0)
        for _ in range(40):
            s = np.linspace(lo, hi, 1001, dtype=ld)
            g = gap(s)
            j = int(np.argmax(g))
            best = max(best, g[j])
            lo, hi = s[max(j - 1, 0)], s[min(j + 1, 1000)]
        exact = np.sqrt(1.0 - _centering_gap(np.asarray(w, dtype=float), p))
        assert abs(exact - float(np.sqrt(1 - best))) <= 1e-12

    def test_exact_values_on_ball_and_ellipsoid(self):
        pts = [np.array([1.0 - 2.0 ** (-i), 0.0], dtype=complex) for i in range(1, 11)]
        for row in theorem21_pipeline(ball(2), pts, C=0.35)["rows"]:
            assert (row["eps"], row["inscribed"], row["evidence"]) == (0.0, 1.0, "closed form")
        for row in theorem21_pipeline(ellipsoid(), pts, C=0.5)["rows"]:
            assert row["eps"] * row["d"] == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), rel=1e-14)
            assert row["inscribed"] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)
            assert row["evidence"] == "closed form"

    def test_rejects_what_the_closed_form_does_not_cover(self):
        with pytest.raises(ConfigError, match="off the coordinate axes"):
            theorem21_pipeline(ellipsoid(), [np.array([0.3, 0.2])], C=0.5)
        with pytest.raises(ConfigError, match="weights must be >= 1"):
            theorem21_pipeline(ellipsoid(2.0), [np.array([0.3, 0.0])], C=0.5)
        with pytest.raises(ConfigError, match="weighted quadratic"):
            theorem21_pipeline(disc(), [0.3], C=0.5)

    def test_recentring_residual_is_checked(self, monkeypatch):
        apply = BallAutomorphism.apply
        monkeypatch.setattr(BallAutomorphism, "apply", lambda self, z: apply(self, z) + 1e-9)
        with pytest.raises(SolverError, match="psi"):
            theorem21_pipeline(ball(2), [np.array([0.5, 0.0])], C=0.35)


# (domain, points): axis points of every weight, complex ones, origin rows, off-axis points on the ball
BATCH_CASES = [
    pytest.param(ball(2), [_axis_point(2, 0, 0.5), np.array([0.3j, 0.4]), np.zeros(2), _axis_point(2, 1, -0.2 + 0.7j)],
                 id="ball"),
    pytest.param(ellipsoid(), [_axis_point(2, 0, 1.0 - 2.0 ** -i) for i in (1, 5, 20)]
                 + [_axis_point(2, 1, 0.3 - 0.4j), np.zeros(2)], id="ellipsoid"),
    pytest.param(DefiningFunctionDomain([2.0, 1.0, 5.0]),
                 [_axis_point(3, 0, 0.3), _axis_point(3, 0, 0.6), _axis_point(3, 1, 0.9), _axis_point(3, 2, 0.4j),
                  np.zeros(3)], id="weights-2-1-5"),
]


class TestBatchedPipeline:
    @pytest.mark.parametrize("dom, points", BATCH_CASES)
    def test_rows_equal_one_point_calls(self, dom, points):
        rows = theorem21_pipeline(dom, points, C=0.5)["rows"]
        assert len(rows) == len(points)
        for i, (p, row) in enumerate(zip(points, rows), start=1):
            (one,) = theorem21_pipeline(dom, [p], C=0.5)["rows"]
            assert repr(row) == repr({**one, "i": i})  # repr tells -0.0 from 0.0

    def test_one_distance_query_and_two_centerings(self, monkeypatch):
        calls = []
        distance, centering = squeezing.boundary_distance, BallAutomorphism.centering.__func__

        def distance_spy(dom, z):
            calls.append(("boundary_distance", len(z)))
            return distance(dom, z)

        def centering_spy(cls, p):
            calls.append(("centering", len(p)))
            return centering(cls, p)

        monkeypatch.setattr(squeezing, "boundary_distance", distance_spy)
        monkeypatch.setattr(BallAutomorphism, "centering", classmethod(centering_spy))
        pts = [_axis_point(2, 0, 1.0 - 2.0 ** -i) for i in range(1, 11)]
        theorem21_pipeline(ellipsoid(), pts, C=0.5)
        assert calls == [("boundary_distance", 10), ("centering", 10), ("centering", 10)]


class TestPipeline:
    def test_ball_small(self):
        pts = [np.array([1.0 - 2.0 ** (-i), 0.0], dtype=complex) for i in (1, 2, 3)]
        rep = theorem21_pipeline(ball(2), pts, C=0.35)
        assert rep["all_confined"] and rep["all_inscribed"] and rep["trend_ok"]
        assert min(r["inscribed"] for r in rep["rows"]) >= 1.0 - 1e-6
        assert max(r["eps"] for r in rep["rows"]) < 1e-8

    def test_ellipsoid_boundary_samples_on_surface(self):
        b = 1.0 / np.sqrt(2.0)
        s = ellipsoid_boundary_samples(b, count=2000, seed=1)
        vals = np.abs(s[:, 0]) ** 2 + np.abs(s[:, 1]) ** 2 / b**2
        np.testing.assert_allclose(vals, 1.0, atol=1e-9)

    def test_ellipsoid_pipeline_row(self):
        p = np.array([0.5, 0.0], dtype=complex)
        rep = theorem21_pipeline(ellipsoid(), [p], C=0.5)
        row = rep["rows"][0]
        assert row["confinement_margin"] >= 0
        assert row["inscribed_margin"] >= 0
