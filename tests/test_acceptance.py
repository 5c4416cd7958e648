"""Acceptance gate: the ten headline checks, each printing one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every check re-derives its inputs from the public API; frozen
reference values appear only where an independent closed form exists.
"""

import json
import time

import numpy as np
import pytest

from squeezelab.ball import (
    BallAutomorphism,
    kobayashi_ball,
    lemma25_bound,
    norm_psi_identity,
    psi_apply,
    psi_invert,
)
from squeezelab.conformal import canonical_annulus_map
from squeezelab.domains import annulus, ball, disc, ellipsoid
from squeezelab.experiments import (
    ExperimentConfig,
    emit,
    run_counterexample,
    run_lemma22,
    run_lemma24_25,
    run_pipeline,
)
from squeezelab.kobayashi import lemma_log_bound_verify
from squeezelab.squeezing import annulus_squeeze_lower, theorem21_pipeline


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _random_ball_point(rng, n, rmax=0.999):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v *= rng.uniform() ** (1.0 / (2 * n)) * rmax / np.linalg.norm(v)
    return v


def test_criterion_01_automorphism_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_round, worst_center, inside = 0.0, 0.0, True
    for i in range(10_000):
        n = 1 + i % 3
        r = rng.uniform(0.0, 1.0 - 1e-9)
        z = _random_ball_point(rng, n)
        img = psi_apply(r, z)
        inside &= float(np.linalg.norm(img)) < 1.0
        worst_round = max(worst_round, float(np.max(np.abs(psi_invert(r, img) - z))))
        e1 = np.zeros(n, dtype=complex)
        e1[0] = r
        worst_center = max(worst_center, float(np.linalg.norm(psi_apply(r, e1))))
    elapsed = time.perf_counter() - t0
    ok = inside and worst_round <= 1e-12 and worst_center <= 1e-14 and elapsed < 5.0
    _report(
        "automorphism suite (10^4 samples, n in {1,2,3})",
        ok,
        f"roundtrip {worst_round:.2e}, centering {worst_center:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_norm_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(100_000):
        n = 1 + i % 3
        z = _random_ball_point(rng, n)
        r = 1.0 - 1e-6 if i % 50 == 0 else rng.uniform(0.0, 1.0 - 1e-9)
        lhs, rhs = norm_psi_identity(r, z)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _report("norm identity (10^5 samples incl. r = 1-1e-6)", ok,
            f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_inscribed_radius_sweep():
    t0 = time.perf_counter()
    worst = np.inf
    for C in (0.5, 1.0, 2.0):
        for d in (1e-1, 1e-2, 1e-3):
            for eps in (1.0 / (18.0 * C), 1.0 / (36.0 * C)):
                for r in np.linspace(0.0, 1.0 - d / C, 5):
                    rep = lemma25_bound(C, eps, d, r=float(r))
                    worst = min(worst, rep["min_margin"])
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.0 and elapsed < 60.0
    _report("inscribed-radius bound sweep", ok, f"min margin {worst:.3e}, {elapsed:.1f}s")


def test_criterion_04_ball_distance_oracle():
    v = kobayashi_ball(np.zeros(2), np.array([0.5, 0.0]))
    err_oracle = abs(v - 0.5 * np.log(3.0))
    rng = np.random.default_rng(104)
    worst_inv, violations = 0.0, 0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        a, b, c = (_random_ball_point(rng, n) for _ in range(3))
        aut = BallAutomorphism.centering(c)
        worst_inv = max(worst_inv, abs(
            kobayashi_ball(aut.apply(a), aut.apply(b)) - kobayashi_ball(a, b)))
        if kobayashi_ball(a, b) > kobayashi_ball(a, c) + kobayashi_ball(c, b) + 1e-10:
            violations += 1
    ok = err_oracle <= 1e-12 and worst_inv <= 1e-10 and violations == 0
    _report("ball distance oracle + invariance + triangle", ok,
            f"oracle err {err_oracle:.1e}, invariance {worst_inv:.1e}, violations {violations}")


def test_criterion_05_log_bound_constants(omega_prime):
    t0 = time.perf_counter()
    rep = run_lemma22(ExperimentConfig("lemma22", scales=20))
    disc_fit = rep.tables["disc"]["C_fit"]
    slopes = {k: v["tail_slope"] for k, v in rep.tables.items()}
    fits = {k: v["C_fit"] for k, v in rep.tables.items()}
    elapsed = time.perf_counter() - t0
    ok = (
        0.34 <= disc_fit <= 0.40
        and all(np.isfinite(f) for f in fits.values())
        and all(s <= 1e-2 for s in slopes.values())
        and elapsed < 300.0
    )
    _report("log-distance bound constants (disc/ball/ellipsoid/lens)", ok,
            f"disc C_fit {disc_fit:.5f} vs (1/2)log2 {0.5 * np.log(2):.5f}, "
            f"max slope {max(slopes.values()):.2e}, {elapsed:.0f}s")


def test_criterion_06_annulus_squeezing():
    worst = 0.0
    for t in np.linspace(0.35, 0.99, 20):
        got = annulus_squeeze_lower(0.1, float(t)).lower
        worst = max(worst, abs(got - (t - 0.1) / (1.0 - 0.1 * t)))
    t = 1.0 - 1e-4
    ratio = annulus_squeeze_lower(0.1, t).one_minus_lower / (1.0 - t)
    ratio_err = abs(ratio / (1.1 / 0.9) - 1.0)
    ok = worst <= 1e-8 and ratio_err <= 2e-2
    _report("annulus squeezing closed form + asymptotic ratio", ok,
            f"closed-form err {worst:.1e}, ratio {ratio:.5f} (err {ratio_err:.1e})")


def test_criterion_07_annulus_map_self_consistency(omega_prime, lens_map):
    t0 = time.perf_counter()
    m1 = canonical_annulus_map(annulus(0.3)).modulus
    m2 = canonical_annulus_map(annulus(0.3, center=1.5 - 0.5j, scale=2.0)).modulus
    refined = canonical_annulus_map(omega_prime, resolution=2).modulus
    stability = abs(refined - lens_map.modulus)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(m1 - 0.3) <= 1e-4
        and abs(m2 - 0.3) <= 1e-4
        and stability <= 1e-3
        and elapsed < 300.0
    )
    _report("canonical annulus map self-consistency", ok,
            f"A_0.3 err {abs(m1 - 0.3):.1e}, moved err {abs(m2 - 0.3):.1e}, "
            f"lens stability {stability:.1e}, {elapsed:.0f}s")


def test_criterion_08_pipeline_on_ball():
    fit = lemma_log_bound_verify(
        ball(2), np.zeros(2, dtype=complex), np.array([1.0, 0.0], dtype=complex),
        num_scales=20, inward=np.array([-1.0, 0.0], dtype=complex),
    )
    pts = [np.array([1.0 - 2.0 ** (-i), 0.0], dtype=complex) for i in range(1, 11)]
    rep = theorem21_pipeline(ball(2), pts, C=fit["C_fit"])
    eps_max = max(r["eps"] for r in rep["rows"])
    inscribed_min = min(r["inscribed"] for r in rep["rows"])
    conf_min = min(r["confinement_margin"] for r in rep["rows"])
    ok = eps_max < 1e-6 and inscribed_min >= 1.0 - 1e-6 and conf_min >= 0.0
    _report("recentring pipeline on the ball (i <= 10, C = C_fit)", ok,
            f"C_fit {fit['C_fit']:.4f}, eps_max {eps_max:.1e}, "
            f"min inscribed {inscribed_min:.12f}, confinement margin {conf_min:.1e}")


def test_criterion_09_ratio_trend():
    t0 = time.perf_counter()
    rep = run_counterexample(ExperimentConfig("counterexample", scales=30, seed=109))
    R = [r["R_k"] for r in rep.tables["radial"]]
    tail_decreasing = all(b < a for a, b in zip(R[-10:], R[-9:]))
    elapsed = time.perf_counter() - t0
    ok = (
        tail_decreasing
        and R[29] <= R[0] / 10.0
        and rep.passed
        and elapsed < 600.0
    )
    _report("boundary-distance ratio trend (30 dyadic scales)", ok,
            f"R_1 {R[0]:.4f}, R_30 {R[29]:.4f}, final-10 decreasing {tail_decreasing}, "
            f"{elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path):
    runners = {
        "lemma22": (run_lemma22, 3),
        "lemma24_25": (run_lemma24_25, 3),
        "pipeline": (run_pipeline, 3),
        "counterexample": (run_counterexample, 12),
    }
    all_ok = True
    for name, (runner, scales) in runners.items():
        outputs = []
        for _ in range(2):
            cfg = ExperimentConfig(name, scales=scales, seed=7)
            outputs.append(emit(runner(cfg), "json").encode())
        all_ok &= outputs[0] == outputs[1]
    _report("determinism (byte-identical reports per experiment)", all_ok,
            "4 experiments re-run with identical config+seed")
