"""Batch experiments: distance-constant fits, margin sweeps, the recentring
pipeline, and the boundary-distance ratio trend on the z log z image domain.

Reports are plain dictionaries with deterministic serialization; every
asserted inequality appears with its numerical margin so a verdict can be
recomputed from the emitted table alone.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .ball import lemma25_bound
from .conformal import canonical_annulus_map
from .domains import (
    _LENS_WIDTH,
    _integer,
    boundary_distance,
    build_omega,
    build_omega_prime,
    disc,
    ball,
    ellipsoid,
    phi_deriv,
    phi_map,
    random_interior_points,
)
from .errors import ConfigError, DomainError
from .kobayashi import lemma_log_bound_verify
from .squeezing import certify_injective, squeeze_lower_planar, theorem21_pipeline

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "RUNNERS",
    "run_lemma22",
    "run_lemma24_25",
    "run_pipeline",
    "run_counterexample",
    "emit",
]

@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    domain_preset: str = "all"
    scales: int = 20
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output_path: str = ""

    def __post_init__(self):
        if self.experiment not in RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {tuple(RUNNERS)}")
        presets = ("all", *_LEMMA22_PRESETS) if self.experiment == "lemma22" else ("all",)
        if self.domain_preset not in presets:
            raise ConfigError(f"{self.experiment} takes a domain preset from {presets}, "
                              f"not {self.domain_preset!r}")
        _integer(self.scales, "scales", 3)
        _integer(self.seed, "seed", 0)


@dataclass
class ExperimentReport:
    experiment: str
    tables: dict
    verdicts: list
    provenance: dict

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)


def _provenance(config: ExperimentConfig) -> dict:
    return {"config": asdict(config), "version": __version__}


def _verdict(name: str, margin: float, passed=None) -> dict:
    return {
        "name": name,
        "margin": float(margin),
        "passed": bool(margin >= 0.0) if passed is None else bool(passed),
    }


# ---------------------------------------------------------------------------
# the distance-constant fit


_LEMMA22_PRESETS = ("disc", "ball", "ellipsoid", "omega_prime")  # in report order


def _lemma22_job(name: str):
    """Domain, base point, boundary target and inward normal of one preset."""
    if name == "disc":
        return disc(), 0.0, 1.0, -1.0
    if name == "omega_prime":
        return _lens_and_image()[0], 0.05, complex(_LENS_WIDTH), -1.0
    dom = ball(2) if name == "ball" else ellipsoid()
    return (dom, np.zeros(2, dtype=complex), np.array([1.0, 0.0], dtype=complex),
            np.array([-1.0, 0.0], dtype=complex))


def run_lemma22(config: ExperimentConfig) -> ExperimentReport:
    """Fit of the additive constant in d_K(0, p) <= (1/2) log(1/d(p)) + C."""
    tables = {}
    verdicts = []
    names = _LEMMA22_PRESETS if config.domain_preset == "all" else (config.domain_preset,)
    for name in names:
        dom, base, target, inward = _lemma22_job(name)
        rep = lemma_log_bound_verify(dom, base, target, num_scales=config.scales, inward=inward)
        tables[name] = rep
        verdicts.append(_verdict(f"{name}: C_fit finite", 1.0, passed=np.isfinite(rep["C_fit"])))
        verdicts.append(_verdict(f"{name}: tail slope <= 1e-2", 1e-2 - rep["tail_slope"]))
        if name == "disc":
            verdicts.append(_verdict("disc: C_fit in [0.34, 0.40]",
                                     min(rep["C_fit"] - 0.34, 0.40 - rep["C_fit"])))
    return ExperimentReport("lemma22", tables, verdicts, _provenance(config))


# ---------------------------------------------------------------------------
# confinement and inscribed-radius margins


def _chain_rows(C_values, d_values):
    """Evaluable inequality lines of the confinement argument."""
    rows = []
    for c in C_values:
        for d in d_values:
            x = d / np.exp(2.0 * c)
            lhs = 0.5 * np.log((2.0 - x) / x)
            rhs = 0.5 * np.log(np.exp(2.0 * c) / d)
            rows.append({
                "C": c,
                "d": d,
                "line": "half-log((2-x)/x) > half-log(e^{2C}/d), x = d/e^{2C}",
                "margin": float(lhs - rhs),
                "evidence": "closed form",
            })
            # squared-norm chain: with ||z|| = 1-2 eps d and r <= 1-d/C,
            # (1-r^2)(1-||z||^2)/|1-z1 r|^2 <= 8 C eps <= 10 C eps
            eps = 1.0 / (18.0 * c)
            r = max(1.0 - d / c, 0.0)
            nz = 1.0 - 2.0 * eps * d
            worst = (1.0 - r * r) * (1.0 - nz * nz) / (1.0 - nz * r) ** 2
            rows.append({
                "C": c,
                "d": d,
                "line": "1-||Psi(z)||^2 <= 10 C eps at the axis worst case",
                "margin": float(10.0 * c * eps - worst),
                "evidence": "closed form",
            })
    return rows


def run_lemma24_25(config: ExperimentConfig) -> ExperimentReport:
    """Margin sweeps for the confinement and inscribed-radius estimates."""
    C_values = (0.5, 1.0, 2.0)
    d_values = (1e-1, 1e-2, 1e-3)
    chain = _chain_rows(C_values, d_values)
    verdicts = [
        _verdict("confinement chain lines nonnegative", min(r["margin"] for r in chain))
    ]

    sweep = []
    for c in C_values:
        for d in d_values:
            for eps in (1.0 / (18.0 * c), 1.0 / (36.0 * c)):
                r_max = max(1.0 - d / c, 0.0)
                for r in np.linspace(0.0, r_max, 5):
                    rep = lemma25_bound(c, eps, d, r=float(r))
                    sweep.append({
                        "C": c, "d": d, "eps": eps, "r": float(r),
                        "min_margin": rep["min_margin"],
                        "min_margin_sq": rep["min_margin_sq"],
                        "evidence": rep["evidence"],
                    })
    verdicts.append(_verdict("inscribed-radius sweep margins nonnegative",
                             min(s["min_margin"] for s in sweep)))
    verdicts.append(_verdict("intermediate squared bound margins nonnegative",
                             min(s["min_margin_sq"] for s in sweep)))

    pipe = _pipeline_tables(config)
    for name, rep in pipe.items():
        verdicts.append(_verdict(f"pipeline {name}: confinement", 1.0, passed=rep["all_confined"]))
        verdicts.append(_verdict(f"pipeline {name}: inscribed radius", 1.0, passed=rep["all_inscribed"]))

    tables = {"chain": chain, "sweep": sweep, "pipeline": pipe}
    return ExperimentReport("lemma24_25", tables, verdicts, _provenance(config))


# ---------------------------------------------------------------------------
# the recentring pipeline


def _pipeline_tables(config: ExperimentConfig) -> dict:
    """Closed-form rows on the ball and the ellipsoid, from one stacked call; the seed enters only the provenance."""
    pts = [np.array([1.0 - 2.0 ** (-i), 0.0], dtype=complex) for i in range(1, min(config.scales, 10) + 1)]
    ball_table, ellipsoid_table = theorem21_pipeline(ball(2), pts, 0.35, (ellipsoid(), pts, 0.50))
    return {"ball": ball_table, "ellipsoid": ellipsoid_table}


def run_pipeline(config: ExperimentConfig) -> ExperimentReport:
    tables = _pipeline_tables(config)
    verdicts = []
    for name, rep in tables.items():
        verdicts.append(_verdict(f"{name}: confinement margins",
                                 min(r["confinement_margin"] for r in rep["rows"])))
        verdicts.append(_verdict(f"{name}: inscribed-radius margins",
                                 min(r["inscribed_margin"] for r in rep["rows"])))
        verdicts.append(_verdict(f"{name}: squeeze trend toward 1",
                                 min(r["trend_margin"] for r in rep["rows"])))
    ball_rows = tables["ball"]["rows"]
    verdicts.append(_verdict("ball: inscribed radius >= 1 - 1e-6",
                             min(r["inscribed"] for r in ball_rows) - (1.0 - 1e-6)))
    return ExperimentReport("pipeline", tables, verdicts, _provenance(config))


# ---------------------------------------------------------------------------
# the boundary-distance ratio trend on the z log z image


@functools.cache
def _lens_and_image():
    """The lens Omega' and its z log z image Omega, built once per process; no report changes them."""
    omega_prime = build_omega_prime()
    return omega_prime, build_omega(omega_prime)


def run_counterexample(config: ExperimentConfig) -> ExperimentReport:
    """Ratio R_k = (1 - L_k)/d_k along the real approach to the cusp image.

    L_k is the certified squeezing lower bound at p_k (transported to the
    image domain unchanged, squeezing being a biholomorphic invariant) and
    d_k the boundary distance of the image point q_k = p_k log p_k.  The
    estimate 1 - S <= c d would force R_k bounded below; the measured R_k
    decays like 1/|log p_k|.
    """
    scales = min(config.scales, 40)
    omega_prime, omega = _lens_and_image()

    interior = random_interior_points(omega_prime, 2000, seed=config.seed)
    cert = certify_injective(phi_map, interior, pairs=10_000, seed=config.seed)
    if not cert["injective"]:
        raise DomainError(f"z log z injectivity certificate failed: {cert}")

    amap = canonical_annulus_map(omega_prime)
    p = np.array([2.0 ** (-(k + 2)) for k in range(1, scales + 1)])
    # informational angular approaches p e^{i theta} (no assertion), whose
    # image distances and squeezing bounds share one batch with the radial ones
    approach = [(theta, k, 2.0 ** (-(k + 2)) * np.exp(1j * theta)) for theta in (-0.3, 0.3) for k in (5, 10, 15, 20)]
    inside = omega_prime.contains(np.array([a for _, _, a in approach]))
    approach = [a for a, keep in zip(approach, inside) if keep]
    points = np.concatenate([p, [a for _, _, a in approach]])
    # the image points on Omega and the radial points on the lens share one distance run
    image, lens = boundary_distance(omega, phi_map(points), (omega_prime, p))
    bounds = squeeze_lower_planar(omega_prime, points)
    d, d_angular, d_prime = image.d[:scales], image.d[scales:], lens.d
    abs_deriv = np.abs(phi_deriv(p))
    rows = []
    for k, p_k, d_k, dp_k, L, a_k in zip(range(1, scales + 1), p.tolist(), d.tolist(), d_prime.tolist(), bounds,
                                         abs_deriv.tolist()):
        rows.append({
            "k": k,
            "p_k": p_k,
            "d_k": d_k,
            "L_k": L.lower,
            "one_minus_L": L.one_minus_lower,
            "R_k": float(L.one_minus_lower / d_k),
            "distortion_ratio": d_k / dp_k,
            "abs_phi_deriv": a_k,
        })

    R = np.array([r["R_k"] for r in rows])
    tail = R[-10:]
    verdicts = [
        _verdict("R_k strictly decreasing over final 10 scales", float(np.min(-np.diff(tail)))),
        _verdict("R_last <= R_first/10", float(R[0] / 10.0 - R[-1])),
        _verdict("image connectivity = 2", 1.0, passed=omega.connectivity == 2),
        _verdict("injectivity certificate", cert["min_image_separation"]),
    ]

    angular = []
    for (theta, k, _), d_q, L in zip(approach, d_angular.tolist(), bounds[scales:]):
        angular.append({"theta": theta, "k": k, "R": float(L.one_minus_lower / d_q)})

    tables = {"radial": rows, "angular": angular, "injectivity": cert,
              "modulus": amap.modulus}
    return ExperimentReport("counterexample", tables, verdicts, _provenance(config))


RUNNERS = {
    "lemma22": run_lemma22,
    "lemma24_25": run_lemma24_25,
    "pipeline": run_pipeline,
    "counterexample": run_counterexample,
}


# ---------------------------------------------------------------------------
# serialization

def report_json(report: ExperimentReport) -> str:
    payload = {
        "schema_version": 1,
        "experiment": report.experiment,
        "tables": report.tables,
        "verdicts": report.verdicts,
        "passed": report.passed,
        "provenance": report.provenance,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def report_csv(report: ExperimentReport) -> str:
    """The report's main table as CSV, floats written by ``repr``.

    The radial rows of ``counterexample``, every scale of each ``lemma22`` domain, else the verdicts.
    """
    if report.experiment == "counterexample":
        header = ["k", "p_k", "d_k", "L_k", "R_k"]
        rows = [[row[c] for c in header] for row in report.tables["radial"]]
    elif report.experiment == "lemma22":
        header = ["domain", "k", "d", "bound", "u"]
        rows = [[name] + [row[c] for c in header[1:]] for name, rep in report.tables.items() for row in rep["scales"]]
    else:
        header = ["name", "margin", "passed"]
        rows = [[v[c] for c in header] for v in report.verdicts]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(x) if isinstance(x, float) else x for x in row] for row in rows)
    return out.getvalue()


def emit(report: ExperimentReport, fmt: str = "json", path: str | None = None) -> str:
    """Serialize a report deterministically; optionally write it to disk."""
    if fmt == "json":
        text = report_json(report)
    elif fmt == "csv":
        text = report_csv(report)
    else:
        raise ConfigError(f"unknown format {fmt!r}; use json or csv")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
