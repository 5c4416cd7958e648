"""The benchmark's workloads: inputs generated from a seed, and one unit of work.

A unit is what a user waits for: one verified report (the runner plus
``emit``, called as ``squeezelab.cli.main`` calls them) or, for
``ball_distance``, one certified pair bound.  Entry points are looked up on
their module at call time, so the tracer's wrappers are the ones called in
a traced run.  See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from squeezelab import ball, domains, experiments, kobayashi


@dataclass
class Outcome:
    key: str  # identity of the input, for the repeat and reference digests
    digest: str  # sha256 of the unit's output bytes
    rows: int  # result rows completed
    checks: list  # (check name, passed)
    bound_over_exact: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]  # seed -> pool of unit inputs, cycled
    run_unit: Callable[[object], Outcome]
    units_per_report: int  # units that together make one report the user waits for
    traced_units: int  # fixed, so traced counts repeat exactly


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verdict_checks(report) -> list:
    return [(f"verdict: {v['name']}", bool(v["passed"])) for v in report.verdicts]


def _report_unit(runner_name: str, rows: Callable[[dict], int]):
    def run(config) -> Outcome:
        report = getattr(experiments, runner_name)(config)
        text = experiments.emit(report, "json", None)
        key = f"seed={config.seed}"
        if config.domain_preset != "all":
            key += f"/preset={config.domain_preset}"
        return Outcome(key=key, digest=_sha(text),
                       rows=rows(report.tables), checks=_verdict_checks(report))

    return run


# -- lemma22: the seed only enters the provenance; the work is fixed.  The
# report of preset "all" runs the four domain presets one after another, so
# each preset is its own unit and the four units make one report.  Shorter
# units repeat within a run; the slowest preset comes first.

LEMMA22_PRESETS = ("ellipsoid", "omega_prime", "disc", "ball")


def _lemma22_inputs(seed: int) -> list:
    return [experiments.ExperimentConfig("lemma22", domain_preset=p, scales=20, seed=seed)
            for p in LEMMA22_PRESETS]


# -- pipeline: the seed draws the 20,000 boundary samples per domain.  Three
# points per domain, the runner's minimum (it caps them at 10), keep a report
# near 4 s, so that a run repeats it several times.


def _pipeline_inputs(seed: int) -> list:
    return [experiments.ExperimentConfig("pipeline", scales=3, seed=seed)]


# -- counterexample: about 1 s per report, and scales are capped at 40, so
# the run length comes from reports over several seeds derived from --seed.

COUNTEREXAMPLE_POOL = 4


def _counterexample_inputs(seed: int) -> list:
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, COUNTEREXAMPLE_POOL)
    return [experiments.ExperimentConfig("counterexample", scales=40, seed=int(s)) for s in seeds]


# -- ball_distance: random pairs in the unit ball of C^2, bounded by the
# adaptive quadrature at refinement 8 and checked against the exact distance.

BALL_POOL = 4
BALL_REFINEMENT = 8


@dataclass(frozen=True)
class BallPair:
    key: str
    dom: object
    a: np.ndarray
    b: np.ndarray
    exact: float


def _ball_inputs(seed: int) -> list:
    dom = domains.ball(2)
    pts = domains.random_interior_points(dom, 2 * BALL_POOL, seed=seed)
    return [BallPair(f"seed={seed}/pair={i}", dom, pts[2 * i], pts[2 * i + 1],
                     ball.kobayashi_ball(pts[2 * i], pts[2 * i + 1]))
            for i in range(BALL_POOL)]


def _ball_unit(pair: BallPair) -> Outcome:
    bound = kobayashi.distance_upper(pair.dom, pair.a, pair.b,
                                     kobayashi.PathSpec(refinement=BALL_REFINEMENT))
    text = json.dumps({"value": bound.value, "kind": bound.kind, "quad_error": bound.quad_error,
                       "decomposition": bound.decomposition}, sort_keys=True)
    return Outcome(key=pair.key, digest=_sha(text), rows=1,
                   checks=[("bound >= exact ball distance - 1e-9", bound.value >= pair.exact - 1e-9)],
                   bound_over_exact=bound.value / pair.exact)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lemma22", _lemma22_inputs,
                 _report_unit("run_lemma22", lambda t: sum(len(r["scales"]) for r in t.values())),
                 units_per_report=len(LEMMA22_PRESETS), traced_units=len(LEMMA22_PRESETS)),
        Workload("pipeline", _pipeline_inputs,
                 _report_unit("run_pipeline", lambda t: sum(len(r["rows"]) for r in t.values())),
                 units_per_report=1, traced_units=1),
        Workload("counterexample", _counterexample_inputs,
                 _report_unit("run_counterexample", lambda t: len(t["radial"])),
                 units_per_report=1, traced_units=COUNTEREXAMPLE_POOL),
        Workload("ball_distance", _ball_inputs, _ball_unit,
                 units_per_report=1, traced_units=2),
    )
}
