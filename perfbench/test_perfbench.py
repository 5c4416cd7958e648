"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from squeezelab import ball, conformal, domains, experiments  # noqa: E402

SPANS = HERE.parent / ".perfbench" / "spans-selftest.jsonl"

# scales=6: at 3 or 4 scales the "tail slope" verdict of lemma22 fails on the ball
SMOKE = workloads.Workload(
    "smoke",
    lambda seed: [experiments.ExperimentConfig("lemma22", domain_preset="ball", scales=6, seed=seed)],
    workloads._report_unit("run_lemma22", lambda t: sum(len(r["scales"]) for r in t.values())),
    units_per_report=1,
    traced_units=1,
)


def _attributes():
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "squeezelab" or n.startswith("squeezelab."))]
    owners += [ball.BallAutomorphism, domains.PlanarDomain, domains.DefiningFunctionDomain,
               conformal.AnnulusMap]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_run_restores_every_patched_attribute():
    before = _attributes()
    checks = run.Checks()
    t0 = time.perf_counter()
    metrics, detail = run.per_layer(SMOKE, SMOKE.make_inputs(0), checks, SPANS)
    assert time.perf_counter() - t0 < 60.0  # the smoke configuration is small
    after = _attributes()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed
    assert checks.failed == [] and checks.attempted > 0
    # the layer the smoke report exercises was traced; layers it bypasses read zero
    assert metrics["kobayashi.infinitesimal_upper.calls"]["value"] > 0
    assert metrics["domains.boundary_distance.defining_exact.calls"]["value"] > 0
    assert metrics["ball.BallAutomorphism.apply.calls"]["value"] == 0
    assert metrics["conformal.canonical_annulus_map.calls"]["value"] == 0
    assert metrics["experiments.emit.bytes"]["value"] > 0


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        metrics, _ = run.per_layer(SMOKE, SMOKE.make_inputs(0), run.Checks(), SPANS)
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]


def _fake(unit):
    return workloads.Workload("fake", lambda seed: [seed], unit, units_per_report=1, traced_units=1)


# A pool of two equal inputs: a run with no time left still runs each once.
POOL = [0, 0]


def test_failing_verdict_gives_failed_checks():
    def unit(item):
        return workloads.Outcome(key="k", digest="d", rows=1, checks=[("verdict: fake", False)])

    checks = run.Checks()
    run.timed_loop(_fake(unit), POOL, 0.0, checks)
    assert len(checks.failed) / checks.attempted > 0


def test_raising_runner_gives_failed_checks():
    def unit(item):
        raise ValueError("boom")

    checks = run.Checks()
    samples, unit_s, ref_s = run.timed_loop(_fake(unit), POOL, 0.0, checks)
    assert len(unit_s) == len(ref_s) == 2 and samples == [[], []]
    assert checks.failed and len(checks.failed) == checks.attempted


def test_changed_bytes_on_repeat_fail_the_repeat_check():
    digests = iter(["a", "b"])

    def unit(item):
        return workloads.Outcome(key="k", digest=next(digests), rows=1, checks=[])

    checks = run.Checks()
    run.timed_loop(_fake(unit), POOL, 0.0, checks)
    assert checks.failed == ["repeat bytes identical: k"]


def test_compare_reports_medians_quartiles_and_ratio():
    first = {"w": {"report_s": ("s", [1.0, 2.0, 3.0, 4.0, 5.0])}}
    second = {"w": {"report_s": ("s", [2.0, 4.0, 6.0, 8.0, 10.0])}}
    [(workload, metric, unit, sa, na, sb, nb, ratio)] = compare.table(first, second)
    assert (workload, metric, unit, na, nb) == ("w", "report_s", "s", 5, 5)
    assert sa[0] == 3.0 and sb[0] == 6.0 and ratio == 2.0
    assert sa[1] < sa[0] < sa[2]
