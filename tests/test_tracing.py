"""The benchmark tracer (``perfbench/tracing.py``) against the current package.

The tracer looks up each entry point it wraps by name, so a renamed or
deleted function makes ``perfbench/run.py --trace 1`` raise
``AttributeError``.  It must also put back every attribute it replaced.
"""

import importlib.util
import sys
from pathlib import Path

from squeezelab import ball, conformal, domains, experiments

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _attributes():
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "squeezelab" or n.startswith("squeezelab."))]
    owners += [ball.BallAutomorphism, domains.PlanarDomain, domains.DefiningFunctionDomain,
               conformal.AnnulusMap]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _traced(run):
    """``run()`` under every tracer wrapper; checks that each patched attribute is put back."""
    before = _attributes()
    tracer = tracing.Tracer()
    with tracing.Patcher(tracer) as patcher:
        tracing.install(patcher)
        assert patcher.saved
        result = run()
    after = _attributes()
    assert before.keys() == after.keys()
    assert [key for key in before if before[key] is not after[key]] == []
    return tracer, result


def test_install_finds_every_entry_point_and_restores_it():
    tracer, report = _traced(
        lambda: experiments.run_pipeline(experiments.ExperimentConfig("pipeline", scales=3, seed=1)))
    assert report.passed
    # one stacked call for the ball and the ellipsoid; the closed form builds no boundary samples
    assert tracer.calls("squeezing.theorem21_pipeline") == 1
    assert tracer.calls("squeezing.ball_centering_embeddings") == 0
    assert tracer.calls("squeezing.ellipsoid_boundary_samples") == 0


def test_second_counterexample_report_still_traces_its_map():
    def config(seed):
        return experiments.ExperimentConfig("counterexample", scales=40, seed=seed)

    experiments.run_counterexample(config(1))  # builds the domains and the lens's map
    untraced = experiments.emit(experiments.run_counterexample(config(2)), "json")
    tracer, report = _traced(lambda: experiments.run_counterexample(config(2)))
    assert report.passed
    assert experiments.emit(report, "json") == untraced
    assert tracer.calls("domains.build_omega_prime") == 0
    # the memo sits inside the traced function: the reused map is still seen
    assert tracer.calls("conformal.canonical_annulus_map") >= 1
    assert min(tracer.extra["conformal.canonical_annulus_map.residual"]) > 0
    assert min(tracer.extra["conformal.canonical_annulus_map.boundary_deviation"]) > 0
    # one distance call for the image and the lens together, and one squeezing batch
    assert tracer.calls("domains.boundary_distance.planar") == 1
    assert tracer.calls("squeezing.squeeze_lower_planar") >= 1
    assert tracer.calls("conformal.AnnulusMap.forward_gap") >= 1
