"""Per-layer tracing of squeezelab from outside the package.

The tracer wraps the public entry points of each module (`ball`, `domains`,
`kobayashi`, `conformal`, `squeezing`, `experiments`) for the duration of a
traced run and restores every original attribute afterwards.  Two kinds of
wrapper exist:

* span wrappers record one span per call (name, start, end, parent span id,
  unit id) plus per-name calls, total and self time;
* hot wrappers, for the scalar calls made hundreds of thousands of times per
  report, keep only per-name call counts and self time, so memory stays
  bounded however many calls a unit makes.

A call's self time is its duration minus the time of the wrapped calls made
directly inside it.  Functions bound by ``from .x import name`` are patched
in every squeezelab module that holds them, and methods are patched on their
class, so every call path goes through the wrapper.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

_CONTAINS = ("domains.PlanarDomain.contains", "domains.DefiningFunctionDomain.contains")
_KAPPA = "kobayashi.infinitesimal_upper"


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.unit = None
        self.spans = []  # (id, name, start, end, parent id, unit id)
        self.hot = {}  # name -> [calls, self_s]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.extra = {}  # name -> list of per-call values
        self._frames = [[0.0]]  # child time of each open call; root frame first
        self._span_ids = [None]

    # -- recording --------------------------------------------------------

    def hot_wrapper(self, name, fn):
        rec = self.hot.setdefault(name, [0, 0.0])
        frames = self._frames
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                rec[0] += 1
                rec[1] += dt - frame[0]
                frames[-1][0] += dt

        return wrapper

    def span_wrapper(self, name, fn, classify=None, observe=None):
        """Wrap ``fn`` in a span.

        ``classify(args)`` may rename the span per call, or return None to
        pass the call through unrecorded.  ``observe(tracer, args, result,
        before)`` derives extra per-call values; ``before`` is the counter
        snapshot taken when the call started.
        """
        frames = self._frames
        ids = self._span_ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = classify(args) if classify else name
            if label is None:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            self.spans.append(None)
            parent = ids[-1]
            before = self.snapshot() if observe else None
            frame = [0.0]
            frames.append(frame)
            ids.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ids.pop()
                frames.pop()
                dt = t1 - t0
                frames[-1][0] += dt
                rec = self.stats.setdefault(label, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                self.spans[span_id] = (span_id, label, t0, t1, parent, self.unit)
            if observe:
                observe(self, args, result, before)
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "contains": sum(self.hot.get(n, (0,))[0] for n in _CONTAINS),
            "kappa": self.stats.get(_KAPPA, (0,))[0],
        }

    def note(self, name, value):
        self.extra.setdefault(name, []).append(float(value))

    # -- reporting --------------------------------------------------------

    def calls(self, name) -> int:
        if name in self.hot:
            return self.hot[name][0]
        return self.stats.get(name, (0,))[0]

    def self_s(self, name) -> float:
        if name in self.hot:
            return self.hot[name][1]
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# observers deriving ratio metrics at the layer where the work happens


def _observe_sampling(tracer, args, result, before):
    tracer.note("domains.random_interior_points.points", len(result))
    tracer.note("domains.random_interior_points.contains",
                tracer.snapshot()["contains"] - before["contains"])


def _observe_kappa(tracer, args, result, before):
    tracer.note("kobayashi.infinitesimal_upper.contains",
                tracer.snapshot()["contains"] - before["contains"])


def _observe_distance(tracer, args, result, before):
    segments = sum(1 for p in result.decomposition if p.get("method") == "trapezoid")
    tracer.note("kobayashi.distance_upper.segments", segments)
    tracer.note("kobayashi.distance_upper.kappa", tracer.snapshot()["kappa"] - before["kappa"])
    if result.value:
        tracer.note("kobayashi.distance_upper.quad_error_rel", result.quad_error / result.value)


def _observe_annulus(tracer, args, result, before):
    tracer.note("conformal.canonical_annulus_map.residual", result.residual)
    tracer.note("conformal.canonical_annulus_map.boundary_deviation",
                getattr(result, "boundary_deviation", 0.0))


def _observe_emit(tracer, args, result, before):
    tracer.note("experiments.emit.bytes", len(result.encode()))


# ---------------------------------------------------------------------------
# patching


class Patcher:
    """Installs wrappers and puts every original attribute back on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []  # (owner, attribute, original object)

    def function(self, module, attr, wrap):
        original = getattr(module, attr)
        wrapper = wrap(original)
        for mod in _squeezelab_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def method(self, cls, attr, wrap):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(wrap(original.__func__))
        else:
            wrapper = wrap(original)
        self.saved.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def restore(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _squeezelab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "squeezelab" or n.startswith("squeezelab."))]


def install(patcher: Patcher):
    """Wrap every traced entry point of squeezelab."""
    from squeezelab import ball, conformal, domains, experiments, kobayashi, squeezing

    t = patcher.tracer

    def hot(name):
        return lambda fn: t.hot_wrapper(name, fn)

    def span(name, **kw):
        return lambda fn: t.span_wrapper(name, fn, **kw)

    # ball
    patcher.method(ball.BallAutomorphism, "apply", hot("ball.BallAutomorphism.apply"))
    patcher.function(ball, "psi_apply", hot("ball.psi_apply"))
    patcher.method(ball.BallAutomorphism, "centering", span("ball.BallAutomorphism.centering"))

    # domains
    patcher.method(domains.PlanarDomain, "contains", hot("domains.PlanarDomain.contains"))
    patcher.method(domains.DefiningFunctionDomain, "contains",
                   hot("domains.DefiningFunctionDomain.contains"))
    planar = domains.PlanarDomain
    # the module function only dispatches for defining-function domains; the
    # method below records those, so the dispatch itself is not a span
    patcher.function(domains, "boundary_distance", span(
        "", classify=lambda a: "domains.boundary_distance.planar" if isinstance(a[0], planar) else None))
    patcher.method(domains.DefiningFunctionDomain, "boundary_distance", span(
        "", classify=lambda a: ("domains.boundary_distance.defining_newton"
                                if a[0].exact_distance is None
                                else "domains.boundary_distance.defining_exact")))
    patcher.function(domains, "random_interior_points",
                     span("domains.random_interior_points", observe=_observe_sampling))
    patcher.function(domains, "build_omega_prime", span("domains.build_omega_prime"))
    patcher.function(domains, "build_omega", span("domains.build_omega"))
    patcher.function(domains, "phi_map", hot("domains.phi_map"))

    # kobayashi
    patcher.function(kobayashi, "infinitesimal_upper", span(_KAPPA, observe=_observe_kappa))
    patcher.function(kobayashi, "distance_upper",
                     span("kobayashi.distance_upper", observe=_observe_distance))
    patcher.function(kobayashi, "tangent_ball_radius", span("kobayashi.tangent_ball_radius"))
    patcher.function(kobayashi, "lemma_log_bound_verify", span("kobayashi.lemma_log_bound_verify"))

    # conformal
    patcher.function(conformal, "canonical_annulus_map",
                     span("conformal.canonical_annulus_map", observe=_observe_annulus))
    patcher.method(conformal.AnnulusMap, "forward_gap", hot("conformal.AnnulusMap.forward_gap"))

    # squeezing
    for name in ("theorem21_pipeline", "squeeze_lower_planar", "certify_injective",
                 "ball_centering_embeddings", "ellipsoid_boundary_samples"):
        patcher.function(squeezing, name, span(f"squeezing.{name}"))

    # experiments
    for name in ("run_lemma22", "run_pipeline", "run_counterexample"):
        patcher.function(experiments, name, span("experiments.run"))
    patcher.function(experiments, "emit", span("experiments.emit", observe=_observe_emit))


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-unit layer metrics from one traced run of ``units`` units.

    Counts and times are divided by the unit count.  A ratio whose
    denominator is zero (the layer did no such work) reads 0.
    """
    t = tracer
    x = t.extra
    per = float(units)
    out = {}

    def calls(name):
        out[f"{name}.calls"] = (t.calls(name) / per, "count")

    def self_s(name):
        out[f"{name}.self_s"] = (t.self_s(name) / per, "s")

    def total_s(name):
        out[f"{name}.total_s"] = (t.total_s(name) / per, "s")

    for name in ("ball.BallAutomorphism.apply", "ball.psi_apply",
                 "domains.PlanarDomain.contains", "domains.DefiningFunctionDomain.contains",
                 "domains.boundary_distance.planar", "domains.boundary_distance.defining_newton",
                 "conformal.AnnulusMap.forward_gap", "squeezing.squeeze_lower_planar"):
        calls(name)
        self_s(name)
    for name in ("ball.BallAutomorphism.centering", "domains.boundary_distance.defining_exact",
                 "domains.phi_map"):
        calls(name)

    calls("domains.random_interior_points")
    total_s("domains.random_interior_points")
    out["domains.random_interior_points.contains_per_point"] = (_ratio(
        sum(x.get("domains.random_interior_points.contains", ())),
        sum(x.get("domains.random_interior_points.points", ()))), "ratio")
    total_s("domains.build_omega_prime")
    total_s("domains.build_omega")

    calls(_KAPPA)
    self_s(_KAPPA)
    total_s(_KAPPA)
    out[f"{_KAPPA}.contains_per_call"] = (_ratio(
        sum(x.get("kobayashi.infinitesimal_upper.contains", ())), t.calls(_KAPPA)), "ratio")
    calls("kobayashi.distance_upper")
    total_s("kobayashi.distance_upper")
    out["kobayashi.distance_upper.kappa_per_segment"] = (_ratio(
        sum(x.get("kobayashi.distance_upper.kappa", ())),
        sum(x.get("kobayashi.distance_upper.segments", ()))), "ratio")
    out["kobayashi.distance_upper.quad_error_rel"] = (
        _median(x.get("kobayashi.distance_upper.quad_error_rel", ())), "ratio")
    out["kobayashi.distance_upper.bound_over_exact"] = (
        _median(x.get("kobayashi.distance_upper.bound_over_exact", ())), "ratio")
    calls("kobayashi.tangent_ball_radius")
    total_s("kobayashi.tangent_ball_radius")
    total_s("kobayashi.lemma_log_bound_verify")

    calls("conformal.canonical_annulus_map")
    total_s("conformal.canonical_annulus_map")
    out["conformal.canonical_annulus_map.residual"] = (
        max(x.get("conformal.canonical_annulus_map.residual", ()), default=0.0), "ratio")
    out["conformal.canonical_annulus_map.boundary_deviation"] = (
        max(x.get("conformal.canonical_annulus_map.boundary_deviation", ()), default=0.0), "ratio")

    calls("squeezing.theorem21_pipeline")
    self_s("squeezing.theorem21_pipeline")
    total_s("squeezing.theorem21_pipeline")
    calls("squeezing.certify_injective")
    total_s("squeezing.certify_injective")
    total_s("squeezing.ball_centering_embeddings")
    total_s("squeezing.ellipsoid_boundary_samples")

    total_s("experiments.run")
    self_s("experiments.run")
    total_s("experiments.emit")
    out["experiments.emit.bytes"] = (sum(x.get("experiments.emit.bytes", ())) / per, "bytes")
    return out
