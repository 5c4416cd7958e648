"""squeezelab benchmark: time to a verified report, and a per-module breakdown.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Each run is a closed loop with one caller: the next unit starts only after
the previous one returned and was checked.  With ``--trace 0`` the last
line of output holds the end-to-end metrics, report times relative to a
fixed reference loop timed before every unit; with ``--trace 1`` it holds
the per-layer metrics of a fixed number of traced units, each run once
untraced first so the traced bytes and the tracing overhead can be checked.
The line before it records the environment, the checks and the raw samples.
``--out FILE`` appends both as one record, the input of ``--compare``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
# Start no unit that would likely end past this point of the loop, so a run
# exits well inside its time limit even when one unit becomes very slow.
LOOP_CAP_S = 140.0

sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import envinfo  # noqa: E402
import reference  # noqa: E402


class Checks:
    """Correctness checks of one run; any exception counts as a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.digests = {}  # input key -> digest of its first output

    def add(self, name: str, passed: bool):
        self.attempted += 1
        if not passed:
            self.failed.append(name)

    def run(self, workload, item):
        try:
            out = workload.run_unit(item)
        except Exception as exc:  # the run goes on; the failure is reported
            traceback.print_exc(file=sys.stderr)
            self.add(f"unit raised {type(exc).__name__}: {exc}", False)
            return None
        for name, passed in out.checks:
            self.add(name, passed)
        return out

    def repeat(self, out):
        """Same config and seed must give the same bytes within a run."""
        if out.key in self.digests:
            self.add(f"repeat bytes identical: {out.key}", out.digest == self.digests[out.key])
        else:
            self.digests[out.key] = out.digest


def setup_times(workload: str, seed: int) -> list:
    """Set-up time (import + inputs) measured in fresh interpreters."""
    times = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                             capture_output=True, text=True, cwd=ROOT, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{res.stderr}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def timed_loop(workload, pool, seconds, checks):
    """Cycle the pool until ``seconds`` pass, timing the reference before each unit.

    Every input runs at least once.  After that no unit starts that its last
    time says would end past ``seconds``, so a run ends near its length.
    Returns, per pool index, the list of ``(seconds, rows)`` of its verified
    units; the times of all units, failed ones included; and the reference
    times.
    """
    samples = [[] for _ in pool]
    last = [None] * len(pool)
    unit_s, ref_s = [], []
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(pool)
        elapsed = time.perf_counter() - start
        if i >= len(pool) and elapsed + ref_s[-1] + last[k] > seconds:
            break
        if unit_s and elapsed + max(ref_s) + max(unit_s) > LOOP_CAP_S:
            break
        t0 = time.perf_counter()
        reference.reference_loop()
        ref_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        out = checks.run(workload, pool[k])
        dt = time.perf_counter() - t0
        unit_s.append(dt)
        last[k] = dt
        if out is not None:
            checks.repeat(out)
            samples[k].append((dt, out.rows))
        i += 1
    return samples, unit_s, ref_s


def end_to_end(workload, pool, seconds, checks, setup):
    """End-to-end metrics: a report's time relative to the reference loop.

    ``report_rel`` is the median time of each input, averaged over the pool
    and scaled to one report, over the median time of the reference loop in
    the same run.  The raw wall times are on the info line.
    """
    samples, unit_s, ref_s = timed_loop(workload, pool, seconds, checks)
    medians = [statistics.median(dt for dt, _ in s) for s in samples if s] or [max(unit_s)]
    report_s = workload.units_per_report * statistics.fmean(medians)
    rows = sum(statistics.median(r for _, r in s) for s in samples if s)
    metrics = {
        "report_rel": {"value": report_s / statistics.median(ref_s), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    return metrics, {"report_s": report_s,
                     "rows_per_s": rows / sum(medians) if rows else 0.0,
                     "reference_s": statistics.median(ref_s),
                     "unit_s": unit_s,
                     "input_s": [[dt for dt, _ in s] for s in samples],
                     "ref_s": ref_s,
                     "verified_units": sum(len(s) for s in samples)}


def load_reference_digests(workload: str) -> dict:
    path = HERE / "reference_digests.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh).get(workload, {})


def per_layer(workload, pool, checks, spans_path):
    import tracing

    items = [pool[i % len(pool)] for i in range(workload.traced_units)]
    plain, plain_s = [], 0.0
    cpu0 = time.process_time()
    for item in items:
        t0 = time.perf_counter()
        plain.append(checks.run(workload, item))
        plain_s += time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    threads = envinfo.thread_count()

    tracer = tracing.Tracer()
    traced, traced_s = [], 0.0
    with tracing.Patcher(tracer) as patcher:
        tracing.install(patcher)
        for index, item in enumerate(items):
            tracer.unit = index
            t0 = time.perf_counter()
            traced.append(checks.run(workload, item))
            traced_s += time.perf_counter() - t0

    reference = load_reference_digests(workload.name)
    matched = with_ref = 0
    for a, b in zip(plain, traced):
        if a is None or b is None:
            continue
        checks.add(f"traced bytes identical to untraced: {b.key}", a.digest == b.digest)
        if b.bound_over_exact is not None:
            tracer.note("kobayashi.distance_upper.bound_over_exact", b.bound_over_exact)
        if b.key in reference:
            with_ref += 1
            matched += reference[b.key] == b.digest

    units = len(items)
    layers = tracing.layer_metrics(tracer, units)
    layers["experiments.report.digest_match"] = (matched / with_ref if with_ref else -1.0, "ratio")
    layers["process.cpu_s"] = (cpu_s / units, "s")
    layers["process.threads"] = (float(threads), "count")
    layers["tracing.overhead"] = (traced_s / plain_s - 1.0, "ratio")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    return metrics, {"untraced_s": plain_s, "traced_s": traced_s, "units": units,
                     "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
                     "reference_digests": with_ref}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="lemma22, pipeline, counterexample or ball_distance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run's record to this JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                   help="compare two --out files instead of running")
    args = p.parse_args(argv)
    if not args.compare and not args.workload:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if not (SRC / "squeezelab" / "__init__.py").is_file():
        print(f"error: squeezelab sources not found under {SRC}", file=sys.stderr)
        return 2

    load_before = envinfo.loadavg()
    sys.path.insert(0, str(SRC))
    import squeezelab
    import workloads

    if Path(squeezelab.__file__).resolve().parent.parent != SRC:
        print(f"error: imported squeezelab from {squeezelab.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup = [] if args.trace else setup_times(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]
    pool = workload.make_inputs(args.seed)
    checks = Checks()
    if args.trace:
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, detail = per_layer(workload, pool, checks, spans)
    else:
        metrics, detail = end_to_end(workload, pool, args.seconds, checks, setup)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
        "setup_samples_s": setup,
        **detail,
        "checks_attempted": checks.attempted,
        "checks_failed": checks.failed,
        "failed_ratio": len(checks.failed) / max(checks.attempted, 1),
        "run_s": time.perf_counter() - started,
        "env": envinfo.environment(ROOT, load_before),
    }
    result = {"correct": not checks.failed, "attempted": max(checks.attempted, 1),
              "failed": len(checks.failed), "metrics": metrics}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
