"""Compare two sets of benchmark results written with ``run.py --out``.

For each workload and metric, prints each side's median and quartiles over
its runs and the ratio of the medians (second / first).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict:
    """workload -> metric -> (unit, [values]) from a file of result records."""
    out = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            workload = rec["info"]["workload"]
            for name, m in rec["result"]["metrics"].items():
                out[workload].setdefault(name, (m["unit"], []))[1].append(float(m["value"]))
    return out


def summary(values: list) -> tuple:
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def table(first: dict, second: dict) -> list:
    rows = []
    for workload in sorted(set(first) | set(second)):
        a, b = first.get(workload, {}), second.get(workload, {})
        for metric in sorted(set(a) | set(b)):
            unit = (a.get(metric) or b.get(metric))[0]
            sa = summary(a[metric][1]) if metric in a else None
            sb = summary(b[metric][1]) if metric in b else None
            ratio = sb[0] / sa[0] if sa and sb and sa[0] else None
            rows.append((workload, metric, unit, sa, len(a.get(metric, ("", []))[1]),
                         sb, len(b.get(metric, ("", []))[1]), ratio))
    return rows


def _fmt(s, n):
    if s is None:
        return "-"
    return f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}] n={n}"


def main(first_path: str, second_path: str) -> int:
    rows = table(load(first_path), load(second_path))
    print(f"first:  {first_path}\nsecond: {second_path}")
    print("median [q1, q3] over runs; ratio = second median / first median")
    for workload, metric, unit, sa, na, sb, nb, ratio in rows:
        r = "-" if ratio is None else f"{ratio:.4f}"
        print(f"{workload:15s} {metric:52s} {unit:6s} {_fmt(sa, na):40s} {_fmt(sb, nb):40s} {r}")
    return 0
