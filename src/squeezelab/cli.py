"""Command-line entry point for the experiment suite."""

from __future__ import annotations

import argparse
import sys

from .domains import preset
from .errors import ConfigError, DomainError, SolverError
from .experiments import RUNNERS, ExperimentConfig, emit
from .squeezing import squeeze_lower_planar


def _add_common(sub):
    sub.add_argument("--preset", default="all", help="domain preset (default: all)")
    sub.add_argument("--scales", type=int, default=20, help="number of dyadic scales")
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument("--out", default="", help="write the report to this path")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezelab",
        description="Numerical checks of distance bounds and squeezing estimates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        command = name.replace("_", "-")
        sub = subs.add_parser(command, help=f"run the {command} experiment")
        _add_common(sub)

    sq = subs.add_parser("squeeze", help="squeezing lower bound at one point")
    sq.add_argument("--preset", default="omega_prime")
    sq.add_argument("--at", type=complex, required=True, help="evaluation point, e.g. 0.05 or 0.1+0.2j")
    return parser


def _run(args) -> int:
    if args.command == "squeeze":
        bound = squeeze_lower_planar(preset(args.preset), args.at)
        print(f"squeeze_lower({args.preset}, {args.at}) = {bound.lower!r}")
        print(f"one_minus_lower = {bound.one_minus_lower!r}  witness = {bound.witness}")
        return 0

    config = ExperimentConfig(
        experiment=args.command.replace("-", "_"),
        domain_preset=args.preset,
        scales=args.scales,
        seed=args.seed,
    )
    report = RUNNERS[config.experiment](config)
    text = emit(report, args.format, args.out or None)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text)
    for v in report.verdicts:
        status = "PASS" if v["passed"] else "FAIL"
        print(f"[{status}] {v['name']} (margin {v['margin']:.3e})", file=sys.stderr)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, DomainError, SolverError) as exc:
        print(f"squeezelab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
