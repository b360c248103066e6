"""Command-line entry point for the experiment scenarios.

Each subcommand selects a scenario; ``--config`` points at a key=value
document and the remaining flags override individual keys.  Run
``nlslab <scenario> --help`` for the override list, and see the README for
the config schema.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .core import ConfigurationError
from .harness import (
    ExperimentConfig,
    parse_config,
    parse_method,
    parse_value,
    run_scenario,
    write_scenario,
)

_SUBCOMMANDS = {
    "convergence": "convergence",
    "invariants": "invariant_table",
    "error-growth": "error_growth",
    "work-precision": "work_precision",
    "semiclassical": "semiclassical",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlslab",
        description="Experiment runners for the conservative NLS solver library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, scenario in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=f"run the {scenario} scenario")
        p.set_defaults(scenario=scenario)
        p.add_argument("--config", type=Path, help="key=value config document")
        p.add_argument("--method", help="run a single method, e.g. SP-ImEx4(R)")
        p.add_argument("--dt", type=str, help="fixed or initial step size (accepts p/q)")
        p.add_argument("--m", type=int, help="number of grid points")
        p.add_argument("--T", type=str, help="final time (accepts p/q)")
        p.add_argument("--out", type=Path, help="output path for the aggregate table")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                text = args.config.read_text()
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot read config {args.config}: {exc.strerror or exc}"
                ) from exc
            cfg = parse_config(text)
            if cfg.scenario != args.scenario:
                raise ConfigurationError(
                    f"{args.config} sets scenario {cfg.scenario!r}, but "
                    f"'{args.command}' runs the {args.scenario!r} scenario"
                )
        else:
            cfg = ExperimentConfig(scenario=args.scenario)
        if args.method is not None:
            cfg = replace(cfg, methods=(parse_method(args.method),))
        if args.dt is not None:
            cfg = replace(cfg, dt=parse_value("dt", args.dt)[1], dts=())
        if args.m is not None:
            cfg = replace(cfg, m=args.m)
        if args.T is not None:
            cfg = replace(cfg, T=parse_value("T", args.T)[1])
        if args.out:
            cfg = replace(cfg, out=str(args.out))
        if args.format:
            cfg = replace(cfg, fmt=args.format)
        result = run_scenario(cfg)
        written = write_scenario(cfg, result)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
