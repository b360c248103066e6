"""Command-line entry point for the experiment scenarios.

Each subcommand selects a scenario; ``--config`` points at a key=value
document and the remaining flags override individual keys, each parsed and
checked by the same code as that key in a document.  Run
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


# Flags that override one config key each, parsed like the key in a document.
_OVERRIDES = {
    "method": "run a single method, e.g. SP-ImEx4(R)",
    "dt": "fixed or initial step size (accepts p/q)",
    "m": "number of grid points",
    "T": "final time (accepts p/q)",
    "out": "output path for the aggregate table",
    "format": "output format, csv or json",
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
        for key, text in _OVERRIDES.items():
            p.add_argument(f"--{key}", help=text)
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
        for key in _OVERRIDES:
            text = getattr(args, key)
            if text is not None:
                attr, value = parse_value(key, text)
                cfg = replace(cfg, **{attr: value})
        if args.dt is not None:
            cfg = replace(cfg, dts=())  # a flag dt is the one step size
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
