"""Command-line harness: every experiment as a subcommand.

    gdiffusion <subcommand> [--config run.json] [--seed N] [--out-dir DIR]
                            [--set section.key=value ...]

Subcommands: simulate, check, generator, solve-pde, verify-comparison,
counterexample-remark, verify-monotone, verify-order, feynman-crosscheck.
Each prints a JSON report to stdout and exits with 0 (ok), 1 (check
violated, `check` only), 2 (config error), 3 (hypothesis violated),
4 (assertion failed), or 5 (numerical error).  The default seed comes from
the GDIFFUSION_SEED environment variable; --seed overrides it.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError, read
from .experiments import EXPERIMENTS, EXIT_CONFIG, dispatch, report_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdiffusion",
        description="Simulation and numerical verification of diffusions "
                    "under volatility uncertainty",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config document for the run")
        p.add_argument("--seed", type=int, default=None,
                       help="override the run seed (also settable via GDIFFUSION_SEED)")
        p.add_argument("--out-dir", default=None, help="override output.dir")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a dotted config key")
        if name == "check":
            p.add_argument("--condition", default=None,
                           help="condition id (B1, B2, C1, C2, C2', D1, D2, D2', "
                                "D3, D4, D4', D5)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides, args.seed)
        if args.out_dir is not None:
            cfg["output"] = {**read(cfg, "output", "object", {}), "dir": args.out_dir}
        if getattr(args, "condition", None):
            cfg["condition"] = args.condition
        cfg["experiment"] = args.experiment
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report, code = dispatch(args.experiment, cfg)
    sys.stdout.write(report_json(report))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
