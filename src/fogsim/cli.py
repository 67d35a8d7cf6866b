"""Command line experiment runner.

Two subcommands:

``fogsim run <config> [--out DIR]``
    Execute one scenario per policy x reservation cell; write run.csv and
    run.json into the output directory.

``fogsim sweep <config> --axis NAME [--seeds N --out DIR --workers K
                                     --policy mc|baseline|both
                                     --reservation on|off|both]``
    Run an experiment grid and write sweep-<axis>.csv with per-seed rows
    and per-cell means. Finished cells are cached; re-running with the
    same output directory only computes what is missing.

The default output directory comes from ``FOGSIM_OUT`` (falling back to
``./fogsim-out``). ``fixtures/fd-table`` is accepted anywhere a config
path is expected and loads the embedded five-device example.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, expand_policy, expand_reservation, load_config
from .engine import SimTimeExceeded
from .experiments import AXES, run_scenario, sweep


def _default_out() -> str:
    return os.environ.get("FOGSIM_OUT", "fogsim-out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fogsim",
                                     description="Fog cluster simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("config", help="path to a JSON config, or fixtures/fd-table")
    p_run.add_argument("--out", default=None, help="output directory")

    p_sweep = sub.add_parser("sweep", help="run an experiment grid")
    p_sweep.add_argument("config", help="path to a JSON config, or fixtures/fd-table")
    p_sweep.add_argument("--axis", required=True, choices=AXES)
    p_sweep.add_argument("--seeds", type=int, default=20)
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--policy", choices=["mc", "baseline", "both"], default=None)
    p_sweep.add_argument("--reservation", choices=["on", "off", "both"], default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out or _default_out()
    try:
        cfg = load_config(args.config)
        if args.command == "run":
            csv_path, json_path = run_scenario(cfg, out_dir)
            print(f"wrote {csv_path} and {json_path}")
            return 0
        policies = expand_policy(args.policy) if args.policy else None
        reservations = expand_reservation(args.reservation) if args.reservation else None
        csv_path = sweep(cfg, args.axis, args.seeds, out_dir,
                         workers=args.workers, policies=policies,
                         reservations=reservations)
        print(f"wrote {csv_path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimTimeExceeded as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
