"""Command-line surface.

Subcommands::

    simulate      run one experiment and write a trajectory CSV
    reproduce     run the fig2/fig3 presets with oracle columns and a report
    verify        run the full verification battery
    channel-info  print a channel's Kraus operators at one time

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numeric/runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cxmat, experiment, exprparse, verification
from .channel import CPTP_TOL, CptpError, completeness_deviation, kraus_at
from .experiment import ConfigError
from .firstlaw import UnsupportedDimensionError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfirstlaw",
        description=(
            "Decompose the energy change of a finite-dimensional system under "
            "non-dissipative Kraus channels into work, heat, and coherence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one experiment and write a trajectory CSV")
    _add_experiment_flags(sim)
    sim.add_argument("--config", help="JSON config file; flags override file values")
    sim.add_argument("--out", required=True, help="output CSV path")

    rep = sub.add_parser("reproduce", help="reproduce a published figure as CSV + report")
    rep.add_argument("figure", choices=sorted(experiment.FIGURE_PRESETS))
    rep.add_argument("--out-dir", required=True, help="directory for CSV and report")

    ver = sub.add_parser("verify", help="run the verification battery")
    ver.add_argument(
        "--tol", type=float, default=verification.DEFAULT_ORACLE_TOL,
        help="closed-form agreement tolerance (default %(default)g)",
    )

    info = sub.add_parser("channel-info", help="print Kraus operators at one time")
    info.add_argument("--channel", required=True, help="channel name or custom:<file>")
    info.add_argument("--t", type=float, required=True, help="time at which to instantiate")
    return parser


def _add_experiment_flags(sim: argparse.ArgumentParser) -> None:
    # defaults live in ExperimentConfig; None here means "not given on the
    # command line" so config-file values are not clobbered
    sim.add_argument("--channel", help="phase-damping | phase-flip | bit-flip | "
                                       "bit-phase-flip | custom:<file>")
    sim.add_argument("--theta", help="preparation angle in radians; pi and pi/<n> accepted")
    sim.add_argument("--phi", type=float, help="azimuthal phase in radians (default 0)")
    sim.add_argument("--eg", type=float, dest="e_g", help="ground energy (default 0)")
    sim.add_argument("--ee", type=float, dest="e_e", help="excited energy (default 1)")
    sim.add_argument("--tau-max", type=float, dest="tau_max",
                     help="dimensionless end time (default 8)")
    sim.add_argument("--steps", type=int, help="grid steps (default 4000, minimum 10)")
    sim.add_argument("--emit-oracle", dest="emit_oracle", action="store_const", const=True,
                     help="append closed-form heat/coherence columns")


def cmd_simulate(args) -> int:
    file_values = None
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must contain a JSON object")
    flag_values = {key: value for key, value in vars(args).items()
                   if key in experiment._CONFIG_KEYS}
    config = experiment.config_from_sources(file_values, flag_values)
    result = experiment.run_experiment(config)
    experiment.write_trajectory_csv(args.out, result)
    print(experiment.summary_line(result.ledger))
    print(f"wrote {args.out}")
    return 0


def cmd_reproduce(args) -> int:
    outcome = experiment.reproduce_figure(args.figure, args.out_dir)
    print(outcome.report_path.read_text(), end="")
    print(f"wrote {outcome.csv_path} and {outcome.report_path}")
    return 0 if outcome.passed else 1


def cmd_verify(args) -> int:
    results = verification.run_all_checks(oracle_tol=args.tol)
    for result in results:
        print(result.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _format_complex(z: complex) -> str:
    return f"{z.real:+.10g}{z.imag:+.10g}j"


def cmd_channel_info(args) -> int:
    spec = experiment.parse_channel(args.channel)
    if args.t < 0:
        raise ConfigError(f"time must be non-negative, got {args.t}")
    ks = kraus_at(spec, args.t)
    print(f"channel {args.channel} at t={args.t:g}: {len(ks.operators)} Kraus operators")
    for index, op in enumerate(ks.operators):
        print(f"K{index + 1} =")
        for row in op:
            print("  [ " + ", ".join(_format_complex(z) for z in row) + " ]")
    deviation = completeness_deviation(ks)
    status = "PASS" if deviation <= CPTP_TOL else "FAIL"
    print(f"completeness deviation max|sum K†K - I| = {deviation:.3e}  {status}")
    return 0


_DISPATCH = {
    "simulate": cmd_simulate,
    "reproduce": cmd_reproduce,
    "verify": cmd_verify,
    "channel-info": cmd_channel_info,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (exprparse.DomainError, CptpError, cxmat.NumericError,
            cxmat.ConvergenceError, cxmat.NonHermitianError,
            UnsupportedDimensionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (exprparse.LexError, exprparse.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
