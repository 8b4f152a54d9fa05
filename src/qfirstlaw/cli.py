"""Command-line surface.

Subcommands::

    simulate      run one experiment and write a trajectory CSV
    reproduce     run the fig2/fig3 presets with oracle columns and a report
    verify        run the full verification battery
    channel-info  print a channel's Kraus operators at one time

Exit codes: 0 success, 1 verification failure, 2 usage/config error or an
output that cannot be written, 3 numeric/runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import sys

from . import cxmat, experiment
from .channel import CPTP_TOL, completeness_deviation, kraus_at


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
    # defaults live in ExperimentConfig; None here means "not given on the
    # command line" so config-file values are not clobbered
    sim.add_argument("--channel", help=" | ".join([*experiment.CHANNEL_NAMES, "custom:<file>"]))
    sim.add_argument("--theta", help="preparation angle in radians; pi and pi/<n> accepted")
    sim.add_argument("--phi", type=float, help="azimuthal phase in radians (default 0)")
    sim.add_argument("--eg", type=float, dest="e_g", help="ground energy (default 0)")
    sim.add_argument("--ee", type=float, dest="e_e", help="excited energy (default 1)")
    sim.add_argument("--tau-max", type=float, dest="tau_max",
                     help="dimensionless end time (default 8)")
    sim.add_argument("--steps", type=int, help="grid steps (default 4000, minimum 10)")
    sim.add_argument("--emit-oracle", dest="emit_oracle", action="store_const", const=True,
                     help="append closed-form heat/coherence columns")
    sim.add_argument("--config", help="JSON config file; flags override file values")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(run=cmd_simulate)

    rep = sub.add_parser("reproduce", help="reproduce a published figure as CSV + report")
    rep.add_argument("figure", choices=sorted(experiment.FIGURE_PRESETS))
    rep.add_argument("--out-dir", required=True, help="directory for CSV and report")
    rep.set_defaults(run=cmd_reproduce)

    sub.add_parser("verify", help="run the verification battery").set_defaults(run=cmd_verify)

    info = sub.add_parser("channel-info", help="print Kraus operators at one time")
    info.add_argument("--channel", required=True, help="channel name or custom:<file>")
    info.add_argument("--t", type=float, required=True, help="time tau at which to instantiate")
    info.set_defaults(run=cmd_channel_info)
    return parser


def cmd_simulate(args) -> int:
    file_values = experiment.read_json(args.config, "config file") if args.config else {}
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
    # imported here: no other command needs the battery or its hashlib
    from . import verification

    results = verification.run_all_checks()
    for result in results:
        print(result.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _format_complex(z: complex) -> str:
    return f"{z.real:+.10g}{z.imag:+.10g}j"


def cmd_channel_info(args) -> int:
    spec = experiment.parse_channel(args.channel)
    t = args.t + 0.0  # -0.0 + 0.0 is 0.0: no "t=-0" header and no negative zeros in K2
    ks = kraus_at(spec, t)
    print(f"channel {args.channel} at t={t:g}: {len(ks.operators)} Kraus operators")
    for index, op in enumerate(ks.operators):
        print(f"K{index + 1} =")
        for row in op:
            print("  [ " + ", ".join(_format_complex(z) for z in row) + " ]")
    deviation = completeness_deviation(ks)
    status = "PASS" if deviation <= CPTP_TOL else "FAIL"
    print(f"completeness deviation max|sum K†K - I| = {deviation:.3e}  {status}")
    return 0


#: glibc's ``mallopt`` parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

#: Both thresholds, in bytes: far above any grid temporary of a run.
_MALLOC_THRESHOLD = 64 << 20


def _keep_freed_memory() -> None:
    """Keep freed heap in the process, and serve large blocks from it.

    A run allocates and frees whole-grid temporaries over and over.  By
    default glibc maps each large block fresh and returns the freed top of
    the heap to the kernel, so every reuse faults its pages back in.  Both
    thresholds at _MALLOC_THRESHOLD stop that.  Only the command line sets
    them, for its own short-lived process: a library call never changes its
    host's allocator.  Without glibc's ``mallopt`` this does nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLD)
        mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLD)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _keep_freed_memory()
    try:
        return args.run(args)
    except OSError as exc:  # read_json reports unreadable inputs, so this is an output
        # a failed write() (a full disk) names no file
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except cxmat.NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
