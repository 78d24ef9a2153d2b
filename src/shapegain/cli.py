"""Command-line front end.

Subcommands: train, eval, adapt, sweep, export-lut, qam. Exit codes:
0 success, 1 usage or parameter error, 2 numerical failure, 3 I/O error.
All conversions between dB and linear happen here; library code is linear
throughout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from .channel import linear_to_db, noise_variance_from_db, optimal_launch_power
from .constellation import (
    constellation_to_dict,
    load_constellation,
    moments,
    save_constellation,
    uniform_qam,
)
from .demapper import MAX_SAMPLES, GmiReport, per_bit_gmi_mc
from .errors import NumericalError, ParameterError, ShapegainError, build_section, load_json
from .lut import export_lut
from .rate_adapt import best_plan, load_plan, save_plan, select_dummy_bits
from .sweep import load_run_config, rows_to_csv, run_sweep
from .training import train, train_config_from_dict

UNIT_POWER_TOL = 1e-9  # eval states the SNR of unit power, that of every file shapegain writes


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise _UsageError(message, self)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="shapegain",
                     description="Shaped-constellation training, GMI "
                                 "evaluation, rate adaptation, reach sweeps.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("train", help="train a constellation from a config file")
    p.add_argument("--config", required=True, help="run-configuration JSON")
    p.add_argument("--out", required=True, help="output constellation JSON")
    p.add_argument("--history", help="optional training history CSV")

    p = sub.add_parser("eval", help="Monte-Carlo per-bit GMI of a constellation")
    p.add_argument("--constellation", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--snr-db", type=float, help="effective SNR in dB")
    src.add_argument("--link-from", help="run config whose link sets the SNR at optimal power")
    p.add_argument("--n-spans", type=int, help="span count, required with --link-from")
    p.add_argument("--samples", type=int, default=200000,
                   help=f"Monte-Carlo sample count, at most {MAX_SAMPLES}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.add_argument("--out", help="also write the report JSON to this path")

    p = sub.add_parser("adapt", help="derive a dummy-bit plan from a GMI report")
    p.add_argument("--constellation", required=True)
    p.add_argument("--report", required=True, help="GMI report JSON (from eval --out)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--nd", type=int, help="force this many dummy bits")
    mode.add_argument("--best", action="store_true",
                      help="pick the feasible plan with maximal net rate")
    p.add_argument("--fec-rate", type=float, default=0.75)
    p.add_argument("--out", help="write the plan JSON here instead of stdout")

    p = sub.add_parser("sweep", help="net rate vs distance over a span grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="results CSV (default: output.results_csv "
                                 "from the config)")
    p.add_argument("--keep-going", action="store_true",
                   help="skip failing grid points instead of aborting")

    p = sub.add_parser("export-lut", help="write the transmitter look-up table")
    p.add_argument("--constellation", required=True)
    p.add_argument("--plan", required=True, help="rate-adaptation plan JSON")
    p.add_argument("--out", required=True)

    p = sub.add_parser("qam", help="emit a Gray-labeled uniform QAM constellation")
    p.add_argument("--m", type=int, required=True, help="bits per symbol")
    p.add_argument("--out", help="output JSON (default: stdout)")

    return parser


def _train_section(train, link=None, sweep=None, eval=None, output=None):
    """The train section alone, its target required: train reads no other,
    and a key that names no section of a run config is unknown."""
    return train_config_from_dict(train)


def _cmd_train(args) -> int:
    config = build_section("run config", _train_section, load_json(args.config))
    constellation, history = train(config)
    save_constellation(constellation, args.out)
    if args.history:
        with open(args.history, "w") as fh:
            fh.write(history.to_csv())
    print(f"wrote {args.out} ({config.iterations} iterations, "
          f"final loss {history.loss[-1]:.4f})" if config.iterations
          else f"wrote {args.out} (initialization only)")
    return 0


def _resolve_eval_noise(args, c) -> float:
    if args.snr_db is not None:
        return noise_variance_from_db(args.snr_db, "--snr-db")
    link = replace(load_run_config(args.link_from).link, n_spans=args.n_spans)
    return optimal_launch_power(link, moments(c))[1].noise_variance


def _cmd_eval(args) -> int:
    if args.seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {args.seed}")
    if args.link_from is None and args.n_spans is not None:
        raise ParameterError("--n-spans needs --link-from")
    if args.link_from is not None and args.n_spans is None:
        raise ParameterError("--link-from needs --n-spans")
    c = load_constellation(args.constellation)
    if abs(c.average_power() - 1.0) > UNIT_POWER_TOL:
        raise ParameterError(f"{args.constellation}: average power {c.average_power()!r} is not 1")
    noise_variance = _resolve_eval_noise(args, c)
    rng = np.random.default_rng(args.seed)
    report = per_bit_gmi_mc(c, noise_variance, args.samples, rng)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
    if args.json:
        print(report.to_json())
    else:
        print(f"snr_db: {linear_to_db(1.0 / noise_variance):.4f}")
        print("per_bit: " + " ".join(f"{v:.4f}" for v in report.per_bit))
        print(f"total: {report.total:.4f}")
        print(f"total_dualpol: {report.total_dualpol:.4f}")
        print(f"stderr_total: {report.stderr_total:.6f}")
        print(f"n_samples: {report.n_samples}")
    return 0


def _cmd_adapt(args) -> int:
    c = load_constellation(args.constellation)
    report = GmiReport.from_dict(load_json(args.report))
    if report.m != c.m:
        raise ParameterError(
            f"report is for m = {report.m}, constellation has m = {c.m}")
    if args.nd is not None:
        plan = select_dummy_bits(report, args.nd, args.fec_rate)
    else:
        plan = best_plan(report, args.fec_rate)
    if args.out:
        save_plan(plan, args.out)
        print(f"wrote {args.out} (n_d={plan.n_d}, net_rate={plan.net_rate:.4f})")
    else:
        print(plan.to_json())
    return 0


def _cmd_sweep(args) -> int:
    config = load_run_config(args.config)
    out_path = args.out or config.output.results_csv
    if not out_path:
        raise ParameterError("no output path: pass --out or set output.results_csv")

    def _report_error(scheme, n_spans, exc):
        print(f"shapegain: skipped {exc}", file=sys.stderr)

    rows = run_sweep(config, error_sink=_report_error if args.keep_going else None)
    with open(out_path, "w") as fh:
        fh.write(rows_to_csv(rows))
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def _cmd_export_lut(args) -> int:
    c = load_constellation(args.constellation)
    plan = load_plan(args.plan)
    export_lut(c, plan, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_qam(args) -> int:
    c = uniform_qam(args.m)
    if args.out:
        save_constellation(c, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(constellation_to_dict(c), indent=2))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "adapt": _cmd_adapt,
    "sweep": _cmd_sweep,
    "export-lut": _cmd_export_lut,
    "qam": _cmd_qam,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a subcommand is required")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"shapegain: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"shapegain: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ShapegainError as exc:  # a ParameterError, or a sweep cell's error wrapped
        print(f"shapegain: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"shapegain: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
