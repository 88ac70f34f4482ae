"""Command-line front end.

Data goes to stdout (or --out, written atomically); diagnostics go to
stderr.  Exit codes: 0 all requested checks passed, 1 a verification check
failed, 2 usage or input error.  Identical invocations produce
byte-identical payloads; when --out is used, run metadata (timestamp, argv)
lands in a separate <out>.meta.json sidecar so the payload stays clean.
Every JSON payload echoes the period engine's tolerance as config.rel_tol;
no flag changes it.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time

from .analysis import (find_critical_periods, find_two_pi_levels,
                       opial_sign_changes, scan_period, two_pi_brackets)
from .bessel import IDENTITY_TOL, identity_gap, j1, j1_zeros
from .errors import PeriodkitError, SignViolation
from .model import PotentialSystem
from .oracle import _periods, _trace
from .quadrature import _unconverged, period_at_amplitude, period_at_energy
from .report import (BRACKET_FIELDS, CONFIG, CRITICAL_FIELDS, SAMPLE_FIELDS, SCAN_FIELDS,
                     _write_atomic, csv_table, field_records, report_to_json,
                     run_verify, sample_dicts, to_json)

USAGE_ERROR = 2
CHECK_FAILURE = 1


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every token starting with a minus sign and
    a digit, or a minus sign, a point and a digit, as a value: argparse alone
    reads -1e-8 and -1E-8 as an unknown option.  No option of periodkit
    starts that way; subcommand parsers are made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default json; bessel j1/identity and verify: json only)")
    output.add_argument("--out", default=None, help="write payload to this path")
    coupled = argparse.ArgumentParser(add_help=False, parents=[output])
    coupled.add_argument("--lambda", dest="lam", type=float, required=True)

    parser = _Parser(
        prog="periodkit",
        description="Period function of the planar center x'' + x + lam*sin(x) = 0")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("period", parents=[coupled], help="one period at --xi or --h")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--xi", type=float)
    group.add_argument("--h", type=float)

    p = sub.add_parser("scan", parents=[coupled],
                       help="uniform amplitude scan of the period function")
    p.add_argument("--xi-min", type=float, required=True)
    p.add_argument("--xi-max", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("critical", parents=[coupled],
                       help="locate and classify the extrema of T")
    p.add_argument("--xi-max", type=float, required=True)

    p = sub.add_parser("two-pi", parents=[coupled],
                       help="bracket pairs and the 2*pi-period energy levels")
    p.add_argument("--k-max", type=int, required=True)

    p = sub.add_parser("opial", parents=[coupled],
                       help="zeros of the even-potential monotonicity indicator")
    p.add_argument("--x-max", type=float, required=True)

    p = sub.add_parser("bessel", parents=[output], help="J1 toolbox")
    p.add_argument("op", choices=("j1", "zeros", "identity"))
    p.add_argument("--xi", type=float, help="argument for j1")
    p.add_argument("--n", type=int, help="zero count / identity grid size")
    p.add_argument("--xi-max", type=float, default=14.0,
                   help="identity sweep upper end, at most 14 (default 14)")

    p = sub.add_parser("verify", parents=[coupled],
                       help="run the full verification pipeline (JSON report)")
    p.add_argument("--k-max", type=int, required=True)

    p = sub.add_parser("oracle", parents=[coupled], help="period by direct ODE integration")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--full-return", action="store_true",
                   help="measure a full loop instead of four times the quarter period")
    p.add_argument("--dump-trace", default=None, metavar="PATH",
                   help="write the accepted steps of one period, non-uniform in t, "
                        "as CSV columns t,x,y,H")
    return parser


def _emit(args, text: str, **extra) -> None:
    if args.out:
        _write_atomic(args.out, text)
        meta = {"written": args.out, "timestamp": time.time(), "argv": sys.argv[1:], **extra}
        _write_atomic(args.out + ".meta.json", to_json(meta))
    else:
        sys.stdout.write(text)


def _numbered(name: str, values) -> tuple:
    """CSV table of values numbered from 1: header k, name, and its records."""
    return ("k", name), [{"k": k, name: v} for k, v in enumerate(values, 1)]


def _run(args) -> int:
    csv = args.format == "csv"
    name = f"bessel {args.op}" if args.command == "bessel" else args.command
    if csv and name in ("bessel j1", "bessel identity", "verify"):
        raise ValueError(f"{name} writes JSON only; --format csv is not supported")

    if name == "verify":
        report = run_verify(args.lam, args.k_max)
        _emit(args, report_to_json(report))
        for name, check in report.checks.items():
            status = "pass" if check.passed else "FAIL"
            print(f"[{status}] {name}: margin={check.margin:.3e} {check.detail}",
                  file=sys.stderr)
        return 0 if report.passed else CHECK_FAILURE

    # the rest set a JSON payload (config added on writing) and a CSV table,
    # header and records (None: JSON only), or samples, which give both
    sys_ = None if args.command == "bessel" else PotentialSystem(args.lam)
    code, table, samples, meta = 0, None, None, {}
    if name == "bessel j1":
        if args.xi is None:
            raise ValueError("bessel j1 needs --xi")
        e = j1(args.xi)
        payload = {"xi": e.xi, "value": e.value, "method": e.method, "err_bound": e.err_bound}
    elif name == "bessel zeros":
        if args.n is None:
            raise ValueError("bessel zeros needs --n")
        zeros = j1_zeros(args.n)
        payload, table = {"zeros": zeros}, _numbered("zero", zeros)
    elif name == "bessel identity":
        n = 200 if args.n is None else args.n
        worst = identity_gap(args.xi_max, n)
        passed = worst <= IDENTITY_TOL
        payload = {"xi_max": args.xi_max, "grid": n, "max_identity_gap": worst, "passed": passed}
        code = 0 if passed else CHECK_FAILURE
    elif name == "period":
        samples = [period_at_amplitude(sys_, args.xi) if args.xi is not None
                   else period_at_energy(sys_, args.h)]
    elif name == "scan":
        samples = scan_period(sys_, args.xi_min, args.xi_max, args.n)
        unconverged = [s for s in samples if not s.converged]  # kept, with their best estimates
        meta["unconverged_xi"] = [s.xi for s in unconverged]
        if unconverged:
            print(f"warning: {len(unconverged)} of {len(samples)} samples did not converge; the "
                  f"first: {_unconverged(unconverged[0].xi, args.lam)}", file=sys.stderr)
    elif name == "critical":
        crit = field_records(find_critical_periods(sys_, args.xi_max), CRITICAL_FIELDS)
        payload, table = {"lambda": args.lam, "critical_periods": crit}, (CRITICAL_FIELDS, crit)
    elif name == "two-pi":
        measured = two_pi_brackets(sys_, args.k_max)
        levels = [] if args.lam == 0.0 else find_two_pi_levels(sys_, measured)
        brackets = field_records(measured, BRACKET_FIELDS)
        payload = {"lambda": args.lam, "brackets": brackets, "two_pi_levels": levels}
        table = BRACKET_FIELDS[:-1], brackets  # every bracket field but the degenerate flag
    elif name == "opial":
        zeros = opial_sign_changes(sys_, args.x_max)
        payload = {"lambda": args.lam, "x_max": args.x_max, "indicator_zeros": zeros}
        table = _numbered("x_zero", zeros)
    elif name == "oracle":
        # one run gives the payload's period and, from its first fall, the
        # trace's end time, so the quarter period is not integrated twice
        sample, period = _periods(sys_, args.xi, args.tol, 2 if args.full_return else 1)
        if args.dump_trace:
            trace = _trace(sys_, args.xi, args.tol, period)
            rows = [{"t": t, "x": x, "y": y, "H": 0.5 * y * y + float(sys_.G(x))}
                    for t, x, y in trace.samples]
            _write_atomic(args.dump_trace, csv_table(("t", "x", "y", "H"), rows))
            print(f"trace written to {args.dump_trace} "
                  f"(max energy drift {trace.max_drift:.3e})", file=sys.stderr)
        samples = [sample]
    else:
        raise AssertionError(f"unhandled command {args.command}")
    if samples is not None:
        # only a scan keeps unconverged samples, so only its rows say which
        fields = SCAN_FIELDS if name == "scan" else SAMPLE_FIELDS
        dicts = sample_dicts(samples, fields)
        payload, table = {"samples": dicts}, (fields, dicts)
    _emit(args, csv_table(*table) if csv else to_json({**payload, "config": CONFIG}), **meta)
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built on its first call: parse_args keeps no state
    between calls, so one parser serves every call of the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except (PeriodkitError, ValueError, OSError, MemoryError) as exc:  # an input too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE if isinstance(exc, SignViolation) else USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
