"""Command-line front end.

Subcommands: evolve, series, grid, verify, optimize. Exit codes are
stable across subcommands: 0 success, 1 usage error (including an
infinite or NaN number), 2 invariant or verification failure, 3 I/O
failure. Data files are CSV (default) or
JSON; ``--out -`` writes to standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .coherence import DensityMatrixError, closed_form_coherence, l1_coherence
from .evolution import (
    BellLabel,
    ConsistencyError,
    analytic_propagator,
    bell_state,
    density_matrix,
    evolve,
)
from .linalg import EigenConvergenceError
from .model import CircuitParams
from .scan import (
    CoherenceSeries,
    ScanGrid,
    TimeGrid,
    cross_validate,
    find_operating_point,
    grid_scan,
    time_series,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_IO = 3

_STATE_CHOICES = ("phi+", "psi+", "phi-", "psi-")


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_code_on_error(message))

    def exit_code_on_error(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _fmt(x: float) -> str:
    """Fixed 12-decimal format used for coherence/density columns."""
    return format(float(x), ".12f")


def _fmt_g(x: float) -> str:
    """Compact 12-significant-digit format used for times and reports."""
    return format(float(x), ".12g")


def _finite(text: str) -> float:
    """argparse type of every float flag: inf and nan are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--ej", type=_finite, default=0.5, help="Josephson energy (default 0.5)")
    p.add_argument("--em", type=_finite, default=1.5, help="mutual coupling energy (default 1.5)")
    p.add_argument("--hbar", type=_finite, default=1.0, help="hbar in model units (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="tqcoh", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tqcoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="propagate one Bell state and print rho and C")
    p.add_argument("--state", choices=_STATE_CHOICES, required=True)
    _add_param_flags(p)
    p.add_argument("--t", type=_finite, default=0.0, help="evolution time (default 0)")

    p = sub.add_parser("series", help="sample C(t) on a time grid into a data file")
    p.add_argument("--state", choices=_STATE_CHOICES, required=True)
    _add_param_flags(p)
    p.add_argument("--t-max", type=_finite, default=10.0)
    p.add_argument("--steps", type=int, default=1001)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("grid", help="scan C over (parameter, time) into a data file")
    p.add_argument("--state", choices=_STATE_CHOICES, required=True)
    _add_param_flags(p)
    p.add_argument("--t-max", type=_finite, default=10.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--vary", choices=("ej", "em"), required=True)
    p.add_argument("--min", type=_finite, required=True)
    p.add_argument("--max", type=_finite, required=True)
    p.add_argument("--vsteps", type=int, default=101)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run the closed-form vs numeric validation sweep")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("optimize", help="search a time window for an operating point")
    p.add_argument("--state", choices=_STATE_CHOICES, required=True)
    _add_param_flags(p)
    p.add_argument("--t-min", type=_finite, default=0.0)
    p.add_argument("--t-max", type=_finite, default=10.0)
    p.add_argument("--objective", choices=("maximize", "stabilize"), default="maximize")

    return parser


def _params_from(args, parser: _Parser) -> CircuitParams:
    try:
        return CircuitParams(e_j=args.ej, e_m=args.em, hbar=args.hbar)
    except ValueError as exc:
        parser.error(str(exc))


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="ascii", newline="\n"), True


def _meta(args, extra: dict | None = None) -> dict:
    meta = {
        "state": args.state,
        "params": {"e_j": args.ej, "e_m": args.em, "hbar": args.hbar},
        "version": __version__,
    }
    if extra:
        meta.update(extra)
    return meta


def _write_series(series: CoherenceSeries, args, stream):
    if args.format == "csv":
        stream.write("t,c_closed_form,c_numeric,abs_gap\n")
        for t, c, n in zip(series.times, series.closed_form, series.numeric):
            stream.write(f"{_fmt_g(t)},{_fmt(c)},{_fmt(n)},{_fmt(abs(c - n))}\n")
    else:
        doc = {
            "meta": _meta(
                args,
                {"grid": {"t_start": 0.0, "t_end": args.t_max, "steps": args.steps}},
            ),
            "data": {
                "t": series.times.tolist(),
                "c_closed_form": series.closed_form.tolist(),
                "c_numeric": series.numeric.tolist(),
                "abs_gap": np.abs(series.closed_form - series.numeric).tolist(),
            },
        }
        json.dump(doc, stream, indent=2)
        stream.write("\n")


def _write_grid(gridval: ScanGrid, args, stream):
    if args.format == "csv":
        stream.write(f"{gridval.axis1_name},{gridval.axis2_name},value\n")
        for i, a1 in enumerate(gridval.axis1):
            for j, a2 in enumerate(gridval.axis2):
                stream.write(f"{_fmt_g(a1)},{_fmt_g(a2)},{_fmt(gridval.values[i, j])}\n")
    else:
        n1, n2 = gridval.values.shape
        doc = {
            "meta": _meta(
                args,
                {
                    "vary": gridval.axis1_name,
                    "grid": {
                        "t_start": 0.0,
                        "t_end": args.t_max,
                        "steps": args.steps,
                        "vary_min": args.min,
                        "vary_max": args.max,
                        "vary_steps": args.vsteps,
                    },
                },
            ),
            "data": {
                gridval.axis1_name: np.repeat(gridval.axis1, n2).tolist(),
                gridval.axis2_name: np.tile(gridval.axis2, n1).tolist(),
                "value": gridval.values.ravel().tolist(),
            },
        }
        json.dump(doc, stream, indent=2)
        stream.write("\n")


def _cmd_evolve(args, parser: _Parser) -> int:
    params = _params_from(args, parser)
    label = BellLabel(args.state)
    u = analytic_propagator(params, args.t)
    state = evolve(bell_state(label), u)
    rho = density_matrix(state)
    c_numeric = l1_coherence(rho)
    c_closed = closed_form_coherence(label, params, args.t)

    print(
        f"state {label.value}  e_j={_fmt_g(params.e_j)} e_m={_fmt_g(params.e_m)} "
        f"hbar={_fmt_g(params.hbar)} t={_fmt_g(args.t)}"
    )
    print("amplitudes (|00>, |01>, |10>, |11>):")
    for basis, amp in zip(("00", "01", "10", "11"), state.amplitudes):
        print(f"  |{basis}>  re={_fmt(amp.real)}  im={_fmt(amp.imag)}")
    print("rho (real part):")
    for row in rho.matrix:
        print("  " + "  ".join(_fmt(v.real) for v in row))
    print("rho (imag part):")
    for row in rho.matrix:
        print("  " + "  ".join(_fmt(v.imag) for v in row))
    print(f"C(numeric) = {_fmt(c_numeric)}")
    print(f"C(closed)  = {_fmt(c_closed)}")
    print(f"gap = {_fmt_g(abs(c_numeric - c_closed))}")
    return EXIT_OK


def _cmd_series(args, parser: _Parser) -> int:
    params = _params_from(args, parser)
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    if not args.t_max > 0.0:
        parser.error("--t-max must be positive")
    series = time_series(
        BellLabel(args.state), params, TimeGrid(0.0, args.t_max, args.steps)
    )
    stream, owned = _open_out(args.out)
    try:
        _write_series(series, args, stream)
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def _cmd_grid(args, parser: _Parser) -> int:
    params = _params_from(args, parser)
    if args.steps < 2 or args.vsteps < 2:
        parser.error("--steps and --vsteps must be at least 2")
    if not args.t_max > 0.0:
        parser.error("--t-max must be positive")
    if not args.max > args.min:
        parser.error("--max must exceed --min")
    vary = {"ej": "e_j", "em": "e_m"}[args.vary]
    gridval = grid_scan(
        BellLabel(args.state),
        params,
        vary,
        (args.min, args.max, args.vsteps),
        TimeGrid(0.0, args.t_max, args.steps),
    )
    stream, owned = _open_out(args.out)
    try:
        _write_grid(gridval, args, stream)
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def _cmd_verify(args, parser: _Parser) -> int:
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    report = cross_validate(args.samples, args.seed)
    if args.format == "json":
        doc = report.as_dict()
        doc["version"] = __version__
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        print(f"cross-validation: {report.draws} draws, seed {report.seed}")
        for check in report.checks:
            p = check.worst_params
            print(
                f"  {check.name:<10s} max deviation {_fmt_g(check.max_deviation)}"
                f"  (draw {check.worst_draw}: e_j={_fmt_g(p.e_j)},"
                f" e_m={_fmt_g(p.e_m)}, hbar={_fmt_g(p.hbar)},"
                f" t={_fmt_g(check.worst_time)})"
            )
        verdict = "PASS" if report.passed else f"FAIL (worst: {report.worst_check})"
        print(f"result: {verdict} (threshold {_fmt_g(report.threshold)})")
    return EXIT_OK if report.passed else EXIT_INVARIANT


def _cmd_optimize(args, parser: _Parser) -> int:
    params = _params_from(args, parser)
    if not args.t_max > args.t_min:
        parser.error("--t-max must exceed --t-min")
    point = find_operating_point(
        BellLabel(args.state), params, (args.t_min, args.t_max), args.objective
    )
    print(f"objective: {point.objective}")
    print(f"state: {args.state}")
    print(
        f"params: e_j={_fmt_g(point.params.e_j)} e_m={_fmt_g(point.params.e_m)} "
        f"hbar={_fmt_g(point.params.hbar)}"
    )
    print(f"t = {_fmt_g(point.t)}")
    print(f"coherence = {_fmt(point.coherence)}")
    if point.mechanism is not None:
        print(f"mechanism: {point.mechanism}")
    return EXIT_OK


_DISPATCH = {
    "evolve": _cmd_evolve,
    "series": _cmd_series,
    "grid": _cmd_grid,
    "verify": _cmd_verify,
    "optimize": _cmd_optimize,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit for --help/--version (code 0) and for
        # usage errors (code from _Parser.error).
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        print(f"tqcoh: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DensityMatrixError, ConsistencyError, EigenConvergenceError, ValueError) as exc:
        print(f"tqcoh: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def entry():
    """Console-script entry point."""
    raise SystemExit(main())
