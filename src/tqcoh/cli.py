"""Command-line front end.

Subcommands: evolve, series, grid, verify, optimize. Exit codes are
stable across subcommands: 0 success, 1 usage error (a bad flag, an
infinite or NaN number, or an input the library rejects with
``InputError``), 2 invariant or verification failure, 3 I/O failure.
Data files are CSV (default) or JSON; ``--out -`` writes to standard
output.

Give a negative number in scientific notation with ``=``, as in
``--ej=-1e5``: argparse reads ``--ej -1e5`` as a flag without a value
(a usage error), because it takes only plain negative numbers such as
``-2`` or ``-0.5`` for values.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .coherence import closed_form_coherence, l1_coherence
from .evolution import (
    BellLabel, analytic_propagator, bell_state, density_matrix, evolve, numeric_propagator
)
from .linalg import EigenConvergenceError
from .model import CircuitParams, InputError
from .scan import (
    _BLOCK_ROWS,
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

# 1e-5 .. 1e11. Each literal is the double nearest 10**k, which for these
# k is never below 10**k. So no double lies between 10**k and its entry,
# and a search in this table finds every value's exact decade.
_DECADES = np.array([float(f"1e{k}") for k in range(-5, 12)])
# 10**0 .. 10**16, each exact.
_SCALES = np.array([float(10**k) for k in range(17)])
# The longest finite %.12g: "-1.23456789012e-308".
_G12_WIDTH = 19


@functools.cache
def _four_digit_tables():
    """"0000" .. "9999" as native uint32, and the same with trailing zeros as null bytes.

    "1200" becomes "12\\0\\0" and "0000" four null bytes. Built on first use,
    so that commands without a CSV column pay for it neither in start-up
    time nor in memory, and read-only, because every call shares them.
    """
    d = np.arange(10**4)
    digits = np.stack([d // 10**k % 10 for k in (3, 2, 1, 0)], axis=1).astype(np.uint8)
    digits += np.uint8(ord("0"))
    stripped = digits.copy()
    for k in range(4):
        # Digit k and every digit after it are zeros.
        stripped[d % 10 ** (4 - k) == 0, k] = 0
    tables = digits.view(np.uint32).ravel(), stripped.view(np.uint32).ravel()
    for table in tables:
        table.setflags(write=False)
    return tables


def _four_digit_groups(n: np.ndarray):
    """Each n below 10**12 as three four-digit groups: high, middle and low."""
    high = n // 10**8
    low = n - high * 10**8
    middle = low // 10**4
    low -= middle * 10**4
    return high, middle, low


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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
    p.add_argument("--state", choices=tuple(label.value for label in BellLabel), required=True)
    p.add_argument("--ej", type=_finite, default=0.5, help="Josephson energy (default 0.5)")
    p.add_argument("--em", type=_finite, default=1.5, help="mutual coupling energy (default 1.5)")
    p.add_argument("--hbar", type=_finite, default=1.0, help="hbar in model units (default 1)")


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> _Parser:
    parser = _Parser(prog="tqcoh", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tqcoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="propagate one Bell state and print rho and C")
    _add_param_flags(p)
    p.add_argument("--t", type=_finite, default=0.0, help="evolution time (default 0)")
    p.set_defaults(run=_cmd_evolve)

    p = sub.add_parser("series", help="sample C(t) on a time grid into a data file")
    _add_param_flags(p)
    p.add_argument("--t-max", type=_finite, default=10.0)
    p.add_argument("--steps", type=int, default=1001)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_series)

    p = sub.add_parser("grid", help="scan C over (parameter, time) into a data file")
    _add_param_flags(p)
    p.add_argument("--t-max", type=_finite, default=10.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--vary", choices=("ej", "em"), required=True)
    p.add_argument("--min", type=_finite, required=True)
    p.add_argument("--max", type=_finite, required=True)
    p.add_argument("--vsteps", type=int, default=101)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_grid)

    p = sub.add_parser("verify", help="run the closed-form vs numeric validation sweep")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("optimize", help="search a time window for an operating point")
    _add_param_flags(p)
    p.add_argument("--t-min", type=_finite, default=0.0)
    p.add_argument("--t-max", type=_finite, default=10.0)
    p.add_argument("--objective", choices=("maximize", "stabilize"), default="maximize")
    p.set_defaults(run=_cmd_optimize)

    return parser


def _write_out(path: str, write) -> None:
    """Call ``write(stream)`` on standard output for "-", else on a new ASCII file."""
    if path == "-":
        write(sys.stdout)
        return
    with open(path, "w", encoding="ascii", newline="\n") as stream:
        write(stream)


def _write_json(stream, args, meta: dict, data: dict) -> None:
    """Write ``{"meta": ..., "data": data}``: state, params and version, then ``meta``'s keys."""
    meta = {
        "state": args.state,
        "params": {"e_j": args.ej, "e_m": args.em, "hbar": args.hbar},
        "version": __version__,
        **meta,
    }
    json.dump({"meta": meta, "data": data}, stream, indent=2)
    stream.write("\n")


def _check_fixed12(*columns: np.ndarray) -> None:
    """Raise ValueError unless every value is in ``_fixed12``'s domain: [0, 10), no -0.0."""
    for column in columns:
        # Written so that NaN, which compares false, fails it too.
        bad = ~((column < 10.0) & ~np.signbit(column))
        if bad.any():
            raise ValueError(
                f"CSV value {float(column[bad][0])!r} is outside [0, 10) or is -0.0"
            )


def _round_half_even(x, scale) -> np.ndarray:
    """The integers nearest to the exact products ``x * scale``, ties to even, as int64.

    Exact where ``0 <= x * scale < 1e13`` and every scale is an integer.
    The float product p is within ``spacing(p) / 2`` of the exact one, so
    ``rint(p)`` can round the wrong way only where a half-integer h lies
    that close to p. Below 1e13 < 2**44 both p and h are multiples of
    ``spacing(p)``, so h is p itself. ``p - floor(p)`` is exact, and only
    the products it shows to be half-integers are rounded again, exactly,
    on Python integers.
    """
    p = x * scale
    n = np.rint(p).astype(np.int64)
    near = np.flatnonzero(p - np.floor(p) == 0.5)
    scales = np.broadcast_to(scale, p.shape)[near].tolist()
    for i, v, s in zip(near.tolist(), x[near].tolist(), scales):
        num, den = v.as_integer_ratio()
        q, r = divmod(num * int(s), den)
        n[i] = q + (2 * r > den or (2 * r == den and q % 2 == 1))
    return n


def _fixed12(x: np.ndarray) -> np.ndarray:
    """``b"%.12f" % v`` for every v of x, as a null-padded S16 array.

    Precondition: every v is in the domain of ``_check_fixed12``, which
    ``_cmd_series`` and ``_cmd_grid`` check on every column before the
    file opens. Exact there, with no Python call per value: n is
    ``x * 1e12`` rounded by ``_round_half_even``; its units digit is
    printed on its own and its 12 decimals from three four-digit groups.
    """
    n = _round_half_even(x, 1e12)
    units = n // 10**12  # 10 where v rounds up to 10
    digits4 = _four_digit_tables()[0]
    groups = _four_digit_groups(n - units * 10**12)
    decimals = np.stack([digits4[g] for g in groups], axis=1).view(np.uint8)
    chars = np.zeros((len(n), 16), np.uint8)
    chars[:, 0] = ord("0") + units
    chars[:, 1] = ord(".")
    _cells(chars, 2, 14)[...] = _cells(decimals, 0, 12)
    out = chars.view("S16").ravel()
    out[units == 10] = b"10.000000000000"
    return out


def _cells(a: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Bytes ``start:stop`` of every row of the 2-D uint8 array a, as an S view.

    One S item per row copies in one strided loop, where a 2-D slice of
    a few bytes per row costs a loop call per row.
    """
    return a[:, start:stop].view(f"S{stop - start}")[:, 0]


def _g12(values: np.ndarray) -> np.ndarray:
    """``b"%.12g" % v`` for every v of values, as a null-padded S array.

    Equal to ``np.array([b"%.12g" % v for v in values.tolist()], dtype="S")``
    for every input. A positive value whose ``%.12g`` is fixed notation,
    with a rounded decimal exponent X in -4..11, is printed here from its
    12 digits; 0, negative values and the exponent forms go through
    ``b"%.12g"`` one at a time. Rows are sorted by X, so that each group
    is one slice with one layout: for X >= 0 the X + 1 integer digits, a
    "." and the fraction digits; for X < 0 "0." and -X - 1 zeros before
    all 12 digits. Trailing zeros of the fraction, and the "." when none
    remain, come out as null bytes from the stripped digit table.
    """
    fixed = (values >= 1e-5) & (values < 1e12)
    a = np.where(fixed, values, 1.0)
    # The search gives the exact decade e of a (see _DECADES), so
    # a * 10**(11 - e) < 10**12, and n reaches 10**12 only on the carry
    # to the next decade.
    k = 17 - np.searchsorted(_DECADES, a, side="right")  # 11 - e
    n = _round_half_even(a, _SCALES[k])
    carry = n == 10**12
    n[carry] = 10**11
    exponent = 11 - k + carry
    fixed &= (exponent >= -4) & (exponent <= 11)
    # Group key: X + 4 in the kernel, 16 for "%.12g".
    key = np.where(fixed, (exponent + 4).astype(np.uint8), np.uint8(16))
    order = np.argsort(key, kind="stable")
    starts = np.searchsorted(key[order], np.arange(18, dtype=np.uint8))
    kernel = starts[16]

    digits4, stripped4 = _four_digit_tables()
    high, middle, low = _four_digit_groups(n[order[:kernel]])
    full = np.stack([digits4[high], digits4[middle], digits4[low]], axis=1)
    # Only the last nonzero four-digit group loses its trailing zeros.
    stripped = np.stack(
        [
            np.where((middle | low) != 0, full[:, 0], stripped4[high]),
            np.where(low != 0, full[:, 1], stripped4[middle]),
            stripped4[low],
        ],
        axis=1,
    )
    full, stripped = full.view(np.uint8), stripped.view(np.uint8)

    chars = np.zeros((len(values), _G12_WIDTH), np.uint8)
    for group in np.flatnonzero(starts[1:17] > starts[:16]):
        rows = slice(starts[group], starts[group + 1])
        line = chars[rows]
        x = int(group) - 4
        if x < 0:
            at = 1 - x
            _cells(line, 0, at)[...] = b"0." + b"0" * (-x - 1)
            _cells(line, at, at + 12)[...] = _cells(stripped[rows], 0, 12)
            continue
        _cells(line, 0, x + 1)[...] = _cells(full[rows], 0, x + 1)
        if x < 11:
            point = stripped[rows, x + 1] != 0
            line[:, x + 1] = np.where(point, np.uint8(ord(".")), np.uint8(0))
            _cells(line, x + 2, 13)[...] = _cells(stripped[rows], x + 1, 12)
    rest = order[kernel:]
    if rest.size:
        text = [b"%.12g" % v for v in values[rest].tolist()]
        chars[kernel:] = np.array(text, f"S{_G12_WIDTH}").view(np.uint8).reshape(-1, _G12_WIDTH)

    width = _G12_WIDTH
    while width > 1 and not chars[:, width - 1].any():
        width -= 1
    out = np.empty(len(values), f"S{width}")
    out[order] = _cells(chars, 0, width)
    return out


def _write_csv_block(stream, columns) -> None:
    """Write the CSV lines whose columns are null-padded S arrays of broadcastable shapes.

    The columns go end to end into one byte buffer, with a comma after
    each and a newline after the last. No value holds a null byte, so
    dropping the null padding leaves exactly the text of the lines.
    """
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    buf = np.full(shape + (sum(c.itemsize + 1 for c in columns),), ord(","), np.uint8)
    start = 0
    for column in columns:
        buf[..., start : start + column.itemsize] = column[..., None].view(np.uint8)
        start += column.itemsize + 1
    buf[..., -1] = ord("\n")
    stream.write(buf[buf != 0].tobytes().decode("ascii"))


def _write_series(series: CoherenceSeries, args, stream):
    if args.format == "csv":
        stream.write("t,c_closed_form,c_numeric,abs_gap\n")
        for lo in range(0, len(series.gap), _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            _write_csv_block(
                stream,
                [
                    _g12(series.times[block]),
                    _fixed12(series.closed_form[block]),
                    _fixed12(series.numeric[block]),
                    _fixed12(series.gap[block]),
                ],
            )
    else:
        _write_json(
            stream,
            args,
            {"grid": {"t_start": 0.0, "t_end": args.t_max, "steps": args.steps}},
            {
                "t": series.times.tolist(),
                "c_closed_form": series.closed_form.tolist(),
                "c_numeric": series.numeric.tolist(),
                "abs_gap": series.gap.tolist(),
            },
        )


def _write_grid(gridval: ScanGrid, args, stream):
    if args.format == "csv":
        stream.write(f"{gridval.axis1_name},{gridval.axis2_name},value\n")
        heads, times = _g12(gridval.axis1), _g12(gridval.axis2)
        rows = max(1, _BLOCK_ROWS // len(times))
        for lo in range(0, len(heads), rows):
            values = gridval.values[lo : lo + rows]
            cells = _fixed12(values.ravel()).reshape(values.shape)
            _write_csv_block(stream, [heads[lo : lo + rows, None], times, cells])
    else:
        n1, n2 = gridval.values.shape
        _write_json(
            stream,
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
            {
                gridval.axis1_name: np.repeat(gridval.axis1, n2).tolist(),
                gridval.axis2_name: np.tile(gridval.axis2, n1).tolist(),
                "value": gridval.values.ravel().tolist(),
            },
        )


def _cmd_evolve(args) -> int:
    params = CircuitParams(args.ej, args.em, args.hbar)
    label = BellLabel(args.state)
    state = evolve(bell_state(label), analytic_propagator(params, args.t))
    rho = density_matrix(state)
    spectral = evolve(bell_state(label), numeric_propagator(params, args.t))
    c_numeric = l1_coherence(density_matrix(spectral))
    c_closed = closed_form_coherence(label, params, args.t)

    print(
        f"state {label.value}  e_j={params.e_j:.12g} e_m={params.e_m:.12g} "
        f"hbar={params.hbar:.12g} t={args.t:.12g}"
    )
    print("amplitudes (|00>, |01>, |10>, |11>):")
    for basis, amp in zip(("00", "01", "10", "11"), state.amplitudes):
        print(f"  |{basis}>  re={amp.real:.12f}  im={amp.imag:.12f}")
    print("rho (real part):")
    for row in rho.matrix:
        print("  " + "  ".join(f"{v.real:.12f}" for v in row))
    print("rho (imag part):")
    for row in rho.matrix:
        print("  " + "  ".join(f"{v.imag:.12f}" for v in row))
    print(f"C(numeric) = {c_numeric:.12f}")
    print(f"C(closed)  = {c_closed:.12f}")
    print(f"gap = {abs(c_numeric - c_closed):.12g}")
    return EXIT_OK


def _cmd_series(args) -> int:
    params = CircuitParams(args.ej, args.em, args.hbar)
    series = time_series(
        BellLabel(args.state), params, TimeGrid(0.0, args.t_max, args.steps)
    )
    if args.format == "csv":
        _check_fixed12(series.closed_form, series.numeric, series.gap)
    _write_out(args.out, lambda stream: _write_series(series, args, stream))
    return EXIT_OK


def _cmd_grid(args) -> int:
    vary = {"ej": "e_j", "em": "e_m"}[args.vary]
    # grid_scan replaces the varied field in every row, so its own flag
    # is never used; --min stands in for it.
    values = {"e_j": args.ej, "e_m": args.em, "hbar": args.hbar, vary: args.min}
    gridval = grid_scan(
        BellLabel(args.state),
        CircuitParams(**values),
        vary,
        (args.min, args.max, args.vsteps),
        TimeGrid(0.0, args.t_max, args.steps),
    )
    if args.format == "csv":
        _check_fixed12(gridval.values)
    _write_out(args.out, lambda stream: _write_grid(gridval, args, stream))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = cross_validate(args.samples, args.seed)
    if args.format == "json":
        doc = dataclasses.asdict(report)
        doc["version"] = __version__
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        print(f"cross-validation: {report.draws} draws, seed {report.seed}")
        for check in report.checks:
            p = check.worst_params
            print(
                f"  {check.name:<10s} max deviation {check.max_deviation:.12g}"
                f"  (draw {check.worst_draw}: e_j={p.e_j:.12g},"
                f" e_m={p.e_m:.12g}, hbar={p.hbar:.12g},"
                f" t={check.worst_time:.12g})"
            )
        verdict = "PASS" if report.passed else f"FAIL (worst: {report.worst_check})"
        print(f"result: {verdict} (threshold {report.threshold:.12g})")
    return EXIT_OK if report.passed else EXIT_INVARIANT


def _cmd_optimize(args) -> int:
    params = CircuitParams(args.ej, args.em, args.hbar)
    point = find_operating_point(
        BellLabel(args.state), params, (args.t_min, args.t_max), args.objective
    )
    print(f"objective: {args.objective}")
    print(f"state: {args.state}")
    print(f"params: e_j={params.e_j:.12g} e_m={params.e_m:.12g} hbar={params.hbar:.12g}")
    print(f"t = {point.t:.12g}")
    print(f"coherence = {point.coherence:.12f}")
    if point.mechanism is not None:
        print(f"mechanism: {point.mechanism}")
    return EXIT_OK


_PARSER: _Parser | None = None


def main(argv=None) -> int:
    # One parser per process: each parse_args call fills a new namespace,
    # and a parser per call leaves hundreds of cyclic objects behind.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        # argparse raises SystemExit for --help/--version (code 0) and for
        # usage errors (code from _Parser.error).
        return int(exc.code or 0)
    except OSError as exc:
        print(f"tqcoh: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # numpy's message names the size asked for, as in --steps 1e12.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        # The library's own input checks: reported as a usage error.
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EigenConvergenceError, ValueError) as exc:
        print(f"tqcoh: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def entry():
    """Console-script entry point."""
    raise SystemExit(main())
