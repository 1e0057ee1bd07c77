"""Command-line front end: sweeps, convergence studies, oracle comparisons,
and wavefunction dumps as deterministic CSV.

Every command writes through one function, ``_write``: '#' comment lines
echoing the profile, k_over_kappa and the command's settings plus a hash
of that echo, a fixed column header, then the rows, to stdout or
``--output``. No timestamps anywhere, so identical invocations produce
identical bytes. Exit codes: 0 clean; 1 configuration error or unwritable
``--output``, with one ``error:`` line on stderr; 2 a data row failed or
the computation raised, which the CSV records in a ``# error`` line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from typing import Callable

import numpy as np

from .grid import DEFAULT_WINDOW_FACTOR, ModeShape, build_grid, check_J
from .mazer import (
    SWEEP_ROWS_MAX, MazerParams, _combine, check_J_list, check_workers,
    convergence_study, kappaL_range, sweep_kappaL)
from .oracles import mesa_analytic, sech2_analytic
# solve_scattering is unused here; perfbench/tracing.py wraps it by this name
from .transfer import solve_scattering, wavefunction

__all__ = ["main"]

_PROFILE_NAMES = {s.value: s for s in ModeShape if s is not ModeShape.TABULATED}

_SWEEP_COLUMNS = "kappaL,P_em,Ta2,Tb2,Ra2,Rb2,unit_defect_plus,unit_defect_minus"


class _ConfigError(Exception):
    """Raised for anything wrong with the invocation itself."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; config problems must be 1.
    def error(self, message):
        raise _ConfigError(message)


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _ConfigError(f"malformed range {text!r}, expected lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise _ConfigError(f"malformed range {text!r}, expected numbers")
    try:
        kappaL_range(lo, hi, step)
    except ValueError as exc:
        raise _ConfigError(str(exc))
    return lo, hi, step


def _parse_J_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        raise _ConfigError(f"malformed J list {text!r}")
    try:
        for v in values:
            check_J(v)
        check_J_list(values)
    except ValueError as exc:
        raise _ConfigError(str(exc))
    return values


def _fmt(value: float) -> str:
    return repr(float(value))


def _params(args, kappaL: float, J: int) -> MazerParams:
    shape = _PROFILE_NAMES.get(args.profile)
    if shape is None:
        raise _ConfigError(f"unknown profile {args.profile!r}")
    try:
        return MazerParams.for_shape(
            shape, args.k, kappaL, J, window_factor=args.window_factor)
    except (TypeError, ValueError) as exc:
        raise _ConfigError(str(exc))


def _write(args, settings: list[tuple[str, object]], columns: str,
           rows: Callable[[], tuple[list[str], int]]) -> int:
    """Writes one command's CSV to stdout or ``--output``; returns its status.

    ``rows()`` gives the body and the status; an exception it raises
    becomes one ``# error:`` line and status 2.
    """
    echo = " ".join(f"{key}={value}" for key, value in [
        ("profile", args.profile), ("k_over_kappa", _fmt(args.k)), *settings])
    digest = hashlib.sha256(f"{args.command} {echo}".encode()).hexdigest()[:12]
    try:
        body, status = rows()
    except Exception as exc:
        body, status = [f"# error: {type(exc).__name__}: {exc}"], 2
    text = "\n".join([f"# mazersim {args.command}", f"# {echo}",
                      f"# config_sha256={digest}", columns, *body]) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return status
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ConfigError(f"cannot write {args.output!r}: {exc}")
    return status


def _cmd_sweep(args) -> int:
    """Runs ``sweep``, and ``compare-oracle``, which adds the oracle's P_em.
    A failed row keeps its line, so the table is solved before ``_write``."""
    oracle, columns = None, _SWEEP_COLUMNS
    if args.command == "compare-oracle":
        if args.profile not in ("sech2", "mesa"):
            raise _ConfigError(
                "oracle comparison needs a profile with a closed form: sech2 or mesa")
        oracle = sech2_analytic if args.profile == "sech2" else mesa_analytic
        columns += ",P_em_oracle,abs_dev"
    lo, hi, step = _parse_range(args.range)
    params = _params(args, 0.0, args.J)
    try:
        check_workers(args.workers)
    except ValueError as exc:
        raise _ConfigError(str(exc))
    table = sweep_kappaL(params, lo, hi, step, workers=args.workers)
    lines, max_dev = [], 0.0
    for row in table.rows:
        values = [row.kappaL, row.P_em, row.T_a_sq, row.T_b_sq, row.R_a_sq,
                  row.R_b_sq, row.unit_defect_plus, row.unit_defect_minus]
        if oracle is not None:
            reference = _combine(oracle(args.k, row.kappaL, +1),
                                 oracle(args.k, row.kappaL, -1)).P_em
            dev = abs(row.P_em - reference)    # nan on a failed row
            if row.error is None:
                max_dev = max(max_dev, dev)
            values += [reference, dev]
        lines.append(",".join(_fmt(v) for v in values))
        if row.error is not None:
            lines.append(f"# error kappaL={_fmt(row.kappaL)}: {row.error}")
    if oracle is not None:
        lines.append(f"# max_abs_dev={_fmt(max_dev)}")
    return _write(args, [("range", args.range), ("J", args.J),
                         ("window_factor", _fmt(args.window_factor))],
                  columns, lambda: (lines, 2 if table.has_errors else 0))


def _cmd_converge(args) -> int:
    J_list = _parse_J_list(args.J)
    params = _params(args, args.kappaL, J_list[0])

    def rows():
        study = convergence_study(params, J_list)
        return [*(f"{J},{_fmt(P_em)}" for J, P_em in study.entries),
                f"# settle={_fmt(study.settle)}"], 0

    return _write(args, [("kappaL", _fmt(args.kappaL)), ("J", args.J),
                         ("window_factor", _fmt(args.window_factor))],
                  "J,P_em", rows)


def _cmd_wavefunction(args) -> int:
    if args.branch not in ("+1", "-1", "1"):
        raise _ConfigError("--branch must be +1 or -1")
    branch = 1 if args.branch in ("+1", "1") else -1
    if not 2 <= args.samples <= SWEEP_ROWS_MAX:
        raise _ConfigError(f"--samples must be at least 2 and at most "
                           f"SWEEP_ROWS_MAX = {SWEEP_ROWS_MAX}")
    params = _params(args, args.kappaL, args.J)
    if params.kappaL == 0.0:
        raise _ConfigError("wavefunction dump needs kappaL > 0")

    def rows():
        grid = build_grid(
            params.profile, branch, params.k_over_kappa, params.J,
            window_factor=params.window_factor)
        samples = wavefunction(grid, np.linspace(*grid.window, args.samples))
        return [",".join(map(_fmt, (x, phi.real, phi.imag, abs(phi) ** 2)))
                for x, phi in samples], 0

    return _write(args, [("kappaL", _fmt(args.kappaL)), ("J", args.J),
                         ("branch", f"{branch:+d}"),
                         ("window_factor", _fmt(args.window_factor)),
                         ("samples", args.samples)],
                  "x,re_psi,im_psi,abs2_psi", rows)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", required=True,
                        help="mode shape: mesa, sech2, sin, sin2, gauss")
    parser.add_argument("--k", type=float, required=True,
                        help="atomic momentum over coupling wavenumber")
    parser.add_argument("--window-factor", dest="window_factor",
                        type=float, default=DEFAULT_WINDOW_FACTOR,
                        help="total simulation window in units of kappaL")
    parser.add_argument("--output", default=None,
                        help="output CSV path (default: stdout)")


# argparse builds a fresh namespace on every parse, so one parser serves
# every call of main in a process
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="mazersim",
                     description="Induced-emission probability calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep, conv, cmp, wf = (sub.add_parser(name, help=text) for name, text in (
        ("sweep", "P_em over a kappaL range"),
        ("converge", "P_em at increasing grid sizes"),
        ("compare-oracle", "numeric P_em against the closed form"),
        ("wavefunction", "dump one branch's wavefunction")))
    for p in (sweep, conv, cmp, wf):
        _add_common(p)
    for p in (sweep, cmp):
        p.add_argument("--range", required=True, help="kappaL range lo:hi:step")
        p.add_argument("--J", type=int, required=True, help="grid point count")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (at most one per chunk of "
                            "eight rows and per usable CPU)")
        p.set_defaults(func=_cmd_sweep)

    conv.add_argument("--kappaL", type=float, required=True)
    conv.add_argument("--J", required=True,
                      help="comma-separated ascending grid sizes")
    conv.set_defaults(func=_cmd_converge)

    wf.add_argument("--kappaL", type=float, required=True)
    wf.add_argument("--J", type=int, required=True)
    wf.add_argument("--branch", default="+1", help="+1 or -1")
    wf.add_argument("--samples", type=int, default=400)
    wf.set_defaults(func=_cmd_wavefunction)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
