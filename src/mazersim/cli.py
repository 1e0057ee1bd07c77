"""Command-line front end: sweeps, convergence studies, oracle comparisons,
and wavefunction dumps as deterministic CSV.

Output discipline: every file starts with '#' comment lines echoing the
parsed configuration plus a hash of that echo, then a fixed column header.
No timestamps anywhere, so identical invocations produce identical bytes.
Exit codes: 0 clean, 1 configuration error, 2 at least one data row failed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from .grid import DEFAULT_WINDOW_FACTOR, ModeShape, build_grid
from .mazer import (
    MazerParams, _combine, convergence_study, kappaL_range, sweep_kappaL)
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
    if any(v < 2 for v in values):
        raise _ConfigError("every J must be at least 2")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise _ConfigError("J list must be strictly ascending")
    return values


def _fmt(value: float) -> str:
    return repr(float(value))


def _worker_count(requested: int | None) -> int:
    env = os.environ.get("MAZER_THREADS")
    bound = None
    if env is not None:
        try:
            bound = int(env)
        except ValueError:
            raise _ConfigError(f"MAZER_THREADS must be an integer, got {env!r}")
        if bound < 1:
            raise _ConfigError("MAZER_THREADS must be at least 1")
    if requested is None:
        return bound if bound is not None else 1
    if requested < 1:
        raise _ConfigError("--workers must be at least 1")
    return min(requested, bound) if bound is not None else requested


def _header(command: str, settings: list[tuple[str, object]]) -> list[str]:
    echo = " ".join(f"{key}={value}" for key, value in settings)
    digest = hashlib.sha256(f"{command} {echo}".encode()).hexdigest()[:12]
    return [
        f"# mazersim {command}",
        f"# {echo}",
        f"# config_sha256={digest}",
    ]


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _ConfigError(f"cannot write {path!r}: {exc}")


def _base_params(args, *, J: int | None = None) -> MazerParams:
    shape = _PROFILE_NAMES.get(args.profile)
    if shape is None:
        raise _ConfigError(f"unknown profile {args.profile!r}")
    kappaL = getattr(args, "kappaL", None) or 0.0
    try:
        return MazerParams.for_shape(
            shape, args.k, kappaL, J if J is not None else args.J,
            window_factor=args.window_factor)
    except (TypeError, ValueError) as exc:
        raise _ConfigError(str(exc))


def _sweep_row_lines(row) -> list[str]:
    values = (row.kappaL, row.P_em, row.T_a_sq, row.T_b_sq,
              row.R_a_sq, row.R_b_sq,
              row.unit_defect_plus, row.unit_defect_minus)
    lines = [",".join(_fmt(v) for v in values)]
    if row.error is not None:
        lines.append(f"# error kappaL={_fmt(row.kappaL)}: {row.error}")
    return lines


def _cmd_sweep(args) -> int:
    """Runs ``sweep``, and ``compare-oracle``, which adds the oracle's P_em."""
    oracle = None
    if args.command == "compare-oracle":
        if args.profile not in ("sech2", "mesa"):
            raise _ConfigError(
                "oracle comparison needs a profile with a closed form: sech2 or mesa")
        oracle = sech2_analytic if args.profile == "sech2" else mesa_analytic
    lo, hi, step = _parse_range(args.range)
    params = _base_params(args)
    workers = _worker_count(args.workers)
    table = sweep_kappaL(params, lo, hi, step, workers=workers)
    lines = _header(args.command, [
        ("profile", args.profile), ("k_over_kappa", _fmt(args.k)),
        ("range", args.range), ("J", args.J),
        ("window_factor", _fmt(args.window_factor)),
    ])
    lines.append(_SWEEP_COLUMNS if oracle is None
                 else _SWEEP_COLUMNS + ",P_em_oracle,abs_dev")
    max_dev = 0.0
    for row in table.rows:
        body = _sweep_row_lines(row)
        if oracle is not None:
            reference = _combine(oracle(args.k, row.kappaL, +1),
                                 oracle(args.k, row.kappaL, -1)).P_em
            dev = abs(row.P_em - reference)    # nan on a failed row
            if row.error is None:
                max_dev = max(max_dev, dev)
            body[0] += f",{_fmt(reference)},{_fmt(dev)}"
        lines.extend(body)
    if oracle is not None:
        lines.append(f"# max_abs_dev={_fmt(max_dev)}")
    _write_lines(args.output, lines)
    return 2 if table.has_errors else 0


def _cmd_converge(args) -> int:
    J_list = _parse_J_list(args.J)
    params = _base_params(args, J=J_list[0])
    lines = _header("converge", [
        ("profile", args.profile), ("k_over_kappa", _fmt(args.k)),
        ("kappaL", _fmt(args.kappaL)), ("J", args.J),
        ("window_factor", _fmt(args.window_factor)),
    ])
    lines.append("J,P_em")
    try:
        study = convergence_study(params, J_list)
    except Exception as exc:
        lines.append(f"# error: {type(exc).__name__}: {exc}")
        _write_lines(args.output, lines)
        return 2
    for J, P_em in study.entries:
        lines.append(f"{J},{_fmt(P_em)}")
    lines.append(f"# settle={_fmt(study.settle)}")
    _write_lines(args.output, lines)
    return 0


def _cmd_wavefunction(args) -> int:
    if args.branch not in ("+1", "-1", "1"):
        raise _ConfigError("--branch must be +1 or -1")
    branch = 1 if args.branch in ("+1", "1") else -1
    if args.samples < 2:
        raise _ConfigError("--samples must be at least 2")
    params = _base_params(args)
    if params.kappaL == 0.0:
        raise _ConfigError("wavefunction dump needs kappaL > 0")
    lines = _header("wavefunction", [
        ("profile", args.profile), ("k_over_kappa", _fmt(args.k)),
        ("kappaL", _fmt(args.kappaL)), ("J", args.J),
        ("branch", f"{branch:+d}"),
        ("window_factor", _fmt(args.window_factor)),
        ("samples", args.samples),
    ])
    lines.append("x,re_psi,im_psi,abs2_psi")
    try:
        grid = build_grid(
            params.profile, branch, params.k_over_kappa, params.J,
            window_factor=params.window_factor)
        samples = wavefunction(grid, np.linspace(*grid.window, args.samples))
    except Exception as exc:
        lines.append(f"# error: {type(exc).__name__}: {exc}")
        _write_lines(args.output, lines)
        return 2
    for x, phi in samples:
        lines.append(",".join(
            (_fmt(x), _fmt(phi.real), _fmt(phi.imag), _fmt(abs(phi) ** 2))))
    _write_lines(args.output, lines)
    return 0


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
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (bounded by MAZER_THREADS)")
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
