"""One sha256 per stored benchmark input group, over the ``repr`` of the
solver's outputs, to show that a change leaves every float where it was.

Re-solves every input stored in ``perfbench/reference/*.json``, read as
plain JSON:

* each of the five lattices as one ``sweep_kappaL`` over all its rows,
  hashing per row P_em, Ta2, Tb2, Ra2, Rb2, both unitarity defects, the
  error text, and log10|t| of both branches from ``branch_amplitudes``;
* the convergence rows and the wavefunction dumps through the command
  line, hashing the CSV each invocation prints.

Run it from the repository root against the code under test, for example
at a change and at its merge base:

    PYTHONPATH=src python tools/output_hash.py > head.txt
    PYTHONPATH=../base/src python tools/output_hash.py > base.txt
    diff base.txt head.txt

It prints ``<sha256>  <group>`` lines and writes no file.  Equal lines mean
bit-identical outputs; a change that moves floats on purpose is judged by
the tolerances stored with the reference rows instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import mazersim as mz
from mazersim.cli import main

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
SHAPES = {
    "mesa": mz.ModeShape.MESA,
    "sech2": mz.ModeShape.SECH2,
    "sin": mz.ModeShape.SIN_FUNDAMENTAL,
    "sin2": mz.ModeShape.SIN_FIRST_EXCITED,
    "gauss": mz.ModeShape.GAUSSIAN,
}
LATTICES = ("deep_sin", "short_sech2", "short_gauss", "cli_sin2", "cli_mesa")
# the window the reference converge rows and wavefunction dumps were
# captured with
WINDOW_FACTOR = "16.0"


def _value(lat: dict, i: int) -> float:
    # lo + i*step, the expression mazersim.kappaL_range uses
    return lat["lo"] + i * lat["step"]


def lattice_text(lat: dict) -> str:
    """One line per lattice row: the repr of every output of the row."""
    last = _value(lat, lat["n"] - 1)
    params = mz.MazerParams.for_shape(
        SHAPES[lat["shape"]], lat["k"], max(last, 1.0), lat["J"])
    rows = mz.sweep_kappaL(params, lat["lo"], last, lat["step"]).rows
    if [row.kappaL for row in rows] != [_value(lat, i) for i in range(lat["n"])]:
        raise SystemExit(f"sweep of {lat} does not land on its lattice")
    lines = []
    for row in rows:
        plus, minus = mz.branch_amplitudes(params.with_kappaL(row.kappaL))
        lines.append(repr((row.kappaL, row.P_em, row.T_a_sq, row.T_b_sq,
                           row.R_a_sq, row.R_b_sq, row.unit_defect_plus,
                           row.unit_defect_minus, row.error,
                           plus.t_log10_mag, minus.t_log10_mag)))
    return "\n".join(lines)


def cli_text(argv: list[str]) -> str:
    """Exit status and printed CSV of one command-line invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"{code}\n{out.getvalue()}"


def converge_text(ref: dict) -> str:
    lat = ref["lattice"]
    return "".join(cli_text([
        "converge", "--profile", lat["shape"], "--k", repr(lat["k"]),
        "--kappaL", repr(_value(lat, i)), "--window-factor", WINDOW_FACTOR,
        "--J", ",".join(str(J) for J in lat["J"])]) for i in range(lat["n"]))


def wavefunction_text(ref: dict) -> str:
    lat = ref["lattice"]
    return "".join(cli_text([
        "wavefunction", "--profile", lat["shape"], "--k", repr(lat["k"]),
        "--kappaL", repr(_value(lat, int(key[:-2]))), "--J", str(lat["J"]),
        "--window-factor", WINDOW_FACTOR, "--branch", key[-2:],
        "--samples", str(lat["samples"])]) for key in ref["rows"])


def main_hashes() -> int:
    reference = {}
    for path in sorted(REFERENCE_DIR.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            reference.update(json.load(fh))
    groups = {name: lattice_text(reference[name]["lattice"]) for name in LATTICES}
    groups["converge"] = converge_text(reference["converge"])
    groups["wavefunction"] = wavefunction_text(reference["wavefunction"])
    for name, text in groups.items():
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main_hashes())
