"""Replay of a fixed subset of the benchmark's reference rows.

The files under ``perfbench/reference/`` hold outputs of the solver as it
stood when the benchmark was defined, with an agreement tolerance per
output group (a multiple of the float noise measured at capture time).
This test re-solves a subset of those inputs through the public API, the
same way the references were captured, and asserts each value against the
stored tolerance.  It reads the files as plain JSON and uses nothing from
the benchmark's own code, so a change to the numeric core is checked
against golden outputs that predate it.
"""

import json
from pathlib import Path

import pytest

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
ROW_STRIDE = 25
CONVERGE_KAPPAL = (1.0, 10.0, 20.0)
WAVEFUNCTION_KEYS = ("0+1", "19-1")
WINDOW_FACTOR = 16.0


def _load(name):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


REFERENCE = {**_load("deep_sin"), **_load("short_cavity"), **_load("cli_session")}
LATTICES = ("deep_sin", "short_sech2", "short_gauss", "cli_sin2", "cli_mesa")


def _value(lat, i):
    # lo + i*step, the expression mazersim.kappaL_range uses
    return lat["lo"] + i * lat["step"]


def _lattice_row(lat, i):
    """P_em, the four event probabilities and log10|t| of both branches."""
    kappaL = _value(lat, i)
    top = max(_value(lat, lat["n"] - 1), 1.0)
    params = mz.MazerParams.for_shape(SHAPES[lat["shape"]], lat["k"], top, lat["J"])
    row = mz.sweep_kappaL(params, kappaL, kappaL, lat["step"]).rows[0]
    assert row.error is None, row.error
    plus, minus = mz.branch_amplitudes(params.with_kappaL(kappaL))
    return [row.P_em, row.T_a_sq, row.T_b_sq, row.R_a_sq, row.R_b_sq,
            plus.t_log10_mag, minus.t_log10_mag]


def _cli_rows(argv, tmp_path):
    path = tmp_path / "out.csv"
    assert main(argv + ["--output", str(path)]) == 0
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


@pytest.mark.parametrize("name,i", [
    (name, i) for name in LATTICES
    for i in range(0, REFERENCE[name]["lattice"]["n"], ROW_STRIDE)])
def test_lattice_row(name, i):
    ref = REFERENCE[name]
    assert ref["fields"][:5] == ["P_em", "Ta2", "Tb2", "Ra2", "Rb2"]
    got = _lattice_row(ref["lattice"], i)
    want = ref["rows"][i]
    tol_p, tol_t = ref["tolerance"]["prob"], ref["tolerance"]["log10_t"]
    for field, a, b in zip(ref["fields"], got, want):
        tol = tol_p if field in ref["fields"][:5] else tol_t
        assert abs(a - b) <= tol, (field, a, b, tol)


@pytest.mark.parametrize("kappaL", CONVERGE_KAPPAL)
def test_converge_row(kappaL, tmp_path):
    ref = REFERENCE["converge"]
    lat = ref["lattice"]
    i = round((kappaL - lat["lo"]) / lat["step"])
    assert _value(lat, i) == kappaL
    got = _cli_rows([
        "converge", "--profile", lat["shape"], "--k", repr(lat["k"]),
        "--kappaL", repr(kappaL), "--window-factor", repr(WINDOW_FACTOR),
        "--J", ",".join(str(J) for J in lat["J"])], tmp_path)
    tol = ref["tolerance"]["prob"]
    assert [int(J) for J, _ in got] == lat["J"]
    for (_, P), want in zip(got, ref["rows"][i]):
        assert abs(P - want) <= tol, (P, want, tol)


@pytest.mark.parametrize("key", WAVEFUNCTION_KEYS)
def test_wavefunction_samples(key, tmp_path):
    ref = REFERENCE["wavefunction"]
    lat = ref["lattice"]
    i, branch = int(key[:-2]), key[-2:]
    got = _cli_rows([
        "wavefunction", "--profile", lat["shape"], "--k", repr(lat["k"]),
        "--kappaL", repr(_value(lat, i)), "--J", str(lat["J"]),
        "--window-factor", repr(WINDOW_FACTOR), "--branch", branch,
        "--samples", str(lat["samples"])], tmp_path)
    want = ref["rows"][key]
    sampled = got[::lat["stride"]]
    assert len(sampled) == len(want)
    tol = ref["tolerance"]["psi"]
    for (_, re, im, _), (want_re, want_im) in zip(sampled, want):
        assert abs(re - want_re) <= tol and abs(im - want_im) <= tol, (
            re, im, want_re, want_im, tol)
