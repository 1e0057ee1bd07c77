"""Replay of a fixed subset of the benchmark's reference rows.

The files under ``perfbench/reference/`` hold outputs of the solver as it
stood when the benchmark was defined, with an agreement tolerance per
output group (a multiple of the float noise measured at capture time).
The Tier-1 tests re-solve a subset of those inputs through the public API,
the same way the references were captured, and assert each value against
the stored tolerance; the ``slow`` tests replay every stored row,
convergence row and wavefunction dump the same way, and report the worst
fraction of the stored tolerance that each group used.  The file reads the
references as plain JSON and uses nothing from the benchmark's own code,
so a change to the numeric core is checked against golden outputs that
predate it.
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


def _check_lattice_row(name, i):
    """Assert the row against its stored tolerances; return the largest
    fraction of its tolerance that a field used."""
    ref = REFERENCE[name]
    assert ref["fields"][:5] == ["P_em", "Ta2", "Tb2", "Ra2", "Rb2"]
    got = _lattice_row(ref["lattice"], i)
    want = ref["rows"][i]
    tol_p, tol_t = ref["tolerance"]["prob"], ref["tolerance"]["log10_t"]
    worst = 0.0
    for field, a, b in zip(ref["fields"], got, want):
        tol = tol_p if field in ref["fields"][:5] else tol_t
        assert abs(a - b) <= tol, (name, i, field, a, b, tol)
        worst = max(worst, abs(a - b) / tol)
    return worst


def _check_converge_row(i, tmp_path):
    ref = REFERENCE["converge"]
    lat = ref["lattice"]
    got = _cli_rows([
        "converge", "--profile", lat["shape"], "--k", repr(lat["k"]),
        "--kappaL", repr(_value(lat, i)), "--window-factor", repr(WINDOW_FACTOR),
        "--J", ",".join(str(J) for J in lat["J"])], tmp_path)
    tol = ref["tolerance"]["prob"]
    assert [int(J) for J, _ in got] == lat["J"]
    for (_, P), want in zip(got, ref["rows"][i]):
        assert abs(P - want) <= tol, (i, P, want, tol)
    return max(abs(P - want) for (_, P), want in zip(got, ref["rows"][i])) / tol


def _check_wavefunction(key, tmp_path):
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
            key, re, im, want_re, want_im, tol)
    return max(max(abs(re - want_re), abs(im - want_im))
               for (_, re, im, _), (want_re, want_im) in zip(sampled, want)) / tol


@pytest.mark.parametrize("name,i", [
    (name, i) for name in LATTICES
    for i in range(0, REFERENCE[name]["lattice"]["n"], ROW_STRIDE)])
def test_lattice_row(name, i):
    _check_lattice_row(name, i)


@pytest.mark.parametrize("kappaL", CONVERGE_KAPPAL)
def test_converge_row(kappaL, tmp_path):
    lat = REFERENCE["converge"]["lattice"]
    i = round((kappaL - lat["lo"]) / lat["step"])
    assert _value(lat, i) == kappaL
    _check_converge_row(i, tmp_path)


@pytest.mark.parametrize("key", WAVEFUNCTION_KEYS)
def test_wavefunction_samples(key, tmp_path):
    _check_wavefunction(key, tmp_path)


# --- full replay ------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("name", LATTICES)
def test_every_lattice_row(name, tolerance_margins):
    tolerance_margins[name] = max(
        _check_lattice_row(name, i)
        for i in range(REFERENCE[name]["lattice"]["n"]))


@pytest.mark.slow
def test_every_converge_row(tmp_path, tolerance_margins):
    tolerance_margins["converge"] = max(
        _check_converge_row(i, tmp_path)
        for i in range(REFERENCE["converge"]["lattice"]["n"]))


@pytest.mark.slow
def test_every_wavefunction_dump(tmp_path, tolerance_margins):
    keys = list(REFERENCE["wavefunction"]["rows"])
    assert len(keys) == 2 * REFERENCE["wavefunction"]["lattice"]["n"]
    tolerance_margins["wavefunction"] = max(
        _check_wavefunction(key, tmp_path) for key in keys)
