"""Capture the benchmark's reference rows and their agreement tolerances.

    python3 perfbench/capture_reference.py

writes ``perfbench/reference/<workload>.json`` from the solver in ``src/``.
The files in the repository were captured from the solver as it stood when
the benchmark was defined; rerun this only to extend the lattices, never to
make a changed solver pass.

Tolerance.  The solver is deterministic: the same input gives bit-identical
output, so run-to-run noise is zero and says nothing about how far an
equally exact evaluation may drift.  The float noise used instead is the
largest change of any output when an input moves by the rounding of its
own representation: kappaL by 1 and 3 ulps either way, k and the window
factor by 1 ulp either way.  These are the perturbations that block-relative
lattice arithmetic (lo + j*step) and a rearranged evaluation order put into
a row.  It is measured on every tenth lattice point, per output group
(probabilities, log10|t|, wavefunction samples), and the tolerance is
TOLERANCE_FACTOR times that noise, for the whole lattice.  A value never
widens to make a run pass.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mazersim import cli  # noqa: E402

import workloads as wl  # noqa: E402

TOLERANCE_FACTOR = 100.0
NOISE_STRIDE = 10
EPS = 2.0 ** -52


def _ulps(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


def _perturbations(kappaL: float, k: float) -> list[dict]:
    out = [{"kappaL": _ulps(kappaL, n)} for n in (1, -1, 3, -3)]
    out += [{"k": _ulps(k, n)} for n in (1, -1)]
    out += [{"window_factor": _ulps(16.0, n)} for n in (1, -1)]
    return out


def _tolerance(noise: float) -> float:
    # a group whose noise reads exactly 0 gets the noise of one rounding
    return TOLERANCE_FACTOR * max(noise, EPS)


def capture_lattice(lat: wl.Lattice) -> dict:
    rows = [wl.lattice_row(lat, i) for i in range(lat.n)]
    noise_prob = noise_log = 0.0
    for i in range(1, lat.n, NOISE_STRIDE):
        for change in _perturbations(lat.value(i), lat.k):
            other = wl.lattice_row(lat, i, **change)
            noise_prob = max(noise_prob, max(
                abs(a - b) for a, b in zip(rows[i][:5], other[:5])))
            noise_log = max(noise_log, max(
                abs(a - b) for a, b in zip(rows[i][5:], other[5:])))
    return {
        "lattice": {"shape": lat.shape, "k": lat.k, "J": lat.J,
                    "lo": lat.lo, "step": lat.step, "n": lat.n},
        "fields": list(wl.ROW_FIELDS),
        "noise": {"prob": noise_prob, "log10_t": noise_log},
        "tolerance": {"prob": _tolerance(noise_prob),
                      "log10_t": _tolerance(noise_log)},
        "rows": rows,
    }


def _cli_rows(argv: list[str], scratch: Path) -> list[list[float]]:
    path = scratch / "capture.csv"
    status = cli.main(argv + ["--output", str(path)])
    if status != 0:
        raise RuntimeError(f"mazersim {' '.join(argv)} exited with {status}")
    return wl._read_csv(path)


def _converge_argv(kappaL: float, k: float, window_factor: float = 16.0) -> list[str]:
    lat = wl.CONVERGE
    return ["converge", "--profile", lat.shape, "--k", repr(k),
            "--kappaL", repr(kappaL), "--window-factor", repr(window_factor),
            "--J", ",".join(str(J) for J in wl.CONVERGE_J)]


def capture_converge(scratch: Path) -> dict:
    lat = wl.CONVERGE
    rows = [[P for _, P in _cli_rows(_converge_argv(lat.value(i), lat.k), scratch)]
            for i in range(lat.n)]
    noise = 0.0
    for i in range(0, lat.n, 5):
        for change in _perturbations(lat.value(i), lat.k):
            other = _cli_rows(_converge_argv(
                change.get("kappaL", lat.value(i)), change.get("k", lat.k),
                change.get("window_factor", 16.0)), scratch)
            noise = max(noise, max(abs(a - P) for a, (_, P) in zip(rows[i], other)))
    return {"lattice": {"shape": lat.shape, "k": lat.k, "J": list(wl.CONVERGE_J),
                        "lo": lat.lo, "step": lat.step, "n": lat.n},
            "noise": {"prob": noise}, "tolerance": {"prob": _tolerance(noise)},
            "rows": rows}


def _wave_argv(kappaL, k, branch, window_factor=16.0) -> list[str]:
    lat = wl.WAVEFUNCTION
    return ["wavefunction", "--profile", lat.shape, "--k", repr(k),
            "--kappaL", repr(kappaL), "--J", str(lat.J),
            "--window-factor", repr(window_factor), "--branch", f"{branch:+d}",
            "--samples", str(wl.WAVEFUNCTION_SAMPLES)]


def capture_wavefunction(scratch: Path) -> dict:
    lat = wl.WAVEFUNCTION
    stride = wl.WAVEFUNCTION_STRIDE
    rows = {}
    noise = 0.0
    for i in range(lat.n):
        for branch in (1, -1):
            got = _cli_rows(_wave_argv(lat.value(i), lat.k, branch), scratch)
            rows[f"{i}{branch:+d}"] = [[re, im] for _, re, im, _ in got[::stride]]
            if i % 5:
                continue
            for change in _perturbations(lat.value(i), lat.k):
                other = _cli_rows(_wave_argv(
                    change.get("kappaL", lat.value(i)), change.get("k", lat.k),
                    branch, change.get("window_factor", 16.0)), scratch)
                noise = max(noise, max(
                    max(abs(a[1] - b[1]), abs(a[2] - b[2]))
                    for a, b in zip(got, other)))
    return {"lattice": {"shape": lat.shape, "k": lat.k, "J": lat.J,
                        "lo": lat.lo, "step": lat.step, "n": lat.n,
                        "samples": wl.WAVEFUNCTION_SAMPLES, "stride": stride},
            "noise": {"psi": noise}, "tolerance": {"psi": _tolerance(noise)},
            "rows": rows}


def main() -> int:
    scratch = HERE.parent / ".perfbench" / "capture"
    scratch.mkdir(parents=True, exist_ok=True)
    files = {
        "deep_sin": lambda: {"deep_sin": capture_lattice(wl.DEEP_SIN)},
        "short_cavity": lambda: {
            "short_sech2": capture_lattice(wl.SHORT_SECH2),
            "short_gauss": capture_lattice(wl.SHORT_GAUSS)},
        "cli_session": lambda: {
            "cli_sin2": capture_lattice(wl.CLI_SIN2),
            "cli_mesa": capture_lattice(wl.CLI_MESA),
            "converge": capture_converge(scratch),
            "wavefunction": capture_wavefunction(scratch)},
    }
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, capture in files.items():
        t0 = time.perf_counter()
        data = capture()
        with open(wl.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        summary = {k: v["tolerance"] for k, v in data.items()}
        print(f"{name}: {time.perf_counter() - t0:.1f} s, tolerance {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
