"""Grids pinned against golden data captured before the array rewrite.

``tests/data/grid_golden.json`` holds, for a fixed set of configurations,
the node x values, the turning points, alpha, and each interior segment's
(regime, x_lo, x_hi, z_ref, b).  Analytic shapes must match bit for bit.
Tabulated entries may differ in the last digits, because the order of
their area summation is free, and must match within 1e-14 relative to
the largest magnitude of the compared quantity.

Regenerate the file (only on purpose) with

    PYTHONPATH=src python tests/test_grid_golden.py
"""

import json
from pathlib import Path

import pytest

from mazersim.grid import ModeProfile, ModeShape, build_grid
from mazersim.segment_basis import Regime

GOLDEN = Path(__file__).resolve().parent / "data" / "grid_golden.json"

TABLE = ((-2.0, 0.0), (-1.0, 0.6), (0.0, 0.9), (0.5, 0.1),
         (1.5, -0.7), (2.5, -0.2), (3.0, 0.4), (4.0, 0.0))
TABULATED_REL_TOL = 1.0e-14

# name -> (shape, kappaL, k, J, branch sign)
CASES = {
    "sech2+": (ModeShape.SECH2, 10.0, 0.01, 64, +1),
    "sech2-": (ModeShape.SECH2, 10.0, 0.01, 64, -1),
    "gauss+": (ModeShape.GAUSSIAN, 15.0, 0.1, 64, +1),
    "gauss-": (ModeShape.GAUSSIAN, 15.0, 0.1, 64, -1),
    "sin+": (ModeShape.SIN_FUNDAMENTAL, 1.0e5, 0.01, 64, +1),
    "sin2-": (ModeShape.SIN_FIRST_EXCITED, 1.0e5, 0.1, 48, -1),
    "mesa+": (ModeShape.MESA, 5.0, 0.1, 2, +1),
    "mesa-": (ModeShape.MESA, 5.0, 0.1, 2, -1),
    "tabulated+": (ModeShape.TABULATED, 0.0, 0.5, 40, +1),
    "tabulated-": (ModeShape.TABULATED, 0.0, 0.5, 40, -1),
}


def grid_record(name):
    shape, kappaL, k, J, sign = CASES[name]
    table = TABLE if shape is ModeShape.TABULATED else None
    g = build_grid(ModeProfile(shape, kappaL, table=table), sign, k, J)
    a = g.arrays
    return {
        "points": [float(x) for x in g.points],
        "turning_points": list(g.turning_points),
        "alpha": g.alpha,
        "segments": [[tuple(Regime)[code].value, *values] for code, *values
                     in zip(a.code.tolist(), a.x_lo.tolist(),
                            a.x_hi.tolist(), a.z_ref.tolist(), a.b.tolist())],
    }


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _close(got, want, scale):
    return abs(got - want) <= TABULATED_REL_TOL * scale


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_matches_golden(name):
    want = _load()[name]
    got = grid_record(name)
    if CASES[name][0] is not ModeShape.TABULATED:
        assert got == want
        return
    assert [s[0] for s in got["segments"]] == [s[0] for s in want["segments"]]
    assert len(got["points"]) == len(want["points"])
    assert len(got["turning_points"]) == len(want["turning_points"])
    x_scale = max(abs(x) for x in want["points"])
    xs_got = got["points"] + got["turning_points"]
    xs_want = want["points"] + want["turning_points"]
    assert all(_close(a, b, x_scale) for a, b in zip(xs_got, xs_want))
    assert _close(got["alpha"], want["alpha"], abs(want["alpha"]))
    z_scale = max(abs(s[3]) for s in want["segments"])
    b_scale = max(abs(s[4]) for s in want["segments"])
    for (_, xlo, xhi, z, b), (_, xlo0, xhi0, z0, b0) in zip(
            got["segments"], want["segments"]):
        assert _close(xlo, xlo0, x_scale) and _close(xhi, xhi0, x_scale)
        assert _close(z, z0, z_scale) and _close(b, b0, b_scale)


def test_golden_covers_demotion_and_turning_points():
    # the configurations exercise what the grid builder does per interval
    golden = _load()
    assert any(s[0] == "flat_allowed" and s[4] != 0.0
               for s in golden["gauss+"]["segments"])
    assert all(golden[name]["turning_points"]
               for name in ("sech2+", "gauss+", "sin+", "sin2-",
                            "tabulated+", "tabulated-"))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: grid_record(name) for name in CASES}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
