"""Reconstruct the steady-state amplitude through a sech2 cavity.

Solves the well branch for a slow atom, samples the amplitude across
the interaction window plus a margin on both sides, and writes the
profile to wavefunction_profile.csv in the current directory. Inside
the classically allowed core the density oscillates; in the incoming
region the standing-wave beat against the reflected wave is visible.
"""

import csv

import numpy as np

from mazersim import ModeProfile, ModeShape, build_grid, solve_scattering
from mazersim.transfer import wavefunction


def main() -> None:
    k, kappaL, J = 0.1, 6.0, 300
    profile = ModeProfile(ModeShape.SECH2, kappaL)
    grid = build_grid(profile, -1, k, J)
    result = solve_scattering(grid)
    print(f"|t|^2 = {abs(result.t) ** 2:.6f}  |r|^2 = {abs(result.r) ** 2:.6f}")
    print(f"unitarity defect {result.unitarity_defect:.2e}")

    lo, hi = grid.window
    xs = np.linspace(lo - kappaL, hi + kappaL, 801)
    samples = wavefunction(grid, xs)

    out = "wavefunction_profile.csv"
    with open(out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "re_psi", "im_psi", "abs2_psi"])
        for x, psi in samples:
            writer.writerow([x, psi.real, psi.imag, abs(psi) ** 2])
    print(f"{len(samples)} samples written to {out}")

    dens = np.array([abs(psi) ** 2 for _, psi in samples])
    peak = dens.max()
    print(f"peak density {peak:.4f} at x = {xs[dens.argmax()]:.3f}")


if __name__ == "__main__":
    main()
