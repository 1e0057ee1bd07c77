"""Direct integration of the dressed branches for any mode, a second oracle.

Computed without any of mazersim: the exact mode u(x), with no grid, no
piecewise-linear model and no segment basis.  Each dressed branch solves

    psi'' + (k^2 - sign * u(x)) psi = 0      (hbar = m = 1)

on a window [a, b] and is free outside it.  DOP853 (rtol 1e-12, atol
1e-300) integrates from the outgoing wave e^{ikx} at b back to a, where the
state splits into e^{ikx} and e^{-ikx}; their amplitudes give t and r, both
referred to x = 0.  P_em = |t_+ - t_-|^2 / 4 + |r_+ - r_-|^2 / 4.

The windows are those of the solver: [-8L, 8L] for the Gaussian (the
default window factor 16) and the support [0, L] for the sines.

Run as a script to print P_em for the Gaussian and the two sines at
k 0.1 and kappaL 2, 5, 10 and 20:

    python tests/ode_oracle.py
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp


def gaussian(L: float):
    """exp(-x^2 / (2 sigma^2)) with sigma = sqrt(2 / pi) L, the width whose
    area matches sech2, on its window [-8L, 8L]."""
    sigma = math.sqrt(2.0 / math.pi) * L
    return (lambda x: math.exp(-0.5 * (x / sigma) ** 2)), (-8.0 * L, 8.0 * L)


def sine(n: int, L: float):
    """sin(n pi x / L) on its support [0, L]."""
    return (lambda x: math.sin(n * math.pi * x / L)), (0.0, L)


def branch(u, window, k: float, sign: int, rtol: float = 1e-12):
    """(t, r) of one dressed branch of the mode u on the window."""
    a, b = window

    def rhs(x, y):
        return (y[1], (sign * u(x) - k * k) * y[0])

    out = np.exp(1j * k * b)
    sol = solve_ivp(rhs, (b, a), [out, 1j * k * out], method="DOP853",
                    rtol=rtol, atol=1e-300)
    if not sol.success:
        raise RuntimeError(sol.message)
    psi, dpsi = sol.y[:, -1]
    # psi = A e^{ika} + B e^{-ika} and dpsi = ik (A e^{ika} - B e^{-ika})
    A = 0.5 * (psi + dpsi / (1j * k)) * np.exp(-1j * k * a)
    B = 0.5 * (psi - dpsi / (1j * k)) * np.exp(1j * k * a)
    return complex(1.0 / A), complex(B / A)


def emission(mode, k: float, rtol: float = 1e-12) -> float:
    """P_em of the mode ``(u, window)`` at momentum k."""
    (t_p, r_p), (t_m, r_m) = (branch(*mode, k, sign, rtol) for sign in (+1, -1))
    return 0.25 * (abs(t_p - t_m) ** 2 + abs(r_p - r_m) ** 2)


if __name__ == "__main__":
    for name, make in (("gauss", gaussian), ("sin", lambda L: sine(1, L)),
                       ("sin2", lambda L: sine(2, L))):
        for L in (2.0, 5.0, 10.0, 20.0):
            print(f"{name:6s} kappaL {L:4g}: P_em = {emission(make(L), 0.1):.12f}")
