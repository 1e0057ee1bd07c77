"""Independent analytic references for validating the segment solver.

Three sources: the exact amplitudes for the smooth sech2 barrier/well, the
textbook rectangular barrier/well (where the segment method itself is
exact, making the comparison an end-to-end anchor), and the WKB phase
estimate for the first excited sinusoidal mode.

Conventions match the solver: unit-amplitude incidence from the left,
potential +-u(x)/2 in units where energy is (k_over_kappa)^2/2.

The sech2 amplitudes take their complex log Gamma from scipy.special
(:func:`log_gamma_complex`), and the WKB estimate its quadrature from
scipy.integrate; each is imported on its first call only, so importing
the package loads no scipy module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "OracleResult",
    "WkbPrediction",
    "log_gamma_complex",
    "sech2_analytic",
    "mesa_analytic",
    "wkb_first_excited",
]


@dataclass(frozen=True)
class OracleResult:
    t: complex
    r: complex

    @property
    def unitarity_defect(self) -> float:
        return abs(abs(self.t) ** 2 + abs(self.r) ** 2 - 1.0)


@dataclass(frozen=True)
class WkbPrediction:
    """Phase-integral estimate for the first excited sinusoidal mode."""

    delta: float
    P_em: float
    period: float


def _check_inputs(k_over_kappa: float, kappaL: float, branch: int) -> None:
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    if not kappaL >= 0.0:
        raise ValueError("kappaL must be nonnegative")
    if not k_over_kappa > 0.0:
        raise ValueError("k_over_kappa must be positive")


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma for complex argument.

    Raises on the poles (nonpositive integers on the real axis); large
    imaginary parts up to ~1e6 stay accurate through scipy's implementation.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise ValueError(f"log gamma pole at {z!r}")
    # imported here: scipy.special takes about 0.25 s to load, which no
    # solve and no command without a sech2 oracle needs
    from scipy.special import loggamma

    out = complex(loggamma(z))
    if math.isnan(out.real) or math.isnan(out.imag):
        raise ValueError(f"log gamma failed at {z!r}")
    return out


def sech2_analytic(k_over_kappa: float, kappaL: float, branch: int) -> OracleResult:
    """Exact t, r for the potential branch * sech^2(x/L)/2.

    The textbook result for phi'' + (k^2 - s*sech^2(x/L))*phi = 0 in Gamma
    functions, with xi = sqrt(s*L^2 - 1/4) continued to imaginary values
    for the well and for barriers shorter than 1/2; evaluated in log space
    so large L does not overflow.
    """
    _check_inputs(k_over_kappa, kappaL, branch)
    if kappaL == 0.0:
        return OracleResult(1.0 + 0.0j, 0.0 + 0.0j)
    kL = k_over_kappa * kappaL
    xi = cmath.sqrt(complex(branch * kappaL * kappaL - 0.25))
    lt = (log_gamma_complex(0.5 - 1j * (kL + xi))
          + log_gamma_complex(0.5 - 1j * (kL - xi))
          - log_gamma_complex(-1j * kL)
          - log_gamma_complex(1.0 - 1j * kL))
    t = cmath.exp(lt)
    try:
        # one exp of the summed logs: at large L, t underflows while the
        # factor that takes it to r overflows
        r = cmath.exp(
            lt
            + log_gamma_complex(1j * kL)
            + log_gamma_complex(1.0 - 1j * kL)
            - log_gamma_complex(0.5 + 1j * xi)
            - log_gamma_complex(0.5 - 1j * xi))
    except ValueError:
        # Gamma pole in the denominator: reflectionless configuration
        r = 0.0 + 0.0j
    return OracleResult(t, r)


def mesa_analytic(k_over_kappa: float, kappaL: float, branch: int) -> OracleResult:
    """Exact t, r for a rectangular barrier/well of height branch/2 on
    [0, kappaL], written through k' = sqrt(k^2 - branch) so allowed and
    tunneling cases share one expression."""
    _check_inputs(k_over_kappa, kappaL, branch)
    k, a = k_over_kappa, kappaL
    if a == 0.0:
        return OracleResult(1.0 + 0.0j, 0.0 + 0.0j)
    kp = cmath.sqrt(complex(k * k - branch))
    # sin(kp*a)/kp stays finite as kp -> 0 (k'a series)
    if abs(kp) * a < 1e-8:
        s = complex(a)
        c = complex(1.0)
    else:
        s = cmath.sin(kp * a) / kp
        c = cmath.cos(kp * a)
    t = 2.0 * cmath.exp(-1j * k * a) / (2.0 * c - 1j * (k * k + kp * kp) * s / k)
    r = -1j * ((k * k - kp * kp) / (2.0 * k)) * s * t * cmath.exp(1j * k * a)
    return OracleResult(t, r)


def wkb_first_excited(k_over_kappa: float, kappaL: float) -> WkbPrediction:
    """Phase-integral P_em for the first excited sinusoidal mode.

    The accumulated branch phase difference is
    delta = kappaL * (1/pi) * Integral_0^{pi/2} sqrt(k^2 + cos x) dx
    and the prediction is P_em = sin^2(delta), oscillating in kappaL with
    period 2*pi*kappaL/delta (about 16.3 at k_over_kappa = 0.1).
    """
    if not k_over_kappa >= 0.0 or not kappaL >= 0.0:
        raise ValueError("inputs must be nonnegative")
    # imported here: scipy.integrate loads scipy.linalg too, about 0.1 s
    # that no solve needs
    from scipy.integrate import quad

    k2 = k_over_kappa * k_over_kappa
    integral, _ = quad(lambda x: math.sqrt(k2 + math.cos(x)), 0.0, 0.5 * math.pi,
                       epsabs=1e-12, epsrel=1e-12, limit=200)
    rate = integral / math.pi          # delta per unit length
    delta = kappaL * rate
    return WkbPrediction(
        delta=delta,
        P_em=math.sin(delta) ** 2,
        period=2.0 * math.pi / rate,
    )
