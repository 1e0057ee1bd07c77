"""Bessel and gamma kernels for the segment basis functions.

Only four cylinder families at the two orders 1/3 and 2/3 are ever needed.
The modified functions come back exponentially scaled (e**-y I and e**+y K,
scipy's ``ive``/``kve``), so they stay finite deep inside classically
forbidden regions, where I and K carry factors like e**40000; the caller
keeps the exponent y as a log scale of its own.
"""

from __future__ import annotations

import enum
import math

from scipy import special as _sp

__all__ = ["BesselKind", "ORDER_THIRD", "ORDER_TWO_THIRDS", "cyl_bessel", "log_gamma_complex"]

ORDER_THIRD = 1.0 / 3.0
ORDER_TWO_THIRDS = 2.0 / 3.0
_ORDERS = (ORDER_THIRD, ORDER_TWO_THIRDS)

# scipy's scaled I/K go NaN somewhere past 1e9; refuse before that
ARG_LIMIT = 2.0e9


class BesselKind(enum.Enum):
    J = "J"
    Y = "Y"
    I = "I"
    K = "K"


def cyl_bessel(kind: BesselKind, order: float, y: float) -> float:
    """Evaluate one cylinder function at positive real argument.

    Parameters
    ----------
    kind : BesselKind
        J, Y (oscillatory) or I, K (modified).
    order : float
        1/3 or 2/3 only.
    y : float
        Argument, strictly positive.

    Returns
    -------
    float
        J or Y as they are; I and K exponentially scaled, e**-y I(y) and
        e**+y K(y), the only forms that survive y beyond ~700.
    """
    if order not in _ORDERS:
        raise ValueError(f"unsupported order {order!r}; need 1/3 or 2/3")
    if not (y > 0.0) or not math.isfinite(y):
        raise ValueError(f"argument must be positive and finite, got {y!r}")
    if kind in (BesselKind.I, BesselKind.K) and y > ARG_LIMIT:
        raise ValueError(f"argument {y:g} beyond scaled-Bessel reliability limit")

    if kind is BesselKind.J:
        return float(_sp.jv(order, y))
    if kind is BesselKind.Y:
        return float(_sp.yv(order, y))
    m = float(_sp.ive(order, y) if kind is BesselKind.I else _sp.kve(order, y))
    if math.isnan(m):
        raise ValueError(f"scaled {kind.value}({order}, {y:g}) not representable")
    return m


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma for complex argument.

    Raises on the poles (nonpositive integers on the real axis); large
    imaginary parts up to ~1e6 stay accurate through scipy's implementation.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise ValueError(f"log gamma pole at {z!r}")
    out = complex(_sp.loggamma(z))
    if math.isnan(out.real) or math.isnan(out.imag):
        raise ValueError(f"log gamma failed at {z!r}")
    return out
