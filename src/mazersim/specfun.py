"""Bessel and gamma kernels for the segment basis functions.

A sloped segment needs one family of cylinder functions at the two orders
1/3 and 2/3: J and Y on the classically allowed side, I and K on the
forbidden side.  :func:`cyl_bessel` returns all four values of a family
at every argument of an array from one scipy ufunc call per function on
the order pair, which runs the same Amos kernel on each (order, argument)
as a scalar call would, so the values are bit-identical to scalar calls.
The modified functions come back exponentially
scaled (e**-y I and e**+y K, scipy's ``ive``/``kve``), so they stay finite
deep inside classically forbidden regions, where I and K carry factors like
e**40000; the caller keeps the exponent y as a log scale of its own.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy import special as _sp

__all__ = ["BesselArgumentError", "BesselFamily", "cyl_bessel", "log_gamma_complex"]

_ORDERS = np.array([1.0 / 3.0, 2.0 / 3.0])

# scipy's scaled I/K go NaN from about 1.0737e9 (just below 2**30);
# refuse before that
ARG_LIMIT = 1.0e9


class BesselFamily(enum.Enum):
    JY = "JY"   # oscillatory J, Y
    IK = "IK"   # modified I, K, exponentially scaled


class BesselArgumentError(ValueError):
    """An argument of :func:`cyl_bessel` the kernels cannot serve.

    ``entry`` is its flat index in the argument array, so a caller that
    evaluates a batch can name the item it came from.
    """

    def __init__(self, message: str, entry: int):
        super().__init__(message)
        self.entry = entry


def cyl_bessel(family: BesselFamily, y) -> np.ndarray:
    """Evaluate one family of cylinder functions at orders 1/3 and 2/3.

    Parameters
    ----------
    family : BesselFamily
        JY (oscillatory) or IK (modified).
    y : float or array of float
        Arguments, strictly positive and finite; at most ARG_LIMIT for IK.

    Returns
    -------
    ndarray of shape (4, *y.shape)
        [J_1/3, J_2/3, Y_1/3, Y_2/3] for JY.  [I_1/3, I_2/3, K_1/3, K_2/3]
        for IK, exponentially scaled, e**-y I(y) and e**+y K(y), the only
        forms that survive y beyond ~700.

    Raises
    ------
    BesselArgumentError
        A ValueError whose ``entry`` is the flat index of the first
        argument refused, or of the first whose I, K came back NaN.
    """
    y = np.asarray(y, dtype=float)
    _refuse(y, ~((y > 0.0) & (y < math.inf)), "argument must be positive and finite")
    orders = _ORDERS.reshape((2,) + (1,) * y.ndim)
    if family is BesselFamily.JY:
        return np.concatenate((_sp.jv(orders, y), _sp.yv(orders, y)))
    _refuse(y, y > ARG_LIMIT, "argument beyond scaled-Bessel reliability limit")
    out = np.concatenate((_sp.ive(orders, y), _sp.kve(orders, y)))
    _refuse(y, np.isnan(out).any(axis=0), "scaled I, K not representable")
    return out


def _refuse(y: np.ndarray, bad, message: str) -> None:
    bad = np.ravel(bad)
    if bad.any():
        i = int(np.argmax(bad))
        raise BesselArgumentError(
            f"{message}: y = {float(y.flat[i])!r} at entry {i}", i)


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
