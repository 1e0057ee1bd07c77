"""The Bessel kernel of the sloped segment basis.

A sloped segment needs one family of cylinder functions at the two orders
1/3 and 2/3: J and Y on the classically allowed side, I and K on the
forbidden side.  :func:`cyl_bessel` returns all four values of a family at
every argument y >= BAND_MIN of an array, in one (4, ...) layout, from two
bands, each one numpy pass with no scipy call:

* BAND_MIN <= y <= HANKEL_MIN (1 to 20): fitted polynomial pieces of four
  smooth functions per family, in the modulus-phase form of DLMF 10.18
  for J, Y; the coefficients come from ``tools/fit_bessel_band.py``
  (mpmath at 40 digits) and are kept in ``_bessel_band`` as a literal;
* y > HANKEL_MIN: the Hankel expansions (DLMF 10.17.3-4 and 10.40.1-2),
  where 25 terms reach double precision.

The modified functions come back exponentially scaled (e**-y I and
e**+y K), so they stay finite deep inside classically forbidden regions,
where I and K carry factors like e**40000; the caller keeps the exponent
y as a log scale of its own.  Below BAND_MIN the sloped basis sums its
turning-point series instead (``segment_basis``).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import _bessel_band

__all__ = ["BesselArgumentError", "BesselFamily", "cyl_bessel", "poly_rows"]

# Largest argument of the scaled I, K.  Sloped segments are demoted to
# flat ones before their argument reaches it.
ARG_LIMIT = 1.0e9

# Arguments above this take the Hankel expansions.  Term k of the sums at
# orders 1/3 and 2/3 falls below 2**-56 for y >= 20 once k >= 25, close
# to the optimal truncation, whose error is about e**-2y = 4e-18 here.
HANKEL_MIN = 20.0
_HANKEL_TERMS = 25


def _hankel_coefficients() -> np.ndarray:
    """a_k(nu) of DLMF 10.17.1 at nu = 1/3, 2/3, split into the even and
    odd k that the two Hankel sums take: rows [even 1/3, odd 1/3,
    even 2/3, odd 2/3], column j holding a_2j or a_2j+1."""
    half = (_HANKEL_TERMS + 1) // 2
    out = np.zeros((4, half))
    for row, nu in ((0, 1.0 / 3.0), (2, 2.0 / 3.0)):
        a = 1.0
        for k in range(_HANKEL_TERMS):
            out[row + k % 2, k // 2] = a
            a *= (4.0 * nu * nu - (2 * k + 1) ** 2) / (8.0 * (k + 1))
    return out


_HANKEL_A = _hankel_coefficients()
# cos and sin of the phase shifts (nu/2 + 1/4) pi = 5 pi/12 and 7 pi/12
_COS_SHIFT = np.array([[math.cos(5.0 * math.pi / 12.0)],
                       [math.cos(7.0 * math.pi / 12.0)]])
_SIN_SHIFT = np.array([[math.sin(5.0 * math.pi / 12.0)],
                       [math.sin(7.0 * math.pi / 12.0)]])


class BesselFamily(enum.Enum):
    JY = "JY"   # oscillatory J, Y
    IK = "IK"   # modified I, K, exponentially scaled


# The pieces of the fitted band: piece i covers [EDGES[i], EDGES[i + 1]]
# in the local variable v = (y - mid) * inv_half on [-1, 1]; each family
# has a (pieces, 4, terms) table of coefficients in powers of v, rows
# [A_1/3, A_2/3, phi_1/3, phi_2/3] for JY and [e**-y I sqrt(2 pi y) at
# 1/3, 2/3, e**y K sqrt(2y / pi) at 1/3, 2/3] for IK.
_BAND_EDGES = np.array(_bessel_band.EDGES)
_BAND_INNER = _BAND_EDGES[1:-1]
_BAND_MID = 0.5 * (_BAND_EDGES[:-1] + _BAND_EDGES[1:])
_BAND_INV_HALF = 2.0 / (_BAND_EDGES[1:] - _BAND_EDGES[:-1])
_BAND = dict(zip(BesselFamily, np.array(
    _bessel_band.COEFFICIENTS.split(), dtype=float).reshape(
        2, _BAND_EDGES.size - 1, 4, _bessel_band.DEGREE + 1)))
# Smallest argument of cyl_bessel, the first edge of the fitted band; it
# lies under the first zero of Y_1/3 (y = 1.36), and the sloped basis
# takes its turning-point series below it.
BAND_MIN = float(_BAND_EDGES[0])
# (2, quadrants) high and low parts of (nu/2 + 1/4 + n/2) pi, and the signs
# of cos(r + n pi/2) = +-cos r or +-sin r, sin likewise, by n mod 4
_PHASE_HI, _PHASE_LO = np.moveaxis(np.array(_bessel_band.PHASES), -1, 0)
_ORDER_ROWS = np.arange(2)[:, None]
_N0 = -_bessel_band.QUADRANTS[0]     # the column of n = 0
_COS_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
_SIN_SIGN = np.array([1.0, 1.0, -1.0, -1.0])
# arguments from which a power table is filled by column (see _powers)
_COLUMN_FILL_MIN = 256


class BesselArgumentError(ValueError):
    """An argument of :func:`cyl_bessel` outside its domain.

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
        Finite arguments of at least BAND_MIN = 1; at most ARG_LIMIT for IK.

    Returns
    -------
    ndarray of shape (4, *y.shape)
        [J_1/3, J_2/3, Y_1/3, Y_2/3] for JY.  [I_1/3, I_2/3, K_1/3, K_2/3]
        for IK, exponentially scaled, e**-y I(y) and e**+y K(y).

    Each argument up to HANKEL_MIN takes the fitted pieces
    (:func:`_fitted`), each one above it the Hankel expansions
    (:func:`_hankel`): J, Y to about 1e-15 (fitted) and 2e-15 (Hankel)
    of the modulus sqrt(J**2 + Y**2), the scaled I, K as close relative
    to their values.  An argument's values do not depend on the batch it
    comes in.

    Raises
    ------
    BesselArgumentError
        A ValueError whose ``entry`` is the flat index of the first
        argument outside the domain.
    """
    y = np.asarray(y, dtype=float)
    top = ARG_LIMIT if family is BesselFamily.IK else math.inf
    bad = np.ravel(~((y >= BAND_MIN) & (y <= top) & (y < math.inf)))
    if bad.any():
        i = int(np.argmax(bad))
        raise BesselArgumentError(
            f"argument must be finite and lie in [{BAND_MIN}, {top}]: "
            f"y = {float(y.flat[i])!r} at entry {i}", i)
    flat = y.ravel()
    hankel = flat > HANKEL_MIN
    if not hankel.any():
        out = _fitted(family, flat)
    elif hankel.all():
        out = _hankel(family, flat)
    else:
        # a batch within one band, the common case, skips this gather
        # and scatter, about 10 us at 300 arguments
        out = np.empty((4, flat.size))
        out[:, ~hankel] = _fitted(family, flat[~hankel])
        out[:, hankel] = _hankel(family, flat[hankel])
    return out.reshape((4,) + y.shape)


def _fitted(family: BesselFamily, y: np.ndarray) -> np.ndarray:
    """The (4, y.size) values of the band [BAND_MIN, HANKEL_MIN] at the
    1-d arguments y, from the polynomial of each argument's piece, all in
    one power table and one einsum over each argument's own coefficients.

    For JY the four fitted functions are A = (J**2 + Y**2) pi y / 2 and
    phi = theta - (y - (nu/2 + 1/4) pi) at each order, so with
    M = sqrt(2 A / (pi y)) the values are J = M cos theta and
    Y = M sin theta.  For IK they are the scaled I, K times
    sqrt(2 pi y) and sqrt(2y / pi).
    """
    piece = np.searchsorted(_BAND_INNER, y, side="right")
    v = (y - _BAND_MID[piece]) * _BAND_INV_HALF[piece]
    table = _BAND[family]
    f = np.einsum("nk,nrk->rn", _powers(v, table.shape[-1]), table[piece])
    if family is BesselFamily.JY:
        return _from_modulus_phase(y, f[:2], f[2:])
    return _modified(y, f[:2], f[2:])


def _from_modulus_phase(y: np.ndarray, a: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """[J_1/3, J_2/3, Y_1/3, Y_2/3] = M cos theta, M sin theta from the
    (2, y.size) rows A and phi of the two orders.

    theta = y - (nu/2 + 1/4) pi + phi is reduced by the nearest multiple
    n pi/2 with the shift held as two doubles: y less the high part is
    exact near every zero of J or Y, so the reduced angle r, and with it
    cos r or sin r, keeps its relative accuracy there.
    """
    n = np.rint((y - _PHASE_HI[:, _N0, None] + phi) * (2.0 / math.pi)).astype(np.intp)
    at = (_ORDER_ROWS, n + _N0)
    r = (y - _PHASE_HI[at]) - _PHASE_LO[at] + phi
    cos_r, sin_r = np.cos(r), np.sin(r)
    odd = (n & 1).astype(bool)
    quadrant = n & 3
    modulus = np.sqrt(a * (2.0 / math.pi) / y)
    return np.concatenate((
        np.where(odd, sin_r, cos_r) * (modulus * _COS_SIGN[quadrant]),
        np.where(odd, cos_r, sin_r) * (modulus * _SIN_SIGN[quadrant])))


def _hankel(family: BesselFamily, y: np.ndarray) -> np.ndarray:
    """The (4, y.size) values of the band y > HANKEL_MIN at the 1-d
    arguments y, from the Hankel expansions.

    With P = sum (-1)**k a_2k / y**2k and Q = sum (-1)**k a_2k+1 / y**2k+1,
    J = m (P cos chi - Q sin chi) and Y = m (P sin chi + Q cos chi), with
    m = sqrt(2 / (pi y)) and chi = y - (nu/2 + 1/4) pi taken by the angle
    sum, so y is never rounded against the shift.  The scaled I and K are
    (E - O) / sqrt(2 pi y) and (E + O) sqrt(pi / (2y)) with E, O the even
    and odd parts of sum a_k / y**k; the e**-2y part of I is below the
    truncation error.
    """
    jy = family is BesselFamily.JY
    inv = 1.0 / y
    # the four sums are polynomials in -1/y**2 (JY) or 1/y**2 (IK)
    step = inv * inv
    sums = poly_rows(_HANKEL_A, -step if jy else step)
    even, odd = sums[0::2], sums[1::2] * inv
    if not jy:
        return _modified(y, even - odd, even + odd)
    cos_y, sin_y = np.cos(y), np.sin(y)
    cos_chi = cos_y * _COS_SHIFT + sin_y * _SIN_SHIFT
    sin_chi = sin_y * _COS_SHIFT - cos_y * _SIN_SHIFT
    scale = np.sqrt(2.0 / (math.pi * y))
    return np.concatenate((even * cos_chi - odd * sin_chi,
                           even * sin_chi + odd * cos_chi)) * scale


def _modified(y: np.ndarray, i_rows: np.ndarray, k_rows: np.ndarray) -> np.ndarray:
    """The scaled [I_1/3, I_2/3, K_1/3, K_2/3] from I sqrt(2 pi y) e**-y
    and K sqrt(2y / pi) e**y at the two orders."""
    root = np.sqrt(y)
    return np.concatenate((i_rows / (math.sqrt(2.0 * math.pi) * root),
                           k_rows * (math.sqrt(0.5 * math.pi) / root)))


def _powers(v: np.ndarray, terms: int) -> np.ndarray:
    """The (v.size, terms) table of v**k: one cumulative product along
    each row, which numpy runs row by row, or from ``_COLUMN_FILL_MIN``
    arguments on the same floats by one multiply across all v per power."""
    powers = np.empty((v.size, terms))
    columns = powers.T
    columns[0] = 1.0
    if v.size < _COLUMN_FILL_MIN:
        columns[1:] = v
        np.multiply.accumulate(powers, axis=1, out=powers)
    else:
        for k in range(1, terms):
            np.multiply(columns[k - 1], v, out=columns[k])
    return powers


def poly_rows(coefficients: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k coefficients[:, k] * v**k at every v of a 1-d array, as a
    (rows, v.size) array.

    The powers come from one (v.size, terms) table (:func:`_powers`) and
    the sums from one einsum over its rows: a few numpy calls, or on large
    batches one multiply per term, where Horner's rule would make two per
    term.  einsum sums each row the same way whatever the number of rows
    (a BLAS matrix product does not), so a value does not depend on the
    batch it is evaluated in.
    """
    return np.einsum("nk,rk->rn", _powers(v, coefficients.shape[1]), coefficients)
