"""Fundamental-solution pairs for linear-potential segments.

On a segment where the coefficient of the wave equation varies linearly,
``phi'' + z(x) phi = 0`` with ``z(x) = z_ref + b*(x - x_lo)``, the solution
space is spanned by a pair of real functions that depends only on the sign
of z and on whether the segment actually slopes.  Five regimes cover every
case: on the three flat ones (z == 0, z > 0, z < 0) the pair is {1, x},
{cos, sin} or {exp(-rho x), exp(+rho x)}, whose propagators the transfer
layer writes in closed form, and on the two sloped ones

* sloped, z > 0:  {sqrt(z) J_{1/3}(w), sqrt(z) Y_{1/3}(w)}
* sloped, z < 0:  {sqrt(-z) I_{1/3}(w), sqrt(-z) K_{1/3}(w)}

with w = (2 / (3|b|)) |z|^{3/2}.  :func:`basis_eval` evaluates these on a
batch: a Segment whose numeric fields are arrays, all of one sloped
regime, at an array of positions; a flat batch is refused.  Values and
x-derivatives come with one log scale s factored out: f+ and its
derivative carry e**+s, f- and its derivative e**-s.  s is w on forbidden
segments (outside the turning-point series) and 0 elsewhere, so the
growing and decaying branches both stay finite across arbitrarily wide
classically forbidden stretches.  Each entry takes one of two
representations by its argument w, each one array computation:

* w < W_SERIES_SWITCH (= 1): power series in z that remain exact at the
  turning point z = 0, summed for the whole band at once;
* w >= W_SERIES_SWITCH: one :func:`~mazersim.specfun.cyl_bessel` call,
  which returns the family (J, Y or scaled I, K) at both orders 1/3 and
  2/3 from its fitted pieces up to w = 20 and its Hankel expansions
  beyond.

The derivatives need order -2/3, which the reflection identities give
from order 2/3.  Nothing here calls scipy.  The series and the kernel,
and the kernel's two bands, agree to about 1e-14 at each switch, so
propagators never see a jump.

Every segment comes from :func:`classify_intervals`, one array pass over
the end values of intervals (:func:`build_segments` hands it a grid's
consecutive nodes) that computes the slope, the regime's
:data:`REGIME_CODE` (including the demotion of sloped segments whose
argument w passes W_FLAT_COLLAPSE to the flat regime of their midpoint
value), the flat constant and the sign-check scale, and keeps them as
:class:`SegmentArrays`; the sweep takes its batches from there with
:meth:`SegmentArrays.take`, and the grid its tuple of records, framed by
the free regions, from :meth:`SegmentArrays.records`.  A regime is always derived from the
values, so it cannot contradict them.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .specfun import BAND_MIN, BesselArgumentError, BesselFamily, cyl_bessel, poly_rows

__all__ = [
    "Regime",
    "REGIME_CODE",
    "Segment",
    "SegmentArrays",
    "BasisEval",
    "SegmentRegimeError",
    "build_segments",
    "classify_intervals",
    "basis_eval",
    "analytic_wronskian",
    "W_SERIES_SWITCH",
    "W_FLAT_COLLAPSE",
]

# Below this Bessel argument, the smallest that cyl_bessel takes, the
# power-series representation is used; it lies under the first zero of
# Y_1/3 (w = 1.36), where the series for f- would cancel.
W_SERIES_SWITCH = BAND_MIN

# Above this Bessel argument at either endpoint build_segments demotes a
# sloped segment to a flat one: the cylinder routines lose the oscillation
# phase (J, Y) or overflow their scaled forms (I, K) long before the linear
# tilt of the potential matters physically.
W_FLAT_COLLAPSE = 1.0e8

_SQRT3 = math.sqrt(3.0)

# Relative slack for the sign check in basis_eval: a turning endpoint may
# land a few ulps on the wrong side of z = 0 and is then clamped to zero.
_SIGN_SLACK = 1.0e-9


class SegmentRegimeError(ValueError):
    """The local value of z contradicts the segment's regime."""


class Regime(enum.Enum):
    FLAT_FREE = "flat_free"
    FLAT_ALLOWED = "flat_allowed"
    FLAT_FORBIDDEN = "flat_forbidden"
    SLOPE_ALLOWED = "slope_allowed"
    SLOPE_FORBIDDEN = "slope_forbidden"


# a regime's code in SegmentArrays.code is its definition order above:
# the flat regimes first, sloped forbidden one above sloped allowed
_REGIME_OF_CODE = tuple(Regime)
REGIME_CODE = {regime: code for code, regime in enumerate(_REGIME_OF_CODE)}


class Segment(NamedTuple):
    """Pieces of the piecewise-linear coefficient z(x), all of one regime:
    a batch from :meth:`SegmentArrays.take`, whose numeric fields are
    arrays, or a record of floats from :meth:`SegmentArrays.records`.

    Every field derives from the node values.  The left end ``x_lo``
    anchors the basis functions, z(x) = z_ref + b*(x - x_lo), which keeps
    every evaluation numerically local even when x itself is ~1e5.
    ``z_ref`` is z at the anchor, kept as sampled because recomputing it
    would shred the tiny z values near turning points.
    ``z_flat`` is the constant of the flat regimes (z at the midpoint, the
    best single value for a demoted stretch), ``z_scale`` the larger |z| at
    the two ends, which scales the sign check of :func:`basis_eval`.
    """

    x_lo: float
    x_hi: float
    b: float
    regime: Regime
    z_ref: float
    z_flat: float
    z_scale: float


class BasisEval(NamedTuple):
    """Values and x-derivatives of the two fundamental solutions, one
    array entry per evaluation.

    The true values are f_plus * e**s, f_minus * e**-s, g_plus * e**s and
    g_minus * e**-s; the Wronskian f+ g- - f- g+ needs no scale at all.
    """

    f_plus: np.ndarray
    f_minus: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    s: np.ndarray


class SegmentArrays(NamedTuple):
    """The segments between the nodes of a grid as arrays, one entry per
    segment, left to right.

    ``code`` is the segment's regime as its :data:`REGIME_CODE`; the other
    fields are those of :class:`Segment`.  The sweep takes its batches of
    sloped segments from here, so it never reads them record by record.
    """

    code: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    b: np.ndarray
    z_ref: np.ndarray
    z_flat: np.ndarray
    z_scale: np.ndarray

    def take(self, idx, regime: Regime) -> Segment:
        """The segments at ``idx``, all of ``regime``, as one batch: a
        Segment whose numeric fields are arrays."""
        return Segment(self.x_lo[idx], self.x_hi[idx], self.b[idx], regime,
                       self.z_ref[idx], self.z_flat[idx], self.z_scale[idx])

    def records(self, z_free: float) -> tuple[Segment, ...]:
        """One Segment of Python floats per entry, framed by the two
        semi-infinite free segments z = z_free beyond the nodes, whose
        plane waves define the scattering amplitudes; z_free must be
        positive.
        """
        x_lo = self.x_lo.tolist()
        segments = map(
            Segment, x_lo, self.x_hi.tolist(), self.b.tolist(),
            map(_REGIME_OF_CODE.__getitem__, self.code.tolist()),
            self.z_ref.tolist(), self.z_flat.tolist(), self.z_scale.tolist())
        if not 0.0 < z_free < math.inf:
            raise ValueError(f"free coefficient z = {z_free} carries no plane wave")
        free = (0.0, Regime.FLAT_ALLOWED, z_free, z_free, z_free)
        return (Segment(-math.inf, x_lo[0], *free), *segments,
                Segment(self.x_hi[-1].item(), math.inf, *free))


def build_segments(x, z) -> SegmentArrays:
    """Segments between consecutive finite nodes ``x`` with coefficients ``z``.

    Each interval is anchored at its left node and classified in one array
    pass.  A level interval (b = 0) takes the flat regime of its value.  A
    sloped interval whose cylinder argument exceeds W_FLAT_COLLAPSE at
    either end is demoted to the flat regime of its midpoint value; every
    other sloped interval takes the sloped regime of its sign.  A sign
    change of z inside an interval raises ValueError: a turning point must
    be a node.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return classify_intervals(x[:-1], x[1:], z[:-1], z[1:])


def classify_intervals(x_lo, x_hi, z_lo, z_hi) -> SegmentArrays:
    """:func:`build_segments` of the intervals [x_lo[i], x_hi[i]], with z_lo
    and z_hi at their ends: float arrays of one length, each interval
    classified alone, so the intervals of several grids take one call."""
    cross = z_lo * z_hi < 0.0
    if np.count_nonzero(cross):
        i = int(np.argmax(cross))
        raise ValueError(
            f"coefficient changes sign inside a segment (z: {z_lo[i]} .. "
            f"{z_hi[i]} on [{x_lo[i]}, {x_hi[i]}]); a turning point must be "
            "a segment endpoint")
    b = (z_hi - z_lo) / (x_hi - x_lo)
    z_scale = np.maximum(np.abs(z_lo), np.abs(z_hi))
    level = b == 0.0
    # w grows with |z|, so its larger end value is w at z_scale; only a
    # sloped segment divides, so a level one raises no 0/0.  A slope so
    # shallow that w overflows, as across the long tails of sech2 and the
    # Gaussian, gives w = inf, which only demotes the segment to flat
    w_max = 2.0 * z_scale * np.sqrt(z_scale)
    with np.errstate(over="ignore"):
        np.divide(w_max, 3.0 * np.abs(b), out=w_max, where=~level)
    flat = level | (w_max > W_FLAT_COLLAPSE)
    z_flat = z_lo + b * (0.5 * (x_lo + x_hi) - x_lo)
    z_sign = np.where(flat, z_flat, z_lo + z_hi)
    neg = z_sign < 0.0
    # REGIME_CODE's order: flat 0, 1 or 2 for z = 0, > 0 or < 0; sloped,
    # the allowed code for z > 0 and the next for z < 0
    code = neg + np.where(flat, (z_sign > 0.0) | neg,
                          REGIME_CODE[Regime.SLOPE_ALLOWED])
    return SegmentArrays(code, x_lo, x_hi, b, z_lo, z_flat, z_scale)


def _is_allowed(seg: Segment) -> bool:
    """Whether ``seg`` is sloped allowed rather than sloped forbidden; a
    flat regime has no Bessel basis and raises ValueError naming it."""
    if seg.regime is Regime.SLOPE_ALLOWED:
        return True
    if seg.regime is Regime.SLOPE_FORBIDDEN:
        return False
    raise ValueError(f"{seg.regime.value} segments have no Bessel basis; the "
                     "transfer layer propagates them in closed form")


def analytic_wronskian(seg: Segment):
    """Exact Wronskian f+ g- - f- g+ of the basis pair of a sloped segment
    or batch: 3b/pi on allowed segments, 3b/2 on forbidden ones.

    Constant across the segment; propagators divide by it instead of
    differencing two nearly equal products.
    """
    return 3.0 * seg.b / math.pi if _is_allowed(seg) else 1.5 * seg.b


# --- power series around a turning point --------------------------------
#
# With u = (w/2)^2 = z^3 / (9 b^2) the two building blocks on the allowed
# side (z >= 0) are
#
#   P(z)  = (3|b|)^{-1/3} z  * sum_m (-u)^m / (m! Gamma(4/3 + m))
#   Q(z)  = (3|b|)^{+1/3}    * sum_m (-u)^m / (m! Gamma(2/3 + m))
#
# in terms of which f+ = P, f- = (2/sqrt3)(P/2 - Q).  On the forbidden side
# the same sums without the alternating sign give Pt, Qt of zeta = -z, and
# f+ = Pt, f- = (pi/sqrt3)(Qt - Pt).  Derivatives follow term by term.
# Using u instead of z^3 avoids underflow.  u < (W_SERIES_SWITCH/2)^2 =
# 1/4, so the terms from m = 16 on add less than 1e-30 relative.

_SERIES_TERMS = 16
_NORMAL_MIN = np.finfo(float).tiny


def _series_coefficients() -> np.ndarray:
    """Coefficients of the four sums of :func:`_basis_series` in powers
    of v = -u (allowed) or u (forbidden): rows 1/(m! G(4/3+m)),
    1/(m! G(2/3+m)), (3m+1)/(m! G(4/3+m)) and 3(m+1)/((m+1)! G(5/3+m))."""
    g43 = np.empty(_SERIES_TERMS + 1)
    g23 = np.empty(_SERIES_TERMS + 1)
    g43[0] = 1.0 / math.gamma(4.0 / 3.0)
    g23[0] = 1.0 / math.gamma(2.0 / 3.0)
    for m in range(1, _SERIES_TERMS + 1):
        g43[m] = g43[m - 1] / (m * (m + 1.0 / 3.0))
        g23[m] = g23[m - 1] / (m * (m - 1.0 / 3.0))
    m = np.arange(_SERIES_TERMS)
    return np.stack((g43[:-1], g23[:-1], (3.0 * m + 1.0) * g43[:-1],
                     3.0 * (m + 1.0) * g23[1:]))


_SERIES_C = _series_coefficients()


def _basis_series(b: np.ndarray, t: np.ndarray, w: np.ndarray,
                  allowed: bool) -> tuple:
    """(f+, f-, f+', f-') of sloped segments with slopes b at |z| = t and
    argument w below W_SERIES_SWITCH, as four arrays."""
    cb = np.cbrt(3.0 * np.abs(b))
    u = 0.25 * w * w
    s_p, s_q, s_dp, s_dq = poly_rows(_SERIES_C, -u if allowed else u)
    p = t * s_p / cb
    q = cb * s_q
    dp = s_dp / cb
    # the Q' sum starts at u^1: one power of u comes back as t^2 / (9 b^2).
    # On the shallowest slopes 9 b^2 is below the normal floats; there the
    # ratio is (t / cb^2)^2 / cb^2, since cb^6 = 9 b^2
    nine_b2 = 9.0 * b * b
    normal = nine_b2 >= _NORMAL_MIN
    r = t / (cb * cb)
    dq = np.where(normal, cb * t * t / np.where(normal, nine_b2, 1.0),
                  cb * (r * r / (cb * cb))) * s_dq
    if allowed:
        return (p, (2.0 / _SQRT3) * (0.5 * p - q),
                b * dp, (2.0 / _SQRT3) * b * (0.5 * dp + dq))
    return (p, (math.pi / _SQRT3) * (q - p),
            -b * dp, -(math.pi / _SQRT3) * b * (dq - dp))


def _segment_at(seg: Segment, x, shape: tuple[int, ...], i: int) -> str:
    """Names the segment, its x and its regime at flat index i of an
    evaluation of ``shape``, whose last axis runs over the segments."""
    at = np.unravel_index(i, shape)
    x_at = float(np.broadcast_to(x, shape)[at])
    return f"{seg.regime.value} segment {int(at[-1])} at x = {x_at!r}"


def basis_eval(seg: Segment, x) -> BasisEval:
    """Evaluate (f+, f-, f+', f-') and their log scale s on a sloped batch.

    ``seg`` is a batch of segments of one sloped regime (see
    :meth:`SegmentArrays.take`) whose numeric fields broadcast against
    ``x`` with the segment axis last; the five results are arrays of that
    shape.  Each entry takes the turning-point series below
    W_SERIES_SWITCH and the one cyl_bessel call of the batch at or above
    it.  x may be a hair outside [x_lo, x_hi] (endpoint roundoff) but the
    local coefficient must match the regime's sign up to turning-point
    slack.  A flat batch raises ValueError naming its regime, and an error
    raised inside a batch names the segment's index in it, its x and its
    regime.
    """
    allowed = _is_allowed(seg)
    b = seg.b
    z = np.atleast_1d(seg.z_ref + b * (x - seg.x_lo))
    slack = _SIGN_SLACK * np.maximum(seg.z_scale, 1.0e-300)
    wrong = z < -slack if allowed else z > slack
    if wrong.any():
        i = int(np.argmax(wrong))
        raise SegmentRegimeError(
            f"z = {float(z.flat[i])!r} {'<' if allowed else '>'} 0 in "
            f"{_segment_at(seg, x, z.shape, i)}")
    # |z|, with z within the slack of the wrong sign clamped to zero
    t = np.maximum(z if allowed else -z, 0.0)
    w = 2.0 * t * np.sqrt(t) / (3.0 * np.abs(b))
    series = w < W_SERIES_SWITCH
    kernel = ~series
    cyl = np.zeros((4,) + w.shape)
    if kernel.any():
        try:
            cyl[:, kernel] = cyl_bessel(
                BesselFamily.JY if allowed else BesselFamily.IK, w[kernel])
        except BesselArgumentError as exc:
            i = int(np.flatnonzero(kernel)[exc.entry])
            raise ValueError(f"{_segment_at(seg, x, w.shape, i)}: {exc}") from exc
    c13, c23, d13, d23 = cyl
    root = np.sqrt(t)
    ts = np.where(b > 0.0, t, -t)
    if allowed:
        # J, Y at order -2/3 via the reflection identities for order 2/3
        jm23 = -0.5 * c23 - (_SQRT3 / 2.0) * d23
        ym23 = (_SQRT3 / 2.0) * c23 - 0.5 * d23
        out = [root * c13, root * d13, ts * jm23, ts * ym23, np.zeros_like(w)]
    else:
        # scaled forms: I carries e**w, K carries e**-w, so s = w.
        # I_{-2/3} = I_{2/3} + (sqrt3/pi) K_{2/3}; the K term is e**-2w down
        im23 = c23 + (_SQRT3 / math.pi) * d23 * np.exp(-2.0 * w)
        out = [root * c13, root * d13, -ts * im23, ts * d23,
               np.where(series, 0.0, w)]
    if series.any():
        values = _basis_series(np.broadcast_to(b, w.shape)[series], t[series],
                               w[series], allowed)
        for arr, value in zip(out, values):
            arr[series] = value
    return BasisEval(*out)
