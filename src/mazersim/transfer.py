"""Segment propagators, their ordered product, and amplitude extraction.

The wavefunction and its derivative are continuous, so the node state
(phi, phi') is shared by the two segments meeting at a node and the joins
are identities.  Inside a segment the exact basis carries the state from
one end to the other through the 2x2 propagator M(x_to) M(x_from)^-1.
Chaining the propagators from the outgoing side back to the incoming side
turns the two-point boundary problem into one ordered product
P_0 P_1 ... P_{n-1} applied to the outgoing wave; the state it gives at
the first node yields the complex transmission and reflection amplitudes.

Forbidden regions make the state grow like exp(rho*dx), far beyond float
range at large interaction lengths.  Each propagator therefore comes with
its dominant exponential e**|s_to - s_from| factored out of the basis
scales analytically, so every entry is O(1) and the factor is a float log.

The propagators are formed first from the grid's segment arrays, as one
table of five entries per segment: one batch per sloped regime, where one
``basis_eval`` call covers both ends of every segment of the regime, and a
closed form per flat segment (a shear, a rotation, or scaled cosh and
sinh), which needs no basis evaluation at all.  Every row is an
elementwise function of its own segment, so a pass over the concatenated
arrays of several grids (:func:`sweep_products`) gives each grid the
floats of a pass over it alone.

The product is associated as a pairwise tree over all the grids of a
batch at once (:func:`sweep_products`), each grid padded at its end with
identity entries.  After each level every product is divided by the power
of two that brings its largest entry into [1, 2), the exponents kept as
integers beside the summed log factors.  Identity padding and power-of-two
scaling are exact, so a grid's product does not depend on its batch, and
a lone :func:`solve_scattering` is a batch of one.  Scaling by the
largest entry loses the smallest of a flat rotation's, a factor k^2
below it, so ``grid.K_OVER_KAPPA_MAX`` bounds k.

:func:`sweep` is the recording path: a loop over Python floats that
applies the same propagators one by one and keeps the node state at every
node.  :func:`wavefunction` runs it, normalises by the incoming amplitude
it reads out, and forms the propagators from the nodes to all its samples
in one call, a sample in a free region being a flat entry with z = k^2.
It forms no product.  The two asymptotic free regions are the plane
waves cos kx and sin kx, so the outgoing wave is seeded and the incoming
amplitudes are read out in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Grid
from .segment_basis import (
    Regime,
    Segment,
    SegmentArrays,
    analytic_wronskian,
    basis_eval,
)

__all__ = [
    "ScatterResult",
    "TransferError",
    "solve_scattering",
    "sweep",
    "sweep_products",
    "wavefunction",
]

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)

# (regime, code) of the sloped regimes; SegmentArrays.code numbers the
# regimes in their definition order, the flat ones first
_SLOPED_CODES = tuple((regime, list(Regime).index(regime))
                      for regime in (Regime.SLOPE_ALLOWED, Regime.SLOPE_FORBIDDEN))
_FIRST_SLOPED_CODE = min(code for _, code in _SLOPED_CODES)
# the code of a flat segment with z > 0, which a free-region sample takes
_PLANE_WAVE_CODE = list(Regime).index(Regime.FLAT_ALLOWED)


class TransferError(Exception):
    """Collapsed or non-finite node state, or degenerate amplitude extraction."""


# (phi, dphi, log_scale) at one node, true values being phi and dphi times
# e**log_scale
NodeState = tuple[complex, complex, float]
# (p11, p12, p21, p22, log_factor, exponent) of a grid's propagator
# product, the true matrix being the four entries times
# e**log_factor * 2**exponent
Product = tuple[float, float, float, float, float, int]


@dataclass(frozen=True)
class ScatterResult:
    """Amplitudes for unit-amplitude incidence from the left.

    When |t| underflows double precision the field ``t`` is exactly 0 and
    ``t_log10_mag`` still carries its magnitude; ``unitarity_defect`` is a
    diagnostic the caller should surface, not clamp.
    """

    t: complex
    r: complex
    unitarity_defect: float
    t_log10_mag: float
    log10_scale: float


def _sloped_propagators(seg: Segment, x_from: np.ndarray,
                        x_to: np.ndarray) -> tuple:
    """Block-scaled maps of (phi, phi') at x_from to (phi, phi') at x_to
    on a batch of one sloped regime, x_from and x_to arrays of its shape.

    Returns (p11, p12, p21, p22, log_factor), five arrays with one value
    per segment: the true matrix M(x_to) M(x_from)^-1 is the four entries
    times e**log_factor.  With d = s_to - s_from the entries hold
    e**(d - |d|) and e**(-d - |d|), one of which is 1 and the other at
    most 1.  One basis evaluation covers both ends.
    """
    (fp1, fp2), (fm1, fm2), (gp1, gp2), (gm1, gm2), (s1, s2) = basis_eval(
        seg, np.array((x_from, x_to)))
    w = analytic_wronskian(seg)
    d = s2 - s1
    up = np.exp(d - abs(d)) / w
    dn = np.exp(-d - abs(d)) / w
    return (fp2 * gm1 * up - fm2 * gp1 * dn,
            fm2 * fp1 * dn - fp2 * fm1 * up,
            gp2 * gm1 * up - gm2 * gp1 * dn,
            gm2 * fp1 * dn - gp2 * fm1 * up,
            abs(d))


def _flat_propagator(z: float, dx: float) -> tuple:
    """Closed-form propagator over dx = x_to - x_from on a flat segment
    with constant coefficient z, in :func:`_sloped_propagators`' form as
    floats: a shear for z = 0, a rotation for z > 0, and for z < 0 cosh
    and sinh of rho*dx times e**-(rho |dx|), with log factor rho |dx|.
    The sign of z picks the case, as it picks the flat regime in
    ``build_segments``."""
    if z == 0.0:
        return 1.0, dx, 0.0, 1.0, 0.0
    if z > 0.0:
        k = math.sqrt(z)
        cs, sn = math.cos(k * dx), math.sin(k * dx)
        return cs, sn / k, -k * sn, cs, 0.0
    rho = math.sqrt(-z)
    a = rho * abs(dx)
    # e**-2a - 1 without cancellation at small a
    em1 = math.expm1(-2.0 * a)
    ch = 1.0 + 0.5 * em1
    sh = math.copysign(0.5 * em1, dx)
    return ch, sh / rho, rho * sh, ch, a


def _propagators(arrays: SegmentArrays, x_from: np.ndarray,
                 x_to: np.ndarray) -> np.ndarray:
    """Propagator of segment i of ``arrays`` from x_from[i] to x_to[i], for
    every segment, as one (n, 5) table: row i holds p11, p12, p21, p22 and
    the log factor of segment i.  Each sloped regime present is one batch;
    the flat segments take their closed forms, written in one step."""
    code = arrays.code
    table = np.empty((len(code), 5))
    # a list lookup keeps grids without sloped segments (the mesa) cheap
    present = code.tolist()
    for regime, regime_code in _SLOPED_CODES:
        if regime_code in present:
            sel = np.flatnonzero(code == regime_code)
            table[sel] = np.transpose(_sloped_propagators(
                arrays.take(sel, regime), x_from[sel], x_to[sel]))
    flat = [i for i, c in enumerate(present) if c < _FIRST_SLOPED_CODE]
    if flat:
        table[flat] = list(map(_flat_propagator, arrays.z_flat[flat].tolist(),
                               (x_to[flat] - x_from[flat]).tolist()))
    return table


def _pass(grids: Sequence[Grid]) -> np.ndarray:
    """The propagator table of ``grids``' concatenated segment arrays, one
    ``basis_eval`` batch per sloped regime present in any of them; an
    error raised inside a batch names the segment's index in it."""
    arrays = grids[0].arrays if len(grids) == 1 else SegmentArrays(
        *map(np.concatenate, zip(*(g.arrays for g in grids))))
    return _propagators(arrays, arrays.x_hi, arrays.x_lo)


def _products(table: np.ndarray, lengths: Sequence[int]) -> list[Product]:
    """P_0 P_1 ... P_{n-1} of each grid, whose n = lengths[g] rows follow
    those of the grids before it in ``table``.

    The grids sit in (2, 2, grids, N) entry arrays, left factor first, N
    the power of two that holds the longest, with identity entries past
    each grid's end.  Each level multiplies neighbouring pairs and divides
    every product by the power of two that brings its largest entry into
    [1, 2), which leaves the identity as it is.  The log factors are
    summed as floats pair by pair, the power-of-two exponents as integers.
    A batch of one-segment grids takes no level.
    """
    if all(n == 1 for n in lengths):
        return [(*row, 0) for row in table.tolist()]
    grids = len(lengths)
    prod = np.zeros((2, 2, grids, 1 << (max(lengths) - 1).bit_length()))
    prod[0, 0] = prod[1, 1] = 1.0
    log = np.zeros(prod.shape[2:])
    rows = np.repeat(np.arange(grids), lengths)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    prod[:, :, rows, cols] = table[:, :4].T.reshape(2, 2, -1)
    log[rows, cols] = table[:, 4]
    scales = []
    while prod.shape[-1] > 1:
        left, right = prod[..., 0::2], prod[..., 1::2]
        prod = left[:, :1] * right[:1]
        prod += left[:, 1:] * right[1:]
        # 2**scale brings the largest of each product's entries into [1, 2)
        scale = 1 - np.frexp(np.maximum.reduce(np.abs(prod).reshape(4, -1)))[1]
        scales.append(scale.reshape(grids, -1))
        np.ldexp(prod, scales[-1], out=prod)
        log = log[:, 0::2] + log[:, 1::2]
    # a grid's row holds the products of its tree at every level, and an
    # integer sum needs no fixed order
    exponent = -np.concatenate(scales, axis=1).sum(axis=1)
    return list(zip(*prod.reshape(4, grids).tolist(), log[:, 0].tolist(),
                    exponent.tolist()))


def sweep_products(grids: Sequence[Grid]) -> list[Product]:
    """Each grid's propagator product for :func:`solve_scattering`, from
    one propagator pass over the concatenated segment arrays of ``grids``
    and one pairwise tree over all their products."""
    if not grids:
        return []
    return _products(_pass(grids), [len(g.arrays.code) for g in grids])


def _plane_wave_amplitudes(k: float, x: float, phi: complex, dphi: complex):
    """(C, D) with C cos kx + D sin kx = phi and derivative dphi at x."""
    cs, sn = math.cos(k * x), math.sin(k * x)
    return ((k * cs * phi - sn * dphi) / k,
            (cs * dphi + k * sn * phi) / k)


def _outgoing(grid: Grid, c: complex, d: complex) -> tuple[float, complex, complex]:
    """(k, phi, dphi) of the wave c cos kx + d sin kx at the last node."""
    # sqrt(k^2), the wavenumber _flat_propagator takes from z = k^2 in the
    # free regions
    k = math.sqrt(grid.k * grid.k)
    x = float(grid.arrays.x_hi[-1])
    cs, sn = math.cos(k * x), math.sin(k * x)
    return k, c * cs + d * sn, c * (-k * sn) + d * (k * cs)


def sweep(grid: Grid, c: complex, d: complex,
          ) -> tuple[complex, complex, float, list[NodeState]]:
    """Carry the outgoing wave c cos kx + d sin kx of the right free region
    back to the left one, segment by segment: the recording path.

    Returns (C0, D0, log_scale, states): the left free region's
    coefficients of cos kx and sin kx, true values being these times
    e**log_scale, and the (phi, dphi, log_scale) state at every node of
    ``grid.points``, left to right.  The propagators are formed first; a
    loop over Python floats then applies them one by one, dividing the
    state after each segment by the power of two nearest its magnitude.
    A non-finite or vanishing state raises :class:`TransferError`.
    :func:`wavefunction` runs this loop; :func:`solve_scattering` takes its
    amplitudes from the product tree instead.
    """
    k, phi, dphi = _outgoing(grid, c, d)
    log_scale = 0.0
    states: list[NodeState] = []
    # five entries per segment, read from the last segment back as plain
    # floats, which allocate no container per segment; the state entering
    # segment j sits at its right end, node j
    entries = reversed(_pass([grid]).ravel().tolist())
    for log_factor, p22, p21, p12, p11 in zip(
            entries, entries, entries, entries, entries):
        states.append((phi, dphi, log_scale))
        phi, dphi = p11 * phi + p12 * dphi, p21 * phi + p22 * dphi
        if not math.isfinite(abs(phi) + abs(dphi)):
            raise TransferError("node state is not finite")
        mag = max(abs(phi), abs(dphi))
        if mag == 0.0:
            raise TransferError("node state collapsed to zero")
        shift = round(math.log2(mag))
        factor = math.ldexp(1.0, -shift)
        phi, dphi = factor * phi, factor * dphi
        log_scale += log_factor + shift * _LN2
    states.append((phi, dphi, log_scale))
    states.reverse()
    c0, d0 = _plane_wave_amplitudes(k, float(grid.arrays.x_lo[0]), phi, dphi)
    return c0, d0, log_scale, states


def _carry(grid: Grid, product: Product) -> tuple[complex, complex, float]:
    """(C0, D0, log_scale) as :func:`sweep` returns them for the outgoing
    wave (c, d) = (1, i), from the grid's propagator product applied to it
    once."""
    p11, p12, p21, p22, log_factor, exponent = product
    k, phi, dphi = _outgoing(grid, 1.0 + 0.0j, 1.0j)
    phi, dphi = p11 * phi + p12 * dphi, p21 * phi + p22 * dphi
    if not math.isfinite(abs(phi) + abs(dphi)):
        raise TransferError("node state is not finite")
    mag = max(abs(phi), abs(dphi))
    if mag == 0.0:
        raise TransferError("node state collapsed to zero")
    # scaled so that the result does not depend on the power of two that
    # the product carries, which differs for a one-segment grid alone
    shift = math.frexp(mag)[1] - 1
    factor = math.ldexp(1.0, -shift)
    c0, d0 = _plane_wave_amplitudes(k, float(grid.arrays.x_lo[0]),
                                    factor * phi, factor * dphi)
    return c0, d0, log_factor + (exponent + shift) * _LN2


def solve_scattering(grid: Grid, *,
                     product: Product | None = None) -> ScatterResult:
    """Amplitudes from the propagator product applied to the outgoing wave.

    Seeds (C, D) = (1, i) in the right free region, i.e. a unit outgoing
    plane wave in its {cos kx, sin kx} basis, and carries it to the left.
    The left free region's pair then gives t and r; the accumulated log scale
    re-enters t because the seed fixed the transmitted amplitude, not the
    incident one.  ``product`` is the grid's entry of a
    :func:`sweep_products` pass; without it the solve is a batch of one.
    """
    if product is None:
        (product,) = sweep_products([grid])
    c0, d0, log_scale = _carry(grid, product)
    denom = c0 - 1j * d0
    if denom == 0.0:
        raise TransferError("C0 - i*D0 vanished: degenerate normalization")
    sigma = log_scale / _LN10
    amp = 2.0 / denom
    t_log10_mag = math.log10(abs(amp)) - sigma
    if -300.0 < t_log10_mag < 300.0:
        t = amp * 10.0 ** (-sigma)
    elif t_log10_mag <= -300.0:
        t = 0.0 + 0.0j
    else:
        raise TransferError("transmission overflow: log scale negative")
    r = (c0 + 1j * d0) / denom
    defect = abs(abs(t) ** 2 + abs(r) ** 2 - 1.0)
    return ScatterResult(
        t=t,
        r=r,
        unitarity_defect=defect,
        t_log10_mag=t_log10_mag,
        log10_scale=sigma,
    )


def wavefunction(grid: Grid,
                 positions: Sequence[float]) -> list[tuple[float, complex]]:
    """Reconstruct phi at the sample positions, unit incident amplitude.

    Records the node states with :func:`sweep` from the outgoing wave
    (1, i) and normalises by the incoming amplitude C0 - i*D0 it reads out,
    as :func:`solve_scattering` does.  Each sample is carried from the node
    at the right end of its segment, node 0 for the left free region.
    Positions are limited to the window padded by two cavity lengths; the
    asymptotic cos/sin basis loses phase accuracy far outside it.
    """
    pad = 2.0 * grid.profile.length
    lo, hi = grid.window[0] - pad, grid.window[1] + pad
    xs = np.asarray(positions, dtype=float)
    outside = ~((lo <= xs) & (xs <= hi))
    if outside.any():
        raise ValueError(f"sample {xs[np.argmax(outside)]} outside [{lo}, {hi}]")
    c0, d0, log0, states = sweep(grid, 1.0 + 0.0j, 1.0j)
    denom = c0 - 1j * d0
    if denom == 0.0:
        raise TransferError("C0 - i*D0 vanished: degenerate normalization")
    norm = 2.0 / denom
    arrays = grid.arrays
    z_free = grid.k * grid.k
    n = len(arrays.code)
    # the segment of each sample; 0 and n + 1 are the free regions, whose
    # samples become flat entries with z = k^2
    seg_of = np.searchsorted(grid.points, xs, side="right")
    node = np.minimum(seg_of, n)
    free = (seg_of == 0) | (seg_of > n)
    entry = np.clip(seg_of - 1, 0, n - 1)
    samples = SegmentArrays(*(col[entry] for col in arrays))
    samples = samples._replace(
        code=np.where(free, _PLANE_WAVE_CODE, samples.code),
        z_flat=np.where(free, z_free, samples.z_flat))
    out: list[tuple[float, complex]] = []
    entries = iter(_propagators(samples, grid.points[node], xs).ravel().tolist())
    for x, j, p11, p12, _, _, log_factor in zip(
            xs.tolist(), node.tolist(), entries, entries, entries, entries,
            entries):
        phi, dphi, log_scale = states[j]
        phi = (p11 * phi + p12 * dphi) * math.exp(log_factor + log_scale - log0)
        out.append((x, phi * norm))
    return out
