"""Node-state sweep across the segments and amplitude extraction.

The wavefunction and its derivative are continuous, so the node state
(phi, phi') is shared by the two segments meeting at a node and the joins
are identities.  Inside a segment the exact basis carries the state from
one end to the other through the 2x2 propagator M(x_to) M(x_from)^-1.
Chaining the propagators from the outgoing side back to the incoming side
turns the two-point boundary problem into a single backward sweep; the
state at the first node then yields the complex transmission and
reflection amplitudes.

Forbidden regions make the state grow like exp(rho*dx), far beyond float
range at large interaction lengths.  Each propagator therefore comes with
its dominant exponential e**|s_to - s_from| factored out of the basis
scales analytically, so every entry is O(1); the state is two complex
float64 values plus one float log scale, renormalised after every segment.

The propagators are formed before the sweep from the grid's segment
arrays: one batch per sloped regime, where one ``basis_eval`` call covers
both ends of every segment of the regime, and a closed form per flat
segment (a shear, a rotation, or scaled cosh and sinh), which needs no
basis evaluation at all.  :func:`sweep_propagators` forms them for several
grids in one pass over their concatenated arrays, and :func:`sweep` and
:func:`solve_scattering` then take each grid's slice; every entry is an
elementwise function of its own segment, so a slice holds the same floats
as a pass over its grid alone.  The sweep itself is a loop over Python
floats that applies them.  The two asymptotic free regions are the plane
waves cos kx and sin kx, so the outgoing wave is seeded and the incoming
amplitudes are read out in closed form; the sweep builds no segment
record.  :func:`wavefunction` forms the propagators to all its samples in
one call, a sample in a free region being a flat entry with z = k^2.
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
    "propagator",
    "solve_scattering",
    "sweep",
    "sweep_propagators",
    "wavefunction",
]

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)

_SLOPED = (Regime.SLOPE_ALLOWED, Regime.SLOPE_FORBIDDEN)
# (regime, code) of the sloped regimes; SegmentArrays.code numbers the
# regimes in their definition order, the flat ones first
_SLOPED_CODES = tuple((regime, list(Regime).index(regime)) for regime in _SLOPED)
_FIRST_SLOPED_CODE = min(code for _, code in _SLOPED_CODES)
# the code of a flat segment with z > 0, which a free-region sample takes
_PLANE_WAVE_CODE = list(Regime).index(Regime.FLAT_ALLOWED)


class TransferError(Exception):
    """Collapsed node state or degenerate amplitude extraction."""


# (phi, dphi, log_scale) at one node, true values being phi and dphi times
# e**log_scale
NodeState = tuple[complex, complex, float]


@dataclass(frozen=True)
class ScatterResult:
    """Amplitudes for unit-amplitude incidence from the left.

    When |t| underflows double precision the field ``t`` is exactly 0 and
    ``t_log10_mag`` still carries its magnitude; ``unitarity_defect`` is a
    diagnostic the caller should surface, not clamp.  ``coefficients``,
    when recorded, holds the sweep's node state at each of the grid's
    points, node i at ``grid.points[i]``, for :func:`wavefunction`.
    """

    t: complex
    r: complex
    unitarity_defect: float
    t_log10_mag: float
    log10_scale: float
    coefficients: tuple[NodeState, ...] | None = None


def propagator(seg: Segment, x_from, x_to) -> tuple:
    """Block-scaled map of (phi, phi') at x_from to (phi, phi') at x_to.

    Returns (p11, p12, p21, p22, log_factor): the true matrix
    M(x_to) M(x_from)^-1 is the four entries times e**log_factor.  With
    d = s_to - s_from the entries hold e**(d - |d|) and e**(-d - |d|),
    one of which is 1 and the other at most 1.

    On a sloped regime one basis evaluation covers both ends, and ``seg``
    may be a batch with x_from, x_to arrays of its shape: the five entries
    are then arrays, one value per segment of the batch.  A flat regime
    takes its closed form from :func:`_flat_propagator`.
    """
    if seg.regime not in _SLOPED:
        return _flat_propagator(seg.z_flat, x_to - x_from)
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
    with constant coefficient z, in :func:`propagator`'s form: a shear for
    z = 0, a rotation for z > 0, and for z < 0 cosh and sinh of rho*dx
    times e**-(rho |dx|), with log factor rho |dx|.  The sign of z picks
    the case, as it picks the flat regime in ``build_segments``."""
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
                 x_to: np.ndarray) -> list[float]:
    """Propagator of segment i of ``arrays`` from x_from[i] to x_to[i], for
    every segment, as one list of floats: entries 5i to 5i + 4 are p11,
    p12, p21, p22 and the log factor of segment i.  Each sloped regime
    present is one batch; each flat segment takes its closed form.  Plain
    floats, not a tuple per segment, keep a pass over many grids from
    allocating thousands of tuples at once, which wakes the cyclic garbage
    collector."""
    code = arrays.code
    table = np.empty((len(code), 5))
    # a list lookup keeps grids without sloped segments (the mesa) as cheap
    # as a scalar sweep
    present = code.tolist()
    for regime, regime_code in _SLOPED_CODES:
        if regime_code in present:
            sel = np.flatnonzero(code == regime_code)
            table[sel] = np.transpose(propagator(
                arrays.take(sel, regime), x_from[sel], x_to[sel]))
    out = table.ravel().tolist()
    for i, (c, z, dx) in enumerate(zip(
            present, arrays.z_flat.tolist(), (x_to - x_from).tolist())):
        if c < _FIRST_SLOPED_CODE:
            out[5 * i:5 * i + 5] = _flat_propagator(z, dx)
    return out


def sweep_propagators(grids: Sequence[Grid]) -> list[list[float]]:
    """The propagators that :func:`sweep` forms for each of ``grids``, from
    one pass over their concatenated segment arrays: each sloped regime
    present in any grid is one ``basis_eval`` batch.  An error raised inside
    a batch names the segment's index in the concatenation."""
    if not grids:
        return []
    arrays = SegmentArrays(*map(np.concatenate, zip(*(g.arrays for g in grids))))
    props = _propagators(arrays, arrays.x_hi, arrays.x_lo)
    out, start = [], 0
    for grid in grids:
        stop = start + 5 * len(grid.arrays.code)
        out.append(props[start:stop])
        start = stop
    return out


def _plane_wave_amplitudes(k: float, x: float, phi: complex, dphi: complex):
    """(C, D) with C cos kx + D sin kx = phi and derivative dphi at x."""
    cs, sn = math.cos(k * x), math.sin(k * x)
    return ((k * cs * phi - sn * dphi) / k,
            (cs * dphi + k * sn * phi) / k)


def sweep(
    grid: Grid, c: complex, d: complex, record: bool = False, *,
    propagators: list[float] | None = None,
) -> tuple[complex, complex, float, list[NodeState]]:
    """Carry the outgoing wave c cos kx + d sin kx of the right free region
    back to the left one.

    Returns (C0, D0, log_scale, states): the left free region's
    coefficients of cos kx and sin kx, true values being these times
    e**log_scale, and, when ``record``, the (phi, dphi, log_scale) state at
    every node of ``grid.points``, left to right.  The propagators of all
    segments come first, one batch per sloped regime and a closed form per
    flat segment, unless ``propagators`` brings them from
    :func:`sweep_propagators`; the loop then applies them one by one.
    After each segment the state is divided by the power of two nearest
    its magnitude.
    """
    arrays = grid.arrays
    # sqrt(k^2), the wavenumber _flat_propagator takes from z = k^2 in the
    # free regions
    k = math.sqrt(grid.k * grid.k)
    n = len(arrays.code)
    if propagators is None:
        propagators = _propagators(arrays, arrays.x_hi, arrays.x_lo)
    elif len(propagators) != 5 * n:
        raise ValueError(f"{len(propagators)} propagator entries for {n} segments")
    x = float(arrays.x_hi[-1])
    cs, sn = math.cos(k * x), math.sin(k * x)
    phi = c * cs + d * sn
    dphi = c * (-k * sn) + d * (k * cs)
    log_scale = 0.0
    states: list[NodeState] = []
    # five entries per segment, read from the last segment back; the state
    # entering segment j sits at its right end, node j
    entries = reversed(propagators)
    for log_factor, p22, p21, p12, p11 in zip(
            entries, entries, entries, entries, entries):
        if record:
            states.append((phi, dphi, log_scale))
        phi, dphi = p11 * phi + p12 * dphi, p21 * phi + p22 * dphi
        mag = max(abs(phi), abs(dphi))
        if mag == 0.0:
            raise TransferError("node state collapsed to zero")
        shift = round(math.log2(mag))
        factor = math.ldexp(1.0, -shift)
        phi, dphi = factor * phi, factor * dphi
        log_scale += log_factor + shift * _LN2
    x = float(arrays.x_lo[0])
    if record:
        states.append((phi, dphi, log_scale))
        states.reverse()
    c0, d0 = _plane_wave_amplitudes(k, x, phi, dphi)
    return c0, d0, log_scale, states


def solve_scattering(grid: Grid, record_coefficients: bool = False, *,
                     propagators: list[float] | None = None) -> ScatterResult:
    """Backward sweep from the outgoing free region to the incoming one.

    Seeds (C, D) = (1, i) in the right free region, i.e. a unit outgoing
    plane wave in its {cos kx, sin kx} basis, and carries it to the left.
    The left free region's pair then gives t and r; the accumulated log scale
    re-enters t because the seed fixed the transmitted amplitude, not the
    incident one.  ``propagators`` is the grid's slice of a
    :func:`sweep_propagators` pass; without it the sweep forms its own.
    """
    c0, d0, log_scale, states = sweep(
        grid, 1.0 + 0.0j, 1.0j, record_coefficients, propagators=propagators)
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
        coefficients=tuple(states) if record_coefficients else None,
    )


def wavefunction(
    grid: Grid,
    result: ScatterResult,
    positions: Sequence[float],
) -> list[tuple[float, complex]]:
    """Reconstruct phi at the sample positions, unit incident amplitude.

    Needs a result from solve_scattering(record_coefficients=True) on this
    grid: one with another node count is refused, one of another grid with
    the same node count goes undetected.  Each sample is carried from the
    node at the right end of its segment, node 0 for the left free region.
    Positions are limited to the window padded by two cavity lengths; the
    asymptotic cos/sin basis loses phase accuracy far outside it.
    """
    states = result.coefficients
    if states is None:
        raise ValueError("solve_scattering must record coefficients first")
    if len(states) != len(grid.points):
        raise ValueError(f"result recorded at {len(states)} nodes, the grid "
                         f"has {len(grid.points)}")
    pad = 2.0 * grid.profile.length
    lo, hi = grid.window[0] - pad, grid.window[1] + pad
    xs = np.asarray(positions, dtype=float)
    outside = ~((lo <= xs) & (xs <= hi))
    if outside.any():
        raise ValueError(f"sample {xs[np.argmax(outside)]} outside [{lo}, {hi}]")
    arrays = grid.arrays
    z_free = grid.k * grid.k
    n = len(arrays.code)
    phi0, dphi0, log0 = states[0]
    c0, d0 = _plane_wave_amplitudes(math.sqrt(z_free), float(grid.points[0]),
                                    phi0, dphi0)
    norm = 2.0 / (c0 - 1j * d0)
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
    entries = iter(_propagators(samples, grid.points[node], xs))
    for x, j, p11, p12, _, _, log_factor in zip(
            xs.tolist(), node.tolist(), entries, entries, entries, entries,
            entries):
        phi, dphi, log_scale = states[j]
        phi = (p11 * phi + p12 * dphi) * math.exp(log_factor + log_scale - log0)
        out.append((x, phi * norm))
    return out
