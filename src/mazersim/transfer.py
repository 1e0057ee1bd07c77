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
sinh), which needs no basis evaluation at all; a pass with many flat
segments forms its rotations in one array step.  Every row is an
elementwise function of its own segment, so a pass over several grids
(:func:`sweep_products`), whose segments are classified in one call over
their concatenated nodes, gives each grid the floats of a pass over it
alone.

The product is associated as a pairwise tree over all the grids of a
batch at once (:func:`sweep_products`), each grid padded at its end with
identity entries.  After each level every product is divided by the power
of two that brings its largest entry into [1, 2), the exponents kept as
integers beside the summed log factors.  One step then carries every
grid's outgoing wave across its root product, and each grid's
amplitudes are read out at its first node.  Identity padding and
power-of-two scaling are exact, so a grid's readout does not depend on
its batch, and a lone :func:`solve_scattering` is a batch of one.
Scaling by the largest entry loses the smallest of a flat rotation's, a
factor k^2 below it, so ``grid.K_OVER_KAPPA_MAX`` bounds k.

:func:`sweep` is the recording path.  It keeps the tree's levels and
forms the state at every node by a down-sweep over them (Blelloch's
prefix-sum down-sweep): the seed sits at the root, a tree node's right
child keeps its state and its left child takes that state carried across
the right child's product, and segment 0 carries the state at node 1 to
node 0.  Every carried state, the amplitudes' one included, is divided by
the power of two that brings its larger component into [1, 2), in one
step that also refuses a non-finite or vanishing state.  It returns the
node states as the down-sweep forms them, three arrays (phi, dphi, log)
over the nodes.  :func:`wavefunction` takes them from :func:`sweep`,
normalises by the incoming amplitude read out at node 0, and forms the
propagators from the nodes to all its samples in one call, a sample in
a free region being a flat entry with z = k^2.  The two asymptotic free
regions are the plane waves cos kx and sin kx, so the outgoing wave is
seeded and the incoming amplitudes are read out in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Grid
from .segment_basis import (
    REGIME_CODE,
    Regime,
    Segment,
    SegmentArrays,
    analytic_wronskian,
    basis_eval,
    classify_intervals,
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
_FLAT_BATCH = 32    # flat segments from which a pass's rotations are one array step


class TransferError(Exception):
    """Collapsed or non-finite node state, or degenerate amplitude extraction."""


# (C0, D0, log_scale) of the left free region, true values being C0 and
# D0 times e**log_scale
Readout = tuple[complex, complex, float]


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


def _flat_propagators(z: np.ndarray, dx: np.ndarray):
    """The rows of :func:`_flat_propagator` for flat segments with
    constants z over dx.  From ``_FLAT_BATCH`` segments on, which repay
    numpy's call costs, the rotations (z > 0) are one array step: math's
    floats as long as numpy's float64 sin and cos, whose SIMD loop numpy
    picks by CPU and release, give libm's."""
    if z.size < _FLAT_BATCH:
        return list(map(_flat_propagator, z.tolist(), dx.tolist()))
    rows = np.empty((z.size, 5))
    rot = z > 0.0
    k = np.sqrt(z[rot])
    kdx = k * dx[rot]
    cs, sn = np.cos(kdx), np.sin(kdx)
    rows[rot] = np.transpose((cs, sn / k, -k * sn, cs, np.zeros_like(cs)))
    rest = ~rot
    rows[rest] = np.reshape(list(map(_flat_propagator, z[rest].tolist(),
                                     dx[rest].tolist())), (-1, 5))
    return rows


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
    for regime in (Regime.SLOPE_ALLOWED, Regime.SLOPE_FORBIDDEN):
        if REGIME_CODE[regime] in present:
            sel = np.flatnonzero(code == REGIME_CODE[regime])
            table[sel] = np.transpose(_sloped_propagators(
                arrays.take(sel, regime), x_from[sel], x_to[sel]))
    # the flat codes come before the sloped ones
    flat = np.flatnonzero(code < REGIME_CODE[Regime.SLOPE_ALLOWED])
    if flat.size:
        table[flat] = _flat_propagators(arrays.z_flat[flat], x_to[flat] - x_from[flat])
    return table


def _pass(grids: Sequence[Grid]) -> np.ndarray:
    """The propagator table of ``grids``' segments, one ``basis_eval``
    batch per sloped regime present in any of them; an error raised inside
    a batch names the segment's index in it.  Several grids' segments are
    classified in one call over their concatenated nodes, less the
    interval from each grid's last node to the next one's first."""
    if len(grids) == 1:
        arrays = grids[0].arrays
    else:
        x = np.concatenate([g.points for g in grids])
        z = np.concatenate([g.z for g in grids])
        # the join of two grids is no segment: it may cross a sign of z
        lo = np.delete(np.arange(len(x) - 1),
                       np.cumsum([len(g.points) for g in grids[:-1]]) - 1)
        arrays = classify_intervals(x[lo], x[lo + 1], z[lo], z[lo + 1])
    return _propagators(arrays, arrays.x_hi, arrays.x_lo)


def _levels(table: np.ndarray, lengths: Sequence[int]) -> list[tuple]:
    """The pairwise tree over P_0 P_1 ... P_{n-1} of each grid, whose
    n = lengths[g] rows follow those of the grids before it in ``table``,
    as its levels from the leaves to the root.

    A level is (entries, log, exponent): (2, 2, grids, m) entry arrays
    and (grids, m) summed log factors and integer exponents, the true
    product being the entries times e**log * 2**exponent.  The leaves sit
    in arrays of the power of two that holds the longest grid, with
    identity entries past each grid's end.  Each level multiplies
    neighbouring pairs, left factor first, and divides every product by
    the power of two that brings its largest entry into [1, 2), which
    leaves the identity as it is.
    """
    grids = len(lengths)
    prod = np.zeros((2, 2, grids, 1 << (max(lengths) - 1).bit_length()))
    prod[0, 0] = prod[1, 1] = 1.0
    log = np.zeros(prod.shape[2:])
    exponent = np.zeros(prod.shape[2:], dtype=int)
    rows = np.repeat(np.arange(grids), lengths)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    prod[:, :, rows, cols] = table[:, :4].T.reshape(2, 2, -1)
    log[rows, cols] = table[:, 4]
    levels = [(prod, log, exponent)]
    while prod.shape[-1] > 1:
        left, right = prod[..., 0::2], prod[..., 1::2]
        prod = left[:, :1] * right[:1]
        prod += left[:, 1:] * right[1:]
        # 2**scale brings the largest of each product's entries into [1, 2)
        scale = 1 - np.frexp(np.maximum.reduce(np.abs(prod).reshape(4, -1)))[1]
        scale = scale.reshape(grids, -1)
        np.ldexp(prod, scale, out=prod)
        log = log[:, 0::2] + log[:, 1::2]
        exponent = exponent[:, 0::2] + exponent[:, 1::2] - scale
        levels.append((prod, log, exponent))
    return levels


def _shift(phi, dphi):
    """The exponents of the powers of two that bring max(|phi|, |dphi|)
    into [1, 2), for arrays of states; a non-finite or vanishing state
    raises :class:`TransferError`."""
    mag = np.maximum(abs(phi), abs(dphi))
    if not (mag < math.inf).all():
        raise TransferError("node state is not finite")
    if not mag.all():
        raise TransferError("node state collapsed to zero")
    return np.frexp(mag)[1] - 1


def _step(p11, p12, p21, p22, log_factor, exponent, phi, dphi, log):
    """Arrays of states (phi, dphi, log) carried across arrays of products
    (p11, p12, p21, p22, log_factor, exponent) and divided by the powers
    of two of :func:`_shift`: the one rescale rule of every carried state,
    true values being phi and dphi times e**log."""
    phi, dphi = p11 * phi + p12 * dphi, p21 * phi + p22 * dphi
    shift = _shift(phi, dphi)
    factor = np.ldexp(1.0, -shift)
    return factor * phi, factor * dphi, log + log_factor + (exponent + shift) * _LN2


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
    x = float(grid.points[-1])
    cs, sn = math.cos(k * x), math.sin(k * x)
    return k, c * cs + d * sn, c * (-k * sn) + d * (k * cs)


def sweep(grid: Grid, c: complex, d: complex) -> tuple:
    """Carry the outgoing wave c cos kx + d sin kx of the right free region
    back to the left one and keep the state at every node: the recording
    path.

    Returns (C0, D0, phi, dphi, log): the left free region's coefficients
    of cos kx and sin kx, true up to the factor e**log[0], and three arrays
    over the nodes of ``grid.points``, left to right, the true state at a
    node being phi and dphi times e**log.  The states come down the levels
    of the grid's product tree; the last node holds the seed with log 0.
    A non-finite or vanishing state raises :class:`TransferError`.
    """
    k, phi, dphi = _outgoing(grid, c, d)
    state = (np.array([phi]), np.array([dphi]), np.zeros(1))
    # the seed is checked before any arithmetic on it
    _shift(*state[:2])
    table = _pass([grid])
    n = len(table)
    levels = [(*e[:, :, 0].reshape(4, -1), lg[0], ex[0])
              for e, lg, ex in _levels(table, [n])]
    # each tree node holds the state at its right end: the root the seed,
    # a right child its parent's, a left child its parent's carried across
    # its right sibling.  Tree nodes past the grid's last segment are left
    # out, so a left child without a right sibling keeps its parent's
    # state and the last node holds the seed itself.
    for depth in range(len(levels) - 2, -1, -1):
        m = ((n - 1) >> depth) + 1
        right = slice(1, m - m % 2, 2)
        carried = _step(*(v[right] for v in levels[depth]),
                        *(v[:m // 2] for v in state))
        state = tuple(map(_children, state, carried, (m,) * 3))
    # the leaves hold nodes 1 to n; segment 0 carries node 1 to node 0
    first = _step(*(v[:1] for v in levels[0]), *(v[:1] for v in state))
    c0, d0 = _plane_wave_amplitudes(k, float(grid.points[0]),
                                    first[0].item(), first[1].item())
    return (c0, d0, *(np.concatenate(v) for v in zip(first, state)))


def _children(parent: np.ndarray, carried: np.ndarray, m: int) -> np.ndarray:
    """The m values of a tree level below ``parent``'s: each odd, right
    child its parent's value, each even, left child ``carried`` where it
    has a right sibling and its parent's where it does not."""
    out = np.empty(m, parent.dtype)
    out[0::2] = parent
    out[0:m - m % 2:2] = carried
    out[1::2] = parent[:m // 2]
    return out


def sweep_products(grids: Sequence[Grid]) -> list[Readout]:
    """Each grid's (C0, D0, log_scale) for the outgoing wave (1, i), the
    C0, D0 and log[0] of :func:`sweep`, from one propagator pass over the
    segments of ``grids``, one pairwise tree over all their products and
    one :func:`_step` across every root."""
    if not grids:
        return []
    prod, log, exponent = _levels(
        _pass(grids), [len(g.points) - 1 for g in grids])[-1]
    k, phi, dphi = zip(*(_outgoing(g, 1.0 + 0.0j, 1.0j) for g in grids))
    # scaled so that the result does not depend on the power of two that
    # the product carries, which differs for a one-segment grid alone
    phi, dphi, log = _step(*prod.reshape(4, -1), log[:, 0], exponent[:, 0],
                           np.array(phi), np.array(dphi), 0.0)
    return [(*_plane_wave_amplitudes(kg, float(g.points[0]), p, dp), lg)
            for g, kg, p, dp, lg in zip(grids, k, phi.tolist(), dphi.tolist(),
                                        log.tolist())]


def _unit_incidence(c0: complex, d0: complex) -> tuple[complex, complex]:
    """(2 / (C0 - i*D0), (C0 + i*D0) / (C0 - i*D0)): for unit incidence,
    t before its log scale and r, from the left free region's pair."""
    denom = c0 - 1j * d0
    if denom == 0.0:
        raise TransferError("C0 - i*D0 vanished: degenerate normalization")
    return 2.0 / denom, (c0 + 1j * d0) / denom


def solve_scattering(grid: Grid, *,
                     readout: Readout | None = None) -> ScatterResult:
    """Amplitudes from the propagator product applied to the outgoing wave.

    Seeds (C, D) = (1, i) in the right free region, i.e. a unit outgoing
    plane wave in its {cos kx, sin kx} basis, and carries it to the left.
    The left free region's pair then gives t and r; the accumulated log scale
    re-enters t because the seed fixed the transmitted amplitude, not the
    incident one.  ``readout`` is the grid's (C0, D0, log_scale) entry of
    a :func:`sweep_products` pass; without it the solve is a batch of one.
    """
    if readout is None:
        (readout,) = sweep_products([grid])
    c0, d0, log_scale = readout
    amp, r = _unit_incidence(c0, d0)
    sigma = log_scale / _LN10
    t_log10_mag = math.log10(abs(amp)) - sigma
    if -300.0 < t_log10_mag < 300.0:
        t = amp * 10.0 ** (-sigma)
    elif t_log10_mag <= -300.0:
        t = 0.0 + 0.0j
    else:
        raise TransferError("transmission overflow: log scale negative")
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

    Takes the node states from :func:`sweep` for the outgoing wave (1, i)
    and normalises by the incoming amplitude C0 - i*D0 read out at
    node 0, as :func:`solve_scattering` does.  Each sample is carried from
    the node at the right end of its segment, node 0 for the left free
    region.  Positions are limited to the window padded by two cavity
    lengths; the asymptotic cos/sin basis loses phase accuracy far
    outside it.
    """
    pad = 2.0 * grid.profile.length
    lo, hi = grid.window[0] - pad, grid.window[1] + pad
    xs = np.asarray(positions, dtype=float)
    outside = ~((lo <= xs) & (xs <= hi))
    if outside.any():
        raise ValueError(f"sample {xs[np.argmax(outside)]} outside [{lo}, {hi}]")
    c0, d0, phi, dphi, log = sweep(grid, 1.0 + 0.0j, 1.0j)
    norm, _ = _unit_incidence(c0, d0)
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
        code=np.where(free, REGIME_CODE[Regime.FLAT_ALLOWED], samples.code),
        z_flat=np.where(free, z_free, samples.z_flat))
    p11, p12, _, _, log_factor = _propagators(samples, grid.points[node], xs).T
    psi = (p11 * phi[node] + p12 * dphi[node]) * np.exp(
        log_factor + log[node] - log[0])
    return list(zip(xs.tolist(), (psi * norm).tolist()))
