"""The node states by a plain per-segment loop: the reference that the
down-sweep of ``transfer.sweep`` is checked against, returned in the same
five-part form, so that a test compares arrays with arrays.

The loop applies the grid's propagators one by one, from the last
segment back to the first, over Python floats, and divides the state
after each segment by the power of two nearest its magnitude.  It
associates the same product as the tree in another order and rescales by
another rule, so the two agree to rounding, not bit for bit.
"""

import math

import numpy as np

from mazersim import transfer
from mazersim.transfer import TransferError

_LN2 = math.log(2.0)


def recorded_sweep(grid, c, d):
    """(C0, D0, phi, dphi, log) as ``transfer.sweep`` returns them: the
    left free region's coefficients of cos kx and sin kx, true up to the
    factor e**log[0], and three arrays over the nodes of ``grid.points``,
    left to right, the true state at a node being phi and dphi times
    e**log."""
    k, phi, dphi = transfer._outgoing(grid, c, d)
    log_scale = 0.0
    states = []
    # five entries per segment, read from the last segment back as plain
    # floats, which allocate no container per segment; the state entering
    # segment j sits at its right end, node j
    entries = reversed(transfer._pass([grid]).ravel().tolist())
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
    c0, d0 = transfer._plane_wave_amplitudes(
        k, float(grid.arrays.x_lo[0]), phi, dphi)
    return (c0, d0, *map(np.array, zip(*reversed(states))))
