"""Single segments evaluated by the batch code that the sweep runs.

A segment is built by ``build_segments`` on its two nodes; its sloped
basis is ``basis_eval`` of the batch of one that ``SegmentArrays.take``
returns, and its propagator, in any regime, the row of
``transfer._propagators`` for that entry alone.
"""

import numpy as np

from mazersim import transfer
from mazersim.segment_basis import (
    BasisEval,
    Regime,
    SegmentArrays,
    basis_eval,
    build_segments,
)


def segment(x_lo, x_hi, z_lo, z_hi) -> SegmentArrays:
    """The one-entry segment arrays of nodes x_lo < x_hi with
    coefficients z_lo, z_hi."""
    return build_segments((x_lo, x_hi), (z_lo, z_hi))


def regime(arrays: SegmentArrays, i: int = 0) -> Regime:
    """The regime of entry i."""
    return tuple(Regime)[int(arrays.code[i])]


def batch(x_lo, x_hi, z_lo, z_hi):
    """The segment on two nodes as a batch of one, ``take([0], regime)``."""
    arrays = segment(x_lo, x_hi, z_lo, z_hi)
    return arrays.take([0], regime(arrays))


def basis_at(seg, x) -> BasisEval:
    """``basis_eval`` of a batch of one at one position, as floats."""
    return BasisEval(*(float(v[0]) for v in basis_eval(seg, x)))


def propagator(arrays: SegmentArrays, x_from, x_to, i: int = 0) -> tuple:
    """(p11, p12, p21, p22, log_factor) of entry i of ``arrays`` from
    x_from to x_to, as floats, from a propagator table of that entry
    alone."""
    one = SegmentArrays(*(col[i:i + 1] for col in arrays))
    row = transfer._propagators(one, np.full(1, x_from, dtype=float),
                                np.full(1, x_to, dtype=float))[0]
    return tuple(row.tolist())
