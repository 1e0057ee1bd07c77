"""Property test over the whole accepted input domain.

For every (shape, k, kappaL, J) that ``MazerParams`` accepts, a row either
solves with closure |sum of the four event probabilities - 1| <= 1e-8 or
raises the typed ``GridResolutionError``; any other outcome is a bug.  The
Tier-1 profile draws a fixed, derandomised set of 50 inputs; the long
profile (``-m slow``) draws 4,000 with J up to 800.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazersim import (
    GridResolutionError,
    MazerParams,
    ModeShape,
    event_probabilities,
)

CLOSURE_MAX = 1e-8

SHAPES = st.sampled_from([ModeShape.MESA, ModeShape.SECH2, ModeShape.GAUSSIAN,
                          ModeShape.SIN_FUNDAMENTAL, ModeShape.SIN_FIRST_EXCITED])


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


MOMENTA = log_uniform(-3, 3)       # k in [1e-3, 1e3]
LENGTHS = log_uniform(-6, 5)       # kappaL in [1e-6, 1e5]


def check_row(shape, k, kappaL, J):
    params = MazerParams.for_shape(shape, k, kappaL, J)
    try:
        ev = event_probabilities(params)
    except GridResolutionError:
        return
    assert ev.closure_defect <= CLOSURE_MAX, (shape, k, kappaL, J, ev)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(shape=SHAPES, k=MOMENTA, kappaL=LENGTHS, J=st.integers(2, 400))
def test_row_closes_or_raises_typed_error(shape, k, kappaL, J):
    check_row(shape, k, kappaL, J)


@pytest.mark.slow
@settings(max_examples=4000, derandomize=True, deadline=None, database=None)
@given(shape=SHAPES, k=MOMENTA, kappaL=LENGTHS, J=st.integers(2, 800))
def test_row_closes_or_raises_typed_error_long(shape, k, kappaL, J):
    check_row(shape, k, kappaL, J)
