"""Property test over the whole accepted input domain.

For every (shape, k, kappaL, J) that ``MazerParams`` accepts, a row either
solves with closure |sum of the four event probabilities - 1| <= 1e-8 or
raises the typed ``GridResolutionError``; any other outcome is a bug.  The
Tier-1 profile draws a fixed, derandomised set of 50 inputs; the long
profile (``-m slow``) draws 4,000 with J up to 800.

Mirroring a tabulated mode, u(x) -> u(L - x), leaves each branch's t and
|r| unchanged, and with them T_a^2, T_b^2 and R_a^2 + R_b^2.  P_em itself
is not mirror-invariant: r picks up a phase that depends on the branch,
which moves weight between R_a^2 and R_b^2.  The two sides usually agree
to 1e-12, but a sloped segment of large cylinder argument w (up to
W_FLAT_COLLAPSE = 1e8) fixes its phase only to about ulp(w): where a mode
has a near-zero stretch, w reaches 1e7 and |t-| or T_a^2 differ by up to
4e-10 between the sides.  The invariants are therefore held to the
closure tolerance.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mazersim import (
    GridResolutionError,
    MazerParams,
    ModeProfile,
    ModeShape,
    branch_amplitudes,
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


def mirror_invariants(table, k, J):
    """|t| and |r| of both branches, T_a^2, T_b^2 and R_a^2 + R_b^2."""
    profile = ModeProfile(ModeShape.TABULATED, 0.0, table=table)
    plus, minus = branch_amplitudes(
        MazerParams(k_over_kappa=k, kappaL=profile.length, profile=profile, J=J))
    return (abs(plus.t), abs(plus.r), abs(minus.t), abs(minus.r),
            abs(0.5 * (plus.t + minus.t)) ** 2,
            abs(0.5 * (plus.t - minus.t)) ** 2,
            0.5 * (abs(plus.r) ** 2 + abs(minus.r) ** 2))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    # interior breakpoints at distinct hundredths of the length, so the
    # mirrored abscissae L - x stay strictly increasing
    cuts=st.lists(st.integers(1, 99), min_size=1, max_size=8, unique=True),
    u=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
    length=log_uniform(-2, 2),
    k=log_uniform(-2, 1),
    J=st.integers(20, 200),
)
def test_mirrored_mode_keeps_branch_magnitudes(cuts, u, length, k, J):
    xs = [0.0, *(length * c / 100.0 for c in sorted(cuts)), length]
    table = tuple(zip(xs, u))
    mirrored = tuple((length - x, v) for x, v in reversed(table))
    try:
        got = mirror_invariants(table, k, J)
        want = mirror_invariants(mirrored, k, J)
    except GridResolutionError:
        assume(False)
    for a, b in zip(got, want):
        assert abs(a - b) <= CLOSURE_MAX, (table, k, J, got, want)
