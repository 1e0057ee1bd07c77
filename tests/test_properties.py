"""Property test over the whole accepted input domain.

For every (shape, k, kappaL, J) that ``MazerParams`` accepts, a row either
solves with closure |sum of the four event probabilities - 1| <= 1e-8 or
raises the typed ``GridResolutionError``; any other outcome is a bug.  The
Tier-1 profile draws a fixed, seeded set of 50 inputs; the long
profile (``-m slow``) draws 4,000 with J up to 800.

Four coarse sech2 rows whose alpha passes run out with alpha still
moving are pinned to close as well: the grid builder settles them with a
bracketed root of the area defect.

Mirroring a tabulated mode, u(x) -> u(L - x), leaves each branch's t and
|r| unchanged, and with them T_a^2, T_b^2 and R_a^2 + R_b^2.  P_em itself
is not mirror-invariant: r picks up a phase that depends on the branch,
which moves weight between R_a^2 and R_b^2.  The two sides usually agree
to 1e-12, but a sloped segment of large cylinder argument w (up to
W_FLAT_COLLAPSE = 1e8) fixes its phase only to about ulp(w): where a mode
has a near-zero stretch, w reaches 1e7 and |t-| or T_a^2 differ by up to
4e-10 between the sides.  The invariants are therefore held to the
closure tolerance.

The complex t is unchanged too: mirroring the mode turns left incidence
into right incidence, t is the same from both sides (reciprocity), and a
translation moves only the phase of r.  That check is an expected failure
for now: the same ulp(w) phase error moves the phase of t by 4.5e-8 and
1.9e-8 on the two tables it carries as explicit examples, while |t|
agrees to 2e-15.
"""

import pytest
from hypothesis import assume, example, given, seed, settings
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

# Each derandomised property below also carries a fixed @seed, which takes
# precedence over derandomize: hypothesis derives a derandomised test's
# seed from a digest of its body and signature, so an edit of the body or
# a hypothesis release that digests differently would otherwise draw other
# inputs.  Each seed is that digest as it stood when the draws were
# frozen, so the inputs are the ones drawn then.

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
@seed(6686921096215370040953149670426377270848998353202189938600772883148229299202091827744382722291939102637277244544820)
@given(shape=SHAPES, k=MOMENTA, kappaL=LENGTHS, J=st.integers(2, 400))
def test_row_closes_or_raises_typed_error(shape, k, kappaL, J):
    check_row(shape, k, kappaL, J)


@pytest.mark.slow
@settings(max_examples=4000, derandomize=True, deadline=None, database=None)
@seed(31512148731056646050505794661093284053278068519474837344299383426418681335965348692609613079986205701283298795397645)
@given(shape=SHAPES, k=MOMENTA, kappaL=LENGTHS, J=st.integers(2, 800))
def test_row_closes_or_raises_typed_error_long(shape, k, kappaL, J):
    check_row(shape, k, kappaL, J)


@pytest.mark.parametrize("J, k, kappaL", [
    (3, 0.01, 10.0), (5, 0.225, 2837.4), (12, 0.4086, 0.6627),
    (13, 0.8393, 16.147)])
def test_unsettled_alpha_rows_close(J, k, kappaL):
    # on the barrier branch all alpha passes run and alpha still moves in
    # its 7th to 8th digit; the row must close, not raise
    ev = event_probabilities(MazerParams.for_shape(ModeShape.SECH2, k, kappaL, J))
    assert ev.closure_defect <= CLOSURE_MAX


def branch_amplitudes_of(table, k, J):
    profile = ModeProfile(ModeShape.TABULATED, 0.0, table=table)
    return branch_amplitudes(
        MazerParams(k_over_kappa=k, kappaL=profile.length, profile=profile, J=J))


def mirror_invariants(table, k, J):
    """|t| and |r| of both branches, T_a^2, T_b^2 and R_a^2 + R_b^2."""
    plus, minus = branch_amplitudes_of(table, k, J)
    return (abs(plus.t), abs(plus.r), abs(minus.t), abs(minus.r),
            abs(0.5 * (plus.t + minus.t)) ** 2,
            abs(0.5 * (plus.t - minus.t)) ** 2,
            0.5 * (abs(plus.r) ** 2 + abs(minus.r) ** 2))


# random tabulated modes: interior breakpoints at distinct hundredths of
# the length, so the mirrored abscissae L - x stay strictly increasing
TABLES = dict(
    cuts=st.lists(st.integers(1, 99), min_size=1, max_size=8, unique=True),
    u=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
    length=log_uniform(-2, 2),
    k=log_uniform(-2, 1),
    J=st.integers(20, 200),
)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@seed(5209631772461287753198850869472464745625804684856489981184545087423087780415469542025169454176080710673403195841803)
@given(**TABLES)
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


@pytest.mark.xfail(strict=True, reason=(
    "the phase of a sloped allowed segment of cylinder argument w near the "
    "1e8 demotion cap is fixed only to about ulp(w): the two explicit "
    "tables give complex-t gaps of 4.5e-8 and 1.9e-8 while |t| agrees to "
    "2e-15"))
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@seed(4509405334831989504886237465489813842405650401334589113996487907216739112065179012507201830980946710642807705157392)
@given(**TABLES)
# two tables on which the phase of t moves by 4.5e-8 and 1.9e-8
@example(cuts=[26, 38, 42, 50, 84, 99],
         u=[-1.1512563626597844e-70, -6.103515625e-05, 0.1145784637391325,
            -8.337312399347386e-63, 0.1223706184063118, 0.477868130919451,
            -1.1125369292536007e-308, 0.8986810078433765, 0.0, 0.0],
         length=26.542757553705567, k=9.999999999999998, J=117)
@example(cuts=[99], u=[-2.766134183700076e-10, -5.960464477539063e-08,
                       1.7134685806022544e-175] + [0.0] * 7,
         length=1.1971556042448468, k=1.1971556042448468, J=139)
def test_mirrored_mode_keeps_complex_transmission(cuts, u, length, k, J):
    # reciprocity: each branch's t is the same from the left and the right
    xs = [0.0, *(length * c / 100.0 for c in sorted(cuts)), length]
    table = tuple(zip(xs, u))
    mirrored = tuple((length - x, v) for x, v in reversed(table))
    try:
        got = branch_amplitudes_of(table, k, J)
        want = branch_amplitudes_of(mirrored, k, J)
    except GridResolutionError:
        assume(False)
    for a, b in zip(got, want):
        assert abs(a.t - b.t) <= CLOSURE_MAX, (table, k, J, a.t, b.t)
