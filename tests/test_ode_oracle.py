"""The solver against direct integration of the exact mode (tests/ode_oracle.py).

At k 0.1 the solver's P_em minus the oracle's was, for J 300 / J 1200:

    kappaL         2          5          10         20
    gauss J 300   -5.8e-6    -8.9e-4    +8.3e-4    +5.3e-4
    gauss J 1200  -3.8e-7    -5.5e-5    +5.2e-5    +3.3e-5
    sin, sin2     within 3.5e-9 at J 300

The Gaussian's piecewise-linear model converges at second order, so its
gap falls by a factor of about 16 from J 300 to J 1200; the bounds below
are about twice these gaps and half that factor.  The sines' bound is
about three times their largest gap.  The oracle moved by at most 7e-11
between rtol 1e-10 and 1e-12, far below every bound.
"""

import pytest

import ode_oracle
from mazersim.grid import ModeShape
from mazersim.mazer import MazerParams, event_probabilities

K = 0.1
LENGTHS = (2.0, 5.0, 10.0, 20.0)


def gap(shape, L, J, reference):
    params = MazerParams.for_shape(shape, K, L, J)
    return event_probabilities(params).P_em - reference


@pytest.mark.parametrize("L", LENGTHS)
def test_gaussian_converges_at_second_order(L):
    reference = ode_oracle.emission(ode_oracle.gaussian(L), K)
    coarse = abs(gap(ModeShape.GAUSSIAN, L, 300, reference))
    fine = abs(gap(ModeShape.GAUSSIAN, L, 1200, reference))
    assert coarse <= 2e-3
    assert fine <= 1e-4
    assert coarse >= 8.0 * fine


@pytest.mark.parametrize("L", LENGTHS)
@pytest.mark.parametrize("shape, n", [(ModeShape.SIN_FUNDAMENTAL, 1),
                                      (ModeShape.SIN_FIRST_EXCITED, 2)])
def test_sines_match(shape, n, L):
    reference = ode_oracle.emission(ode_oracle.sine(n, L), K)
    assert abs(gap(shape, L, 300, reference)) <= 1e-8
