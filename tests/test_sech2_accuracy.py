"""The solver's sech2 P_em against the closed form (oracles.sech2_analytic).

At the default window the solver's P_em minus the analytic one was:

    k      kappaL    J 200      J 400      J 1600     J 6400
    0.01   7.3      +1.27e-3   +2.84e-4   -1.65e-5
    0.01   15       +3.34e-5   -2.10e-5   -3.46e-5
    0.01   100                 -3.79e-4   -5.04e-4   -5.04e-4
    1      1000                -3.32e-1   -1.61e-2   -1.11e-3

Each bound below is about 1.5 times its gap.  The gap stops falling at
about -3.5e-5 (kappaL 15) and -5.0e-4 (kappaL 100): the 16L window cuts
off the sech2 tails, and no J removes that.  At kappaL 1000 and k 1 the
gap still falls about twentyfold per quadrupling of J.
"""

import pytest

from mazersim.grid import ModeShape
from mazersim.mazer import MazerParams, _combine, event_probabilities
from mazersim.oracles import sech2_analytic

# (k, kappaL, J, bound on |P_em - analytic P_em|)
CASES = [
    (0.01, 7.3, 200, 1.9e-3),
    (0.01, 7.3, 400, 4.3e-4),
    (0.01, 7.3, 1600, 2.5e-5),
    (0.01, 15.0, 200, 5.0e-5),
    (0.01, 15.0, 400, 3.2e-5),
    (0.01, 15.0, 1600, 5.2e-5),
    (0.01, 100.0, 400, 5.7e-4),
    (0.01, 100.0, 1600, 7.6e-4),
    (0.01, 100.0, 6400, 7.6e-4),
    (1.0, 1000.0, 400, 0.5),
    (1.0, 1000.0, 1600, 2.4e-2),
    (1.0, 1000.0, 6400, 1.7e-3),
]


@pytest.mark.parametrize("k, kappaL, J, bound", CASES)
def test_sech2_within_its_measured_gap(k, kappaL, J, bound):
    analytic = _combine(sech2_analytic(k, kappaL, +1),
                        sech2_analytic(k, kappaL, -1)).P_em
    params = MazerParams.for_shape(ModeShape.SECH2, k, kappaL, J)
    assert abs(event_probabilities(params).P_em - analytic) <= bound
