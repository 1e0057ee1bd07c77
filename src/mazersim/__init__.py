"""mazersim: induced-emission probabilities for ultracold atoms crossing a
cavity mode, via exact transfer matrices on piecewise-linear potentials.

Typical use:

    >>> import mazersim as mz
    >>> p = mz.MazerParams.for_shape(mz.ModeShape.SECH2, 0.01, 10.0, 200)
    >>> mz.event_probabilities(p).P_em
    0.0237...

The heavy lifting lives in the submodules: exponentially scaled special
functions (specfun), the segment arrays and the batched Bessel bases of
sloped segments with a factored-out log scale (segment_basis), potential
discretization (grid), the propagator product and the recording
node-state sweep (transfer), branch combination (mazer), closed-form
references (oracles), and the CSV front end (cli).
"""

from .grid import (
    Grid,
    GridResolutionError,
    ModeProfile,
    ModeShape,
    build_grid,
    eval_mode,
    find_turning_points,
    load_tabulated,
)
from .mazer import (
    ConvergenceStudy,
    EventProbabilities,
    MazerParams,
    SweepRow,
    SweepTable,
    branch_amplitudes,
    convergence_study,
    elementary_amplitudes,
    event_probabilities,
    kappaL_range,
    sweep_kappaL,
)
from .oracles import (
    OracleResult,
    WkbPrediction,
    mesa_analytic,
    sech2_analytic,
    wkb_first_excited,
)
from .segment_basis import Regime
from .transfer import (
    ScatterResult,
    TransferError,
    solve_scattering,
    wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "Grid", "GridResolutionError", "ModeProfile", "ModeShape",
    "build_grid", "eval_mode", "find_turning_points", "load_tabulated",
    "ConvergenceStudy", "EventProbabilities", "MazerParams",
    "SweepRow", "SweepTable",
    "branch_amplitudes", "convergence_study", "elementary_amplitudes",
    "event_probabilities", "kappaL_range", "sweep_kappaL",
    "OracleResult", "WkbPrediction",
    "mesa_analytic", "sech2_analytic", "wkb_first_excited",
    "Regime",
    "ScatterResult", "TransferError", "solve_scattering", "wavefunction",
    "__version__",
]
