"""Host-speed probe: reads request times at one fixed host speed.

The benchmark runs on a few cores of a shared host.  While other tenants
are busy, this process runs up to 1.8 times slower, in CPU time as well as
in wall time, for stretches of a second to several minutes.  Raw times
taken at such different speeds do not compare from run to run.

The probe is a fixed piece of work shaped like the solver's inner loops:
scalar ``scipy.special`` Bessel calls, frozen-dataclass churn, ``math`` and
complex arithmetic.  It never calls mazersim, so no change to the program
changes it.  The timed loop runs it before every request and after the
last, and scales each request's wall time by ``NOMINAL_S`` over the mean of
the probe times on either side of it.  An adjusted time is the time the
request would take on a host on which the probe takes ``NOMINAL_S``.

On a shared 2-vCPU Xeon VM, over ten seeded 25-second runs per workload,
this cut the spread of ``rows_per_s`` (quartile distance over median) from
0.14-0.19 in wall time to 0.015-0.033.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

from scipy import special as _sp

NOMINAL_S = 0.004       # about the probe's time on that VM when it is quiet
BESSEL_CALLS = 200
OBJECT_STEPS = 1400


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _work() -> float:
    s = 0.0
    for i in range(1, BESSEL_CALLS + 1):
        y = 1.0 + 0.05 * i
        s += _sp.ive(1 / 3, y) + _sp.kve(1 / 3, y) + _sp.jv(2 / 3, y) + _sp.yv(2 / 3, y)
    acc = _Pair(s, 1.0)
    for i in range(1, OBJECT_STEPS + 1):
        p = _Pair(math.log(i), math.exp(-1e-4 * i))
        z = complex(p.a, p.b) * cmath.exp(1j * p.a)
        acc = _Pair(acc.a + z.real, max(acc.b, abs(z)))
    return acc.a


def probe() -> float:
    """Wall seconds of one run of the fixed work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two probes into an
    adjusted time."""
    return NOMINAL_S / (0.5 * (before + after))
