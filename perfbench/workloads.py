"""Workloads of the mazersim benchmark.

A workload is an endless, seeded stream of request cycles.  A request is
one call a user waits on: one ``mazersim.sweep_kappaL`` block or one
``mazersim.cli.main`` invocation.  The seed only chooses which lattice
points a request covers; the program receives the generated values.

Every request's output is checked before the next request starts, and the
check is not part of the request's time:

* each row against the reference rows in ``reference/`` (captured from
  the solver as it stood when the benchmark was defined), within the
  tolerance written beside them;
* closure |Ta2 + Tb2 + Ra2 + Rb2 - 1| <= 1e-8 on every row;
* sech2 rows against the analytic oracle (acceptance criterion 2 bounds);
* mesa rows against the closed form within 1e-10 relative (criterion 1).

A row counts as failed when it is an error row, when its invocation exits
non-zero or raises, or when it fails one of these checks.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import hostspeed
import mazersim as mz
from mazersim import cli
from mazersim.oracles import mesa_analytic, sech2_analytic

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

CLOSURE_MAX = 1e-8          # acceptance criterion 4
SECH2_DEV_MAX = 0.02        # acceptance criterion 2, every row
SECH2_DEV_MEDIAN = 0.005    # acceptance criterion 2, median of a run's rows
MESA_REL_TOL = 1e-10        # acceptance criterion 1
SPOT_ROWS = 3               # rows per lattice re-solved for log10|t|

SHAPES = {
    "mesa": mz.ModeShape.MESA,
    "sech2": mz.ModeShape.SECH2,
    "sin": mz.ModeShape.SIN_FUNDAMENTAL,
    "sin2": mz.ModeShape.SIN_FIRST_EXCITED,
    "gauss": mz.ModeShape.GAUSSIAN,
}


@dataclass(frozen=True)
class Lattice:
    """Evenly spaced kappaL values of one (shape, k, J) configuration."""

    name: str
    shape: str
    k: float
    J: int
    lo: float
    step: float
    n: int

    def value(self, i: int) -> float:
        # the same expression as mazersim.kappaL_range, so a one-row sweep
        # at value(i) runs exactly the reference input
        return self.lo + i * self.step

    def index(self, kappaL: float) -> int:
        i = round((kappaL - self.lo) / self.step)
        if not 0 <= i < self.n or abs(self.value(i) - kappaL) > 1e-6 * self.step:
            raise ValueError(f"kappaL {kappaL!r} is not on lattice {self.name}")
        return i

    def params(self) -> mz.MazerParams:
        top = max(self.value(self.n - 1), 1.0)
        return mz.MazerParams.for_shape(SHAPES[self.shape], self.k, top, self.J)


# criterion-5 rows: fundamental sine, k = 0.01, kappaL 1e5 .. 1e5 + 10
DEEP_SIN = Lattice("deep_sin", "sin", 0.01, 100, 1.0e5, 0.02, 501)
# criterion-2/8 lattices over kappaL 0 .. 20
SHORT_SECH2 = Lattice("short_sech2", "sech2", 0.01, 200, 0.0, 0.1, 201)
SHORT_GAUSS = Lattice("short_gauss", "gauss", 0.1, 300, 0.0, 0.1, 201)
# criterion-7 warm lattice: first excited sine, k = 0.1, kappaL 1e5 .. 1e5 + 20
CLI_SIN2 = Lattice("cli_sin2", "sin2", 0.1, 200, 1.0e5, 0.05, 401)
CLI_MESA = Lattice("cli_mesa", "mesa", 0.01, 2, 0.0, 0.05, 401)
# converge and wavefunction requests pick kappaL from 1, 2, ..., 20
CONVERGE = Lattice("converge", "sech2", 0.01, 100, 1.0, 1.0, 20)
CONVERGE_J = (100, 400, 1600)
WAVEFUNCTION = Lattice("wavefunction", "sech2", 0.01, 200, 1.0, 1.0, 20)
WAVEFUNCTION_SAMPLES = 400
WAVEFUNCTION_STRIDE = 8      # every 8th sample has a reference value

LATTICES = {lat.name: lat for lat in
            (DEEP_SIN, SHORT_SECH2, SHORT_GAUSS, CLI_SIN2, CLI_MESA)}

# Columns of one reference row: the sweep row's probabilities, then
# log10|t| of the barrier (+1) and well (-1) branches.
ROW_FIELDS = ("P_em", "Ta2", "Tb2", "Ra2", "Rb2", "log10_t_plus", "log10_t_minus")


def lattice_row(lat: Lattice, i: int, **overrides) -> list[float]:
    """Reference quantities at lattice point i through the public API."""
    kappaL = overrides.pop("kappaL", lat.value(i))
    params = lat.params()
    if overrides:
        params = mz.MazerParams.for_shape(
            SHAPES[lat.shape], overrides.get("k", lat.k), params.kappaL, lat.J,
            window_factor=overrides.get("window_factor", params.window_factor))
    row = mz.sweep_kappaL(params, kappaL, kappaL, lat.step).rows[0]
    if row.error is not None:
        raise RuntimeError(f"{lat.name}[{i}]: {row.error}")
    plus, minus = mz.branch_amplitudes(params.with_kappaL(kappaL))
    return [row.P_em, row.T_a_sq, row.T_b_sq, row.R_a_sq, row.R_b_sq,
            plus.t_log10_mag, minus.t_log10_mag]


def P_em_oracle(oracle, k: float, kappaL: float) -> float:
    plus = oracle(k, kappaL, +1)
    minus = oracle(k, kappaL, -1)
    return (abs(0.5 * (plus.t - minus.t)) ** 2
            + abs(0.5 * (plus.r - minus.r)) ** 2)


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


# --- checks -----------------------------------------------------------------

@dataclass
class Outcome:
    """Checked output of one request."""

    rows: int = 0
    failed: int = 0
    mazer_rows: int = 0          # sweep rows and convergence entries
    transparent_rows: int = 0    # rows at kappaL = 0
    max_closure: float = 0.0
    bytes_written: int = 0

    def count_missing(self, expected: int) -> None:
        """Rows the request should have produced but did not are failed."""
        missing = max(0, expected - self.rows)
        self.rows += missing
        self.failed += missing


class Checker:
    """Row checks against one workload's reference file."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.sech2_devs: list[float] = []
        self.spot: dict[str, list[int]] = {}

    def sweep_row(self, lat: Lattice, values: list[float], out: Outcome,
                  oracle_P: float | None = None) -> None:
        """values: kappaL, P_em, Ta2, Tb2, Ra2, Rb2 as the program gave them."""
        out.rows += 1
        out.mazer_rows += 1
        kappaL = values[0]
        if kappaL == 0.0:
            out.transparent_rows += 1
        ref = self.reference[lat.name]
        ok = all(math.isfinite(v) for v in values)
        if ok:
            closure = abs(sum(values[2:6]) - 1.0)
            out.max_closure = max(out.max_closure, closure)
            try:
                i = lat.index(kappaL)
            except ValueError:
                want = [math.nan] * 5
            else:
                want = ref["rows"][i]
                seen = self.spot.setdefault(lat.name, [])
                if len(seen) < SPOT_ROWS and i not in seen:
                    seen.append(i)
            tol = ref["tolerance"]["prob"]
            ok = closure <= CLOSURE_MAX and all(
                abs(got - exp) <= tol for got, exp in zip(values[1:6], want[:5]))
        if ok and lat.shape == "sech2":
            dev = abs(values[1] - P_em_oracle(sech2_analytic, lat.k, kappaL))
            ok = dev <= SECH2_DEV_MAX
            self.sech2_devs.append(dev)
        if ok and lat.shape == "mesa":
            ok = abs(values[1] - oracle_P) <= MESA_REL_TOL * abs(oracle_P)
        if not ok:
            out.failed += 1

    def spot_check(self) -> tuple[int, int]:
        """Re-solve the first rows seen on each lattice branch by branch and
        compare every reference field, log10|t| included; the sweep rows
        alone do not carry log10|t|.  Returns (attempted, failed)."""
        attempted = failed = 0
        for name, indices in self.spot.items():
            lat = LATTICES[name]
            ref = self.reference[name]
            tol = ref["tolerance"]
            for i in indices:
                attempted += 1
                try:
                    got = lattice_row(lat, i)
                except RuntimeError:
                    failed += 1
                    continue
                want = ref["rows"][i]
                ok = all(abs(a - b) <= tol["prob"] for a, b in zip(got[:5], want[:5]))
                ok = ok and all(abs(a - b) <= tol["log10_t"]
                                for a, b in zip(got[5:], want[5:]))
                failed += not ok
        return attempted, failed

    def finish(self) -> int:
        """Run-level criterion-2 median.  When it is exceeded, every sech2
        row above it that has not failed already counts as failed."""
        devs = self.sech2_devs
        if devs and statistics.median(devs) > SECH2_DEV_MEDIAN:
            return sum(1 for d in devs if SECH2_DEV_MEDIAN < d <= SECH2_DEV_MAX)
        return 0


# --- requests ----------------------------------------------------------------

@dataclass
class Request:
    """One call a user waits on, plus the check of what it returned."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    expected_rows: int
    workers: int = 1
    one_row: Callable[[], "Request"] | None = None   # same call, first row only


def _api_block(checker: Checker, lat: Lattice, start: int, size: int) -> Request:
    params = lat.params()
    lo, hi = lat.value(start), lat.value(start + size - 1)

    def check(table) -> Outcome:
        out = Outcome()
        for row in table.rows:
            values = [row.kappaL, row.P_em, row.T_a_sq, row.T_b_sq,
                      row.R_a_sq, row.R_b_sq]
            if row.error is not None:
                out.rows += 1
                out.failed += 1
                continue
            checker.sweep_row(lat, values, out)
        out.count_missing(size)
        return out

    return Request(f"sweep_{lat.shape}",
                   lambda: mz.sweep_kappaL(params, lo, hi, lat.step),
                   check, size,
                   one_row=lambda: _api_block(checker, lat, start, 1))


def _read_csv(path: Path) -> list[list[float]]:
    """Data rows of a mazersim CSV: the lines after the column header that
    are not '#' comments.  Error rows are NaN rows and fail their check."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


class _Cli:
    """Builds ``mazersim.cli.main`` requests writing into one scratch file."""

    def __init__(self, checker: Checker, scratch: Path, workers: int):
        self.checker = checker
        self.path = scratch / "cli_output.csv"
        self.workers = workers

    def _request(self, kind, argv, expected, check_rows, workers=1) -> Request:
        path = self.path
        argv = argv + ["--output", str(path)]

        def call():
            if path.exists():
                path.unlink()
            return cli.main(argv)

        def check(status) -> Outcome:
            out = Outcome()
            if status != 0 or not path.exists():
                out.rows = out.failed = expected
                return out
            out.bytes_written = path.stat().st_size
            check_rows(_read_csv(path), out)
            out.count_missing(expected)
            return out

        return Request(kind, call, check, expected, workers)

    def sweep(self, start: int, size: int) -> Request:
        lat = CLI_SIN2
        argv = ["sweep", "--profile", lat.shape, "--k", repr(lat.k),
                "--J", str(lat.J), "--range",
                f"{lat.value(start)!r}:{lat.value(start + size - 1)!r}:{lat.step!r}",
                "--workers", str(self.workers)]

        def rows_check(rows, out):
            for values in rows:
                self.checker.sweep_row(lat, values[:6], out)

        req = self._request("cli_sweep", argv, size, rows_check, self.workers)
        req.one_row = lambda: self.sweep(start, 1)
        return req

    def mesa(self, start: int, size: int) -> Request:
        lat = CLI_MESA
        argv = ["compare-oracle", "--profile", lat.shape, "--k", repr(lat.k),
                "--J", str(lat.J), "--range",
                f"{lat.value(start)!r}:{lat.value(start + size - 1)!r}:{lat.step!r}"]

        def rows_check(rows, out):
            for values in rows:
                # the oracle column is recomputed here, not trusted
                oracle_P = P_em_oracle(mesa_analytic, lat.k, values[0])
                self.checker.sweep_row(lat, values[:6], out, oracle_P)

        return self._request("cli_mesa", argv, size, rows_check)

    def converge(self, i: int) -> Request:
        lat = CONVERGE
        argv = ["converge", "--profile", lat.shape, "--k", repr(lat.k),
                "--kappaL", repr(lat.value(i)),
                "--J", ",".join(str(J) for J in CONVERGE_J)]

        def rows_check(rows, out):
            ref = self.checker.reference["converge"]
            tol = ref["tolerance"]["prob"]
            for (J, P), exp, J_want in zip(rows, ref["rows"][i], CONVERGE_J):
                out.rows += 1
                out.mazer_rows += 1
                if not (int(J) == J_want and abs(P - exp) <= tol):
                    out.failed += 1

        return self._request("cli_converge", argv, len(CONVERGE_J), rows_check)

    def wavefunction(self, i: int, branch: int) -> Request:
        lat = WAVEFUNCTION
        argv = ["wavefunction", "--profile", lat.shape, "--k", repr(lat.k),
                "--kappaL", repr(lat.value(i)), "--J", str(lat.J),
                "--branch", f"{branch:+d}",
                "--samples", str(WAVEFUNCTION_SAMPLES)]

        def rows_check(rows, out):
            ref = self.checker.reference["wavefunction"]
            want = ref["rows"][f"{i}{branch:+d}"]
            tol = ref["tolerance"]["psi"]
            for n, (x, re, im, abs2) in enumerate(rows):
                out.rows += 1
                ok = all(math.isfinite(v) for v in (x, re, im, abs2))
                if ok and n % WAVEFUNCTION_STRIDE == 0:
                    exp_re, exp_im = want[n // WAVEFUNCTION_STRIDE]
                    ok = abs(re - exp_re) <= tol and abs(im - exp_im) <= tol
                if not ok:
                    out.failed += 1

        return self._request("cli_wavefunction", argv, WAVEFUNCTION_SAMPLES,
                             rows_check)


# --- workloads ---------------------------------------------------------------

def _strata(n: int, count: int) -> list[tuple[int, int]]:
    """count consecutive index ranges [a, b) covering 0 .. n-1."""
    edges = [round(s * n / count) for s in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


class Workload:
    """A seeded stream of request cycles plus the checks of their output."""

    name = ""

    def __init__(self, seed: int, scratch: Path, reference: dict | None = None):
        self.rng = random.Random(seed)
        self.checker = Checker(
            load_reference(self.name) if reference is None else reference)

    def cycles(self) -> Iterator[list[Request]]:
        raise NotImplementedError


class DeepSin(Workload):
    """Serial sweep blocks on the criterion-5 lattice above kappaL = 1e5."""

    name = "deep_sin"
    BLOCK = 3
    STRATA = 10

    def cycles(self):
        lat = DEEP_SIN
        while True:
            yield [_api_block(self.checker, lat,
                              self.rng.randrange(a, b - self.BLOCK + 1), self.BLOCK)
                   for a, b in _strata(lat.n, self.STRATA)]


class ShortCavity(Workload):
    """Alternating sech2 and gauss blocks over kappaL 0 .. 20.

    Block sizes make both kinds cost about the same, so request latency has
    one mode.  Every cycle ends with the blocks at kappaL = 0, which take the
    transparent path; the other strata start at seeded offsets.
    """

    name = "short_cavity"
    SECH2_BLOCK = 3
    GAUSS_BLOCK = 2
    STRATA = 10

    def cycles(self):
        spans = _strata(SHORT_SECH2.n, self.STRATA)
        spans = spans[1:] + spans[:1]
        while True:
            cycle = []
            for a, b in spans:
                for lat, size in ((SHORT_SECH2, self.SECH2_BLOCK),
                                  (SHORT_GAUSS, self.GAUSS_BLOCK)):
                    start = 0 if a == 0 else self.rng.randrange(a, b - size + 1)
                    cycle.append(_api_block(self.checker, lat, start, size))
            yield cycle


class CliSession(Workload):
    """A fixed script of ``mazersim`` CLI invocations writing CSV files.

    Per cycle of ten: one pooled sweep, two convergence studies, four
    wavefunction dumps and three oracle comparisons on the mesa.  The mix
    puts the median latency inside the wavefunction requests and the 90th
    percentile inside the convergence studies.
    """

    name = "cli_session"
    SWEEP_ROWS = 16       # two pool chunks of 8, one per worker
    MESA_ROWS = 100
    ORDER = ("sweep", "wave", "mesa", "converge", "wave",
             "mesa", "wave", "converge", "mesa", "wave")

    def __init__(self, seed, scratch, reference=None):
        super().__init__(seed, scratch, reference)
        self.workers = min(2, usable_cpus())
        self.cli = _Cli(self.checker, scratch, self.workers)

    def cycles(self):
        rng = self.rng
        while True:
            cycle = []
            for kind in self.ORDER:
                if kind == "sweep":
                    cycle.append(self.cli.sweep(
                        rng.randrange(CLI_SIN2.n - self.SWEEP_ROWS + 1),
                        self.SWEEP_ROWS))
                elif kind == "mesa":
                    cycle.append(self.cli.mesa(
                        rng.randrange(CLI_MESA.n - self.MESA_ROWS + 1),
                        self.MESA_ROWS))
                elif kind == "converge":
                    cycle.append(self.cli.converge(rng.randrange(CONVERGE.n)))
                else:
                    cycle.append(self.cli.wavefunction(
                        rng.randrange(WAVEFUNCTION.n), rng.choice((1, -1))))
            yield cycle


WORKLOADS = {w.name: w for w in (DeepSin, ShortCavity, CliSession)}


# --- measurement -------------------------------------------------------------

@dataclass
class Measurement:
    """Totals of one timed loop over whole request cycles.

    ``latencies`` and ``busy_s`` are wall times; ``adjusted`` and
    ``adjusted_busy_s`` are the same times read at the host speed that
    ``hostspeed`` fixes.  The end-to-end metrics use the adjusted ones.
    """

    latencies: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    adjusted: list[float] = field(default_factory=list)
    adjusted_busy_s: float = 0.0
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    mazer_rows: int = 0
    transparent_rows: int = 0
    max_closure: float = 0.0
    bytes_written: int = 0
    pool_worker_s: float = 0.0      # workers x wall of pooled requests
    pool_children_cpu_s: float = 0.0

    @property
    def rows_per_s(self) -> float:
        """Correct rows per second of adjusted request time."""
        return self.rows / self.adjusted_busy_s

    @property
    def wall_rows_per_s(self) -> float:
        """Correct rows per second of wall request time."""
        return self.rows / self.busy_s

    def adjust_last(self, factor: float) -> None:
        """Record the adjusted time of the request added last."""
        adjusted = factor * self.latencies[-1]
        self.adjusted.append(adjusted)
        self.adjusted_busy_s += adjusted

    def add(self, req: Request, wall: float, out: Outcome) -> None:
        self.latencies.append(wall)
        self.busy_s += wall
        self.rows += out.rows - out.failed
        self.attempted += out.rows
        self.failed += out.failed
        self.mazer_rows += out.mazer_rows
        self.transparent_rows += out.transparent_rows
        self.max_closure = max(self.max_closure, out.max_closure)
        self.bytes_written += out.bytes_written


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_request(req: Request, m: Measurement, tracer=None) -> None:
    """Run one request, time it, check its output and add it to m."""
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = req.call()
        else:
            result = tracer.request(req.kind, req.workers > 1, req.call)
    except Exception:
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        out = Outcome(rows=req.expected_rows, failed=req.expected_rows)
    else:
        wall = time.perf_counter() - t0
        out = req.check(result)
    if tracer is not None:
        tracer.end_request(wall, out.rows)
    if req.workers > 1:
        m.pool_worker_s += req.workers * wall
        m.pool_children_cpu_s += _children_cpu() - cpu0
    m.add(req, wall, out)


def measure(stream: Iterator[list[Request]], seconds: float, tracer=None) -> Measurement:
    """Run whole cycles from the stream for about ``seconds`` seconds.

    The loop stops before a cycle that would be expected to end past the
    deadline, so every run covers whole cycles and the same request mix.
    The host-speed probe runs before every request and after the last one.
    """
    m = Measurement()
    t_start = time.perf_counter()
    cycles = 0
    before = hostspeed.probe()
    while True:
        for req in next(stream):
            run_request(req, m, tracer)
            after = hostspeed.probe()
            m.adjust_last(hostspeed.scale(before, after))
            before = after
        cycles += 1
        elapsed = time.perf_counter() - t_start
        if elapsed * (cycles + 1) / cycles > seconds:
            return m


def first_row(name: str, seed: int, scratch: Path) -> None:
    """Complete the first row of a workload's first request, unchecked."""
    workload = WORKLOADS[name](seed, scratch, reference={})
    result = next(workload.cycles())[0].one_row().call()
    if isinstance(result, mz.SweepTable):
        if result.has_errors:
            raise RuntimeError(f"first row of {name}: {result.rows[0].error}")
    elif result != 0:
        raise RuntimeError(f"first row of {name} exited with status {result}")
