"""Induced-emission probabilities from the two dressed scattering problems.

A cold atom crossing a cavity mode sees one of two dressed potentials,
+u(x)/2 or -u(x)/2.  Each branch is an independent scattering problem; the
emission-event amplitudes are half the difference of the two branches'
amplitudes, and their squared magnitudes give the induced emission
probability P_em.  Everything is parameterized by exactly two numbers,
k_over_kappa and kappaL, plus the mode shape.

Rows are solved in chunks, and a lone row is a chunk of one: the
parameters and branch grids of a chunk are built first, then their
segments classified and their propagators formed in one pass, multiplied
out in one pairwise tree over all of them and every grid's outgoing wave
carried across its product in one step
(:func:`~mazersim.transfer.sweep_products`), and each branch solved from
its own readout.  A pooled sweep hands its workers chunks of eight rows; a
sweep in this process takes as many rows as keep a chunk's grids within
the 4,096 nodes of eight rows at J = 256, and never fewer than eight.
Should the shared pass raise, every grid of the chunk is solved alone.
The results are bit for bit those of solving each branch alone.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat

from .grid import (
    DEFAULT_WINDOW_FACTOR,
    J_MAX,
    Grid,
    ModeProfile,
    ModeShape,
    build_grid,
    check_J,
    check_k_over_kappa,
    check_window_factor,
)
from .transfer import ScatterResult, solve_scattering, sweep_products

__all__ = [
    "MazerParams",
    "EventProbabilities",
    "SweepRow",
    "SweepTable",
    "ConvergenceStudy",
    "elementary_amplitudes",
    "branch_amplitudes",
    "event_probabilities",
    "sweep_kappaL",
    "convergence_study",
]


@dataclass(frozen=True)
class MazerParams:
    """One mazer configuration.  The interaction length kappaL is the
    profile's length, which the profile validates; :meth:`for_shape` and
    :meth:`with_kappaL` build the profile from a shape and a length."""

    k_over_kappa: float
    profile: ModeProfile
    J: int
    window_factor: float = DEFAULT_WINDOW_FACTOR

    def __post_init__(self) -> None:
        check_k_over_kappa(self.k_over_kappa)
        check_J(self.J)
        check_window_factor(self.window_factor)

    @property
    def kappaL(self) -> float:
        return self.profile.length

    @classmethod
    def for_shape(
        cls,
        shape: ModeShape,
        k_over_kappa: float,
        kappaL: float,
        J: int,
        *,
        window_factor: float = DEFAULT_WINDOW_FACTOR,
    ) -> "MazerParams":
        return cls(
            k_over_kappa=k_over_kappa,
            profile=ModeProfile(shape, kappaL),
            J=J,
            window_factor=window_factor,
        )

    def with_kappaL(self, kappaL: float) -> "MazerParams":
        """Same configuration at a different interaction length."""
        if self.profile.shape is ModeShape.TABULATED:
            raise ValueError("tabulated profiles have a fixed length")
        return replace(self, profile=ModeProfile(self.profile.shape, kappaL))


@dataclass(frozen=True)
class EventProbabilities:
    """Squared event amplitudes; their sum closes to 1 for real potentials."""

    T_a_sq: float
    T_b_sq: float
    R_a_sq: float
    R_b_sq: float
    P_em: float
    closure_defect: float


@dataclass(frozen=True)
class SweepRow:
    kappaL: float
    P_em: float
    T_a_sq: float
    T_b_sq: float
    R_a_sq: float
    R_b_sq: float
    unit_defect_plus: float
    unit_defect_minus: float
    error: str | None = None


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    @property
    def has_errors(self) -> bool:
        return any(row.error is not None for row in self.rows)


@dataclass(frozen=True)
class ConvergenceStudy:
    entries: tuple[tuple[int, float], ...]
    settle: float


# either branch of a row at kappaL = 0, where there is no potential
_TRANSPARENT = ScatterResult(t=1.0 + 0.0j, r=0.0 + 0.0j, unitarity_defect=0.0,
                             t_log10_mag=0.0, log10_scale=0.0)


def _grid(params: MazerParams, branch: int) -> Grid:
    return build_grid(params.profile, branch, params.k_over_kappa, params.J,
                      window_factor=params.window_factor)


def elementary_amplitudes(params: MazerParams, branch: int) -> ScatterResult:
    """Scattering amplitudes for one dressed-potential branch, solved alone."""
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    if params.kappaL == 0.0:
        return _TRANSPARENT
    return solve_scattering(_grid(params, branch))


# rows per task of a pooled sweep.  A sweep in this process takes
# max(_CHUNK_ROWS, _CHUNK_NODES // (2 * J)) rows a chunk, two grids of J
# nodes a row: a chunk's pass and tree cost about 60 numpy calls whatever
# its size, and no chunk holds more nodes, nor memory, than eight rows at
# J = 256 (1,024 rows at J = 2, 20 at J = 100, eight from J = 256)
_CHUNK_ROWS = 8
_CHUNK_NODES = 4096


def _solve_chunk(make, values: list) -> list:
    """(plus, minus) amplitudes of the row ``make(value)`` for every value,
    or the exception that ends it.

    All branch grids are built before one :func:`sweep_products` pass over
    them; each branch is then solved from its readout.  A row fails as it
    would alone, at the first of its parameters, + grid, + solve, - grid
    and - solve to raise.  Should the shared pass raise, every grid is
    solved alone, so each failing row reports the message of a lone solve.
    """
    built = []
    for value in values:
        grids: list = []   # in build order, up to the first exception
        try:
            params = make(value)
            for branch in (+1, -1) if params.kappaL != 0.0 else ():
                grids.append(_grid(params, branch))
        except Exception as exc:
            grids.append(exc)
        built.append(grids)
    try:
        shared = iter(sweep_products(
            [g for grids in built for g in grids if isinstance(g, Grid)]))
    except Exception:
        shared = repeat(None)
    out = []
    for grids in built:
        # every grid takes its readout, also one behind a failed solve
        readouts = [next(shared) if isinstance(g, Grid) else None for g in grids]
        out.append(_solve_branches(grids, readouts) if grids
                   else (_TRANSPARENT,) * 2)
    return out


def _solve_branches(grids: list, readouts: list):
    """(plus, minus) from a row's grids and their readouts, or the first
    exception in the order of a lone solve."""
    results = []
    for grid, readout in zip(grids, readouts):
        if isinstance(grid, Exception):
            return grid
        try:
            results.append(solve_scattering(grid, readout=readout))
        except Exception as exc:
            return exc
    return tuple(results)


def branch_amplitudes(params: MazerParams) -> tuple[ScatterResult, ScatterResult]:
    """Both branches of one row, read out in one pass."""
    (outcome,) = _solve_chunk(lambda row: row, [params])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _combine(plus: ScatterResult, minus: ScatterResult) -> EventProbabilities:
    t_a = 0.5 * (plus.t + minus.t)
    t_b = 0.5 * (plus.t - minus.t)
    r_a = 0.5 * (plus.r + minus.r)
    r_b = 0.5 * (plus.r - minus.r)
    T_a_sq = abs(t_a) ** 2
    T_b_sq = abs(t_b) ** 2
    R_a_sq = abs(r_a) ** 2
    R_b_sq = abs(r_b) ** 2
    total = T_a_sq + T_b_sq + R_a_sq + R_b_sq
    return EventProbabilities(
        T_a_sq=T_a_sq, T_b_sq=T_b_sq, R_a_sq=R_a_sq, R_b_sq=R_b_sq,
        P_em=T_b_sq + R_b_sq, closure_defect=abs(total - 1.0))


def event_probabilities(params: MazerParams) -> EventProbabilities:
    plus, minus = branch_amplitudes(params)
    return _combine(plus, minus)


def _sweep_row(kappaL: float, outcome) -> SweepRow:
    if isinstance(outcome, Exception):
        nan = math.nan
        return SweepRow(
            kappaL=kappaL, P_em=nan, T_a_sq=nan, T_b_sq=nan,
            R_a_sq=nan, R_b_sq=nan,
            unit_defect_plus=nan, unit_defect_minus=nan,
            error=f"{type(outcome).__name__}: {outcome}")
    plus, minus = outcome
    ev = _combine(plus, minus)
    return SweepRow(
        kappaL=kappaL, P_em=ev.P_em,
        T_a_sq=ev.T_a_sq, T_b_sq=ev.T_b_sq,
        R_a_sq=ev.R_a_sq, R_b_sq=ev.R_b_sq,
        unit_defect_plus=plus.unitarity_defect,
        unit_defect_minus=minus.unitarity_defect)


def _sweep_chunk(params: MazerParams, values: list[float]) -> list[SweepRow]:
    """The rows of a chunk of kappaL values, each failure kept in its row."""
    return list(map(_sweep_row, values, _solve_chunk(params.with_kappaL, values)))


# the most points a kappaL range may have, checked before its list is
# built, so a range such as 0:1e15:1 fails at once instead of exhausting
# memory; the largest stored lattice has 501
SWEEP_ROWS_MAX = 10**6


def kappaL_range(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo+step, ... inclusive of hi whenever it lands within half a step;
    at most ``SWEEP_ROWS_MAX`` points."""
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValueError(f"range {lo}:{hi}:{step} must be finite")
    if not step > 0.0:
        raise ValueError("step must be positive")
    if lo < 0.0:
        raise ValueError("range lower bound must not be negative")
    if hi < lo:
        raise ValueError("range upper bound below lower bound")
    count = (hi - lo) / step
    if not math.isfinite(count):
        raise ValueError(f"range {lo}:{hi}:{step} has no finite point count")
    n = int(math.floor(count + 0.5))
    if n + 1 > SWEEP_ROWS_MAX:
        raise ValueError(f"range {lo}:{hi}:{step} has {n + 1} points, above "
                         f"SWEEP_ROWS_MAX = {SWEEP_ROWS_MAX}")
    values = [lo + i * step for i in range(n + 1)]
    return [v for v in values if v <= hi + 0.5 * step]


def check_workers(workers: int) -> None:
    """Raise ValueError unless workers is an integer of at least 1."""
    if not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers = {workers!r} must be an integer of at "
                         "least 1")


# The pool of pooled sweeps.  The first sweep that needs more than one
# process starts it.  A later sweep reuses it only when it would run on
# exactly the processes asked for, min(pool size, chunks) == processes;
# any other replaces it, shutting the old pool down first so no
# executor thread is alive at the fork.  Its idle workers keep their
# memory until the interpreter exits, when concurrent.futures' exit hook
# ends them, and they hold the module state of the sweep that started
# them.  The lock covers getting the pool and submitting the chunks, so a
# replacement's shutdown waits for every chunk already handed out.
_pool: ProcessPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child holds a copy of the parent's executor without its
    # threads or workers
    global _pool, _pool_size, _pool_lock
    _pool, _pool_size, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down, and forget it if it is the cached pool."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is pool:
            _pool, _pool_size = None, 0
    pool.shutdown(wait=True)


def _pooled_map(solve, chunks: list, processes: int) -> list:
    """``solve`` of every chunk, in order, on the cached pool, replaced
    first by one of ``processes`` processes unless it would run the
    chunks on exactly that many.  A pool found broken (a worker killed
    between sweeps, say) is dropped and the chunks are solved once more
    on a fresh one; a second break raises."""
    global _pool, _pool_size
    for retry in (False, True):
        try:
            with _pool_lock:
                if min(_pool_size, len(chunks)) != processes:
                    if _pool is not None:
                        _pool.shutdown(wait=True)
                    _pool = ProcessPoolExecutor(max_workers=processes)
                    _pool_size = processes
                pool = _pool
                results = pool.map(solve, chunks)
            return list(results)
        except BrokenProcessPool:
            _drop_pool(pool)
            if retry:
                raise


def sweep_kappaL(
    params: MazerParams,
    lo: float,
    hi: float,
    step: float,
    *,
    workers: int = 1,
) -> SweepTable:
    """P_em and event probabilities across an interaction-length range.

    Rows are independent; a failing row is kept with its error message so
    the sweep never silently drops a length.  The rows are solved in
    chunks that share one propagator pass and one product tree; should a
    chunk's shared pass raise, each of its grids is solved alone.  With
    ``workers`` > 1 and more than eight rows, each chunk of eight rows is
    one task on min(workers, ceil(rows / 8), usable CPUs) processes of a
    pool kept for later sweeps, which a later sweep reuses only when the
    pool would run its chunks on exactly that many processes.  Otherwise
    the sweep runs in this process, in chunks of max(8, 4096 // (2 * J))
    rows, which hold no more grid nodes than eight rows at J = 256.
    Output order is by kappaL regardless of worker scheduling.
    """
    check_workers(workers)
    values = kappaL_range(lo, hi, step)
    solve = partial(_sweep_chunk, params)
    # a pool starts all its processes at once, used or not
    processes = min(workers, math.ceil(len(values) / _CHUNK_ROWS),
                    _usable_cpus())
    size = (_CHUNK_ROWS if processes > 1
            else max(_CHUNK_ROWS, _CHUNK_NODES // (2 * params.J)))
    chunks = [values[i:i + size] for i in range(0, len(values), size)]
    if processes > 1:
        tables = _pooled_map(solve, chunks, processes)
    else:
        tables = map(solve, chunks)
    return SweepTable(rows=tuple(row for table in tables for row in table))


# the largest sum of a convergence list's grid sizes, checked before any
# of its grids is built: a study builds them all for its one pass, which
# peaks near 1.6 kB per unit of the sum (sech2, tracemalloc), and
# 8 * J_MAX is the sum of an 8-row sweep chunk at J_MAX
J_LIST_SUM_MAX = _CHUNK_ROWS * J_MAX


def check_J_list(J_list: list[int]) -> None:
    """Raise ValueError unless J_list is a nonempty, strictly ascending
    list of grid sizes that sum to at most ``J_LIST_SUM_MAX``.  Each J is
    checked by its row, so the first J that fails raises."""
    if not J_list:
        raise ValueError("J list must be nonempty")
    if any(b <= a for a, b in zip(J_list, J_list[1:])):
        raise ValueError("J list must be strictly ascending")
    if sum(J_list) > J_LIST_SUM_MAX:
        raise ValueError(f"J list sums to {sum(J_list)}, above "
                         f"J_LIST_SUM_MAX = {J_LIST_SUM_MAX}")


def convergence_study(params: MazerParams, J_list: list[int]) -> ConvergenceStudy:
    """P_em at each grid resolution plus a settling figure: the largest
    pairwise spread among the denser half of the list.

    The J values are solved as one chunk, one propagator pass and one
    product tree; the first J that fails raises its exception, as
    :func:`event_probabilities` would at that J alone."""
    check_J_list(J_list)
    entries = []
    for J, outcome in zip(J_list, _solve_chunk(
            lambda J: replace(params, J=J), J_list)):
        if isinstance(outcome, Exception):
            raise outcome
        entries.append((J, _combine(*outcome).P_em))
    top = [p for _, p in entries[len(entries) // 2:]]
    settle = max(abs(a - b) for a in top for b in top) if len(top) > 1 else 0.0
    return ConvergenceStudy(entries=tuple(entries), settle=settle)
