"""Induced-emission probabilities from the two dressed scattering problems.

A cold atom crossing a cavity mode sees one of two dressed potentials,
+u(x)/2 or -u(x)/2.  Each branch is an independent scattering problem; the
emission-event amplitudes are half the difference of the two branches'
amplitudes, and their squared magnitudes give the induced emission
probability P_em.  Everything is parameterized by exactly two numbers,
k_over_kappa and kappaL, plus the mode shape.

Rows are solved in chunks of up to eight, serial and pooled alike, and a
lone row is a chunk of one: the branch grids of a chunk are built first,
then their propagators formed in one pass and multiplied out in one
pairwise tree over all of them
(:func:`~mazersim.transfer.sweep_products`), and each branch solved from
its own product.  The results are bit for bit those of solving each
branch alone.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat

from .grid import (
    DEFAULT_WINDOW_FACTOR,
    Grid,
    ModeProfile,
    ModeShape,
    build_grid,
    check_k_over_kappa,
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
        if not isinstance(self.J, numbers.Integral):
            raise ValueError(f"J = {self.J!r} must be an integer")
        if self.J < 2:
            raise ValueError("J must be at least 2")
        if not 0.0 < self.window_factor < math.inf:
            raise ValueError(f"window_factor = {self.window_factor!r} must be "
                             "positive and finite")

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


# rows per chunk: the rows of a chunk share one propagator pass and one
# product tree, and a pooled sweep hands its workers one chunk per task
_CHUNK_ROWS = 8


def _branch_grids(row) -> list:
    """The + and - grids of a row in build order, a build that raises
    ending the list with its exception; a transparent row has none."""
    if isinstance(row, Exception):
        return [row]
    grids: list = []
    for branch in (+1, -1) if row.kappaL != 0.0 else ():
        try:
            grids.append(_grid(row, branch))
        except Exception as exc:
            grids.append(exc)
            break
    return grids


def _solve_chunk(rows: list) -> list:
    """(plus, minus) amplitudes of every row, or the exception that ends it;
    a row is a MazerParams or the exception that already ended it.

    All branch grids are built before one :func:`sweep_products` pass over
    them; each branch is then solved from its product.  A row fails as it
    would alone, at the first of + grid, + solve, - grid, - solve that
    raises.  Should the shared pass raise, every grid forms its own
    product, so each failing row reports the message of a lone solve.
    """
    built = [_branch_grids(row) for row in rows]
    try:
        shared = iter(sweep_products(
            [g for grids in built for g in grids if isinstance(g, Grid)]))
    except Exception:
        shared = repeat(None)
    out = []
    for row, grids in zip(rows, built):
        # every grid takes its product, also one behind a failed solve
        products = [next(shared) if isinstance(g, Grid) else None for g in grids]
        out.append(_solve_branches(grids, products) if grids
                   else (_TRANSPARENT,) * 2)
    return out


def _solve_branches(grids: list, products: list):
    """(plus, minus) from a row's grids and their propagator products, or
    the first exception in the order of a lone solve."""
    results = []
    for grid, product in zip(grids, products):
        if isinstance(grid, Exception):
            return grid
        try:
            results.append(solve_scattering(grid, product=product))
        except Exception as exc:
            return exc
    return tuple(results)


def branch_amplitudes(params: MazerParams) -> tuple[ScatterResult, ScatterResult]:
    """Both branches of one row, their products formed in one pass."""
    (outcome,) = _solve_chunk([params])
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
    rows: list = []
    for kappaL in values:
        try:
            rows.append(params.with_kappaL(kappaL))
        except Exception as exc:
            rows.append(exc)
    return list(map(_sweep_row, values, _solve_chunk(rows)))


def kappaL_range(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo+step, ... inclusive of hi whenever it lands within half a step."""
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
    values = [lo + i * step for i in range(n + 1)]
    return [v for v in values if v <= hi + 0.5 * step]


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
    chunks of eight that share one propagator pass and one product tree;
    with ``workers`` > 1
    each chunk is one task of a process pool.  Output order is by kappaL
    regardless of worker scheduling.
    """
    values = kappaL_range(lo, hi, step)
    chunks = [values[i:i + _CHUNK_ROWS]
              for i in range(0, len(values), _CHUNK_ROWS)]
    solve = partial(_sweep_chunk, params)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tables = list(pool.map(solve, chunks))
    else:
        tables = map(solve, chunks)
    return SweepTable(rows=tuple(row for table in tables for row in table))


def convergence_study(params: MazerParams, J_list: list[int]) -> ConvergenceStudy:
    """P_em at each grid resolution plus a settling figure: the largest
    pairwise spread among the denser half of the list."""
    if not J_list:
        raise ValueError("J_list must be nonempty")
    if any(b <= a for a, b in zip(J_list, J_list[1:])):
        raise ValueError("J_list must be strictly ascending")
    entries = []
    for J in J_list:
        ev = event_probabilities(replace(params, J=J))
        entries.append((J, ev.P_em))
    top = [p for _, p in entries[len(entries) // 2:]]
    settle = max(abs(a - b) for a in top for b in top) if len(top) > 1 else 0.0
    return ConvergenceStudy(entries=tuple(entries), settle=settle)
