"""Induced-emission probabilities from the two dressed scattering problems.

A cold atom crossing a cavity mode sees one of two dressed potentials,
+u(x)/2 or -u(x)/2.  Each branch is an independent scattering problem; the
emission-event amplitudes are half the difference of the two branches'
amplitudes, and their squared magnitudes give the induced emission
probability P_em.  Everything is parameterized by exactly two numbers,
k_over_kappa and kappaL, plus the mode shape.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

from .grid import (
    DEFAULT_WINDOW_FACTOR,
    ModeProfile,
    ModeShape,
    build_grid,
    check_k_over_kappa,
)
from .transfer import ScatterResult, solve_scattering

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
    """One mazer configuration; kappaL duplicates profile.length on purpose
    so sweeps can restate the same shape at many lengths."""

    k_over_kappa: float
    kappaL: float
    profile: ModeProfile
    J: int
    window_factor: float = DEFAULT_WINDOW_FACTOR

    def __post_init__(self) -> None:
        check_k_over_kappa(self.k_over_kappa)
        if self.kappaL < 0.0:
            raise ValueError("kappaL must be nonnegative")
        if not isinstance(self.J, numbers.Integral):
            raise ValueError(f"J = {self.J!r} must be an integer")
        if self.J < 2:
            raise ValueError("J must be at least 2")
        if not 0.0 < self.window_factor < math.inf:
            raise ValueError(f"window_factor = {self.window_factor!r} must be "
                             "positive and finite")
        if self.profile.length != self.kappaL:
            raise ValueError(
                f"profile length {self.profile.length} != kappaL {self.kappaL}")

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
            kappaL=kappaL,
            profile=ModeProfile(shape, kappaL),
            J=J,
            window_factor=window_factor,
        )

    def with_kappaL(self, kappaL: float) -> "MazerParams":
        """Same configuration at a different interaction length."""
        if self.profile.shape is ModeShape.TABULATED:
            raise ValueError("tabulated profiles have a fixed length")
        return replace(
            self, kappaL=kappaL, profile=ModeProfile(self.profile.shape, kappaL))


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
    params: MazerParams

    @property
    def has_errors(self) -> bool:
        return any(row.error is not None for row in self.rows)


@dataclass(frozen=True)
class ConvergenceStudy:
    entries: tuple[tuple[int, float], ...]
    settle: float


def _transparent(params: MazerParams) -> ScatterResult:
    k = params.k_over_kappa
    return ScatterResult(
        t=1.0 + 0.0j, r=0.0 + 0.0j, unitarity_defect=0.0,
        E=0.5 * k * k, k=k, t_log10_mag=0.0, log10_scale=0.0)


def elementary_amplitudes(params: MazerParams, branch: int) -> ScatterResult:
    """Scattering amplitudes for one dressed-potential branch."""
    if branch not in (+1, -1):
        raise ValueError("branch must be +1 or -1")
    if params.kappaL == 0.0:
        return _transparent(params)
    grid = build_grid(
        params.profile, branch, params.k_over_kappa, params.J,
        window_factor=params.window_factor)
    return solve_scattering(grid)


def branch_amplitudes(params: MazerParams) -> tuple[ScatterResult, ScatterResult]:
    return elementary_amplitudes(params, +1), elementary_amplitudes(params, -1)


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


def _sweep_row(params: MazerParams, kappaL: float) -> SweepRow:
    try:
        row_params = params.with_kappaL(kappaL)
        plus, minus = branch_amplitudes(row_params)
        ev = _combine(plus, minus)
        return SweepRow(
            kappaL=kappaL, P_em=ev.P_em,
            T_a_sq=ev.T_a_sq, T_b_sq=ev.T_b_sq,
            R_a_sq=ev.R_a_sq, R_b_sq=ev.R_b_sq,
            unit_defect_plus=plus.unitarity_defect,
            unit_defect_minus=minus.unitarity_defect)
    except Exception as exc:
        nan = math.nan
        return SweepRow(
            kappaL=kappaL, P_em=nan, T_a_sq=nan, T_b_sq=nan,
            R_a_sq=nan, R_b_sq=nan,
            unit_defect_plus=nan, unit_defect_minus=nan,
            error=f"{type(exc).__name__}: {exc}")


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
    the sweep never silently drops a length.  Output order is by kappaL
    regardless of worker scheduling.
    """
    values = kappaL_range(lo, hi, step)
    row = partial(_sweep_row, params)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row, values, chunksize=8))
    else:
        rows = [row(v) for v in values]
    return SweepTable(rows=tuple(rows), params=params)


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
