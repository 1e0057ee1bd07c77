"""Tests for the induced-emission layer: branch combination, sweeps,
convergence studies, and the zero-length shortcut."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mazersim import mazer
from mazersim.grid import (
    GridResolutionError,
    J_MAX,
    K_OVER_KAPPA_MAX,
    LENGTH_MAX,
    ModeProfile,
    ModeShape,
    WINDOW_FACTOR_MAX,
)
from mazersim.mazer import (
    ConvergenceStudy,
    MazerParams,
    SweepRow,
    _combine,
    _solve_chunk,
    branch_amplitudes,
    convergence_study,
    elementary_amplitudes,
    event_probabilities,
    kappaL_range,
    sweep_kappaL,
)
from mazersim.oracles import sech2_analytic

# Reference value pinned from the closed-form amplitudes at
# k_over_kappa=0.01, kappaL=10 (same combination rule as the solver).
SECH2_PEM_GOLDEN = 0.023762721955837014


@pytest.fixture
def fresh_pool():
    """No cached sweep pool before the test, nor after it."""
    def drop():
        if mazer._pool is not None:
            mazer._drop_pool(mazer._pool)
    drop()
    yield
    drop()


def make_params(shape=ModeShape.SECH2, k=0.1, L=5.0, J=100, **kw):
    return MazerParams.for_shape(shape, k, L, J, **kw)


class TestParamsValidation:
    def test_rejects_nonpositive_momentum(self):
        with pytest.raises(ValueError):
            make_params(k=0.0)
        with pytest.raises(ValueError):
            make_params(k=-0.5)

    @pytest.mark.parametrize("k", [math.inf, 1.0e300, 1.0e-300, math.nan])
    def test_rejects_momentum_outside_float_range(self, k):
        # k exceeds the bound (inf, 1e300) or E = k^2/2 underflows to 0
        # (1e-300)
        with pytest.raises(ValueError, match="k_over_kappa"):
            make_params(k=k)

    def test_refuses_momentum_just_above_the_bound(self):
        make_params(k=K_OVER_KAPPA_MAX)
        with pytest.raises(ValueError, match=r"k_over_kappa.*at most 1e\+75"):
            make_params(k=math.nextafter(K_OVER_KAPPA_MAX, math.inf))

    @pytest.mark.parametrize("window_factor", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_window_factor_outside_domain(self, window_factor):
        # each of these left every sweep row failing with "empty window" or
        # "grid nodes not strictly increasing"
        with pytest.raises(ValueError, match="window_factor"):
            make_params(window_factor=window_factor)

    def test_refuses_window_factor_just_above_the_bound(self):
        # the factors in use and the bound itself are accepted; the next
        # float is refused by name
        for window_factor in (8.0, 10.0, 16.0, math.nextafter(16.0, 0.0),
                              math.nextafter(16.0, math.inf),
                              WINDOW_FACTOR_MAX):
            make_params(window_factor=window_factor)
        with pytest.raises(ValueError, match=r"WINDOW_FACTOR_MAX = 1000"):
            make_params(window_factor=math.nextafter(WINDOW_FACTOR_MAX,
                                                     math.inf))

    @pytest.mark.parametrize("kappaL,window_factor", [(1.0, 1e200),
                                                      (1e100, 1e50)])
    def test_refuses_windows_that_lost_closure(self, kappaL, window_factor):
        # these rows returned closure defects of 1.35 and 0.48 without an
        # error
        with pytest.raises(ValueError, match="WINDOW_FACTOR_MAX"):
            make_params(ModeShape.SECH2, 1e-150, kappaL, 13,
                        window_factor=window_factor)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            make_params(L=-1.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            make_params(J=1)

    def test_refuses_grid_size_above_the_bound(self):
        # the bound itself is accepted (nothing is built here); the next
        # integer is refused by name
        make_params(J=J_MAX)
        with pytest.raises(ValueError, match=r"J_MAX = 100000"):
            make_params(J=J_MAX + 1)
        with pytest.raises(ValueError, match=r"J_MAX = 100000"):
            convergence_study(make_params(), [50, J_MAX + 1])

    def test_refuses_J_lists_summing_above_the_bound(self, monkeypatch):
        # every J is within J_MAX, but the grids of the whole list would
        # be built at once; the list is refused before any of them
        J_list = list(range(J_MAX - 8, J_MAX + 1))
        assert sum(J_list) > mazer.J_LIST_SUM_MAX == 8 * J_MAX
        monkeypatch.setattr(mazer, "build_grid", None)
        with pytest.raises(ValueError, match=r"J_LIST_SUM_MAX = 800000"):
            convergence_study(make_params(), J_list)
        # the eight largest grid sizes and 28 sum to the bound, which is
        # accepted; one node more is refused
        top = list(range(J_MAX - 7, J_MAX + 1))
        mazer.check_J_list([28, *top])
        with pytest.raises(ValueError, match="sums to 800001"):
            mazer.check_J_list([29, *top])

    @pytest.mark.parametrize("J", [2.5, 100.0])
    def test_rejects_non_integer_grid_size(self, J):
        # a float J used to pass and fail later inside numpy with
        # "TypeError: 'float' object cannot be interpreted as an integer"
        with pytest.raises(ValueError, match="must be an integer"):
            make_params(J=J)

    def test_accepts_numpy_integer_grid_size(self):
        params = make_params(J=np.int64(100))
        assert event_probabilities(params).closure_defect <= 1e-8

    def test_with_kappaL_rebuilds_profile(self):
        p = make_params(L=5.0)
        q = p.with_kappaL(7.5)
        assert q.kappaL == 7.5
        assert q.profile.length == 7.5
        assert q.profile.shape is ModeShape.SECH2
        assert q.J == p.J and q.k_over_kappa == p.k_over_kappa

    def test_kappaL_is_the_table_span(self):
        profile = ModeProfile(
            ModeShape.TABULATED, 0.0, table=((-1.5, 0.0), (1.0, 0.5)))
        p = MazerParams(k_over_kappa=0.1, profile=profile, J=10)
        assert p.kappaL == 2.5

    def test_with_kappaL_refuses_tabulated(self):
        profile = ModeProfile(
            ModeShape.TABULATED, 0.0, table=((0.0, 0.0), (1.0, 0.5)))
        p = MazerParams(k_over_kappa=0.1, profile=profile, J=10)
        with pytest.raises(ValueError):
            p.with_kappaL(2.0)

    def test_elementary_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            elementary_amplitudes(make_params(), 0)


class TestZeroLength:
    def test_amplitudes_are_transparent(self):
        p = make_params(L=0.0)
        for branch in (+1, -1):
            res = elementary_amplitudes(p, branch)
            assert res.t == 1.0 + 0.0j
            assert res.r == 0.0 + 0.0j
            assert res.unitarity_defect == 0.0
            assert res.t_log10_mag == 0.0

    def test_no_emission_without_interaction(self):
        ev = event_probabilities(make_params(L=0.0))
        assert ev.P_em == 0.0
        assert ev.T_a_sq == 1.0
        assert ev.T_b_sq == ev.R_a_sq == ev.R_b_sq == 0.0
        assert ev.closure_defect == 0.0


class TestShortLengths:
    @pytest.mark.parametrize("k", [0.01, 1.0])
    @pytest.mark.parametrize("shape", [
        s for s in ModeShape if s is not ModeShape.TABULATED])
    def test_every_tenth_decade_down_to_the_floor_closes(self, shape, k):
        # far below LENGTH_MIN builds overflow, underflow or leak scipy's
        # bracket error; from the floor up rows close without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in range(-100, 1, 10):
                ev = event_probabilities(make_params(shape, k, 10.0 ** e, 50))
                assert ev.closure_defect <= 1e-8, e


class TestMiddleLengths:
    @pytest.mark.parametrize("k", [1e-150, 1e-100])
    @pytest.mark.parametrize("shape", [
        ModeShape.SIN_FUNDAMENTAL, ModeShape.SIN_FIRST_EXCITED])
    def test_shallow_sine_slopes_close(self, shape, k):
        # at tiny k the sines' slopes near the turning points are so
        # shallow that 9 b^2 left the normal floats in the turning-point
        # series, whose divide by it made the node states NaN.  At k 1e-150
        # kappaL 1e24-1e42 still overflow in the sloped propagators or
        # leave the slope's sign to rounding, and are left out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in range(0, 64, 3):
                if k == 1e-150 and 24 <= e <= 42:
                    continue
                for J in (13, 50, 400):
                    ev = event_probabilities(
                        make_params(shape, k, float(f"1e{e}"), J))
                    assert ev.closure_defect <= 1e-8, (e, J, ev.closure_defect)


class TestLongLengths:
    @pytest.mark.parametrize("k", [1e-150, 0.01, 1.0, 1e40, 1e75])
    @pytest.mark.parametrize("shape", [
        s for s in ModeShape if s is not ModeShape.TABULATED])
    def test_every_tenth_decade_up_to_the_ceiling_closes_or_is_refused(
            self, shape, k):
        # up to LENGTH_MAX a row closes, is too coarse for its mode, or is
        # refused for its window's edge phase, without a warning; above the
        # bounds the phases overflowed into untyped math domain errors
        top = round(math.log10(LENGTH_MAX))
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in range(200, top + 1, 10):
                for J in (13, 50):
                    try:
                        ev = event_probabilities(
                            make_params(shape, k, float(f"1e{e}"), J))
                    except GridResolutionError:
                        outcomes.add("coarse")
                        continue
                    except ValueError as exc:
                        assert "PHASE_MAX" in str(exc), (e, J, exc)
                        outcomes.add("refused")
                        continue
                    assert ev.closure_defect <= 1e-8, (e, J, ev.closure_defect)
                    outcomes.add("closed")
        assert "closed" in outcomes
        assert ("refused" in outcomes) == (k >= 1e40)

    @pytest.mark.parametrize("kappaL", [1e59, 1e95, 1e140, 1e224, 1e233])
    def test_first_excited_sine_with_a_residual_zero_closes(self, kappaL):
        # these rows raised "coefficient changes sign inside a segment": the
        # crossing beside the node at L/2 rounded onto that node
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = event_probabilities(
                make_params(ModeShape.SIN_FIRST_EXCITED, 1e-150, kappaL, 13))
        assert ev.closure_defect <= 1e-8


class TestCombination:
    def test_emission_is_difference_channel(self):
        p = make_params(k=0.1, L=4.0, J=120)
        plus, minus = branch_amplitudes(p)
        ev = event_probabilities(p)
        T_b = 0.5 * abs(plus.t - minus.t) ** 2
        R_b = 0.5 * abs(plus.r - minus.r) ** 2
        assert ev.T_b_sq == pytest.approx(0.5 * T_b, rel=1e-12)
        assert ev.R_b_sq == pytest.approx(0.5 * R_b, rel=1e-12)
        assert ev.P_em == ev.T_b_sq + ev.R_b_sq

    def test_closure_across_shapes(self):
        cases = [
            (ModeShape.MESA, 0.3, 6.0, 40),
            (ModeShape.SECH2, 0.1, 5.0, 100),
            (ModeShape.SIN_FUNDAMENTAL, 0.1, 3.0, 80),
            (ModeShape.SIN_FIRST_EXCITED, 0.2, 4.0, 80),
            (ModeShape.GAUSSIAN, 0.05, 2.0, 120),
        ]
        for shape, k, L, J in cases:
            ev = event_probabilities(make_params(shape, k, L, J))
            assert ev.closure_defect <= 1e-8, (shape, ev.closure_defect)
            for value in (ev.T_a_sq, ev.T_b_sq, ev.R_a_sq, ev.R_b_sq, ev.P_em):
                assert 0.0 <= value <= 1.0 + 1e-12

    @pytest.mark.parametrize("shape, L, J", [
        (ModeShape.MESA, 5.0, 50),
        (ModeShape.SECH2, 5.0, 50),
        (ModeShape.SECH2, 5.0, 1600),
        (ModeShape.GAUSSIAN, 5.0, 50),
        (ModeShape.SIN_FUNDAMENTAL, 5.0, 50),
        (ModeShape.SIN_FUNDAMENTAL, 1.0e5, 100),
        (ModeShape.SIN_FIRST_EXCITED, 5.0, 50),
    ])
    def test_closure_at_every_decade_up_to_the_momentum_bound(self, shape, L, J):
        # the flat rotations' entries span a factor k^2, which the product
        # tree loses to subnormals from k ~ 1e104 on; below the bound every
        # row closes, and the build overflows nowhere
        top = round(math.log10(K_OVER_KAPPA_MAX))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in range(-2, top + 1):
                ev = event_probabilities(make_params(shape, float(f"1e{e}"), L, J))
                assert ev.closure_defect <= 1e-8, (e, ev.closure_defect)

    def test_emission_vanishes_continuously_at_short_lengths(self):
        p3 = event_probabilities(make_params(L=1e-3, J=50)).P_em
        p4 = event_probabilities(make_params(L=1e-4, J=50)).P_em
        assert 0.0 < p4 < p3 < 1e-3

    def test_flat_zero_mode_never_emits(self):
        profile = ModeProfile(
            ModeShape.TABULATED, 0.0,
            table=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
        for J in (2, 5, 40):
            p = MazerParams(k_over_kappa=0.4, profile=profile, J=J)
            ev = event_probabilities(p)
            assert ev.P_em == 0.0
            assert ev.T_a_sq == pytest.approx(1.0, abs=1e-14)


class TestAgainstClosedForms:
    def test_mesa_is_grid_size_independent(self):
        values = [
            event_probabilities(make_params(ModeShape.MESA, 0.3, 4.0, J)).P_em
            for J in (2, 17, 400)
        ]
        assert max(values) - min(values) <= 1e-12

    def test_sech2_matches_analytic_probability(self):
        ev = event_probabilities(make_params(ModeShape.SECH2, 0.01, 10.0, 200))
        assert ev.P_em == pytest.approx(SECH2_PEM_GOLDEN, abs=0.005)
        assert abs(ev.P_em - SECH2_PEM_GOLDEN) <= 1e-4

    def test_mesa_matches_analytic_amplitudes(self):
        p = make_params(ModeShape.MESA, 0.25, 7.0, 2)
        for branch in (+1, -1):
            got = elementary_amplitudes(p, branch)
            want = (0.25, 7.0, branch)
            oracle_t = _mesa_oracle_t(*want)
            assert got.t == pytest.approx(oracle_t, rel=1e-10)


def _mesa_oracle_t(k, L, branch):
    from mazersim.oracles import mesa_analytic

    return mesa_analytic(k, L, branch).t


class TestSweep:
    def test_range_inclusive_endpoint(self):
        assert kappaL_range(0.0, 2.0, 0.5) == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert len(kappaL_range(0.0, 20.0, 0.1)) == 201

    def test_range_endpoint_within_half_step(self):
        values = kappaL_range(0.0, 0.99, 0.1)
        assert len(values) == 11
        assert values[-1] == pytest.approx(1.0)

    def test_range_endpoint_beyond_half_step_excluded(self):
        values = kappaL_range(0.0, 1.0, 0.3)
        assert values == pytest.approx([0.0, 0.3, 0.6, 0.9])

    def test_range_validation(self):
        with pytest.raises(ValueError):
            kappaL_range(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            kappaL_range(2.0, 1.0, 0.5)
        # non-finite bounds or step: no OverflowError, no empty range
        for lo, hi, step in ((0.0, math.inf, 1.0), (0.0, 1.0, math.inf),
                             (0.0, math.nan, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                kappaL_range(lo, hi, step)
        # finite input whose point count overflows
        with pytest.raises(ValueError, match="no finite point count"):
            kappaL_range(0.0, 1e308, 1e-300)
        # a finite count above the row bound, refused before the list
        with pytest.raises(ValueError, match="SWEEP_ROWS_MAX"):
            kappaL_range(0.0, 1e6, 1.0)

    def test_negative_lower_bound_rejected_before_any_row(self, monkeypatch):
        with pytest.raises(ValueError, match="negative"):
            kappaL_range(-0.2, 0.2, 0.1)

        def no_solve(*args):
            raise AssertionError("a chunk of rows was solved")

        monkeypatch.setattr("mazersim.mazer._sweep_chunk", no_solve)
        with pytest.raises(ValueError, match="negative"):
            sweep_kappaL(make_params(), -0.2, 0.2, 0.1)

    def test_rows_ordered_and_complete(self):
        table = sweep_kappaL(
            make_params(ModeShape.MESA, 0.5, 1.0, 2), 0.0, 2.0, 0.25)
        assert len(table.rows) == 9
        lengths = [row.kappaL for row in table.rows]
        assert lengths == sorted(lengths)
        assert table.rows[0].P_em == 0.0
        assert not table.has_errors
        for row in table.rows:
            assert row.error is None
            assert 0.0 <= row.P_em <= 1.0
            assert row.unit_defect_plus <= 1e-10
            assert row.unit_defect_minus <= 1e-10

    def test_failed_row_is_kept_with_marker(self, monkeypatch):
        import mazersim.mazer as mz

        real = mz.solve_scattering

        def sometimes_boom(grid, **kw):
            if grid.profile.length == 1.0:
                raise RuntimeError("synthetic failure")
            return real(grid, **kw)

        monkeypatch.setattr(mz, "solve_scattering", sometimes_boom)
        table = sweep_kappaL(
            make_params(ModeShape.MESA, 0.5, 0.5, 2), 0.5, 1.5, 0.5)
        assert len(table.rows) == 3
        assert table.has_errors
        bad = table.rows[1]
        assert bad.kappaL == 1.0
        assert bad.error is not None and "synthetic failure" in bad.error
        assert math.isnan(bad.P_em)
        assert table.rows[0].error is None
        assert table.rows[2].error is None

    def test_unresolved_grid_row_names_typed_error(self):
        # two nodes cannot resolve the first excited sine
        table = sweep_kappaL(make_params(ModeShape.SIN_FIRST_EXCITED, 0.1, 5.0, 2),
                             5.0, 5.0, 1.0)
        assert table.rows[0].error.startswith("GridResolutionError: ")

    def test_parallel_matches_serial(self):
        p = make_params(ModeShape.MESA, 0.4, 1.0, 2)
        serial = sweep_kappaL(p, 0.0, 3.0, 0.5)
        parallel = sweep_kappaL(p, 0.0, 3.0, 0.5, workers=2)
        assert serial.rows == parallel.rows
        # a sloped shape over 17 rows: one serial chunk, and pooled tasks
        # of 8, 8 and 1
        p = make_params(ModeShape.SECH2, 0.1, 8.0, 50)
        serial = sweep_kappaL(p, 0.0, 8.0, 0.5)
        parallel = sweep_kappaL(p, 0.0, 8.0, 0.5, workers=2)
        assert len(serial.rows) == 17
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", None])
    def test_rejects_bad_worker_counts(self, workers):
        with pytest.raises(ValueError, match="workers"):
            sweep_kappaL(make_params(ModeShape.MESA, 0.4, 1.0, 2),
                         0.0, 1.0, 0.5, workers=workers)

    def test_usable_cpus_is_the_affinity_mask(self, monkeypatch):
        assert mazer._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert mazer._usable_cpus() == os.cpu_count()

    def test_pool_starts_no_idle_process(self, monkeypatch, fresh_pool):
        # a pool starts all its processes at once: one chunk is solved in
        # this process, and 10 rows (two chunks) ask for two processes; the
        # cache is empty, so the first pooled sweep starts a pool
        asked = fake_executor(monkeypatch)
        p = make_params(ModeShape.SIN_FIRST_EXCITED, 0.1, 1.0, 40)
        one = sweep_kappaL(p, 1.0, 1.0, 0.5, workers=2)
        assert asked == []
        assert one.rows == sweep_kappaL(p, 1.0, 1.0, 0.5).rows
        ten = sweep_kappaL(p, 1.0, 1.9, 0.1, workers=8)
        assert asked == [2]
        assert len(ten.rows) == 10
        assert ten.rows == sweep_kappaL(p, 1.0, 1.9, 0.1).rows

    def test_pool_is_bounded_by_the_usable_cpus(self, monkeypatch, fresh_pool):
        # five chunks at a million workers on three usable CPUs; the fake
        # executor only records its size and starts no process
        asked = fake_executor(monkeypatch)
        monkeypatch.setattr(mazer, "_usable_cpus", lambda: 3)
        p = make_params(ModeShape.MESA, 0.4, 1.0, 2)
        table = sweep_kappaL(p, 0.0, 3.9, 0.1, workers=10**6)
        assert asked == [3]
        assert table.rows == sweep_kappaL(p, 0.0, 3.9, 0.1).rows


def fake_executor(monkeypatch) -> list:
    """Replace the process pool by one that solves in this process and
    records each size it is asked for in the returned list."""
    asked = []

    class Pool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            asked.append(max_workers)

        def map(self, fn, chunks):
            return map(fn, chunks)

        def shutdown(self, wait=True):
            pass

    monkeypatch.setattr(mazer, "ProcessPoolExecutor", Pool)
    return asked


def pool_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def last_cpu(pid: int) -> int:
    """The CPU the process last ran on, field 39 of /proc/<pid>/stat;
    the fields are counted after the parenthesised command name."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def die_in_worker(params, values):
    """A chunk solver that kills the worker process solving it."""
    os.kill(os.getpid(), signal.SIGKILL)


class TestCachedPool:
    """The pool of pooled sweeps outlives one sweep.  Each test starts
    and ends with no cached pool and sees at most four usable CPUs."""

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch, fresh_pool):
        monkeypatch.setattr(mazer, "_usable_cpus", lambda: 4)

    def test_pooled_tasks_keep_eight_rows(self, monkeypatch):
        # the 100 rows a serial sweep solves as one chunk
        asked = fake_executor(monkeypatch)
        sizes = record_chunks(monkeypatch)
        p = make_params(ModeShape.MESA, 0.01, 4.95, 2)
        table = sweep_kappaL(p, 0.0, 4.95, 0.05, workers=2)
        assert asked == [2]
        assert sizes == [8] * 12 + [4]
        assert table.rows == sweep_kappaL(p, 0.0, 4.95, 0.05).rows

    def test_sweeps_reuse_the_pool_processes(self):
        p = make_params(ModeShape.SECH2, 0.1, 8.0, 50)
        serial = sweep_kappaL(p, 0.0, 8.0, 0.5)
        first = sweep_kappaL(p, 0.0, 8.0, 0.5, workers=2)
        pids = pool_pids()
        second = sweep_kappaL(p, 0.0, 8.0, 0.5, workers=2)
        assert len(pids) == 2
        assert pool_pids() == pids
        assert first.rows == serial.rows
        assert second.rows == serial.rows

    @pytest.mark.skipif(mazer._usable_cpus() < 2
                        or not os.path.exists("/proc/self/stat"),
                        reason="needs two usable CPUs and /proc")
    def test_workers_start_on_distinct_cpus(self):
        # a kernel that does not balance load keeps a forked worker on its
        # parent's CPU; each worker moves to its own CPU as it starts, and
        # then takes back the parent's whole mask
        p = make_params(ModeShape.SECH2, 0.01, 8.0, 200)
        table = sweep_kappaL(p, 0.5, 2.0, 0.1, workers=2)   # 2 chunks
        pids = pool_pids()
        assert len(table.rows) == 16 and len(pids) == 2
        assert len({last_cpu(pid) for pid in pids}) == 2
        for pid in pids:
            assert os.sched_getaffinity(pid) == os.sched_getaffinity(0)

    def test_sweep_needing_more_processes_replaces_the_pool(self):
        p = make_params(ModeShape.MESA, 0.4, 1.0, 2)
        sweep_kappaL(p, 0.0, 1.5, 0.1, workers=3)     # 2 chunks
        two = pool_pids()
        table = sweep_kappaL(p, 0.0, 2.3, 0.1, workers=3)   # 3 chunks
        three = pool_pids()
        assert len(two) == 2 and len(three) == 3
        assert two.isdisjoint(three)
        assert table.rows == sweep_kappaL(p, 0.0, 2.3, 0.1).rows
        # a sweep needing fewer processes keeps the larger pool
        sweep_kappaL(p, 0.0, 1.5, 0.1, workers=2)
        assert pool_pids() == three

    def test_sweep_asking_fewer_processes_never_runs_more(self):
        # four chunks on a pool of four would run on all four; a sweep
        # asking for two replaces it by a pool of two
        p = make_params(ModeShape.MESA, 0.4, 1.0, 2)
        serial = sweep_kappaL(p, 0.0, 3.1, 0.1)
        sweep_kappaL(p, 0.0, 3.1, 0.1, workers=4)     # 4 chunks
        four = pool_pids()
        table = sweep_kappaL(p, 0.0, 3.1, 0.1, workers=2)
        assert len(four) == 4
        assert len(pool_pids()) == 2
        assert table.rows == serial.rows

    def test_killed_worker_does_not_fail_the_next_sweep(self):
        p = make_params(ModeShape.SECH2, 0.1, 8.0, 50)
        serial = sweep_kappaL(p, 0.0, 8.0, 0.5)
        sweep_kappaL(p, 0.0, 8.0, 0.5, workers=2)
        old = pool_pids()
        os.kill(min(old), signal.SIGKILL)
        assert sweep_kappaL(p, 0.0, 8.0, 0.5, workers=2).rows == serial.rows
        assert len(pool_pids()) == 2
        assert pool_pids().isdisjoint(old)

    def test_second_break_raises_and_drops_the_pool(self, monkeypatch):
        # the pool forks after the patch, so its workers solve with it
        monkeypatch.setattr(mazer, "_sweep_chunk", die_in_worker)
        with pytest.raises(BrokenProcessPool):
            sweep_kappaL(make_params(ModeShape.MESA, 0.4, 1.0, 2),
                         0.0, 1.5, 0.1, workers=2)
        assert mazer._pool is None

    def test_threads_share_one_pool(self):
        # four threads, each sweeping on two and on three
        # processes, switching often: every sweep returns the serial rows,
        # and no pool is left running beside the cached one
        p = make_params(ModeShape.MESA, 0.4, 1.0, 2)
        serial = {n: sweep_kappaL(p, 0.0, hi, 0.1).rows
                  for n, hi in ((2, 1.5), (3, 2.3))}
        outcomes = []

        def sweeps():
            for n, hi in ((2, 1.5), (3, 2.3), (2, 1.5)):
                rows = sweep_kappaL(p, 0.0, hi, 0.1, workers=n).rows
                outcomes.append(rows == serial[n])

        threads = [threading.Thread(target=sweeps) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [True] * 12
        assert len(pool_pids()) == mazer._pool_size == 3

    def test_workers_end_with_their_interpreter(self):
        out = python_script("""
            import multiprocessing
            from mazersim import mazer
            from mazersim.grid import ModeShape
            mazer._usable_cpus = lambda: 2
            p = mazer.MazerParams.for_shape(ModeShape.MESA, 0.4, 1.0, 2)
            for _ in range(2):
                mazer.sweep_kappaL(p, 0.0, 1.5, 0.1, workers=2)
            print(*(c.pid for c in multiprocessing.active_children()))
            """)
        pids = [int(pid) for pid in out.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_forked_child_starts_its_own_pool(self):
        # the child's copy of the parent's executor has none of its
        # threads; the child forgets it and pools with its own workers
        python_script("""
            import os, sys
            from mazersim import mazer
            from mazersim.grid import ModeShape
            mazer._usable_cpus = lambda: 2
            p = mazer.MazerParams.for_shape(ModeShape.MESA, 0.4, 1.0, 2)
            rows = mazer.sweep_kappaL(p, 0.0, 1.5, 0.1, workers=2).rows
            pid = os.fork()
            if pid == 0:
                same = mazer.sweep_kappaL(p, 0.0, 1.5, 0.1, workers=2).rows == rows
                sys.exit(0 if same and mazer._pool is not None else 3)
            _, status = os.waitpid(pid, 0)
            sys.exit(os.waitstatus_to_exitcode(status))
            """)


def python_script(source: str) -> str:
    """Run ``source`` in a fresh interpreter with this package's source on
    PYTHONPATH; its stdout, after checking that it exited with 0."""
    src = str(Path(mazer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(source)],
                          env=env, capture_output=True, text=True,
                          timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def lone_row(params, kappaL):
    """The sweep row at kappaL from two branch solves made one by one,
    each forming its own propagators."""
    q = params.with_kappaL(kappaL)
    plus, minus = elementary_amplitudes(q, +1), elementary_amplitudes(q, -1)
    ev = _combine(plus, minus)
    return SweepRow(
        kappaL=kappaL, P_em=ev.P_em, T_a_sq=ev.T_a_sq, T_b_sq=ev.T_b_sq,
        R_a_sq=ev.R_a_sq, R_b_sq=ev.R_b_sq,
        unit_defect_plus=plus.unitarity_defect,
        unit_defect_minus=minus.unitarity_defect)


def lone_error(params, branch):
    with pytest.raises(Exception) as info:
        elementary_amplitudes(params, branch)
    return f"{info.type.__name__}: {info.value}"


def record_chunks(monkeypatch) -> list:
    """The row count of every chunk a sweep solves, in order."""
    sizes = []
    real = mazer._sweep_chunk

    def recording(params, values):
        sizes.append(len(values))
        return real(params, values)

    monkeypatch.setattr(mazer, "_sweep_chunk", recording)
    return sizes


class TestChunks:
    """The rows of a chunk share one propagator pass, bit for bit."""

    # (shape, k, J, lo, step, rows): two full serial chunks of
    # max(8, 4096 // (2 * J)) rows and one of 3; the sin rows are deep_sin
    # lattice points
    CASES = {
        "sin": (ModeShape.SIN_FUNDAMENTAL, 0.01, 100, 1.0e5, 0.02, 43),
        "sech2": (ModeShape.SECH2, 0.1, 200, 0.0, 1.0, 23),
        "gauss": (ModeShape.GAUSSIAN, 0.1, 300, 1.0, 1.1, 19),
        "sin2": (ModeShape.SIN_FIRST_EXCITED, 0.2, 100, 2.0, 0.6, 43),
        "mesa": (ModeShape.MESA, 0.4, 2, 0.0, 0.01, 2051),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rows_equal_lone_branch_solves(self, name, monkeypatch):
        shape, k, J, lo, step, n = self.CASES[name]
        hi = lo + (n - 1) * step
        params = make_params(shape, k, hi, J)
        sizes = record_chunks(monkeypatch)
        table = sweep_kappaL(params, lo, hi, step)
        size = max(8, 4096 // (2 * J))
        assert sizes == [size, size, 3]
        assert len(table.rows) == n and not table.has_errors
        for row in table.rows:
            assert repr(row) == repr(lone_row(params, row.kappaL))

    @pytest.mark.parametrize("shape, J, lo, hi, step, sizes", [
        # cli_session's mesa oracle rows: one chunk
        (ModeShape.MESA, 2, 0.0, 4.95, 0.05, [100]),
        (ModeShape.SIN_FUNDAMENTAL, 100, 1.0e5, 1.0e5 + 0.84, 0.02,
         [20, 20, 3]),
        # from J = 256 a serial chunk keeps eight rows
        (ModeShape.GAUSSIAN, 300, 1.0, 20.0, 1.9, [8, 3]),
    ], ids=["mesa", "sin", "gauss"])
    def test_serial_chunks_are_sized_by_grid_nodes(self, monkeypatch, shape,
                                                   J, lo, hi, step, sizes):
        got = record_chunks(monkeypatch)
        table = sweep_kappaL(make_params(shape, 0.1, hi, J), lo, hi, step)
        assert got == sizes
        assert len(table.rows) == sum(sizes)

    def test_failed_grid_build_keeps_the_rest_of_the_chunk(self, monkeypatch):
        # two nodes cannot resolve the first excited sine: the bad row's
        # + grid fails, so its - grid is never built and it is never solved
        good = [make_params(ModeShape.SECH2, 0.1, L, 100) for L in (4.0, 6.0)]
        bad = make_params(ModeShape.SIN_FIRST_EXCITED, 0.1, 5.0, 2)
        calls = []
        for name in ("build_grid", "sweep_products", "solve_scattering"):
            def counting(*args, _fn=getattr(mazer, name), _name=name, **kwargs):
                calls.append((_name, args))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mazer, name, counting)
        first, failed, last = _solve_chunk(lambda row: row,
                                           [good[0], bad, good[1]])
        monkeypatch.undo()
        assert [name for name, _ in calls] == (
            ["build_grid"] * 5 + ["sweep_products"] + ["solve_scattering"] * 4)
        (grids,) = calls[5][1]
        assert len(grids) == 4
        assert f"{type(failed).__name__}: {failed}" == lone_error(bad, +1)
        assert failed.__class__.__name__ == "GridResolutionError"
        for params, outcome in ((good[0], first), (good[1], last)):
            assert repr(outcome) == repr((elementary_amplitudes(params, +1),
                                          elementary_amplitudes(params, -1)))

    def test_refused_parameters_keep_their_row(self):
        # a length below LENGTH_MIN is refused by the row's parameters,
        # before any grid; the transparent row at 0 and the rows above the
        # floor keep their lone values
        params = make_params(ModeShape.SECH2, 0.1, 2e-100, 50)
        rows = sweep_kappaL(params, 0.0, 2e-100, 5e-101).rows
        assert len(rows) == 5
        assert rows[1].error == ("ValueError: length 5e-101 is below "
                                 "LENGTH_MIN = 1e-100; use 0 for no mode")
        assert math.isnan(rows[1].P_em)
        for i, row in enumerate(rows):
            if i != 1:
                assert repr(row) == repr(lone_row(params, row.kappaL))

    def test_basis_failure_reports_its_lone_message(self, monkeypatch):
        # a basis error names the segment's index in its batch; once the
        # shared pass fails, each grid forms its own, so the failing row
        # reads as it does alone and the other rows are untouched
        import mazersim.transfer as transfer
        from mazersim.grid import build_grid
        from mazersim.segment_basis import Regime

        params = make_params(ModeShape.SECH2, 0.1, 5.0, 100)
        values = kappaL_range(4.0, 6.0, 0.5)
        clean = sweep_kappaL(params, 4.0, 6.0, 0.5).rows
        target = params.with_kappaL(values[2])
        # a sloped segment of the well branch's grid, told from the barrier
        # branch's segment on the same nodes by its coefficient
        arrays = build_grid(target.profile, -1, 0.1, 100).arrays
        sloped = np.flatnonzero(
            arrays.code == list(Regime).index(Regime.SLOPE_ALLOWED))
        index = len(sloped) // 2
        x_bad, z_bad = arrays.x_lo[sloped[index]], arrays.z_ref[sloped[index]]
        real = transfer.basis_eval

        def failing(seg, x):
            hit = np.flatnonzero((np.atleast_1d(seg.x_lo) == x_bad)
                                 & (np.atleast_1d(seg.z_ref) == z_bad))
            if hit.size:
                raise ValueError(
                    f"injected at {seg.regime.value} segment {hit[0]}")
            return real(seg, x)

        monkeypatch.setattr(transfer, "basis_eval", failing)
        rows = sweep_kappaL(params, 4.0, 6.0, 0.5).rows
        want = lone_error(target, -1)
        assert want == f"ValueError: injected at slope_allowed segment {index}"
        assert rows[2].error == want
        assert sweep_kappaL(params, values[2], values[2], 0.5).rows[0].error == want
        assert [repr(r) for i, r in enumerate(rows) if i != 2] == [
            repr(r) for i, r in enumerate(clean) if i != 2]


    def test_collapsed_grid_keeps_its_row_error(self, monkeypatch):
        # a grid whose propagator product is zero takes the outgoing wave to
        # a zero state: its row reports the typed error of a lone solve, and
        # the other rows of the chunk keep their lone values
        import mazersim.transfer as transfer
        from mazersim.grid import build_grid
        from mazersim.segment_basis import Regime

        params = make_params(ModeShape.SECH2, 0.1, 5.0, 100)
        values = kappaL_range(4.0, 6.0, 0.5)
        clean = sweep_kappaL(params, 4.0, 6.0, 0.5).rows
        target = params.with_kappaL(values[2])
        arrays = build_grid(target.profile, -1, 0.1, 100).arrays
        sloped = np.flatnonzero(
            arrays.code == list(Regime).index(Regime.SLOPE_ALLOWED))
        x_bad = arrays.x_lo[sloped[len(sloped) // 2]]
        z_bad = arrays.z_ref[sloped[len(sloped) // 2]]
        real = transfer.basis_eval

        def vanishing(seg, x):
            # the segment's basis is zero at both ends, so is its propagator
            basis = real(seg, x)
            hit = (np.atleast_1d(seg.x_lo) == x_bad) & (
                np.atleast_1d(seg.z_ref) == z_bad)
            return type(basis)(*(np.where(hit, 0.0, v) for v in basis))

        monkeypatch.setattr(transfer, "basis_eval", vanishing)
        rows = sweep_kappaL(params, 4.0, 6.0, 0.5).rows
        want = lone_error(target, -1)
        assert want == "TransferError: node state collapsed to zero"
        assert rows[2].error == want
        assert [repr(r) for i, r in enumerate(rows) if i != 2] == [
            repr(r) for i, r in enumerate(clean) if i != 2]


class TestConvergence:
    def test_settles_below_tolerance(self):
        p = make_params(ModeShape.SECH2, 0.1, 5.0, 50)
        study = convergence_study(p, [50, 100, 200, 400])
        assert isinstance(study, ConvergenceStudy)
        assert [J for J, _ in study.entries] == [50, 100, 200, 400]
        assert study.settle <= 0.005

    def test_doubling_stability(self):
        p100 = event_probabilities(make_params(ModeShape.SECH2, 0.1, 5.0, 100))
        p200 = event_probabilities(make_params(ModeShape.SECH2, 0.1, 5.0, 200))
        assert abs(p100.P_em - p200.P_em) <= 1e-3

    def test_rejects_bad_lists(self):
        p = make_params()
        with pytest.raises(ValueError):
            convergence_study(p, [])
        with pytest.raises(ValueError):
            convergence_study(p, [100, 50])
        with pytest.raises(ValueError):
            convergence_study(p, [50, 50])

    def test_one_pass_gives_the_lone_rows(self, monkeypatch):
        # every J of the study shares one propagator pass and one product
        # tree, and each entry is bit for bit the P_em of its J alone
        p = make_params(ModeShape.SECH2, 0.01, 10.0, 100)
        Js = [100, 200, 400, 800, 1600]
        lone = tuple((J, event_probabilities(replace(p, J=J)).P_em) for J in Js)
        passes = []

        def counted(grids):
            passes.append(len(grids))
            return sweep_products(grids)

        sweep_products = mazer.sweep_products
        monkeypatch.setattr(mazer, "sweep_products", counted)
        assert convergence_study(p, Js).entries == lone
        assert passes == [2 * len(Js)]

    def test_first_failing_J_raises(self):
        # J = 2 cannot resolve the first excited sine, and J = 2.5 is no
        # integer: the study raises what J = 2 alone raises
        p = make_params(ModeShape.SIN_FIRST_EXCITED, 0.1, 5.0, 50)
        with pytest.raises(GridResolutionError):
            event_probabilities(replace(p, J=2))
        with pytest.raises(GridResolutionError):
            convergence_study(p, [2, 2.5])
        with pytest.raises(ValueError, match="must be an integer"):
            convergence_study(make_params(), [2.5, 50])

    def test_single_entry_settles_to_zero(self):
        p = make_params(ModeShape.MESA, 0.3, 2.0, 2)
        study = convergence_study(p, [2])
        assert len(study.entries) == 1
        assert study.settle == 0.0


class TestOracleAgreement:
    def test_branch_amplitudes_track_analytic(self):
        for k, L in ((0.1, 3.0), (0.05, 8.0)):
            p = make_params(ModeShape.SECH2, k, L, 300)
            for branch in (+1, -1):
                got = elementary_amplitudes(p, branch)
                want = sech2_analytic(k, L, branch)
                assert abs(got.t - want.t) <= 2e-3
                assert abs(got.r - want.r) <= 2e-3
