"""Tests for the induced-emission layer: branch combination, sweeps,
convergence studies, and the zero-length shortcut."""

import math
import warnings

import numpy as np
import pytest

from mazersim.grid import K_OVER_KAPPA_MAX, ModeProfile, ModeShape
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

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            make_params(L=-1.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            make_params(J=1)

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
        # a sloped shape over 17 rows: two full chunks of 8 and one of 1
        p = make_params(ModeShape.SECH2, 0.1, 8.0, 50)
        serial = sweep_kappaL(p, 0.0, 8.0, 0.5)
        parallel = sweep_kappaL(p, 0.0, 8.0, 0.5, workers=2)
        assert len(serial.rows) == 17
        assert serial.rows == parallel.rows


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


class TestChunks:
    """The rows of a chunk share one propagator pass, bit for bit."""

    # (shape, k, J, lo, step): 11 rows, one full chunk of 8 and one of 3;
    # the sin rows are deep_sin lattice points
    CASES = {
        "sin": (ModeShape.SIN_FUNDAMENTAL, 0.01, 100, 1.0e5, 0.02),
        "sech2": (ModeShape.SECH2, 0.1, 200, 0.0, 2.0),
        "gauss": (ModeShape.GAUSSIAN, 0.1, 300, 1.0, 1.9),
        "sin2": (ModeShape.SIN_FIRST_EXCITED, 0.2, 100, 2.0, 2.7),
        "mesa": (ModeShape.MESA, 0.4, 2, 0.0, 0.3),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rows_equal_lone_branch_solves(self, name):
        shape, k, J, lo, step = self.CASES[name]
        params = make_params(shape, k, lo + 10 * step, J)
        table = sweep_kappaL(params, lo, lo + 10 * step, step)
        assert len(table.rows) == 11 and not table.has_errors
        for row in table.rows:
            assert repr(row) == repr(lone_row(params, row.kappaL))

    def test_failed_grid_build_keeps_the_rest_of_the_chunk(self):
        # two nodes cannot resolve the first excited sine
        good = [make_params(ModeShape.SECH2, 0.1, L, 100) for L in (4.0, 6.0)]
        bad = make_params(ModeShape.SIN_FIRST_EXCITED, 0.1, 5.0, 2)
        first, failed, last = _solve_chunk([good[0], bad, good[1]])
        assert f"{type(failed).__name__}: {failed}" == lone_error(bad, +1)
        assert failed.__class__.__name__ == "GridResolutionError"
        for params, outcome in ((good[0], first), (good[1], last)):
            assert repr(outcome) == repr((elementary_amplitudes(params, +1),
                                          elementary_amplitudes(params, -1)))

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
