"""Acceptance gate: end-to-end checks of the emission-probability pipeline.

Each criterion is one test bound to a `criterion` marker; the conftest hook
prints a PASS/FAIL line per criterion after the run.  Tolerances are pinned
here as module constants and are not to be loosened to make a run green:
a red criterion is information.

Criterion 4 (unitarity and closure) applies to every run performed by the
other criteria, so those tests feed their per-branch defects into a shared
accumulator and the criterion-4 test executes last in this file.
"""

import math

import numpy as np
import pytest

from mazersim.grid import ModeProfile, ModeShape, build_grid
from mazersim.mazer import (
    MazerParams,
    elementary_amplitudes,
    event_probabilities,
    sweep_kappaL,
)
from mazersim.oracles import mesa_analytic, sech2_analytic, wkb_first_excited
from mazersim.segment_basis import Regime, analytic_wronskian, build_segments
from mazersim.transfer import solve_scattering, sweep

import sine_oracle
from one_segment import basis_at, batch, propagator, regime, segment

# --- pinned tolerances ------------------------------------------------------
MESA_REL_TOL = 1e-10            # criterion 1
SECH2_DEV_MAX = 0.02            # criterion 2
SECH2_DEV_MEDIAN = 0.005        # criterion 2
CONVERGENCE_TOL = 0.005         # criterion 3
CLOSURE_TOL = 1e-8              # criterion 4
# criterion 5: the cold fundamental-sine trace (k = 0.01, kappaL 1e5 .. 1e5+10,
# step 0.02) against a direct integration of the exact sin(pi x/L) branch
# equations (tests/sine_oracle.py, no mazersim code): RK4 on the well branch
# at 130 and 260 steps per local wavelength (1,578,491 and 3,156,981 steps),
# Richardson-extrapolated, and DOP853 on the barrier branch.  130 steps give
# contrast 0.385540 over [0.133934, 0.519474], 260 steps 0.385486 over
# [0.133906, 0.519391], the extrapolation 0.385482 over [0.133904, 0.519386].
# The program's contrast is 0.385491 at J = 100 and 0.385482 at J = 400, so
# grid resolution moves it by 1e-5; row by row, the J = 100 trace lies within
# 9.88e-4 of the extrapolated one and the J = 400 trace within 8e-6.
SINE_CONTRAST_REF = 0.3855      # criterion 5
SINE_P_MIN_REF = 0.1339         # criterion 5
SINE_P_MAX_REF = 0.5194         # criterion 5
SINE_REF_TOL = 1e-3             # criterion 5, absolute
SINE_TRACE_TOL = 1e-3           # criterion 5 (slow), row by row
ORACLE_CORRECTION_MAX = 2e-4    # criterion 5 (slow), extrapolation step
ORACLE_START_TOL = 1e-10        # criterion 5 (slow), barrier start depth
WARM_FLATNESS = 0.1             # criterion 6
PERIOD_REF = 16.3               # criterion 7
PERIOD_REL_TOL = 0.05           # criterion 7
QUAD_PERIOD_RANGE = (16.0, 16.6)  # criterion 7
RESIDUAL_FACTOR = 5.0           # criterion 7
PERSISTENCE_BAND = (15.0, 20.0)  # criterion 8
DECAY_RATIO_RANGE = (2.0, 4.0)  # criterion 8 (slow variant)
ODE_RESIDUAL_TOL = 1e-6         # criterion 9
WRONSKIAN_TOL = 1e-12           # criterion 9
ROUNDTRIP_TOL = 1e-12           # criterion 9
TURNING_CONTINUITY_TOL = 1e-9   # criterion 9
SEED_SCALE_TOL = 1e-12          # criterion 9
J_DOUBLING_TOL = 1e-3           # criterion 9
MIRROR_TOL = 1e-10              # criterion 9

# defects from every criterion run, checked wholesale by criterion 4
_DEFECTS: list[float] = []


def _note(*defects: float) -> None:
    _DEFECTS.extend(defects)


def _P_em_oracle(oracle, k: float, kappaL: float) -> float:
    plus = oracle(k, kappaL, +1)
    minus = oracle(k, kappaL, -1)
    return (abs(0.5 * (plus.t - minus.t)) ** 2
            + abs(0.5 * (plus.r - minus.r)) ** 2)


def _sweep(shape, k, J, lo, hi, step):
    params = MazerParams.for_shape(shape, k, max(hi, 1.0), J)
    table = sweep_kappaL(params, lo, hi, step)
    assert not table.has_errors, [r.error for r in table.rows if r.error]
    for row in table.rows:
        _note(row.unit_defect_plus, row.unit_defect_minus)
    L = np.array([r.kappaL for r in table.rows])
    P = np.array([r.P_em for r in table.rows])
    return L, P


def _fit_phase_period(L, P, T_lo=13.0, T_hi=20.0, dT=0.005):
    """Least-squares period of a squared-sine trace, scanning the phase
    period T in P ~ A + B cos(4 pi L / T) + C sin(4 pi L / T)."""
    x = L - L[0]
    best = None
    for T in np.arange(T_lo, T_hi + dT / 2, dT):
        w = 4.0 * np.pi / T
        design = np.column_stack([np.ones_like(x), np.cos(w * x), np.sin(w * x)])
        coeffs, *_ = np.linalg.lstsq(design, P, rcond=None)
        resid = P - design @ coeffs
        rss = float(resid @ resid)
        if best is None or rss < best[1]:
            best = (T, rss)
    variance = float(((P - P.mean()) ** 2).sum())
    return best[0], math.sqrt(best[1] / variance)


def _assert_sine_reference(P):
    summary = f"contrast {np.ptp(P):.4f} over [{P.min():.4f}, {P.max():.4f}]"
    assert abs(np.ptp(P) - SINE_CONTRAST_REF) <= SINE_REF_TOL, summary
    assert abs(P.min() - SINE_P_MIN_REF) <= SINE_REF_TOL, summary
    assert abs(P.max() - SINE_P_MAX_REF) <= SINE_REF_TOL, summary


@pytest.mark.criterion(1, "mesa solve matches the rectangular closed form")
def test_mesa_exactness():
    for k in (0.01, 0.1):
        for kappaL in (1.0, 5.0, 20.0):
            params = MazerParams.for_shape(ModeShape.MESA, k, kappaL, 2)
            for branch in (+1, -1):
                got = elementary_amplitudes(params, branch)
                want = mesa_analytic(k, kappaL, branch)
                assert got.t == pytest.approx(want.t, rel=MESA_REL_TOL)
                assert got.r == pytest.approx(want.r, rel=MESA_REL_TOL, abs=1e-300)
                _note(got.unitarity_defect)


@pytest.mark.criterion(2, "sech2 sweep agrees with the analytic amplitudes")
def test_sech2_oracle_agreement():
    for k in (0.01, 0.1):
        L, P = _sweep(ModeShape.SECH2, k, 200, 0.0, 20.0, 0.1)
        reference = np.array(
            [_P_em_oracle(sech2_analytic, k, el) for el in L])
        dev = np.abs(P - reference)
        assert dev.max() <= SECH2_DEV_MAX, f"k={k}: max dev {dev.max():.3e}"
        assert np.median(dev) <= SECH2_DEV_MEDIAN, (
            f"k={k}: median dev {np.median(dev):.3e}")


@pytest.mark.criterion(3, "grid refinement settles by two hundred points")
def test_convergence_in_grid_size():
    values = {}
    for J in (200, 800):
        params = MazerParams.for_shape(ModeShape.SECH2, 0.01, 10.0, J)
        ev = event_probabilities(params)
        _note(ev.closure_defect)
        values[J] = ev.P_em
    assert abs(values[200] - values[800]) <= CONVERGENCE_TOL


@pytest.mark.criterion(5, "fundamental sine resonances at 1e5 lengths")
def test_fundamental_sine_resonance_contrast():
    L, P = _sweep(ModeShape.SIN_FUNDAMENTAL, 0.01, 100, 100000.0, 100010.0, 0.02)
    _assert_sine_reference(P)


@pytest.mark.slow
@pytest.mark.criterion(5, "fundamental sine resonances at 1e5 lengths")
def test_fundamental_sine_direct_integration():
    L, P = _sweep(ModeShape.SIN_FUNDAMENTAL, 0.01, 100, 100000.0, 100010.0, 0.02)
    k = 0.01
    # the barrier branch must not depend on how deep its decaying start sits
    shallow = sine_oracle.barrier_reflection(k, L, 300.0)
    deep = sine_oracle.barrier_reflection(k, L, 400.0)
    assert np.abs(shallow - deep).max() <= ORACLE_START_TOL
    coarse = sine_oracle.emission_trace(k, L, 130)
    fine = sine_oracle.emission_trace(k, L, 260)
    direct = sine_oracle.richardson(coarse, fine)
    correction = np.abs(direct - fine).max()
    assert correction <= ORACLE_CORRECTION_MAX, f"RK4 not converged: {correction:.2e}"
    gap = np.abs(P - direct).max()
    assert gap <= SINE_TRACE_TOL, f"max |P_em - direct| = {gap:.3e}"
    _assert_sine_reference(direct)


@pytest.mark.criterion(6, "warm atoms flatten the sine curve to one half")
def test_warm_atom_flattening():
    L, P = _sweep(ModeShape.SIN_FUNDAMENTAL, 0.1, 100, 100000.0, 100010.0, 0.02)
    worst = np.abs(P - 0.5).max()
    assert worst <= WARM_FLATNESS, f"max |P_em - 1/2| = {worst:.4f}"


@pytest.mark.criterion(7, "first-excited sine period and its breakdown")
def test_first_excited_period():
    L_warm, P_warm = _sweep(
        ModeShape.SIN_FIRST_EXCITED, 0.1, 200, 100000.0, 100020.0, 0.05)
    period, warm_residual = _fit_phase_period(L_warm, P_warm)
    assert abs(period - PERIOD_REF) <= PERIOD_REL_TOL * PERIOD_REF, (
        f"fitted period {period:.3f}")

    quad_period = wkb_first_excited(0.1, 100000.0).period
    lo, hi = QUAD_PERIOD_RANGE
    assert lo <= quad_period <= hi, f"quadrature period {quad_period:.4f}"

    L_cold, P_cold = _sweep(
        ModeShape.SIN_FIRST_EXCITED, 0.01, 200, 100000.0, 100020.0, 0.05)
    _, cold_residual = _fit_phase_period(L_cold, P_cold)
    assert cold_residual >= RESIDUAL_FACTOR * warm_residual, (
        f"cold residual {cold_residual:.3f} vs warm {warm_residual:.3f}")


@pytest.mark.criterion(8, "gaussian resonances outlive the sech2 ones")
def test_gaussian_persistence():
    lo, hi = PERSISTENCE_BAND
    contrasts = {}
    for shape in (ModeShape.GAUSSIAN, ModeShape.SECH2):
        L, P = _sweep(shape, 0.1, 300, 0.0, 20.0, 0.1)
        band = (L >= lo) & (L <= hi)
        contrasts[shape] = P[band].max() - P[band].min()
    assert contrasts[ModeShape.GAUSSIAN] > contrasts[ModeShape.SECH2], contrasts


@pytest.mark.slow
@pytest.mark.criterion(8, "gaussian resonances outlive the sech2 ones")
def test_gaussian_decay_length_ratio():
    def windowed_contrast(L, P, width=5.0, stride=1.0):
        starts = np.arange(L[0], L[-1] - width + 1e-9, stride)
        centers = starts + width / 2
        contrast = np.array(
            [np.ptp(P[(L >= s) & (L <= s + width)]) for s in starts])
        return centers, contrast

    def decay_length(shape, hi, step):
        L, P = _sweep(shape, 0.01, 300, 0.0, hi, step)
        centers, contrast = windowed_contrast(L, P)
        # the envelope grows while the oscillations develop, so anchor
        # the reference at its maximum and measure the decay after it
        peak = int(contrast.argmax())
        below = np.where(contrast[peak:] < 0.1 * contrast[peak])[0]
        assert below.size, f"{shape}: no 10% crossing up to {hi}"
        return centers[peak + below[0]]

    sech2_at = decay_length(ModeShape.SECH2, 140.0, 0.25)
    gauss_at = decay_length(ModeShape.GAUSSIAN, 460.0, 0.5)
    ratio = gauss_at / sech2_at
    lo, hi = DECAY_RATIO_RANGE
    assert lo <= ratio <= hi, (
        f"gauss 10% at {gauss_at}, sech2 at {sech2_at}, ratio {ratio:.2f}")


_SLOPED = (Regime.SLOPE_ALLOWED, Regime.SLOPE_FORBIDDEN)


def solution(arrays, x, pick):
    """Solution ``pick`` (0 or 1) of a one-segment array at x, scale put
    back: f+ or f- of a sloped segment's basis, or the phi of the first
    or second column of a flat segment's propagator from its anchor."""
    if regime(arrays) in _SLOPED:
        ev = basis_at(arrays.take([0], regime(arrays)), x)
        return (ev.f_plus * math.exp(ev.s), ev.f_minus * math.exp(-ev.s))[pick]
    p11, p12, _, _, log_factor = propagator(arrays, float(arrays.x_lo[0]), x)
    return (p11, p12)[pick] * math.exp(log_factor)


def _unscaled(prop):
    p11, p12, p21, p22, log_factor = prop
    return tuple(math.exp(log_factor) * p for p in (p11, p12, p21, p22))


def _matmul(A, B):
    return (A[0] * B[0] + A[1] * B[2], A[0] * B[1] + A[1] * B[3],
            A[2] * B[0] + A[3] * B[2], A[2] * B[1] + A[3] * B[3])


@pytest.mark.criterion(9, "property suite independent of published values")
class TestProperties:
    def test_ode_residuals(self):
        cases = [
            segment(0.0, 2.0, 0.8, 1.9),
            segment(0.0, 2.0, -0.3, -1.7),
            segment(0.0, 2.0, 1.3, 1.3),
            segment(0.0, 2.0, -0.9, -0.9),
            segment(0.0, 2.0, 0.0, 0.0),
        ]
        # five-point stencil: the h^2 truncation of the three-point one is
        # already ~1e-6 where the fourth derivative dominates the value
        h = 1e-3
        for seg in cases:
            for x in (0.4, 1.1, 1.7):
                z = float(seg.take([0], regime(seg)).z(x)[0])
                for pick in (0, 1):
                    v = [
                        solution(seg, xx, pick)
                        for xx in (x - 2 * h, x - h, x, x + h, x + 2 * h)
                    ]
                    second = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3]
                              - v[4]) / (12 * h**2)
                    scale = max(abs(val) for val in v)
                    residual = abs(second + z * v[2]) / scale
                    assert residual <= ODE_RESIDUAL_TOL, (regime(seg), x, residual)

    def test_wronskians(self):
        rng = np.random.default_rng(20260817)
        for _ in range(40):
            z0, z1 = rng.uniform(-3, 3, size=2)
            if z0 * z1 < 0 or (z0 == z1):
                continue
            seg = batch(0.0, float(rng.uniform(0.5, 2.0)), z0, z1)
            x = rng.uniform(seg.x_lo[0], seg.x_hi[0])
            ev = basis_at(seg, float(x))
            # the log scales of the plus and minus pairs cancel
            w = ev.f_plus * ev.g_minus - ev.f_minus * ev.g_plus
            want = float(analytic_wronskian(seg)[0])
            assert abs(w - want) <= WRONSKIAN_TOL * max(1.0, abs(want))
        # a flat segment's Wronskian is the determinant of its propagator
        # from the anchor, which is 1 once the log factor is put back
        for z in (1.3, -0.9, 0.0):
            for x in (0.4, 1.1, 1.7):
                p11, p12, p21, p22, a = propagator(segment(0.0, 2.0, z, z), 0.0, x)
                det = math.exp(2.0 * a) * (p11 * p22 - p12 * p21)
                assert abs(det - 1.0) <= WRONSKIAN_TOL

    def test_join_round_trip(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 25:
            z = rng.uniform(-2.5, 2.5, size=3)
            if z[0] * z[1] < 0 or z[1] * z[2] < 0:
                continue
            x0, x1 = 0.0, float(rng.uniform(0.4, 1.5))
            x2 = x1 + float(rng.uniform(0.4, 1.5))
            try:
                pair = build_segments((x0, x1, x2), z.tolist())
            except ValueError:
                continue
            # backward across both segments, then forward again
            B = _matmul(_unscaled(propagator(pair, x1, x0, 0)),
                        _unscaled(propagator(pair, x2, x1, 1)))
            A = _matmul(_unscaled(propagator(pair, x1, x2, 1)),
                        _unscaled(propagator(pair, x0, x1, 0)))
            prod = _matmul(A, B)
            scale = max(abs(v) for v in A + B)
            assert abs(prod[0] - 1) <= ROUNDTRIP_TOL * scale
            assert abs(prod[3] - 1) <= ROUNDTRIP_TOL * scale
            assert abs(prod[1]) <= ROUNDTRIP_TOL * scale
            assert abs(prod[2]) <= ROUNDTRIP_TOL * scale
            done += 1

    def test_turning_point_continuity(self):
        grid = build_grid(ModeProfile(ModeShape.SECH2, 8.0), +1, 0.1, 120)
        assert grid.turning_points, "expected turning points on the barrier branch"
        _note(solve_scattering(grid).unitarity_defect)
        points = np.asarray(grid.points)
        *_, states = sweep(grid, 1.0 + 0.0j, 1.0j)
        for x_t in grid.turning_points:
            idx = int(np.argmin(np.abs(points - x_t)))
            x_node = float(points[idx])
            # the node joins segments idx and idx+1: phi carried to it
            # forward across segment idx from its left end and backward
            # across segment idx+1 from its right end must agree there
            reps = []
            for seg_idx, node in ((idx, idx - 1), (idx + 1, idx + 1)):
                phi, dphi, log_scale = states[node]
                p11, p12, _, _, log_factor = propagator(
                    grid.arrays, float(points[node]), x_node, seg_idx - 1)
                phi = (p11 * phi + p12 * dphi) * math.exp(
                    log_factor + log_scale - states[idx][2])
                reps.append(phi)
            assert all(math.isfinite(abs(v)) for v in reps)
            peak = max(abs(reps[0]), abs(reps[1]), 1e-30)
            assert abs(reps[0] - reps[1]) <= TURNING_CONTINUITY_TOL * peak

    def test_seed_scale_invariance(self):
        grid = build_grid(ModeProfile(ModeShape.SECH2, 6.0), -1, 0.1, 100)
        base = solve_scattering(grid)
        _note(base.unitarity_defect)
        scale = (0.4 - 0.9j) * 10.0 ** 120
        c0, d0, log_scale, _ = sweep(grid, scale, 1j * scale)
        t = scale * 2.0 * math.exp(-log_scale) / (c0 - 1j * d0)
        r = (c0 + 1j * d0) / (c0 - 1j * d0)
        assert t == pytest.approx(base.t, rel=SEED_SCALE_TOL)
        assert r == pytest.approx(base.r, rel=SEED_SCALE_TOL)

    def test_grid_doubling_stability(self):
        values = []
        for J in (150, 300):
            ev = event_probabilities(
                MazerParams.for_shape(ModeShape.SECH2, 0.1, 5.0, J))
            _note(ev.closure_defect)
            values.append(ev.P_em)
        assert abs(values[0] - values[1]) <= J_DOUBLING_TOL

    def test_even_potential_mirror_symmetry(self):
        # a centered even potential fixes the reflection phase: t and r
        # must be ninety degrees apart; the cross term is bounded by the
        # amplitudes themselves, so the tolerance is absolute
        for shape, L in ((ModeShape.SECH2, 4.0), (ModeShape.GAUSSIAN, 3.0)):
            for branch in (+1, -1):
                res = solve_scattering(
                    build_grid(ModeProfile(shape, L), branch, 0.2, 150))
                _note(res.unitarity_defect)
                cross = (res.t * res.r.conjugate()).real
                assert abs(cross) <= MIRROR_TOL
        # mirroring any potential leaves the moduli alone
        table = ((0.0, 0.0), (0.5, 0.9), (1.2, 0.4), (2.0, 0.7), (3.0, 0.0))
        mirrored = tuple(sorted((3.0 - x, u) for x, u in table))
        for branch in (+1, -1):
            one = solve_scattering(build_grid(
                ModeProfile(ModeShape.TABULATED, 0.0, table=table),
                branch, 0.3, 80))
            two = solve_scattering(build_grid(
                ModeProfile(ModeShape.TABULATED, 0.0, table=mirrored),
                branch, 0.3, 80))
            _note(one.unitarity_defect, two.unitarity_defect)
            assert abs(one.t) == pytest.approx(abs(two.t), abs=MIRROR_TOL)
            assert abs(one.r) == pytest.approx(abs(two.r), abs=MIRROR_TOL)


@pytest.mark.criterion(4, "unitarity and closure hold across every run")
def test_unitarity_and_closure_everywhere():
    # spot matrix of fresh runs
    cases = [
        (ModeShape.MESA, 0.1, 6.0, 40),
        (ModeShape.SECH2, 0.01, 12.0, 150),
        (ModeShape.SIN_FUNDAMENTAL, 0.1, 9.0, 120),
        (ModeShape.SIN_FIRST_EXCITED, 0.05, 7.0, 120),
        (ModeShape.GAUSSIAN, 0.1, 5.0, 150),
    ]
    for shape, k, L, J in cases:
        params = MazerParams.for_shape(shape, k, L, J)
        ev = event_probabilities(params)
        _note(ev.closure_defect)
        for branch in (+1, -1):
            _note(elementary_amplitudes(params, branch).unitarity_defect)
    # and everything accumulated by the other criteria
    assert _DEFECTS, "no defects were recorded by the acceptance runs"
    worst = max(_DEFECTS)
    assert worst <= CLOSURE_TOL, f"worst defect {worst:.3e} of {len(_DEFECTS)}"
