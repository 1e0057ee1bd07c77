"""Analytic reference amplitudes and the WKB phase estimate."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import fixed_quad

from mazersim.grid import ModeProfile, ModeShape, build_grid
from mazersim.oracles import (
    log_gamma_complex,
    mesa_analytic,
    sech2_analytic,
    wkb_first_excited,
)
from mazersim.transfer import solve_scattering

# pinned once from this oracle: P_em for the sech2 mode at
# k/kappa = 0.01, kappaL = 10 (the convergence-plateau configuration)
SECH2_PEM_GOLDEN = 0.023762721955837014


def branch_pair_P_em(k: float, L: float) -> float:
    plus = sech2_analytic(k, L, +1)
    minus = sech2_analytic(k, L, -1)
    tb = 0.5 * (plus.t - minus.t)
    rb = 0.5 * (plus.r - minus.r)
    return abs(tb) ** 2 + abs(rb) ** 2


def test_zero_length_is_transparent():
    for oracle in (sech2_analytic, mesa_analytic):
        for branch in (+1, -1):
            res = oracle(0.1, 0.0, branch)
            assert res.t == 1.0 + 0.0j
            assert res.r == 0.0 + 0.0j


def test_input_validation():
    with pytest.raises(ValueError):
        sech2_analytic(0.1, -1.0, +1)
    with pytest.raises(ValueError):
        sech2_analytic(0.0, 1.0, +1)
    with pytest.raises(ValueError):
        mesa_analytic(0.1, 1.0, 0)
    with pytest.raises(ValueError):
        wkb_first_excited(-0.1, 1.0)


def test_unitarity_random_samples():
    rng = np.random.default_rng(20260817)
    for _ in range(50):
        k = float(rng.uniform(0.005, 1.5))
        L = float(rng.uniform(0.0, 25.0))
        branch = +1 if rng.random() < 0.5 else -1
        for oracle in (sech2_analytic, mesa_analytic):
            res = oracle(k, L, branch)
            assert res.unitarity_defect <= 1e-10


def test_sech2_smooth_across_xi_branch_switch():
    # xi vanishes at kappaL = 1/2 on the barrier branch; t and r must pass
    # through without a jump
    ls = np.linspace(0.45, 0.55, 201)
    ts = [sech2_analytic(0.1, float(L), +1).t for L in ls]
    rs = [sech2_analytic(0.1, float(L), +1).r for L in ls]
    dt = np.abs(np.diff(ts))
    dr = np.abs(np.diff(rs))
    # steps should be uniformly small and comparable to their neighbors
    assert np.max(dt) <= 3.0 * np.median(dt)
    assert np.max(dr) <= 3.0 * np.median(dr)


def test_sech2_golden_P_em():
    assert branch_pair_P_em(0.01, 10.0) == pytest.approx(
        SECH2_PEM_GOLDEN, rel=1e-12)


@pytest.mark.parametrize("k", [0.01, 0.1, 1.0])
def test_sech2_long_cavity_against_mpmath(k):
    # from kappaL ~ 228 at k 0.01, t underflows while the Gamma factor that
    # takes it to r overflows; both come from one exp of their log sum.
    # The reference sums mpmath's log Gammas at 40 digits.  An amplitude
    # below 1e-300 need only come out that small.
    g = mp.loggamma
    for L in (228.0, 300.0, 1000.0):
        for branch in (+1, -1):
            res = sech2_analytic(k, L, branch)
            with mp.workdps(40):
                kL = mp.mpf(k) * L
                xi = mp.sqrt(mp.mpc(branch * mp.mpf(L) ** 2 - mp.mpf(1) / 4))
                lt = (g(0.5 - 1j * (kL + xi)) + g(0.5 - 1j * (kL - xi))
                      - g(-1j * kL) - g(1 - 1j * kL))
                lr = (lt + g(1j * kL) + g(1 - 1j * kL)
                      - g(0.5 + 1j * xi) - g(0.5 - 1j * xi))
                for got, log_ref in ((res.t, lt), (res.r, lr)):
                    ref = mp.exp(log_ref)
                    assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-300), (
                        L, branch, got, ref)


def test_sech2_reflectionless_well():
    # well depths with sqrt(L^2 + 1/4) = m + 1/2 reflect nothing
    for m in (1, 2, 3):
        L = math.sqrt(m * (m + 1.0))
        res = sech2_analytic(0.3, L, -1)
        assert abs(res.r) <= 1e-12
        assert res.unitarity_defect <= 1e-10


def test_mesa_well_resonances():
    # |t| = 1 whenever k' * kappaL is a multiple of pi, k' = sqrt(k^2 + 1)
    k = 0.1
    kp = math.sqrt(k * k + 1.0)
    for m in (1, 2, 7):
        L = m * math.pi / kp
        res = mesa_analytic(k, L, -1)
        assert abs(res.t) == pytest.approx(1.0, abs=1e-12)
        assert abs(res.r) <= 1e-12


def test_mesa_tunneling_slope():
    # opaque barrier: log|t| falls linearly with slope -rho, rho = sqrt(1-k^2)
    k = 0.01
    ls = np.arange(5.0, 15.0 + 1e-9, 0.5)
    logs = [math.log(abs(mesa_analytic(k, float(L), +1).t)) for L in ls]
    slope = float(np.polyfit(ls, logs, 1)[0])
    rho = math.sqrt(1.0 - k * k)
    assert slope == pytest.approx(-rho, rel=1e-3)


def test_mesa_oracle_matches_transfer_exactly():
    # the segment method is exact for a constant potential, so oracle and
    # solver must agree to roundoff: the strongest end-to-end anchor.  At
    # k = 1 the barrier has k' = 0: the oracle's k'a series against the
    # solver's z = 0 shear
    for branch in (+1, -1):
        for k, L in ((0.1, 5.0), (0.01, 20.0), (0.73, 3.0), (1.0, 5.0)):
            grid = build_grid(ModeProfile(ModeShape.MESA, L), branch, k, 2)
            num = solve_scattering(grid)
            ana = mesa_analytic(k, L, branch)
            assert num.t == pytest.approx(ana.t, rel=1e-10)
            assert num.r == pytest.approx(ana.r, rel=1e-10, abs=1e-12)


def test_wkb_zero_length():
    w = wkb_first_excited(0.1, 0.0)
    assert w.delta == 0.0
    assert w.P_em == 0.0


def test_wkb_period_matches_printed_value():
    w = wkb_first_excited(0.1, 1.0e5)
    assert 16.0 <= w.period <= 16.6
    assert w.period == pytest.approx(16.3, abs=0.05)


def test_wkb_zero_energy_dual_quadrature():
    # independent rule: Gauss-Legendre after x = pi/2 - y^2, which removes
    # the sqrt-type endpoint slope that defeats polynomial rules
    w = wkb_first_excited(0.0, 1.0)
    gauss, _ = fixed_quad(
        lambda y: 2.0 * y * np.sqrt(np.cos(0.5 * math.pi - y * y)),
        0.0, math.sqrt(0.5 * math.pi), n=80)
    assert w.delta == pytest.approx(float(gauss) / math.pi, abs=1e-9)


def test_log_gamma_special_values():
    assert abs(math.e ** log_gamma_complex(1.0 + 0j) - 1.0) < 1e-14
    got = complex(np.exp(log_gamma_complex(0.5 + 0j)))
    assert abs(got - math.sqrt(math.pi)) < 1e-14
    for y in (0.1, 1.0, 10.0):
        lg = log_gamma_complex(complex(1.0, y))
        mod2 = abs(np.exp(lg)) ** 2
        want = math.pi * y / math.sinh(math.pi * y)
        assert abs(mod2 - want) <= 1e-12 * want


def test_log_gamma_large_imaginary():
    for z in (complex(0.5, 1e4), complex(0.5, -1e6), complex(2.0, 3e5)):
        got = log_gamma_complex(z)
        with mp.workdps(50):
            want = mp.loggamma(mp.mpc(z.real, z.imag))
        assert abs(got.real - float(want.real)) <= 1e-10 * abs(float(want.real))
        assert abs(got.imag - float(want.imag)) <= 1e-10 * abs(float(want.imag))


def test_log_gamma_poles_raise():
    for z in (0.0 + 0j, -1.0 + 0j, -7.0 + 0j):
        with pytest.raises(ValueError):
            log_gamma_complex(z)


def test_log_gamma_nan_raises():
    with pytest.raises(ValueError, match="log gamma failed"):
        log_gamma_complex(complex(math.nan, 0.0))
