import math

import mpmath as mp
import numpy as np
import pytest

from mazersim import specfun
from mazersim.specfun import ARG_LIMIT, BesselFamily, cyl_bessel

mp.mp.dps = 50

JY, IK = BesselFamily.JY, BesselFamily.IK


# derivative building blocks from the two supported orders only
def besselj_deriv_third(y: float) -> float:
    j13, j23, _, y23 = cyl_bessel(JY, y)
    j_m23 = -0.5 * j23 - 0.5 * math.sqrt(3.0) * y23
    return j_m23 - j13 / (3.0 * y)


def bessely_deriv_third(y: float) -> float:
    _, j23, y13, y23 = cyl_bessel(JY, y)
    y_m23 = 0.5 * math.sqrt(3.0) * j23 - 0.5 * y23
    return y_m23 - y13 / (3.0 * y)


def test_wronskian_modified_pair():
    # K(y) I'(y) - K'(y) I(y) = 1/y, derivatives through order-2/3 values;
    # the scales e**y of I and e**-y of K cancel in every product
    for y in (1.0, 10.0, 100.0):
        i13, i23, k13, k23 = cyl_bessel(IK, y)
        third = 1.0 / (3.0 * y)
        i_m23 = i23 + math.sqrt(3.0) / math.pi * k23 * math.exp(-2.0 * y)
        i_prime = i_m23 - third * i13
        k_prime = -k23 - third * k13
        got = k13 * i_prime - k_prime * i13
        assert abs(got - 1.0 / y) <= 1e-12 / y


def test_wronskian_oscillatory_pair():
    for y in (1.0, 5.0, 50.0):
        j13, _, y13, _ = cyl_bessel(JY, y)
        w = j13 * bessely_deriv_third(y) - besselj_deriv_third(y) * y13
        want = 2.0 / (math.pi * y)
        assert abs(w - want) <= 1e-12 * max(1.0, want)


def mp_besselj_series(nu, y):
    # plain power series in 50-digit arithmetic, independent of scipy
    yh = mp.mpf(y) / 2
    term = yh ** nu / mp.gamma(nu + 1)
    total = term
    for m in range(1, 200):
        term *= -(yh ** 2) / (m * (nu + m))
        total += term
        if abs(term) < abs(total) * mp.mpf(10) ** -45:
            break
    return total


def test_recurrence_against_independent_series():
    rng = np.random.default_rng(314)
    nu = mp.mpf(1) / 3
    for _ in range(20):
        y = float(rng.uniform(1.0, 50.0))
        j13, j23, _, y23 = cyl_bessel(JY, y)
        j_m23 = -0.5 * j23 - 0.5 * math.sqrt(3.0) * y23
        # J_{4/3} = (2 nu / y) J_{1/3} - J_{-2/3}
        got = (2.0 / (3.0 * y)) * j13 - j_m23
        want = float(mp_besselj_series(nu + 1, y))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_matches_mpmath_across_range():
    pts = np.logspace(0, 4, 41)
    for y in pts:
        y = float(y)
        j13, j23, y13, y23 = cyl_bessel(JY, y)
        pairs = [
            (j13, mp.besselj(mp.mpf(1) / 3, y)),
            (y13, mp.bessely(mp.mpf(1) / 3, y)),
            (j23, mp.besselj(mp.mpf(2) / 3, y)),
            (y23, mp.bessely(mp.mpf(2) / 3, y)),
        ]
        scale = max(abs(float(w)) for _, w in pairs) + 1e-300
        for got, want in pairs:
            assert abs(got - float(want)) <= 5e-12 * scale
        if y <= 500.0:
            # I and K with their exponential scale restored
            i13, _, k13, _ = cyl_bessel(IK, y)
            for got, fn in ((i13 * math.exp(y), mp.besseli),
                            (k13 * math.exp(-y), mp.besselk)):
                want = float(fn(mp.mpf(1) / 3, y))
                assert abs(got - want) <= 5e-12 * abs(want)


def test_scaled_survives_huge_argument():
    # e**1e6 ~ 10**434294 stays out of the value: the scaled forms follow
    # the asymptotics 1/sqrt(2 pi y) and sqrt(pi / (2 y))
    y = 1e6
    x, _, k, _ = cyl_bessel(IK, y)
    assert abs(math.log10(x) - math.log10(1.0 / math.sqrt(2 * math.pi * y))) < 1e-6
    assert abs(math.log10(k) - math.log10(math.sqrt(math.pi / (2 * y)))) < 1e-6


def test_monotonicity_modified():
    # in log form, log I = y + log(scaled I) and log K = -y + log(scaled K)
    ys = np.logspace(0, 3, 60)
    ivals = [float(y) + math.log(cyl_bessel(IK, float(y))[0]) for y in ys]
    kvals = [-float(y) + math.log(cyl_bessel(IK, float(y))[2]) for y in ys]
    for a, b in zip(ivals, ivals[1:]):
        assert a < b
    for a, b in zip(kvals, kvals[1:]):
        assert a > b


def test_domain_errors():
    with pytest.raises(ValueError):
        cyl_bessel(JY, 0.0)
    with pytest.raises(ValueError):
        cyl_bessel(IK, -1.0)
    for y in (math.inf, math.nan, math.nextafter(1.0, 0.0)):
        with pytest.raises(ValueError,
                           match=r"must be finite and lie in \[1\.0, inf\]"):
            cyl_bessel(JY, y)
    with pytest.raises(ValueError):
        cyl_bessel(IK, 1e12)
    # the scaled I, K stop at ARG_LIMIT
    with pytest.raises(ValueError, match=r"lie in \[1\.0, 1000000000\.0\]"):
        cyl_bessel(IK, 1.5e9)
    assert np.isfinite(cyl_bessel(IK, ARG_LIMIT)).all()


def accumulated_powers(v: np.ndarray, terms: int) -> np.ndarray:
    """The power table as one cumulative product along each row: the form
    ``specfun._powers`` keeps below ``_COLUMN_FILL_MIN`` arguments, and the
    reference for its column fill from there on."""
    powers = np.empty((v.size, terms))
    powers[:, 0] = 1.0
    powers[:, 1:] = v[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    return powers


@pytest.mark.parametrize("terms", [2, 13, 16, 17])
@pytest.mark.parametrize("n", [1, 2, 18, 256, 300, 1548])
def test_power_table_is_the_cumulative_product(n, terms):
    # byte for byte: the table, and poly_rows' sums over it, for the term
    # counts of the Hankel sums (13), the series (16) and the fitted band
    # (17), at batch sizes on both sides of _COLUMN_FILL_MIN = 256, up to
    # a sech2 chunk's series entries
    rng = np.random.default_rng(1000 * n + terms)
    v = rng.uniform(-1.0, 1.0, n)
    v[:3] = (0.0, -0.25, 1.0)[:n]
    want = accumulated_powers(v, terms)
    got = specfun._powers(v, terms)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    coefficients = rng.standard_normal((4, terms))
    sums = np.einsum("nk,rk->rn", want, coefficients)
    assert specfun.poly_rows(coefficients, v).tobytes() == sums.tobytes()
