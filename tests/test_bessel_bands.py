"""The three argument bands of the sloped basis against mpmath.

A sloped segment evaluates its cylinder functions by the argument w: the
turning-point series below W_SERIES_SWITCH and :func:`specfun.cyl_bessel`
at or above it, which takes its fitted pieces up to HANKEL_MIN and the
Hankel expansions beyond.  The oracles here are mpmath's
arbitrary-precision Bessel functions at the exact binary arguments.
"""

import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special

from mazersim import _bessel_band, segment_basis, specfun
from mazersim.grid import ModeShape
from mazersim.mazer import MazerParams, event_probabilities
from mazersim.segment_basis import (
    Regime,
    SegmentArrays,
    W_SERIES_SWITCH,
    basis_eval,
    build_segments,
)
from mazersim.specfun import (
    ARG_LIMIT,
    BAND_MIN,
    HANKEL_MIN,
    BesselArgumentError,
    BesselFamily,
    cyl_bessel,
)

from one_segment import basis_at, batch

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "fit_bessel_band.py"

mpmath.mp.dps = 40

THIRD = mpmath.mpf(1) / 3


def mp_family(family, y):
    """[J_1/3, J_2/3, Y_1/3, Y_2/3] or the scaled [I.., K..] at float y."""
    y = mpmath.mpf(y)
    orders = (THIRD, 2 * THIRD)
    if family is BesselFamily.JY:
        return ([mpmath.besselj(nu, y) for nu in orders]
                + [mpmath.bessely(nu, y) for nu in orders])
    return ([mpmath.besseli(nu, y) * mpmath.exp(-y) for nu in orders]
            + [mpmath.besselk(nu, y) * mpmath.exp(y) for nu in orders])


def family_errors(family, got, want):
    """Errors of the four values: relative to the modulus sqrt(J^2 + Y^2)
    of their order for JY, plain relative for the scaled I, K."""
    if family is BesselFamily.JY:
        mods = [mpmath.sqrt(want[i] ** 2 + want[i + 2] ** 2) for i in (0, 1)] * 2
    else:
        mods = want
    return [abs(g - float(w)) / float(m) for g, w, m in zip(got, want, mods)]


# --- fitted pieces on [1, 20] ----------------------------------------------

EDGES = _bessel_band.EDGES
# 150 points across the band, every piece edge and its neighbours on both
# sides inside the band
FIT_ARGS = np.unique(np.concatenate((
    np.linspace(BAND_MIN, HANKEL_MIN, 150), EDGES,
    np.nextafter(EDGES, -math.inf)[1:], np.nextafter(EDGES, math.inf)[:-1])))


def test_band_edges_meet_the_other_kernels():
    assert (EDGES[0], EDGES[-1]) == (BAND_MIN, HANKEL_MIN) == (W_SERIES_SWITCH, 20.0)


@pytest.mark.parametrize("family", list(BesselFamily))
def test_fit_matches_mpmath(family):
    assert FIT_ARGS.size >= 150 + 3 * (len(EDGES) - 2) + 2
    got = cyl_bessel(family, FIT_ARGS)
    worst = max(max(family_errors(family, got[:, col].tolist(), mp_family(family, y)))
                for col, y in enumerate(FIT_ARGS.tolist()))
    assert worst <= 4e-15, (family, worst)


@pytest.mark.parametrize("family", list(BesselFamily))
def test_fit_layout_and_batch_independence(family):
    ys = FIT_ARGS[:24].reshape(2, 12)
    got = cyl_bessel(family, ys)
    assert got.shape == (4, 2, 12)
    assert cyl_bessel(family, 3.0).shape == (4,)
    # an argument's values do not depend on the batch it comes in
    for i, y in enumerate(ys.ravel().tolist()):
        assert cyl_bessel(family, y).tolist() == got.reshape(4, -1)[:, i].tolist()
    assert cyl_bessel(family, FIT_ARGS)[:, :24].tolist() == got.reshape(4, -1).tolist()


def test_fit_refusals_name_their_entry():
    # 20.5 is in the Hankel band; 0.5 is below every band
    with pytest.raises(BesselArgumentError, match="must be finite and lie in") as exc:
        cyl_bessel(BesselFamily.IK, [3.0, 20.5, 0.5])
    assert exc.value.entry == 2
    with pytest.raises(BesselArgumentError) as exc:
        cyl_bessel(BesselFamily.JY, [[3.0, 4.0], [math.nan, 5.0]])
    assert exc.value.entry == 2


def _load_generator():
    spec = importlib.util.spec_from_file_location("fit_bessel_band", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_band_table_matches_generator():
    # a fresh fit from mpmath reproduces the checked-in literal, to 1e-15
    # of each piece's largest coefficient
    generator = _load_generator()
    assert generator.EDGES == EDGES
    assert generator.QUADRANTS == _bessel_band.QUADRANTS
    assert generator.DEGREE == _bessel_band.DEGREE
    fresh = np.array(generator.fit_table())
    assert fresh.shape == (2, len(EDGES) - 1, 4, generator.DEGREE + 1)
    stored = np.array(_bessel_band.COEFFICIENTS.split(), dtype=float).reshape(fresh.shape)
    largest = np.abs(stored).max(axis=(2, 3), keepdims=True)
    assert (np.abs(fresh - stored) <= 1e-15 * largest).all()
    phases = np.array(generator.phase_table())
    assert np.abs(phases - np.array(_bessel_band.PHASES)).max() == 0.0


# --- Hankel expansions, the band above HANKEL_MIN --------------------------

HANKEL_ARGS = np.concatenate((
    [np.nextafter(HANKEL_MIN, math.inf)],
    np.geomspace(HANKEL_MIN, 1.0e9, 41)[1:],
    [20.25, 21.7, 33.3, 57.0, 123.456, 4.0e4 + 0.3, 7.77e7]))


@pytest.mark.parametrize("family", list(BesselFamily))
def test_hankel_matches_mpmath(family):
    got = cyl_bessel(family, HANKEL_ARGS)
    assert got.shape == (4, HANKEL_ARGS.size)
    for col, y in enumerate(HANKEL_ARGS.tolist()):
        errors = family_errors(family, got[:, col].tolist(), mp_family(family, y))
        assert max(errors) <= 2e-15, (family, y, errors)


@pytest.mark.parametrize("family", list(BesselFamily))
def test_hankel_layout_follows_cyl_bessel(family):
    # the same (4, *shape) layout above HANKEL_MIN, and the two bands'
    # helpers agree at y = 20, the switch
    ys = np.geomspace(HANKEL_MIN, 200.0, 13)[1:].reshape(2, 6)
    got = cyl_bessel(family, ys)
    assert got.shape == (4, 2, 6)
    at_switch = np.full(6, HANKEL_MIN)
    fit, hankel = specfun._fitted(family, at_switch), specfun._hankel(family, at_switch)
    assert fit.shape == hankel.shape == (4, 6)
    assert np.abs(hankel - fit).max() <= 5e-14 * np.abs(fit).max()
    assert cyl_bessel(family, 50.0).shape == (4,)
    # an argument's values do not depend on the batch it comes in
    for i, y in enumerate(ys.ravel().tolist()):
        assert cyl_bessel(family, y).tolist() == got.reshape(4, -1)[:, i].tolist()


def test_hankel_refusals_name_their_entry():
    with pytest.raises(BesselArgumentError, match="at entry 1") as exc:
        cyl_bessel(BesselFamily.JY, [30.0, 0.5, 40.0])
    assert exc.value.entry == 1
    with pytest.raises(BesselArgumentError) as exc:
        cyl_bessel(BesselFamily.JY, [30.0, 40.0, math.inf])
    assert exc.value.entry == 2
    with pytest.raises(BesselArgumentError, match=r"\[1\.0, 1000000000\.0\]") as exc:
        cyl_bessel(BesselFamily.IK, [30.0, 2.0 * ARG_LIMIT])
    assert exc.value.entry == 1
    # J, Y have no such limit
    assert np.isfinite(cyl_bessel(BesselFamily.JY, 2.0 * ARG_LIMIT)).all()


# --- one call across both bands ---------------------------------------------

MIXED_ARGS = np.array([3.0, 25.0, HANKEL_MIN, np.nextafter(HANKEL_MIN, math.inf),
                       BAND_MIN, 7.77e7, np.nextafter(HANKEL_MIN, -math.inf),
                       123.456, 12.0, 4.0e4 + 0.3])


@pytest.mark.parametrize("family", list(BesselFamily))
def test_mixed_batch_matches_single_calls(family):
    # arguments on both sides of y = 20 in one call give each argument's
    # values of its own call, bit for bit
    got = cyl_bessel(family, MIXED_ARGS.reshape(2, 5))
    assert got.shape == (4, 2, 5)
    for i, y in enumerate(MIXED_ARGS.tolist()):
        assert cyl_bessel(family, y).tolist() == got.reshape(4, -1)[:, i].tolist(), y


def test_mixed_batch_refusals_name_their_entry():
    with pytest.raises(BesselArgumentError, match="at entry 3$") as exc:
        cyl_bessel(BesselFamily.IK, [25.0, 3.0, 1.0e5, 2.0 * ARG_LIMIT, 0.5])
    assert exc.value.entry == 3
    with pytest.raises(BesselArgumentError) as exc:
        cyl_bessel(BesselFamily.JY, [[25.0, 3.0], [math.nan, 21.0]])
    assert exc.value.entry == 2


# --- batched turning-point series -----------------------------------------

def series_batch(z_sign, slope_sign, n=64):
    """n sloped segments of one regime with a turning point at x = 0 and
    slopes spread over two decades, as segment arrays, plus the x that
    puts each one's argument on a log grid over [1e-3, W_SERIES_SWITCH)."""
    b = slope_sign * np.geomspace(0.05, 5.0, n)
    w = np.geomspace(1.0e-3, W_SERIES_SWITCH, n, endpoint=False)[::-1]
    t = (1.5 * np.abs(b) * w) ** (2.0 / 3.0)
    x = z_sign * t / b
    lo, hi = np.minimum(x, 0.0), np.maximum(x, 0.0)
    # each segment runs from its turning point to its probe
    regime = Regime.SLOPE_ALLOWED if z_sign > 0 else Regime.SLOPE_FORBIDDEN
    arrays = SegmentArrays(*map(np.concatenate, zip(*(
        build_segments((l, h), (b_ * l, b_ * h)) for l, h, b_ in
        zip(lo.tolist(), hi.tolist(), b.tolist())))))
    assert np.all(arrays.code == list(Regime).index(regime))
    return arrays, regime, x


def mp_basis(seg, x, z_sign):
    """(f+, f-, f+', f-') from mpmath at the |z| and slope of a batch of
    one."""
    b = mpmath.mpf(seg.b.item())
    t = abs(mpmath.mpf(seg.z_ref.item())
            + b * (mpmath.mpf(x) - mpmath.mpf(seg.x_lo.item())))
    wm = 2 * t ** mpmath.mpf(1.5) / (3 * abs(b))
    sq, sb = mpmath.sqrt(t), mpmath.sign(b)
    if z_sign > 0:
        return (sq * mpmath.besselj(THIRD, wm), sq * mpmath.bessely(THIRD, wm),
                sb * t * mpmath.besselj(-2 * THIRD, wm),
                sb * t * mpmath.bessely(-2 * THIRD, wm))
    return (sq * mpmath.besseli(THIRD, wm), sq * mpmath.besselk(THIRD, wm),
            -sb * t * mpmath.besseli(-2 * THIRD, wm),
            sb * t * mpmath.besselk(2 * THIRD, wm))


@pytest.mark.parametrize("z_sign,slope_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_series_batch_matches_mpmath(z_sign, slope_sign):
    arrays, regime, x = series_batch(z_sign, slope_sign)
    got = basis_eval(arrays.take(np.arange(len(x)), regime), x)
    # the series entries are unscaled
    assert not np.any(got.s)
    for i, xi in enumerate(x.tolist()):
        seg = arrays.take([i], regime)
        values = [float(arr[i]) for arr in got[:4]]
        # one entry of the batch is that segment's batch of one, bit for bit
        assert values == list(basis_at(seg, xi)[:4])
        want = mp_basis(seg, xi, z_sign)
        for g, w in zip(values, want):
            assert g == pytest.approx(float(w), rel=1e-14, abs=0.0), (i, xi)


# --- handoff at the Hankel switch -----------------------------------------
#
# The fitted pieces just below the switch and the Hankel sums just above
# it each land within about 1e-14 of the modulus (the rounding of z(x)
# alone moves the phase w by some 20 * 3e-16), so the jump across the
# switch is bounded by twice that.

@pytest.mark.parametrize("z_sign,slope_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_hankel_switch_handoff_matches_mpmath(z_sign, slope_sign):
    span, z_mag = 4.0, 100.0
    if (z_sign > 0) == (slope_sign > 0):
        z_lo, z_hi = 0.0, z_sign * z_mag
    else:
        z_lo, z_hi = z_sign * z_mag, 0.0
    seg = batch(0.0, span, z_lo, z_hi)
    b, z_ref = seg.b.item(), seg.z_ref.item()
    for w_target in (0.92 * HANKEL_MIN, 0.999 * HANKEL_MIN,
                     1.001 * HANKEL_MIN, 1.08 * HANKEL_MIN):
        t = (1.5 * abs(b) * w_target) ** (2.0 / 3.0)
        x = (z_sign * t - z_ref) / b
        assert seg.x_lo.item() < x < seg.x_hi.item()
        be = basis_at(seg, x)
        want = mp_basis(seg, x, z_sign)
        if z_sign > 0:
            # relative to the modulus of each (J, Y) pair
            for pair in ((0, 1), (2, 3)):
                mod = float(mpmath.sqrt(want[pair[0]] ** 2 + want[pair[1]] ** 2))
                for i in pair:
                    assert abs(be[i] - float(want[i])) <= 2e-14 * mod, (w_target, i)
        else:
            # scaled: f+, g+ carry e**s and f-, g- e**-s
            up, dn = mpmath.exp(-be.s), mpmath.exp(be.s)
            for i, scale in enumerate((up, dn, up, dn)):
                assert be[i] == pytest.approx(float(want[i] * scale), rel=2e-14), (
                    w_target, i)


# --- handoffs at w = 1 and w = 20, on adjacent floats ----------------------

def band_of(w: float) -> int:
    """0, 1 or 2 for the series, fitted and Hankel bands of argument w."""
    return 0 if w < W_SERIES_SWITCH else (1 if w <= HANKEL_MIN else 2)


def w_at(seg, x: float) -> float:
    """Cylinder argument (2 / 3|b|) |z|^{3/2} of a batch of one at x, as
    basis_eval forms it."""
    t = abs((seg.z_ref + seg.b * (x - seg.x_lo)).item())
    return 2.0 * t * math.sqrt(t) / (3.0 * abs(seg.b.item()))


def straddle(seg):
    """The adjacent floats x_a < x_b of a batch of one that spans two
    bands, on either side of their switch."""
    lo, hi = seg.x_lo.item(), seg.x_hi.item()
    band_lo = band_of(w_at(seg, lo))
    assert band_of(w_at(seg, hi)) != band_lo
    while math.nextafter(lo, hi) < hi:
        mid = max(0.5 * (lo + hi), math.nextafter(lo, hi))
        if band_of(w_at(seg, mid)) == band_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("z_near,z_far", [(0.0, 3.6), (50.0, 100.0)])
@pytest.mark.parametrize("z_sign,slope_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_band_handoffs_match_mpmath(z_near, z_far, z_sign, slope_sign):
    # the last float x on one band and the first on the next (series to
    # fit at w = 1 on |z| in [0, 3.6], fit to Hankel at w = 20 on
    # |z| in [50, 100]) both match mpmath
    if (z_sign > 0) == (slope_sign > 0):
        z_lo, z_hi = z_sign * z_near, z_sign * z_far
    else:
        z_lo, z_hi = z_sign * z_far, z_sign * z_near
    seg = batch(0.0, 4.0, z_lo, z_hi)
    pair = straddle(seg)
    assert len({band_of(w_at(seg, x)) for x in pair}) == 2
    for x in pair:
        be = basis_at(seg, x)
        want = mp_basis(seg, x, z_sign)
        if z_sign > 0:
            for a, b in ((0, 1), (2, 3)):
                mod = float(mpmath.sqrt(want[a] ** 2 + want[b] ** 2))
                for i in (a, b):
                    assert abs(be[i] - float(want[i])) <= 2e-14 * mod, (x, i)
        else:
            up, dn = mpmath.exp(-be.s), mpmath.exp(be.s)
            for i, scale in enumerate((up, dn, up, dn)):
                assert be[i] == pytest.approx(float(want[i] * scale), rel=2e-14), (x, i)


# --- no scipy Bessel function on the solve path ---------------------------

def test_rows_call_no_scipy_bessel_function(monkeypatch):
    # every band is the program's own numpy code: a row of each analytic
    # shape, with sloped arguments on both sides of w = 1 and w = 20,
    # solves with scipy's Bessel and Airy functions unavailable
    def unavailable(*args, **kwargs):
        raise AssertionError("scipy Bessel function called")

    for name in ("jv", "yv", "iv", "kv", "ive", "kve", "airy", "airye"):
        monkeypatch.setattr(scipy.special, name, unavailable)
    widths = []
    kernel = segment_basis.cyl_bessel

    def recording(family, y):
        widths.append(np.size(y))
        return kernel(family, y)

    monkeypatch.setattr(segment_basis, "cyl_bessel", recording)
    for shape in ModeShape:
        if shape is ModeShape.TABULATED:
            continue
        ev = event_probabilities(MazerParams.for_shape(shape, 0.3, 10.0, 200))
        assert ev.closure_defect <= 1e-8
    assert sum(widths) > 0
