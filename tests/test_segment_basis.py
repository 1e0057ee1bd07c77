"""Segment basis functions against independent oracles.

The oracles here deliberately avoid the production code paths: turning
point values come from gamma-function closed forms, interior values from
mpmath's arbitrary-precision cylinder functions and scipy's Airy pair, and
the differential equation itself is checked by finite differences.  Every
sloped check runs ``basis_eval`` on a batch of one from
``SegmentArrays.take``, and every flat check the closed-form propagator
that the sweep runs, since flat segments have no basis evaluation.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from mazersim import segment_basis, specfun, transfer
from mazersim.grid import ModeProfile, ModeShape, build_grid
from mazersim.segment_basis import (
    Regime,
    SegmentRegimeError,
    W_FLAT_COLLAPSE,
    W_SERIES_SWITCH,
    analytic_wronskian,
    basis_eval,
    build_segments,
)

from one_segment import basis_at, batch, propagator, regime, segment

mpmath.mp.dps = 50


def true_eval(seg, x):
    """basis_eval of a batch of one with the log scale s multiplied back
    in (s then 0), as floats."""
    be = basis_at(seg, x)
    up, dn = math.exp(be.s), math.exp(-be.s)
    return be._replace(f_plus=be.f_plus * up, f_minus=be.f_minus * dn,
                       g_plus=be.g_plus * up, g_minus=be.g_minus * dn, s=0.0)


def log10_true(be, which):
    """log10 of |f+| or |f-| from the float part and the log scale."""
    sign = 1.0 if which == "f_plus" else -1.0
    return math.log10(abs(getattr(be, which))) + sign * be.s / math.log(10.0)


def wronskian_of(be) -> float:
    # e**s of the plus pair cancels e**-s of the minus pair
    return be.f_plus * be.g_minus - be.f_minus * be.g_plus


# --- regime classification and construction ------------------------------

def test_classify_regime_all_cases():
    def regime_of(z_lo, z_hi):
        return regime(segment(0.0, 2.0, z_lo, z_hi))

    assert regime_of(2.0, 2.0) is Regime.FLAT_ALLOWED
    assert regime_of(-3.0, -3.0) is Regime.FLAT_FORBIDDEN
    assert regime_of(0.0, 0.0) is Regime.FLAT_FREE
    assert regime_of(0.0, 4.0) is Regime.SLOPE_ALLOWED
    assert regime_of(4.0, 0.0) is Regime.SLOPE_ALLOWED
    assert regime_of(-4.0, 0.0) is Regime.SLOPE_FORBIDDEN
    with pytest.raises(ValueError):
        regime_of(-1.0, 1.0)                 # interior sign change


def test_segment_tag_validation():
    # the tag is derived from the values, so it cannot contradict them
    assert regime(segment(0.0, 1.0, -1.0, -1.0)) is Regime.FLAT_FORBIDDEN
    assert regime(segment(0.0, 1.0, 1.0, 1.0)) is Regime.FLAT_ALLOWED
    assert segment(0.0, 1.0, 1.0, 1.0).b[0] == 0.0


def test_eval_rejects_sign_violation():
    seg = batch(0.0, 2.0, 0.0, 2.0)          # allowed, turning point at 0
    basis_eval(seg, 0.0)                     # exactly at the turning point: fine
    basis_eval(seg, -1e-12)                  # within slack: clamped
    with pytest.raises(SegmentRegimeError):
        basis_eval(seg, -0.5)


def test_eval_rejects_oversized_argument():
    # z = b*x with b = 1e17: w(1) = (2/3) sqrt(b) ~ 2e8, past the collapse
    # cap, so the segment comes out demoted to the flat regime of its
    # midpoint value and never reaches the cylinder functions
    seg = segment(0.0, 1.0, 0.0, 1.0e17)
    assert 2.0 * 1.0e17 * math.sqrt(1.0e17) / (3.0 * seg.b[0]) > W_FLAT_COLLAPSE
    assert regime(seg) is Regime.FLAT_ALLOWED
    assert seg.z_flat[0] == 0.5e17
    assert all(math.isfinite(v) for v in propagator(seg, 0.0, 1.0))


@pytest.mark.parametrize("z", [0.0, 1.3, -1.3])
def test_flat_batches_are_refused(z):
    # a flat segment has no Bessel basis: a flat batch is refused by name,
    # before any arithmetic could warn or misreport a sign
    arrays = build_segments([0.0, 1.0, 2.0], [z, z, z])
    flat = arrays.take(np.arange(2), regime(arrays))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: basis_eval(flat, flat.x_lo),
                     lambda: analytic_wronskian(flat)):
            with pytest.raises(ValueError, match=f"^{flat.regime.value} "
                               "segments have no Bessel basis"):
                call()


def test_batch_errors_name_their_segment(monkeypatch):
    # three sloped forbidden segments of slope -1, as one batch
    arrays = build_segments([0.0, 1.0, 2.0, 3.0], [-1.0, -2.0, -3.0, -4.0])
    forb = arrays.take(np.arange(3), Regime.SLOPE_FORBIDDEN)
    x = forb.x_lo.copy()
    x[1] = -5.0                    # z = +4 on the middle segment's line
    with pytest.raises(SegmentRegimeError,
                       match=r"slope_forbidden segment 1 at x = -5\.0$"):
        basis_eval(forb, x)
    # both ends at once: the error still names the segment, not the end
    with pytest.raises(SegmentRegimeError, match=r"segment 1 at x = -5\.0$"):
        transfer._propagators(arrays, x, forb.x_hi)
    allowed = build_segments([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]).take(
        np.arange(2), Regime.SLOPE_ALLOWED)
    with pytest.raises(SegmentRegimeError,
                       match=r"< 0 in slope_allowed segment 0 at x = -3\.0$"):
        basis_eval(allowed, np.array([-3.0, 1.5]))
    # w ~ 7e9 on the middle segment passes ARG_LIMIT
    far = forb._replace(b=np.array([-1.0, -1.0e-10, -1.0]))
    with pytest.raises(ValueError, match=r"^slope_forbidden segment 1 at "
                       r"x = 1\.0: argument must be finite and lie in "
                       r"\[1\.0, 1000000000\.0\]"):
        basis_eval(far, forb.x_lo)
    # a refusal by the fitted kernel at the largest argument of its band
    # (w = 1.9 and 3.5 on segments 1 and 2) names segment 2
    def refuse_largest(family, y):
        i = int(np.argmax(y))
        raise specfun.BesselArgumentError(f"refused: y = {float(y[i])!r}", i)

    monkeypatch.setattr(segment_basis, "cyl_bessel", refuse_largest)
    with pytest.raises(ValueError, match=r"^slope_forbidden segment 2 at "
                       r"x = 2\.0: refused: y = 3\.46"):
        basis_eval(forb, forb.x_lo)


def test_all_kernel_batch_errors_name_their_segment(monkeypatch):
    # at their right ends no segment of the batch is in the series band
    # (w = 1.9, 3.5, 5.3), so the kernel takes every entry: a refusal
    # still names the segment it came from, also with both ends at once
    arrays = build_segments([0.0, 1.0, 2.0, 3.0], [-1.0, -2.0, -3.0, -4.0])
    forb = arrays.take(np.arange(3), Regime.SLOPE_FORBIDDEN)
    # w ~ 2e10 at the middle segment's right end passes ARG_LIMIT
    far = forb._replace(b=np.array([-1.0, -1.0e-10, -1.0]))
    with pytest.raises(ValueError, match=r"^slope_forbidden segment 1 at "
                       r"x = 2\.0: argument must be finite and lie in "
                       r"\[1\.0, 1000000000\.0\]"):
        basis_eval(far, forb.x_hi)

    def refuse_largest(family, y):
        i = int(np.argmax(y))
        raise specfun.BesselArgumentError(f"refused: y = {float(y.flat[i])!r}", i)

    monkeypatch.setattr(segment_basis, "cyl_bessel", refuse_largest)
    with pytest.raises(ValueError, match=r"^slope_forbidden segment 2 at "
                       r"x = 3\.0: refused: y = 5\.33"):
        basis_eval(forb, forb.x_hi)
    # the largest of six arguments is entry 5, segment 2 at its second x
    x = np.array((forb.x_hi, forb.x_hi + 0.5))
    with pytest.raises(ValueError, match=r"^slope_forbidden segment 2 at "
                       r"x = 3\.5: refused: y = 6\.36"):
        basis_eval(forb, x)


@pytest.mark.parametrize("regime", [Regime.SLOPE_ALLOWED, Regime.SLOPE_FORBIDDEN])
def test_mixed_batch_matches_batches_of_one(regime):
    # a Gaussian's sloped batches, both ends of every segment as the sweep
    # evaluates them, hold series, fitted and Hankel entries; each entry's
    # five values are those of the entry evaluated alone, bit for bit
    arrays = build_grid(ModeProfile(ModeShape.GAUSSIAN, 12.0), +1, 0.1, 300).arrays
    sel = np.flatnonzero(arrays.code == tuple(Regime).index(regime))
    seg = arrays.take(sel, regime)
    x = np.array((arrays.x_hi[sel], arrays.x_lo[sel]))
    t = np.abs(seg.z_ref + seg.b * (x - seg.x_lo))
    w = 2.0 * t * np.sqrt(t) / (3.0 * np.abs(seg.b))
    assert (w < W_SERIES_SWITCH).any() and (w > specfun.HANKEL_MIN).any()
    assert ((w >= W_SERIES_SWITCH) & (w <= specfun.HANKEL_MIN)).any()
    batch_values = basis_eval(seg, x)
    for (end, j), xv in np.ndenumerate(x):
        alone = basis_eval(arrays.take(sel[j:j + 1], regime), xv)
        for got, want in zip(batch_values, alone):
            assert got[end, j].tobytes() == want[0].tobytes()


# --- flat regimes against elementary forms -------------------------------
#
# A flat segment's basis lives in its closed-form propagator: carried from
# the anchor, the states (1, 0) and (0, 1) become its two columns.

def test_flat_allowed_matches_trig():
    k = math.sqrt(2.0)
    for x in (-4.0, -0.3, 0.0, 1.7):
        dx = x + 5.0                          # anchored at x_lo = -5
        p11, p12, p21, p22, a = propagator(segment(-5.0, 5.0, 2.0, 2.0), -5.0, x)
        assert a == 0.0
        assert p11 == pytest.approx(math.cos(k * dx), abs=1e-15)
        assert p12 == pytest.approx(math.sin(k * dx) / k, abs=1e-15)
        assert p21 == pytest.approx(-k * math.sin(k * dx), abs=1e-15)
        assert p22 == pytest.approx(math.cos(k * dx), abs=1e-15)
        assert p11 * p22 - p12 * p21 == pytest.approx(1.0, rel=1e-15)


def test_flat_free_is_affine():
    # anchored at x_lo = 1
    assert propagator(segment(1.0, 4.0, 0.0, 0.0), 1.0, 3.5) == (
        1.0, 2.5, 0.0, 1.0, 0.0)


def test_flat_forbidden_survives_huge_width():
    # rho = 0.8, width 5000: the growing branch tops 10^1700, all of it in
    # the log factor, and the scaled cosh and sinh stay one half
    rho = 0.8
    p11, p12, p21, p22, a = propagator(segment(0.0, 5000.0, -0.64, -0.64),
                                       0.0, 5000.0)
    expect_log10 = rho * 5000.0 / math.log(10.0)
    # cosh(rho dx) = e**(rho dx) / 2 there
    assert math.log10(p11) + a / math.log(10.0) == pytest.approx(
        expect_log10 - math.log10(2.0), rel=1e-13)
    # the growing branch's derivative stays locked to +rho * phi
    assert p21 / p11 == pytest.approx(rho, rel=1e-14)
    assert p22 / p12 == pytest.approx(rho, rel=1e-14)
    assert p11 == p22


# --- turning-point values against gamma closed forms ---------------------

def gamma13() -> float:
    return math.gamma(1.0 / 3.0)


def gamma23() -> float:
    return math.gamma(2.0 / 3.0)


@pytest.mark.parametrize("b", [1.0, 0.37, -2.4])
def test_turning_point_allowed_side(b):
    # segment with z = b * (x - 0); allowed side selected by slope sign
    if b > 0:
        seg = batch(0.0, 1.0, 0.0, b)
    else:
        seg = batch(-1.0, 0.0, -b, 0.0)
    be = true_eval(seg, 0.0)
    cb = (3.0 * abs(b)) ** (1.0 / 3.0)
    assert be.f_plus == 0.0
    assert be.f_minus == pytest.approx(-cb * gamma13() / math.pi, rel=1e-14)
    # slopes of both members track the sign of b: d/dx = b d/dz, and Q'(0) = 0
    assert be.g_plus == pytest.approx(b / (cb * math.gamma(4.0 / 3.0)),
                                           rel=1e-14)
    expect_gm = (2.0 / math.sqrt(3.0)) * b * 0.5 / (cb * math.gamma(4.0 / 3.0))
    assert be.g_minus == pytest.approx(expect_gm, rel=1e-14)


@pytest.mark.parametrize("b", [1.0, 0.37, -2.4])
def test_turning_point_forbidden_side(b):
    # forbidden side of the same turning point: z < 0 where b*(x) < 0
    if b > 0:
        seg = batch(-1.0, 0.0, -b, 0.0)
    else:
        seg = batch(0.0, 1.0, 0.0, b)
    be = true_eval(seg, 0.0)
    cb = (3.0 * abs(b)) ** (1.0 / 3.0)
    assert be.f_plus == 0.0
    assert be.f_minus == pytest.approx(
        (math.pi / math.sqrt(3.0)) * cb / gamma23(), rel=1e-14)
    sb = math.copysign(1.0, b)
    assert be.g_plus == pytest.approx(
        -sb * abs(b) / (cb * math.gamma(4.0 / 3.0)), rel=1e-14)
    assert be.g_minus == pytest.approx(
        (math.pi / math.sqrt(3.0)) * sb * abs(b) / (cb * math.gamma(4.0 / 3.0)),
        rel=1e-14)


def test_turning_point_wronskians_match_analytic():
    for z_other, expect in ((3.0, lambda b: 3.0 * b / math.pi),
                            (-3.0, lambda b: 1.5 * b)):
        for lo, hi, xs in (((0.0), z_other, 0.0), (z_other, 0.0, 1.0)):
            seg = batch(0.0, 1.0, lo, hi)
            be = true_eval(seg, xs)
            b = float(seg.b[0])
            assert wronskian_of(be) == pytest.approx(expect(b), rel=1e-13)
            assert float(analytic_wronskian(seg)[0]) == pytest.approx(
                expect(b), rel=1e-15)


# --- interior values against mpmath cylinder functions -------------------

def test_allowed_interior_matches_mpmath():
    seg = batch(0.0, 40.0, 0.1, 60.1)         # b = 1.5
    for x in (0.2, 1.0, 7.5, 33.0):
        z = float(seg.z_ref[0] + seg.b[0] * (x - seg.x_lo[0]))
        w = mpmath.mpf(2.0) * mpmath.mpf(z) ** mpmath.mpf(1.5) / (3 * mpmath.mpf(seg.b[0]))
        be = true_eval(seg, x)
        sz = mpmath.sqrt(z)
        assert be.f_plus == pytest.approx(
            float(sz * mpmath.besselj(mpmath.mpf(1) / 3, w)), rel=1e-12)
        assert be.f_minus == pytest.approx(
            float(sz * mpmath.bessely(mpmath.mpf(1) / 3, w)), rel=1e-12)
        assert be.g_plus == pytest.approx(
            float(z * mpmath.besselj(mpmath.mpf(-2) / 3, w)), rel=1e-12)
        assert be.g_minus == pytest.approx(
            float(z * mpmath.bessely(mpmath.mpf(-2) / 3, w)), rel=1e-12)


def test_forbidden_interior_matches_mpmath():
    seg = batch(0.0, 40.0, -0.1, -60.1)       # b = -1.5
    for x in (0.2, 1.0, 7.5, 33.0):
        zeta = -float(seg.z_ref[0] + seg.b[0] * (x - seg.x_lo[0]))
        w = mpmath.mpf(2.0) * mpmath.mpf(zeta) ** mpmath.mpf(1.5) / (3 * mpmath.mpf(-seg.b[0]))
        be = true_eval(seg, x)
        sz = mpmath.sqrt(zeta)
        assert be.f_plus == pytest.approx(
            float(sz * mpmath.besseli(mpmath.mpf(1) / 3, w)), rel=1e-12)
        assert be.f_minus == pytest.approx(
            float(sz * mpmath.besselk(mpmath.mpf(1) / 3, w)), rel=1e-12)
        # b < 0 here: sign(b) = -1
        assert be.g_plus == pytest.approx(
            float(zeta * mpmath.besseli(mpmath.mpf(-2) / 3, w)), rel=1e-12)
        assert be.g_minus == pytest.approx(
            float(-zeta * mpmath.besselk(mpmath.mpf(2) / 3, w)), rel=1e-12)


def test_forbidden_deep_zone_exponents():
    # z down to -3000 over a long run: w_max ~ 73000, e^w ~ 10^31000
    seg = batch(0.0, 1000.0, -3.0, -3000.0)
    be = basis_at(seg, 1000.0)
    b = float(seg.b[0])
    zeta = 3000.0
    w = 2.0 * zeta ** 1.5 / (3.0 * abs(b))
    log10e = math.log10(math.e)
    # leading asymptotics: I ~ e^w / sqrt(2 pi w), K ~ e^-w sqrt(pi/(2w))
    expect_fm = -w * log10e + 0.5 * math.log10(math.pi / (2 * w)) \
        + 0.5 * math.log10(zeta)
    expect_fp = w * log10e - 0.5 * math.log10(2 * math.pi * w) \
        + 0.5 * math.log10(zeta)
    assert log10_true(be, "f_plus") == pytest.approx(expect_fp, abs=1e-3)
    assert log10_true(be, "f_minus") == pytest.approx(expect_fm, abs=1e-3)
    assert wronskian_of(be) == pytest.approx(1.5 * b, rel=1e-11)


# --- Airy oracle: independent solution of the same equation --------------

def test_airy_oracle_forbidden_side():
    # phi'' + (-2x) phi = 0 on x > 0 is Ai/Bi of (2)^{1/3} x.  The decaying
    # Ai is fitted deep and predicted backward so the growing partner's
    # roundoff admixture decays instead of swamping the target; Bi grows,
    # so the forward direction is already self-correcting.
    seg = batch(1e-9, 6.0, -2e-9, -12.0)
    c = 2.0 ** (1.0 / 3.0)
    cases = ((0, 5.0, (0.4, 2.0, 3.5)), (2, 1.0, (2.0, 3.5, 5.0)))
    for which, x0, targets in cases:
        be0 = true_eval(seg, x0)
        m = np.array([[be0.f_plus, be0.f_minus],
                      [be0.g_plus, be0.g_minus]])
        v = sp.airy(c * x0)
        rhs = np.array([v[which], c * v[which + 1]])
        coef = np.linalg.solve(m, rhs)
        for x in targets:
            be = true_eval(seg, x)
            got = coef[0] * be.f_plus + coef[1] * be.f_minus
            want = sp.airy(c * x)[which]
            assert got == pytest.approx(want, rel=2e-10), (which, x)


def test_airy_oracle_allowed_side():
    # phi'' + (-2x) phi = 0 on x < 0: oscillatory side
    seg = batch(-6.0, -1e-9, 12.0, 2e-9)
    c = 2.0 ** (1.0 / 3.0)
    x0 = -1.0
    be0 = true_eval(seg, x0)
    m = np.array([[be0.f_plus, be0.f_minus],
                  [be0.g_plus, be0.g_minus]])
    for which in (0, 2):
        v = sp.airy(c * x0)
        rhs = np.array([v[which], c * v[which + 1]])
        coef = np.linalg.solve(m, rhs)
        for x in (-0.4, -2.0, -3.5, -5.0):
            be = true_eval(seg, x)
            got = coef[0] * be.f_plus + coef[1] * be.f_minus
            want = sp.airy(c * x)[which]
            assert got == pytest.approx(want, rel=2e-10, abs=1e-13), (which, x)


# --- differential equation and derivative checks by finite differences ---

def _random_segments(rng):
    """A spread of segments across all regimes, turning points included."""
    segs = []
    for _ in range(6):
        b = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
        span = float(rng.uniform(0.5, 4.0))
        z0 = float(rng.uniform(0.0, 2.0))
        # allowed: z from z0 up; forbidden: mirrored down
        if b > 0:
            segs.append(batch(0.0, span, z0, z0 + b * span))
            segs.append(batch(0.0, span, -z0, -z0 - abs(b) * span))
        else:
            segs.append(batch(0.0, span, z0 + abs(b) * span, z0))
            segs.append(batch(0.0, span, -z0 - abs(b) * span, -z0))
    return segs


def test_ode_residual_and_derivative_by_fd():
    rng = np.random.default_rng(20260817)
    segs = _random_segments(rng)
    h = 1e-4
    for seg in segs:
        xs = np.linspace(seg.x_lo[0] + 3 * h, seg.x_hi[0] - 3 * h, 7)
        for x in xs:
            x = float(x)
            z = float(seg.z_ref[0] + seg.b[0] * (x - seg.x_lo[0]))
            bm = true_eval(seg, x - h)
            b0 = true_eval(seg, x)
            bp = true_eval(seg, x + h)
            for fm, f0, fp, g0 in (
                (bm.f_plus, b0.f_plus, bp.f_plus, b0.g_plus),
                (bm.f_minus, b0.f_minus, bp.f_minus, b0.g_minus),
            ):
                if f0 == 0.0:
                    continue
                rm = fm / f0
                rp = fp / f0
                if abs(rm) + abs(rp) > 50.0:
                    continue   # x sits at a node of f: ratios lose accuracy
                # second derivative over f: must equal -z
                d2 = (rm + rp - 2.0) / (h * h)
                assert d2 == pytest.approx(-z, abs=2e-6 * max(1.0, abs(z))), \
                    (seg.regime, x)
                # first derivative over f: must equal g/f
                d1 = (rp - rm) / (2.0 * h)
                want = g0 / f0
                assert d1 == pytest.approx(want, rel=2e-7, abs=2e-7), \
                    (seg.regime, x)


def test_flat_regimes_ode_residual():
    # the propagator's columns from the anchor x = -2, with the log factor
    # put back, are the flat basis pair
    h = 1e-5
    for z in (1.3, -1.3, 0.0):
        seg = segment(-2.0, 2.0, z, z)

        def columns(x):
            p11, p12, _, _, a = propagator(seg, -2.0, x)
            return p11 * math.exp(a), p12 * math.exp(a)

        for x in (-1.0, 0.3):
            bm, b0, bp = (columns(xx) for xx in (x - h, x, x + h))
            for fm, f0, fp in zip(bm, b0, bp):
                if f0 == 0.0 or abs(f0) < 1e-3:
                    continue
                d2 = (fm / f0 + fp / f0 - 2.0) / (h * h)
                assert d2 == pytest.approx(-z, abs=5e-5)


# --- series/cylinder handoff ---------------------------------------------
#
# Both representations are compared to mpmath at arguments just below and
# just above the switch.  Each lands within ~1e-12 of the true value, so
# the jump across the switch is bounded by twice that, far inside the 1e-9
# continuity budget, without the comparison being polluted by the slope of
# the function itself.

@pytest.mark.parametrize("z_sign,slope_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_series_switch_handoff_matches_mpmath(z_sign, slope_sign):
    span, z_mag = 4.0, 3.6
    if (z_sign > 0) == (slope_sign > 0):
        z_lo, z_hi = 0.0, z_sign * z_mag
    else:
        z_lo, z_hi = z_sign * z_mag, 0.0
    seg = batch(0.0, span, z_lo, z_hi)
    b, z_ref = float(seg.b[0]), float(seg.z_ref[0])
    assert (b > 0) == (slope_sign > 0)
    sb = math.copysign(1.0, b)
    third = mpmath.mpf(1) / 3
    for w_target in (0.92 * W_SERIES_SWITCH, 1.08 * W_SERIES_SWITCH):
        t = (1.5 * abs(b) * w_target) ** (2.0 / 3.0)   # |z| at the probe
        x = (z_sign * t - z_ref) / b
        assert seg.x_lo[0] < x < seg.x_hi[0]
        be = true_eval(seg, x)
        wm = 2 * mpmath.mpf(t) ** mpmath.mpf(1.5) / (3 * abs(mpmath.mpf(b)))
        sq = mpmath.sqrt(t)
        if z_sign > 0:
            want = (sq * mpmath.besselj(third, wm),
                    sq * mpmath.bessely(third, wm),
                    sb * t * mpmath.besselj(-2 * third, wm),
                    sb * t * mpmath.bessely(-2 * third, wm))
        else:
            want = (sq * mpmath.besseli(third, wm),
                    sq * mpmath.besselk(third, wm),
                    -sb * t * mpmath.besseli(-2 * third, wm),
                    sb * t * mpmath.besselk(2 * third, wm))
        got = (be.f_plus, be.f_minus, be.g_plus, be.g_minus)
        for g, w_ref in zip(got, want):
            assert g == pytest.approx(float(w_ref), rel=5e-12), w_target


# --- Wronskian constancy across each regime ------------------------------

def test_wronskian_constant_over_segments():
    rng = np.random.default_rng(7)
    for seg in _random_segments(rng):
        expect = float(analytic_wronskian(seg)[0])
        xs = np.linspace(seg.x_lo[0], seg.x_hi[0], 9)
        for x in xs:
            w = wronskian_of(true_eval(seg, float(x)))
            assert w == pytest.approx(expect, rel=1e-10), (seg.regime, x)


def test_mirror_symmetry():
    # reflecting the segment about x = 0 flips the sign of g but not f
    for z_hi in (5.0, -5.0):
        seg_r = batch(0.0, 2.5, 0.0, z_hi)
        seg_l = batch(-2.5, 0.0, z_hi, 0.0)
        # anchor of seg_l is at -2.5; shift reference so z matches at +-x
        for x in (0.3, 1.1, 2.2):
            br = true_eval(seg_r, x)
            bl = true_eval(seg_l, -x)
            assert bl.f_plus == pytest.approx(br.f_plus, rel=1e-10)
            assert bl.f_minus == pytest.approx(br.f_minus, rel=1e-10)
            assert bl.g_plus == pytest.approx(-br.g_plus, rel=1e-10)
            assert bl.g_minus == pytest.approx(-br.g_minus, rel=1e-10)
