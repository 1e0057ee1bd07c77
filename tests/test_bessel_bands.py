"""The three argument bands of the sloped basis against mpmath.

A sloped segment evaluates its cylinder functions by the argument w: the
turning-point series below W_SERIES_SWITCH, scipy's Amos kernels up to
HANKEL_MIN and the Hankel expansions of :func:`specfun.hankel_bessel`
beyond.  The oracles here are mpmath's arbitrary-precision Bessel
functions at the exact binary arguments.
"""

import math

import mpmath
import numpy as np
import pytest

from mazersim.segment_basis import (
    Regime,
    Segment,
    W_SERIES_SWITCH,
    basis_eval,
    make_segment,
)
from mazersim.specfun import (
    ARG_LIMIT,
    HANKEL_MIN,
    BesselArgumentError,
    BesselFamily,
    cyl_bessel,
    hankel_bessel,
)

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


# --- Hankel expansions ----------------------------------------------------

HANKEL_ARGS = np.concatenate((
    [np.nextafter(HANKEL_MIN, math.inf)],
    np.geomspace(HANKEL_MIN, 1.0e9, 41)[1:],
    [20.25, 21.7, 33.3, 57.0, 123.456, 4.0e4 + 0.3, 7.77e7]))


@pytest.mark.parametrize("family", list(BesselFamily))
def test_hankel_matches_mpmath(family):
    got = hankel_bessel(family, HANKEL_ARGS)
    assert got.shape == (4, HANKEL_ARGS.size)
    for col, y in enumerate(HANKEL_ARGS.tolist()):
        errors = family_errors(family, got[:, col].tolist(), mp_family(family, y))
        assert max(errors) <= 2e-15, (family, y, errors)


@pytest.mark.parametrize("family", list(BesselFamily))
def test_hankel_layout_follows_cyl_bessel(family):
    # same (4, *shape) layout as the Amos kernel, and the two agree where
    # both are valid, to Amos's own accuracy near y = 20 (about 4e-15)
    ys = np.geomspace(HANKEL_MIN, 200.0, 12).reshape(2, 6)
    got = hankel_bessel(family, ys)
    amos = cyl_bessel(family, ys)
    assert got.shape == amos.shape == (4, 2, 6)
    assert np.abs(got - amos).max() <= 5e-14 * np.abs(amos).max()
    assert hankel_bessel(family, 50.0).shape == (4,)
    # an argument's values do not depend on the batch it comes in
    for i, y in enumerate(ys.ravel().tolist()):
        assert hankel_bessel(family, y).tolist() == got.reshape(4, -1)[:, i].tolist()


def test_hankel_refusals_name_their_entry():
    with pytest.raises(BesselArgumentError, match="at least") as exc:
        hankel_bessel(BesselFamily.JY, [30.0, 19.9, 40.0])
    assert exc.value.entry == 1
    with pytest.raises(BesselArgumentError) as exc:
        hankel_bessel(BesselFamily.JY, [30.0, 40.0, math.inf])
    assert exc.value.entry == 2
    with pytest.raises(BesselArgumentError, match="reliability limit") as exc:
        hankel_bessel(BesselFamily.IK, [30.0, 2.0 * ARG_LIMIT])
    assert exc.value.entry == 1
    # J, Y have no such limit
    assert np.isfinite(hankel_bessel(BesselFamily.JY, 2.0 * ARG_LIMIT)).all()


# --- batched turning-point series -----------------------------------------

def series_batch(z_sign, slope_sign, n=64):
    """n sloped segments of one regime with a turning point at x = 0 and
    slopes spread over two decades, plus the x that puts each one's
    argument on a log grid over [1e-3, W_SERIES_SWITCH)."""
    b = slope_sign * np.geomspace(0.05, 5.0, n)
    w = np.geomspace(1.0e-3, W_SERIES_SWITCH, n, endpoint=False)[::-1]
    t = (1.5 * np.abs(b) * w) ** (2.0 / 3.0)
    x = z_sign * t / b
    lo, hi = np.minimum(x, 0.0), np.maximum(x, 0.0)
    # each segment runs from its turning point to its probe
    regime = Regime.SLOPE_ALLOWED if z_sign > 0 else Regime.SLOPE_FORBIDDEN
    segs = [make_segment(l, h, b_ * l, b_ * h) for l, h, b_ in
            zip(lo.tolist(), hi.tolist(), b.tolist())]
    assert all(s.regime is regime for s in segs)
    return segs, x


def mp_basis(seg, x, z_sign):
    """(f+, f-, f+', f-') from mpmath at the segment's |z| and slope."""
    b = mpmath.mpf(seg.b)
    t = abs(mpmath.mpf(seg.z_ref) + b * (mpmath.mpf(x) - mpmath.mpf(seg.x_ref)))
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
    segs, x = series_batch(z_sign, slope_sign)
    # the records' fields as arrays: one batch of their regime
    batch = Segment(*(col[0] if name == "regime" else np.array(col)
                      for name, col in zip(Segment._fields, zip(*segs))))
    got = basis_eval(batch, x)
    # the series entries are unscaled
    assert not np.any(got.s)
    for i, (seg, xi) in enumerate(zip(segs, x.tolist())):
        values = [float(arr[i]) for arr in got[:4]]
        # one entry of the batch is the scalar call, bit for bit
        assert values == list(basis_eval(seg, xi)[:4])
        want = mp_basis(seg, xi, z_sign)
        for g, w in zip(values, want):
            assert g == pytest.approx(float(w), rel=1e-14, abs=0.0), (i, xi)


# --- handoff at the Hankel switch -----------------------------------------
#
# Amos just below the switch and the Hankel sums just above it each land
# within about 1e-14 of the modulus (the rounding of z(x) alone moves the
# phase w by some 20 * 3e-16), so the jump across the switch is bounded by
# twice that.

@pytest.mark.parametrize("z_sign,slope_sign", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_hankel_switch_handoff_matches_mpmath(z_sign, slope_sign):
    span, z_mag = 4.0, 100.0
    if (z_sign > 0) == (slope_sign > 0):
        z_lo, z_hi = 0.0, z_sign * z_mag
    else:
        z_lo, z_hi = z_sign * z_mag, 0.0
    seg = make_segment(0.0, span, z_lo, z_hi)
    for w_target in (0.92 * HANKEL_MIN, 0.999 * HANKEL_MIN,
                     1.001 * HANKEL_MIN, 1.08 * HANKEL_MIN):
        t = (1.5 * abs(seg.b) * w_target) ** (2.0 / 3.0)
        x = (z_sign * t - seg.z_ref) / seg.b
        assert seg.x_lo < x < seg.x_hi
        be = basis_eval(seg, x)
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
