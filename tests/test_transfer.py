"""Segment propagators, the node-state sweep, amplitude extraction."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import loggamma

from mazersim.grid import ModeProfile, ModeShape, build_grid
from mazersim.segment_basis import (
    Regime,
    Segment,
    analytic_wronskian,
    basis_eval,
    make_segment,
)
from mazersim.transfer import (
    TransferError,
    propagator,
    solve_scattering,
    sweep,
    sweep_propagators,
    wavefunction,
)

import test_grid_golden as golden


def mesa_closed(k: float, V0: float, a: float) -> tuple[complex, complex]:
    """Rectangular barrier/well on [0, a]: exact t, r."""
    kp = cmath.sqrt(complex(k * k - 2.0 * V0))
    if abs(kp) < 1e-30:
        s, c = complex(a), complex(1.0)
    else:
        s, c = cmath.sin(kp * a) / kp, cmath.cos(kp * a)
    t = 2.0 * cmath.exp(-1j * k * a) / (2.0 * c - 1j * (k * k + kp * kp) * s / k)
    r = -1j * ((k * k - kp * kp) / (2.0 * k)) * s * t * cmath.exp(1j * k * a)
    return t, r


def sech2_closed(k: float, L: float, sign: int) -> tuple[complex, complex]:
    """Exact t, r for the smooth barrier/well k^2 - sign*sech^2(x/L)."""
    kL = k * L
    xi = cmath.sqrt(complex(sign * L * L - 0.25))
    t = cmath.exp(loggamma(0.5 - 1j * (kL + xi)) + loggamma(0.5 - 1j * (kL - xi))
                  - loggamma(-1j * kL) - loggamma(1.0 - 1j * kL))
    r = cmath.exp(loggamma(1j * kL) + loggamma(1.0 - 1j * kL)
                  - loggamma(0.5 + 1j * xi) - loggamma(0.5 - 1j * xi)) * t
    return t, r


def random_adjacent_pair(rng) -> tuple[Segment, Segment, float]:
    """Two segments sharing a join, each single-signed, mixed regimes."""
    x_join = rng.uniform(-2.0, 2.0)
    segs = []
    for side in (0, 1):
        width = rng.uniform(0.3, 1.5)
        lo = x_join - width if side == 0 else x_join
        hi = x_join if side == 0 else x_join + width
        kind = rng.integers(0, 4)
        if kind == 0:       # flat
            zv = rng.uniform(-4.0, 4.0)
            segs.append(make_segment(lo, hi, zv, zv))
        elif kind == 1:     # sloped, same sign
            sgn = 1.0 if rng.random() < 0.5 else -1.0
            z0, z1 = sorted(rng.uniform(0.05, 4.0, size=2))
            segs.append(make_segment(lo, hi, sgn * z0, sgn * z1))
        elif kind == 2:     # turning point at the left end
            z1 = rng.uniform(-3.0, 3.0)
            segs.append(make_segment(lo, hi, 0.0, z1 if z1 != 0.0 else 1.0))
        else:               # turning point at the right end
            z0 = rng.uniform(-3.0, 3.0)
            segs.append(make_segment(lo, hi, z0 if z0 != 0.0 else -1.0, 0.0))
    return segs[0], segs[1], x_join


def matrix_floats(seg, x_from, x_to) -> np.ndarray:
    """The propagator with its log factor multiplied back in."""
    p11, p12, p21, p22, log_factor = propagator(seg, x_from, x_to)
    return math.exp(log_factor) * np.array([[p11, p12], [p21, p22]])


def across_pair(prev, nxt, forward):
    """Propagator over two adjacent segments, left to right or back."""
    if forward:
        return (matrix_floats(nxt, nxt.x_lo, nxt.x_hi)
                @ matrix_floats(prev, prev.x_lo, prev.x_hi))
    return (matrix_floats(prev, prev.x_hi, prev.x_lo)
            @ matrix_floats(nxt, nxt.x_hi, nxt.x_lo))


# --- propagator algebra ---------------------------------------------------

def test_identity_join():
    # joins are identities: the node state is shared, and a propagator of
    # zero length is the unit matrix
    seg = make_segment(0.0, 1.0, 0.5, 2.0)
    mat = matrix_floats(seg, 1.0, 1.0)
    assert np.allclose(mat, np.eye(2), rtol=0.0, atol=1e-14)
    state = mat @ np.array([0.3 - 0.4j, 1.1 + 0.2j])
    assert state[0] == pytest.approx(0.3 - 0.4j, abs=1e-14)
    assert state[1] == pytest.approx(1.1 + 0.2j, abs=1e-14)


def test_free_to_forbidden_join_hand_algebra():
    # a mesa barrier of width h: {cos kx, sin kx} anchored at 0 on both
    # sides of {e^-rho x, e^+rho x}, z = k^2 - 1 = -rho^2 on [0, h].  The
    # outgoing wave (C, D) = (1, i) gives the node state e^{ikh} (1, i k) at
    # x = h; the forbidden segment carries it back by the hyperbolic
    # rotation [[cosh, -sinh/rho], [-rho sinh, cosh]] of rho h
    k, h = 0.3, 4.0
    g = build_grid(ModeProfile(ModeShape.MESA, h), +1, k, 2)
    forb = g.segments[1]
    rho = math.sqrt(-forb.z_flat)
    mat = matrix_floats(forb, h, 0.0)
    ch, sh = math.cosh(rho * h), math.sinh(rho * h)
    want = np.array([[ch, -sh / rho], [-rho * sh, ch]])
    assert np.allclose(mat, want, rtol=1e-14, atol=0.0)
    c0, d0, log_scale, _ = sweep(g, 1.0, 1.0j)
    phi, dphi = cmath.exp(1j * k * h) * (want @ np.array([1.0, 1.0j * k]))
    # the left free segment ends at its anchor 0: C = phi, D = phi'/k there
    assert c0 * math.exp(log_scale) == pytest.approx(phi, rel=1e-14)
    assert d0 * math.exp(log_scale) == pytest.approx(dphi / k, rel=1e-14)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_batched_propagators_match_scalar_calls(name):
    # the sweep evaluates each sloped regime of a grid as one batch, both
    # ends of every segment at once; each segment's five entries match its
    # own propagator call within 1e-14 of their largest magnitude
    shape, kappaL, k, J, sign = golden.CASES[name]
    table = golden.TABLE if shape is ModeShape.TABULATED else None
    g = build_grid(ModeProfile(shape, kappaL, table=table), sign, k, J)
    checked = 0
    for regime in (Regime.SLOPE_ALLOWED, Regime.SLOPE_FORBIDDEN):
        idx = np.flatnonzero(g.arrays.code == list(Regime).index(regime))
        batch = g.arrays.take(idx, regime)
        got = np.array(propagator(batch, batch.x_hi, batch.x_lo))
        for entries, j in zip(got.T, idx.tolist()):
            seg = g.segments[j + 1]
            assert seg.regime is regime
            want = np.array(propagator(seg, seg.x_hi, seg.x_lo))
            assert np.abs(entries - want).max() <= 1e-14 * np.abs(want).max()
            checked += 1
    assert checked or shape is ModeShape.MESA


def test_shared_propagators_equal_each_grid_alone():
    # one pass over the concatenated arrays of several grids, sloped and
    # flat, gives each grid the floats of its own pass, and its solve
    grids = [build_grid(ModeProfile(shape, L), sign, k, J)
             for shape, L, k, J in ((ModeShape.SECH2, 3.0, 0.1, 100),
                                    (ModeShape.GAUSSIAN, 5.0, 0.3, 150),
                                    (ModeShape.MESA, 2.0, 0.5, 2))
             for sign in (+1, -1)]
    shared = sweep_propagators(grids)
    assert len(shared) == len(grids)
    for grid, props in zip(grids, shared):
        assert len(props) == 5 * len(grid.arrays.code)
        assert repr(props) == repr(sweep_propagators([grid])[0])
        assert repr(solve_scattering(grid, propagators=props)) == repr(
            solve_scattering(grid))
    assert sweep_propagators([]) == []
    with pytest.raises(ValueError, match="propagator entries for"):
        solve_scattering(grids[0], propagators=shared[0][:-5])


def basis_built(seg, x_from, x_to):
    """M(x_to) M(x_from)^-1 in propagator form from the segment's basis at
    both ends and its analytic Wronskian: the general formula that the flat
    closed forms replace."""
    fp1, fm1, gp1, gm1, s1 = basis_eval(seg, x_from)
    fp2, fm2, gp2, gm2, s2 = basis_eval(seg, x_to)
    w = analytic_wronskian(seg)
    d = s2 - s1
    up, dn = math.exp(d - abs(d)) / w, math.exp(-d - abs(d)) / w
    return (fp2 * gm1 * up - fm2 * gp1 * dn, fm2 * fp1 * dn - fp2 * fm1 * up,
            gp2 * gm1 * up - gm2 * gp1 * dn, gm2 * fp1 * dn - gp2 * fm1 * up,
            abs(d))


@pytest.mark.parametrize("z, x_from, x_to", [
    (0.0, 0.5, 3.25), (0.0, 3.25, -1.0),
    (2.0, 0.5, 3.25), (2.0, 3.25, 0.5), (0.01, -7.0, 40.0), (9.0, 1.0, 1.0),
    (-0.64, 0.5, 3.25), (-0.64, 3.25, 0.5), (-0.01, 0.0, 2.0),
    (-4.0, 0.0, 50.0), (-1.0, 1.0e4, 0.0), (-1.0e6, 10.0, 0.0)])
def test_flat_closed_forms_match_basis(z, x_from, x_to):
    # a shear, a rotation, or e**-a scaled cosh and sinh of a = rho |dx|
    # up to 1e4; the last two entries of the list reach a = 1e4
    seg = make_segment(-1.0, 1.0e4 + 1.0, z, z)
    assert seg.regime is not Regime.SLOPE_ALLOWED
    got = propagator(seg, x_from, x_to)
    want = basis_built(seg, x_from, x_to)
    scale = max(abs(v) for v in want[:4])
    assert max(abs(g - w) for g, w in zip(got[:4], want[:4])) <= 1e-14 * scale
    assert got[4] == pytest.approx(want[4], rel=1e-14, abs=0.0)
    # unit determinant once the log factor a is put back: the scaled
    # entries have determinant e**-2a, to the roundoff of entries <= 1
    p11, p12, p21, p22, a = got
    det = p11 * p22 - p12 * p21
    assert det == pytest.approx(math.exp(-2.0 * a), rel=0.0, abs=1e-15 * scale ** 2)


def test_flat_forbidden_closed_form_deep():
    # rho |dx| = 1e4: the growing exponential is all log factor, and the
    # scaled cosh and sinh are one half each, with the sign of dx
    seg = make_segment(0.0, 1.0e4, -1.0, -1.0)
    p11, p12, p21, p22, a = propagator(seg, 1.0e4, 0.0)
    assert a == 1.0e4
    assert (p11, p12, p21, p22) == (0.5, -0.5, -0.5, 0.5)
    # small a keeps its relative accuracy, where the basis-built form
    # loses digits to 1 - e**-2a: sinh(a) e**-a ~ a
    p11, p12, p21, p22, a = propagator(seg, 0.0, 1.0e-12)
    assert p12 == pytest.approx(1.0e-12, rel=1e-15)
    assert p11 == pytest.approx(1.0 - 1.0e-12, rel=1e-15)
    shallow = make_segment(0.0, 2.0, -1.0e-6, -1.0e-6)
    p11, p12, p21, p22, a = propagator(shallow, 0.0, 2.0)
    assert a == pytest.approx(2.0e-3, rel=1e-15)
    assert p12 == pytest.approx(math.sinh(a) * math.exp(-a) / 1.0e-3, rel=1e-15)
    assert p21 == pytest.approx(math.sinh(a) * math.exp(-a) * 1.0e-3, rel=1e-15)


def test_round_trip_and_determinant():
    rng = np.random.default_rng(20260817)
    checked = 0
    while checked < 100:
        prev, nxt, x_join = random_adjacent_pair(rng)
        B = across_pair(prev, nxt, forward=False)
        A = across_pair(prev, nxt, forward=True)
        scale = max(1.0, np.max(np.abs(A)) * np.max(np.abs(B)))
        assert np.allclose(A @ B, np.eye(2), rtol=0.0, atol=1e-12 * scale)
        # M(x_lo) M(x_hi)^-1 within one segment has unit determinant
        det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
        assert det == pytest.approx(1.0, rel=1e-11)
        checked += 1


def test_forward_sweep_inverts_backward_sweep():
    rng = np.random.default_rng(7)
    for _ in range(40):
        prev, nxt, x_join = random_adjacent_pair(rng)
        state = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
        again = across_pair(prev, nxt, True) @ (across_pair(prev, nxt, False) @ state)
        for orig, got in zip(state, again):
            assert got == pytest.approx(orig, rel=1e-12, abs=1e-12)


# --- scattering solutions -------------------------------------------------

def test_zero_potential_identity():
    p = ModeProfile(ModeShape.TABULATED, 0.0, table=((0.0, 0.0), (2.0, 0.0)))
    res = solve_scattering(build_grid(p, +1, 0.1, 5))
    assert res.t == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert res.r == pytest.approx(0.0 + 0.0j, abs=1e-14)
    assert res.log10_scale == 0.0
    assert res.unitarity_defect <= 1e-14


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("k,L", [(0.1, 5.0), (0.01, 20.0), (0.1, 1.0)])
def test_rectangular_barrier_closed_form(sign, k, L):
    g = build_grid(ModeProfile(ModeShape.MESA, L), sign, k, 2)
    res = solve_scattering(g)
    t_ex, r_ex = mesa_closed(k, 0.5 * sign, L)
    assert abs(res.t - t_ex) <= 1e-10 * abs(t_ex)
    assert abs(res.r - r_ex) <= 1e-10 * max(abs(r_ex), abs(t_ex))
    assert res.unitarity_defect <= 1e-12


def test_deep_barrier_graceful_underflow():
    L, k = 5000.0, 0.1
    res = solve_scattering(build_grid(ModeProfile(ModeShape.MESA, L), +1, k, 2))
    assert res.t == 0.0 + 0.0j
    kap = math.sqrt(1.0 - k * k)
    # asymptotic log-magnitude of t for an opaque rectangular barrier
    want = math.log10(4.0 * k * kap / (k * k + kap * kap)) - kap * L / math.log(10.0)
    assert res.t_log10_mag == pytest.approx(want, rel=1e-10)
    assert abs(res.r) <= 1.0
    assert res.unitarity_defect <= 1e-12
    assert res.log10_scale > 2000


def test_sech2_against_analytic():
    k, L = 0.1, 5.0
    g = build_grid(ModeProfile(ModeShape.SECH2, L), +1, k, 200)
    res = solve_scattering(g)
    t_ex, r_ex = sech2_closed(k, L, +1)
    assert abs(abs(res.t) ** 2 - abs(t_ex) ** 2) <= 1e-3
    assert abs(abs(res.r) ** 2 - abs(r_ex) ** 2) <= 1e-3
    assert res.unitarity_defect <= 1e-8


UNITARITY_CASES = [
    (ModeShape.SECH2, 10.0, +1, 0.1, 200, None),
    (ModeShape.SECH2, 10.0, -1, 0.01, 200, None),
    (ModeShape.GAUSSIAN, 10.0, +1, 0.1, 300, None),
    (ModeShape.GAUSSIAN, 10.0, -1, 0.1, 300, None),
    (ModeShape.SIN_FUNDAMENTAL, 30.0, +1, 0.1, 150, None),
    (ModeShape.SIN_FUNDAMENTAL, 30.0, -1, 0.1, 150, None),
    (ModeShape.SIN_FIRST_EXCITED, 30.0, +1, 0.1, 150, None),
    (ModeShape.SIN_FIRST_EXCITED, 30.0, -1, 0.1, 150, None),
    (ModeShape.MESA, 5.0, +1, 0.1, 2, None),
]


@pytest.mark.parametrize("shape,L,sign,k,J,window", UNITARITY_CASES)
def test_unitarity(shape, L, sign, k, J, window):
    g = build_grid(ModeProfile(shape, L), sign, k, J, window=window)
    res = solve_scattering(g)
    assert res.unitarity_defect <= 1e-8


def test_seed_scale_invariance():
    g = build_grid(ModeProfile(ModeShape.SECH2, 10.0), +1, 0.1, 200)
    base = solve_scattering(g)
    s = (0.3 - 0.7j) * 10.0 ** 150
    c0, d0, log_scale, _ = sweep(g, s, 1j * s)
    t = s * 2.0 * math.exp(-log_scale) / (c0 - 1j * d0)
    r = (c0 + 1j * d0) / (c0 - 1j * d0)
    assert t == pytest.approx(base.t, rel=1e-12)
    assert r == pytest.approx(base.r, rel=1e-12)


def test_left_right_reciprocity():
    # asymmetric potential: transmission magnitude must not depend on the
    # incidence side (mirror the table and compare)
    table = ((0.0, 0.0), (0.5, 0.9), (1.2, 0.4), (2.0, 0.7), (3.0, 0.0))
    mirrored = tuple(sorted((3.0 - x, u) for x, u in table))
    for sign in (+1, -1):
        a = solve_scattering(build_grid(
            ModeProfile(ModeShape.TABULATED, 0.0, table=table), sign, 0.3, 80))
        b = solve_scattering(build_grid(
            ModeProfile(ModeShape.TABULATED, 0.0, table=mirrored), sign, 0.3, 80))
        assert abs(a.t) == pytest.approx(abs(b.t), abs=1e-10)
        assert abs(a.r) == pytest.approx(abs(b.r), abs=1e-10)


def test_record_coefficients_indexing():
    g = build_grid(ModeProfile(ModeShape.MESA, 5.0), +1, 0.1, 2)
    res = solve_scattering(g, record_coefficients=True)
    assert res.coefficients is not None
    assert [sc.index for sc in res.coefficients] == list(range(len(g.segments)))
    assert res.coefficients[-1].log_scale == 0.0     # the seed itself


# --- wavefunction reconstruction ------------------------------------------

def test_wavefunction_zero_potential_plane_wave():
    p = ModeProfile(ModeShape.TABULATED, 0.0, table=((0.0, 0.0), (2.0, 0.0)))
    g = build_grid(p, +1, 0.4, 5)
    res = solve_scattering(g, record_coefficients=True)
    xs = np.linspace(-1.5, 3.5, 41)
    for x, phi in wavefunction(g, res, xs):
        assert phi == pytest.approx(cmath.exp(1j * 0.4 * x), abs=1e-13)


def test_wavefunction_requires_coefficients():
    g = build_grid(ModeProfile(ModeShape.MESA, 5.0), +1, 0.1, 2)
    res = solve_scattering(g)
    with pytest.raises(ValueError):
        wavefunction(g, res, [1.0])


def test_wavefunction_domain_guard():
    g = build_grid(ModeProfile(ModeShape.MESA, 5.0), +1, 0.1, 2)
    res = solve_scattering(g, record_coefficients=True)
    with pytest.raises(ValueError):
        wavefunction(g, res, [5.0 + 2.0 * 5.0 + 1.0])


def test_wavefunction_evanescent_profile():
    # inside a rectangular barrier the reconstruction must match the
    # closed-form decaying/growing pair seeded by the transmitted wave
    k, L = 0.1, 5.0
    g = build_grid(ModeProfile(ModeShape.MESA, L), +1, k, 2)
    res = solve_scattering(g, record_coefficients=True)
    kp = cmath.sqrt(complex(k * k - 1.0))
    t_ex, _ = mesa_closed(k, 0.5, L)
    xs = np.linspace(0.5, 4.5, 17)
    got = wavefunction(g, res, xs)
    for (x, phi) in got:
        plus = (1.0 + k / kp) * cmath.exp(1j * kp * (x - L))
        minus = (1.0 - k / kp) * cmath.exp(-1j * kp * (x - L))
        want = 0.5 * t_ex * cmath.exp(1j * k * L) * (plus + minus)
        assert phi == pytest.approx(want, rel=1e-9)


def test_wavefunction_continuity_and_turning_points():
    k, L = 0.1, 10.0
    g = build_grid(ModeProfile(ModeShape.SECH2, L), +1, k, 200)
    res = solve_scattering(g, record_coefficients=True)

    def phi_from_segment(idx: int, x: float) -> complex:
        st = res.coefficients[idx]
        p11, p12, _, _, log_factor = propagator(g.segments[idx], st.x, x)
        return (p11 * st.phi + p12 * st.dphi) * math.exp(
            log_factor + st.log_scale - res.coefficients[0].log_scale)

    # both representations of phi at each join, before normalization
    peak = max(abs(phi_from_segment(i, float(x)))
               for i, x in enumerate(g.points, start=1))
    for i, x in enumerate(g.points):
        a = phi_from_segment(i, float(x))       # segment ending at x
        b = phi_from_segment(i + 1, float(x))   # segment starting at x
        assert abs(a - b) <= 1e-9 * peak

    for tp in g.turning_points:
        (_, phi), = wavefunction(g, res, [tp])
        assert math.isfinite(phi.real) and math.isfinite(phi.imag)
