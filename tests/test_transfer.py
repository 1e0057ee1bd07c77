"""Segment propagators, the node-state sweep, amplitude extraction."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.special import loggamma

from mazersim.grid import DEFAULT_WINDOW_FACTOR, ModeProfile, ModeShape, build_grid
from mazersim.segment_basis import Regime, SegmentArrays, basis_eval, build_segments
from mazersim import transfer
from mazersim.transfer import (
    TransferError,
    solve_scattering,
    sweep,
    sweep_products,
    wavefunction,
)

import test_grid_golden as golden
from one_segment import propagator, regime, segment
from recorded_loop import recorded_sweep


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


def random_adjacent_pair(rng) -> tuple[SegmentArrays, SegmentArrays, float]:
    """Two one-segment arrays sharing a join, each single-signed, mixed
    regimes."""
    x_join = rng.uniform(-2.0, 2.0)
    segs = []
    for side in (0, 1):
        width = rng.uniform(0.3, 1.5)
        lo = x_join - width if side == 0 else x_join
        hi = x_join if side == 0 else x_join + width
        kind = rng.integers(0, 4)
        if kind == 0:       # flat
            zv = rng.uniform(-4.0, 4.0)
            segs.append(segment(lo, hi, zv, zv))
        elif kind == 1:     # sloped, same sign
            sgn = 1.0 if rng.random() < 0.5 else -1.0
            z0, z1 = sorted(rng.uniform(0.05, 4.0, size=2))
            segs.append(segment(lo, hi, sgn * z0, sgn * z1))
        elif kind == 2:     # turning point at the left end
            z1 = rng.uniform(-3.0, 3.0)
            segs.append(segment(lo, hi, 0.0, z1 if z1 != 0.0 else 1.0))
        else:               # turning point at the right end
            z0 = rng.uniform(-3.0, 3.0)
            segs.append(segment(lo, hi, z0 if z0 != 0.0 else -1.0, 0.0))
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
    seg = segment(0.0, 1.0, 0.5, 2.0)
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
    rho = math.sqrt(-g.arrays.z_flat[0])
    mat = matrix_floats(g.arrays, h, 0.0)
    ch, sh = math.cosh(rho * h), math.sinh(rho * h)
    want = np.array([[ch, -sh / rho], [-rho * sh, ch]])
    assert np.allclose(mat, want, rtol=1e-14, atol=0.0)
    c0, d0, _, _, log = sweep(g, 1.0, 1.0j)
    phi, dphi = cmath.exp(1j * k * h) * (want @ np.array([1.0, 1.0j * k]))
    # the left free segment ends at its anchor 0: C = phi, D = phi'/k there
    assert c0 * math.exp(log[0]) == pytest.approx(phi, rel=1e-14)
    assert d0 * math.exp(log[0]) == pytest.approx(dphi / k, rel=1e-14)


def golden_grid(name):
    shape, kappaL, k, J, sign = golden.CASES[name]
    table = golden.TABLE if shape is ModeShape.TABULATED else None
    return build_grid(ModeProfile(shape, kappaL, table=table), sign, k, J)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_batched_propagators_match_scalar_calls(name):
    # the sweep evaluates each sloped regime of a grid as one batch, both
    # ends of every segment at once; each sloped segment's five entries
    # match those of a batch of that segment alone within 1e-14 of their
    # largest magnitude
    g = golden_grid(name)
    table = transfer._pass([g])
    checked = 0
    for j in range(len(g.arrays.code)):
        if regime(g.arrays, j) in (Regime.SLOPE_ALLOWED, Regime.SLOPE_FORBIDDEN):
            want = np.array(propagator(g.arrays, g.arrays.x_hi[j],
                                       g.arrays.x_lo[j], j))
            assert np.abs(table[j] - want).max() <= 1e-14 * np.abs(want).max()
            checked += 1
    assert checked or g.profile.shape is ModeShape.MESA


# the product tree against the recorded loop on the golden grids, which
# associate the same propagators in another order: t relative, r absolute,
# and log10|t| relative to its magnitude, which reaches 3.3e4 on the
# sin+ grid, whose t underflows to 0
TREE_T_REL_TOL = 1e-13
TREE_R_TOL = 1e-14
TREE_LOG10_T_REL_TOL = 1e-14


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_tree_product_matches_recorded_loop(name):
    g = golden_grid(name)
    tree = solve_scattering(g)
    c0, d0, _, _, log = recorded_sweep(g, 1.0 + 0.0j, 1.0j)
    amp = 2.0 / (c0 - 1j * d0)
    sigma = log[0] / math.log(10.0)
    t_log10_mag = math.log10(abs(amp)) - sigma
    assert abs(t_log10_mag - tree.t_log10_mag) <= TREE_LOG10_T_REL_TOL * max(
        1.0, abs(tree.t_log10_mag))
    t = amp * 10.0 ** -sigma if t_log10_mag > -300.0 else 0.0
    assert abs(t - tree.t) <= TREE_T_REL_TOL * abs(tree.t)
    assert (tree.t == 0.0) == (t == 0.0)
    r = (c0 + 1j * d0) / (c0 - 1j * d0)
    assert abs(r - tree.r) <= TREE_R_TOL


def test_products_do_not_depend_on_the_batch(monkeypatch):
    # odd, even, power-of-two and one-segment grids, the longest not first:
    # identity padding and power-of-two scaling are exact, so each grid's
    # (C0, D0, log_scale) in a batch is that of its own batch of one, bit
    # for bit, and its propagators are the floats of its own pass
    grids = [build_grid(ModeProfile(shape, L), sign, k, J)
             for shape, L, k, J, sign in (
                 (ModeShape.SECH2, 3.0, 0.1, 101, -1),
                 (ModeShape.SECH2, 10.0, 0.01, 200, +1),
                 (ModeShape.SECH2, 3.0, 0.1, 65, -1),
                 (ModeShape.MESA, 5.0, 0.1, 2, +1),
                 (ModeShape.GAUSSIAN, 15.0, 0.1, 64, +1))]
    lengths = [len(g.arrays.code) for g in grids]
    assert lengths == [100, 201, 64, 1, 65]

    steps = []

    def counted(*args):
        steps.append(len(args[0]))
        return step(*args)

    step = transfer._step
    monkeypatch.setattr(transfer, "_step", counted)
    readouts = sweep_products(grids)
    # the whole chunk is read out in one step
    assert steps == [len(grids)]
    monkeypatch.undo()

    table = transfer._pass(grids)
    stops = np.cumsum(lengths).tolist()
    for grid, readout, start, stop in zip(grids, readouts, [0] + stops, stops):
        (alone,) = sweep_products([grid])
        assert np.array(readout).tobytes() == np.array(alone).tobytes()
        assert np.array_equal(table[start:stop], transfer._pass([grid]))
        assert repr(solve_scattering(grid, readout=readout)) == repr(
            solve_scattering(grid))
    assert sweep_products([]) == []


# a table whose mode changes sign, so that its grids have turning nodes
# on both sides of a zero of u
_SIGN_CHANGING_TABLE = tuple((0.25 * i, math.sin(0.9 * i) * (1.0 - 0.02 * i))
                             for i in range(41))


def test_chunk_pass_segments_once(monkeypatch):
    # build_grid segments nothing, and a grid segments itself once, on its
    # first read of arrays; a pass over several grids classifies all their
    # segments in one call, whose arrays are byte for byte those of each
    # grid's own build_segments, joined, and its readouts those of lone
    # solves.  The mesa row's + grid ends at z = k^2 - 1 < 0 and its - grid
    # starts at k^2 + 1 > 0: the join between them is no segment
    from mazersim import grid as grid_module
    from mazersim.segment_basis import build_segments

    built = []

    def counted_build(x, z):
        built.append(len(x))
        return build_segments(x, z)

    monkeypatch.setattr(grid_module, "build_segments", counted_build)
    grids = [build_grid(profile, sign, k, J)
             for profile, k, J in (
                 (ModeProfile(ModeShape.MESA, 3.0), 0.5, 2),
                 (ModeProfile(ModeShape.SECH2, 4.0), 0.3, 120),
                 (ModeProfile(ModeShape.SIN_FIRST_EXCITED, 5.0), 0.1, 100),
                 (ModeProfile(ModeShape.TABULATED, 0.0,
                              table=_SIGN_CHANGING_TABLE), 0.2, 200))
             for sign in (+1, -1)]
    assert built == []
    assert grids[0].z[-1] < 0.0 < grids[1].z[0]
    assert grids[-1].turning_points

    passes = []
    classify = transfer.classify_intervals

    def counted_pass(*columns):
        passes.append(classify(*columns))
        return passes[-1]

    monkeypatch.setattr(transfer, "classify_intervals", counted_pass)
    readouts = sweep_products(grids)
    assert len(passes) == 1 and built == []
    joined = map(np.concatenate, zip(*(build_segments(g.points, g.z)
                                       for g in grids)))
    for column, want in zip(passes[0], joined, strict=True):
        assert column.dtype.str == want.dtype.str
        assert column.tobytes() == want.tobytes()

    for grid, readout in zip(grids, readouts, strict=True):
        assert repr(readout) == repr(sweep_products([grid])[0])
        assert repr(solve_scattering(grid, readout=readout)) == repr(
            solve_scattering(grid))
    # the lone solves read each grid's arrays, built once
    assert built == [len(g.points) for g in grids]
    assert all(g.arrays is g.arrays for g in grids)
    assert len(built) == len(grids) and len(passes) == 1


# the down-sweep's node states against the recorded loop's, each put on
# the loop's log scale and compared relative to the loop state's larger
# component.  The two associate and rescale differently: 2.5e-14, or 4
# ulp of the largest |log scale| where that is more; the sin+ grid's log
# scales reach 7.6e4, and its states agree to 3.1e-11
STATE_REL_TOL = 2.5e-14
STATE_LOG_ULPS = 4


# sech2- grids of 62, 63, 64 and 128 segments, either side of a power of
# two, by their J
PADDING_EDGE_J = {62: 63, 63: 64, 64: 65, 128: 129}


def down_sweep_grid(name):
    if name == "mesa":   # one segment, no tree level
        return build_grid(ModeProfile(ModeShape.MESA, 5.0), +1, 0.1, 2)
    if name.startswith("segments="):
        n = int(name.split("=")[1])
        g = build_grid(ModeProfile(ModeShape.SECH2, 3.0), -1, 0.1,
                       PADDING_EDGE_J[n])
        assert len(g.arrays.code) == n
        return g
    return golden_grid(name)


@pytest.mark.parametrize("name", sorted(golden.CASES) + ["mesa"] + [
    f"segments={n}" for n in PADDING_EDGE_J])
def test_down_sweep_matches_recorded_loop(name):
    g = down_sweep_grid(name)
    c0, d0, *states = sweep(g, 1.0 + 0.0j, 1.0j)
    c1, d1, *want = recorded_sweep(g, 1.0 + 0.0j, 1.0j)
    assert {len(v) for v in states + want} == {len(g.points)}
    (phi, dphi, log), (phi1, dphi1, log1) = states, want
    tol = max(STATE_REL_TOL, STATE_LOG_ULPS * math.ulp(abs(log1).max()))
    back = np.exp(log - log1)
    mag = np.maximum(abs(phi1), abs(dphi1))
    assert (abs(phi * back - phi1) <= tol * mag).all()
    assert (abs(dphi * back - dphi1) <= tol * mag).all()
    back = math.exp(log[0] - log1[0])
    assert max(abs(c0 * back - c1), abs(d0 * back - d1)) <= tol * max(
        abs(c1), abs(d1))
    assert [v[-1] for v in states] == [v[-1] for v in want]


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_recording_solve_forms_its_propagators_once(name, monkeypatch):
    # the recording path forms its propagator table in one basis_eval
    # batch per sloped regime present, none for a flat grid, and one
    # product tree; wavefunction adds one batch per sloped regime for
    # its samples, here one at every node, and no second tree
    g = golden_grid(name)
    calls, trees = [], []

    def counted(seg, xs):
        calls.append(seg.regime)
        return basis_eval(seg, xs)

    def counted_tree(*args):
        trees.append(args)
        return levels(*args)

    levels = transfer._levels
    monkeypatch.setattr(transfer, "basis_eval", counted)
    monkeypatch.setattr(transfer, "_levels", counted_tree)
    *_, log = sweep(g, 1.0 + 0.0j, 1.0j)
    present = {list(Regime)[c] for c in g.arrays.code.tolist()}
    sloped = sorted(present & {Regime.SLOPE_ALLOWED, Regime.SLOPE_FORBIDDEN},
                    key=str)
    assert sorted(calls, key=str) == sloped
    assert len(trees) == 1
    assert len(log) == len(g.points)

    calls.clear()
    trees.clear()
    assert len(wavefunction(g, g.points)) == len(g.points)
    assert sorted(calls, key=str) == sorted(sloped * 2, key=str)
    assert len(trees) == 1


def test_degenerate_products_raise_typed_errors(monkeypatch):
    # a zero or a NaN root product of one grid among others is refused by
    # the chunk's one step, as it is by a lone solve
    g = golden_grid("sech2+")
    other = build_grid(ModeProfile(ModeShape.MESA, 5.0), +1, 0.1, 2)
    levels = transfer._levels
    for entries, match in (((0.0, 0.0, 0.0, 0.0), "collapsed to zero"),
                           ((1.0, math.nan, 0.0, 1.0), "not finite")):
        def degenerate(table, lengths, entries=entries):
            tree = levels(table, lengths)
            tree[-1][0][:, :, 0, 0] = np.reshape(entries, (2, 2))
            return tree

        monkeypatch.setattr(transfer, "_levels", degenerate)
        with pytest.raises(TransferError, match=match):
            sweep_products([g, other])
        with pytest.raises(TransferError, match=match):
            solve_scattering(g)
        monkeypatch.undo()
        sweep_products([g, other])


def test_degenerate_readouts_raise_typed_errors():
    # a readout (C0, D0, log scale) with C0 - i*D0 = 0 has no unit-incidence
    # normalization; one whose log scale puts |t| above 1e300 overflows
    g = build_grid(ModeProfile(ModeShape.SECH2, 5.0), +1, 0.1, 50)
    with pytest.raises(TransferError, match="degenerate normalization"):
        solve_scattering(g, readout=(1.0, -1j, 0.0))
    with pytest.raises(TransferError, match="transmission overflow"):
        solve_scattering(g, readout=(1.0, 0j, -1000.0))


def test_non_finite_seeds_raise_typed_errors():
    g = build_grid(ModeProfile(ModeShape.SECH2, 5.0), +1, 0.1, 50)
    for seed in (math.nan, math.inf):
        with pytest.raises(TransferError, match="not finite"):
            sweep(g, seed, 1j)


def expm_reference(z, x_from, x_to):
    """The propagator of a flat segment with coefficient z in propagator
    form, from mpmath's exponential of the 2x2 system (phi, phi')' =
    [[0, 1], [-z, 0]] (phi, phi') over dx at 40 digits, scaled by
    e**-(rho |dx|) on a forbidden segment."""
    with mpmath.workdps(40):
        z, dx = mpmath.mpf(z), mpmath.mpf(x_to) - mpmath.mpf(x_from)
        a = mpmath.sqrt(-z) * abs(dx) if z < 0 else mpmath.mpf(0)
        m = mpmath.expm(mpmath.matrix([[0, dx], [-z * dx, 0]])) * mpmath.exp(-a)
        return (*(float(m[i, j]) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))),
                float(a))


@pytest.mark.parametrize("z, x_from, x_to", [
    (0.0, 0.5, 3.25), (0.0, 3.25, -1.0),
    (2.0, 0.5, 3.25), (2.0, 3.25, 0.5), (0.01, -7.0, 40.0), (9.0, 1.0, 1.0),
    (-0.64, 0.5, 3.25), (-0.64, 3.25, 0.5), (-0.01, 0.0, 2.0),
    (-4.0, 0.0, 50.0), (-1.0, 1.0e4, 0.0), (-1.0e6, 10.0, 0.0)])
def test_flat_closed_forms_match_basis(z, x_from, x_to):
    # a shear, a rotation, or e**-a scaled cosh and sinh of a = rho |dx|
    # up to 1e4; the last two entries of the list reach a = 1e4
    seg = segment(-1.0, 1.0e4 + 1.0, z, z)
    assert regime(seg) is not Regime.SLOPE_ALLOWED
    got = propagator(seg, x_from, x_to)
    want = expm_reference(z, x_from, x_to)
    scale = max(abs(v) for v in want[:4])
    assert max(abs(g - w) for g, w in zip(got[:4], want[:4])) <= 1e-14 * scale
    assert got[4] == pytest.approx(want[4], rel=1e-14, abs=0.0)
    # unit determinant once the log factor a is put back: the scaled
    # entries have determinant e**-2a, to the roundoff of entries <= 1
    p11, p12, p21, p22, a = got
    det = p11 * p22 - p12 * p21
    assert det == pytest.approx(math.exp(-2.0 * a), rel=0.0, abs=1e-15 * scale ** 2)


def test_flat_rows_match_their_closed_forms():
    # one chunk of a mesa row (a rotation and a forbidden flat) and a
    # Gaussian row (over 150 rotations on its demoted tails), with a
    # z = 0 segment and a rotation of phase k dx ~ 1e5 appended, carried
    # both ways: every flat row is _flat_propagator's for its segment, bit
    # for bit, whether the rotations of the pass are one array step (the
    # whole chunk) or not (the mesa row alone, below _FLAT_BATCH)
    grids = [build_grid(ModeProfile(shape, L), sign, k, J)
             for shape, L, k, J in ((ModeShape.MESA, 5.0, 0.3, 2),
                                    (ModeShape.GAUSSIAN, 12.0, 0.1, 300))
             for sign in (+1, -1)]
    extra = (build_segments([-2.0, 3.0], [0.0, 0.0]),
             build_segments([0.0, 7.0e4], [2.0, 2.0]))     # k dx = 98994.9
    chunk = SegmentArrays(*map(np.concatenate, zip(
        *(g.arrays for g in grids), *extra)))
    mesa = SegmentArrays(*map(np.concatenate, zip(grids[0].arrays,
                                                  grids[1].arrays)))
    # codes 0, 1 and 2: the flat regimes z = 0, z > 0 and z < 0
    free, rotations, forbidden = np.bincount(chunk.code)[:3].tolist()
    assert free == 1 and rotations > 150 and forbidden >= 2
    assert np.count_nonzero(mesa.code < 3) < transfer._FLAT_BATCH
    for arrays in (chunk, mesa):
        for x_from, x_to in ((arrays.x_hi, arrays.x_lo),
                             (arrays.x_lo, arrays.x_hi)):
            table = transfer._propagators(arrays, x_from, x_to)
            for i in np.flatnonzero(arrays.code < 3).tolist():
                z, dx = float(arrays.z_flat[i]), float(x_to[i] - x_from[i])
                want = np.array(transfer._flat_propagator(z, dx))
                assert table[i].tobytes() == want.tobytes(), (
                    f"flat row z = {z!r}, dx = {dx!r}: {table[i].tolist()} "
                    f"against {want.tolist()}; if z > 0, numpy's float64 sin or cos (its SIMD "
                    f"loop, picked by CPU feature and numpy release) is not "
                    f"math's here")


def test_flat_forbidden_closed_form_deep():
    # rho |dx| = 1e4: the growing exponential is all log factor, and the
    # scaled cosh and sinh are one half each, with the sign of dx
    seg = segment(0.0, 1.0e4, -1.0, -1.0)
    p11, p12, p21, p22, a = propagator(seg, 1.0e4, 0.0)
    assert a == 1.0e4
    assert (p11, p12, p21, p22) == (0.5, -0.5, -0.5, 0.5)
    # small a keeps its relative accuracy, where the basis-built form
    # loses digits to 1 - e**-2a: sinh(a) e**-a ~ a
    p11, p12, p21, p22, a = propagator(seg, 0.0, 1.0e-12)
    assert p12 == pytest.approx(1.0e-12, rel=1e-15)
    assert p11 == pytest.approx(1.0 - 1.0e-12, rel=1e-15)
    shallow = segment(0.0, 2.0, -1.0e-6, -1.0e-6)
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


@pytest.mark.parametrize("shape,L,sign,k,J,window_factor", UNITARITY_CASES)
def test_unitarity(shape, L, sign, k, J, window_factor):
    g = build_grid(ModeProfile(shape, L), sign, k, J,
                   window_factor=window_factor or DEFAULT_WINDOW_FACTOR)
    res = solve_scattering(g)
    assert res.unitarity_defect <= 1e-8


def test_seed_scale_invariance():
    g = build_grid(ModeProfile(ModeShape.SECH2, 10.0), +1, 0.1, 200)
    base = solve_scattering(g)
    s = (0.3 - 0.7j) * 10.0 ** 150
    c0, d0, _, _, log = sweep(g, s, 1j * s)
    t = s * 2.0 * math.exp(-log[0]) / (c0 - 1j * d0)
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


def test_recorded_state_indexing():
    g = build_grid(ModeProfile(ModeShape.MESA, 5.0), +1, 0.1, 2)
    _, _, *states = sweep(g, 1.0 + 0.0j, 1.0j)
    assert all(isinstance(v, np.ndarray) for v in states)
    assert [len(v) for v in states] == [len(g.points)] * 3  # one per node
    assert states[2][-1] == 0.0                             # the seed itself


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_recorded_states_one_per_node(name):
    shape, kappaL, k, J, sign = golden.CASES[name]
    table = golden.TABLE if shape is ModeShape.TABULATED else None
    g = build_grid(ModeProfile(shape, kappaL, table=table), sign, k, J)
    _, _, *states = sweep(g, 1.0 + 0.0j, 1.0j)
    assert [len(v) for v in states] == [len(g.points)] * 3
    # the last node holds the seed, the outgoing wave e**ikx unscaled
    phi, dphi, log_scale = (v[-1].item() for v in states)
    x = float(g.points[-1])
    wave = cmath.exp(1j * k * x)
    assert phi == pytest.approx(wave, rel=1e-9)
    assert dphi == pytest.approx(1j * k * wave, rel=1e-9)
    assert log_scale == 0.0
    # there the field is the transmitted wave t e**ikx; where t underflows
    # to 0 (sin+, sin2-) the sample must be 0 as well
    (_, psi), = wavefunction(g, [x])
    want = solve_scattering(g).t * wave
    assert abs(psi - want) <= 1e-13 * abs(want)


# --- wavefunction reconstruction ------------------------------------------

def test_wavefunction_zero_potential_plane_wave():
    p = ModeProfile(ModeShape.TABULATED, 0.0, table=((0.0, 0.0), (2.0, 0.0)))
    g = build_grid(p, +1, 0.4, 5)
    xs = np.linspace(-1.5, 3.5, 41)
    for x, phi in wavefunction(g, xs):
        assert phi == pytest.approx(cmath.exp(1j * 0.4 * x), abs=1e-13)


def test_wavefunction_domain_guard():
    g = build_grid(ModeProfile(ModeShape.MESA, 5.0), +1, 0.1, 2)
    with pytest.raises(ValueError):
        wavefunction(g, [5.0 + 2.0 * 5.0 + 1.0])


def test_wavefunction_evanescent_profile():
    # inside a rectangular barrier the reconstruction must match the
    # closed-form decaying/growing pair seeded by the transmitted wave
    k, L = 0.1, 5.0
    g = build_grid(ModeProfile(ModeShape.MESA, L), +1, k, 2)
    kp = cmath.sqrt(complex(k * k - 1.0))
    t_ex, _ = mesa_closed(k, 0.5, L)
    xs = np.linspace(0.5, 4.5, 17)
    got = wavefunction(g, xs)
    for (x, phi) in got:
        plus = (1.0 + k / kp) * cmath.exp(1j * kp * (x - L))
        minus = (1.0 - k / kp) * cmath.exp(-1j * kp * (x - L))
        want = 0.5 * t_ex * cmath.exp(1j * k * L) * (plus + minus)
        assert phi == pytest.approx(want, rel=1e-9)


def test_wavefunction_continuity_and_turning_points():
    k, L = 0.1, 10.0
    g = build_grid(ModeProfile(ModeShape.SECH2, L), +1, k, 200)
    _, _, phis, dphis, logs = sweep(g, 1.0 + 0.0j, 1.0j)

    def phi_from_segment(idx: int, x: float) -> complex:
        # segment idx carries the state of its right end, the last node
        # for the right free region; 0 and len(points) are the free
        # regions, whose propagators are the rotations of z = k^2
        node = min(idx, len(g.points) - 1)
        phi, dphi, log_scale = phis[node], dphis[node], logs[node]
        x_node = float(g.points[node])
        if 0 < idx < len(g.points):
            p11, p12, _, _, log_factor = propagator(g.arrays, x_node, x, idx - 1)
        else:
            p11, p12, _, _, log_factor = transfer._flat_propagator(
                g.k * g.k, x - x_node)
        return (p11 * phi + p12 * dphi) * math.exp(
            log_factor + log_scale - logs[0])

    # both representations of phi at each join, before normalization
    peak = max(abs(phi_from_segment(i, float(x)))
               for i, x in enumerate(g.points, start=1))
    for i, x in enumerate(g.points):
        a = phi_from_segment(i, float(x))       # segment ending at x
        b = phi_from_segment(i + 1, float(x))   # segment starting at x
        assert abs(a - b) <= 1e-9 * peak

    for tp in g.turning_points:
        (_, phi), = wavefunction(g, [tp])
        assert math.isfinite(phi.real) and math.isfinite(phi.imag)
