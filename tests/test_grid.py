"""Mode profiles, turning-point location, and grid construction."""

import math
import warnings

import numpy as np
import pytest

from mazersim.grid import (
    _split_residual_crossings,
    DEFAULT_WINDOW_FACTOR,
    LENGTH_MIN,
    Grid,
    GridResolutionError,
    ModeProfile,
    ModeShape,
    abs_area,
    build_grid,
    eval_mode,
    eval_mode_array,
    find_turning_points,
    interp_abs_area,
    load_tabulated,
    signed_area,
)
import mazersim.grid as grid_module
from mazersim.mazer import MazerParams, event_probabilities
from mazersim.segment_basis import Regime, W_FLAT_COLLAPSE, build_segments
from mazersim.transfer import solve_scattering, sweep, wavefunction

import test_grid_golden as golden

# alpha for the repulsive sech2 branch at k/kappa=0.1, J=200, default window,
# recorded once from this implementation and pinned against drift
SECH2_ALPHA_J200 = 1.0000010388867093


def code_of(*regimes: Regime) -> list[int]:
    """The ``SegmentArrays.code`` values of ``regimes``."""
    return [list(Regime).index(r) for r in regimes]


def segment_sign_ok(arrays) -> np.ndarray:
    """Per entry: tag and sign of z at the segment midpoint agree."""
    zm = arrays.z_ref + arrays.b * (0.5 * (arrays.x_lo + arrays.x_hi)
                                    - arrays.x_lo)
    allowed = np.isin(arrays.code, code_of(Regime.FLAT_ALLOWED,
                                           Regime.SLOPE_ALLOWED))
    forbidden = np.isin(arrays.code, code_of(Regime.FLAT_FORBIDDEN,
                                             Regime.SLOPE_FORBIDDEN))
    return np.where(allowed, zm > 0.0,
                    np.where(forbidden, zm < 0.0, zm == 0.0))


# --- mode evaluation ------------------------------------------------------

def test_mode_peaks_and_zeros():
    L = 7.0
    sin1 = ModeProfile(ModeShape.SIN_FUNDAMENTAL, L)
    assert eval_mode(sin1, L / 2.0) == 1.0
    assert eval_mode(sin1, -0.5) == 0.0
    assert eval_mode(sin1, L + 0.5) == 0.0

    sin2 = ModeProfile(ModeShape.SIN_FIRST_EXCITED, L)
    assert eval_mode(sin2, 0.75 * L) == -1.0
    assert eval_mode(sin2, 0.25 * L) == 1.0

    mesa = ModeProfile(ModeShape.MESA, L)
    assert eval_mode(mesa, 0.0) == 1.0
    assert eval_mode(mesa, L) == 1.0
    assert eval_mode(mesa, L + 1e-9) == 0.0

    gauss = ModeProfile(ModeShape.GAUSSIAN, L)
    assert eval_mode(gauss, 0.0) == 1.0
    x_half = gauss.sigma * math.sqrt(2.0 * math.log(2.0))
    assert eval_mode(gauss, x_half) == pytest.approx(0.5, rel=1e-14)

    sech = ModeProfile(ModeShape.SECH2, L)
    assert eval_mode(sech, 0.0) == 1.0
    assert eval_mode(sech, L) == pytest.approx(1.0 / math.cosh(1.0) ** 2, rel=1e-14)


def test_mode_values_bounded():
    rng = np.random.default_rng(20260817)
    xs = rng.uniform(-30.0, 30.0, size=400)
    for shape in ModeShape:
        if shape is ModeShape.TABULATED:
            profile = ModeProfile(shape, 0.0, table=((-1.0, -0.3), (2.0, 1.0)))
        else:
            profile = ModeProfile(shape, 3.0)
        vals = eval_mode_array(profile, xs)
        assert np.all(np.abs(vals) <= 1.0)
        # scalar and vector paths agree
        for x in xs[:25]:
            assert eval_mode(profile, float(x)) == pytest.approx(
                float(vals[list(xs).index(x)]), abs=1e-15)


def test_gaussian_sigma_locked_to_length():
    p = ModeProfile(ModeShape.GAUSSIAN, 12.5)
    assert p.sigma == math.sqrt(2.0 / math.pi) * 12.5
    with pytest.raises(ValueError):
        _ = ModeProfile(ModeShape.SECH2, 1.0).sigma


def test_tabulated_validation():
    with pytest.raises(ValueError):
        ModeProfile(ModeShape.TABULATED, 0.0, table=((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        ModeProfile(ModeShape.TABULATED, 0.0, table=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        ModeProfile(ModeShape.TABULATED, 0.0, table=((0.0, 0.0), (1.0, 1.5)))
    with pytest.raises(ValueError):
        ModeProfile(ModeShape.TABULATED, 0.0, table=((0.0, 0.0),))
    nan, inf = math.nan, math.inf
    for table in (((0.0, 0.0), (1.0, nan), (2.0, 0.0)),     # NaN u
                  ((0.0, 0.0), (nan, 0.5), (2.0, 0.0)),     # NaN x
                  ((0.0, 0.0), (1.0, 0.5), (inf, 0.0))):    # inf x
        with pytest.raises(ValueError, match="must be finite"):
            ModeProfile(ModeShape.TABULATED, 0.0, table=table)
    # the length checks apply to the span the table gives
    with pytest.raises(ValueError, match="below LENGTH_MIN"):
        ModeProfile(ModeShape.TABULATED, 0.0, table=((0.0, 0.0), (1e-101, 0.5)))
    with pytest.raises(ValueError, match="invalid length inf"):
        ModeProfile(ModeShape.TABULATED, 0.0, table=((-1e308, 0.0), (1e308, 0.5)))
    p = ModeProfile(ModeShape.TABULATED, 0.0,
                    table=((0.0, 0.0), (1.0, 1.0), (3.0, -1.0)))
    assert p.length == 3.0
    assert eval_mode(p, 0.5) == 0.5
    assert eval_mode(p, 2.0) == 0.0
    assert eval_mode(p, -1.0) == 0.0
    assert eval_mode(p, 9.0) == 0.0


def test_load_tabulated(tmp_path):
    f = tmp_path / "mode.txt"
    f.write_text(
        "# cavity mode samples\n"
        "0.0  0.0\n"
        "\n"
        "1.0  0.8   # peak region\n"
        "2.0  0.0\n")
    p = load_tabulated(str(f))
    assert p.shape is ModeShape.TABULATED
    assert p.table == ((0.0, 0.0), (1.0, 0.8), (2.0, 0.0))

    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 0.0\n1.0\n")
    with pytest.raises(ValueError):
        load_tabulated(str(bad))
    bad.write_text("0.0 zero\n1.0 1.0\n")
    with pytest.raises(ValueError):
        load_tabulated(str(bad))
    bad.write_text("1.0 0.0\n0.0 1.0\n")
    with pytest.raises(ValueError):
        load_tabulated(str(bad))
    bad.write_text("0.0 0.0\n1.0 nan\n2.0 0.0\n")
    with pytest.raises(ValueError, match="must be finite"):
        load_tabulated(str(bad))


def test_exact_areas_against_quadrature():
    from scipy.integrate import quad
    # the table spans [-1, 3], so the intervals clip it as they clip the
    # mesa and the sines on [0, 4]
    table = ModeProfile(ModeShape.TABULATED, 0.0, table=(
        (-1.0, 0.0), (0.5, 1.0), (2.0, -0.5), (3.0, 0.25)))
    for p in [ModeProfile(shape, 4.0) for shape in (
            ModeShape.MESA, ModeShape.SECH2, ModeShape.GAUSSIAN,
            ModeShape.SIN_FUNDAMENTAL, ModeShape.SIN_FIRST_EXCITED)] + [table]:
        for a, b in [(-3.0, 5.0), (0.5, 3.5), (-20.0, 20.0)]:
            kinks = [x for x in (-1.0, 0.0, 0.5, 2.0, 3.0, 4.0) if a < x < b]
            want, _ = quad(lambda x: eval_mode(p, x), a, b,
                           limit=400, points=kinks)
            assert signed_area(p, a, b) == pytest.approx(want, abs=1e-10)
            want_abs, _ = quad(lambda x: abs(eval_mode(p, x)), a, b,
                               limit=400, points=kinks)
            assert abs_area(p, a, b) == pytest.approx(want_abs, abs=1e-9)


ANALYTIC_SHAPES = [shape for shape in ModeShape if shape is not ModeShape.TABULATED]


@pytest.mark.parametrize("shape", ANALYTIC_SHAPES)
def test_zero_length_mode_vanishes(shape):
    # at length 0 every shape is zero everywhere, but for the mesa at its
    # one point x = 0, with no area and no warning
    p = ModeProfile(shape, 0.0)
    xs = [-1.0, -1e-300, 0.0, 1e-300, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        us = eval_mode_array(p, np.array(xs)).tolist()
    assert us == [eval_mode(p, x) for x in xs]
    assert us == [float(shape is ModeShape.MESA and x == 0.0) for x in xs]
    for a, b in [(-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0)]:
        assert signed_area(p, a, b) == 0.0
        assert abs_area(p, a, b) == 0.0


@pytest.mark.parametrize("shape", ANALYTIC_SHAPES)
def test_lengths_below_the_floor_refused(shape):
    assert ModeProfile(shape, LENGTH_MIN).length == LENGTH_MIN
    assert ModeProfile(shape, 0.0).length == 0.0
    with pytest.raises(ValueError, match="below LENGTH_MIN = 1e-100"):
        ModeProfile(shape, math.nextafter(LENGTH_MIN, 0.0))


def test_interp_abs_area_sign_change_exact():
    # interpolant crosses zero inside the interval: two triangles, not a
    # trapezoid of absolute values
    xs = np.array([0.0, 1.0])
    us = np.array([-1.0, 3.0])
    # crossing at x=0.25: area = 0.25*1/2 + 0.75*3/2
    assert interp_abs_area(xs, us) == pytest.approx(0.125 + 1.125, rel=1e-15)


def test_interp_abs_area_zero_endpoints():
    # u0 = u1 = 0, one zero endpoint, a crossing, one zero endpoint; no
    # interval may compute 0/0
    xs = np.array([0.0, 1.0, 3.0, 4.0, 6.0])
    us = np.array([0.0, 0.0, 2.0, -2.0, 0.0])
    with np.errstate(all="raise"):
        assert interp_abs_area(xs, us) == 0.0 + 2.0 + 1.0 + 2.0
        assert interp_abs_area(xs[:2], us[:2]) == 0.0


# --- turning points -------------------------------------------------------

def test_turning_points_mesa_empty():
    p = ModeProfile(ModeShape.MESA, 5.0)
    assert find_turning_points(p, +1, 0.005, (0.0, 5.0)) == []


def test_turning_points_attractive_branch_empty():
    p = ModeProfile(ModeShape.SECH2, 10.0)
    assert find_turning_points(p, -1, 0.005, (-80.0, 80.0)) == []


def test_turning_points_on_scan_points():
    # scan points 0, 1, ..., 15; u*0.5 == E exactly at x = 0, 7 and 15 and
    # nowhere else on the scan, so the roots come from exact zeros only
    p = ModeProfile(ModeShape.TABULATED, 0.0, table=(
        (0.0, 0.5), (3.5, 1.0), (7.0, 0.5), (11.0, 0.0), (15.0, 0.5)))
    roots = find_turning_points(p, +1, 0.25, (0.0, 15.0), scan_points=16)
    assert roots == [0.0, 7.0, 15.0]


def test_turning_points_require_positive_energy():
    p = ModeProfile(ModeShape.SECH2, 10.0)
    with pytest.raises(ValueError):
        find_turning_points(p, +1, 0.0, (-80.0, 80.0))


def test_sech2_turning_points_closed_form():
    # u = sech^2(x/L) crosses 2E at x = +-L*arcsech(sqrt(2E))
    L, k = 10.0, 0.1
    E = 0.5 * k * k
    p = ModeProfile(ModeShape.SECH2, L)
    roots = find_turning_points(p, +1, E, (-8 * L, 8 * L))
    want = L * math.acosh(1.0 / math.sqrt(2.0 * E))
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-want, abs=1e-10)
    assert roots[1] == pytest.approx(+want, abs=1e-10)


def test_first_excited_turning_points_closed_form():
    # attractive branch: z = k^2 + alpha*sin(2 pi x / L) vanishes where
    # sin = -k^2/alpha, i.e. at L/2 + d and L - d with
    # d = (L / 2 pi) * arcsin(k^2 / alpha)
    L, k = 1.0e5, 0.1
    g = build_grid(ModeProfile(ModeShape.SIN_FIRST_EXCITED, L), -1, k, 200)
    d = (L / (2.0 * math.pi)) * math.asin(k * k / g.alpha)
    assert len(g.turning_points) == 2
    assert g.turning_points[0] == pytest.approx(L / 2.0 + d, abs=1e-7)
    assert g.turning_points[1] == pytest.approx(L - d, abs=1e-7)


# --- grid construction ----------------------------------------------------

def test_build_grid_input_errors():
    p = ModeProfile(ModeShape.SECH2, 10.0)
    with pytest.raises(ValueError):
        build_grid(p, +1, 0.1, 1)
    with pytest.raises(ValueError):
        build_grid(p, 0, 0.1, 50)
    with pytest.raises(ValueError):
        build_grid(p, +1, 0.0, 50)
    with pytest.raises(ValueError, match="empty window"):
        build_grid(p, +1, 0.1, 50, window_factor=0.0)
    # a window too wide for a float is refused before any node is placed
    for window_factor in (math.inf, 1.0e308):
        with pytest.raises(ValueError, match="not finite"):
            build_grid(p, +1, 0.1, 50, window_factor=window_factor)
    for shape in (ModeShape.SECH2, ModeShape.MESA):
        with pytest.raises(ValueError, match="must be an integer"):
            build_grid(ModeProfile(shape, 10.0), +1, 0.1, 50.5)
    assert np.array_equal(build_grid(p, +1, 0.1, np.int64(50)).points,
                          build_grid(p, +1, 0.1, 50).points)


def test_zero_potential_single_free_regime():
    p = ModeProfile(ModeShape.TABULATED, 0.0,
                    table=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
    g = build_grid(p, +1, 0.1, 5)
    assert g.alpha == 1.0
    assert g.turning_points == ()
    assert np.all(g.arrays.code == code_of(Regime.FLAT_ALLOWED))
    assert np.all(g.z == g.k * g.k)


def test_linear_tabulated_alpha_exactly_one():
    p = ModeProfile(ModeShape.TABULATED, 0.0, table=((0.0, 0.0), (4.0, 0.8)))
    for J in (2, 7, 33):
        g = build_grid(p, +1, 0.5, J)
        assert abs(g.alpha - 1.0) <= 1e-13


def test_mesa_grid_is_single_flat_segment():
    p = ModeProfile(ModeShape.MESA, 5.0)
    g = build_grid(p, +1, 0.1, 50)
    top = g.arrays
    assert top.code.tolist() == code_of(Regime.FLAT_FORBIDDEN)
    assert top.x_lo[0] == 0.0 and top.x_hi[0] == 5.0
    assert top.z_flat[0] == pytest.approx(0.1 ** 2 - 1.0, rel=1e-15)
    # attractive branch: the well is classically allowed
    g2 = build_grid(p, -1, 0.1, 50)
    assert g2.arrays.code.tolist() == code_of(Regime.FLAT_ALLOWED)
    assert g2.arrays.z_flat[0] == pytest.approx(0.1 ** 2 + 1.0, rel=1e-15)


def test_asymptotic_segments_free_and_absolute():
    g = build_grid(ModeProfile(ModeShape.SECH2, 10.0), +1, 0.1, 100)
    first, last = g.segments[0], g.segments[-1]
    for seg in (first, last):
        assert seg.regime is Regime.FLAT_ALLOWED
        assert seg.z_ref == g.k * g.k
        assert seg.b == 0.0
        assert seg.x_ref == 0.0     # asymptotic basis anchored at the origin
    assert first.x_lo == -math.inf and first.x_hi == g.points[0]
    assert last.x_lo == g.points[-1] and last.x_hi == math.inf


def test_default_window_sixteen_lengths():
    g = build_grid(ModeProfile(ModeShape.SECH2, 10.0), +1, 0.1, 50)
    assert g.window == (-80.0, 80.0)
    g = build_grid(ModeProfile(ModeShape.SIN_FUNDAMENTAL, 10.0), +1, 0.1, 50)
    assert g.window == (0.0, 10.0)


def test_sech2_alpha_golden_value():
    g = build_grid(ModeProfile(ModeShape.SECH2, 10.0), +1, 0.1, 200)
    assert g.alpha > 1.0
    assert g.alpha == pytest.approx(SECH2_ALPHA_J200, rel=1e-12)
    g800 = build_grid(ModeProfile(ModeShape.SECH2, 10.0), +1, 0.1, 800)
    assert abs(g800.alpha - 1.0) < abs(g.alpha - 1.0)


# --- grid invariants ------------------------------------------------------

GRID_CASES = [
    (ModeShape.SECH2, 10.0, +1, 0.1, 200, None),
    (ModeShape.SECH2, 10.0, -1, 0.1, 200, None),
    (ModeShape.GAUSSIAN, 10.0, +1, 0.1, 300, None),
    (ModeShape.SIN_FUNDAMENTAL, 1.0e5, +1, 0.01, 100, None),
    (ModeShape.SIN_FIRST_EXCITED, 1.0e5, -1, 0.1, 200, None),
    (ModeShape.SECH2, 10.0, +1, 0.01, 137, 10.0),
]


@pytest.mark.parametrize("shape,L,sign,k,J,window_factor", GRID_CASES)
def test_grid_invariants(shape, L, sign, k, J, window_factor):
    p = ModeProfile(shape, L)
    g = build_grid(p, sign, k, J, window_factor=window_factor or DEFAULT_WINDOW_FACTOR)

    # nodes strictly increasing; turning points are nodes
    assert np.all(np.diff(g.points) > 0.0)
    for r in g.turning_points:
        assert np.min(np.abs(g.points - r)) <= 1e-12

    # z at a turning node is snapped to exactly 0
    for r in g.turning_points:
        i = int(np.argmin(np.abs(g.points - r)))
        assert g.z[i] == 0.0

    # no segment straddles a sign change
    a = g.arrays
    assert np.all(segment_sign_ok(a))

    # the segments tile the window
    assert a.x_lo[0] == g.points[0]
    assert a.x_hi[-1] == g.points[-1]
    assert np.array_equal(a.x_hi[:-1], a.x_lo[1:])

    # renormalization: alpha * (interpolant area of samples) == exact area
    area = abs_area(p, *g.window)
    if area > 0.0:
        u_nodes = eval_mode_array(p, g.points)
        got = g.alpha * interp_abs_area(g.points, u_nodes)
        assert abs(got - area) <= 1e-12 * area

    # every sloped segment is evaluable: argument cap respected at both
    # ends, w = (2 / 3|b|) |z|^{3/2}
    sloped = np.isin(a.code, code_of(Regime.SLOPE_ALLOWED,
                                     Regime.SLOPE_FORBIDDEN))
    for z in (a.z_ref, a.z_ref + a.b * (a.x_hi - a.x_lo)):
        t = np.abs(z[sloped])
        w = 2.0 * t * np.sqrt(t) / (3.0 * np.abs(a.b[sloped]))
        assert np.all(w <= W_FLAT_COLLAPSE)


def test_gaussian_tail_segments_demoted_to_flat():
    g = build_grid(ModeProfile(ModeShape.GAUSSIAN, 10.0), +1, 0.1, 300)
    a = g.arrays
    demoted = (a.b != 0.0) & (a.code == code_of(Regime.FLAT_ALLOWED))
    assert np.count_nonzero(demoted) > 0
    # demotion only fires where the leftover potential is negligible
    for z_flat in a.z_flat[demoted].tolist():
        assert z_flat == pytest.approx(g.k ** 2, rel=1e-6)


def test_refinement_nesting_and_quadratic_convergence():
    # doubling the resolution (2J-1 keeps nodes nested) changes the sampled
    # coefficient z by O(1/J^2) for smooth profiles
    for shape in (ModeShape.SECH2, ModeShape.GAUSSIAN):
        p = ModeProfile(shape, 10.0)
        Js = [50, 100, 200, 400]
        diffs = []
        for J in Js:
            gc = build_grid(p, -1, 0.1, J)
            gf = build_grid(p, -1, 0.1, 2 * J - 1)
            assert np.allclose(gc.points, gf.points[::2], rtol=0.0, atol=1e-12)
            coarse_on_fine = np.interp(gf.points, gc.points, gc.z)
            diffs.append(float(np.max(np.abs(coarse_on_fine - gf.z))))
        slope = -float(np.polyfit(np.log(Js), np.log(diffs), 1)[0])
        assert 1.7 <= slope <= 2.3


def test_alpha_monotone_decrease():
    Js = [50, 100, 200, 400, 800]
    # attractive branch: no turning-point insertions, pure quadrature factor
    devs = [abs(build_grid(ModeProfile(ModeShape.SECH2, 10.0), -1, 0.1, J).alpha - 1.0)
            for J in Js]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    # the Gaussian needs a window whose edges still carry curvature; on the
    # default window its trapezoid is already exact to double precision
    devs = [abs(build_grid(ModeProfile(ModeShape.GAUSSIAN, 10.0), -1, 0.1, J,
                           window_factor=8.0).alpha - 1.0)
            for J in Js]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    g = build_grid(ModeProfile(ModeShape.GAUSSIAN, 10.0), -1, 0.1, 400)
    assert abs(g.alpha - 1.0) <= 1e-14


def test_grid_arrays_immutable():
    g = build_grid(ModeProfile(ModeShape.SECH2, 10.0), +1, 0.1, 50)
    with pytest.raises(ValueError):
        g.points[0] = 0.0
    with pytest.raises(ValueError):
        g.z[0] = 0.0


def test_split_residual_crossings_inserts_linear_zero():
    nodes = np.array([0.0, 1.0, 2.0, 3.0])
    z = np.array([1.0, 0.5, -1.5, 0.0])
    u = 1.0 - z        # z = k^2 - alpha*u with k^2 = alpha = 1: z = 0 at u = 1
    # the crossing at x = 1 + 0.5/2 becomes a node carrying u = 1; the zero
    # endpoint at x = 3 is already a node and adds nothing
    new_nodes, new_z, new_u, inserted = _split_residual_crossings(nodes, z, u, 1.0)
    assert new_nodes.tolist() == [0.0, 1.0, 1.25, 2.0, 3.0]
    assert new_z.tolist() == [1.0, 0.5, 0.0, -1.5, 0.0]
    assert new_u.tolist() == [0.0, 0.5, 1.0, 2.5, 1.0]
    assert inserted == [1.25]


def test_unresolvable_mode_raises_typed_error():
    # at J = 2 both nodes of the sine's window sit on zeros of the mode
    with pytest.raises(GridResolutionError, match="J = 2"):
        build_grid(ModeProfile(ModeShape.SIN_FUNDAMENTAL, 10.0), +1, 0.1, 2)


def test_unsettled_alpha_without_a_root_stays_typed():
    # gauss J = 2: alpha runs off towards 1e16 and the area defect has no
    # root that Brent's method settles on, so the build keeps its error
    with pytest.raises(GridResolutionError, match="area renormalization off"):
        build_grid(ModeProfile(ModeShape.GAUSSIAN, 1.0), +1, 1.0, 2)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_segments_match_make_segment(name):
    # one classifier: every segment of a grid is exactly the segment that
    # build_segments makes of the grid's own two nodes at its ends,
    # demoted tail segments included
    shape, kappaL, k, J, sign = golden.CASES[name]
    table = golden.TABLE if shape is ModeShape.TABULATED else None
    g = build_grid(ModeProfile(shape, kappaL, table=table), sign, k, J)
    x, z = g.points.tolist(), g.z.tolist()
    rows = list(zip(*g.arrays))
    for i, row in enumerate(rows):
        (alone,) = zip(*build_segments(x[i:i + 2], z[i:i + 2]))
        assert alone == row, (name, i)
    assert len(rows) == len(x) - 1


def test_high_energy_grid_passes_area_check():
    # at k = 1e4 (k^2 = 1e8) rebuilding u as (k^2 - z)/alpha kept only ~8
    # digits; the check now reads the mode samples themselves
    p = MazerParams.for_shape(ModeShape.GAUSSIAN, 1.0e4, 10.0, 200)
    ev = event_probabilities(p)
    assert ev.closure_defect <= 1e-8
    # eikonal limit: P_em = sin^2(A / 2k) with the mode area A = 20
    eikonal = math.sin(1.0e-3) ** 2
    assert ev.P_em == pytest.approx(eikonal, rel=1e-6)


@pytest.mark.parametrize("shape,k,kappaL,J", [
    (ModeShape.GAUSSIAN, 0.3602, 4.143394380809843e-06, 375),
    (ModeShape.SIN_FUNDAMENTAL, 0.0552, 6.953018434360892e-05, 263),
])
def test_tiny_window_builds(shape, k, kappaL, J):
    # length tolerances scale with min(1, window width), so windows of
    # 1e-4 and below keep their turning points resolved; both branches
    # build and the row closes
    ev = event_probabilities(MazerParams.for_shape(shape, k, kappaL, J))
    assert ev.closure_defect <= 1e-8


@pytest.mark.parametrize("k", [math.inf, 1.0e300, 1.0e-300])
@pytest.mark.parametrize("shape", [ModeShape.MESA, ModeShape.SECH2])
def test_build_grid_rejects_momentum_outside_float_range(shape, k):
    # k exceeds K_OVER_KAPPA_MAX, or k^2 underflows to 0 and the outer
    # segments would lose their plane waves
    with pytest.raises(ValueError, match="k_over_kappa"):
        build_grid(ModeProfile(shape, 5.0), +1, k, 50)


# --- one scan and one memoised bisection per build ------------------------

def _build_or_error(profile, sign, k, J):
    try:
        return build_grid(profile, sign, k, J)
    except GridResolutionError as exc:
        return exc


def _random_profile(rng, shape, kappaL):
    if shape is not ModeShape.TABULATED:
        return ModeProfile(shape, kappaL)
    n = int(rng.integers(3, 30))
    xs = np.sort(rng.uniform(0.0, kappaL, n))
    us = rng.uniform(-1.0, 1.0, n)
    table = tuple(zip(np.unique(xs).tolist(), us.tolist()))
    return ModeProfile(shape, 0.0, table=table)


def test_warm_build_equals_cold_build(monkeypatch):
    # every alpha pass of a build reads the mode from one scan and one
    # midpoint memo; a build whose passes each start from nothing, as
    # find_turning_points does when called on its own, gives the same grid
    warm_find = grid_module.find_turning_points

    def cold_find(*args, samples=None, **kwargs):
        return warm_find(*args, **kwargs)

    rng = np.random.default_rng(20261018)
    shapes = [ModeShape.SIN_FUNDAMENTAL, ModeShape.SIN_FIRST_EXCITED,
              ModeShape.SECH2, ModeShape.GAUSSIAN, ModeShape.TABULATED]
    built = 0
    for draw in range(100):
        shape = shapes[draw % len(shapes)]
        kappaL = float(10.0 ** rng.uniform(-1.0, 5.0))
        profile = _random_profile(rng, shape, kappaL)
        k = float(10.0 ** rng.uniform(-2.5, 0.3))
        J = int(rng.integers(3, 401))
        sign = int(rng.choice([1, -1]))
        warm = _build_or_error(profile, sign, k, J)
        with monkeypatch.context() as m:
            m.setattr(grid_module, "find_turning_points", cold_find)
            cold = _build_or_error(profile, sign, k, J)
        case = (shape, kappaL, k, J, sign)
        if isinstance(warm, Exception):
            assert str(warm) == str(cold), case
            continue
        built += 1
        assert np.array_equal(warm.points, cold.points), case
        assert np.array_equal(warm.z, cold.z), case
        assert warm.alpha == cold.alpha, case
        assert warm.turning_points == cold.turning_points, case
        for a, b in zip(warm.arrays, cold.arrays):
            assert a.dtype == b.dtype and np.array_equal(a, b), case
    assert built >= 90


@pytest.mark.parametrize("shape,k,kappaL,J,evals,passes", [
    # scalar eval_mode and find_turning_points calls of the barrier build
    # when every pass rescanned and re-bisected from scratch
    (ModeShape.SIN_FUNDAMENTAL, 0.01, 1.0e5 + 5.0, 100, 264, 3),
    (ModeShape.GAUSSIAN, 0.1, 10.0, 300, 288, 4),
])
def test_build_halves_scalar_mode_evaluations(monkeypatch, shape, k, kappaL, J,
                                              evals, passes):
    calls = {"eval_mode": 0, "find_turning_points": 0}

    def counted(name):
        fn = getattr(grid_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(grid_module, name, counted(name))
    build_grid(ModeProfile(shape, kappaL), +1, k, J)
    assert 0 < calls["eval_mode"] <= evals // 2
    assert 0 < calls["find_turning_points"] <= passes


@pytest.mark.parametrize("shape,k,kappaL,J,sign", [
    (ModeShape.SIN_FUNDAMENTAL, 0.01, 1.0e5 + 5.0, 100, +1),
    (ModeShape.GAUSSIAN, 0.1, 10.0, 300, +1),
    (ModeShape.SECH2, 0.3, 4.0, 120, -1),
    (ModeShape.MESA, 0.5, 3.0, 2, +1),
])
def test_segments_built_on_demand(shape, k, kappaL, J, sign):
    profile = ModeProfile(shape, kappaL)
    g = build_grid(profile, sign, k, J)
    read_first = build_grid(profile, sign, k, J)
    z_free = g.k * g.k
    # a read builds the records; the sweep makes none
    assert read_first.segments == read_first.arrays.records(z_free)
    assert "segments" not in vars(g)
    solved = solve_scattering(g)
    recorded = sweep(g, 1.0 + 0.0j, 1.0j)
    sampled = wavefunction(g, g.points)
    assert "segments" not in vars(g)
    assert solve_scattering(read_first) == solved
    assert sweep(read_first, 1.0 + 0.0j, 1.0j) == recorded
    assert wavefunction(read_first, read_first.points) == sampled
    assert g.segments is g.segments
