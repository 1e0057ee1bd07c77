"""Cavity mode profiles and the piecewise-linear segmentation of V(x).

Everything is dimensionless: hbar = m = 1 and lengths are measured in the
inverse coupling wavenumber, so the atom's energy is E = (k_over_kappa)^2/2,
the dressed potentials are V = +-alpha*u(x)/2, and the cavity extent is the
single number ``length`` (the interaction length), zero or between
``LENGTH_MIN`` and ``LENGTH_MAX``.

The solver downstream treats the potential as linear between grid nodes.
Two refinements keep that approximation honest:

* every solution of alpha*V(x) = E becomes a grid node, so no segment mixes
  classically allowed and forbidden character;
* the sampled potential is rescaled by alpha so its trapezoid area equals
  the exact area of the mode, which removes the leading quadrature bias of
  the linear interpolation.

The turning points move with alpha and alpha with the nodes, so the builder
iterates to a fixed point, one :func:`find_turning_points` call and one
merge of its roots into the uniform nodes per pass.
The mode depends neither on alpha nor on the branch or k: the two branch
builds of a row share one sampling of it (the last build's, held in a
one-entry memo keyed by the profile object, the window and J), namely the
uniform nodes and the mode there, the exact area with the first alpha,
and the turning-point scan with every bisection midpoint evaluated so far.
So a pass forms alpha*V - E from that scan and reuses the midpoints of the
passes and the branch before it, with the roots a fresh pass would find.
The shared arrays are read-only.  A pass that finds the
previous pass's roots, or leaves alpha unchanged, ends the iteration,
since the next pass would repeat it.  On a coarse grid the passes can run
out with alpha still moving in its 7th or 8th digit; if that grid then
fails its area check, the builder takes instead the alpha whose own roots
give the exact area, by Brent's method on a bracket of the area defect.

The grid is the nodes and their coefficients z = k^2 - 2*alpha*V.
:func:`segment_basis.build_segments` slopes, classifies, demotes and
anchors every segment between them in one array pass, the first time
``Grid.arrays`` is read; a sweep over several grids classifies all their
segments in one such pass instead.  ``Grid.segments``, a tuple of records
framed by the two outer free segments, is built the first time it is
read; no solve reads it.  The mesa skips the iteration: its grid is the
two edges of its support, with z = k^2 -+ 1 at both.
Length tolerances (root bisection, root stability, turning-node merging)
scale with min(1, window width), so tiny cavities keep their resolution.
"""

from __future__ import annotations

import bisect
import enum
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .segment_basis import Segment, SegmentArrays, build_segments

__all__ = [
    "ModeShape",
    "ModeProfile",
    "Grid",
    "GridResolutionError",
    "DEFAULT_WINDOW_FACTOR",
    "LENGTH_MIN",
    "LENGTH_MAX",
    "PHASE_MAX",
    "TURNING_MERGE_TOL",
    "eval_mode",
    "eval_mode_array",
    "load_tabulated",
    "signed_area",
    "abs_area",
    "interp_abs_area",
    "find_turning_points",
    "check_k_over_kappa",
    "K_OVER_KAPPA_MAX",
    "check_window_factor",
    "WINDOW_FACTOR_MAX",
    "check_J",
    "J_MAX",
    "build_grid",
]

DEFAULT_WINDOW_FACTOR = 16.0

# the shortest nonzero mode length accepted.  Far below it the builder and
# the bases overflow and underflow: from about 1e-152 the area-defect
# bracket's sign test underflows, from about 1e-155 the turning-point
# series overflows, and at 1e-310 n pi / L is infinite.
LENGTH_MIN = 1.0e-100

# the longest mode length accepted.  From about 1e307 the default window
# of sech2 and the Gaussian, 16 lengths wide, is no longer finite, and
# from about 3e307 the product n pi x of the sines' phase overflows.
LENGTH_MAX = 1.0e300

# the largest phase max(k, 1) * |x| accepted at a window edge.  The free
# regions are the plane waves cos kx and sin kx, and a flat segment's
# wavenumber is at most about max(k, 1), so every phase a solve hands to
# math.cos and math.sin is at most a few times this; they raise an untyped
# error once a phase overflows, from about 1.8e308.  The margin also
# covers wavefunction samples two lengths past the edges.
PHASE_MAX = 1.0e302

# the largest k_over_kappa accepted.  Above about 1e77 the builder's sign
# tests, products of two coefficients z ~ k^2, overflow; from about 1e104
# the transfer tree, whose flat rotation entries span a factor k^2, loses
# unitarity without an error.
K_OVER_KAPPA_MAX = 1.0e75

# the widest window accepted, in mode lengths (sech2 and the Gaussian).
# From about 3e4 lengths the builder overflows, and far beyond it rows
# lost closure without an error (sech2 at k 1e-150 with a factor of 1e200:
# closure defect 1.35).  The factors in use are 8 to 16.
WINDOW_FACTOR_MAX = 1.0e3

# the most uniform nodes accepted.  The build allocates about 144 bytes
# per node before it solves anything (the nodes, the mode there and a
# scan of 8 J points), so J = 1e8 would ask for 14 GB.  The grids in use
# reach J = 6,400.
J_MAX = 10**5

# a turning point closer than this to an existing node replaces the node;
# like every length tolerance of the builder it is scaled by
# min(1, window width), so it never spans a tiny window
TURNING_MERGE_TOL = 1.0e-10

_ALPHA_FIXED_POINT_TOL = 1.0e-14
_MAX_ALPHA_ITER = 8
# steps of the search for a bracket of the area defect, each twice the last
_MAX_BRACKET_STEPS = 16


class GridResolutionError(ValueError):
    """The grid cannot represent the mode: its node samples have zero
    interpolant area while the mode does not, or the renormalized grid
    fails its area self-check."""


class ModeShape(enum.Enum):
    MESA = "mesa"
    SECH2 = "sech2"
    SIN_FUNDAMENTAL = "sin"
    SIN_FIRST_EXCITED = "sin2"
    GAUSSIAN = "gauss"
    TABULATED = "tabulated"


# module-level names for the per-build paths: looking a member up on the
# enum class costs about 0.2 us on CPython 3.11, and hashing one runs
# Python code.  The sinusoidal modes are sin(n pi x / L) on [0, L], with
# n = 1 (_SIN1) or 2 (_SIN2) half waves.
_MESA, _SECH2, _SIN1, _SIN2, _GAUSS, _TABULATED = ModeShape


@dataclass(frozen=True)
class ModeProfile:
    """A normalized cavity mode shape u(x) with |u| <= 1.

    ``length`` is the interaction length: 0, a mode that is zero
    everywhere but for the mesa, or a value from ``LENGTH_MIN`` to
    ``LENGTH_MAX``.  The mesa and the two sinusoidal modes live on
    [0, length]; sech2 and the Gaussian are centered on x = 0 with
    unbounded support that the grid truncates to a finite window.  For
    TABULATED profiles ``table`` holds (x, u) breakpoints and ``length`` is
    the table span; ``table_x`` and ``table_u`` hold its two columns as
    read-only arrays, built once.  They are no fields: ``==``, ``hash``,
    ``repr`` and pickling read the table alone.
    """

    shape: ModeShape
    length: float
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.shape is _TABULATED:
            if self.table is None or len(self.table) < 2:
                raise ValueError("TABULATED profile needs at least two points")
            if not all(math.isfinite(v) for p in self.table for v in p):
                raise ValueError("tabulated points must be finite")
            xs = [p[0] for p in self.table]
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError("tabulated abscissae must be strictly increasing")
            if any(abs(p[1]) > 1.0 for p in self.table):
                raise ValueError("mode values must satisfy |u| <= 1")
            object.__setattr__(self, "length", xs[-1] - xs[0])
            columns = np.array((xs, [p[1] for p in self.table]), dtype=float)
            columns.flags.writeable = False
            object.__setattr__(self, "table_x", columns[0])
            object.__setattr__(self, "table_u", columns[1])
        elif self.table is not None:
            raise ValueError(f"{self.shape.name} does not take a table")
        if not 0.0 <= self.length < math.inf:
            raise ValueError(f"invalid length {self.length}")
        if 0.0 < self.length < LENGTH_MIN:
            raise ValueError(f"length {self.length!r} is below LENGTH_MIN = "
                             f"{LENGTH_MIN:g}; use 0 for no mode")
        if self.length > LENGTH_MAX:
            raise ValueError(f"length {self.length!r} is above LENGTH_MAX = "
                             f"{LENGTH_MAX:g}")

    def __reduce__(self):
        # the table arrays are rebuilt, not pickled
        return type(self), (self.shape, self.length, self.table)

    @property
    def sigma(self) -> float:
        """Gaussian width, tied to the length so the area matches sech2."""
        if self.shape is not _GAUSS:
            raise ValueError("sigma is defined for the Gaussian mode only")
        return math.sqrt(2.0 / math.pi) * self.length

    def default_window(self, window_factor: float = DEFAULT_WINDOW_FACTOR,
                       ) -> tuple[float, float]:
        """Solution window: window_factor * length centered on the peak for
        sech2 and the Gaussian, else the support outside which u is zero,
        [0, length] or the table's span."""
        s = self.shape
        if s is _SECH2 or s is _GAUSS:
            half = 0.5 * window_factor * self.length
            return (-half, half)
        if s is _TABULATED:
            return (self.table[0][0], self.table[-1][0])
        return (0.0, self.length)


def load_tabulated(path: str) -> ModeProfile:
    """Two-column (x, u) text file; '#' starts a comment, blank lines skipped."""
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns")
            try:
                x, u = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not numeric") from exc
            pts.append((x, u))
    return ModeProfile(shape=_TABULATED, length=0.0, table=tuple(pts))


def eval_mode(profile: ModeProfile, x: float) -> float:
    """Mode value u(x); exactly zero outside the support, and everywhere
    for a mode of zero length other than the mesa."""
    return _mode_function(profile)(x)


def _mode_function(profile: ModeProfile) -> Callable[[float], float]:
    """u as a function of x alone: :func:`eval_mode` with the shape
    dispatch and the mode's widths resolved once."""
    L = profile.length
    s = profile.shape
    if L == 0.0 and s is not _MESA:
        return lambda x: 0.0
    if s is _MESA:
        return lambda x: 1.0 if 0.0 <= x <= L else 0.0
    if s is _SECH2:
        def sech2(x: float) -> float:
            t = abs(x) / L
            if t > 350.0:
                return 0.0
            e = math.exp(-t)
            sech = 2.0 * e / (1.0 + e * e)
            return sech * sech
        return sech2
    if s is _SIN1 or s is _SIN2:
        c = (1.0 if s is _SIN1 else 2.0) * math.pi
        return lambda x: math.sin(c * x / L) if 0.0 < x < L else 0.0
    if s is _GAUSS:
        sigma = profile.sigma

        def gauss(x: float) -> float:
            t = x / sigma
            arg = 0.5 * t * t
            return math.exp(-arg) if arg < 745.0 else 0.0
        return gauss
    tx, tu = profile.table_x, profile.table_u
    return lambda x: float(np.interp(x, tx, tu, left=0.0, right=0.0))


def eval_mode_array(profile: ModeProfile, xs: np.ndarray) -> np.ndarray:
    """Vectorized :func:`eval_mode`."""
    L = profile.length
    s = profile.shape
    xs = np.asarray(xs, dtype=float)
    if L == 0.0 and s is not _MESA:
        return np.zeros(xs.shape)
    if s is _MESA:
        return np.where((xs >= 0.0) & (xs <= L), 1.0, 0.0)
    if s is _SECH2:
        t = np.minimum(np.abs(xs) / L, 350.0)
        e = np.exp(-t)
        sech = 2.0 * e / (1.0 + e * e)
        out = sech * sech
        out[np.abs(xs) / L > 350.0] = 0.0
        return out
    if s is _SIN1 or s is _SIN2:
        n = 1.0 if s is _SIN1 else 2.0
        inside = (xs > 0.0) & (xs < L)
        return np.where(inside, np.sin(n * np.pi * xs / L), 0.0)
    if s is _GAUSS:
        t = xs / profile.sigma
        arg = 0.5 * t * t
        return np.where(arg < 745.0, np.exp(-np.minimum(arg, 745.0)), 0.0)
    return np.interp(xs, profile.table_x, profile.table_u, left=0.0, right=0.0)


# --- exact areas ----------------------------------------------------------

def _clip(a: float, b: float, lo: float, hi: float) -> tuple[float, float]:
    return max(a, lo), min(b, hi)


def _table_samples(profile: ModeProfile, a: float, b: float,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of a table inside [a, b] plus the clipped ends, with u
    there; the linear interpolant through them is the tabulated mode."""
    tbl = profile.table
    lo, hi = _clip(a, b, tbl[0][0], tbl[-1][0])
    if hi <= lo:
        return np.empty(0), np.empty(0)
    tx = profile.table_x
    xs = np.concatenate(([lo], tx[(lo < tx) & (tx < hi)], [hi]))
    return xs, eval_mode_array(profile, xs)


def signed_area(profile: ModeProfile, a: float, b: float) -> float:
    """Exact integral of u over [a, b], by closed form."""
    L = profile.length
    s = profile.shape
    if b <= a or L == 0.0:
        return 0.0
    if s is _MESA:
        lo, hi = _clip(a, b, 0.0, L)
        return max(hi - lo, 0.0)
    if s is _SECH2:
        return L * (math.tanh(b / L) - math.tanh(a / L))
    if s is _SIN1 or s is _SIN2:
        n = 1.0 if s is _SIN1 else 2.0
        lo, hi = _clip(a, b, 0.0, L)
        if hi <= lo:
            return 0.0
        c = n * math.pi / L
        return (math.cos(c * lo) - math.cos(c * hi)) / c
    if s is _GAUSS:
        sg = profile.sigma
        rt2 = math.sqrt(2.0)
        return sg * math.sqrt(math.pi / 2.0) * (
            math.erf(b / (sg * rt2)) - math.erf(a / (sg * rt2)))
    # tabulated: trapezoid over the table restricted to [a, b] is exact
    xs, us = _table_samples(profile, a, b)
    return math.fsum((0.5 * (us[:-1] + us[1:]) * np.diff(xs)).tolist())


def abs_area(profile: ModeProfile, a: float, b: float) -> float:
    """Exact integral of |u| over [a, b].

    Identical to :func:`signed_area` for the single-signed modes; the first
    excited sinusoid and sign-changing tables are split at their zero
    crossings first.
    """
    s = profile.shape
    if s is _SIN2:
        half = 0.5 * profile.length
        return (abs(signed_area(profile, a, min(b, half)))
                + abs(signed_area(profile, max(a, half), b)))
    if s is _TABULATED:
        return interp_abs_area(*_table_samples(profile, a, b))
    return abs(signed_area(profile, a, b))


def interp_abs_area(xs: np.ndarray, us: np.ndarray) -> float:
    """Exact integral of |linear interpolant of the samples|.

    Not the trapezoid rule on |u_i|: an interval whose endpoints differ in
    sign contributes the two-triangle area h*(u0^2+u1^2)/(2(|u0|+|u1|)).
    """
    a = np.abs(us)
    u0, u1 = a[:-1], a[1:]
    h = xs[1:] - xs[:-1]
    area = 0.5 * h * (u0 + u1)
    # an interval whose ends differ in sign is two triangles, u0 + u1 > 0
    cross = np.flatnonzero(us[:-1] * us[1:] < 0.0)
    if cross.size:
        u0, u1, h = u0[cross], u1[cross], h[cross]
        area[cross] = 0.5 * h * (u0 * u0 + u1 * u1) / (u0 + u1)
    # fsum reads a list faster than numpy scalars, and rounds the same
    return math.fsum(area.tolist())


# --- turning points -------------------------------------------------------

def _scan(profile: ModeProfile, window, scan_points: int) -> tuple:
    """A uniform scan of at least 16 points, u there, no midpoints yet."""
    xs = np.linspace(window[0], window[1], max(int(scan_points), 16))
    return xs, eval_mode_array(profile, xs), {}


class _Sampling:
    """What a build reads of the mode, none of it dependent on alpha, the
    branch or k: the J uniform nodes and u there, the exact |u| area of
    the window, the alpha of the uniform nodes, the turning-point scan
    (``scan_x``, ``scan_u``) and u at every bisection midpoint evaluated
    so far (``midpoints``, x -> u(x)).  The arrays are read-only."""

    __slots__ = ("uniform", "u_uniform", "area_exact", "alpha",
                 "scan_x", "scan_u", "midpoints")

    def __init__(self, profile: ModeProfile, window: tuple[float, float],
                 J: int) -> None:
        self.uniform = np.linspace(window[0], window[1], J)
        self.u_uniform = eval_mode_array(profile, self.uniform)
        self.area_exact = abs_area(profile, *window)
        self.alpha = _alpha(self.area_exact, self.uniform, self.u_uniform, J)
        self.scan_x, self.scan_u, self.midpoints = _scan(
            profile, window, 8 * max(J, 64))
        for a in (self.uniform, self.u_uniform, self.scan_x, self.scan_u):
            a.flags.writeable = False


# the last build's (profile, window, J) and its _Sampling.  The profile is
# compared by identity, never hashed (a table would hash all its points),
# and held here, so its id cannot pass to another profile meanwhile.
_last_sampling: tuple | None = None


def _sampling(profile: ModeProfile, window: tuple[float, float],
              J: int) -> _Sampling:
    """The sampling of the last build if it had this profile object,
    window and J, else a new one, which then becomes the last."""
    global _last_sampling
    last = _last_sampling
    if last is not None and last[0] is profile and last[1] == (window, J):
        return last[2]
    sampling = _Sampling(profile, window, J)
    _last_sampling = profile, (window, J), sampling
    return sampling


def find_turning_points(
    profile: ModeProfile,
    sign: int,
    E: float,
    window: tuple[float, float],
    *,
    alpha: float = 1.0,
    scan_points: int = 4096,
    samples: _Sampling | None = None,
) -> list[float]:
    """All solutions of sign * alpha * u(x)/2 = E inside the window.

    Each root is bracketed by a sign change on a uniform scan and refined
    by bisection to 1e-12 times min(1, window width) (or a few ulps at
    large |x|, whichever is coarser).  Mesa is special: its edges are
    potential jumps, handled as segment boundaries rather than roots, so
    the list is empty.  ``samples``, a build's sampling of this window,
    replaces the scan of ``scan_points`` points with its own and keeps
    the midpoints for later passes; the roots are a lone call's.
    """
    if E <= 0.0:
        raise ValueError("turning points are defined for E > 0")
    if profile.shape is _MESA:
        return []
    a, b = window
    if not a < b:
        raise ValueError(f"empty window [{a}, {b}]")
    scale = min(1.0, b - a)
    xs, us, u_at = (_scan(profile, window, scan_points) if samples is None
                    else (samples.scan_x, samples.scan_u, samples.midpoints))
    u_of = _mode_function(profile)
    signed_alpha = sign * alpha
    hs = signed_alpha * us * 0.5 - E
    roots = xs[hs == 0.0].tolist()
    for i in np.flatnonzero(hs[:-1] * hs[1:] < 0.0).tolist():
        lo, hi = float(xs[i]), float(xs[i + 1])
        flo = float(hs[i])
        tol = max(1.0e-12 * scale, 4.0 * math.ulp(max(abs(lo), abs(hi))))
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            u = u_at.get(mid)
            if u is None:
                u = u_at[mid] = u_of(mid)
            fm = signed_alpha * u * 0.5 - E
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    # merge duplicates (tangent grazing finds the same root twice)
    merged: list[float] = []
    for r in sorted(roots):
        if merged and r - merged[-1] <= TURNING_MERGE_TOL * scale:
            continue
        merged.append(r)
    return merged


# --- grid construction ----------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """The full segmentation of one scattering problem.

    ``z`` holds the solver's coefficient z = k^2 - 2*alpha*V at
    ``points``; turning nodes carry z = 0 exactly so no segment straddles
    a sign change of z.  ``arrays``, the segments between the nodes as
    arrays, and ``segments``, the same segments as records framed by the
    two semi-infinite free regions, are built on first read.  The atom's
    energy is k^2/2.
    """

    points: np.ndarray
    z: np.ndarray
    alpha: float
    k: float
    profile: ModeProfile
    window: tuple[float, float]
    turning_points: tuple[float, ...]

    def __post_init__(self) -> None:
        self.points.flags.writeable = False
        self.z.flags.writeable = False

    @cached_property
    def arrays(self) -> SegmentArrays:
        """``build_segments(points, z)``."""
        return build_segments(self.points, self.z)

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """``arrays.records(k^2)``: the free region left of the nodes, one
        record per entry of ``arrays`` (entry i is ``segments[i + 1]``),
        and the free region right of them."""
        return self.arrays.records(self.k * self.k)


def check_k_over_kappa(k_over_kappa: float) -> None:
    """Raise ValueError unless k is positive, at most K_OVER_KAPPA_MAX, and
    its energy k^2/2 a positive float (k = inf, 1e100 and 1e-300 fail)."""
    k = k_over_kappa
    if not (0.0 < k <= K_OVER_KAPPA_MAX and 0.5 * k * k > 0.0):
        raise ValueError(f"k_over_kappa = {k!r} is out of range: k must be at "
                         f"most {K_OVER_KAPPA_MAX:g} and k^2/2 a positive float")


def check_J(J: int) -> None:
    """Raise ValueError unless J is an integer from 2 to J_MAX."""
    if not isinstance(J, numbers.Integral):
        raise ValueError(f"J = {J!r} must be an integer")
    if not 2 <= J <= J_MAX:
        raise ValueError(f"J = {J} is out of range: it must be at least 2 "
                         f"and at most J_MAX = {J_MAX}")


def check_window_factor(window_factor: float) -> None:
    """Raise ValueError unless window_factor is positive and at most
    WINDOW_FACTOR_MAX (nan and inf fail)."""
    if not 0.0 < window_factor <= WINDOW_FACTOR_MAX:
        raise ValueError(f"window_factor = {window_factor!r} is out of range: "
                         f"it must be positive and at most WINDOW_FACTOR_MAX "
                         f"= {WINDOW_FACTOR_MAX:g}")


def _merge_turning_nodes(uniform: np.ndarray, roots: list[float]) -> tuple:
    """Insert roots into the node array; a root within the merge tolerance
    of an interior node replaces that node (window edges stay put).  Also
    returns the index of each root's turning node, its own or the window
    edge within the tolerance of it; a root outside the window has none."""
    nodes = uniform.tolist()
    tol = TURNING_MERGE_TOL * min(1.0, nodes[-1] - nodes[0])
    turning = []
    for r in roots:
        if r <= nodes[0] or r >= nodes[-1]:
            continue
        idx = bisect.bisect_left(nodes, r)
        near = None
        for j in (idx - 1, idx):
            if 0 <= j < len(nodes) and abs(nodes[j] - r) <= tol:
                near = j
                break
        if near is None:
            nodes.insert(idx, r)
        elif near == 0 or near == len(nodes) - 1:
            r = nodes[near]   # never move a window edge
        else:
            nodes[near] = r
        turning.append(r)
    nodes = np.array(nodes)
    # by value: a later insertion shifts the indices
    return nodes, np.searchsorted(nodes, turning)


def build_grid(
    profile: ModeProfile,
    sign: int,
    k_over_kappa: float,
    J: int,
    *,
    window_factor: float = DEFAULT_WINDOW_FACTOR,
) -> Grid:
    """Uniform J-point grid over the window, turning points inserted,
    potential samples renormalized; segments are tagged on first read.

    sign selects the dressed-potential branch: +1 for the repulsive
    barrier, -1 for the attractive well.  The window is
    ``profile.default_window(window_factor)``; an empty or non-finite one,
    a window_factor above ``WINDOW_FACTOR_MAX``, a J outside 2 to
    ``J_MAX``, or a window whose edge phase max(k, 1) * |x| exceeds
    ``PHASE_MAX``, raises ValueError.
    Raises GridResolutionError when the J uniform nodes cannot resolve the
    mode.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    check_J(J)
    check_k_over_kappa(k_over_kappa)
    k = float(k_over_kappa)

    x_a, x_b = map(float, profile.default_window(window_factor))
    if not math.isfinite(x_b - x_a):
        raise ValueError(f"window [{x_a}, {x_b}] is not finite")
    if not x_a < x_b:
        raise ValueError(f"empty window [{x_a}, {x_b}]")
    check_window_factor(window_factor)
    phase = max(k, 1.0) * max(-x_a, x_b)
    if phase > PHASE_MAX:
        raise ValueError(f"window [{x_a:g}, {x_b:g}] at k_over_kappa = {k:g} "
                         f"has edge phase max(k, 1) * |x| = {phase:g}, above "
                         f"PHASE_MAX = {PHASE_MAX:g}")

    if profile.shape is _MESA:
        # one flat segment across the support, no interpolation
        z_top = k * k - sign
        return Grid(np.array([x_a, x_b]), np.array([z_top, z_top]), 1.0, k,
                    profile, (x_a, x_b), ())

    E = 0.5 * k * k
    window = (x_a, x_b)
    scale = min(1.0, x_b - x_a)
    sampling = _sampling(profile, window, J)
    area_exact, alpha = sampling.area_exact, sampling.alpha

    def roots_at(a: float) -> list[float]:
        return find_turning_points(profile, sign, E, window, alpha=a,
                                   samples=sampling)

    def nodes_at(at_roots: list[float]):
        at_nodes, turning = _merge_turning_nodes(sampling.uniform, at_roots)
        return at_nodes, turning, eval_mode_array(profile, at_nodes)

    # the nodes, their turning nodes, mode values and alpha go with the
    # roots: the uniform nodes go with none
    nodes, turning, u_nodes = sampling.uniform, [], sampling.u_uniform
    roots: list[float] = []
    # (alpha, alpha * area of the nodes its roots give - exact area) of
    # every pass, for the fallback below
    defects: list[tuple[float, float]] = []
    settled = False
    for _ in range(_MAX_ALPHA_ITER):
        new_roots = roots_at(alpha)
        if new_roots == roots:
            # the same nodes again, so the same alpha: a fixed point
            settled = True
            break
        nodes, turning, u_nodes = nodes_at(new_roots)
        new_alpha = _alpha(area_exact, nodes, u_nodes, J)
        defects.append((alpha, area_exact * (alpha / new_alpha - 1.0)))
        stable_alpha = abs(new_alpha - alpha) <= _ALPHA_FIXED_POINT_TOL * max(
            abs(new_alpha), 1.0)
        stable_roots = len(new_roots) == len(roots) and all(
            abs(r - p) <= 1.0e-11 * scale for r, p in zip(new_roots, roots))
        # with alpha unchanged the next pass would find these roots again
        settled = new_alpha == alpha or (stable_alpha and stable_roots)
        alpha, roots = new_alpha, new_roots
        if settled:
            break

    try:
        return _finish_grid(profile, sign, k, window, alpha, turning, nodes,
                            u_nodes, area_exact)
    except GridResolutionError:
        if settled:
            raise
        # the passes ran out with alpha still moving: take instead the
        # alpha whose own roots give the exact area, a root of the defect

        def defect(a: float) -> float:
            at_nodes, _, at_u = nodes_at(roots_at(a))
            return a * interp_abs_area(at_nodes, at_u) - area_exact

        alpha = _bracketed_root(defect, defects, alpha)
        if alpha is None:
            raise
    nodes, turning, u_nodes = nodes_at(roots_at(alpha))
    return _finish_grid(profile, sign, k, window, alpha, turning, nodes,
                        u_nodes, area_exact)


def _alpha(area_exact: float, nodes: np.ndarray, u_nodes: np.ndarray,
           J: int) -> float:
    """The alpha that gives the interpolant through the nodes the exact
    area (1 for a mode of zero area)."""
    if area_exact == 0.0:
        return 1.0
    denom = interp_abs_area(nodes, u_nodes)
    if denom == 0.0:
        raise GridResolutionError(
            f"every one of the J = {J} nodes sits on a zero of the mode; "
            "increase J")
    return area_exact / denom


def _bracketed_root(defect, history: list[tuple[float, float]],
                    alpha: float) -> float | None:
    """Brent's root of ``defect`` between the latest alphas of ``history``
    (pairs of alpha and its defect) with a defect of each sign.  When all
    share a sign, the bracket comes from steps onward from ``alpha``, the
    passes' last value, in the direction they moved, each step twice the
    one before.  None when no sign change turns up or Brent's method does
    not converge, as on a defect that jumps across zero."""
    below = [a for a, d in history if d < 0.0]
    above = [a for a, d in history if d > 0.0]
    if below and above:
        bracket = below[-1], above[-1]
    else:
        last, side = history[-1]
        step = alpha - last
        for _ in range(_MAX_BRACKET_STEPS):
            value = defect(alpha)
            if value * side <= 0.0:
                bracket = last, alpha
                break
            last, side = alpha, value
            step *= 2.0
            alpha += step
        else:
            return None
    # imported here: scipy.optimize loads scipy.linalg too, about 0.2 s
    # that a grid whose alpha passes settle never needs
    from scipy.optimize import brentq

    root, result = brentq(defect, *bracket, xtol=1.0e-300, full_output=True,
                          disp=False)
    return root if result.converged else None


def _finish_grid(profile, sign, k, window, alpha, turning, nodes, u_nodes,
                 area_exact) -> Grid:
    """Snap the turning nodes (indices), split residual sign changes,
    and check the area of the nodes of a build at its final alpha.
    u_nodes is copied before the snaps write into it: it may be shared."""
    u_nodes = u_nodes.copy()
    z_free = k * k
    z = z_free - sign * alpha * u_nodes
    # the mode value that z = 0 stands for
    u_turn = sign * z_free / alpha
    # a converged root satisfies its equation to ~1e-12 in x; snap the
    # sampled z there to exactly zero so the adjacent tags come out clean
    z[turning] = 0.0
    u_nodes[turning] = u_turn
    turning_x = nodes[turning].tolist()

    # safety net: any residual sign change inside an interval is a turning
    # point of the interpolant itself and must become a node
    nodes, z, u_nodes, extra = _split_residual_crossings(nodes, z, u_nodes, u_turn)
    _verify_grid(nodes, u_nodes, alpha, area_exact)
    return Grid(nodes, z, float(alpha), k, profile, window,
                tuple(sorted(turning_x + extra)))


def _split_residual_crossings(
    nodes: np.ndarray, z: np.ndarray, u: np.ndarray, u_turn: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """Make the linear zero of every sign-changing interval a z = 0 node,
    with mode value u_turn.  A zero that rounds onto the interval's left
    node, as beside a node whose z is a rounding residue of 0, makes that
    node the turning node instead."""
    z0, z1 = z[:-1], z[1:]
    idx = np.flatnonzero(z0 * z1 < 0.0)
    if not idx.size:
        return nodes, z, u, []
    x0, x1 = nodes[idx], nodes[idx + 1]
    xc = x0 + (x1 - x0) * (z0[idx] / (z0[idx] - z1[idx]))
    on_node = idx[xc <= x0]
    z[on_node] = 0.0
    u[on_node] = u_turn
    keep = xc > x0
    idx, xc = idx[keep], xc[keep]
    return (np.insert(nodes, idx + 1, xc), np.insert(z, idx + 1, 0.0),
            np.insert(u, idx + 1, u_turn), xc.tolist() + nodes[on_node].tolist())


def _verify_grid(nodes: np.ndarray, u: np.ndarray, alpha: float,
                 area_exact: float) -> None:
    """Nodes strictly increasing, and alpha times the |u| area of the
    interpolant through the mode samples u equal to the exact area.  u is
    the builder's own sample array: rebuilding it as (k^2 - z)/alpha would
    cancel at large k."""
    if not np.all(np.diff(nodes) > 0.0):
        raise GridResolutionError("grid nodes not strictly increasing")
    if area_exact > 0.0:
        approx = alpha * interp_abs_area(nodes, u)
        if abs(approx - area_exact) > 1.0e-11 * area_exact:
            raise GridResolutionError(
                f"area renormalization off: {approx} vs {area_exact}")
