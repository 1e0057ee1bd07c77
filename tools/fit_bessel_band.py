"""Fit the polynomial pieces of ``specfun.cyl_bessel`` on 1 <= w <= 20.

On the middle band of the sloped basis the cylinder functions at orders
1/3 and 2/3 are formed from four smooth functions per family, each of
which tends to a constant as w grows (DLMF 10.18, modulus and phase):

* J, Y: A = (J**2 + Y**2) pi w / 2 and the phase offset
  phi = theta - (w - (nu/2 + 1/4) pi), with J = M cos theta,
  Y = M sin theta and M = sqrt(2 A / (pi w));
* I, K: e**-w I sqrt(2 pi w) and e**w K sqrt(2 w / pi).

Each piece [a, b] of EDGES takes a polynomial of degree DEGREE in the
local variable v = (w - (a + b)/2) / ((b - a)/2) on [-1, 1]: the
Chebyshev interpolant at the DEGREE + 1 Chebyshev points, formed from
mpmath values at DPS digits and converted to powers of v before rounding
to double.  Beside them goes the table PHASES of the shifts
(nu/2 + 1/4 + n/2) pi as pairs of doubles, by which the kernel reduces
the phase of J, Y.  Both go into ``src/mazersim/_bessel_band.py`` as
literals, the coefficients as one block of text, so importing the
package fits nothing and needs no mpmath.

Run from the repository root to rewrite that module:

    python tools/fit_bessel_band.py

``fit_table()`` and ``phase_table()`` return the same numbers without
writing, for a test that checks the checked-in tables against a fresh
fit.
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp

EDGES = (1.0, 1.6, 2.5, 4.0, 7.0, 12.0, 20.0)
DEGREE = 16
DPS = 40
# the multiples n of pi/2 the phase table covers: the phase
# w - (nu/2 + 1/4) pi + phi of J, Y runs over about [-0.8, 18.7] on the band
QUADRANTS = (-1, 12)
TARGET = Path(__file__).resolve().parent.parent / "src" / "mazersim" / "_bessel_band.py"


def _functions(w):
    """The eight fitted values at w: [A_1/3, A_2/3, phi_1/3, phi_2/3] and
    [I~_1/3, I~_2/3, K~_1/3, K~_2/3]."""
    jy, ik, phase = [], [], []
    for nu in (mp.mpf(1) / 3, mp.mpf(2) / 3):
        j, y = mp.besselj(nu, w), mp.bessely(nu, w)
        jy.append((j * j + y * y) * mp.pi * w / 2)
        # the offset is small on w >= 1 (about (4 nu**2 - 1) / (8 w)), so
        # the branch of atan2 nearest zero is the continuous one
        offset = mp.atan2(y, j) - (w - (nu / 2 + mp.mpf(1) / 4) * mp.pi)
        phase.append(offset - 2 * mp.pi * mp.nint(offset / (2 * mp.pi)))
        ik.append(mp.besseli(nu, w) * mp.exp(-w) * mp.sqrt(2 * mp.pi * w))
    for nu in (mp.mpf(1) / 3, mp.mpf(2) / 3):
        ik.append(mp.besselk(nu, w) * mp.exp(w) * mp.sqrt(2 * w / mp.pi))
    return jy + phase, ik


def _monomial(cheb):
    """Coefficients of sum_j cheb[j] T_j(v) in powers of v."""
    n = len(cheb)
    # T_0 = 1, T_1 = v, T_j = 2 v T_j-1 - T_j-2, as power coefficients
    t_prev = [mp.mpf(1)] + [mp.mpf(0)] * (n - 1)
    t_cur = [mp.mpf(0), mp.mpf(1)] + [mp.mpf(0)] * (n - 2)
    out = [cheb[0] * p + cheb[1] * q for p, q in zip(t_prev, t_cur)]
    for c in cheb[2:]:
        t_prev, t_cur = t_cur, [2 * (t_cur[k - 1] if k else 0) - t_prev[k]
                                for k in range(n)]
        out = [o + c * q for o, q in zip(out, t_cur)]
    return out


def _piece(a, b):
    """(JY rows, IK rows) of one piece: 4 lists of DEGREE + 1 floats each."""
    n = DEGREE + 1
    mid, half = (mp.mpf(a) + b) / 2, (mp.mpf(b) - a) / 2
    angles = [mp.pi * (i + mp.mpf(1) / 2) / n for i in range(n)]
    values = [_functions(mid + half * mp.cos(ang)) for ang in angles]
    rows = []
    for fam in (0, 1):
        fam_rows = []
        for r in range(4):
            f = [v[fam][r] for v in values]
            cheb = [2 * mp.fsum(fi * mp.cos(j * ang) for fi, ang in zip(f, angles)) / n
                    for j in range(n)]
            cheb[0] /= 2
            fam_rows.append([float(c) for c in _monomial(cheb)])
        rows.append(fam_rows)
    return rows


def phase_table():
    """(nu/2 + 1/4 + n/2) pi for nu = 1/3, 2/3 and n = QUADRANTS[0] ..
    QUADRANTS[1] as (high, low) double pairs: the phase of J, Y at order
    nu is reduced by the nearest of them, so the reduced angle keeps its
    relative accuracy near each zero."""
    out = []
    with mp.workdps(DPS):
        for nu in (mp.mpf(1) / 3, mp.mpf(2) / 3):
            row = []
            for n in range(QUADRANTS[0], QUADRANTS[1] + 1):
                c = (nu / 2 + mp.mpf(1) / 4 + mp.mpf(n) / 2) * mp.pi
                hi = float(c)
                row.append((hi, float(c - hi)))
            out.append(row)
    return out


def fit_table():
    """The fitted coefficients as nested lists indexed
    [family (JY, IK)][piece][row][power of v]."""
    with mp.workdps(DPS):
        pieces = [_piece(a, b) for a, b in zip(EDGES[:-1], EDGES[1:])]
    return [[p[fam] for p in pieces] for fam in (0, 1)]


def render(table, phases) -> str:
    """The source of ``_bessel_band``: EDGES, DEGREE, QUADRANTS, PHASES
    and the coefficients of ``fit_table()`` as COEFFICIENTS."""
    rows = [" ".join(map(repr, row)) for family in table for piece in family
            for row in piece]
    return "\n".join([
        '"""Polynomial pieces of :func:`mazersim.specfun.cyl_bessel` on 1 <= w <= 20.',
        "",
        "Generated by ``tools/fit_bessel_band.py``; do not edit.",
        '"""',
        "",
        f"EDGES = {EDGES!r}",
        f"DEGREE = {DEGREE}",
        f"QUADRANTS = {QUADRANTS!r}",
        "",
        "# (high, low) of (nu/2 + 1/4 + n/2) pi, rows nu = 1/3, 2/3, n over QUADRANTS",
        "PHASES = (",
        *("    (" + ",\n     ".join(f"({hi!r}, {lo!r})" for hi, lo in row) + "),"
          for row in phases),
        ")",
        "",
        "# One line per fitted function on one piece: its DEGREE + 1 coefficients",
        "# in rising powers of v = (w - mid) / half on [EDGES[i], EDGES[i + 1]].",
        "# The lines run over the families JY then IK, within a family over the",
        "# pieces, within a piece over the rows A at 1/3, A at 2/3, phi at 1/3,",
        "# phi at 2/3 (JY) or the scaled I at 1/3, 2/3 and K at 1/3, 2/3 (IK).",
        "# Text, not a tuple of floats: compiling 816 float literals costs about",
        "# 3.5 ms at every start of an interpreter that writes no bytecode.",
        'COEFFICIENTS = """\\',
        *rows,
        '"""',
    ]) + "\n"


def main() -> None:
    TARGET.write_text(render(fit_table(), phase_table()), encoding="utf-8")
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
