"""Zero-temperature Casimir free energy per unit area.

At T = 0 the Matsubara sum becomes an integral over imaginary
frequency,

    F(0) = (hbar / 16 pi^2 a^2) Integral_0^inf dzeta S(zeta),

with the same reduced integrand S(zeta) as the thermal sum. With
zeta_1 = c / 2a as the unit of the continuous Matsubara index u
(kappa = 1, so u = y0 = 2 a zeta / c),

    F(0) = (hbar c / 32 pi^2 a^3) Integral_0^inf S(u) du,

which is the integral the Euler-Maclaurin tail of the thermal sum
takes from its rung M on. The same evaluator (``core._tail_panels``:
panels with breaks in v = ln(1 + u), each integrated by GK15 in
t = sqrt(v), each node one ``mode_integrals`` row) and the same
bisection loop (``quadrature._bisect_panels``) take it from v = 0, on
the tail's start panels (``core._start_breaks``): 8 panels (120 rows)
at tol >= 1e-8, 14 (210 rows) below. The t rule matters at the lower
end: a Drude-like TE channel carries a u^{3/2} term there, which GK15
in v resolves only after bisecting the first panels, and which is the
polynomial t^3 in t.
At gaps of 0.2-8 um, Drude, tabulated, plasma and ideal metals all meet
tol = 1e-8 on the 8 panels (estimates up to 1.5e-9 of F(0), values
within 1.4e-13 of the 14-panel ones) and tol = 1e-11 on the 14.

For an ideal metal the integral evaluates to -pi^2 hbar c / 720 a^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_LIGHT, HBAR
from .core import ReflectionModel, _start_breaks, _tail_panels
from .errors import ConvergenceError
from .quadrature import _TAIL_PANEL_CAP, _bisect_panels


@dataclass(frozen=True)
class ZeroTempResult:
    """F(0) and its parts, J/m^2.

    ``evaluations`` counts the ``mode_integrals`` rows evaluated, 15 per
    panel, bisected panels included.
    """

    f0: float
    te_part: float
    tm_part: float
    error_estimate: float
    evaluations: int


def _eval_rects(model, gap, lo, hi):
    """Panel values over the v panels [lo, hi], as ``core._tail_panels`` returns them.

    Each v panel, with the y meshes of its rows, is a rectangle of the
    (v, y) plane.
    """
    return _tail_panels(model, gap, C_LIGHT / (2.0 * gap), "energy", lo, hi)


def free_energy_T0(gap: float, model: ReflectionModel, tol: float = 1e-8) -> ZeroTempResult:
    """Zero-temperature free energy per unit area in J/m^2.

    ``tol`` is the relative target for the error estimate (Kronrod -
    Gauss of the v panels plus the rows' own errors). Panels are
    bisected up to ``quadrature._TAIL_PANEL_CAP``; ConvergenceError
    carrying the best estimate is raised if the target is still missed.
    """
    if not (gap > 0.0 and math.isfinite(gap)):
        raise ValueError(f"gap must be finite and > 0 m, got {gap}")
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must be in (0, 1e-2], got {tol}")
    breaks = _start_breaks(tol, 0.0)
    # _eval_rects is looked up at each call, so a patch of it is seen
    tm, te, error, met, panels, _ = _bisect_panels(
        lambda lo, hi: _eval_rects(model, gap, lo, hi), breaks[:-1], breaks[1:],
        lambda tm, te, _: tol * abs(tm + te))
    pref = HBAR * C_LIGHT / (32.0 * math.pi ** 2 * gap ** 3)
    if not met:
        raise ConvergenceError(
            f"zero-temperature integral not within tol = {tol:g} at "
            f"{_TAIL_PANEL_CAP} panels or by the rows' own errors",
            best_estimate=pref * (tm + te), error_estimate=pref * error)
    return ZeroTempResult(f0=pref * (tm + te), te_part=pref * te, tm_part=pref * tm,
                          error_estimate=pref * error, evaluations=15 * panels)


def ideal_metal_T0(gap: float) -> float:
    """Closed form -pi^2 hbar c / 720 a^3 for perfectly reflecting plates."""
    if not (gap > 0.0 and math.isfinite(gap)):
        raise ValueError(f"gap must be finite and > 0 m, got {gap}")
    return -math.pi ** 2 * HBAR * C_LIGHT / (720.0 * gap ** 3)
