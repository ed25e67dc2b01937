"""Thermodynamic analysis: thermal shifts, entropy, and the classical limit.

The thermal part of the free energy is tiny against the T = 0 value at
low temperature, so it is never formed as a difference of two large
independent results. Writing the zero-temperature integral in the
summation variable u = zeta hbar / (2 pi k T) gives

    F(T) - F(0) = (k T / 8 pi a^2) [ sum'_m h(m) - Integral_0^inf h(u) du ]

with one shared evaluator h for both the sum and the integral, so the
smooth part of any quadrature bias cancels structurally. The difference
itself is computed by splitting at an index M: below M the sum and
integral are evaluated directly (the integral in the variable t =
sqrt(u), which absorbs the half-power behaviour of h at the origin, on
GK15 panels bisected to tol); above M both tails are identical up to
endpoint derivative corrections,

    sum' h - int h = [sum''_0^M h - int_0^M h] - h'(M)/12 + h'''(M)/720
                     - h^(5)(M)/30240 + ...,

with the double prime marking half weight at both ends. The difference
comes with an error floor: the cancellation roundoff, the panels'
quadrature error and a bound on the Euler-Maclaurin remainder. M is
the first rung of the nested ladder 32, 64, 128 whose floor is within
tol of the difference. Each rung evaluates h on the integers and start
panels that the rungs below it did not reach, then bisects (with
``quadrature._bisect_panels``, the loop of the T = 0 integral and the
tail) until its quadrature error is within tol |delta| or within the
rest of its floor. The roundoff grows with M and the remainder falls, so a
slowly decaying h (small kappa) is resolved best at M = 32 and a fast
one may need 64 or 128. Every thermal shift is one bracket,
``_thermal_shift``, which raises PrecisionError when no rung's floor is
within tol of it: tol = 1/50 for the public shifts (met at M = 32 on
the start panels, 126 values of h, for gold from 1 mK to 10 K), the
caller's tol <= 1e-8 for the low-frequency expansion form, which is the
TE shift of ``asymptotics._SkinEffectMetal`` (M = 64, 173 values, on
most of the default fit grid at tol 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .asymptotics import AsymptoticCoefficients, _c_scale, _SkinEffectMetal, pade_delta_f
from .constants import K_BOLTZMANN, ZETA3, matsubara_frequency
from .core import PlateSystem, _gk_integrate, _prefactor, mode_integrals
from .dispersion import DrudeModel
from .errors import ConvergenceError, PrecisionError, RegimeError
from .quadrature import _bisect_panels, euler_maclaurin_endpoint, fsum, gk_panels

_NOISE = 2.0 * np.finfo(float).eps  # roundoff per value: one to compute it, one to sum it
_RUNGS = (32, 64, 128)  # split indices M of sum_minus_integral, tried in turn
_FIT_RESIDUAL_MAX = 0.05  # rms relative residual above which fit_low_temp raises


# t = sqrt(u) breaks of the start panels: a rung starts on those between
# the rung below (t = 0 for the first) and sqrt(M), so rung 32 on 6
# panels and rungs 64 and 128 on one each
_T_START = np.array([0.05, 0.2, 0.6, 1.5, 3.0])
_GK_X, _GK_WK, _GK_WG = gk_panels(np.array([-1.0, 1.0]))  # GK15 on [-1, 1]


def _t_panels(h, lo, hi, u_int=()):
    """h on the integers ``u_int`` and per-panel (integral, 0, quadrature
    error, roundoff) of h du = 2 t h dt over the t panels [lo, hi], in one
    call of ``h``: the panels' GK15 error in the converged-panel model of
    ``core._gk_integrate`` and 2 eps times the summed |weight * value|.
    """
    half = 0.5 * (hi - lo)[:, None]
    t = 0.5 * (hi + lo)[:, None] + half * _GK_X
    values = np.asarray(h(np.concatenate([u_int, (t * t).ravel()])), dtype=float)
    f = 2.0 * half * t * values[len(u_int):].reshape(t.shape)
    noise = _NOISE * (np.abs(f) @ _GK_WK)
    integral, quad_err = _gk_integrate(f, _GK_WK, _GK_WG)
    return values[:len(u_int)], (integral, np.zeros_like(integral), quad_err, noise)


def _ladder(h, tol=0.0):
    """(M, delta, floor) of sum' h - int h split at each rung M of ``_RUNGS``.

    Rung M calls ``h`` once on the integers up to M + 3 and the GK15
    nodes of its start panels, then ``quadrature._bisect_panels`` bisects
    the worst of all panels below sqrt(M) until the floor is within
    max(tol |delta|, 2 (noise + remainder)): the quadrature error within
    the rest of the floor, or the floor within tol. Bisected panels are
    new nodes, so a u is never evaluated twice.
    """
    hv, t_lo = np.empty(0), 0.0
    lo = hi = np.empty(0)
    panels = (np.empty(0),) * 4
    for big_m in _RUNGS:
        t_hi = math.sqrt(big_m)
        breaks = np.concatenate(([t_lo], _T_START[(t_lo < _T_START) & (_T_START < t_hi)],
                                 [t_hi]))
        values, new = _t_panels(h, breaks[:-1], breaks[1:], np.arange(hv.size, big_m + 4.0))
        if not np.all(np.isfinite(values)):
            raise ConvergenceError("sum-minus-integral term is not finite",
                                   best_estimate=math.nan, error_estimate=math.inf)
        hv = np.concatenate([hv, values])
        lo, hi = np.concatenate([lo, breaks[:-1]]), np.concatenate([hi, breaks[1:]])
        panels = tuple(np.concatenate(pair) for pair in zip(panels, new))

        sum_terms = hv[:big_m + 1].copy()
        sum_terms[0] *= 0.5
        sum_terms[big_m] *= 0.5
        total = fsum(sum_terms)
        # Euler-Maclaurin endpoint corrections at M
        correction, remainder = euler_maclaurin_endpoint(hv[big_m - 3:big_m + 4], big_m)
        fixed = _NOISE * np.abs(sum_terms).sum() + float(remainder)
        integral, _, floor, _, _, (lo, hi, panels) = _bisect_panels(
            lambda lo, hi: _t_panels(h, lo, hi)[1], lo, hi,
            lambda i, _, rest: max(tol * abs(total - i + correction), 2.0 * rest),
            fixed, panels)
        t_lo = t_hi
        yield big_m, total - integral + correction, floor


def sum_minus_integral(h: Callable, tol: float = 0.0):
    """sum'_{m>=0} h(m) - Integral_0^inf h(u) du for decaying smooth h.

    ``h`` must accept a 1-D float array of u >= 0 and evaluate
    elementwise. The bracket is split at the rungs M = 32, 64, 128 in
    turn (``_ladder``) and returned at the first whose floor is at most
    ``tol`` times it, else at the top rung; the default tol = 0 runs to
    the top unless a floor is exactly 0. The rungs are nested: M = 32
    starts on the integers 0 .. 35 and 6 GK15 panels in t = sqrt(u),
    breaks 0, 0.05, 0.2, 0.6, 1.5, 3 and sqrt(32) (126 values); 64 and
    128 on 32 and 64 more integers and one panel each (47 and 79 more).
    Each rung bisects its worst panels below sqrt(M) until the floor is
    within max(tol |delta|, twice the roundoff and remainder parts), so
    tol = 0 converges to roundoff. No u is evaluated twice. Returns
    (delta, floor). The floor adds three parts: the cancellation
    roundoff estimate, 2 eps (``_NOISE``) times the summed magnitudes of
    the terms and of the weighted integrand values; the panels'
    quadrature error in the converged-panel model of the lean Matsubara
    rows (``core._gk_integrate``); and the bound on the Euler-Maclaurin
    remainder from ``euler_maclaurin_endpoint``. ConvergenceError (best
    estimate NaN) is raised when a term or panel is not finite, and
    ValueError when ``tol`` is negative or NaN.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    for _, delta, floor in _ladder(h, tol):
        if floor <= tol * abs(delta):
            break
    return delta, floor


def delta_f_te_numeric(system: PlateSystem, tol: float = 1e-9) -> float:
    """TE thermal shift F_TE(T) - F_TE(0) in the low-frequency form, J/m^2.

    The TE ``_thermal_shift`` of ``asymptotics._SkinEffectMetal``, the
    DrudeModel's skin-effect limit: (C/beta) [sum' g(m) - int g(u) du];
    positive throughout its validity window. The index cutoff lies
    beyond the strict frequency window at the top of the temperature
    range, but those indices enter only through boundary terms that
    cancel between sum and integral. The bracket comes from the first
    rung of ``sum_minus_integral`` whose floor is within ``tol`` of it;
    PrecisionError is raised when none is.
    """
    model, temp = system.model, system.temperature
    _c_scale(model, temp)  # raises the TypeError for a model other than a DrudeModel
    if not 0.0 < tol <= 1e-8:
        raise ValueError(f"tol must be in (0, 1e-8], got {tol}")
    if temp > 0.2:
        raise RegimeError(
            f"T = {temp} K is outside the low-temperature "
            "window (T <= 0.2 K) of the expansion")
    skin = PlateSystem(system.gap, temp, _SkinEffectMetal(model.omega_p ** 2 / model.nu))
    result = _thermal_shift(skin, "energy", "te", tol)
    if result <= 0.0:
        raise PrecisionError(
            f"TE thermal shift came out non-positive ({result:.3e}); "
            "outside the trustable window")
    return result


_SHIFT_NAMES = {"energy": "thermal shift", "pressure": "thermal pressure shift"}


def _thermal_shift(system: PlateSystem, kind: str, polarization: str,
                   tol: float = 1.0 / 50.0) -> float:
    """sign k T / (8 pi a^power) [sum' h - int h], h(u) = S(zeta_1 u).

    S is the reduced integral of ``kind`` ("energy" or "pressure") for
    the chosen polarization, from ``mode_integrals`` at zeta_1 u for
    every u, so h(0) is its zeta = 0 row, the zero mode. The prefactor
    is ``core._prefactor``. The bracket is that of the first rung of
    ``sum_minus_integral`` whose error floor is at most ``tol`` times it
    (default: 50 floors); PrecisionError is raised when the top rung
    misses it too, ConvergenceError when h is not finite.
    """
    model, gap, temp = system.model, system.gap, system.temperature
    zeta1 = matsubara_frequency(1, temp)

    def h(u):
        s_tm, s_te, _, _ = mode_integrals(model, gap, zeta1 * u, kind, polarization)
        return s_tm + s_te

    delta, floor = sum_minus_integral(h, tol)
    if floor > tol * abs(delta):
        raise PrecisionError(
            f"{_SHIFT_NAMES[kind]} {delta:.3e} has an error floor {floor:.3e} "
            f"above {tol:.3g} of it; temperature too low to resolve")
    return _prefactor(system, kind) * delta


def free_energy_shift(system: PlateSystem, polarization: str = "both") -> float:
    """F(T) - F(0) with the exact permittivity, J/m^2.

    Valid at any temperature where the model is; uses one evaluator for
    the Matsubara sum and its continuum limit so the shift survives in
    double precision down to millikelvin temperatures.
    ``polarization`` is "both", "tm", or "te".
    """
    return _thermal_shift(system, "energy", polarization)


def pressure_shift(system: PlateSystem, polarization: str = "both") -> float:
    """P(T) - P(0) with the exact permittivity, Pa.

    Same sum-minus-integral construction as free_energy_shift, with
    the pressure kernel. The gap-independent part of the thermal free
    energy carries no pressure, so this shift decays one power of T
    faster than the free-energy shift (T^4 against T^3 for the TM
    channel of a good metal).
    """
    return _thermal_shift(system, "pressure", polarization)


@dataclass(frozen=True)
class LowTempFit:
    """Coefficients of dF = d1 (T^2 - d2 T^{5/2} + d3 T^3) + ..."""

    d1: float
    d2: float
    d3: float
    residual_norm: float
    grid: tuple


def fit_low_temp(samples: Sequence) -> LowTempFit:
    """Weighted least-squares fit of the low-temperature shift model.

    ``samples`` is a sequence of (T, dF) pairs, at least 8 of them,
    with finite T > 0 and finite dF, strictly increasing in T and
    spanning at least a decade. The fit runs in tau = sqrt(T / T_max),
    where the basis {tau^4, tau^5, tau^6} is mildly conditioned. Rows
    are weighted by 1/T^2 beyond the 1/T^2 that equalizes relative
    residuals: the extra emphasis on small T keeps terms outside the
    basis (T^{7/2} and up, strongest at the top of the window) from
    biasing the T^{5/2} coefficient.
    """
    pts = [(float(t), float(df)) for t, df in samples]
    if len(pts) < 8:
        raise ValueError(f"need at least 8 samples, got {len(pts)}")
    t = np.array([p[0] for p in pts])
    df = np.array([p[1] for p in pts])
    if not np.all(np.isfinite(t) & (t > 0.0)):
        raise ValueError("sample temperatures must be finite and > 0 K")
    if not np.all(np.isfinite(df)):
        raise ValueError(f"dF is not finite at T = {t[np.argmin(np.isfinite(df))]} K")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("sample temperatures must be strictly increasing")
    if t[-1] / t[0] < 10.0:
        raise ValueError("samples must span at least one decade in T")
    if t[-1] > 0.2:
        raise ValueError("samples extend beyond the low-temperature window")

    t_max = t[-1]
    tau = np.sqrt(t / t_max)
    basis = np.stack([tau ** 4, tau ** 5, tau ** 6], axis=1)
    w = (1.0 / t ** 4)[:, None]
    a_mat = basis * w
    b_vec = df * w[:, 0]
    cond = np.linalg.cond(a_mat)
    if cond > 1e10:
        raise PrecisionError(f"fit design matrix ill-conditioned: cond = {cond:.3e}")
    coeff, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    c4, c5, c6 = coeff
    d1 = c4 / t_max ** 2
    if d1 <= 0.0:
        raise PrecisionError(f"fit produced non-positive T^2 coefficient {d1:.3e}")
    d2 = -c5 / (d1 * t_max ** 2.5)
    d3 = c6 / (d1 * t_max ** 3)
    model = basis @ coeff
    residual_norm = float(np.sqrt(np.mean(((model - df) / df) ** 2)))
    if residual_norm > _FIT_RESIDUAL_MAX:
        raise PrecisionError(
            f"fit residual {residual_norm:.3e} exceeds threshold "
            f"{_FIT_RESIDUAL_MAX:.3e}")
    return LowTempFit(d1=float(d1), d2=float(d2), d3=float(d3),
                      residual_norm=residual_norm, grid=tuple(pts))


def default_fit_grid() -> np.ndarray:
    """12 log-spaced temperatures in [2e-3, 6e-2] K."""
    return np.geomspace(2e-3, 6e-2, 12)


def collect_lowtemp_samples(material: DrudeModel, gap: float,
                            t_grid=None, tol: float = 1e-9) -> list:
    """(T, dF_TE) pairs from the low-frequency evaluator.

    Without ``t_grid`` the temperatures are ``default_fit_grid()``
    scaled by min(1, (1 um / gap)^2). c2 grows as the gap, so above
    1 um this holds c2 sqrt(T_max) at its 1 um value and keeps the
    basis T^2, T^{5/2}, T^3 of ``fit_low_temp`` in its window.
    """
    if t_grid is None:
        t_grid = default_fit_grid() * min(1.0, (1e-6 / gap) ** 2)
    return [(float(t), delta_f_te_numeric(PlateSystem(gap, float(t), material), tol=tol))
            for t in np.asarray(t_grid, dtype=float)]


@dataclass(frozen=True)
class RSeries:
    """Relative difference R(T) between the Pade form and numeric data."""

    samples: tuple
    slope_at_origin: float
    intercept: float
    intercept_uncertainty: float
    correlation: float


def r_series(coeffs: AsymptoticCoefficients, numeric: Callable,
             t_grid) -> RSeries:
    """R(T) = (dF_pade - dF_numeric) / dF_pade on a temperature grid.

    ``numeric`` maps T to the numeric shift; a T where R is not finite
    raises ValueError. A straight line is fitted on the lowest decade of
    the grid; a vanishing intercept with linear growth is the signature
    that the T^2 coefficient is exact and the first neglected term is
    O(T).
    """
    t = np.sort(np.asarray(t_grid, dtype=float))
    if t.size < 4:
        raise ValueError(f"need at least 4 grid points, got {t.size}")
    if np.any(t <= 0.0):
        raise ValueError("grid temperatures must be positive")
    r_vals = np.empty_like(t)
    for i, ti in enumerate(t):
        th = pade_delta_f(coeffs, float(ti))
        r_vals[i] = (th - float(numeric(float(ti)))) / th
        if not math.isfinite(r_vals[i]):
            raise ValueError(f"R is not finite at T = {ti} K")
    window = t <= 10.0 * t[0]
    tw, rw = t[window], r_vals[window]
    if np.unique(tw).size < 3:
        raise ValueError("lowest decade of the grid holds fewer than 3 distinct temperatures")
    design = np.stack([np.ones_like(tw), tw], axis=1)
    coeff, *_ = np.linalg.lstsq(design, rw, rcond=None)
    resid = rw - design @ coeff
    dof = max(tw.size - 2, 1)
    sigma2 = float(resid @ resid) / dof
    cov00 = sigma2 * np.linalg.inv(design.T @ design)[0, 0]
    if np.std(rw) == 0.0:
        corr = 1.0  # exactly linear (constant) data
    else:
        corr = float(np.corrcoef(tw, rw)[0, 1])
    return RSeries(samples=tuple((float(a), float(b)) for a, b in zip(t, r_vals)),
                   slope_at_origin=float(coeff[1]),
                   intercept=float(coeff[0]),
                   intercept_uncertainty=float(math.sqrt(max(cov00, 0.0))),
                   correlation=corr)


def entropy(system: PlateSystem) -> float:
    """Entropy per unit area S = -dF/dT at ``system.temperature``, J/(m^2 K).

    Differentiates the thermal shift F(T) - F(0) (the T = 0 part drops
    out of the derivative), with a Richardson-extrapolated central
    difference at step h = max(T/10, 1e-4 K). It takes no tolerance:
    the step size sets its error, and each of the four shifts comes
    from the first rung of ``sum_minus_integral``, its panels bisected
    to tol 1/50, that holds the 50-floor rule of ``_thermal_shift``.
    """
    t0 = system.temperature
    h = max(t0 / 10.0, 1e-4)
    if t0 - h <= 0.0:
        raise ValueError(
            f"T = {t0} K too small for the finite-difference step {h} K")

    def shift_at(t):
        sys_t = PlateSystem(gap=system.gap, temperature=t, model=system.model)
        return free_energy_shift(sys_t)

    def central(step):
        return (shift_at(t0 + step) - shift_at(t0 - step)) / (2.0 * step)

    coarse = central(h)
    fine = central(h / 2.0)
    s_val = -(4.0 * fine - coarse) / 3.0
    fd_err = abs(fine - coarse) * 4.0 / 3.0
    if fd_err > 0.5 * abs(s_val) + 1e-30:
        raise PrecisionError(
            f"entropy finite difference unresolved: S = {s_val:.3e}, "
            f"step-halving change {fd_err:.3e}; raise T")
    return s_val


def classical_pressure(gap: float, temperature: float) -> float:
    """High-temperature Drude limit -zeta(3) k T / (8 pi a^3), Pa."""
    return -ZETA3 * K_BOLTZMANN * temperature / (8.0 * math.pi * gap ** 3)
