"""Zero-temperature Casimir free energy per unit area.

At T = 0 the Matsubara sum becomes an integral over imaginary
frequency,

    F(0) = (hbar / 16 pi^2 a^2) Integral_0^inf dzeta S(zeta),

with the same reduced integrand S(zeta) as the thermal sum. The code
maps the quarter-plane onto a rectangle with

    v = ln(1 + zeta / zeta_ref),  zeta_ref = c / 2a,
    w = y - y0,                   y0 = 2 a zeta / c = e^v - 1,

so that F(0) = (hbar c / 32 pi^2 a^3) Integral e^v y [K_A + K_B] dw dv
with y = (e^v - 1) + w and K_R = ln(1 - R e^{-y}). Both directions are
then handled by one globally adaptive tensor-product Kronrod rule.

For an ideal metal the integral evaluates to -pi^2 hbar c / 720 a^3.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR
from .core import ReflectionModel, _log_reflection
from .errors import ConvergenceError
from .quadrature import _GK15_WK, _GK15_X, _G7_W, log1mexp

_Y_CUT = 50.0  # ln(1 - R e^{-y}) < 2e-21 past here for R <= 1

_V_BREAKS = np.array([
    0.0, 1e-4, 1e-3, 0.01, 0.05, 0.15, 0.3, 0.5, 0.8,
    1.2, 1.7, 2.3, 3.0, math.log(1.0 + _Y_CUT),
])
_W_BREAKS = np.array([
    0.0, 1e-4, 1e-3, 0.01, 0.05, 0.15, 0.4, 0.8, 1.5,
    2.5, 4.0, 6.0, 9.0, 13.0, 18.0, 24.0, 31.0, 39.0, _Y_CUT,
])


@dataclass(frozen=True)
class ZeroTempResult:
    f0: float
    te_part: float
    tm_part: float
    error_estimate: float
    evaluations: int


# rects per evaluation in _eval_rects: a (32, 15, 15) float temporary is
# 58 KB, below glibc's mmap threshold, where the 421 KB temporaries of the
# 234 starting rects taken at once were mapped and trimmed on every call
_RECT_BLOCK = 32


def _eval_rects(model, gap, rects):
    """Tensor-GK15 values and errors for a batch of (v0, v1, w0, w1) rects.

    Returns (val_tm, val_te, err) per rect; the error is the raw
    difference between the Kronrod and embedded Gauss tensor rules.
    Rects are independent, so evaluating them ``_RECT_BLOCK`` at a time
    gives the same values as one batch.
    """
    rects = np.asarray(rects, dtype=float)
    parts = [_rect_block(model, gap, rects[lo:lo + _RECT_BLOCK])
             for lo in range(0, len(rects), _RECT_BLOCK)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _rect_block(model, gap, rects):
    v0, v1, w0, w1 = rects.T
    hv = 0.5 * (v1 - v0)
    hw = 0.5 * (w1 - w0)
    vn = v0[:, None] + hv[:, None] * (_GK15_X[None, :] + 1.0)   # (R, 15)
    wn = w0[:, None] + hw[:, None] * (_GK15_X[None, :] + 1.0)
    v = vn[:, :, None]
    w = wn[:, None, :]
    y0 = np.expm1(v)
    y = y0 + w
    zeta = (C_LIGHT / (2.0 * gap)) * y0
    p = np.maximum(y / y0, 1.0)
    ln_a, ln_b = _log_reflection(model, zeta, p)
    base = np.exp(v) * y
    f_tm = base * log1mexp(y - ln_a)
    f_te = (base * log1mexp(y - ln_b)) if ln_b is not None else np.zeros_like(f_tm)
    wk2 = _GK15_WK[:, None] * _GK15_WK[None, :]
    wg2 = _G7_W[:, None] * _G7_W[None, :]
    jac = (hv * hw)[:, None, None]
    val_tm = (f_tm * wk2).sum(axis=(1, 2)) * hv * hw
    val_te = (f_te * wk2).sum(axis=(1, 2)) * hv * hw
    f_sum = f_tm + f_te
    kron = (f_sum * wk2 * jac).sum(axis=(1, 2))
    gauss = (f_sum * wg2 * jac).sum(axis=(1, 2))
    err = np.abs(kron - gauss)
    return val_tm, val_te, err


def free_energy_T0(gap: float, model: ReflectionModel, tol: float = 1e-8,
                   max_evals: int = 2_000_000) -> ZeroTempResult:
    """Zero-temperature free energy per unit area in J/m^2.

    ``tol`` is the relative target for the (conservative) Kronrod error
    estimate; ``max_evals`` caps the number of integrand evaluations.
    Raises ConvergenceError carrying the best estimate if the cap is hit.
    """
    if not (gap > 0.0 and math.isfinite(gap)):
        raise ValueError(f"gap must be finite and > 0 m, got {gap}")
    if not 0.0 < tol <= 1e-2:
        raise ValueError(f"tol must be in (0, 1e-2], got {tol}")
    rects = [(_V_BREAKS[i], _V_BREAKS[i + 1], _W_BREAKS[j], _W_BREAKS[j + 1])
             for i in range(_V_BREAKS.size - 1)
             for j in range(_W_BREAKS.size - 1)]
    val_tm, val_te, err = _eval_rects(model, gap, rects)
    evals = 225 * len(rects)
    heap = []
    for i, r in enumerate(rects):
        heapq.heappush(heap, (-err[i], i, r, val_tm[i], val_te[i]))
    total_tm = float(val_tm.sum())
    total_te = float(val_te.sum())
    total_err = float(err.sum())

    while total_err > tol * max(abs(total_tm + total_te), 1e-300):
        if evals >= max_evals:
            pref = HBAR * C_LIGHT / (32.0 * math.pi ** 2 * gap ** 3)
            raise ConvergenceError(
                f"zero-temperature integral not converged within {max_evals} "
                "evaluations",
                best_estimate=pref * (total_tm + total_te),
                error_estimate=pref * total_err)
        worst = [heapq.heappop(heap) for _ in range(min(8, len(heap)))]
        children = []
        for neg_e, _, (a0, a1, b0, b1), vtm, vte in worst:
            total_tm -= vtm
            total_te -= vte
            total_err += neg_e  # neg_e = -err
            am, bm = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
            children += [(a0, am, b0, bm), (a0, am, bm, b1),
                         (am, a1, b0, bm), (am, a1, bm, b1)]
        val_tm, val_te, err = _eval_rects(model, gap, children)
        evals += 225 * len(children)
        for i, r in enumerate(children):
            heapq.heappush(heap, (-err[i], evals + i, r, val_tm[i], val_te[i]))
        total_tm += float(val_tm.sum())
        total_te += float(val_te.sum())
        total_err += float(err.sum())

    pref = HBAR * C_LIGHT / (32.0 * math.pi ** 2 * gap ** 3)
    return ZeroTempResult(f0=pref * (total_tm + total_te),
                          te_part=pref * total_te,
                          tm_part=pref * total_tm,
                          error_estimate=pref * total_err,
                          evaluations=evals)


def ideal_metal_T0(gap: float) -> float:
    """Closed form -pi^2 hbar c / 720 a^3 for perfectly reflecting plates."""
    if not gap > 0.0:
        raise ValueError(f"gap must be > 0 m, got {gap}")
    return -math.pi ** 2 * HBAR * C_LIGHT / (720.0 * gap ** 3)
