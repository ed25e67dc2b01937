"""Vectorized panel quadrature and numerically safe exponential kernels.

Everything downstream integrates smooth integrands over graded panel
meshes, except the Matsubara terms, the zero mode included, which
``core`` integrates by its exp-sinh rule. Two panel rules are provided:

* a 7/15 Gauss-Kronrod pair, used by the other library integrals (the
  panels of the integral over the Matsubara index, of the thermal
  shifts and of ``core._refine_mode``, and the numerical slope constant
  ``asymptotics.te_slope_integral``);
* plain Gauss-Legendre panels, used by no library path: only the
  tests' dense reference meshes, which share no rule with the library,
  call them.

Meshes are built row-wise: ``breaks`` with shape (R, P+1) produce node
and weight matrices of shape (R, P*n) so a whole batch of integrals is
one array evaluation. The Matsubara terms need no per-row mesh: each
row's rule is one of ``core``'s two exp-sinh tables shifted by the
row's lower limit. ``core`` adds each row's shift to the nodes and
contracts all rows of a table against the same weights, at most 64 rows
per evaluation to bound the working set.

``euler_maclaurin_endpoint`` is the one endpoint correction shared by
the sum-minus-integral engine of ``thermo`` and the Euler-Maclaurin
tail of the Matsubara sum in ``core``.

``_bisect_panels`` is the one panel-bisection loop. The T = 0 integral,
the Euler-Maclaurin tail and the thermal shifts run on it with at most
``_TAIL_PANEL_CAP`` panels, and ``adaptive_gk``, its two-channel front
end for ``core._refine_mode``, with at most ``_NODE_BUDGET // 15``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

# 15-point Kronrod extension of 7-point Gauss, on [-1, 1]
_GK15_X = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])

_GK15_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])

# embedded Gauss-7 weights, zero at Kronrod-only nodes
_G7_W = np.zeros(15)
_G7_W[1::2] = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]


@lru_cache(maxsize=8)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_nodes(breaks: np.ndarray, x: np.ndarray, *weight_sets: np.ndarray):
    """Map reference nodes and each weight set onto consecutive panels.

    breaks: (..., P+1) -> nodes, then one weight array per set, each
    with shape (..., P*n).
    """
    breaks = np.asarray(breaks, dtype=float)
    lo = breaks[..., :-1]
    hi = breaks[..., 1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    shape = breaks.shape[:-1] + (-1,)
    nodes = mid[..., :, None] + half[..., :, None] * x
    return (nodes.reshape(shape),
            *((half[..., :, None] * w).reshape(shape) for w in weight_sets))


def gk_panels(breaks: np.ndarray):
    """Gauss-Kronrod nodes plus both weight sets over panel meshes."""
    return _panel_nodes(breaks, _GK15_X, _GK15_WK, _G7_W)


def gl_panels(breaks: np.ndarray, n: int = 16):
    """Gauss-Legendre nodes and weights over panel meshes."""
    x, w = _leggauss(n)
    return _panel_nodes(breaks, x, w)


def log1mexp(w, out=None):
    """log(1 - exp(-w)) for w > 0, accurate at both ends.

    ``out`` may be ``w`` itself, which the result then overwrites.
    """
    w = np.asarray(w, dtype=float)
    if out is None:
        out = np.empty_like(w)
    # the two branches of the classic log1mexp switch, each ufunc
    # masked with where= rather than gathering and scattering subsets;
    # rows with y0 > ln 2 have no node on the expm1 branch
    small = w < math.log(2.0)
    large = ~small if small.any() else True
    with np.errstate(divide="ignore"):
        np.negative(w, out=out)
        np.expm1(out, out=out, where=small)
        np.exp(out, out=out, where=large)
        np.negative(out, out=out)
        np.log(out, out=out, where=small)
        np.log1p(out, out=out, where=large)
    return out


def inv_expm1(w, out=None):
    """1 / (exp(w) - 1) for w > 0, underflowing cleanly to zero.

    ``out`` may be ``w`` itself, which the result then overwrites.
    """
    w = np.asarray(w, dtype=float)
    if out is None:
        out = np.empty_like(w)
    with np.errstate(over="ignore"):
        np.expm1(w, out=out)
        return np.divide(1.0, out, out=out)


def euler_maclaurin_endpoint(h_near, big_m):
    """Endpoint correction and remainder bound of Euler-Maclaurin at M.

    ``h_near`` holds h at M-3 .. M+3 (unit spacing) along its first
    axis and ``big_m`` is M. With the correction,
    sum_{m>M} h(m) = Integral_M^inf h du - h(M)/2 + correction + R.
    The correction is -h'/12 + h'''/720 - h^(5)/30240 at M (Abramowitz
    & Stegun 23.1.30; DLMF 2.10(i)), each derivative from its 7-point
    central stencil. What R leaves is the rest of the series and the
    stencils' error, together about |h^(7)(M)|/1450. The 5-point h' of
    a shorter stencil alone would leave about |h^(5)(M)|/360.

    Returns (correction, bound on |R|). The bound is
    (|h^(5)(M)| + M |h^(6)(M)|)/30240, h^(6) from the 7-point sixth
    difference. For terms falling like e^{-kappa m}, |h^(5)|/30240
    exceeds the rest by about 1/(20 kappa^2). Near a zero of h^(5) the
    rest is still there; then M |h^(6)(M)| bounds the variation of
    h^(5) past M, as long as |h^(6)| falls at least like 1/u^2.
    """
    hm3, hm2, hm1, h0, hp1, hp2, hp3 = h_near
    d1 = (-hm3 + 9.0 * hm2 - 45.0 * hm1 + 45.0 * hp1 - 9.0 * hp2 + hp3) / 60.0
    d3 = (hm3 - 8.0 * hm2 + 13.0 * hm1 - 13.0 * hp1 + 8.0 * hp2 - hp3) / 8.0
    d5 = (-hm3 + 4.0 * hm2 - 5.0 * hm1 + 5.0 * hp1 - 4.0 * hp2 + hp3) / 2.0
    d6 = hm3 - 6.0 * hm2 + 15.0 * hm1 - 20.0 * h0 + 15.0 * hp1 - 6.0 * hp2 + hp3
    correction = -d1 / 12.0 + d3 / 720.0 - d5 / 30240.0
    return correction, (np.abs(d5) + big_m * np.abs(d6)) / 30240.0


def fsum(values) -> float:
    """Error-free accumulation of a 1-D collection of floats."""
    return math.fsum(np.asarray(values, dtype=float).ravel())


def _panel_gk(f, wk, wg):
    """Per-panel Kronrod value and |Kronrod - Gauss| of (panels, 15) values."""
    kronrod = (f * wk).sum(axis=-1)
    return kronrod, np.abs(kronrod - (f * wg).sum(axis=-1))


_TAIL_PANEL_CAP = 32  # panels of the T = 0 integral, the tail and the shifts
_NODE_BUDGET = 10_000  # nodes of the panels at which adaptive_gk gives up


def _bisect_panels(evaluate, lo, hi, target, fixed_extra=0.0, start=None,
                   cap=_TAIL_PANEL_CAP):
    """Integrate over the panels [lo, hi], bisecting until ``target`` is met.

    ``evaluate(lo, hi)`` returns per-panel (tm, te, gk_err, row_err) as
    ``core._tail_panels`` does (``thermo._t_panels``, ``adaptive_gk``);
    ``start``, when given, is that tuple for [lo, hi] already evaluated.
    ``target(tm, te, fixed)`` is the error allowed for the panel sums tm,
    te when the fixed part is ``fixed``. The error estimate is that
    fixed part, the rows' errors plus ``fixed_extra``, and the panels'
    quadrature errors ``gk_err``. Each round bisects the 4 panels with
    the largest ``gk_err``. It gives up when the fixed part alone misses
    the target, or at ``cap`` panels. Returns (tm, te, error, met,
    panels evaluated, (lo, hi, per-panel tuple)); raises
    ConvergenceError if a panel is not finite.
    """
    if start is None:
        start, evaluated = evaluate(lo, hi), lo.size
    else:
        evaluated = 0
    tm, te, gk_err, row_err = start
    while True:
        if not np.all(np.isfinite(tm + te)):
            raise ConvergenceError("panel integral is not finite",
                                   best_estimate=math.nan, error_estimate=math.inf)
        tm_sum, te_sum = fsum(tm), fsum(te)
        fixed = float(row_err.sum()) + fixed_extra
        allowed = target(tm_sum, te_sum, fixed)
        error = fixed + float(gk_err.sum())
        if error <= allowed or fixed > allowed or lo.size >= cap:
            return (tm_sum, te_sum, error, error <= allowed, evaluated,
                    (lo, hi, (tm, te, gk_err, row_err)))
        k = min(4, lo.size)  # bisect the k worst panels
        worst = np.argpartition(gk_err, -k)[-k:]
        mid = 0.5 * (lo[worst] + hi[worst])
        new_lo, new_hi = np.concatenate([lo[worst], mid]), np.concatenate([mid, hi[worst]])
        new = evaluate(new_lo, new_hi)
        evaluated += new_lo.size
        keep = np.ones(lo.size, dtype=bool)
        keep[worst] = False
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        tm, te, gk_err, row_err = (np.concatenate([old[keep], part])
                                   for old, part in zip((tm, te, gk_err, row_err), new))


def adaptive_gk(f, breaks, rel_tol: float):
    """Globally adaptive GK15 integration of two channels over initial panels.

    ``f`` maps an ndarray of abscissae to integrand values (tm, te) of
    its shape, None for a channel that is 0. ``_bisect_panels`` bisects
    until the summed |Kronrod - Gauss| meets rel_tol * |tm + te|, or
    raises ConvergenceError: with the best estimate once the panels hold
    ``_NODE_BUDGET`` nodes, without one when a panel is not finite.

    Returns (tm, te, error_estimate, evaluations).
    """
    breaks = np.asarray(breaks, dtype=float)

    def evaluate(lo, hi):
        nodes, wk, wg = gk_panels(np.stack([lo, hi], axis=-1))
        zero = np.zeros(lo.size)
        (tm, e_tm), (te, e_te) = ((zero, zero) if vals is None else _panel_gk(vals, wk, wg)
                                  for vals in f(nodes))
        return tm, te, e_tm + e_te, zero

    tm, te, error, met, panels, _ = _bisect_panels(
        evaluate, breaks[:-1], breaks[1:], lambda tm, te, _: rel_tol * abs(tm + te),
        cap=_NODE_BUDGET // 15)
    if not met:
        raise ConvergenceError(
            f"adaptive quadrature reached {_NODE_BUDGET} nodes "
            f"(error {error:.3e} on value {tm + te:.6e})",
            best_estimate=tm + te, error_estimate=error)
    return tm, te, error, 15 * panels
