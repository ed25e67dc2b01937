"""Vectorized panel quadrature and numerically safe exponential kernels.

Everything downstream integrates smooth integrands over graded panel
meshes. Two rules are provided:

* a 7/15 Gauss-Kronrod pair, used by every library integral
  (Matsubara terms, the panels of the integral over the Matsubara
  index and the numerical slope constant
  ``asymptotics.te_slope_integral``);
* plain Gauss-Legendre panels, used by no library path: only the
  tests' dense reference meshes, which share no rule with the library,
  call them.

Meshes are built row-wise: ``breaks`` with shape (R, P+1) produce node
and weight matrices of shape (R, P*n) so a whole batch of integrals is
one array evaluation. The Matsubara terms need no per-row mesh: every
row's panels are one reference table shifted by the row's lower limit,
so ``core`` builds that reference mesh once, at import, with
``gk_panels``, adds each row's shift to its nodes and contracts all
rows against the same (panels, 15) weight tables, at most 64 rows per
evaluation to bound the working set.

``euler_maclaurin_endpoint`` is the one endpoint correction shared by
the sum-minus-integral engine of ``thermo`` and the Euler-Maclaurin
tail of the Matsubara sum in ``core``.
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


_NODE_BUDGET = 10_000  # integrand values adaptive_gk may spend


def adaptive_gk(f, breaks, rel_tol: float):
    """Globally adaptive Gauss-Kronrod integration over initial panels.

    ``f`` must accept an ndarray of abscissae and return integrand
    values of the same shape. Bisects the worst panels until the summed
    error estimate meets rel_tol*|I| or ``_NODE_BUDGET`` nodes are
    spent, in which case a ConvergenceError carrying the best estimate
    is raised.

    Returns (value, error_estimate, evaluations).
    """
    breaks = np.asarray(breaks, dtype=float)
    lo = breaks[:-1].copy()
    hi = breaks[1:].copy()

    def eval_panels(plo, phi):
        nodes, wk, wg = gk_panels(np.stack([plo, phi], axis=-1))
        vals = f(nodes.ravel()).reshape(nodes.shape)
        v = np.sum(vals * wk, axis=-1)
        e = np.abs(v - np.sum(vals * wg, axis=-1))
        return v, e

    vals, errs = eval_panels(lo, hi)
    neval = lo.size * 15

    while True:
        total = fsum(vals)
        total_err = float(np.sum(errs))
        if total_err <= rel_tol * abs(total):
            return total, total_err, neval
        if neval >= _NODE_BUDGET:
            raise ConvergenceError(
                f"adaptive quadrature exhausted {_NODE_BUDGET} nodes "
                f"(error {total_err:.3e} on value {total:.6e})",
                best_estimate=total, error_estimate=total_err)
        k = min(8, errs.size)
        worst = np.argpartition(errs, -k)[-k:]
        plo, phi = lo[worst], hi[worst]
        mid = 0.5 * (plo + phi)
        new_lo = np.concatenate([plo, mid])
        new_hi = np.concatenate([mid, phi])
        new_vals, new_errs = eval_panels(new_lo, new_hi)
        neval += new_lo.size * 15
        keep = np.ones(lo.size, dtype=bool)
        keep[worst] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
