"""Lifshitz free energy and pressure of two parallel half-spaces.

The free energy per unit area at temperature T and gap a is the
Matsubara sum

    F = (k_B T / 8 pi a^2) * sum'_m [ S_TM(zeta_m) + S_TE(zeta_m) ],
    S_pol(zeta) = Integral_{y0}^{inf} y ln(1 - R_pol e^{-y}) dy,

with y = 2 q a, y0 = 2 a zeta / c, and the prime giving the m = 0 term
half weight. The squared reflection coefficients at imaginary frequency
zeta are

    A = R_TM = ((s - eps p) / (s + eps p))^2,
    B = R_TE = ((s - p) / (s + p))^2,
    s = sqrt(eps - 1 + p^2),  p = q c / zeta,

evaluated with the cancellation-free rewrites s - p = (eps-1)/(s+p) and
s - eps p = (eps-1)(1 - p s - p^2)/(s + p). The pressure follows from
P = -dF/da:

    P = -(k_B T / 8 pi a^3) * sum'_m Integral y^2 / (e^{y - ln R} - 1) dy.

The m = 0 term is the zeta = 0 row of the one row evaluator,
``mode_integrals``, and never a zeta -> 0 numerical limit: its
reflection coefficients are the analytic limits that each model gives
as ``zero_mode_log_reflection(q)`` (Drude-like metals lose the TE zero
mode, the plasma model keeps a q-dependent one).

Each y integral runs on a fixed rule shifted to its own y0. The zero
mode and rows with y0 < e^0.3 - 1 use the exp-sinh rule in x = y - y0
(Takahasi and Mori, Publ. RIMS 9, 721 (1974)), whose double-exponential
clustering at x -> 0 resolves the ln(1 - e^{-y}) endpoint layer: 106
nodes at y0 >= 1e-8, 212 below and for the zero mode. Rows past
e^0.3 - 1 use GK15 on a lean 11-panel mesh (165 nodes). A row's error
estimate comes from the rule's own coarser subrule (every other exp-sinh
node, or the Gauss nodes of each GK15 panel).

The sum is evaluated in blocks of terms sized from their decay,
e^{-kappa m} with kappa = 2 a zeta_1 / c. It stops at the first term
smaller than the one before (or exactly zero, once it underflows) for
which both the term and its geometric tail are at most tol |sum| / 10,
so a sum of zeros (R identically 0) stops too; this covers room
temperature and most sums above a few kelvin. A sum predicted to stop
by m = 192 runs its first block to the prediction (8 to 64 terms). A
longer one (cryogenic temperatures, where a direct sum needs 10^3 to
10^5 terms) keeps m = 0..M explicit, at the first rung M of the ladder
32, 64, 189 whose remainder bound meets tol, and gets the rest from the
Euler-Maclaurin formula

    sum_{m>M} h(m) = Integral_M^inf h(u) du - h(M)/2 - h'(M)/12
                     + h'''(M)/720 - h^(5)(M)/30240,

with h = S_TM + S_TE at zeta_1 u and the derivatives from 7-point
stencils on h(M - 3 .. M + 3). The integral takes 60 to 200 more rows
of the same evaluator, so its cost does not grow as T falls. Its panels
start on fixed breaks in v = ln(1 + 2 a zeta / c) above v(M), 8 of them
at tol >= 1e-8 and 14 below (``_start_breaks``), and are integrated by
GK15 in t = sqrt(v): the u^{3/2} term of a Drude-like TE channel at
small u, a v^{3/2} endpoint in v, is t^3 in t. A sum predicted to stop
directly but still running at m = 192 tries the top rung. If the error
estimate of the tail misses tol at every rung it tries (in practice
only for tol below about 1e-12), the direct sum goes on instead.

The tail's panels and start breaks (``_tail_panels``, ``_start_breaks``)
also give the T = 0 free energy in ``zero_temp``: the same integral over
the continuous index, from u = 0 with zeta_1 = c / 2a. Both bisect on
``quadrature._bisect_panels``, as do the thermal shifts' t panels, whose
h(u) takes its rows, u = 0 included, from ``mode_integrals`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import C_LIGHT, K_BOLTZMANN, matsubara_frequency
from .dispersion import DispersionModel
from .errors import ConvergenceError
from .quadrature import (_bisect_panels, _panel_gk, adaptive_gk, euler_maclaurin_endpoint,
                         fsum, gk_panels, inv_expm1, log1mexp)


@dataclass(frozen=True)
class IdealMetal:
    """Perfect reflector: A = B = 1 at every frequency including m = 0."""

    def zero_mode_log_reflection(self, q):
        # two arrays, not one twice: the kernels overwrite ln A and ln B in place
        return np.zeros_like(q), np.zeros_like(q)


@dataclass(frozen=True)
class TmOnlyIdealMetal:
    """Forced A = 1, B = 0 at every frequency; isolates the TM channel."""

    def zero_mode_log_reflection(self, q):
        return np.zeros_like(q), None


ReflectionModel = Union[DispersionModel, IdealMetal, TmOnlyIdealMetal]


@dataclass(frozen=True)
class PlateSystem:
    """Two identical parallel half-spaces separated by vacuum."""

    gap: float
    temperature: float
    model: ReflectionModel

    def __post_init__(self):
        if not (self.gap > 0.0 and math.isfinite(self.gap)):
            raise ValueError(f"gap must be finite and > 0 m, got {self.gap}")
        if not (self.temperature > 0.0 and math.isfinite(self.temperature)):
            raise ValueError(
                f"temperature must be finite and > 0 K, got {self.temperature}")


@dataclass(frozen=True)
class ReflectionPair:
    """Squared TM/TE reflection coefficients (A, B)."""

    a_tm: object
    b_te: object


@dataclass(frozen=True)
class FreeEnergyResult:
    """Free energy per unit area, J/m^2.

    ``terms`` is a read-only float64 array of the explicit terms
    m = 0 .. ``m_max`` (m = 0 with its half weight); ``total``,
    ``te_part`` and ``tm_part`` also hold the Euler-Maclaurin tail when
    one was used. ``tail_estimate`` has the sign of the terms: it is the
    geometric estimate of the dropped tail when the direct sum stopped,
    or the error estimate of the Euler-Maclaurin tail (``m_max`` is then
    the rung M where the tail starts: 32, 64 or 189).
    """

    total: float
    te_part: float
    tm_part: float
    terms: np.ndarray
    m_max: int
    tail_estimate: float


@dataclass(frozen=True)
class PressureResult:
    """Casimir pressure, Pa; the fields mean what they do in FreeEnergyResult."""

    pressure: float
    te_part: float
    tm_part: float
    m_max: int
    tail_estimate: float


@dataclass(frozen=True)
class CoefficientSurface:
    zeta: np.ndarray
    kperp: np.ndarray
    a_tm: np.ndarray
    b_te: np.ndarray


# graded start breaks of _refine_mode, as offsets from the row's y0: the
# deep geometric section resolves the ln(1 - e^{-y}) endpoint of
# near-unity reflectors at small y0, the linear section the exponential
# decay out to y0 + 54.
_Y_OFFSETS = np.array([
    0.0, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4,
    1e-3, 3e-3, 1e-2, 0.03, 0.1, 0.3, 0.6, 1.0, 1.6, 2.5,
    4.0, 6.0, 8.5, 11.5, 15.0, 19.0, 24.0, 30.0, 37.0, 45.0, 54.0,
])

# GK15 on 11 panels at these offsets from y0 (165 nodes), for rows with
# y0 >= _LEAN_Y0: past the endpoint layer these rows agree with a
# 600-panel reference to a few 1e-15, and their error estimates stay
# below 5e-14 (metals) and 5e-13 (dielectrics) of the row's TM + TE
# value. A 9-panel mesh estimates up to 2e-11, which would send rows to
# _refine_mode at tight tol. The switch sits at v = ln(1 + y0) = 0.3, a
# break of _TAIL_BREAKS, so no tail panel straddles the roundoff-level
# jump between the rules.
_LEAN_Y0 = math.expm1(0.3)
_LEAN_MESH = gk_panels(np.array([0.0, 0.1, 0.3, 0.8, 1.6, 3.5, 6.5, 10.5, 16.0, 24.0, 36.0,
                                 54.0]))


def _exp_sinh(h: float):
    """Exp-sinh rule on [0, inf): nodes x_k = exp((pi/2) sinh(k h)), weights
    h (pi/2) cosh(k h) x_k, for integer k with k h in [-4.5, 3.2] and
    x_k < 120 (past it the kernels are below e^-120 of their peak). The
    third array holds the 2h rule on the same nodes: twice the weight at
    even k, 0 at odd k. Returns (x, w, w_2h)."""
    k = np.arange(round(-4.5 / h), math.floor(3.2 / h) + 1)
    t = k * h  # exact multiples: a float np.arange moves every row by ~6e-15
    x = np.exp(0.5 * math.pi * np.sinh(t))
    w = (h * 0.5 * math.pi) * np.cosh(t) * x
    keep = x < 120.0
    return x[keep], w[keep], np.where(k % 2 == 0, 2.0 * w, 0.0)[keep]


# Rows with y0 < _LEAN_Y0, and the zero mode, integrate by exp-sinh in
# x = y - y0. The double-exponential clustering of nodes at x -> 0
# resolves the ln(1 - e^{-y}) endpoint layer and a Drude TE row's turn
# at y ~ y0 sqrt(eps - 1) without graded panels. Against 600-panel GK
# references (metals, dielectrics and the 601-row table at 0.1-10 um,
# both kinds) every row is within 2.0e-15 of its TM + TE value, and so
# is each channel that holds at least 1e-5 of it. h = 0.06 (106 nodes)
# serves y0 >= _FINE_Y0; below it a Drude TE channel on h = 0.06 is
# 1.9e-11 of itself off at 1 um and y0 = 1e-10, so h = 0.03 (212 nodes)
# serves those rows and the zero mode. The TE channel of a dielectric at
# small y0, about y0^2 of its row, has its structure at x ~ y0, which
# neither step resolves: eps 3 reads 4.4e-5 of that channel off at
# y0 = 1e-8.
_FINE_Y0 = 1e-8
_DE_MESH = _exp_sinh(0.06)
_FINE_DE_MESH = _exp_sinh(0.03)

# rows per evaluation in mode_integrals, so that a (rows, 212) float
# temporary is 0.1 MB. Of caps from 32 to 1024 timed on the 76k-term
# pressure sum at 0.2 um and 0.1 K, 32 and 64 were fastest; larger caps
# were slower, 256 by about 25%.
_ROW_CAP = 64


def _gk_integrate(values, wk, wg):
    """Row integrals over a reference mesh with a per-panel Kronrod error model.

    ``values`` has shape (R, nodes) and is overwritten (with its absolute
    values); ``wk`` and ``wg`` are the mesh's Kronrod and Gauss weights,
    15 per panel. Returns (integrals, errors), each (R,).
    """
    wk, wg = wk.reshape(-1, 15), wg.reshape(-1, 15)
    v = values.reshape(values.shape[:-1] + wk.shape)
    k_panel = np.einsum("rpn,pn->rp", v, wk)
    g_panel = np.einsum("rpn,pn->rp", v, wg)
    scale = np.einsum("rpn,pn->rp", np.abs(v, out=v), wk)
    diff = np.abs(k_panel - g_panel)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(scale > 0.0, 200.0 * diff / np.maximum(scale, 1e-300), 0.0)
    err_panel = scale * np.minimum(1.0, rel ** 1.5)
    return k_panel.sum(axis=-1), err_panel.sum(axis=-1)


def _de_integrate(values, w, w_2h):
    """Row integrals of an ``_exp_sinh`` rule with their error estimates.

    ``values`` has shape (R, nodes) and is overwritten (with its absolute
    values). The error of a row is min(d, d^2 / s) + 16 eps s, with
    d = |I_h - I_2h| and s = sum |w f|: the error of a double-exponential
    rule roughly squares as h halves, and 16 eps s covers the roundoff
    (at 1 eps s the estimate fell below a measured 2e-15). The estimates
    of a row's two channels bound its TM + TE error; a TE channel that
    holds under 1e-5 of its row (a dielectric or a lossy metal at small
    y0) can be off by more than its own. Each row is contracted on its
    own (``np.einsum``, not BLAS), so a row's value does not depend on
    its batch. Returns (integrals, errors), each (R,).
    """
    integral = np.einsum("rn,n->r", values, w)
    d = np.abs(integral - np.einsum("rn,n->r", values, w_2h))
    s = np.einsum("rn,n->r", np.abs(values, out=values), w)
    error = np.minimum(d, d * (d / np.maximum(s, np.finfo(float).tiny)))
    return integral, error + 16.0 * np.finfo(float).eps * s


def _channels(polarization: str):
    """(TM asked for, TE asked for) of "both", "tm" or "te"."""
    if polarization not in ("both", "tm", "te"):
        raise ValueError(f"polarization must be both/tm/te, got {polarization!r}")
    return polarization != "te", polarization != "tm"


def _log_reflection(model: ReflectionModel, zeta_col, p, tm=True, te=True):
    """(ln A, ln B) on the grid of p = q c / zeta >= 1; None for R identically 0
    or for a channel not asked for (``tm``, ``te``), which is not computed."""
    if isinstance(model, (IdealMetal, TmOnlyIdealMetal)):
        # R does not depend on zeta or q: the zero mode on the grid
        ln_a, ln_b = model.zero_mode_log_reflection(p)
        return (ln_a if tm else None), (ln_b if te else None)
    em1 = np.asarray(model.eps_minus_one(zeta_col), dtype=float)
    with np.errstate(divide="ignore"):
        ln_em1 = np.log(em1)
    # Grid-sized arrays are updated in place: each fresh temporary of a
    # (rows, nodes) batch costs page faults that outweigh the arithmetic.
    shape = np.broadcast_shapes(em1.shape, np.shape(p))
    s, sp = np.empty(shape), np.empty(shape)
    np.multiply(p, p, out=s)
    s += em1
    np.sqrt(s, out=s)
    np.add(s, p, out=sp)
    ln_a = ln_b = None
    if tm:
        # ln A = 2 [ln(eps-1) + ln((p sp - 1) / (sp (s + eps p)))]: one log
        # of the ratio instead of ln(p sp - 1) - ln sp - ln(s + eps p)
        ln_a = np.empty(shape)
        np.multiply(1.0 + em1, p, out=ln_a)
        s += ln_a
        s *= sp
        np.multiply(p, sp, out=ln_a)
        ln_a -= 1.0
        ln_a /= s
        np.log(ln_a, out=ln_a)
        ln_a += ln_em1
        ln_a *= 2.0
    if te:
        # ln B = 2 [ln(eps-1) - 2 ln sp]
        ln_b = np.log(sp, out=sp)
        ln_b *= 2.0
        np.subtract(ln_em1, ln_b, out=ln_b)
        ln_b *= 2.0
    return ln_a, ln_b


def reflection_coefficients(model: ReflectionModel, zeta, q) -> ReflectionPair:
    """Squared reflection coefficients A (TM) and B (TE) at (zeta, q).

    Requires q >= zeta/c, i.e. points inside the integration domain of
    the Matsubara sum. zeta and q broadcast together.
    """
    zeta = np.asarray(zeta, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.all(np.isfinite(zeta)) and np.all(np.isfinite(q))):
        raise ValueError("zeta and q must be finite")
    if np.any(zeta <= 0.0):
        raise ValueError("zeta must be > 0; the m = 0 limits are the model's "
                         "zero_mode_log_reflection(q)")
    if np.any(q * C_LIGHT < zeta * (1.0 - 1e-12)):
        raise ValueError("q must be >= zeta/c (evanescent-side domain)")
    p = np.maximum(q * C_LIGHT / zeta, 1.0)
    # a None log is a channel with R identically 0
    a, b = (np.zeros(p.shape) if ln is None else np.exp(ln)
            for ln in _log_reflection(model, zeta, p))
    if a.ndim == 0:
        return ReflectionPair(float(a), float(b))
    return ReflectionPair(a, b)


# The kernels work in the ln_r buffer, which they overwrite: each fresh
# grid-sized temporary of a (rows, nodes) batch costs page faults. Callers
# hand over arrays they own (fresh from the ln R functions), never None.
def _energy_kernel(y, ln_r):
    w = np.subtract(y, ln_r, out=ln_r)
    log1mexp(w, out=w)
    w *= y
    return w


def _pressure_kernel(y, ln_r):
    w = np.subtract(y, ln_r, out=ln_r)
    inv_expm1(w, out=w)
    w *= y * y
    return w


# kind -> (kernel, power p of the gap, sign) of the reduced integrals;
# the sum's prefactor is sign * k T / (8 pi a^p)
_KINDS = {
    "energy": (_energy_kernel, 2, 1.0),
    "pressure": (_pressure_kernel, 3, -1.0),
}


def _kernel(kind: str, gap: float):
    """The kernel of ``kind``, once ``kind`` and ``gap`` are checked."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be energy/pressure, got {kind!r}")
    if not (gap > 0.0 and math.isfinite(gap)):
        raise ValueError(f"gap must be finite and > 0 m, got {gap}")
    return _KINDS[kind][0]


def mode_integrals(model: ReflectionModel, gap: float, zetas, kind: str = "energy",
                   polarization: str = "both"):
    """Reduced integrals S_TM, S_TE over a 1-D batch of Matsubara frequencies.

    Returns (s_tm, s_te, err_tm, err_te), each shaped like ``zetas``.
    ``polarization`` ("both", "tm" or "te") names the channels computed;
    one not asked for is 0 with error 0, as one with R identically 0 is.
    Row r is integrated on a reference rule shifted to start at its own
    y0 = 2 a zeta_r / c (nodes y0 + reference nodes, weights shared by
    all rows): exp-sinh with h = 0.03 when y0 < ``_FINE_Y0``, with
    h = 0.06 when y0 < ``_LEAN_Y0``, and the lean GK15 mesh past that.
    A zeta = 0 row, the full-weight zero mode, is a group of its own on
    h = 0.03 from y = 0, with the model's zero_mode_log_reflection(y / 2a).
    Each rule is a smooth function of zeta, and a switch changes a row
    by roundoff only; the one at ``_LEAN_Y0`` lies at v = ln(1 + y0) =
    0.3, a panel break of the Euler-Maclaurin tail. So these values can
    be differenced between a sum over integers and an integral over the
    continuous index without quadrature artefacts. The rows of each rule
    are evaluated at most ``_ROW_CAP`` at a time to bound the working
    set and scattered back into place; a row's value does not depend on
    the batch it is in. ValueError is raised before any row for an
    unknown ``kind`` or ``polarization``, a gap that is not finite and
    > 0, or a zeta that is not finite and >= 0.
    """
    tm, te = _channels(polarization)
    kernel = _kernel(kind, gap)
    zetas = np.atleast_1d(np.asarray(zetas, dtype=float))
    # ndarray methods: np.all and np.flatnonzero add 1-4 us of dispatch each
    if not (np.isfinite(zetas) & (zetas >= 0.0)).all():
        raise ValueError("zetas must be finite and >= 0 (0 is the zero mode)")
    out = np.zeros((4,) + zetas.shape)
    y0s = (2.0 * gap / C_LIGHT) * zetas
    zero = zetas == 0.0
    for mesh, group in ((_FINE_DE_MESH, zero),
                        (_FINE_DE_MESH, ~zero & (y0s < _FINE_Y0)),
                        (_DE_MESH, (_FINE_Y0 <= y0s) & (y0s < _LEAN_Y0)),
                        (_LEAN_MESH, y0s >= _LEAN_Y0)):
        ref_nodes, *weights = mesh
        integrate = _gk_integrate if mesh is _LEAN_MESH else _de_integrate
        group = group.nonzero()[0]
        for lo in range(0, group.size, _ROW_CAP):
            rows = group[lo:lo + _ROW_CAP]
            y0 = y0s[rows, None]
            nodes = y0 + ref_nodes
            if zero[rows[0]]:
                ln_a, ln_b = model.zero_mode_log_reflection(nodes / (2.0 * gap))
                logs = (ln_a if tm else None), (ln_b if te else None)
            else:
                logs = _log_reflection(model, zetas[rows, None], nodes / y0, tm, te)
            for pol, ln_r in enumerate(logs):  # rows pol and pol + 2 of out: S, error
                if ln_r is not None:
                    out[pol::2, rows] = integrate(kernel(nodes, ln_r), *weights)
    return tuple(out)


def zero_mode_integrals(model: ReflectionModel, gap: float, kind: str = "energy",
                        polarization: str = "both"):
    """Full-weight m = 0 reduced integrals (S0_TM, S0_TE): the zeta = 0 row
    of ``mode_integrals``, as floats and without its error estimates."""
    s_tm, s_te, _, _ = mode_integrals(model, gap, 0.0, kind, polarization)
    return float(s_tm[0]), float(s_te[0])


def _refine_mode(model, gap, zeta, kind, rel_tol):
    """Scalar fallback: re-integrate one Matsubara term to rel_tol * |S_TM + S_TE|.

    Returns (s_tm, s_te); a channel with R identically 0 integrates to 0.
    """
    kernel = _KINDS[kind][0]
    y0 = 2.0 * gap * zeta / C_LIGHT

    def f(y):
        return tuple(None if ln_r is None else kernel(y, ln_r)
                     for ln_r in _log_reflection(model, zeta, np.maximum(y / y0, 1.0)))

    s_tm, s_te, _, _ = adaptive_gk(f, y0 + _Y_OFFSETS, rel_tol)
    return s_tm, s_te


def _first(mask) -> int:
    """Index of the first True entry of a 1-D mask, or its length."""
    return int(np.argmax(mask)) if mask.any() else mask.size


# Euler-Maclaurin tail, as the module docstring gives it: rungs M, with
# the stencil h(M - 3 .. M + 3) in the block that ends at M + 3 (the top
# rung's at _EM_SWITCH), and the breaks in v = ln(1 + y0), y0 = kappa u,
# of its integral (GK15 in t = sqrt(v), see _tail_panels). The bound on
# the remainder (quadrature.euler_maclaurin_endpoint) falls fast with M,
# and a rung that misses tol costs no tail row. The breaks end at
# y0 = 60: past that the terms are below e^-60 of the first ones.
_EM_RUNGS = (32, 64, 189)
_EM_SWITCH = _EM_RUNGS[-1] + 3
_TAIL_BREAKS = np.array([1e-4, 1e-3, 0.01, 0.05, 0.15, 0.3, 0.5, 0.8,
                         1.2, 1.7, 2.3, 3.0, 3.5, math.log(61.0)])
# At tol >= _COARSE_TOL the first round of quadrature._bisect_panels
# (at most quadrature._TAIL_PANEL_CAP = 32 panels) runs on the 8 breaks
# {1e-3, 0.05, 0.3, 0.8, 1.7, 2.3, 3.5, ln 61} of _TAIL_BREAKS
# (v = 0.3, the lean/exp-sinh switch, among them). For the T = 0 integral
# of Drude, plasma, ideal and tabulated metals at 0.2-8 um they estimate
# at most 1.5e-9 of it and move it by at most 1.4e-13 relative, so tol
# 1e-8 needs no bisection. Tail-path sums at 0.2-4 um, 0.1-4 K move by
# at most 1e-15 relative (Drude, plasma) and 2.1e-13 (601-row table).
# Below 1e-8 the 14 breaks cost fewer rows than bisecting the 8 (a
# switch at 1e-9 cost room-temperature sums 5% more rows).
_COARSE = [1, 3, 5, 7, 9, 10, 12, 13]
_COARSE_TOL = 1e-8


def _start_breaks(tol: float, v_lo: float):
    """v_lo, then the breaks in v above it of the first round at ``tol``."""
    start = _TAIL_BREAKS[_COARSE] if tol >= _COARSE_TOL else _TAIL_BREAKS
    return np.concatenate(([v_lo], start[start > v_lo]))


def _tail_panels(model, gap, zeta1, kind, lo, hi):
    """Tail integral over the v panels [lo, hi], one entry per panel.

    Each panel is integrated by GK15 in t = sqrt(v) on [sqrt(lo),
    sqrt(hi)], with v = t^2 and u = expm1(v) / kappa. A Drude-like
    metal's TE term carries a u^{3/2} part at u -> 0 (the origin of the
    paper's T^{5/2} term), a v^{3/2} endpoint that GK15 in v resolves
    only after several bisections; in t it is t^3, a polynomial. The
    panel ends, and so the bisection, stay in v.

    Returns (tm, te, gk_err, row_err): Kronrod values, |Kronrod - Gauss|
    summed over both polarizations, and the rows' own quadrature errors
    weighted by |weight * du/dt|.
    """
    kappa = 2.0 * gap * zeta1 / C_LIGHT
    t, wk, wg = gk_panels(np.sqrt(np.stack([lo, hi], axis=-1)))
    v = t * t
    jac = 2.0 * t * np.exp(v) / kappa  # du/dt
    s_tm, s_te, e_tm, e_te = mode_integrals(
        model, gap, zeta1 * (np.expm1(v) / kappa).ravel(), kind)
    tm, gk_tm = _panel_gk(s_tm.reshape(v.shape) * jac, wk, wg)
    te, gk_te = _panel_gk(s_te.reshape(v.shape) * jac, wk, wg)
    row_err = (np.abs(wk * jac) * (e_tm + e_te).reshape(v.shape)).sum(axis=-1)
    return tm, te, gk_tm + gk_te, row_err


def _em_tail(model, gap, zeta1, kind, tol, big_m, h_tm, h_te, head, kept):
    """Euler-Maclaurin tail sum_{m > big_m} in reduced units.

    ``h_tm``, ``h_te`` hold the terms at M-3 .. M+3 and ``head`` the sum
    through M; ``kept`` gives the partial sum reported if a tail row is
    not finite. Returns (tail_tm, tail_te, error), or None when the
    remainder bounds of the two polarizations already miss
    tol * |head| / 10 (checked before any tail row), or when the error
    estimate (Kronrod - Gauss, row errors, remainder) misses
    tol * |total| / 10 within the panel budget.
    """
    c_tm, rest_tm = euler_maclaurin_endpoint(h_tm, big_m)
    c_te, rest_te = euler_maclaurin_endpoint(h_te, big_m)
    remainder = float(rest_tm + rest_te)
    if not remainder <= tol * abs(head) / 10.0:
        return None
    breaks = _start_breaks(tol, math.log1p(2.0 * gap * zeta1 * big_m / C_LIGHT))
    if breaks.size < 2:
        return None
    ends_tm, ends_te = c_tm - 0.5 * h_tm[3], c_te - 0.5 * h_te[3]
    try:
        tm, te, error, met, _, _ = _bisect_panels(
            lambda lo, hi: _tail_panels(model, gap, zeta1, kind, lo, hi),
            breaks[:-1], breaks[1:],
            lambda tm, te, _: tol * abs(head + (tm + ends_tm) + (te + ends_te)) / 10.0,
            remainder)
    except ConvergenceError:
        _raise_non_finite(kept, "Euler-Maclaurin tail")
    return (tm + ends_tm, te + ends_te, error) if met else None


def _predicted_stop(kappa: float, tol: float) -> int:
    """Index near which the direct sum stops, capped at _EM_SWITCH + 1.

    Terms fall like r^m, r = e^{-kappa}, kappa = 2 a zeta_1 / c, and the
    sum stops once a term and its geometric tail r/(1-r) times it are
    below tol |sum| / 10. With L = ln(10/tol) + max(0, ln(r/(1-r))) that
    predicts the stop near m = L / kappa; the y^2 (pressure) or y
    (energy) factor of the kernels delays it, which 2 ln L / kappa more
    covers.
    """
    big_l = math.log(10.0 / tol) + max(0.0, -kappa - math.log(-math.expm1(-kappa)))
    return math.ceil(min((big_l + 2.0 * math.log(big_l)) / kappa, _EM_SWITCH + 1))


def _block_ends(predicted: int):
    """Last index m of each block of the sum, in order.

    A sum predicted to run past _EM_SWITCH ends its blocks at M + 3 for
    each rung M, so the stencil rows M - 3 .. M + 3 of a rung share a
    block. A shorter one ends its first block at the prediction (8 to
    64 rows), its second there too if that lies below _EM_SWITCH - 6,
    then at _EM_SWITCH, whose block holds the top rung's stencil. After
    that blocks double up to 1024 rows. Rows do not depend on their
    block, so the prediction only sizes blocks and picks the rungs to
    try: the stop rule and the remainder decide.
    """
    if predicted > _EM_SWITCH:
        yield from (rung + 3 for rung in _EM_RUNGS)
    else:
        first = min(max(predicted, 8), 64)
        yield first
        if first < predicted < _EM_SWITCH - 6:
            yield predicted
        yield _EM_SWITCH
    end, block = _EM_SWITCH + 256, 512
    while True:
        yield end
        end, block = end + block, min(2 * block, 1024)


def _matsubara_sum(system: PlateSystem, kind: str, tol: float, m_max: int):
    """Shared sum driver for free energy and pressure.

    Returns (terms_tm, terms_te, last_m, tail, (tail_tm, tail_te)) in
    reduced S units; prefactors are applied by the callers. The terms
    are the explicit ones, m = 0 .. last_m.

    Each block of terms, sized by ``_block_ends``, is decided in one
    pass. The first block starts at m = 0, the zeta = 0 row of
    ``mode_integrals``, whose value and error take the half weight.
    First every row m > 0 whose error estimate misses tol / 10 of its
    value (floored at 1e-4 of the running sum before it) is refined by
    ``_refine_mode``; a refined row changes only the running sums at and
    after it, so no decision before it moves. Then the running sum is a
    cumsum seeded with the sum so far (sequential, so it equals
    term-by-term accumulation, and no value depends on where blocks
    end), and the first row that stops the sum or is not finite decides
    what happens. A sum stops at a term smaller than the one before, or
    at one that underflowed to exactly 0, when the term and the
    geometric tail it implies are both at most tol |sum| / 10; it then has
    a zero (tail_tm, tail_te) and ``tail`` is that geometric tail. A sum
    still running at the end M + 3 of a rung's block (every rung of
    _EM_RUNGS when the prediction passes _EM_SWITCH, else only the top
    one), with m_max that far, tries the Euler-Maclaurin tail at M: if
    it meets tol, the sum ends at last_m = M with the tail in (tail_tm,
    tail_te) and its error estimate as ``tail``; if not, the direct sum
    goes on. ``tail`` carries the sign of the terms. A sum that reaches
    ``m_max`` raises ConvergenceError with the geometric tail of its
    last term as the error estimate (infinite if that term did not fall).
    """
    model, a, temp = system.model, system.gap, system.temperature
    quad_tol = tol / 10.0
    # a NaN term before m = 0 never falls, so m_max = 0 reports an infinite error
    kept, acc, prev_total, last_tail, m_next = [], 0.0, math.nan, math.inf, 0
    zeta1 = matsubara_frequency(1, temp)
    predicted = _predicted_stop(2.0 * a * zeta1 / C_LIGHT, tol)
    rungs = _EM_RUNGS if predicted > _EM_SWITCH else _EM_RUNGS[-1:]
    ends = _block_ends(predicted)

    while m_next <= m_max:
        ms = np.arange(m_next, min(next(ends), m_max) + 1)
        s_tm, s_te, e_tm, e_te = mode_integrals(model, a, zeta1 * ms, kind)
        if ms[0] == 0:  # the zero mode's half weight, on its values and errors
            s_tm[0], s_te[0], e_tm[0], e_te[0] = (0.5 * c[0] for c in (s_tm, s_te, e_tm, e_te))
        totals = s_tm + s_te
        before = np.cumsum(np.concatenate(([acc], totals)))[:-1]
        refine = e_tm + e_te > quad_tol * np.maximum(np.abs(totals), 1e-4 * np.abs(before))
        for i in np.flatnonzero(refine & (ms > 0)):  # _refine_mode needs y0 > 0
            s_tm[i], s_te[i] = _refine_mode(model, a, float(zeta1 * ms[i]), kind, quad_tol)
        totals = s_tm + s_te
        after = np.cumsum(np.concatenate(([acc], totals)))[1:]
        prevs = np.concatenate(([prev_total], totals[:-1]))
        mags = np.abs(totals)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = mags / np.abs(prevs)
            tails = np.where(mags > 0.0, mags * ratios / (1.0 - ratios), 0.0)
        # a term that underflowed to 0 stops the sum too: 0 < 0 fails
        falling = (mags < np.abs(prevs)) | (mags == 0.0)
        stop = ((ms > 5) & falling
                & (np.maximum(mags, tails) <= tol * np.abs(after) / 10.0))
        i_stop, i_bad = _first(stop), _first(~np.isfinite(totals))
        if i_bad < i_stop:
            kept.append((s_tm[:i_bad], s_te[:i_bad]))
            _raise_non_finite(kept, f"term m = {ms[i_bad]}")
        if i_stop < ms.size:
            kept.append((s_tm[:i_stop + 1], s_te[:i_stop + 1]))
            terms_tm, terms_te = (np.concatenate(c) for c in zip(*kept))
            return (terms_tm, terms_te, int(ms[i_stop]),
                    math.copysign(tails[i_stop], totals[i_stop]), (0.0, 0.0))
        big_m = int(ms[-1]) - 3
        if big_m in rungs:
            i = big_m - int(ms[0])  # row of M in this block
            head = kept + [(s_tm[:i + 1], s_te[:i + 1])]
            em = _em_tail(model, a, zeta1, kind, tol, big_m, s_tm[i - 3:i + 4],
                          s_te[i - 3:i + 4], after[i], head)
            if em is not None:
                tail_tm, tail_te, error = em
                terms_tm, terms_te = (np.concatenate(c) for c in zip(*head))
                return (terms_tm, terms_te, big_m,
                        math.copysign(error, totals[i]), (tail_tm, tail_te))
        kept.append((s_tm, s_te))
        acc, prev_total, m_next = after[-1], totals[-1], int(ms[-1]) + 1
        last_tail = tails[-1] if mags[-1] < abs(prevs[-1]) else math.inf

    raise ConvergenceError(
        f"Matsubara sum not converged after m = {m_max}",
        best_estimate=_partial_sum(kept), error_estimate=last_tail)


def _partial_sum(kept) -> float:
    if not kept:
        return 0.0
    terms_tm, terms_te = zip(*kept)
    return fsum(np.concatenate(terms_tm)) + fsum(np.concatenate(terms_te))


def _raise_non_finite(kept, what: str):
    """Stop on a non-finite term or tail; the estimate sums the finite terms before it."""
    raise ConvergenceError(f"Matsubara {what} is not finite",
                           best_estimate=_partial_sum(kept), error_estimate=math.inf)


def _prefactor(system: PlateSystem, kind: str) -> float:
    """sign k T / (8 pi a^p) of ``_KINDS``: k T / 8 pi a^2 or -k T / 8 pi a^3."""
    _, power, sign = _KINDS[kind]
    return sign * (K_BOLTZMANN * system.temperature) / (8.0 * math.pi * system.gap ** power)


def _thermal_sum(system: PlateSystem, kind: str, tol: float, m_max: int):
    """Free energy (``kind`` "energy") or pressure ("pressure") from the sum.

    Applies ``_prefactor`` to the reduced terms, tail and error estimates
    of ``_matsubara_sum``.
    """
    if not 0.0 < tol <= 1e-4:
        raise ValueError(f"tol must be in (0, 1e-4], got {tol}")
    if not m_max >= 0:  # NaN fails too
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    pref = _prefactor(system, kind)
    try:
        terms_tm, terms_te, last_m, tail, (tail_tm, tail_te) = _matsubara_sum(
            system, kind, tol, m_max)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), best_estimate=pref * exc.best_estimate,
                               error_estimate=abs(pref) * exc.error_estimate) from None
    tm = pref * fsum(np.append(terms_tm, tail_tm))
    te = pref * fsum(np.append(terms_te, tail_te))
    if kind == "pressure":
        return PressureResult(pressure=tm + te, te_part=te, tm_part=tm,
                              m_max=last_m, tail_estimate=pref * tail)
    terms = pref * (terms_tm + terms_te)
    terms.flags.writeable = False
    return FreeEnergyResult(total=tm + te, te_part=te, tm_part=tm, terms=terms,
                            m_max=last_m, tail_estimate=pref * tail)


def free_energy(system: PlateSystem, tol: float = 1e-6,
                m_max: int = 500_000) -> FreeEnergyResult:
    """Helmholtz free energy per unit area, J/m^2 (negative: attraction).

    ``tol`` controls both the summation truncation rule and the
    per-term quadrature target (tol/10). A sum that stops directly
    returns its terms, its last index as ``m_max`` and the geometric
    estimate of the dropped tail as ``tail_estimate``. A longer sum
    ends its explicit terms at the first rung M (32, 64 or 189) whose
    Euler-Maclaurin tail meets tol, returns M as ``m_max`` and adds the
    tail to ``total``, ``te_part`` and ``tm_part``; ``tail_estimate`` is
    then the error estimate of that tail, within tol * |total| / 10. The
    ``m_max`` argument caps the direct sum; a rung is used only when
    M + 3 <= ``m_max``.
    """
    return _thermal_sum(system, "energy", tol, m_max)


def pressure(system: PlateSystem, tol: float = 1e-6,
             m_max: int = 500_000) -> PressureResult:
    """Casimir pressure between the plates, Pa (negative: attraction).

    Summed as ``free_energy`` sums, with the same meaning of ``tol``,
    ``m_max`` and ``tail_estimate`` on the direct and the
    Euler-Maclaurin paths.
    """
    return _thermal_sum(system, "pressure", tol, m_max)


def coefficient_surface(model: ReflectionModel, zeta_grid, kperp_grid) -> CoefficientSurface:
    """Tabulate A and B on a (zeta, k_perp) grid.

    Grid points with k_perp < zeta/c lie outside the Matsubara
    integration domain and are marked NaN.
    """
    zeta_grid = np.atleast_1d(np.asarray(zeta_grid, dtype=float))
    kperp_grid = np.atleast_1d(np.asarray(kperp_grid, dtype=float))
    if not (np.all(np.isfinite(zeta_grid)) and np.all(np.isfinite(kperp_grid))):
        raise ValueError("grids must be finite")
    if np.any(zeta_grid <= 0.0) or np.any(kperp_grid <= 0.0):
        raise ValueError("grids must be positive")
    valid = kperp_grid * C_LIGHT >= zeta_grid[:, None]
    a_tm, b_te = np.full(valid.shape, np.nan), np.full(valid.shape, np.nan)
    if valid.any():
        i, j = np.nonzero(valid)
        pair = reflection_coefficients(model, zeta_grid[i], kperp_grid[j])
        a_tm[valid], b_te[valid] = pair.a_tm, pair.b_te
    return CoefficientSurface(zeta=zeta_grid, kperp=kperp_grid,
                              a_tm=a_tm, b_te=b_te)
