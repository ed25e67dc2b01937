"""Dielectric permittivity along the imaginary frequency axis.

A material supplies the two methods the library calls:

* ``eps_minus_one(zeta)``: eps(i zeta) - 1 for zeta > 0 in rad/s, not
  eps itself, because the reflection kernels need log(eps - 1) without
  cancellation when eps is close to 1;
* ``zero_mode_log_reflection(q)``: (ln A0, ln B0), the analytic
  zeta -> 0 limits of ln A (TM) and ln B (TE) at transverse wavenumber
  q, with None for a channel whose R is 0. The two arrays never share
  memory: the sum's kernels overwrite them in place.

The models below also give ``epsilon(zeta)``, eps(i zeta), as a
convenience; the library does not call it.

Models:

* DrudeModel      eps = 1 + omega_p^2 / (zeta (zeta + nu))
* PlasmaModel     eps = 1 + omega_p^2 / zeta^2
* ConstantPermittivity  fixed eps >= 1 (degenerate test model)
* TabulatedPermittivity  measured data as one piecewise cubic in
  (log zeta, log(eps-1)) from the first knot up (linear rows below four
  samples; a last linear row, the power law of the last interval), a
  fitted Drude model below it. The spline and the Drude fit are numpy,
  the package's only numerical dependency.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import C_LIGHT, ev_to_rad_per_s
from .errors import TableFormatError


def _validated_zeta(zeta):
    z = np.asarray(zeta, dtype=float)
    # NaN fails both comparisons
    if z.size and not (z.min() > 0.0 and z.max() < math.inf):
        raise ValueError("imaginary frequency zeta must be finite and > 0 rad/s")
    return z


def _positive(x) -> bool:
    return x > 0.0 and math.isfinite(x)


@dataclass(frozen=True)
class DrudeModel:
    """Free-electron response with relaxation.

    omega_p: plasma frequency, rad/s. nu: relaxation frequency, rad/s.
    """

    omega_p: float
    nu: float

    def __post_init__(self):
        if not (_positive(self.omega_p) and _positive(self.nu)):
            raise ValueError("DrudeModel requires finite omega_p > 0 and nu > 0, "
                             f"got {self.omega_p}, {self.nu}")

    def eps_minus_one(self, zeta):
        z = _validated_zeta(zeta)
        return self.omega_p ** 2 / (z * (z + self.nu))

    def epsilon(self, zeta):
        return 1.0 + self.eps_minus_one(zeta)

    def zero_mode_log_reflection(self, q):
        # eps ~ 1/zeta: TM saturates at 1, the TE mode dies with
        # zeta^2 (eps - 1) -> 0
        return np.zeros_like(q), None


@dataclass(frozen=True)
class PlasmaModel:
    """Dissipationless free-electron response."""

    omega_p: float

    def __post_init__(self):
        if not _positive(self.omega_p):
            raise ValueError(f"PlasmaModel requires finite omega_p > 0, got {self.omega_p}")

    def eps_minus_one(self, zeta):
        z = _validated_zeta(zeta)
        return (self.omega_p / z) ** 2

    def epsilon(self, zeta):
        return 1.0 + self.eps_minus_one(zeta)

    def zero_mode_log_reflection(self, q):
        # zeta^2 (eps - 1) -> omega_p^2 keeps a TE zero mode,
        # B0 = ((root - q) / (root + q))^2 = (kappa / (root + q))^4
        kappa = self.omega_p / C_LIGHT
        root = np.sqrt(q * q + kappa * kappa)
        return np.zeros_like(q), 4.0 * (np.log(kappa) - np.log(root + q))


@dataclass(frozen=True)
class ConstantPermittivity:
    """Frequency-independent permittivity, eps >= 1."""

    value: float

    def __post_init__(self):
        if not (self.value >= 1.0 and math.isfinite(self.value)):
            raise ValueError(f"ConstantPermittivity requires finite eps >= 1, got {self.value}")

    def eps_minus_one(self, zeta):
        z = _validated_zeta(zeta)
        return np.full_like(z, self.value - 1.0) if z.ndim else self.value - 1.0

    def epsilon(self, zeta):
        z = _validated_zeta(zeta)
        return np.full_like(z, self.value) if z.ndim else self.value

    def zero_mode_log_reflection(self, q):
        # A0 = ((eps - 1) / (eps + 1))^2; no TE zero mode
        eps = self.value
        if eps == 1.0:
            return None, None
        return np.full_like(q, 2.0 * (math.log(eps - 1.0) - math.log(eps + 1.0))), None


def _not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n-1, 4) Horner coefficients of the not-a-knot cubic spline through (x, y).

    Row i gives y = ((c0 t + c1) t + c2) t + c3 with t = x - x[i] on
    [x[i], x[i+1]]. The knot slopes s solve the tridiagonal system of
    continuous second derivatives, closed at each end by a continuous
    third derivative at the second and the last but one knot. The
    Thomas sweep needs no pivoting: each interior pivot is at least the
    width of its two intervals, and the last one stays positive.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    n = x.size
    lower = np.empty(n)
    diag = np.empty(n)
    upper = np.empty(n)
    rhs = np.empty(n)
    lower[1:-1], diag[1:-1], upper[1:-1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    rhs[1:-1] = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    d0, d1 = h[0] + h[1], h[-1] + h[-2]
    diag[0], upper[0] = h[1], d0
    rhs[0] = ((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0
    lower[-1], diag[-1] = d1, h[-2]
    rhs[-1] = (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1
    lower, diag, upper, rhs = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = [0.0] * n
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2.0 * m) / h
    return np.stack([t / h, (m - s[:-1]) / h - t, s[:-1], y[:-1]], axis=1)


def _fit_drude(z: np.ndarray, log_e: np.ndarray) -> DrudeModel:
    """Least-squares fit of ln(eps - 1) = 2 ln omega_p - ln z - ln(z + nu).

    Variable projection: with u = ln nu and ln(z + nu) = u + l(u),
    l = log1p(z / nu), the best ln omega_p for a given u is a mean, and
    the residual is the centred a + l with a = ln(eps - 1) + ln z, so u
    itself cancels. The misfit is minimised over a grid in u from 1e-6
    of the lowest to 1e6 times the highest sample, then polished by
    Newton steps kept inside the grid cell around the best node. A
    table that no finite nu fits (flat, or plasma-like) ends at an edge
    of that range instead of failing.
    """
    a = log_e + np.log(z)
    a_mean = a.mean()
    a = a - a_mean

    def centred_l(u):
        l = np.log1p(z * np.exp(-u)[..., None])
        return l - l.mean(axis=-1, keepdims=True)

    decades = 6.0 * math.log(10.0)
    grid = np.linspace(math.log(z[0]) - decades, math.log(z[-1]) + decades, 129)
    k = int(np.argmin(((a + centred_l(grid)) ** 2).sum(axis=1)))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    u = grid[k]
    for _ in range(20):
        r = a + centred_l(np.array(u))
        w = 1.0 / (1.0 + z * math.exp(-u))  # d ln(z + nu) / du
        dr = w - w.mean()
        gauss_newton = float(np.dot(dr, dr))
        newton = gauss_newton + float(np.dot(r, w * (1.0 - w)))
        curv = newton if newton > 0.0 else gauss_newton
        new = min(max(u - float(np.dot(r, dr)) / curv, lo), hi)
        step, u = new - u, new
        if abs(step) <= 1e-13:
            break
    l_mean = float(np.log1p(z * math.exp(-u)).mean())
    return DrudeModel(math.exp(0.5 * (a_mean + u + l_mean)), math.exp(u))


class TabulatedPermittivity:
    """Permittivity interpolated from (zeta, eps) samples.

    From the first knot up, log(eps-1) is one piecewise cubic in
    log zeta with a Horner row per knot: the not-a-knot spline between
    the knots, or linear rows below four samples (too coarse for
    1e-6-level free energies at realistic grid densities), and from the
    last knot on a linear row continuing the last log-log slope. Below
    the first knot a Drude model least-squares fitted in log(eps-1) to
    the lowest decade of samples (at least two) takes over, unless
    ``low_freq_model`` gives another; the zero mode is that model's.
    """

    def __init__(self, zeta: np.ndarray, eps: np.ndarray,
                 low_freq_model: DispersionModel | None = None):
        zeta = np.asarray(zeta, dtype=float)
        eps = np.asarray(eps, dtype=float)
        if zeta.ndim != 1 or zeta.size < 2 or zeta.shape != eps.shape:
            raise TableFormatError("need at least two (zeta, eps) samples")
        if not (np.all(np.isfinite(zeta)) and np.all(np.isfinite(eps))):
            raise TableFormatError("all zeta and eps must be finite")
        if np.any(zeta <= 0.0):
            raise TableFormatError("all zeta must be > 0")
        if np.any(np.diff(zeta) <= 0.0):
            raise TableFormatError("zeta must be strictly increasing")
        if np.any(eps <= 1.0):
            raise TableFormatError("all eps must be > 1 on the imaginary axis")
        self.zeta = zeta
        self.eps = eps
        self._log_z = np.log(zeta)
        self._log_e = np.log(eps - 1.0)
        # row i starts at knot i; row n - 1 continues the last slope
        slope = np.diff(self._log_e) / np.diff(self._log_z)
        zero = np.zeros_like(slope)
        rows = (_not_a_knot_coefficients(self._log_z, self._log_e) if zeta.size >= 4
                else np.stack([zero, zero, slope, self._log_e[:-1]], axis=1))
        self._coef = np.vstack([rows, [0.0, 0.0, slope[-1], self._log_e[-1]]])
        self.low_freq_model = low_freq_model or self._fit_drude_tail()

    def _fit_drude_tail(self) -> DrudeModel:
        """Drude fit to the lowest decade of the table, or its first two rows."""
        in_decade = self.zeta <= 10.0 * self.zeta[0]
        if np.count_nonzero(in_decade) < 2:
            in_decade = np.zeros_like(in_decade)
            in_decade[:2] = True
        return _fit_drude(self.zeta[in_decade], self._log_e[in_decade])

    def eps_minus_one(self, zeta):
        z = _validated_zeta(zeta)
        shape = z.shape
        z = z.reshape(-1)
        # clamped, the Horner value the Drude tail replaces stays finite
        lz = np.maximum(np.log(z), self._log_z[0])
        # `>`: the last knot stays on the spline's right end, bit-identical
        # to the spline; z, not ln z, since ln z of a zeta just above the
        # knot can round to the knot's
        i = np.searchsorted(self._log_z[1:-1], lz, side="right") + (z > self.zeta[-1])
        t = lz - self._log_z[i]
        c0, c1, c2, c3 = self._coef.take(i, axis=0).T
        out = np.exp(((c0 * t + c1) * t + c2) * t + c3)
        below = z < self.zeta[0]
        if np.any(below):
            out[below] = self.low_freq_model.eps_minus_one(z[below])
        return out.reshape(shape) if shape else float(out[0])

    def epsilon(self, zeta):
        return 1.0 + self.eps_minus_one(zeta)

    def zero_mode_log_reflection(self, q):
        return self.low_freq_model.zero_mode_log_reflection(q)


DispersionModel = Union[DrudeModel, PlasmaModel, ConstantPermittivity,
                        TabulatedPermittivity]

# gold, free-electron parameters used throughout the test suite
GOLD_OMEGA_P_EV = 9.03
GOLD_NU_EV = 0.0345
GOLD = DrudeModel(ev_to_rad_per_s(GOLD_OMEGA_P_EV), ev_to_rad_per_s(GOLD_NU_EV))


def load_permittivity_table(source) -> TabulatedPermittivity:
    """Parse a two-column text table of (zeta rad/s, eps) samples.

    ``source`` is a path or an open text handle. Lines starting with
    '#' and blank lines are skipped. Errors carry 1-based line numbers.
    """
    if hasattr(source, "read"):
        text = source.read()
        name = getattr(source, "name", "<stream>")
    else:
        with io.open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
        name = str(source)

    zetas: list[float] = []
    epss: list[float] = []
    last_zeta = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TableFormatError(
                f"expected 'zeta epsilon', got {raw!r}", line_number=lineno)
        try:
            z, e = float(parts[0]), float(parts[1])
        except ValueError:
            raise TableFormatError(
                f"could not parse numbers from {raw!r}", line_number=lineno)
        if not (math.isfinite(z) and math.isfinite(e)):
            raise TableFormatError("non-finite value", line_number=lineno)
        if z <= 0.0:
            raise TableFormatError(f"zeta must be > 0, got {z}", line_number=lineno)
        if e <= 1.0:
            raise TableFormatError(
                f"epsilon must be > 1 on the imaginary axis, got {e}",
                line_number=lineno)
        if last_zeta is not None and z <= last_zeta:
            raise TableFormatError(
                f"zeta not strictly increasing ({z} after {last_zeta})",
                line_number=lineno)
        last_zeta = z
        zetas.append(z)
        epss.append(e)

    if len(zetas) < 2:
        raise TableFormatError(f"{name}: need at least two data rows")
    return TabulatedPermittivity(np.array(zetas), np.array(epss))
