"""Low-temperature expansion of the transverse-electric Matsubara sum.

For a Drude metal at low temperature the TE part of the free energy
reduces to

    F_TE = (C / beta) * sum'_m g(m),
    g(m) = m * Integral_{sqrt(zeta_m / D)}^inf x ln[1 - B(x) e^{-alpha(m) x}] dx,

with D = omega_p^2 / nu, C = omega_p^2 / (beta hbar nu c^2),
alpha(m) = 2 a sqrt(2 pi C m), and the universal reflection profile

    B(x) = (sqrt(1 + x^2) - x)^4 = exp(-4 asinh x).

g is the exact TE reduced integral of ``core`` for one more material,
eps - 1 = D / zeta (Drude at zeta << nu, the normal skin effect). With
x = q c / sqrt(D zeta), (s - p) / (s + p) = (sqrt(1 + x^2) - x)^2, so
R_TE = B(x); the lower limit x_min = sqrt(zeta_m / D) is q = zeta / c,
alpha(m) x = 2 q a = y, and g(m) = S_TE(zeta_m) / (8 pi a^2 C).
``_g_many`` therefore takes g from ``core.mode_integrals``, with only
the TE channel asked for; the expansion has no evaluator of its own.

Replacing the sum by an integral over continuous m recovers the T = 0
limit, so the low-temperature correction is the Euler-Maclaurin
difference sum' g - integral g. That bracket is the TE thermal shift
of ``_SkinEffectMetal`` too: ``thermo.delta_f_te_numeric`` is
``thermo``'s one shift evaluator applied to it, with no bracket of its
own. Its leading term gives

    dF_TE = C1 T^2 / (1 + C2 sqrt(T)),
    C1 = (2 ln 2 - 1) k^2 omega_p^2 / (48 hbar nu c^2),

where the Pade denominator resums the half-power correction whose
numeric strength 0.204 is taken as a given constant. g reads omega_p,
nu, a and T from a PlateSystem whose model is a DrudeModel. Everything
here assumes zeta_m well below the relaxation rate nu; ``thermo``
evaluates g only at T <= 0.2 K and raises RegimeError above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (C_LIGHT, HBAR, K_BOLTZMANN, TWO_LN2_MINUS_1,
                        matsubara_frequency)
from .core import PlateSystem, mode_integrals
from .dispersion import DrudeModel, _validated_zeta
from .quadrature import gk_panels, log1mexp

# g'(0) = integral_0^inf x ln(1 - B) dx in closed form
G_SLOPE_EXACT = -0.25 * TWO_LN2_MINUS_1

# secant steps in m that g_slope_at_zero extrapolates to 0
_SLOPE_STEPS = (1e-3, 5e-4, 2.5e-4)


def _c_scale(material: DrudeModel, temperature: float) -> float:
    """C = omega_p^2 k T / (hbar nu c^2), 1/m^2; linear in T.

    Every quantity of the expansion passes through here, so this is
    where a model other than a DrudeModel is turned away.
    """
    if not isinstance(material, DrudeModel):
        raise TypeError("the low-frequency TE expansion needs a DrudeModel, "
                        f"got {type(material).__name__}")
    return (material.omega_p ** 2 * K_BOLTZMANN * temperature
            / (HBAR * material.nu * C_LIGHT ** 2))


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """c1 (J/m^2 K^2) and c2 (K^{-1/2}) of dF = c1 T^2 / (1 + c2 sqrt T)."""

    c1: float
    c2: float

    def __post_init__(self):
        if not all(c > 0.0 and math.isfinite(c) for c in (self.c1, self.c2)):
            raise ValueError(f"coefficients must be finite and > 0, got {self}")


@dataclass(frozen=True)
class _SkinEffectMetal:
    """eps - 1 = D / zeta, D = omega_p^2 / nu in rad/s: a DrudeModel's
    dc-conductivity limit, whose TE reduced integral gives g."""

    d: float

    def eps_minus_one(self, zeta):
        return self.d / _validated_zeta(zeta)

    zero_mode_log_reflection = DrudeModel.zero_mode_log_reflection


def _g_many(system: PlateSystem, m):
    """g(m) for continuous m > 0 at the system's gap and temperature: the TE
    column of ``core.mode_integrals`` for ``_SkinEffectMetal``, over 8 pi a^2 C."""
    model, temp = system.model, system.temperature
    scale = 8.0 * math.pi * system.gap ** 2 * _c_scale(model, temp)
    _, s_te, _, _ = mode_integrals(_SkinEffectMetal(model.omega_p ** 2 / model.nu),
                                   system.gap, matsubara_frequency(m, temp), "energy", "te")
    return s_te / scale


def te_slope_integral() -> float:
    """Numerical g'(0) = integral_0^inf x ln(1 - B(x)) dx.

    Closed form -(2 ln 2 - 1)/4; kept numerical so the reduction of the
    integrand can be checked against the constant.
    """
    nodes, weights, _ = gk_panels(np.geomspace(1e-12, 4e5, 141))
    vals = nodes * log1mexp(4.0 * np.arcsinh(nodes))
    return float((vals * weights).sum())


def delta_f_te_leading(material: DrudeModel, temperature: float) -> float:
    """Gap-independent leading TE correction C1 T^2, J/m^2."""
    if not (temperature >= 0.0 and math.isfinite(temperature)):
        raise ValueError(f"temperature must be finite and >= 0 K, got {temperature}")
    c1 = _c_scale(material, 1.0) * K_BOLTZMANN * TWO_LN2_MINUS_1 / 48.0
    return c1 * temperature ** 2


def coefficients(material: DrudeModel, gap: float) -> AsymptoticCoefficients:
    """Pade coefficients (c1, c2) for a Drude metal at the given gap.

    c1 multiplies T^2 and does not depend on the gap; c2 scales
    linearly with the gap and carries the fixed strength 0.204 of the
    half-power correction.
    """
    if not (gap > 0.0 and math.isfinite(gap)):
        raise ValueError(f"gap must be finite and > 0 m, got {gap}")
    c1 = delta_f_te_leading(material, 1.0)
    c2 = (0.204 * gap * math.sqrt(2.0 * math.pi * _c_scale(material, 1.0))
          / (4.0 * abs(G_SLOPE_EXACT)))
    return AsymptoticCoefficients(c1=c1, c2=c2)


def pade_delta_f(coeffs: AsymptoticCoefficients, temperature: float) -> float:
    """dF_TE = c1 T^2 / (1 + c2 sqrt T); positive for T > 0, J/m^2."""
    if not (temperature >= 0.0 and math.isfinite(temperature)):
        raise ValueError(f"temperature must be finite and >= 0 K, got {temperature}")
    return (coeffs.c1 * temperature ** 2
            / (1.0 + coeffs.c2 * math.sqrt(temperature)))


def g_slope_at_zero(system: PlateSystem) -> float:
    """g'(0) from secants of _g_many extrapolated to step 0.

    g carries a half-power term at the origin, so the secants
    g(h)/h at the steps h of ``_SLOPE_STEPS`` are fitted with the model
    s + b sqrt(h) + c h and the intercept s is returned. The half-power
    coefficient shrinks with sqrt(T), so small-temperature systems
    extrapolate best.
    """
    hs = np.array(_SLOPE_STEPS)
    secants = _g_many(system, hs) / hs
    basis = np.stack([np.ones_like(hs), np.sqrt(hs), hs], axis=1)
    coeff = np.linalg.solve(basis, secants)
    return float(coeff[0])
