"""Thermal Casimir free energy, pressure, and entropy for metal half-spaces."""

from .constants import (C_LIGHT, HBAR, K_BOLTZMANN, ev_to_rad_per_s,
                        matsubara_frequency)
from .core import (CoefficientSurface, FreeEnergyResult, IdealMetal,
                   PlateSystem, PressureResult, ReflectionPair,
                   TmOnlyIdealMetal, coefficient_surface, free_energy,
                   pressure, reflection_coefficients)
from .dispersion import (GOLD, GOLD_NU_EV, GOLD_OMEGA_P_EV,
                         ConstantPermittivity, DrudeModel, PlasmaModel,
                         TabulatedPermittivity, load_permittivity_table)
from .asymptotics import (AsymptoticCoefficients, coefficients,
                          delta_f_te_leading, g_slope_at_zero, pade_delta_f,
                          te_slope_integral)
from .errors import (ConvergenceError, LifshitzError, PrecisionError,
                     RegimeError, TableFormatError)
from .thermo import (LowTempFit, RSeries, classical_pressure,
                     collect_lowtemp_samples, default_fit_grid,
                     delta_f_te_numeric, entropy, fit_low_temp,
                     free_energy_shift, pressure_shift, r_series)
from .zero_temp import ZeroTempResult, free_energy_T0, ideal_metal_T0

__all__ = [
    "C_LIGHT", "HBAR", "K_BOLTZMANN",
    "ev_to_rad_per_s", "matsubara_frequency",
    "CoefficientSurface", "FreeEnergyResult", "IdealMetal",
    "PlateSystem", "PressureResult", "ReflectionPair", "TmOnlyIdealMetal",
    "coefficient_surface", "free_energy", "pressure",
    "reflection_coefficients",
    "GOLD", "GOLD_NU_EV", "GOLD_OMEGA_P_EV", "ConstantPermittivity",
    "DrudeModel", "PlasmaModel", "TabulatedPermittivity",
    "load_permittivity_table",
    "ConvergenceError", "LifshitzError", "PrecisionError", "RegimeError",
    "TableFormatError",
    "AsymptoticCoefficients", "coefficients",
    "delta_f_te_leading", "g_slope_at_zero",
    "pade_delta_f", "te_slope_integral",
    "LowTempFit", "RSeries", "classical_pressure",
    "collect_lowtemp_samples", "default_fit_grid", "delta_f_te_numeric",
    "entropy", "fit_low_temp", "free_energy_shift", "pressure_shift",
    "r_series",
    "ZeroTempResult", "free_energy_T0", "ideal_metal_T0",
]

__version__ = "0.1.0"
