"""Physical constants (CODATA) and frequency conversions.

One unit system everywhere: SI. Angular frequencies in rad/s, gaps in
metres, temperatures in kelvin, energies in joules. Photon energies
cross the API boundary in eV and are converted here, once.
"""

from __future__ import annotations

import math

HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s
K_BOLTZMANN = 1.380649e-23  # J / K

# elementary charge, exact by SI definition
E_CHARGE = 1.602176634e-19  # C

# Apery's constant zeta(3); shows up in every classical-limit formula
ZETA3 = 1.2020569031595943

TWO_LN2_MINUS_1 = 2.0 * math.log(2.0) - 1.0


def ev_to_rad_per_s(energy_ev: float) -> float:
    """Convert a photon energy in eV to an angular frequency in rad/s."""
    if not energy_ev >= 0.0:
        raise ValueError(f"photon energy must be >= 0 eV, got {energy_ev}")
    return energy_ev * E_CHARGE / HBAR


def matsubara_frequency(m, temperature: float):
    """m-th Matsubara frequency zeta_m = 2 pi k_B m T / hbar in rad/s.

    ``m`` may be a scalar or an array; it is treated as a continuous
    index >= 0 so the same routine serves the discrete sum and its
    continuum (T -> 0) limit.
    """
    import numpy as np

    if not temperature > 0.0:
        raise ValueError(f"temperature must be > 0 K, got {temperature}")
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr < 0):
        raise ValueError("Matsubara index must be >= 0")
    out = (2.0 * math.pi * K_BOLTZMANN * temperature / HBAR) * m_arr
    return out if out.ndim else float(out)
