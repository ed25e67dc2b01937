"""Pins of the Matsubara hot path: mode_integrals and the sum driver.

The golden values come from the term-by-term driver with per-row
meshes that preceded the shared reference mesh; the rewrite must keep
both the number of terms and the values.
"""

import math

import numpy as np
import pytest

from lifshitz import core
from lifshitz.constants import matsubara_frequency
from lifshitz.core import PlateSystem, free_energy, mode_integrals, pressure
from lifshitz.dispersion import (GOLD, ConstantPermittivity, PlasmaModel,
                                 TabulatedPermittivity)
from lifshitz.errors import ConvergenceError

# (quantity, gap m, T K, m_max, value) at tol = 1e-6 with gold Drude
GOLDEN = [
    (pressure, 1e-6, 1.0, 2546, -0.0011417103179796424),
    (free_energy, 1e-6, 1.0, 2239, -3.914065563823194e-10),
    (free_energy, 0.5e-6, 0.3, 12084, -2.8916965960324646e-09),
    (pressure, 3e-6, 300.0, 6, -1.0330449337929284e-05),
]


def _value(res):
    return res.pressure if isinstance(res, core.PressureResult) else res.total


@pytest.mark.parametrize("quantity, gap, temp, m_max, value", GOLDEN)
def test_golden_sums(quantity, gap, temp, m_max, value):
    res = quantity(PlateSystem(gap, temp, GOLD), tol=1e-6)
    assert res.m_max == m_max
    assert _value(res) == pytest.approx(value, rel=1e-12)


_ZS = np.geomspace(1e11, 1e17, 601)
_MODELS = [GOLD, PlasmaModel(GOLD.omega_p), TabulatedPermittivity(_ZS, GOLD.epsilon(_ZS))]


@pytest.mark.parametrize("model", _MODELS, ids=["drude", "plasma", "table"])
@pytest.mark.parametrize("kind", ["energy", "pressure"])
def test_row_values_do_not_depend_on_the_batch(model, kind):
    zetas = matsubara_frequency(1, 1.0) * np.arange(1.0, 301.0) ** 1.7
    batch = mode_integrals(model, 1e-6, zetas, kind)
    for row in (0, 63, 64, 200, 299):
        alone = mode_integrals(model, 1e-6, zetas[row:row + 1], kind)
        for whole, single in zip(batch, alone):
            assert whole[row] == single[0]


def test_flagged_row_is_refined_alone(monkeypatch):
    system = PlateSystem(1e-6, 1.0, GOLD)
    reference = free_energy(system, tol=1e-6)
    real_gk, real_refine = core._gk_integrate, core._refine_mode
    state = {"blocks": 0}
    refined = []

    def inflating_gk(values):
        val, err = real_gk(values)
        if values.shape[0] == 64:  # the first 64-row chunk: TM, then TE
            state["blocks"] += 1
            if state["blocks"] == 1:
                err = err.copy()
                err[10] = 1.0  # row m = 11
        return val, err

    def spying_refine(model, gap, zeta, kind, rel_tol, **kwargs):
        refined.append(zeta)
        return real_refine(model, gap, zeta, kind, rel_tol, **kwargs)

    monkeypatch.setattr(core, "_gk_integrate", inflating_gk)
    monkeypatch.setattr(core, "_refine_mode", spying_refine)
    res = free_energy(system, tol=1e-6)
    assert refined == [float(matsubara_frequency(1, 1.0) * 11)]
    assert res.m_max == reference.m_max
    assert res.total == pytest.approx(reference.total, rel=1e-6)


def test_non_finite_term_stops_the_sum(monkeypatch):
    system = PlateSystem(1e-6, 1.0, GOLD)
    with pytest.raises(ConvergenceError) as partial:
        free_energy(system, tol=1e-6, m_max=39)
    real_modes = core.mode_integrals
    zeta40 = matsubara_frequency(40, 1.0)
    rows = []

    def poisoned(model, gap, zetas, kind="energy"):
        s_tm, s_te, e_tm, e_te = real_modes(model, gap, zetas, kind)
        rows.append(len(zetas))
        s_tm[np.isclose(zetas, zeta40, rtol=1e-12)] = math.nan
        return s_tm, s_te, e_tm, e_te

    monkeypatch.setattr(core, "mode_integrals", poisoned)
    with pytest.raises(ConvergenceError, match="m = 40 is not finite") as err:
        free_energy(system, tol=1e-6)
    assert rows == [64]
    assert err.value.best_estimate == partial.value.best_estimate
    assert math.isfinite(err.value.best_estimate)


def test_non_finite_zero_mode_stops_the_sum():
    system = PlateSystem(1e-6, 300.0, ConstantPermittivity(math.inf))
    with pytest.raises(ConvergenceError, match="m = 0 is not finite") as err:
        pressure(system)
    assert err.value.best_estimate == 0.0
