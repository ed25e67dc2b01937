import math

import numpy as np
import pytest

from lifshitz.constants import C_LIGHT, HBAR
from lifshitz.core import IdealMetal, PlateSystem
from lifshitz.dispersion import GOLD, PlasmaModel
from lifshitz.errors import ConvergenceError
from lifshitz import zero_temp
from lifshitz.zero_temp import free_energy_T0, ideal_metal_T0


def test_ideal_metal_closed_form():
    for gap in (0.5e-6, 1e-6, 3e-6):
        expected = -math.pi ** 2 * HBAR * C_LIGHT / (720.0 * gap ** 3)
        assert ideal_metal_T0(gap) == pytest.approx(expected, rel=1e-15)


def test_forced_ideal_reproduces_closed_form():
    res = free_energy_T0(1e-6, IdealMetal(), tol=1e-8)
    assert res.f0 == pytest.approx(ideal_metal_T0(1e-6), rel=1e-7)
    # both polarizations reflect fully: equal halves
    assert res.te_part == pytest.approx(res.tm_part, rel=1e-7)


def test_gold_regression_values():
    """Frozen outputs; relative drifts beyond the error estimate fail."""
    res = free_energy_T0(1e-6, GOLD, tol=1e-8)
    assert res.f0 == pytest.approx(-3.9151339816e-10, rel=1e-7)
    assert res.error_estimate < 1e-7 * abs(res.f0)
    assert res.f0 == pytest.approx(res.te_part + res.tm_part, rel=1e-12)

    res_half = free_energy_T0(0.5e-6, GOLD, tol=1e-8)
    assert res_half.f0 == pytest.approx(-2.8920741418e-09, rel=1e-7)


def test_finite_conductivity_reduction_grows_with_gap():
    """eta = F/F_ideal rises toward 1 as the gap dwarfs the plasma
    wavelength, and the frozen values pin the curve."""
    etas = {}
    for gap, expected in ((0.5e-6, 0.834171), (1e-6, 0.903405), (2e-6, 0.943239)):
        res = free_energy_T0(gap, GOLD, tol=1e-8)
        eta = res.f0 / ideal_metal_T0(gap)
        etas[gap] = eta
        assert eta == pytest.approx(expected, abs=5e-5)
    assert etas[0.5e-6] < etas[1e-6] < etas[2e-6] < 1.0


def test_plasma_close_to_drude_at_zero_temperature():
    # dropping nu raises eps at every zeta, so the plasma result is
    # a few percent stronger but no more at a micron
    d = free_energy_T0(1e-6, GOLD, tol=1e-8).f0
    p = free_energy_T0(1e-6, PlasmaModel(GOLD.omega_p), tol=1e-8).f0
    assert p == pytest.approx(d, rel=3e-2)
    assert abs(p) > abs(d)


def test_low_temperature_consistency():
    """F(T -> 0) from the Matsubara sum approaches the T = 0 integral."""
    from lifshitz.core import free_energy
    f0 = free_energy_T0(1e-6, GOLD, tol=1e-8).f0
    f1k = free_energy(PlateSystem(1e-6, 1.0, GOLD), tol=1e-8).total
    assert f1k == pytest.approx(f0, rel=3e-4)


def test_budget_exhaustion_carries_estimate():
    with pytest.raises(ConvergenceError) as err:
        free_energy_T0(1e-6, GOLD, tol=1e-13, max_evals=3000)
    assert err.value.best_estimate == pytest.approx(-3.915e-10, rel=5e-2)


def test_invalid_args():
    for gap in (-1e-6, math.inf, math.nan):
        with pytest.raises(ValueError):
            free_energy_T0(gap, GOLD)
    with pytest.raises(ValueError):
        free_energy_T0(1e-6, GOLD, tol=0.0)


def test_rect_blocks_match_rect_by_rect_evaluation():
    # the 234 starting rects run in blocks of _RECT_BLOCK; each rect is
    # independent, so the batch equals one rect at a time to the last bit
    v, w = zero_temp._V_BREAKS, zero_temp._W_BREAKS
    rects = [(v[i], v[i + 1], w[j], w[j + 1])
             for i in range(v.size - 1) for j in range(w.size - 1)]
    assert len(rects) == 234 and len(rects) % zero_temp._RECT_BLOCK != 0
    batch = zero_temp._eval_rects(GOLD, 1e-6, rects)
    single = [zero_temp._eval_rects(GOLD, 1e-6, [rect]) for rect in rects]
    for whole, parts in zip(batch, zip(*single)):
        assert np.array_equal(whole, np.concatenate(parts))
