import math

import numpy as np
import pytest

from lifshitz.constants import C_LIGHT, HBAR, K_BOLTZMANN, ZETA3, matsubara_frequency
from lifshitz.core import (IdealMetal, PlateSystem, TmOnlyIdealMetal, free_energy,
                           mode_integrals, pressure, zero_mode_integrals)
from lifshitz.dispersion import GOLD, PlasmaModel
from lifshitz.errors import ConvergenceError

GOLD_1UM_300K = PlateSystem(gap=1e-6, temperature=300.0, model=GOLD)


def classical_zero_mode_energy(gap, temperature):
    """Half-weighted m = 0 TM term with full reflection."""
    return -ZETA3 * K_BOLTZMANN * temperature / (16.0 * math.pi * gap ** 2)


def zero_mode_energy(model, gap, temperature):
    """Half-weighted m = 0 free-energy term as (TM, TE), J/m^2."""
    s_tm, s_te = zero_mode_integrals(model, gap, "energy")
    pref = K_BOLTZMANN * temperature / (16.0 * math.pi * gap ** 2)
    return pref * s_tm, pref * s_te


class TestZeroModeTerm:
    def test_drude_matches_closed_form(self):
        tm, te = zero_mode_energy(GOLD, 1e-6, 300.0)
        exact = classical_zero_mode_energy(1e-6, 300.0)
        assert tm == pytest.approx(exact, rel=1e-12)
        assert te == 0.0

    def test_ideal_metal_doubles(self):
        tm, te = zero_mode_energy(IdealMetal(), 1e-6, 300.0)
        exact = classical_zero_mode_energy(1e-6, 300.0)
        assert tm == pytest.approx(exact, rel=1e-12)
        assert te == pytest.approx(exact, rel=1e-12)

    def test_plasma_te_between_zero_and_full(self):
        tm, te = zero_mode_energy(PlasmaModel(GOLD.omega_p), 1e-6, 300.0)
        exact = classical_zero_mode_energy(1e-6, 300.0)
        assert tm == pytest.approx(exact, rel=1e-12)
        assert exact < te < 0.0

    def test_positive_m_negative_and_decaying(self):
        zetas = matsubara_frequency(np.array([1.0, 5.0]), 300.0)
        s_tm, s_te, _, _ = mode_integrals(GOLD, 1e-6, zetas, "energy")
        t1, t5 = s_tm + s_te
        assert t1 < 0.0
        assert abs(t5) < abs(t1)


class TestFreeEnergy:
    def test_sign_and_parts(self):
        res = free_energy(GOLD_1UM_300K)
        assert res.total < 0.0
        assert res.total == pytest.approx(res.te_part + res.tm_part, rel=1e-12)
        assert res.m_max > 5
        assert abs(res.tail_estimate) < 1e-6 * abs(res.total)

    def test_tolerance_consistency(self):
        loose = free_energy(GOLD_1UM_300K, tol=1e-6).total
        tight = free_energy(GOLD_1UM_300K, tol=1e-9).total
        assert abs(loose - tight) < 5e-6 * abs(tight)

    def test_high_temperature_zero_mode_dominates(self):
        system = PlateSystem(8e-6, 3000.0, GOLD)
        res = free_energy(system, tol=1e-10)
        term0 = sum(zero_mode_energy(GOLD, 8e-6, 3000.0))
        assert res.total == pytest.approx(term0, rel=1e-10)

    def test_magnitude_dips_then_grows_with_temperature(self):
        """|F(T)| falls below |F(1 K)|, reaches a minimum, then the
        classical linear-in-T branch takes over."""
        temps = [1.0, 150.0, 300.0, 500.0, 700.0, 900.0, 1200.0]
        mags = [abs(free_energy(PlateSystem(1e-6, t, GOLD), tol=1e-7).total)
                for t in temps]
        assert mags[1] < mags[0]
        assert mags[2] < mags[1]
        assert mags[-1] > mags[-2] > mags[-3]
        assert min(mags) < min(mags[0], mags[-1])

    def test_truncation_raises_with_scaled_estimate(self):
        with pytest.raises(ConvergenceError) as err:
            free_energy(PlateSystem(1e-6, 1.0, GOLD), tol=1e-9, m_max=3)
        best = err.value.best_estimate
        full = free_energy(PlateSystem(1e-6, 1.0, GOLD), tol=1e-9).total
        # partial sum over four terms, in output units: same scale as F
        assert 0.001 * abs(full) < abs(best) < 30.0 * abs(full)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            free_energy(GOLD_1UM_300K, tol=1e-3)
        with pytest.raises(ValueError):
            free_energy(GOLD_1UM_300K, tol=0.0)


class TestPressure:
    # |P| in mPa for gold: spot values from the reference grid
    def test_reference_spot_values(self):
        p = pressure(PlateSystem(1e-6, 300.0, GOLD)).pressure
        assert abs(p) * 1e3 == pytest.approx(0.9852, rel=2e-2)
        p = pressure(PlateSystem(2e-6, 1.0, GOLD)).pressure
        assert abs(p) * 1e3 == pytest.approx(7.549e-2, rel=2e-2)

    def test_attractive(self):
        res = pressure(GOLD_1UM_300K)
        assert res.pressure < 0.0
        assert res.te_part < 0.0 and res.tm_part < 0.0

    def test_tail_has_the_sign_of_the_terms(self):
        for system in (GOLD_1UM_300K, PlateSystem(1e-6, 1.0, GOLD)):
            res = pressure(system)
            assert res.pressure < 0.0
            assert -1e-3 * abs(res.pressure) < res.tail_estimate < 0.0
            res = free_energy(system)
            assert -1e-3 * abs(res.total) < res.tail_estimate < 0.0

    def test_matches_gap_derivative_of_free_energy(self):
        a, h = 1e-6, 1e-10
        p = pressure(GOLD_1UM_300K, tol=1e-10).pressure
        fp = free_energy(PlateSystem(a + h, 300.0, GOLD), tol=1e-10).total
        fm = free_energy(PlateSystem(a - h, 300.0, GOLD), tol=1e-10).total
        assert p == pytest.approx(-(fp - fm) / (2.0 * h), rel=1e-6)

    def test_decays_with_gap(self):
        p1 = abs(pressure(PlateSystem(1e-6, 300.0, GOLD)).pressure)
        p2 = abs(pressure(PlateSystem(2e-6, 300.0, GOLD)).pressure)
        p4 = abs(pressure(PlateSystem(4e-6, 300.0, GOLD)).pressure)
        assert p1 > p2 > p4
        # between 1/a^3 (classical) and 1/a^4.5 (retarded plus thermal TE decay)
        assert 8.0 < p1 / p2 < 23.0

    def test_tm_only_equals_drude_zero_mode_at_high_t(self):
        drude = pressure(PlateSystem(8e-6, 2000.0, GOLD), tol=1e-10).pressure
        forced = pressure(PlateSystem(8e-6, 2000.0, TmOnlyIdealMetal()), tol=1e-10).pressure
        assert drude == pytest.approx(forced, rel=1e-8)


class TestPlateSystem:
    def test_validation(self):
        for gap, temp in ((0.0, 300.0), (1e-6, -1.0), (math.inf, 300.0),
                          (1e-6, math.inf), (math.nan, 300.0), (1e-6, math.nan),
                          (1e-6, 0.0)):
            with pytest.raises(ValueError):
                PlateSystem(gap, temp, GOLD)


def test_plasma_binds_stronger_than_drude():
    """The surviving TE zero mode makes the plasma-model attraction
    stronger at all separations."""
    for gap in (0.5e-6, 1e-6, 4e-6):
        pd = pressure(PlateSystem(gap, 300.0, GOLD)).pressure
        pp = pressure(PlateSystem(gap, 300.0, PlasmaModel(GOLD.omega_p))).pressure
        assert abs(pp) > abs(pd)


def test_ideal_metal_low_t_shift_is_cubic():
    """F(T) - F(0) for ideal metals carries the known (kT)^3 coefficient."""
    from lifshitz.thermo import free_energy_shift
    t = 20.0
    shift = free_energy_shift(PlateSystem(1e-6, t, IdealMetal()))
    predicted = -ZETA3 * (K_BOLTZMANN * t) ** 3 / (2.0 * math.pi * (HBAR * C_LIGHT) ** 2)
    assert shift == pytest.approx(predicted, rel=2e-2)
