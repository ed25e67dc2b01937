import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifshitz.constants import C_LIGHT
from lifshitz.core import (IdealMetal, PlateSystem, TmOnlyIdealMetal, _log_reflection,
                           coefficient_surface, free_energy, pressure,
                           reflection_coefficients, zero_mode_integrals)
from lifshitz.dispersion import (GOLD, ConstantPermittivity, PlasmaModel,
                                 TabulatedPermittivity)
from lifshitz.thermo import free_energy_shift
from lifshitz.zero_temp import free_energy_T0

_TABLE_ZETA = np.geomspace(1e13, 1e17, 100)

# every model class, and vacuum, whose zero mode has no channel at all
ZERO_MODE_MODELS = {
    "drude": GOLD,
    "plasma": PlasmaModel(GOLD.omega_p),
    "eps4": ConstantPermittivity(4.0),
    "vacuum": ConstantPermittivity(1.0),
    "table": TabulatedPermittivity(_TABLE_ZETA, GOLD.epsilon(_TABLE_ZETA)),
    "ideal": IdealMetal(),
    "tm_only": TmOnlyIdealMetal(),
}


def zero_mode_pair(model, q):
    """(A0, B0): exp of the model's zero-mode logs, 0 for a channel whose R is 0."""
    q = np.asarray(q, dtype=float)
    return tuple(np.zeros_like(q) if ln is None else np.exp(ln)
                 for ln in model.zero_mode_log_reflection(q))


def naive_pair(eps, zeta, q):
    """Textbook formulas, valid when no cancellation bites."""
    p = q * C_LIGHT / zeta
    s = math.sqrt(eps - 1.0 + p * p)
    a = ((s - eps * p) / (s + eps * p)) ** 2
    b = ((s - p) / (s + p)) ** 2
    return a, b


class TestAgainstNaiveFormulas:
    def test_moderate_regime(self):
        zeta = 1e15
        for pc in (1.0, 1.5, 3.0, 10.0, 100.0):
            q = pc * zeta / C_LIGHT
            pair = reflection_coefficients(GOLD, zeta, q)
            a, b = naive_pair(GOLD.epsilon(zeta), zeta, q)
            assert pair.a_tm == pytest.approx(a, rel=1e-10)
            assert pair.b_te == pytest.approx(b, rel=1e-10)

    def test_dielectric_model(self):
        model = ConstantPermittivity(2.5)
        zeta, q = 1e14, 5e6
        pair = reflection_coefficients(model, zeta, q)
        a, b = naive_pair(2.5, zeta, q)
        assert pair.a_tm == pytest.approx(a, rel=1e-12)
        assert pair.b_te == pytest.approx(b, rel=1e-12)

    def test_cancellation_regime_stays_finite(self):
        # large p at small zeta: the naive TE formula loses all digits,
        # the implementation must stay smooth and positive
        zeta = 1e9
        q = 1e8  # p ~ 3e8
        pair = reflection_coefficients(GOLD, zeta, q)
        assert 0.0 < pair.b_te < 1.0
        assert 0.0 < pair.a_tm <= 1.0


class TestLimits:
    def test_normal_incidence_te_equals_tm(self):
        # p = 1: both polarizations reduce to the same Fresnel factor
        zeta = 1e15
        q = zeta / C_LIGHT
        pair = reflection_coefficients(GOLD, zeta, q)
        eps = GOLD.epsilon(zeta)
        expected = ((math.sqrt(eps) - 1.0) / (math.sqrt(eps) + 1.0)) ** 2
        assert pair.a_tm == pytest.approx(pair.b_te, rel=1e-9)
        assert pair.a_tm == pytest.approx(expected, rel=1e-9)

    def test_grazing_limit(self):
        # q -> infinity: A -> ((eps-1)/(eps+1))^2, B -> 0
        zeta = 1e15
        eps = GOLD.epsilon(zeta)
        pair = reflection_coefficients(GOLD, zeta, 1e12)
        assert pair.a_tm == pytest.approx(((eps - 1.0) / (eps + 1.0)) ** 2, rel=1e-5)
        assert pair.b_te < 1e-8

    def test_te_low_frequency_form(self):
        """Deep in the Drude regime B = exp(-4 asinh x), x^2 = q^2 c^2/(D zeta)."""
        d_ratio = GOLD.omega_p ** 2 / GOLD.nu
        zeta = 1e9  # far below nu
        for x in (0.1, 1.0, 5.0):
            q = x * math.sqrt(d_ratio * zeta) / C_LIGHT
            pair = reflection_coefficients(GOLD, zeta, q)
            assert pair.b_te == pytest.approx(math.exp(-4.0 * math.asinh(x)), rel=1e-3)

    def test_vacuum_reflects_nothing(self):
        pair = reflection_coefficients(ConstantPermittivity(1.0), 1e14, 1e7)
        assert pair.a_tm == 0.0
        assert pair.b_te == 0.0

    def test_ideal_metal(self):
        pair = reflection_coefficients(IdealMetal(), 1e14, 1e7)
        assert pair.a_tm == 1.0
        assert pair.b_te == 1.0
        pair = reflection_coefficients(TmOnlyIdealMetal(), 1e14, 1e7)
        assert pair.a_tm == 1.0
        assert pair.b_te == 0.0


class TestZeroMode:
    def test_drude_te_dies(self):
        a0, b0 = zero_mode_pair(GOLD, 1e6)
        assert a0 == 1.0
        assert b0 == 0.0

    def test_tabulated_follows_drude(self):
        z = np.geomspace(1e13, 1e17, 100)
        tab = TabulatedPermittivity(z, GOLD.epsilon(z))
        a0, b0 = zero_mode_pair(tab, 1e6)
        assert a0 == 1.0
        assert b0 == 0.0

    def test_plasma_te_survives(self):
        model = PlasmaModel(GOLD.omega_p)
        kappa = GOLD.omega_p / C_LIGHT
        for q in (0.1 * kappa, kappa, 10.0 * kappa):
            a0, b0 = zero_mode_pair(model, q)
            root = math.sqrt(q * q + kappa * kappa)
            expected = ((root - q) / (root + q)) ** 2
            assert a0 == 1.0
            assert b0 == pytest.approx(expected, rel=1e-12)
            assert 0.0 < b0 < 1.0

    def test_constant_permittivity(self):
        eps = 4.0
        a0, b0 = zero_mode_pair(ConstantPermittivity(eps), 1e6)
        assert a0 == pytest.approx(((eps - 1.0) / (eps + 1.0)) ** 2, rel=1e-14)
        assert b0 == 0.0

    def test_ideal_metal_keeps_both(self):
        a0, b0 = zero_mode_pair(IdealMetal(), 1e6)
        assert a0 == 1.0
        assert b0 == 1.0

    @pytest.mark.parametrize("name", ZERO_MODE_MODELS)
    def test_coefficients_are_exp_of_the_log_form(self, name):
        # the log form is the zeta -> 0 limit of the coefficients at zeta > 0
        model = ZERO_MODE_MODELS[name]
        q = np.geomspace(1e5, 1e8, 4)
        pair = reflection_coefficients(model, 1.0, q)
        for got, want in zip((pair.a_tm, pair.b_te), zero_mode_pair(model, q)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_ideal_metal_channels_do_not_share_memory(self):
        # the energy and pressure kernels overwrite ln A and ln B in place
        ln_a, ln_b = IdealMetal().zero_mode_log_reflection(np.geomspace(1e5, 1e8, 4))
        assert not np.shares_memory(ln_a, ln_b)
        ln_a, ln_b = _log_reflection(IdealMetal(), np.array([[1e14]]), np.full((1, 15), 2.0))
        assert ln_a.shape == ln_b.shape == (1, 15)
        assert not np.shares_memory(ln_a, ln_b)

    def test_tabulated_takes_its_low_frequency_models_zero_mode(self):
        plasma = PlasmaModel(GOLD.omega_p)
        tab = TabulatedPermittivity(_TABLE_ZETA, plasma.epsilon(_TABLE_ZETA),
                                    low_freq_model=plasma)
        q = np.geomspace(1e5, 1e8, 4)
        got, want = zero_mode_pair(tab, q), zero_mode_pair(plasma, q)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert np.all(got[1] > 0.0)  # the TE zero mode a fitted Drude tail would drop
        assert zero_mode_integrals(tab, 1e-6) == zero_mode_integrals(plasma, 1e-6)

    def test_model_without_a_zero_mode_fails_at_once(self):
        with pytest.raises(AttributeError, match="zero_mode_log_reflection"):
            free_energy(PlateSystem(1e-6, 300.0, object()))

    def test_the_two_protocol_methods_make_a_material(self):
        class BareDrude:
            """Only the two methods the library calls, with Drude's formulas."""

            def eps_minus_one(self, zeta):
                z = np.asarray(zeta, dtype=float)
                return GOLD.omega_p ** 2 / (z * (z + GOLD.nu))

            def zero_mode_log_reflection(self, q):
                return np.zeros_like(q), None

        def fields(res):
            return (res.te_part, res.tm_part, res.m_max, res.tail_estimate)

        for t in (1.0, 300.0):  # Euler-Maclaurin tail, direct sum
            bare, gold = PlateSystem(1e-6, t, BareDrude()), PlateSystem(1e-6, t, GOLD)
            assert fields(free_energy(bare)) == fields(free_energy(gold))
            assert fields(pressure(bare)) == fields(pressure(gold))
        assert free_energy_T0(1e-6, BareDrude()) == free_energy_T0(1e-6, GOLD)
        assert (free_energy_shift(PlateSystem(1e-6, 0.05, BareDrude()))
                == free_energy_shift(PlateSystem(1e-6, 0.05, GOLD)))


class TestValidation:
    def test_propagating_side_rejected(self):
        zeta = 1e15
        with pytest.raises(ValueError):
            reflection_coefficients(GOLD, zeta, 0.5 * zeta / C_LIGHT)

    def test_zero_frequency_redirected(self):
        with pytest.raises(ValueError, match="zero_mode_log_reflection"):
            reflection_coefficients(GOLD, 0.0, 1e6)

    def test_empty_points_give_empty_arrays(self):
        pair = reflection_coefficients(GOLD, [], [])
        assert pair.a_tm.shape == pair.b_te.shape == (0,)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("call", [
        lambda x: reflection_coefficients(GOLD, x, 1e7),
        lambda x: reflection_coefficients(GOLD, 1e13, [1e5, x]),
        lambda x: coefficient_surface(GOLD, [1e13, x], [1e5]),
        lambda x: coefficient_surface(GOLD, [1e13], [1e5, x]),
    ], ids=["reflection_zeta", "reflection_q", "surface_zeta", "surface_kperp"])
    def test_non_finite_point_rejected(self, call, value):
        with pytest.raises(ValueError, match="finite"):
            call(value)


@pytest.mark.parametrize("value", [0.0, -1.0], ids=["zero", "neg"])
@pytest.mark.parametrize("grids", [
    lambda x: ([1e13, x], [1e5]), lambda x: ([1e13], [1e5, x])], ids=["zeta", "kperp"])
def test_surface_rejects_a_non_positive_grid(grids, value):
    with pytest.raises(ValueError, match="grids must be positive"):
        coefficient_surface(GOLD, *grids(value))


def test_surface_grid():
    zeta = np.geomspace(1e13, 1e16, 8)
    kperp = np.geomspace(1e4, 1e8, 11)
    surf = coefficient_surface(GOLD, zeta, kperp)
    assert surf.a_tm.shape == (8, 11)
    assert surf.b_te.shape == (8, 11)
    # propagating-side points are masked, evanescent-side ones are values in [0, 1]
    prop = np.outer(zeta, np.ones_like(kperp)) > np.outer(np.ones_like(zeta), kperp) * C_LIGHT
    assert np.all(np.isnan(surf.a_tm[prop]))
    valid = ~prop
    assert np.all(surf.a_tm[valid] >= 0.0) and np.all(surf.a_tm[valid] <= 1.0)
    assert np.all(surf.b_te[valid] >= 0.0) and np.all(surf.b_te[valid] <= 1.0)


@given(st.floats(min_value=9.0, max_value=16.5),
       st.floats(min_value=0.0, max_value=6.0))
@settings(max_examples=120, deadline=None)
def test_bounds_and_ordering(log_zeta, log_p):
    """0 <= B <= A <= 1 for any metal at any evanescent point."""
    zeta = 10.0 ** log_zeta
    q = 10.0 ** log_p * zeta / C_LIGHT
    for model in (GOLD, PlasmaModel(GOLD.omega_p), ConstantPermittivity(30.0)):
        pair = reflection_coefficients(model, zeta, q)
        assert 0.0 <= pair.b_te <= pair.a_tm * (1.0 + 1e-12) <= 1.0 + 1e-12


@given(st.floats(min_value=1e4, max_value=1e9))
@settings(max_examples=60, deadline=None)
def test_zero_mode_bounds(q):
    for model in (GOLD, PlasmaModel(GOLD.omega_p), IdealMetal()):
        a0, b0 = zero_mode_pair(model, q)
        assert 0.0 <= b0 <= 1.0
        assert 0.0 <= a0 <= 1.0
