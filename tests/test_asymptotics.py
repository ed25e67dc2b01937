import math

import mpmath
import numpy as np
import pytest

from lifshitz.asymptotics import (G_SLOPE_EXACT, AsymptoticCoefficients,
                                  _c_scale, _g_many, coefficients,
                                  delta_f_te_leading, g_slope_at_zero,
                                  pade_delta_f, te_slope_integral)
from lifshitz.constants import (C_LIGHT, HBAR, K_BOLTZMANN, TWO_LN2_MINUS_1)
from lifshitz.core import PlateSystem
from lifshitz.dispersion import GOLD, DrudeModel, PlasmaModel
from lifshitz.thermo import delta_f_te_numeric

CTX_COLD = PlateSystem(1e-6, 1e-4, GOLD)


class TestSlopeConstant:
    def test_exact_value(self):
        assert G_SLOPE_EXACT == pytest.approx(-(2.0 * math.log(2.0) - 1.0) / 4.0,
                                              rel=1e-15)

    def test_integral_reproduces_it(self):
        """int_0^inf x ln(1 - (sqrt(1+x^2)-x)^4) dx, to 1e-8 absolute."""
        assert abs(te_slope_integral() - G_SLOPE_EXACT) < 1e-8

    def test_finite_difference_reading(self):
        assert abs(g_slope_at_zero(CTX_COLD) - G_SLOPE_EXACT) < 1e-6


class TestGOfM:
    def test_negative_for_positive_m(self):
        assert np.all(_g_many(PlateSystem(1e-6, 0.01, GOLD), [0.5, 1.0, 4.0]) < 0.0)

    def test_small_m_linear_regime(self):
        # g(m) ~ g'(0) m while alpha(m) stays small
        val = _g_many(CTX_COLD, 1e-3)[0]
        assert val == pytest.approx(G_SLOPE_EXACT * 1e-3, rel=2e-2)

    def test_rows_do_not_depend_on_the_block(self):
        # 521 rows span several row blocks; batches of 7 and single rows
        # cut them elsewhere, and every row must come out bit-identical
        system = PlateSystem(1e-6, 0.05, GOLD)
        m = np.geomspace(1e-4, 200.0, 521)
        whole = _g_many(system, m)
        assert np.array_equal(whole, np.concatenate(
            [_g_many(system, m[i:i + 7]) for i in range(0, m.size, 7)]))
        assert np.array_equal(whole[::52], [_g_many(system, x)[0] for x in m[::52]])


class TestHalfPowerStrength:
    """The closed form of the T^{5/2} strength (Navot's zeta(-s) form of
    Euler-Maclaurin): g(m) carries b m^{3/2} with b = alpha(1) I."""

    def test_reflection_integral_is_one_twelfth(self):
        # I = int_0^inf x^2 B / (1 - B) dx with B = (sqrt(1 + x^2) - x)^4
        with mpmath.workdps(30):
            def integrand(x):
                b = (mpmath.sqrt(1 + x * x) - x) ** 4
                return x * x * b / (1 - b)
            value = mpmath.quad(integrand, [0, 1, 10, mpmath.inf])
            assert abs(value - mpmath.mpf(1) / 12) < mpmath.mpf(1e-15)

    def test_strength_closed_forms_agree(self):
        # 96 |zeta(-3/2)| I = 8 |zeta(-3/2)| = 3 zeta(5/2) / (2 pi^2)
        with mpmath.workdps(30):
            from_zeta = 8 * abs(mpmath.zeta(mpmath.mpf(-3) / 2))
            from_reflection = 3 * mpmath.zeta(mpmath.mpf(5) / 2) / (2 * mpmath.pi ** 2)
            assert abs(from_zeta - from_reflection) < mpmath.mpf(1e-25)
            assert abs(from_zeta - mpmath.mpf("0.2038816151")) < mpmath.mpf(1e-10)

    def test_coefficients_carry_the_strength_within_six_parts_in_ten_thousand(self):
        # the rounded 0.204 in c2 is 0.06% above the closed form
        co = coefficients(GOLD, 1e-6)
        strength = (co.c2 * 4.0 * abs(G_SLOPE_EXACT)
                    / (1e-6 * math.sqrt(2.0 * math.pi * _c_scale(GOLD, 1.0))))
        exact = 3.0 * float(mpmath.zeta(2.5)) / (2.0 * math.pi ** 2)
        assert abs(strength / exact - 1.0) < 6e-4


def _third_order_rest(gap, t):
    """r(T)/T with r = dF_TE / (C1 T^2) - 1 + c2 sqrt(T), c2 from the closed-form
    strength 3 zeta(5/2) / (2 pi^2): what the two leading terms leave, per kelvin."""
    strength = 3.0 * float(mpmath.zeta(2.5)) / (2.0 * math.pi ** 2)
    c2 = (strength * gap * math.sqrt(2.0 * math.pi * _c_scale(GOLD, 1.0))
          / (4.0 * abs(G_SLOPE_EXACT)))
    df = delta_f_te_numeric(PlateSystem(gap, t, GOLD))
    return (df / (delta_f_te_leading(GOLD, 1.0) * t * t) - 1.0 + c2 * math.sqrt(t)) / t


class TestTwoLeadingTerms:
    """The paper's C1 T^2 (1 - c2 sqrt(T)) against the numeric TE shift at 1-2 mK:
    the rest is a T^3 term (measured r/T 6.9-7.1 per kelvin at 1 um) whose
    strength grows as a^2."""

    TEMPS = (1e-3, 1.5e-3, 2e-3)

    def test_rest_is_third_order(self):
        for t in self.TEMPS:
            assert 5.0 <= _third_order_rest(1e-6, t) <= 9.0, t

    def test_rest_scales_as_the_gap_squared(self):
        # measured 7% above 1/25
        for t in self.TEMPS:
            ratio = _third_order_rest(0.2e-6, t) / _third_order_rest(1e-6, t)
            assert ratio == pytest.approx(1.0 / 25.0, rel=0.15), t


class TestContext:
    def test_c_scale_linear_in_temperature(self):
        assert _c_scale(GOLD, 0.02) == pytest.approx(2.0 * _c_scale(GOLD, 0.01), rel=1e-12)


class TestCoefficients:
    def test_c1_closed_form(self):
        co = coefficients(GOLD, 1e-6)
        expected = (TWO_LN2_MINUS_1 * K_BOLTZMANN ** 2 * GOLD.omega_p ** 2
                    / (48.0 * HBAR * GOLD.nu * C_LIGHT ** 2))
        assert co.c1 == pytest.approx(expected, rel=1e-12)

    def test_published_values(self):
        co = coefficients(GOLD, 1e-6)
        assert co.c1 == pytest.approx(5.81e-13, rel=1e-2)
        assert co.c2 == pytest.approx(3.03, rel=2e-2)

    def test_c2_scales_with_gap(self):
        co1 = coefficients(GOLD, 1e-6)
        co2 = coefficients(GOLD, 2e-6)
        assert co2.c2 == pytest.approx(2.0 * co1.c2, rel=1e-12)
        assert co2.c1 == co1.c1

    def test_leading_term_consistency(self):
        co = coefficients(GOLD, 1e-6)
        assert delta_f_te_leading(GOLD, 1.0) == pytest.approx(co.c1, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            AsymptoticCoefficients(-1.0, 3.0)
        with pytest.raises(ValueError):
            coefficients(GOLD, 0.0)


class TestLeadingTerm:
    def test_zero_at_zero_temperature(self):
        assert delta_f_te_leading(GOLD, 0.0) == 0.0

    def test_quadratic(self):
        assert delta_f_te_leading(GOLD, 0.02) == pytest.approx(
            4.0 * delta_f_te_leading(GOLD, 0.01), rel=1e-12)

    def test_doubling_nu_halves(self):
        doubled = DrudeModel(GOLD.omega_p, 2.0 * GOLD.nu)
        assert delta_f_te_leading(doubled, 0.01) == pytest.approx(
            0.5 * delta_f_te_leading(GOLD, 0.01), rel=1e-12)


class TestPade:
    def setup_method(self):
        self.co = coefficients(GOLD, 1e-6)

    def test_zero_at_zero(self):
        assert pade_delta_f(self.co, 0.0) == 0.0

    def test_positive_and_increasing(self):
        grid = np.geomspace(1e-4, 0.5, 20)
        vals = [pade_delta_f(self.co, float(t)) for t in grid]
        assert all(v > 0.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_reexpansion_order(self):
        """pade - c1 T^2 (1 - c2 sqrt T) is c1 c2^2 T^3 (1 + O(sqrt T))."""
        for t in (1e-4, 1e-5):
            lead = self.co.c1 * t ** 2 * (1.0 - self.co.c2 * math.sqrt(t))
            third = self.co.c1 * self.co.c2 ** 2 * t ** 3
            ratio = (pade_delta_f(self.co, t) - lead) / third
            assert abs(ratio - 1.0) < 1.1 * self.co.c2 * math.sqrt(t)

    def test_suppression_at_50mk(self):
        # 1/(1 + c2 sqrt(0.05)) is about 0.6
        t = 0.05
        ratio = pade_delta_f(self.co, t) / (self.co.c1 * t ** 2)
        assert ratio == pytest.approx(1.0 / (1.0 + self.co.c2 * math.sqrt(t)),
                                      rel=1e-12)
        assert 0.4 < ratio < 0.7

    def test_entropy_of_form_vanishes_linearly(self):
        """-d(pade)/dT stays within 3 c1 T for T <= 0.01 K."""
        for t in np.geomspace(1e-5, 0.01, 12):
            x = self.co.c2 * math.sqrt(t)
            s = -self.co.c1 * t * (2.0 + 1.5 * x) / (1.0 + x) ** 2
            h = t * 1e-3
            fd = -(pade_delta_f(self.co, t + h) - pade_delta_f(self.co, t - h)) / (2 * h)
            assert fd == pytest.approx(s, rel=1e-5)
            assert abs(s) <= 3.0 * self.co.c1 * t


_NON_FINITE_CALLS = {
    "coefficients": lambda x: coefficients(GOLD, x),
    # built directly, c1 = inf would give an infinite pade_delta_f and c2 = inf a zero one
    "coefficients_c1": lambda x: AsymptoticCoefficients(x, 3.0),
    "coefficients_c2": lambda x: AsymptoticCoefficients(5.8e-13, x),
    "delta_f_te_leading": lambda x: delta_f_te_leading(GOLD, x),
    "pade_delta_f": lambda x: pade_delta_f(coefficients(GOLD, 1e-6), x),
}


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", sorted(_NON_FINITE_CALLS))
def test_non_finite_input_rejected(name, value):
    with pytest.raises(ValueError, match="finite"):
        _NON_FINITE_CALLS[name](value)


def test_slope_constant_gives_the_quadratic_coefficient():
    # -g'(0)/12, the leading Euler-Maclaurin term of sum' g - int g,
    # is the (2 ln 2 - 1)/48 bracket of c1
    assert -G_SLOPE_EXACT / 12.0 == TWO_LN2_MINUS_1 / 48.0


@pytest.mark.parametrize("call", [g_slope_at_zero, delta_f_te_numeric,
                                  lambda system: coefficients(system.model, system.gap)],
                         ids=["g_slope_at_zero", "delta_f_te_numeric", "coefficients"])
def test_expansion_rejects_a_model_other_than_drude(call):
    with pytest.raises(TypeError, match="needs a DrudeModel, got PlasmaModel"):
        call(PlateSystem(1e-6, 1e-4, PlasmaModel(GOLD.omega_p)))
