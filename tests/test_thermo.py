import cmath
import math
import re
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lifshitz import thermo
from lifshitz.asymptotics import _g_many, _SkinEffectMetal, coefficients, pade_delta_f
from lifshitz.constants import C_LIGHT, HBAR, K_BOLTZMANN, ZETA3, matsubara_frequency
from lifshitz.core import (IdealMetal, PlateSystem, TmOnlyIdealMetal, _prefactor,
                           free_energy, pressure)
from lifshitz.dispersion import GOLD, PlasmaModel
from lifshitz.errors import ConvergenceError, PrecisionError, RegimeError
from lifshitz.quadrature import euler_maclaurin_endpoint, gl_panels, log1mexp
from lifshitz.thermo import (classical_pressure, collect_lowtemp_samples,
                             default_fit_grid, delta_f_te_numeric, entropy,
                             fit_low_temp, free_energy_shift, pressure_shift,
                             r_series, sum_minus_integral)
from lifshitz.zero_temp import free_energy_T0

GOLD_COEFFS = coefficients(GOLD, 1e-6)


@dataclass(frozen=True)
class _NanAbove(PlasmaModel):
    """PlasmaModel whose eps - 1 is NaN above ``zeta_cut``."""

    zeta_cut: float = math.inf

    def eps_minus_one(self, zeta):
        return np.where(zeta > self.zeta_cut, np.nan, super().eps_minus_one(zeta))


def loglog_slope(f, temps):
    t = np.asarray(temps, dtype=float)
    vals = np.array([abs(f(ti)) for ti in t])
    slope, _ = np.polyfit(np.log(t), np.log(vals), 1)
    return slope


class TestSumMinusIntegral:
    def test_exponential_oracle(self):
        # h = u e^{-u} decays away well before the split index, so the
        # engine must reproduce e/(e-1)^2 - 1 to near machine precision
        delta, noise = sum_minus_integral(lambda u: u * np.exp(-u))
        exact = math.e / (math.e - 1.0) ** 2 - 1.0
        assert abs(delta - exact) < 1e-9
        assert 0.0 < noise < 1e-12

    def test_algebraic_tail_oracle(self):
        # h = 1/(1+u)^2 still carries weight at the split index; the
        # endpoint stencil corrections have to absorb it
        delta, _ = sum_minus_integral(lambda u: 1.0 / (1.0 + u) ** 2)
        exact = math.pi ** 2 / 6.0 - 0.5 - 1.0
        assert abs(delta - exact) < 1e-9

    def test_split_index_invariance(self, monkeypatch):
        results = []
        for m in (64, 128, 256):
            monkeypatch.setattr(thermo, "_RUNGS", (m,))
            results.append(sum_minus_integral(lambda u: 1.0 / (1.0 + u) ** 2)[0])
        assert max(results) - min(results) < 1e-9

    def test_floor_counts_the_quadrature_error(self):
        # e^{-u} cos(5u) oscillates about once per start panel near t = 2:
        # at a loose tol the bisection stops while the quadrature error
        # still stands far above the roundoff noise
        exact = (1.0 / (1.0 - cmath.exp(-1.0 + 5.0j))).real - 0.5 - 1.0 / 26.0
        delta, floor = sum_minus_integral(lambda u: np.exp(-u) * np.cos(5.0 * u), 1.0 / 50.0)
        assert 1e-13 < abs(delta - exact) <= floor

    def test_floor_counts_only_real_quadrature_error(self):
        # plasma pressure shift at 0.2 um, 0.05 K: converged panels leave
        # |Kronrod - Gauss| at the roundoff level, which the floor already
        # counts once, so the shift stands at 377 floors at M = 32 (153 when
        # counted twice)
        call = lambda: pressure_shift(PlateSystem(0.2e-6, 0.05, PlasmaModel(GOLD.omega_p)))
        value = call()
        delta, floor = _brackets(call, dense=False)
        dense, _ = _brackets(call, dense=True)
        assert abs(delta) >= 50.0 * floor
        assert value == pytest.approx(-K_BOLTZMANN * 0.05 / (8.0 * math.pi * 0.2e-6 ** 3) * delta,
                                      rel=1e-15)
        assert abs(delta - dense) <= 5.0 * floor

    def test_h_is_evaluated_once_per_rung(self):
        # each u at most once in a call, over all rungs and bisections
        calls = []

        def h(u):
            calls.append(u.copy())
            return np.exp(-u)

        sum_minus_integral(h)  # tol = 0: every rung
        u = np.concatenate(calls)
        assert np.unique(u).size == u.size and u.max() == thermo._RUNGS[-1] + 3
        calls.clear()
        sum_minus_integral(h, 1.0 / 50.0)  # e^{-u} is resolved at M = 32
        u = np.concatenate(calls)
        assert np.unique(u).size == u.size and u.max() == 35

    @pytest.mark.parametrize("bad, what", [(lambda u: u > 3.0, "term"),
                                           (lambda u: (0.1 < u) & (u < 0.9), "panel")])
    def test_non_finite_term_or_panel_raises(self, bad, what):
        # NaN on the integers from 4 on, or only inside the t panels
        with pytest.raises(ConvergenceError, match=f"{what}.* not finite") as info:
            sum_minus_integral(lambda u: np.where(bad(u), np.nan, np.exp(-u)), 1.0 / 50.0)
        assert math.isnan(info.value.best_estimate)
        assert info.value.error_estimate == math.inf

    def test_gold_shift_evaluates_at_most_130_u(self):
        # 126 at M = 32 on the start panels (36 integers, 6 panels of 15
        # nodes) without a bisection; the fixed t mesh took 306
        seen = []

        def spy(h, tol):
            def recording(u):
                seen.append(u.copy())
                return h(u)
            return sum_minus_integral(recording, tol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thermo, "sum_minus_integral", spy)
            free_energy_shift(PlateSystem(1e-6, 0.01, GOLD))
        assert np.unique(np.concatenate(seen)).size <= 130

    @pytest.mark.parametrize("tol", [math.nan, -1e-3])
    def test_nan_or_negative_tol_is_rejected(self, tol):
        # a NaN tol used to bisect every rung to the panel cap
        calls = []

        def h(u):
            calls.append(u.size)
            return np.exp(-u)

        with pytest.raises(ValueError, match="tol must be >= 0"):
            sum_minus_integral(h, tol)
        assert calls == []

    def test_non_finite_shift_raises(self):
        # a plasma response that turns NaN above zeta_5: the shift raises
        # instead of returning NaN (NaN > tol * NaN is False)
        system = PlateSystem(1e-6, 0.01, _NanAbove(GOLD.omega_p, matsubara_frequency(5, 0.01)))
        with pytest.raises(ConvergenceError, match="not finite"):
            free_energy_shift(system)


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.2, 5.0), half_power=st.booleans())
# the 40-digit error is 2.10e-17 against a floor of 4.69e-17 (2.44e-17
# at one eps per value); rounding the exact value to a double first made
# it 2.78e-17
@example(s=4.5648991413951405, half_power=True)
# 2.064e-17 off at every rung: above the floor of one eps per value
# (1.960e-17), 0.53 of the floor of two
@example(s=4.994371087807205, half_power=True)
def test_floor_bounds_the_error_against_closed_forms(s, half_power):
    """h = e^{-su} and sqrt(u) e^{-su}: sum' h = 1/(1 - e^{-s}) - 1/2 and
    Li_{-1/2}(e^{-s}), Integral h = 1/s and sqrt(pi)/(2 s^{3/2}); at
    every rung of the ladder, against the 40-digit value."""
    if half_power:
        rungs = list(thermo._ladder(lambda u: np.sqrt(u) * np.exp(-s * u)))
    else:
        rungs = list(thermo._ladder(lambda u: np.exp(-s * u)))
    assert [big_m for big_m, _, _ in rungs] == [32, 64, 128]
    with mpmath.workdps(40):
        x, ms = mpmath.exp(-s), mpmath.mpf(s)
        if half_power:
            exact = mpmath.polylog(-0.5, x) - mpmath.sqrt(mpmath.pi) / (2 * ms ** 1.5)
        else:
            exact = 1 / (1 - x) - mpmath.mpf(0.5) - 1 / ms
        for big_m, delta, floor in rungs:
            assert abs(mpmath.mpf(delta) - exact) <= floor, big_m


@settings(max_examples=60, deadline=None)
@given(s=st.floats(0.2, 2.0), tol=st.floats(1e-12, 1e-2))
def test_bisection_holds_tol_at_every_rung(s, tol):
    """h = e^{-su} at a tol of its own: every rung's panels, bisected to
    that tol, still bound the error by the floor, and the call returns
    the first rung whose floor is within tol of its bracket."""
    h = lambda u: np.exp(-s * u)
    rungs = list(thermo._ladder(h, tol))
    with mpmath.workdps(40):
        exact = 1 / -mpmath.expm1(-mpmath.mpf(s)) - mpmath.mpf(0.5) - 1 / mpmath.mpf(s)
        for big_m, delta, floor in rungs:
            assert abs(mpmath.mpf(delta) - exact) <= floor, big_m
    first = next((r for r in rungs if r[2] <= tol * abs(r[1])), rungs[-1])
    assert sum_minus_integral(h, tol) == (first[1], first[2])


@settings(max_examples=30, deadline=None)
@given(s=st.floats(1e-3, 5e-3))
@example(s=1e-3)
def test_floor_bounds_the_error_on_a_gaussian(s):
    """h = e^{-s u^2} still carries weight at every rung (e^{-1.02} at
    M = 32 and e^{-16.4} at M = 128 for s = 1e-3); Poisson summation
    gives sum' h - Integral h = sqrt(pi/s) sum_{k>=1} e^{-pi^2 k^2 / s},
    which is 0 in double precision here. The endpoint correction
    through h''' on 5-point stencils missed it at M = 128 by up to 12
    floors."""
    exact = math.sqrt(math.pi / s) * math.fsum(math.exp(-(math.pi * k) ** 2 / s)
                                               for k in range(1, 4))
    for big_m, delta, floor in thermo._ladder(lambda u: np.exp(-s * u * u)):
        assert abs(delta - exact) <= floor, big_m


def _dense_sum_minus_integral(h, m_star=thermo._RUNGS[-1]):
    """Dense reference engine: Gauss-Legendre panels of 20 nodes in t, at
    most 0.35 wide, split at ``m_star`` (default: the top rung)."""
    top = math.sqrt(m_star)
    breaks = np.concatenate([[0.0], np.geomspace(1e-3, 0.4, 19),
                             np.arange(0.75, top, 0.35), [top]])
    t, w = gl_panels(breaks, n=20)
    u_int = np.arange(0.0, m_star + 4.0)
    values = h(np.concatenate([u_int, t * t]))
    hv = values[:u_int.size]
    terms = hv[:m_star + 1].copy()
    terms[0] *= 0.5
    terms[m_star] *= 0.5
    integrand = w * 2.0 * t * values[u_int.size:]
    correction, _ = euler_maclaurin_endpoint(hv[m_star - 3:m_star + 4], m_star)
    return math.fsum(terms) - math.fsum(integrand) + correction, 0.0


def _dense_c_scale(system):
    """C = omega_p^2 k T / (hbar nu c^2), written out here so the oracle
    shares no scale code with the library."""
    model = system.model
    return (model.omega_p ** 2 * K_BOLTZMANN * system.temperature
            / (HBAR * model.nu * C_LIGHT ** 2))


def _dense_g_many(system, m):
    """Dense reference for asymptotics._g_many: 56 x panels of 16 nodes.

    alpha = 2 a sqrt(2 pi C m) and x_min = sqrt(zeta_m nu / omega_p^2).
    """
    model, temp = system.model, system.temperature
    m = np.atleast_1d(np.asarray(m, dtype=float))
    alpha = 2.0 * system.gap * np.sqrt(2.0 * math.pi * _dense_c_scale(system) * m)
    x_min = np.sqrt(matsubara_frequency(m, temp) * model.nu / model.omega_p ** 2)
    x_max = np.minimum(50.0 / alpha + 2.0 * x_min, 4e5)
    ratio = (x_max / x_min) ** (1.0 / 56)
    breaks = x_min[:, None] * ratio[:, None] ** np.arange(57)[None, :]
    nodes, weights = gl_panels(breaks, n=16)
    vals = nodes * log1mexp(alpha[:, None] * nodes + 4.0 * np.arcsinh(nodes))
    return m * (vals * weights).sum(axis=1)


def _dense_te_h(system):
    """h(u) = S_TE(zeta_1 u) of the skin-effect metal from the dense g rows,
    8 pi a^2 C g(u), and 0 at u = 0 (a Drude zero mode has no TE part)."""
    scale = 8.0 * math.pi * system.gap ** 2 * _dense_c_scale(system)

    def h(u):
        out = np.zeros_like(u)
        pos = u > 0.0
        out[pos] = scale * _dense_g_many(system, u[pos])
        return out

    return h


def _returned_rung(h, tol):
    """The rung M at which sum_minus_integral(h, tol) returns."""
    for big_m, delta, floor in thermo._ladder(h, tol):
        if floor <= tol * abs(delta):
            break
    return big_m


def _brackets(call, dense):
    """(delta, floor) that ``call`` gets from sum_minus_integral at its own
    tol, on the library's ladder or (``dense``) on the dense reference
    engine split at the rung the library returns."""
    seen = []

    def spy(h, tol):
        seen.append(_dense_sum_minus_integral(h, _returned_rung(h, tol)) if dense
                    else sum_minus_integral(h, tol))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thermo, "sum_minus_integral", spy)
        try:
            call()
        except PrecisionError:
            pass
    (out,) = seen
    return out


GAPS = (0.2e-6, 1e-6, 8e-6)


class TestDenseMeshOracle:
    """The GK15 t mesh, and the expansion's g rows on the row rules of
    core.mode_integrals, against the dense references: the
    brackets agree within 5 floors, also where the result is below the
    50-floor rule and raises."""

    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("t", [1e-3, 1e-2, 0.2])
    def test_g_rows(self, gap, t):
        # every u > 0 at which sum_minus_integral evaluates the expansion's
        # h at tol = 0, all rungs and bisections; measured worst 4.8e-15 of
        # the set's max |g|
        system = PlateSystem(gap, t, GOLD)
        seen = []

        def spy(h, tol):
            def recording(u):
                seen.append(u.copy())
                return h(u)
            return sum_minus_integral(recording)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thermo, "sum_minus_integral", spy)
            try:
                delta_f_te_numeric(system)
            except PrecisionError:
                pass
        m = np.concatenate(seen)
        m = m[m > 0.0]
        reference = _dense_g_many(system, m)
        assert np.max(np.abs(_g_many(system, m) - reference)) <= (
            1e-12 * np.max(np.abs(reference)))

    @pytest.mark.parametrize("kind", ["free_energy_shift", "pressure_shift"])
    @pytest.mark.parametrize("model", [GOLD, PlasmaModel(GOLD.omega_p), IdealMetal()],
                             ids=["gold", "plasma", "ideal"])
    def test_shifts(self, model, kind):
        for gap in GAPS:
            for t in (1e-3, 0.05, 1.0, 10.0):
                def call():
                    return getattr(thermo, kind)(PlateSystem(gap, t, model))
                delta, floor = _brackets(call, dense=False)
                dense, _ = _brackets(call, dense=True)
                assert abs(delta - dense) <= 5.0 * floor, (gap, t)

    def test_plasma_against_mpmath(self):
        """Plasma free energy at 8 um and 1 mK, where the dense engine split
        at M = 128 is itself 4.2 floors off: the bracket at M = 32 on rows
        integrated by GK15 on a y mesh at offsets from y0 (29 panels
        below y0 = e^0.3 - 1, 11 above), the t integral on 30
        Gauss-Legendre panels of 20 nodes, and the 7-point endpoint
        correction, all in 40-digit mpmath. The bracket on those rows
        read 1.9 floors off it (its t mesh before the GK15 t panels 0.6);
        on the library's exp-sinh rows it reads 1.15."""
        reference = -5.90068188411321897074450686923e-11
        system = PlateSystem(8e-6, 1e-3, PlasmaModel(GOLD.omega_p))
        delta, floor = _brackets(lambda: free_energy_shift(system), dense=False)
        assert abs(delta - reference) <= 5.0 * floor

    def test_te_expansion(self):
        # the dense engine on dense g rows, which share no code with
        # core.mode_integrals; measured worst 0.73 floors
        for gap in GAPS:
            for t in (1e-3, 0.05):
                system = PlateSystem(gap, t, GOLD)
                delta, floor = _brackets(lambda: delta_f_te_numeric(system), dense=False)
                dense, _ = _dense_sum_minus_integral(_dense_te_h(system))
                assert abs(delta - dense) <= 5.0 * floor, (gap, t)


class TestDeltaFTeNumeric:
    def test_positive_and_increasing(self):
        vals = [delta_f_te_numeric(PlateSystem(1e-6, t, GOLD))
                for t in (0.002, 0.01, 0.05)]
        assert all(v > 0.0 for v in vals)
        assert vals[0] < vals[1] < vals[2]

    def test_leading_coefficient_at_low_t(self):
        t = 0.002
        val = delta_f_te_numeric(PlateSystem(1e-6, t, GOLD))
        assert val / pade_delta_f(GOLD_COEFFS, t) == pytest.approx(1.0, abs=1e-2)

    def test_pade_suppression_at_50mk(self):
        t = 0.05
        val = delta_f_te_numeric(PlateSystem(1e-6, t, GOLD))
        ratio = val / (GOLD_COEFFS.c1 * t ** 2)
        assert 0.4 < ratio < 0.7

    def test_split_index_invariance(self, monkeypatch):
        vals = []
        for m in (96, 128, 192):
            monkeypatch.setattr(thermo, "_RUNGS", (m,))
            vals.append(delta_f_te_numeric(PlateSystem(1e-6, 0.01, GOLD)))
        assert (max(vals) - min(vals)) / vals[1] < 1e-8

    def test_agrees_with_exact_permittivity_shift(self):
        """Independent cross-check: the reduced low-frequency kernel
        against the full Lifshitz evaluator, same temperatures."""
        for t, tol in ((0.005, 1e-4), (0.05, 3e-4)):
            reduced = delta_f_te_numeric(PlateSystem(1e-6, t, GOLD))
            exact = free_energy_shift(PlateSystem(1e-6, t, GOLD), polarization="te")
            assert reduced == pytest.approx(exact, rel=tol)

    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("t", [1e-3, 1e-2, 0.2])
    def test_is_the_te_shift_of_the_skin_effect_metal(self, gap, t):
        """The expansion is the exact TE shift of eps - 1 = D / zeta, on
        the same rows, rung, bracket and prefactor at the same tol."""
        skin = _SkinEffectMetal(GOLD.omega_p ** 2 / GOLD.nu)
        exact = thermo._thermal_shift(PlateSystem(gap, t, skin), "energy", "te", 1e-9)
        assert delta_f_te_numeric(PlateSystem(gap, t, GOLD)) == exact

    def test_tol_is_held_against_the_floor(self, monkeypatch):
        # each call returns the first rung whose floor is within tol of its
        # bracket; here the floor ratio falls with M (measured 9.5e-10,
        # 8.3e-11 and 3.2e-11), so 1.5 times a rung's ratio selects it
        system = PlateSystem(0.2e-6, 0.002, GOLD)
        rungs = []

        def spy(h, tol):
            rungs[:] = thermo._ladder(h)
            return sum_minus_integral(h, tol)

        monkeypatch.setattr(thermo, "sum_minus_integral", spy)
        value = delta_f_te_numeric(system)
        pref = _prefactor(system, "energy")
        ratios = [floor / abs(delta) for _, delta, floor in rungs]
        assert ratios == sorted(ratios, reverse=True) and 0.0 < ratios[-1] < 1e-10
        assert ratios[0] <= 1e-9 and value == pref * rungs[0][1]
        for (_, delta, _), ratio in zip(list(rungs), ratios):  # each call refills rungs
            assert delta_f_te_numeric(system, tol=1.5 * ratio) == pref * delta
        with pytest.raises(PrecisionError):
            delta_f_te_numeric(system, tol=0.5 * ratios[-1])

    def test_validation(self):
        with pytest.raises(TypeError):
            delta_f_te_numeric(PlateSystem(1e-6, 0.01, PlasmaModel(GOLD.omega_p)))
        with pytest.raises(ValueError):
            delta_f_te_numeric(PlateSystem(1e-6, 0.01, GOLD), tol=1e-6)
        with pytest.raises(RegimeError):
            delta_f_te_numeric(PlateSystem(1e-6, 0.5, GOLD))


class TestPrecisionRule:
    """One rule for every shift, floor > tol |delta| raises, at its boundary:
    sum_minus_integral is replaced by a stub that returns a chosen
    (delta, floor) without evaluating h."""

    @staticmethod
    def _call(monkeypatch, fn, system, delta, floor):
        monkeypatch.setattr(thermo, "sum_minus_integral", lambda h, tol: (delta, floor))
        return fn(system)

    @pytest.mark.parametrize("fn, kind", [(free_energy_shift, "energy"),
                                          (pressure_shift, "pressure")], ids=["energy", "pressure"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_shifts_hold_fifty_floors(self, monkeypatch, fn, kind, sign):
        system = PlateSystem(1e-6, 1.0, GOLD)
        floor = 2.0 ** -40
        delta = sign * 50.0 * floor
        assert self._call(monkeypatch, fn, system, delta, floor) == (
            _prefactor(system, kind) * delta)
        below = sign * math.nextafter(50.0 * floor, 0.0)
        with pytest.raises(PrecisionError, match="above 0.02 of it"):
            self._call(monkeypatch, fn, system, below, floor)

    def test_te_expansion_holds_its_tol(self, monkeypatch):
        system = PlateSystem(1e-6, 0.01, GOLD)
        delta, tol = 3.0, 1e-9
        value = self._call(monkeypatch, lambda s: delta_f_te_numeric(s, tol), system,
                           delta, tol * delta)
        assert value == _prefactor(system, "energy") * delta
        with pytest.raises(PrecisionError, match="above 1e-09 of it"):
            self._call(monkeypatch, lambda s: delta_f_te_numeric(s, tol), system,
                       delta, math.nextafter(tol * delta, 1.0))


class TestFreeEnergyShift:
    def test_brute_force_cross_check(self):
        # at 50 K the direct difference still has ~8 digits to spare
        t = 50.0
        engine = free_energy_shift(PlateSystem(1e-6, t, GOLD))
        brute = (free_energy(PlateSystem(1e-6, t, GOLD), tol=1e-10).total
                 - free_energy_T0(1e-6, GOLD, tol=1e-8).f0)
        assert engine == pytest.approx(brute, rel=1e-6)

    def test_polarizations_sum(self):
        system = PlateSystem(1e-6, 10.0, GOLD)
        both = free_energy_shift(system)
        te = free_energy_shift(system, polarization="te")
        tm = free_energy_shift(system, polarization="tm")
        assert both == pytest.approx(te + tm, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            free_energy_shift(PlateSystem(1e-6, 10.0, GOLD), polarization="tem")

    @pytest.mark.parametrize("temp", [0.1, 1.0, 3.0, 10.0, 30.0])
    @pytest.mark.parametrize("gap", [0.2e-6, 1e-6, 4e-6])
    @pytest.mark.parametrize("model", [GOLD, PlasmaModel(GOLD.omega_p)], ids=["drude", "plasma"])
    def test_two_paths_give_one_number(self, model, gap, temp):
        """F(T) - F(0) as a direct difference, free_energy at tol 1e-13
        less free_energy_T0 at 1e-13, agrees with the shift within the sum
        of the three error estimates: the shift's floor, the sum's
        tail_estimate and the T = 0 error. Measured worst: 0.092 of that
        budget (gold, 0.2 um, 10 K); plasma at 0.2 um and 0.1 K is 2.4%
        of its shift off, within 0.051 of the budget."""
        system = PlateSystem(gap, temp, model)
        direct = free_energy(system, tol=1e-13)
        zero = free_energy_T0(gap, model, tol=1e-13)
        delta, floor = _brackets(lambda: free_energy_shift(system), dense=False)
        pref = _prefactor(system, "energy")
        budget = abs(pref) * floor + abs(direct.tail_estimate) + zero.error_estimate
        assert abs(direct.total - zero.f0 - pref * delta) <= budget


def _ideal_metal_tm_pressure_shift(gap, temp):
    """Closed form of the ideal-metal TM pressure shift, with 50 digits."""
    with mpmath.workdps(50):
        kappa = mpmath.mpf(2.0 * gap * matsubara_frequency(1, temp) / C_LIGHT)

        def rest(n):  # the n-th sum over m, less its half-weight m = 0 term 1/n^3
            x = mpmath.exp(-n * kappa)
            return (kappa ** 2 / n * x * (1 + x) / (1 - x) ** 3
                    + 2 * kappa / n ** 2 * x / (1 - x) ** 2 + 2 / n ** 3 * x / (1 - x))

        # past n = 120 / kappa the rest is below e^-120
        delta = (mpmath.fsum(rest(n) for n in range(1, int(120 / kappa)))
                 + mpmath.zeta(3) - mpmath.pi ** 4 / (15 * kappa))
        return float(-K_BOLTZMANN * temp / (8 * mpmath.pi * gap ** 3) * delta)


class TestPressureShift:
    def test_difference_cross_check(self):
        t1, t2 = 20.0, 50.0
        s1 = pressure_shift(PlateSystem(1e-6, t1, GOLD))
        s2 = pressure_shift(PlateSystem(1e-6, t2, GOLD))
        p1 = pressure(PlateSystem(1e-6, t1, GOLD), tol=1e-10).pressure
        p2 = pressure(PlateSystem(1e-6, t2, GOLD), tol=1e-10).pressure
        assert s2 - s1 == pytest.approx(p2 - p1, rel=1e-5)

    def test_ideal_metal_tm_matches_closed_form(self):
        """The criterion-9 shifts against sum' S(kappa m) - Integral S(kappa u) du
        summed in closed form, S(y0) = sum_n e^{-n y0} (y0^2/n + 2 y0/n^2 + 2/n^3):
        within the error floor (the 5-point correction was 250 floors off)."""
        for t in np.geomspace(5.0, 50.0, 7):
            def call():
                return pressure_shift(PlateSystem(1e-6, t, IdealMetal()), polarization="tm")
            value = call()
            delta, floor = _brackets(call, dense=False)
            exact = _ideal_metal_tm_pressure_shift(1e-6, t)
            assert abs(value - exact) <= abs(value) * floor / abs(delta), t

    def test_ideal_metal_tm_quartic(self):
        """For full reflection the TM pressure correction grows as T^4;
        the free-energy correction is dominated by its gap-independent
        cubic term, which carries no pressure."""
        slope = loglog_slope(
            lambda t: pressure_shift(PlateSystem(1e-6, t, IdealMetal()),
                                     polarization="tm"),
            np.geomspace(5.0, 50.0, 7))
        assert slope == pytest.approx(4.0, abs=0.05)

    def test_drude_tm_slower_than_quartic(self):
        # finite dissipation feeds sub-quartic terms; document the
        # measured exponent so regressions surface
        slope = loglog_slope(
            lambda t: pressure_shift(PlateSystem(1e-6, t, GOLD),
                                     polarization="tm"),
            np.geomspace(5.0, 50.0, 7))
        assert 2.0 < slope < 3.0


class TestFitLowTemp:
    def test_recovers_pade_generator(self):
        grid = np.geomspace(2e-4, 6e-3, 12)
        samples = [(float(t), pade_delta_f(GOLD_COEFFS, float(t))) for t in grid]
        fit = fit_low_temp(samples)
        assert fit.d1 == pytest.approx(GOLD_COEFFS.c1, rel=1e-2)
        assert fit.d2 == pytest.approx(GOLD_COEFFS.c2, rel=5e-2)
        assert fit.residual_norm < 0.01

    def test_pure_quadratic_data(self):
        grid = np.geomspace(2e-3, 6e-2, 12)
        samples = [(float(t), GOLD_COEFFS.c1 * float(t) ** 2) for t in grid]
        fit = fit_low_temp(samples)
        assert fit.d1 == pytest.approx(GOLD_COEFFS.c1, rel=1e-10)
        assert abs(fit.d2) < 1e-6
        assert abs(fit.d3) < 1e-6

    def test_sample_validation(self):
        grid = np.geomspace(2e-3, 6e-2, 12)
        good = [(float(t), GOLD_COEFFS.c1 * float(t) ** 2) for t in grid]
        with pytest.raises(ValueError):
            fit_low_temp(good[:7])
        with pytest.raises(ValueError):
            fit_low_temp(good[::-1])
        with pytest.raises(ValueError):
            fit_low_temp([(t, v) for (t, v) in good if t > 2e-2])
        hot = [(10.0 * t, v) for (t, v) in good]
        with pytest.raises(ValueError):
            fit_low_temp(hot)

    def test_samples_spanning_less_than_a_decade_rejected(self):
        grid = np.geomspace(5e-3, 4.9e-2, 12)
        samples = [(float(t), GOLD_COEFFS.c1 * float(t) ** 2) for t in grid]
        with pytest.raises(ValueError, match="span at least one decade"):
            fit_low_temp(samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        grid = np.geomspace(2e-3, 6e-2, 12)
        samples = [(float(t), GOLD_COEFFS.c1 * float(t) ** 2) for t in grid]
        samples[5] = (samples[5][0], bad)
        with pytest.raises(ValueError, match=re.escape(f"not finite at T = {grid[5]} K")):
            fit_low_temp(samples)

    @pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
    def test_non_positive_or_non_finite_temperature_rejected(self, bad, where):
        # T = 0 used to end in an untyped LinAlgError from the SVD
        grid = np.geomspace(2e-3, 6e-2, 12)
        samples = [(float(t), GOLD_COEFFS.c1 * float(t) ** 2) for t in grid]
        samples[where] = (bad, samples[where][1])
        with pytest.raises(ValueError, match="temperatures must be finite and > 0 K"):
            fit_low_temp(samples)

    def test_sign_flip_rejected(self):
        grid = np.geomspace(2e-3, 6e-2, 12)
        samples = [(float(t), -GOLD_COEFFS.c1 * float(t) ** 2) for t in grid]
        with pytest.raises(PrecisionError):
            fit_low_temp(samples)

    def test_unmodelled_data_rejected(self):
        grid = np.geomspace(2e-3, 6e-2, 12)
        samples = [(float(t), GOLD_COEFFS.c1 * float(t) ** 2
                    * (1.0 + 0.3 * math.sin(40.0 * math.log(t))))
                   for t in grid]
        with pytest.raises(PrecisionError):
            fit_low_temp(samples)

    def test_default_grid(self):
        grid = default_fit_grid()
        assert grid.size == 12
        assert grid[0] == pytest.approx(2e-3)
        assert grid[-1] == pytest.approx(6e-2)

    @pytest.mark.parametrize("gap", [2e-6, 4e-6, 8e-6])
    def test_default_grid_follows_the_gap(self, gap):
        # c2 grows as the gap: on the fixed 2-60 mK grid the fit missed its
        # residual bound from 2 um up (0.106 at 2 um, 2.47 at 8 um). With
        # the grid scaled by (1 um / a)^2 the fit is the 1 um one, d2 scaled
        # by a (measured residual 1.73e-2, d1 -0.41%, d2 -6.25%).
        samples = collect_lowtemp_samples(GOLD, gap)
        assert samples[-1][0] == pytest.approx(6e-2 * (1e-6 / gap) ** 2, rel=1e-12)
        fit = fit_low_temp(samples)
        co = coefficients(GOLD, gap)
        assert fit.residual_norm < 0.02
        assert fit.d1 == pytest.approx(co.c1, rel=0.01)
        assert fit.d2 == pytest.approx(co.c2, rel=0.07)

    def test_collected_samples_structure(self):
        grid = np.geomspace(2e-3, 2e-2, 8)
        samples = collect_lowtemp_samples(GOLD, 1e-6, t_grid=grid)
        assert len(samples) == 8
        ts = [s[0] for s in samples]
        assert ts == sorted(ts)
        assert all(df > 0.0 for _, df in samples)


class TestRSeries:
    def test_exact_model_gives_zero(self):
        grid = default_fit_grid()
        series = r_series(GOLD_COEFFS, lambda t: pade_delta_f(GOLD_COEFFS, t), grid)
        assert all(abs(r) < 1e-12 for _, r in series.samples)
        assert abs(series.intercept) < 1e-12
        assert abs(series.slope_at_origin) < 1e-10
        assert series.correlation == 1.0

    def test_scaled_model_gives_constant_offset(self):
        """numeric with a 3% smaller T^2 coefficient: R == (c1-d1)/c1."""
        off = coefficients(GOLD, 1e-6)
        scaled = type(off)(c1=0.97 * off.c1, c2=off.c2)
        series = r_series(off, lambda t: pade_delta_f(scaled, t),
                          default_fit_grid())
        assert series.intercept == pytest.approx(0.03, abs=1e-10)
        assert abs(series.slope_at_origin) < 1e-8
        assert series.intercept_uncertainty < 1e-10

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            r_series(GOLD_COEFFS, lambda t: pade_delta_f(GOLD_COEFFS, t),
                     [0.01, 0.02, 0.03])
        with pytest.raises(ValueError):
            r_series(GOLD_COEFFS, lambda t: pade_delta_f(GOLD_COEFFS, t),
                     [-0.01, 0.01, 0.02, 0.04])

    @pytest.mark.parametrize("grid", [[1e-3] * 4, [1e-3, 1e-3, 2e-3, 2e-3, 0.05]])
    def test_lowest_decade_needs_three_distinct_temperatures(self, grid):
        with pytest.raises(ValueError, match="fewer than 3 distinct temperatures"):
            r_series(GOLD_COEFFS, lambda t: pade_delta_f(GOLD_COEFFS, t), grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numeric_rejected(self, bad):
        grid = default_fit_grid()

        def numeric(t):
            return bad if t >= grid[3] else pade_delta_f(GOLD_COEFFS, t)

        with pytest.raises(ValueError, match=re.escape(f"not finite at T = {grid[3]} K")):
            r_series(GOLD_COEFFS, numeric, grid)


class TestEntropy:
    def test_low_temperature_linear_vanishing(self):
        temps = (0.02, 0.01, 0.005)
        vals = [entropy(PlateSystem(1e-6, t, GOLD)) for t in temps]
        for t, s in zip(temps, vals):
            assert s < 0.0
            assert 0.9 * GOLD_COEFFS.c1 * t < abs(s) < 6.0 * GOLD_COEFFS.c1 * t
        assert abs(vals[2]) < abs(vals[1]) < abs(vals[0])

    def test_classical_limit(self):
        # deep classical regime: F -> -zeta(3) k T /(16 pi a^2), so the
        # entropy saturates at its a-dependent classical value
        s = entropy(PlateSystem(8e-6, 3000.0, GOLD))
        expected = ZETA3 * K_BOLTZMANN / (16.0 * math.pi * (8e-6) ** 2)
        assert s == pytest.approx(expected, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            entropy(PlateSystem(1e-6, 5e-5, GOLD))


def classical_ratio(gap, temperature, model=GOLD):
    """Computed pressure over the classical Drude limit -zeta(3) k T / (8 pi a^3)."""
    p = pressure(PlateSystem(gap, temperature, model), tol=1e-9).pressure
    return p / classical_pressure(gap, temperature)


class TestClassicalLimit:
    def test_gold_deep_classical(self):
        ratio = classical_ratio(8e-6, 1000.0)
        assert 0.95 <= ratio <= 1.0 + 1e-12
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_forced_tm_only_exact(self):
        ratio = classical_ratio(8e-6, 1000.0, model=TmOnlyIdealMetal())
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_ideal_metal_doubles(self):
        ratio = classical_ratio(8e-6, 1000.0, model=IdealMetal())
        assert ratio == pytest.approx(2.0, abs=1e-9)

    def test_drude_half_of_ideal(self):
        drude = classical_ratio(8e-6, 1000.0)
        ideal = classical_ratio(8e-6, 1000.0, model=IdealMetal())
        assert drude / ideal == pytest.approx(0.5, rel=1e-6)

    def test_approach_from_above(self):
        """m >= 1 terms only add attraction, so the ratio converges to 1
        from above as aT grows."""
        t = 300.0
        ratios = []
        for margin in (5.0, 10.0, 20.0):
            a = margin * HBAR * C_LIGHT / (2.0 * math.pi * K_BOLTZMANN * t)
            ratios.append(classical_ratio(a, t))
        assert all(r >= 1.0 - 1e-12 for r in ratios)
        assert ratios[0] > ratios[1] > ratios[2] - 1e-12
        assert ratios[2] == pytest.approx(1.0, abs=1e-9)

    def test_reference_formula(self):
        assert classical_pressure(1e-6, 300.0) == pytest.approx(
            -ZETA3 * K_BOLTZMANN * 300.0 / (8.0 * math.pi * 1e-18), rel=1e-15)
