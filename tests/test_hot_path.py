"""Pins of the Matsubara hot path: mode_integrals and the sum driver.

Sums that stop by m = 192 are pinned to the values of the term-by-term
direct sum, with their exact number of terms. Longer sums switch to the
Euler-Maclaurin tail at a rung M of core._EM_RUNGS (m_max = M) and are
pinned to converged references: a direct sum at tol = 1e-13, a
brute-force fsum over mode_integrals rows, and the ideal-metal closed
form, at each rung.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lifshitz import core, quadrature, thermo
from lifshitz.constants import C_LIGHT, K_BOLTZMANN, ZETA3, ev_to_rad_per_s, matsubara_frequency
from lifshitz.core import (IdealMetal, PlateSystem, TmOnlyIdealMetal, free_energy,
                           mode_integrals, pressure, zero_mode_integrals)
from lifshitz.dispersion import (GOLD, ConstantPermittivity, DrudeModel, PlasmaModel,
                                 TabulatedPermittivity, load_permittivity_table)
from lifshitz.errors import ConvergenceError
from lifshitz.zero_temp import free_energy_T0

# (quantity, gap m, T K, m_max, value) at tol = 1e-6 with gold Drude.
# The first stops by the direct rule and is pinned at rel 1e-12. The
# rest take the tail at the first rung (m_max 32) and are pinned at rel
# 1e-9. The 0.2 um, 77 K reference is _brute_force; the others are the
# direct sum at tol = 1e-13, and the tail agrees with an fsum over all
# rows to about 1e-14, so these references carry the larger error.
GOLDEN = [
    (pressure, 3e-6, 300.0, 6, -1.0330449337929284e-05),
    (pressure, 0.2e-6, 77.0, 32, -0.49235285763641823),
    (pressure, 1e-6, 1.0, 32, -0.0011417329100101175),
    (free_energy, 1e-6, 1.0, 32, -3.914138512927074e-10),
    (free_energy, 0.5e-6, 0.3, 32, -2.892047437297777e-09),
]


def _value(res):
    return res.pressure if isinstance(res, core.PressureResult) else res.total


@pytest.mark.parametrize("quantity, gap, temp, m_max, value", GOLDEN)
def test_golden_sums(quantity, gap, temp, m_max, value):
    res = quantity(PlateSystem(gap, temp, GOLD), tol=1e-6)
    assert res.m_max == m_max
    rel = 1e-9 if m_max in core._EM_RUNGS else 1e-12
    assert _value(res) == pytest.approx(value, rel=rel)


_GOLD_601 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "gold_drude_601.txt"

# (gap m, T K, pressure, free energy) of the 601-row gold table at
# tol = 1e-9, pinned bit for bit: they pass through the table's
# piecewise cubic and its Drude tail at every row
GOLDEN_TABLE = [
    (0.2e-6, 77.0, -0.49235285763729053, -3.648455539190235e-08),
    (0.2e-6, 300.0, -0.4837988815443969, -3.5396710003987364e-08),
    (1e-6, 77.0, -0.0011050336557410006, -3.713143195138176e-10),
    (1e-6, 300.0, -0.0009836886132536975, -3.174511106717121e-10),
    (8e-6, 77.0, -2.2322109067435498e-07, -6.024840354249337e-13),
    (8e-6, 300.0, -3.8714734573188075e-07, -1.5478033203900617e-12),
]


@pytest.fixture(scope="module")
def gold_601():
    return load_permittivity_table(_GOLD_601)


@pytest.mark.parametrize("gap, temp, p_value, f_value", GOLDEN_TABLE)
def test_golden_table_sums(gap, temp, p_value, f_value, gold_601):
    system = PlateSystem(gap, temp, gold_601)
    assert pressure(system, tol=1e-9).pressure == p_value
    assert free_energy(system, tol=1e-9).total == f_value


def test_golden_table_zero_temperature(gold_601):
    # the small-u rows lie below the table's first knot, on its Drude tail
    assert free_energy_T0(1e-6, gold_601, tol=1e-8).f0 == -3.915133981577956e-10


def _brute_force(model, gap, temp, kind):
    """fsum of the half zero mode and rows 1..N, with y0 = 60 at N.

    Past N the rows are below y0^2 e^{-y0} < 1e-22 of the first ones, so
    the reference holds to roundoff also at tol = 1e-12.
    """
    zeta1 = matsubara_frequency(1, temp)
    n = int(60.0 / (2.0 * gap * zeta1 / C_LIGHT))
    s_tm, s_te, _, _ = mode_integrals(model, gap, zeta1 * np.arange(1.0, n + 1.0), kind)
    s0_tm, s0_te = zero_mode_integrals(model, gap, kind)
    return math.fsum([0.5 * s0_tm, 0.5 * s0_te, *s_tm, *s_te])


@pytest.mark.parametrize("model", [GOLD, PlasmaModel(GOLD.omega_p)], ids=["drude", "plasma"])
@pytest.mark.parametrize("quantity, kind, power, sign", [
    (free_energy, "energy", 2, 1.0), (pressure, "pressure", 3, -1.0)])
def test_tail_matches_brute_force_sum(model, quantity, kind, power, sign):
    gap, temp = 1e-6, 1.0
    res = quantity(PlateSystem(gap, temp, model), tol=1e-6)
    pref = sign * K_BOLTZMANN * temp / (8.0 * math.pi * gap ** power)
    exact = pref * _brute_force(model, gap, temp, kind)
    assert res.m_max in core._EM_RUNGS
    assert _value(res) == pytest.approx(exact, rel=1e-9)
    assert res.te_part + res.tm_part == pytest.approx(_value(res), rel=1e-15)


# (quantity, gap m, T K, tol, rung) with gold: the first rung whose
# remainder and tail quadrature meet tol
_RUNG_CASES = [(free_energy, 1e-6, 1.0, 1e-6, 32), (pressure, 1e-6, 1.0, 1e-9, 32),
               (free_energy, 1e-6, 10.0, 1e-12, 64), (pressure, 2e-6, 10.0, 1e-12, 64),
               (free_energy, 1e-6, 20.0, 1e-12, 189), (pressure, 1e-6, 30.0, 1e-12, 189)]
# the estimates bound the tail and the quadrature, not the roundoff of
# summing the terms, which the references share to a few ulps
_ROUNDOFF = 1e-15


@pytest.mark.parametrize("quantity, gap, temp, tol, rung", _RUNG_CASES)
def test_every_rung_matches_the_brute_force_sum(quantity, gap, temp, tol, rung):
    kind, power, sign = ("energy", 2, 1.0) if quantity is free_energy else ("pressure", 3, -1.0)
    res = quantity(PlateSystem(gap, temp, GOLD), tol=tol)
    assert res.m_max == rung
    pref = sign * K_BOLTZMANN * temp / (8.0 * math.pi * gap ** power)
    exact = pref * _brute_force(GOLD, gap, temp, kind)
    assert _value(res) == pytest.approx(exact, rel=1e-9)
    assert abs(_value(res) - exact) <= abs(res.tail_estimate) + _ROUNDOFF * abs(exact)
    assert abs(res.tail_estimate) <= tol * abs(_value(res)) / 10.0


def _ideal_metal_free_energy(gap, temp):
    # sum'_m S(kappa m), S(y0) = -2 sum_n e^{-n y0} (y0/n^2 + 1/n^3), summed
    # over m in closed form: -zeta(3) plus a series decaying like e^{-n kappa}
    kappa = 2.0 * gap * matsubara_frequency(1, temp) / C_LIGHT
    n = np.arange(1.0, 100.0 / kappa)
    x, one_minus_x = np.exp(-n * kappa), -np.expm1(-n * kappa)
    rest = -2.0 * (kappa * x / one_minus_x ** 2 / n ** 2 + x / one_minus_x / n ** 3)
    return K_BOLTZMANN * temp / (8.0 * math.pi * gap ** 2) * (math.fsum(rest) - ZETA3)


@pytest.mark.parametrize("gap, temp", [(0.2e-6, 30.0), (1e-6, 1.0), (0.2e-6, 0.1)])
def test_tail_matches_ideal_metal_closed_form(gap, temp):
    exact = _ideal_metal_free_energy(gap, temp)
    res = free_energy(PlateSystem(gap, temp, IdealMetal()), tol=1e-6)
    assert res.m_max in core._EM_RUNGS
    assert res.total == pytest.approx(exact, rel=1e-13)
    assert abs(res.total - exact) <= abs(res.tail_estimate)
    assert res.tail_estimate < 0.0  # the sign of the terms


@pytest.mark.parametrize("gap, temp, tol, rung", [
    (1e-6, 1.0, 1e-6, 32), (1e-6, 10.0, 1e-12, 64), (1e-6, 20.0, 1e-12, 189)])
def test_every_rung_matches_the_ideal_metal_closed_form(gap, temp, tol, rung):
    exact = _ideal_metal_free_energy(gap, temp)
    res = free_energy(PlateSystem(gap, temp, IdealMetal()), tol=tol)
    assert res.m_max == rung
    assert res.total == pytest.approx(exact, rel=1e-13)
    assert abs(res.total - exact) <= abs(res.tail_estimate) + _ROUNDOFF * abs(exact)


@settings(max_examples=40, deadline=None)
@given(gap=st.floats(0.2e-6, 4e-6), temp=st.floats(0.1, 30.0),
       tol=st.sampled_from([1e-6, 1e-9, 1e-12]))
# kappa M near 3.7 and 4.6 at M = 32: h^(5)(M) near a zero, and the
# h' stencil error about as large as |h^(5)|/30240
@example(gap=1.99e-6, temp=10.5, tol=1e-12)
@example(gap=2.2588937487059146e-06, temp=11.66694893765972, tol=1e-9)
def test_ideal_metal_error_is_bounded_by_the_estimate(gap, temp, tol):
    # direct stops and every rung: the reported estimate bounds the
    # distance from the closed form
    res = free_energy(PlateSystem(gap, temp, IdealMetal()), tol=tol)
    exact = _ideal_metal_free_energy(gap, temp)
    assert abs(res.total - exact) <= abs(res.tail_estimate) + _ROUNDOFF * abs(exact)


def test_tight_tol_stays_on_the_tail():
    # the remainder bound meets tol = 1e-12 by M = 64 at 1 um, 1 K
    res = free_energy(PlateSystem(1e-6, 1.0, GOLD), tol=1e-12)
    assert res.m_max <= 64
    assert abs(res.tail_estimate) <= 1e-13 * abs(res.total)


def test_every_rung_failing_falls_back_to_the_direct_sum(monkeypatch):
    # an infinite remainder fails every rung before any tail row is evaluated
    system = PlateSystem(1e-6, 1.0, GOLD)
    on_tail = free_energy(system, tol=1e-9)
    panels = []
    monkeypatch.setattr(core, "euler_maclaurin_endpoint", lambda h, big_m: (0.0, math.inf))
    monkeypatch.setattr(core, "_tail_panels", lambda *args: panels.append(args))
    direct = free_energy(system, tol=1e-9)
    assert panels == []
    assert direct.m_max > core._EM_SWITCH
    assert direct.total == pytest.approx(on_tail.total, rel=1e-9)


def test_tail_bisects_then_gives_way_to_the_direct_sum(monkeypatch):
    panels = []
    real_panels = core._tail_panels

    def counting(model, gap, zeta1, kind, lo, hi):
        panels.append(lo.size)
        return real_panels(model, gap, zeta1, kind, lo, hi)

    monkeypatch.setattr(core, "_tail_panels", counting)
    stress = PlateSystem(0.2e-6, 0.1, GOLD)
    loose = pressure(stress, tol=1e-6)
    assert panels == [7]  # the coarse start, clipped at v(32)
    tight = pressure(stress, tol=1e-11)
    assert panels[1:] == [12, 8]  # the 4 worst panels bisected once
    assert tight.m_max == 32
    assert abs(tight.tail_estimate) <= 1e-12 * abs(tight.pressure)
    assert tight.pressure == pytest.approx(loose.pressure, rel=1e-11)
    # at tol = 1e-14, 4 um and 0.3 K the remainder misses at M = 32 and 64
    # (no tail row), the quadrature at 189, so the direct sum goes on
    panels.clear()
    system = PlateSystem(4e-6, 0.3, GOLD)
    direct = pressure(system, tol=1e-14)
    assert panels == [6]
    assert direct.m_max > core._EM_SWITCH
    assert direct.pressure == pytest.approx(pressure(system, tol=1e-6).pressure, rel=1e-10)


@pytest.mark.parametrize("quantity", [free_energy, pressure])
@pytest.mark.parametrize("gap, temp", [(1e-6, 1.0), (4e-6, 0.3)])
def test_cryogenic_sums_stay_on_the_tail_at_tight_tol(quantity, gap, temp):
    # the rows' own estimates (under 4e-15 of each row) leave the tail
    # room to bisect to tol 1e-13: these sums take it at M = 64; at tol
    # 1e-14 they still go on to the direct sum (5 600 to 7 000 terms),
    # which serves as the reference
    system = PlateSystem(gap, temp, GOLD)
    res = quantity(system, tol=1e-13)
    assert res.m_max in core._EM_RUNGS
    direct = quantity(system, tol=1e-14)
    assert direct.m_max > core._EM_SWITCH
    assert _value(res) == pytest.approx(_value(direct), rel=1e-13)


def test_cryogenic_tail_evaluates_the_pinned_rows(monkeypatch):
    # the 0.2 um, 0.1 K stress case: 36 block rows (m = 0 .. M + 3) and
    # 7 tail panels of 15 rows (the coarse start above v(32) = 0.0036),
    # with no bisection at tol = 1e-6
    rows = []
    real_modes = core.mode_integrals

    def counting(model, gap, zetas, kind="energy"):
        rows.append(np.size(zetas))
        return real_modes(model, gap, zetas, kind)

    monkeypatch.setattr(core, "mode_integrals", counting)
    res = pressure(PlateSystem(0.2e-6, 0.1, GOLD), tol=1e-6)
    assert res.m_max == 32
    assert sum(rows) == 36 + 7 * 15


def test_non_finite_tail_row_stops_the_sum(monkeypatch):
    system = PlateSystem(1e-6, 1.0, GOLD)
    with pytest.raises(ConvergenceError) as head:  # rows 0..32, short of the first stencil
        free_energy(system, tol=1e-6, m_max=32)
    real_modes = core.mode_integrals
    zeta1 = matsubara_frequency(1, 1.0)

    def poisoned(model, gap, zetas, kind="energy"):
        s_tm, s_te, e_tm, e_te = real_modes(model, gap, zetas, kind)
        u = np.atleast_1d(zetas) / zeta1
        s_te[np.abs(u - np.round(u)) > 1e-6] = math.nan  # tail nodes only
        return s_tm, s_te, e_tm, e_te

    monkeypatch.setattr(core, "mode_integrals", poisoned)
    with pytest.raises(ConvergenceError, match="tail is not finite") as err:
        free_energy(system, tol=1e-6)
    assert err.value.best_estimate == head.value.best_estimate
    assert math.isfinite(err.value.best_estimate)


def test_shifts_are_unchanged():
    # pinned at the rung M = 32 of sum_minus_integral's ladder on its 6
    # GK15 start panels in t, which tol 1/50 does not bisect (the fixed
    # 18-panel t mesh gave the same values), with the 7-point endpoint
    # correction through h^(5); M = 128 on a 26-panel mesh gave
    # 9.954686439310923e-14 and 1.1371653564162462e-07, within the floors
    # of M = 32 (1.1e-10 and 2.3e-10 of the shifts)
    system = PlateSystem(1e-6, 1.0, GOLD)
    assert thermo.free_energy_shift(system) == 9.95468643942156e-14
    assert thermo.pressure_shift(system) == 1.1371653564440891e-07


@pytest.mark.parametrize("scale", [1.0, 10.0, 30.0])
def test_euler_maclaurin_endpoint(scale):
    # h(u) = u e^{-u/s}: sum_{m>M} m x^m = x^{M+1} ((M+1) - M x) / (1-x)^2
    # with x = e^{-1/s}, and Integral_M^inf h = e^{-M/s} (M s + s^2)
    big_m = 189
    x = math.exp(-1.0 / scale)
    exact = x ** (big_m + 1) * ((big_m + 1) - big_m * x) / (1.0 - x) ** 2
    integral = math.exp(-big_m / scale) * (big_m * scale + scale ** 2)
    u = np.arange(big_m - 3.0, big_m + 4.0)
    correction, remainder = quadrature.euler_maclaurin_endpoint(u * np.exp(-u / scale), big_m)
    plain = integral - 0.5 * big_m * math.exp(-big_m / scale)
    corrected = plain + correction
    if scale == 1.0:  # decay on the stencil's own scale: a gain, not a bound
        assert abs(corrected - exact) < abs(plain - exact) / 20.0
    else:
        assert abs(corrected - exact) <= remainder
        assert abs(corrected - exact) < 1e-10 * exact


@pytest.mark.parametrize("channels", ["tm", "te", "both"])
def test_adaptive_gk_meets_rel_tol_on_closed_forms(channels):
    # sqrt(y) and y^{3/2} on [0, 4] (16/3 and 64/5): GK15 resolves their
    # endpoint at 0 only by bisecting, and a None channel integrates to 0
    seen = []

    def f(y):
        seen.append(y.size)
        return (np.sqrt(y) if channels != "te" else None,
                y * np.sqrt(y) if channels != "tm" else None)

    rel_tol = 1e-10
    tm, te, error, evaluations = quadrature.adaptive_gk(f, [0.0, 1.0, 4.0], rel_tol)
    exact_tm = 16.0 / 3.0 if channels != "te" else 0.0
    exact_te = 64.0 / 5.0 if channels != "tm" else 0.0
    assert len(seen) > 1 and evaluations == sum(seen) and evaluations % 15 == 0
    assert error <= rel_tol * abs(tm + te)
    assert abs(tm - exact_tm) + abs(te - exact_te) <= error
    if channels == "tm":
        assert te == 0.0
    if channels == "te":
        assert tm == 0.0


def test_adaptive_gk_raises_at_the_node_budget():
    # y^{-0.9} on [0, 1] (10): each bisection of the first panel removes
    # only a factor 2^{0.1} of its error, so the panels fill the budget
    seen = []

    def f(y):
        seen.append(y.size)
        return y ** -0.9, None

    with pytest.raises(ConvergenceError, match="nodes") as err:
        quadrature.adaptive_gk(f, [0.0, 1.0], 1e-12)
    budget = quadrature._NODE_BUDGET
    assert budget - 15 < sum(seen) < 3 * budget
    assert 1e-12 * 10.0 < err.value.error_estimate < 1e-4
    assert abs(err.value.best_estimate - 10.0) < 1e-4


def test_adaptive_gk_raises_at_once_on_a_non_finite_integrand():
    calls = []

    def f(y):
        calls.append(y.size)
        return np.where(y > 0.5, np.nan, 1.0), None

    with pytest.raises(ConvergenceError, match="not finite"):
        quadrature.adaptive_gk(f, [0.0, 1.0, 2.0], 1e-8)
    assert calls == [30]


def test_kernels_match_the_two_branch_forms():
    w = np.concatenate([np.geomspace(1e-12, 0.6, 200), [math.log(2.0)],
                        np.nextafter(math.log(2.0), [0.0, 1.0]), np.linspace(0.7, 800.0, 200)])
    small = w < math.log(2.0)
    with np.errstate(over="ignore"):
        two_branch = np.where(small, np.log(-np.expm1(-w)), np.log1p(-np.exp(-w)))
        inv = 1.0 / np.expm1(w)
    assert np.array_equal(quadrature.log1mexp(w), two_branch)
    assert np.array_equal(quadrature.inv_expm1(w), inv)
    buf = w.copy()
    assert quadrature.log1mexp(buf, out=buf) is buf
    assert np.array_equal(buf, two_branch)
    buf = w.copy()
    assert quadrature.inv_expm1(buf, out=buf) is buf
    assert np.array_equal(buf, inv)


_ZS = np.geomspace(1e11, 1e17, 601)
_MODELS = [GOLD, PlasmaModel(GOLD.omega_p), TabulatedPermittivity(_ZS, GOLD.epsilon(_ZS))]
# every model class of the row evaluator, and one row batch on both meshes
_ROW_MODELS = _MODELS + [ConstantPermittivity(3.0), IdealMetal(), TmOnlyIdealMetal()]
_ROW_IDS = ["drude", "plasma", "table", "eps3", "ideal", "tm-only"]
_ROW_ZETAS = matsubara_frequency(1, 1.0) * np.arange(1.0, 301.0) ** 1.7


@pytest.mark.parametrize("model", _ROW_MODELS, ids=_ROW_IDS)
@pytest.mark.parametrize("kind", ["energy", "pressure"])
def test_row_values_do_not_depend_on_the_batch(model, kind):
    batch = mode_integrals(model, 1e-6, _ROW_ZETAS, kind)
    for row in (0, 63, 64, 200, 299):  # rows 63, 64: either side of a _ROW_CAP batch
        alone = mode_integrals(model, 1e-6, _ROW_ZETAS[row:row + 1], kind)
        for whole, single in zip(batch, alone):
            assert whole[row] == single[0]


@pytest.mark.parametrize("model", _ROW_MODELS + [ConstantPermittivity(1.0)],
                         ids=_ROW_IDS + ["eps1"])
@pytest.mark.parametrize("kind", ["energy", "pressure"])
def test_one_polarization_is_its_column_of_both(model, kind):
    s_tm, s_te, e_tm, e_te = mode_integrals(model, 1e-6, _ROW_ZETAS, kind)
    z_tm, z_te = zero_mode_integrals(model, 1e-6, kind)
    tm_only = mode_integrals(model, 1e-6, _ROW_ZETAS, kind, "tm")
    te_only = mode_integrals(model, 1e-6, _ROW_ZETAS, kind, "te")
    for got, want in ((tm_only, (s_tm, 0.0, e_tm, 0.0)), (te_only, (0.0, s_te, 0.0, e_te))):
        for column, expected in zip(got, want):
            assert np.array_equal(column, np.broadcast_to(expected, column.shape))
    assert zero_mode_integrals(model, 1e-6, kind, "tm") == (z_tm, 0.0)
    assert zero_mode_integrals(model, 1e-6, kind, "te") == (0.0, z_te)


def _switch_zetas(gap):
    """Zetas of a batch that crosses the step switch at y0 = core._FINE_Y0:
    100 rows with y0 from 1e-13 to 10 and the zetas one ulp apart around
    the switch, so that the computed y0 of some row is the last below it
    and that of the next the first at or above it."""
    zeta = core._FINE_Y0 * C_LIGHT / (2.0 * gap)
    return np.sort(np.concatenate([np.geomspace(1e-13, 10.0, 100) * C_LIGHT / (2.0 * gap),
                                   zeta * (1.0 + np.arange(-6.0, 7.0) * np.finfo(float).eps)]))


@pytest.mark.parametrize("model", _ROW_MODELS, ids=_ROW_IDS)
@pytest.mark.parametrize("kind", ["energy", "pressure"])
def test_rows_do_not_depend_on_the_batch_across_the_switches(model, kind):
    gap = 1e-6
    zetas = _switch_zetas(gap)
    y0s = (2.0 * gap / C_LIGHT) * zetas
    batch = mode_integrals(model, gap, zetas, kind)
    first = int(np.argmax(y0s >= core._FINE_Y0))
    assert y0s[first - 1] < core._FINE_Y0 <= y0s[first]
    for row in (first - 1, first):  # the last row below the switch, the first at or above
        alone = mode_integrals(model, gap, zetas[row:row + 1], kind)
        for whole, single in zip(batch, alone):
            assert whole[row] == single[0]


# the lean rows: y0 >= e^0.3 - 1, which a 9-panel GK15 mesh served
# before every non-zero row moved to exp-sinh
_LEAN_Y0 = math.expm1(0.3)
# (s_tm, s_te, err_tm, err_te) of rows 11 and 299 of _ROW_ZETAS at 1 um
# (y0 0.37 and 130), pinned on that GK15 mesh
_LEAN_PINS = {
    ("drude", "energy", 11): (-1.0795496802421123, -0.9592893041949573,
                              2.0770563322407912e-14, 1.8276201037284294e-14),
    ("drude", "energy", 299): (-5.187495956415137e-39, -4.8758651855889503e-39,
                               3.1988560959390185e-53, 3.084460280159309e-53),
    ("table", "pressure", 11): (2.325456408849493, 1.9565038806568735,
                                1.0403847720221997e-13, 8.331225559339618e-14),
    ("table", "pressure", 299): (4.682746151551253e-37, 4.39845110816773e-37,
                                 2.8753403112752445e-51, 2.7546869808299006e-51),
}


@pytest.mark.parametrize("model", _ROW_MODELS, ids=_ROW_IDS)
@pytest.mark.parametrize("kind", ["energy", "pressure"])
def test_lean_rows_are_unchanged(model, kind):
    # every lean row is the h = 0.06 exp-sinh rule and core._de_integrate,
    # bit for bit, in batches of core._ROW_CAP; and the pinned GK15 values
    # lie within the error estimates of both rules (measured worst 0.42 of
    # the exp-sinh estimate and 0.24 of the GK15 one)
    model_id = _ROW_IDS[_ROW_MODELS.index(model)]
    for gap in (0.1e-6, 1e-6, 10e-6):
        out = mode_integrals(model, gap, _ROW_ZETAS, kind)
        y0s = (2.0 * gap / C_LIGHT) * _ROW_ZETAS
        lean = np.flatnonzero(y0s >= _LEAN_Y0)
        assert lean.size > 0
        nodes = y0s[lean, None] + core._DE_MESH[0]
        logs = core._log_reflection(model, _ROW_ZETAS[lean, None], nodes / y0s[lean, None])
        for pol, ln_r in enumerate(logs):
            if ln_r is None:
                assert not out[pol][lean].any() and not out[pol + 2][lean].any()
                continue
            values = core._KINDS[kind][0](nodes, ln_r)
            for lo in range(0, lean.size, core._ROW_CAP):
                block = slice(lo, lo + core._ROW_CAP)
                value, error = core._de_integrate(values[block], *core._DE_MESH[1:])
                assert np.array_equal(out[pol][lean[block]], value)
                assert np.array_equal(out[pol + 2][lean[block]], error)
        for row in (11, 299):
            pinned = _LEAN_PINS.get((model_id, kind, row))
            if gap == 1e-6 and pinned is not None:
                for pol in (0, 1):
                    off = abs(out[pol][row] - pinned[pol])
                    assert off <= out[pol + 2][row] and off <= pinned[pol + 2]


def _no_rows(*args, **kwargs):
    raise AssertionError("a row was evaluated")


def test_unknown_kind_is_rejected_before_any_row(monkeypatch):
    monkeypatch.setattr(core, "_log_reflection", _no_rows)
    monkeypatch.setattr(DrudeModel, "zero_mode_log_reflection", _no_rows)
    for kind in ("Energy", "free_energy", ""):
        with pytest.raises(ValueError, match="kind"):
            mode_integrals(GOLD, 1e-6, _ROW_ZETAS, kind)
        with pytest.raises(ValueError, match="kind"):
            zero_mode_integrals(GOLD, 1e-6, kind)


@pytest.mark.parametrize("gap", [math.nan, math.inf, -1e-6, 0.0], ids=["nan", "inf", "neg", "zero"])
def test_gap_that_is_not_finite_and_positive_is_rejected_before_any_row(gap, monkeypatch):
    # unchecked, these gaps gave NaN rows, and zero_mode_integrals(GOLD,
    # nan) the ideal TM value (-1.202..., 0.0)
    monkeypatch.setattr(core, "_log_reflection", _no_rows)
    monkeypatch.setattr(DrudeModel, "zero_mode_log_reflection", _no_rows)
    for kind in ("energy", "pressure"):
        with pytest.raises(ValueError, match="gap"):
            mode_integrals(GOLD, gap, _ROW_ZETAS, kind)
        with pytest.raises(ValueError, match="gap"):
            zero_mode_integrals(GOLD, gap, kind)


@pytest.mark.parametrize("zeta", [math.nan, math.inf, -1.0], ids=["nan", "inf", "neg"])
def test_zeta_that_is_not_finite_and_non_negative_is_rejected_before_any_row(zeta, monkeypatch):
    # unchecked, a NaN zeta fell into no rule group and its row read (0, 0, 0, 0)
    monkeypatch.setattr(core, "_log_reflection", _no_rows)
    monkeypatch.setattr(DrudeModel, "zero_mode_log_reflection", _no_rows)
    for kind in ("energy", "pressure"):
        with pytest.raises(ValueError, match="zetas must be finite and >= 0"):
            mode_integrals(GOLD, 1e-6, np.concatenate([[0.0], _ROW_ZETAS, [zeta]]), kind)


@pytest.mark.parametrize("model", _ROW_MODELS, ids=_ROW_IDS)
@pytest.mark.parametrize("kind", ["energy", "pressure"])
def test_zero_rows_in_a_batch_keep_their_single_call_values(model, kind):
    # zeta = 0 first, among the rows on both sides of the step switch, and last
    gap = 1e-6
    zetas = _switch_zetas(gap)
    zetas = np.insert(zetas, [0, zetas.size // 2, zetas.size], 0.0)
    batch = mode_integrals(model, gap, zetas, kind)
    for row, zeta in enumerate(zetas):
        alone = mode_integrals(model, gap, [zeta], kind)
        for whole, single in zip(batch, alone):
            assert whole[row] == single[0]


def test_unknown_polarization_is_rejected_before_any_row(monkeypatch):
    monkeypatch.setattr(core, "_log_reflection", _no_rows)
    monkeypatch.setattr(DrudeModel, "zero_mode_log_reflection", _no_rows)
    for polarization in ("TE", "tem", ""):
        with pytest.raises(ValueError, match="polarization"):
            mode_integrals(GOLD, 1e-6, _ROW_ZETAS, "energy", polarization)
        with pytest.raises(ValueError, match="polarization"):
            zero_mode_integrals(GOLD, 1e-6, "pressure", polarization)
        with pytest.raises(ValueError, match="polarization"):
            thermo.free_energy_shift(PlateSystem(1e-6, 10.0, GOLD), polarization)


# 600 GK15 panels from y0 for the exp-sinh rows, whose features lie at
# offsets down to y0 sqrt(eps - 1): geometric from 1e-14, then 0.17 wide
# to y0 + 60
_DE_OFFSETS = np.concatenate([[0.0], np.geomspace(1e-14, 1.0, 241),
                              np.linspace(1.0, 60.0, 360)[1:]])
# every model class of the row evaluator: metals, a lossy Drude metal,
# dielectrics, the ideal metals and the 601-row table
_DE_MODELS = [GOLD, PlasmaModel(GOLD.omega_p), DrudeModel(GOLD.omega_p, ev_to_rad_per_s(1.0)),
              ConstantPermittivity(1.5), ConstantPermittivity(3.0), IdealMetal(),
              TmOnlyIdealMetal(), _MODELS[2]]
_DE_IDS = ["drude", "plasma", "lossy", "eps1.5", "eps3", "ideal", "tm-only", "table"]
# y0 decades 1e-12 .. 0.1 of the h = 0.03 and h = 0.06 rules, the last
# y0 below the switch between them, and y0 from e^0.3 - 1 (v = 0.3, a
# break of the Euler-Maclaurin tail) to 100
_DE_Y0S = np.concatenate([10.0 ** np.arange(-12.0, 0.0), [core._FINE_Y0 * (1.0 - 1e-12)],
                          np.geomspace(math.expm1(0.3), 100.0, 8)])


def test_exp_sinh_tables_sit_on_integer_multiples_of_h():
    # nodes at t = k h for consecutive integers k from -4.5 / h, up to
    # x < 120, and the 2h subrule on the nodes of even k
    for (x, w, w_2h), h, size in ((core._DE_MESH, 0.06, 106), (core._FINE_DE_MESH, 0.03, 212)):
        k = np.rint(np.arcsinh(np.log(x) / (0.5 * math.pi)) / h)
        assert x.size == size and k[0] == round(-4.5 / h) and np.all(np.diff(k) == 1.0)
        assert np.array_equal(x, np.exp(0.5 * math.pi * np.sinh(k * h)))
        assert x[-1] < 120.0 < math.exp(0.5 * math.pi * math.sinh((k[-1] + 1.0) * h))
        assert np.array_equal(w_2h, np.where(k % 2.0 == 0.0, 2.0 * w, 0.0))


def _dense_rows(model, kind, zetas, y0s, offsets=_DE_OFFSETS):
    """(ref_tm, ref_te) of each row on GK15 panels at ``offsets`` from its
    y0, fsum-contracted; None for a channel with R identically 0."""
    kernel = core._KINDS[kind][0]
    nodes, wk, _ = quadrature.gk_panels(y0s[:, None] + offsets)
    logs = core._log_reflection(model, zetas[:, None], nodes / y0s[:, None])
    return tuple(None if ln_r is None else np.array([math.fsum(row) for row in
                                                     wk * kernel(nodes, ln_r)])
                 for ln_r in logs)


@pytest.mark.parametrize("model", _DE_MODELS, ids=_DE_IDS)
@pytest.mark.parametrize("kind", ["energy", "pressure"])
def test_exp_sinh_rows_match_a_dense_mesh(model, kind):
    model_id = _DE_IDS[_DE_MODELS.index(model)]
    # Every row, y0 from 1e-12 to 100, is within 5e-15 of its TM + TE
    # value of the reference, its two estimates together bound its error,
    # and they stay below 1e-14 of the value (measured worst 2.0e-15, 0.56
    # of the estimate, and estimates of 3.9e-15). So is each channel that
    # holds at least 1e-5 of the row (measured worst 2.8e-15, 0.77 of its
    # estimate). Smaller channels are TE channels at small y0, with
    # structure at y ~ y0 sqrt(eps - 1). Those of gold, plasma, the table
    # and the ideal metal stay within 1e-12 of themselves (worst 9.5e-13
    # at 0.1 um and y0 = 1e-8; h = 0.06 below y0 = 1e-8 reads 1.9e-11 at
    # 1 um and y0 = 1e-10). The rule does not resolve those of dielectrics
    # and of the lossy metal:
    # eps 3 TE at y0 = 1e-8 is 4.4e-5 of itself off, and such estimates
    # read up to 47 times low. The sum, the tail and the T = 0 integral
    # read only err_tm + err_te of a row.
    for gap in (0.1e-6, 1e-6, 10e-6):
        zetas = _DE_Y0S * C_LIGHT / (2.0 * gap)
        y0s = (2.0 * gap / C_LIGHT) * zetas  # the rows' own y0, to the last bit
        s_tm, s_te, e_tm, e_te = mode_integrals(model, gap, zetas, kind)
        total = np.abs(s_tm + s_te)
        off = np.zeros_like(total)
        for value, error, reference in zip((s_tm, s_te), (e_tm, e_te),
                                           _dense_rows(model, kind, zetas, y0s)):
            if reference is None:
                assert not value.any() and not error.any()
                continue
            off += np.abs(value - reference)
            large = np.abs(reference) >= 1e-5 * total
            assert np.all(np.abs(value - reference)[large] <= 5e-15 * np.abs(reference[large]))
            assert np.all(np.abs(value - reference)[large] <= error[large])
            if model_id in ("drude", "plasma", "table", "ideal"):
                assert np.all(np.abs(value - reference) <= 1e-12 * np.abs(reference))
        assert np.all(off <= 5e-15 * total)
        assert np.all(off <= e_tm + e_te)
        assert np.all(e_tm + e_te <= 1e-14 * total)


# 600 GK15 panels from y0 for the lean rows: geometric into the endpoint
# layer, then 0.15 wide to y0 + 60
_DENSE_OFFSETS = np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 201),
                                 np.linspace(1.0, 60.0, 400)[1:]])


@pytest.mark.parametrize("model, estimate_bound",
                         [(model, 5e-13 if isinstance(model, ConstantPermittivity) else 5e-14)
                          for model in _DE_MODELS[:6]], ids=_DE_IDS[:6])
@pytest.mark.parametrize("kind", ["energy", "pressure"])
def test_lean_rows_match_a_dense_mesh(model, estimate_bound, kind):
    # each channel of a lean row is within 4e-15 of itself and within its
    # error estimate of the reference, and the estimates stay below
    # estimate_bound of the row's TM + TE value
    y0s = np.geomspace(_LEAN_Y0 * (1.0 + 1e-12), 100.0, 12)
    for gap in (0.1e-6, 1e-6, 10e-6):
        zetas = y0s * C_LIGHT / (2.0 * gap)
        row_y0s = (2.0 * gap / C_LIGHT) * zetas  # the rows' own y0, to the last bit
        assert np.all(row_y0s >= _LEAN_Y0)
        s_tm, s_te, e_tm, e_te = mode_integrals(model, gap, zetas, kind)
        assert np.all(e_tm + e_te <= estimate_bound * np.abs(s_tm + s_te))
        for value, error, reference in zip((s_tm, s_te), (e_tm, e_te),
                                           _dense_rows(model, kind, zetas, row_y0s,
                                                       _DENSE_OFFSETS)):
            if reference is None:
                assert not value.any() and not error.any()
                continue
            assert np.all(np.abs(value - reference) <= 4e-15 * np.abs(reference))
            assert np.all(np.abs(value - reference) <= error)


@pytest.mark.parametrize("model", _DE_MODELS, ids=_DE_IDS)
@pytest.mark.parametrize("kind", ["energy", "pressure"])
def test_zero_mode_matches_a_dense_mesh(model, kind):
    # the h = 0.03 exp-sinh rule from y = 0; measured worst 5.6e-16 of S0_TM + S0_TE
    for gap in (0.1e-6, 0.2e-6, 1e-6, 8e-6, 10e-6):
        values = zero_mode_integrals(model, gap, kind)
        nodes, wk, _ = quadrature.gk_panels(_DE_OFFSETS)
        logs = model.zero_mode_log_reflection(nodes / (2.0 * gap))
        kernel = core._KINDS[kind][0]
        for value, ln_r in zip(values, logs):
            reference = 0.0 if ln_r is None else math.fsum(wk * kernel(nodes, ln_r))
            assert abs(value - reference) <= 5e-15 * abs(sum(values))


@pytest.mark.parametrize("model", _DE_MODELS, ids=_DE_IDS)
@pytest.mark.parametrize("kind", ["energy", "pressure"])
def test_zero_row_is_the_zero_mode(model, kind):
    # the zeta = 0 row of mode_integrals: the h = 0.03 exp-sinh rule from
    # y = 0 on the model's zero_mode_log_reflection(y / 2a), contracted by
    # _de_integrate with its error estimate; zero_mode_integrals is its value
    gap = 1e-6
    nodes, w, w_2h = core._FINE_DE_MESH
    for polarization, wanted in (("both", (True, True)), ("tm", (True, False)),
                                 ("te", (False, True))):
        out = mode_integrals(model, gap, [0.0], kind, polarization)
        assert zero_mode_integrals(model, gap, kind, polarization) == (out[0][0], out[1][0])
        for pol, want in enumerate(wanted):
            ln_r = model.zero_mode_log_reflection(nodes[None, :] / (2.0 * gap))[pol]
            if not want or ln_r is None:
                assert out[pol][0] == out[pol + 2][0] == 0.0
                continue
            value, error = core._de_integrate(core._KINDS[kind][0](nodes[None, :], ln_r), w, w_2h)
            assert (out[pol][0], out[pol + 2][0]) == (value[0], error[0])


# (gap, T): m_max of (free_energy, pressure) with gold at tol 1e-6, 1e-9, 1e-12
_REFINE_CASES = {
    (0.2e-6, 77.0): [(32, 32), (32, 32), (189, 189)],
    (0.2e-6, 300.0): [(47, 52), (66, 72), (85, 92)],
    (1e-6, 77.0): [(42, 47), (58, 63), (74, 80)],
    (1e-6, 300.0): [(12, 13), (16, 17), (20, 21)],
    (3e-6, 77.0): [(15, 17), (21, 22), (26, 28)],
    (3e-6, 300.0): [(6, 6), (6, 6), (7, 8)],
    (1e-6, 1.0): [(32, 32), (32, 32), (64, 64)],
    (0.2e-6, 0.1): [(32, 32), (32, 32), (64, 32)],
}
# (gap, T, tol, quantity): where the plasma model's m_max differs from gold's
_PLASMA_M_MAX = {(1e-6, 77.0, 1e-6, "pressure"): 46, (1e-6, 300.0, 1e-6, "free_energy"): 11,
                 (1e-6, 1.0, 1e-12, "free_energy"): 32, (1e-6, 1.0, 1e-12, "pressure"): 32,
                 (0.2e-6, 0.1, 1e-12, "free_energy"): 32}


@pytest.mark.parametrize("model", [GOLD, PlasmaModel(GOLD.omega_p)], ids=["drude", "plasma"])
def test_rows_send_no_sum_to_refinement(model, monkeypatch):
    # the error estimates of the exp-sinh rows stay under
    # quad_tol = tol / 10 down to tol = 1e-12: no row is refined,
    # and every sum keeps its length
    refined = []
    real_refine = core._refine_mode

    def spying_refine(*args, **kwargs):
        refined.append(args[2])
        return real_refine(*args, **kwargs)

    monkeypatch.setattr(core, "_refine_mode", spying_refine)
    for (gap, temp), m_maxes in _REFINE_CASES.items():
        for tol, pair in zip((1e-6, 1e-9, 1e-12), m_maxes):
            for quantity, m_max in zip((free_energy, pressure), pair):
                if model is not GOLD:
                    m_max = _PLASMA_M_MAX.get((gap, temp, tol, quantity.__name__), m_max)
                res = quantity(PlateSystem(gap, temp, model), tol=tol)
                assert res.m_max == m_max
                assert refined == []


@pytest.mark.parametrize("gap", [50e-6, 100e-6])
@pytest.mark.parametrize("quantity, kind, power, sign", [
    (free_energy, "energy", 2, 1.0), (pressure, "pressure", 3, -1.0)])
def test_sum_stops_when_terms_underflow(gap, quantity, kind, power, sign):
    # kappa = 2 a zeta_1 / c is 160 to 330 here: the terms underflow to
    # exactly 0 by m = 5, and 0 < 0 must not keep the sum running
    temp, tol = 600.0, 1e-6
    res = quantity(PlateSystem(gap, temp, GOLD), tol=tol, m_max=3000)
    zeta1 = matsubara_frequency(1, temp)
    s_tm, s_te, _, _ = mode_integrals(GOLD, gap, zeta1 * np.arange(1.0, 11.0), kind)
    s0_tm, s0_te = zero_mode_integrals(GOLD, gap, kind)
    assert s_tm[4] == s_te[4] == 0.0
    pref = sign * K_BOLTZMANN * temp / (8.0 * math.pi * gap ** power)
    exact = pref * math.fsum([0.5 * s0_tm, 0.5 * s0_te, *s_tm, *s_te])
    assert res.m_max == 6  # the first index the stop rule considers
    assert _value(res) == pytest.approx(exact, rel=tol)


@pytest.mark.parametrize("temp", [300.0, 77.0])
@pytest.mark.parametrize("quantity", [free_energy, pressure])
def test_sum_of_zeros_stops(temp, quantity):
    # eps = 1 reflects nothing: every term and the sum are exactly 0, and
    # 0 <= 0 must stop the sum at the first index the rule considers
    res = quantity(PlateSystem(1e-6, temp, ConstantPermittivity(1.0)))
    assert _value(res) == 0.0
    assert res.m_max == 6
    assert res.tail_estimate == 0.0


# the room-temperature grid of the block-schedule tests, run on each of _MODELS
_GRID = [(quantity, gap, temp, tol)
         for quantity in (free_energy, pressure)
         for gap in (0.2e-6, 0.5e-6, 1e-6, 3e-6, 8e-6)
         for temp in (77.0, 300.0, 350.0)
         for tol in (1e-6, 1e-9)]


def _fixed_blocks(predicted):
    """Reference schedule, blind to the decay: to each rung's M + 3, then doubling."""
    yield from (35, 67, 192, 448, 960)
    yield from itertools.count(1984, 1024)


def test_block_ends_keep_the_tail_stencil_in_one_block():
    predicted_seconds, long_sums = set(), 0
    for kappa in np.geomspace(1e-6, 1e4, 10000):  # 1e4: a 3 mm gap at 600 K
        for tol in (1e-4, 1e-6, 1e-9, 1e-13):
            predicted = core._predicted_stop(float(kappa), tol)
            ends = list(itertools.islice(core._block_ends(predicted), 7))
            assert all(lo < hi for lo, hi in zip(ends, ends[1:]))
            i = ends.index(core._EM_SWITCH)
            assert ends[i:] == list(itertools.islice(_fixed_blocks(predicted), 2, 9 - i))
            if predicted > core._EM_SWITCH:  # every rung's rows M - 3 .. M + 3 in one block
                long_sums += 1
                assert ends[:i + 1] == [rung + 3 for rung in core._EM_RUNGS]
                assert all(lo <= rung - 4 for lo, rung in zip([0] + ends, core._EM_RUNGS))
                continue
            assert 8 <= ends[0] <= 64
            assert i in (1, 2) and ends[i - 1] <= core._EM_RUNGS[-1] - 4  # rows 186..192
            if i == 2:
                predicted_seconds.add(ends[1])
    assert long_sums > 0
    assert max(predicted_seconds) == core._EM_RUNGS[-1] - 4  # the grid reaches the limit


@pytest.mark.parametrize("model", _MODELS, ids=["drude", "plasma", "table"])
def test_block_schedule_does_not_change_results(model, monkeypatch):
    # rows do not depend on their batch and the running sum is sequential,
    # so where blocks end changes nothing: value, parts, m_max, tail_estimate
    predicted = [quantity(PlateSystem(gap, temp, model), tol=tol)
                 for quantity, gap, temp, tol in _GRID]
    monkeypatch.setattr(core, "_block_ends", _fixed_blocks)
    for res, (quantity, gap, temp, tol) in zip(predicted, _GRID):
        assert res == quantity(PlateSystem(gap, temp, model), tol=tol)


def test_rows_evaluated_stay_near_terms_kept(monkeypatch):
    rows, tails = [], []
    real_modes, real_tail = core.mode_integrals, core._em_tail

    def counting(model, gap, zetas, kind="energy"):
        rows.append(np.size(zetas))
        return real_modes(model, gap, zetas, kind)

    def spying_tail(*args):
        tails.append(args)
        return real_tail(*args)

    monkeypatch.setattr(core, "mode_integrals", counting)
    monkeypatch.setattr(core, "_em_tail", spying_tail)
    evaluated = kept = 0
    for model in _MODELS:
        for quantity, gap, temp, tol in _GRID:
            rows.clear()
            tails.clear()
            res = quantity(PlateSystem(gap, temp, model), tol=tol)
            if not tails:  # stopped by the direct rule, by m = 192
                evaluated += sum(rows)
                kept += res.m_max
    assert kept > 4000
    assert evaluated <= 1.35 * kept


@pytest.mark.parametrize("quantity, kind, power, sign, gap", [
    (pressure, "pressure", 3, -1.0, 0.2e-6), (free_energy, "energy", 2, 1.0, 0.28e-6)])
def test_slowly_decaying_sum_meets_tol(quantity, kind, power, sign, gap):
    # terms fall by about e^-0.1 per step at 77 K: a term below tol |sum| / 10
    # can still leave a geometric tail 10 times larger behind it
    tol, temp = 1e-6, 77.0
    res = quantity(PlateSystem(gap, temp, GOLD), tol=tol)
    pref = sign * K_BOLTZMANN * temp / (8.0 * math.pi * gap ** power)
    exact = pref * _brute_force(GOLD, gap, temp, kind)
    assert abs(_value(res) - exact) <= tol * abs(exact)
    if res.m_max not in core._EM_RUNGS:  # the direct rule stopped it: the tail bounds the error
        assert abs(_value(res) - exact) <= 1.01 * abs(res.tail_estimate)


def test_convergence_error_reports_the_geometric_tail():
    # m_max = 28 stops the sum short of the first rung's stencil (rows 29..35)
    system = PlateSystem(0.5e-6, 10.0, GOLD)
    converged = free_energy(system, tol=1e-9).total
    with pytest.raises(ConvergenceError) as err:
        free_energy(system, tol=1e-6, m_max=28)
    missing = abs(converged - err.value.best_estimate)
    assert missing <= err.value.error_estimate <= 5.0 * missing
    # at 1 um, 1 K the pressure terms still grow at m = 28: there is no
    # geometric tail
    with pytest.raises(ConvergenceError) as err:
        pressure(PlateSystem(1e-6, 1.0, GOLD), tol=1e-6, m_max=28)
    assert err.value.error_estimate == math.inf


@pytest.mark.parametrize("model", [GOLD, PlasmaModel(GOLD.omega_p)], ids=["drude", "plasma"])
def test_m_max_zero_reports_the_half_zero_mode(model):
    # no term comes before m = 0, so none has fallen: the error estimate is infinite
    system = PlateSystem(1e-6, 300.0, model)
    s0_tm, s0_te = zero_mode_integrals(model, 1e-6)
    with pytest.raises(ConvergenceError, match="after m = 0") as err:
        free_energy(system, m_max=0)
    assert err.value.best_estimate == core._prefactor(system, "energy") * (0.5 * s0_tm
                                                                           + 0.5 * s0_te)
    assert err.value.error_estimate == math.inf


@pytest.mark.parametrize("m_max", [-1, math.nan], ids=["neg", "nan"])
@pytest.mark.parametrize("quantity", [free_energy, pressure])
def test_m_max_below_zero_is_rejected_before_any_row(quantity, m_max, monkeypatch):
    # unchecked, m_max = -1 ran no block and raised ConvergenceError
    # "not converged after m = -1"
    monkeypatch.setattr(core, "_log_reflection", _no_rows)
    monkeypatch.setattr(DrudeModel, "zero_mode_log_reflection", _no_rows)
    with pytest.raises(ValueError, match="m_max"):
        quantity(PlateSystem(1e-6, 300.0, GOLD), m_max=m_max)


@pytest.mark.parametrize("model", [GOLD, TmOnlyIdealMetal()], ids=["drude", "tm-only"])
def test_flagged_row_is_refined_alone(model, monkeypatch):
    # the TM-only model has no TE channel: its refined TE part is 0
    system = PlateSystem(1e-6, 1.0, model)
    reference = free_energy(system, tol=1e-6)
    real_de, real_refine = core._de_integrate, core._refine_mode
    state = {"blocks": 0}
    refined = []

    def inflating_de(values, *rule):
        val, err = real_de(values, *rule)
        if values.shape[0] == 35:  # the first block's exp-sinh rows m = 1..35: TM, then TE
            state["blocks"] += 1
            if state["blocks"] == 1:
                err = err.copy()
                err[10] = 1.0  # row m = 11
        return val, err

    def spying_refine(model, gap, zeta, kind, rel_tol, **kwargs):
        refined.append(zeta)
        return real_refine(model, gap, zeta, kind, rel_tol, **kwargs)

    monkeypatch.setattr(core, "_de_integrate", inflating_de)
    monkeypatch.setattr(core, "_refine_mode", spying_refine)
    res = free_energy(system, tol=1e-6)
    assert refined == [float(matsubara_frequency(1, 1.0) * 11)]
    assert res.m_max == reference.m_max
    assert res.total == pytest.approx(reference.total, rel=1e-6)
    if isinstance(model, TmOnlyIdealMetal):
        assert res.te_part == 0.0


def test_non_finite_term_stops_the_sum(monkeypatch):
    system = PlateSystem(1e-6, 1.0, GOLD)
    with pytest.raises(ConvergenceError) as partial:  # short of the first stencil
        free_energy(system, tol=1e-6, m_max=19)
    real_modes = core.mode_integrals
    zeta20 = matsubara_frequency(20, 1.0)
    rows = []

    def poisoned(model, gap, zetas, kind="energy"):
        s_tm, s_te, e_tm, e_te = real_modes(model, gap, zetas, kind)
        rows.append(len(zetas))
        s_tm[np.isclose(zetas, zeta20, rtol=1e-12)] = math.nan
        return s_tm, s_te, e_tm, e_te

    monkeypatch.setattr(core, "mode_integrals", poisoned)
    with pytest.raises(ConvergenceError, match="m = 20 is not finite") as err:
        free_energy(system, tol=1e-6)
    assert rows == [36]  # the first block, m = 0 .. 35
    assert err.value.best_estimate == partial.value.best_estimate
    assert math.isfinite(err.value.best_estimate)


def test_non_finite_zero_mode_stops_the_sum(monkeypatch):
    real_modes = core.mode_integrals

    def poisoned(model, gap, zetas, kind="energy"):
        s_tm, s_te, e_tm, e_te = real_modes(model, gap, zetas, kind)
        s_tm[np.asarray(zetas) == 0.0] = math.nan  # the zeta = 0 row only
        return s_tm, s_te, e_tm, e_te

    monkeypatch.setattr(core, "mode_integrals", poisoned)
    with pytest.raises(ConvergenceError, match="m = 0 is not finite") as err:
        pressure(PlateSystem(1e-6, 300.0, GOLD))
    assert err.value.best_estimate == 0.0
