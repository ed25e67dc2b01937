import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifshitz.constants import C_LIGHT, HBAR
from lifshitz.core import IdealMetal, PlateSystem, mode_integrals
from lifshitz.dispersion import GOLD, PlasmaModel, TabulatedPermittivity, load_permittivity_table
from lifshitz.errors import ConvergenceError
from lifshitz import core, zero_temp
from lifshitz.quadrature import gk_panels
from lifshitz.zero_temp import free_energy_T0, ideal_metal_T0

_GOLD_601 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "gold_drude_601.txt"


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
    # the rows' own errors alone exceed 1e-15 of F0: no panel count reaches it
    with pytest.raises(ConvergenceError) as err:
        free_energy_T0(1e-6, GOLD, tol=1e-15)
    assert err.value.best_estimate == pytest.approx(-3.915e-10, rel=5e-2)
    assert 0.0 < err.value.error_estimate < 1e-8 * abs(err.value.best_estimate)


@pytest.mark.parametrize("gap", [math.inf, math.nan], ids=["inf", "nan"])
def test_ideal_metal_rejects_non_finite_gap(gap):
    with pytest.raises(ValueError, match="finite"):
        ideal_metal_T0(gap)


def test_invalid_args():
    for gap in (-1e-6, math.inf, math.nan):
        with pytest.raises(ValueError):
            free_energy_T0(gap, GOLD)
    with pytest.raises(ValueError):
        free_energy_T0(1e-6, GOLD, tol=0.0)


# free_energy_T0(tol=1e-13) of the 2-D tensor-product engine this
# integral was computed with before it moved onto the v panels of the
# Euler-Maclaurin tail: an independent quadrature of the same integral
_TABLE_Z = np.geomspace(1e12, 1e18, 601)
_T0_PINS = [
    ("gold", 0.2e-6, -3.675533571685648e-08),
    ("gold", 1e-6, -3.915133981578031e-10),
    ("gold", 8e-6, -8.279358241383791e-13),
    ("plasma", 0.2e-6, -3.740300453516107e-08),
    ("plasma", 1e-6, -3.9828710838339003e-10),
    ("plasma", 8e-6, -8.372779265207781e-13),
    ("table", 0.2e-6, -3.6755335716904776e-08),
    ("table", 1e-6, -3.915133981577525e-10),
    ("table", 8e-6, -8.279358241382228e-13),
]
_T0_MODELS = {"gold": GOLD, "plasma": PlasmaModel(GOLD.omega_p),
              "table": TabulatedPermittivity(_TABLE_Z, GOLD.epsilon(_TABLE_Z))}


@pytest.mark.parametrize("tol", [1e-8, 1e-11])
@pytest.mark.parametrize("name, gap, pinned", _T0_PINS)
def test_matches_the_two_dimensional_engine(name, gap, pinned, tol):
    res = free_energy_T0(gap, _T0_MODELS[name], tol=tol)
    assert abs(res.f0 - pinned) <= tol * abs(res.f0)
    assert res.error_estimate <= tol * abs(res.f0)
    # 8 panels at tol >= 1e-8, 14 below it, before any bisection
    assert res.evaluations >= (120 if tol >= 1e-8 else 210) and res.evaluations % 15 == 0


@pytest.mark.parametrize("name, gap", [pin[:2] for pin in _T0_PINS] + [("ideal", 8e-6)])
def test_loose_tol_starts_on_eight_panels(name, gap, monkeypatch):
    # at tol >= 1e-8 the 8-panel subset of the breaks meets tol without
    # bisection and stays within roundoff of the 14-panel start (measured
    # at most 1.35e-13 over these models at 0.2-8 um)
    model = IdealMetal() if name == "ideal" else _T0_MODELS[name]
    coarse = free_energy_T0(gap, model, tol=1e-8)
    monkeypatch.setattr(core, "_COARSE_TOL", 1.0)
    full = free_energy_T0(gap, model, tol=1e-8)
    assert (coarse.evaluations, full.evaluations) == (120, 210)
    assert coarse.error_estimate <= 2e-9 * abs(coarse.f0)
    assert abs(coarse.f0 - full.f0) <= 2e-13 * abs(full.f0)


@settings(max_examples=40, deadline=None)
@given(gap=st.floats(0.1e-6, 10e-6), tol=st.sampled_from([1e-6, 1e-8, 1e-11]))
def test_ideal_metal_error_estimate_bounds_the_error(gap, tol):
    res = free_energy_T0(gap, IdealMetal(), tol=tol)
    exact = ideal_metal_T0(gap)
    assert abs(res.f0 - exact) <= res.error_estimate + 4.0 * math.ulp(exact)


def test_eval_rects_is_the_live_panel_evaluator(monkeypatch):
    # free_energy_T0 looks the evaluator up at call time, so a patch of
    # the module binding (as a tracer installs) sees every panel batch,
    # bisected ones included. The first batch's |Kronrod - Gauss| is
    # inflated so that the call has to bisect.
    calls = []
    real = zero_temp._eval_rects

    def counting(model, gap, lo, hi):
        tm, te, gk_err, row_err = real(model, gap, lo, hi)
        if not calls:
            gk_err = 1e4 * gk_err
        calls.append(lo.size)
        return tm, te, gk_err, row_err

    plain = free_energy_T0(1e-6, GOLD, tol=1e-11)
    monkeypatch.setattr(zero_temp, "_eval_rects", counting)
    res = free_energy_T0(1e-6, GOLD, tol=1e-11)
    assert calls[0] == 14 and calls[1:] and all(n == 8 for n in calls[1:])
    assert res.evaluations == 15 * sum(calls)
    assert abs(res.f0 - plain.f0) <= 1e-11 * abs(plain.f0)


def _dense_t_reference(model, gap, panels=150):
    """F(0) on ``panels`` equal GK15 panels in t = sqrt(v) up to y0 = 60.

    Uniform in t from t = 0, so the u^{3/2} term of a Drude-like TE
    channel is a polynomial on every panel, independent of the v breaks.
    """
    t, wk, _ = gk_panels(np.linspace(0.0, math.sqrt(math.log(61.0)), panels + 1))
    v = t * t
    s_tm, s_te, _, _ = mode_integrals(model, gap, (C_LIGHT / (2.0 * gap)) * np.expm1(v))
    integral = math.fsum((s_tm + s_te) * 2.0 * t * np.exp(v) * wk)
    return HBAR * C_LIGHT / (32.0 * math.pi ** 2 * gap ** 3) * integral


@pytest.mark.parametrize("gap", [0.2e-6, 1e-6, 8e-6])
@pytest.mark.parametrize("name", ["drude", "table-601"])
def test_drude_like_metals_converge_on_the_initial_panels(name, gap):
    # GK15 in t = sqrt(v) integrates the u^{3/2} term of the TE channel
    # exactly, so even tol = 1e-11 needs no bisection of the 14 panels
    model = GOLD if name == "drude" else load_permittivity_table(_GOLD_601)
    tol = 1e-11
    res = free_energy_T0(gap, model, tol=tol)
    assert res.evaluations == 210
    reference = _dense_t_reference(model, gap)
    bound = 1e-14 if name == "drude" else tol
    assert abs(res.f0 - reference) <= bound * abs(reference)
