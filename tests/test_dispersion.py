import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifshitz.constants import ev_to_rad_per_s
from lifshitz.dispersion import (GOLD, GOLD_NU_EV, GOLD_OMEGA_P_EV,
                                 ConstantPermittivity, DrudeModel,
                                 PlasmaModel, TabulatedPermittivity,
                                 load_permittivity_table)
from lifshitz.errors import TableFormatError


class TestDrude:
    def test_formula(self):
        m = DrudeModel(2.0, 0.5)
        zeta = 3.0
        assert m.eps_minus_one(zeta) == pytest.approx(4.0 / (3.0 * 3.5), rel=1e-15)
        assert m.epsilon(zeta) == pytest.approx(1.0 + 4.0 / 10.5, rel=1e-15)

    def test_gold_parameters(self):
        assert GOLD_OMEGA_P_EV == 9.03
        assert GOLD_NU_EV == pytest.approx(0.0345)
        assert GOLD.omega_p == pytest.approx(ev_to_rad_per_s(9.03))
        assert GOLD.nu == pytest.approx(ev_to_rad_per_s(0.0345))
        # omega_p^2 / nu, the scale that controls the low-frequency TE mode
        assert GOLD.omega_p ** 2 / GOLD.nu == pytest.approx(3.5908e18, rel=1e-4)

    def test_vectorized(self):
        z = np.geomspace(1e12, 1e17, 7)
        eps = GOLD.epsilon(z)
        assert eps.shape == z.shape
        assert np.all(np.diff(eps) < 0.0)  # monotone decreasing on the axis

    def test_zero_frequency_divergence(self):
        # eps ~ omega_p^2/(zeta nu) as zeta -> 0, so zeta^2 (eps-1) -> 0
        z = 1e-3
        small = z ** 2 * GOLD.eps_minus_one(z)
        assert small == pytest.approx(1e-3 * GOLD.omega_p ** 2 / GOLD.nu, rel=1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DrudeModel(0.0, 1.0)
        with pytest.raises(ValueError):
            DrudeModel(1.0, -1.0)
        with pytest.raises(ValueError):
            GOLD.epsilon(-1.0)


class TestPlasma:
    def test_formula(self):
        m = PlasmaModel(2.0)
        assert m.eps_minus_one(4.0) == pytest.approx(0.25, rel=1e-15)

    def test_te_zero_mode_survives(self):
        # zeta^2 (eps-1) -> omega_p^2, nonzero, unlike the Drude case
        m = PlasmaModel(GOLD.omega_p)
        for z in (1e-6, 1.0, 1e6):
            assert z ** 2 * m.eps_minus_one(z) == pytest.approx(
                GOLD.omega_p ** 2, rel=1e-12)

    def test_drude_limit(self):
        # nu -> 0 Drude approaches plasma at fixed zeta
        p = PlasmaModel(3.0)
        d = DrudeModel(3.0, 1e-12)
        assert d.epsilon(2.0) == pytest.approx(p.epsilon(2.0), rel=1e-10)


class TestConstantPermittivity:
    def test_constant(self):
        m = ConstantPermittivity(4.0)
        assert m.epsilon(1e10) == 4.0
        assert m.eps_minus_one(1e15) == 3.0

    def test_vacuum_allowed(self):
        assert ConstantPermittivity(1.0).eps_minus_one(1.0) == 0.0

    def test_rejects_below_vacuum(self):
        with pytest.raises(ValueError):
            ConstantPermittivity(0.5)


class TestTabulated:
    def make_gold_table(self, per_decade=40, lo=1e12, hi=1e18):
        z = np.geomspace(lo, hi, int(per_decade * math.log10(hi / lo)) + 1)
        return TabulatedPermittivity(z, GOLD.epsilon(z))

    def test_interpolation_accuracy(self):
        tab = self.make_gold_table()
        probe = np.geomspace(2e12, 5e17, 400)
        rel = np.abs(tab.epsilon(probe) / GOLD.epsilon(probe) - 1.0)
        assert rel.max() < 1e-7

    def test_nodes_reproduced(self):
        tab = self.make_gold_table(per_decade=10)
        assert tab.epsilon(tab.zeta[5]) == pytest.approx(tab.eps[5], rel=1e-12)

    def test_low_end_drude_tail(self):
        """Extrapolation below the table follows a fitted Drude model."""
        tab = self.make_gold_table(lo=1e13)
        fitted = tab.low_freq_model
        assert fitted.omega_p == pytest.approx(GOLD.omega_p, rel=1e-3)
        assert fitted.nu == pytest.approx(GOLD.nu, rel=2e-2)
        probe = np.array([1e10, 1e11, 1e12])
        rel = np.abs(tab.epsilon(probe) / GOLD.epsilon(probe) - 1.0)
        assert rel.max() < 1e-3

    def test_high_end_power_law(self):
        tab = self.make_gold_table(hi=1e17)
        # Drude goes as omega_p^2/zeta^2 up there; the continued slope
        # should track it to a few percent per decade
        assert tab.epsilon(3e17) == pytest.approx(GOLD.epsilon(3e17), rel=5e-2)

    def test_zero_mode_class_follows_drude_tail(self):
        tab = self.make_gold_table()
        z = 1e-2
        assert z ** 2 * tab.eps_minus_one(z) == pytest.approx(
            z ** 2 * GOLD.eps_minus_one(z), rel=1e-2)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_short_table_interpolates_linearly_in_log_log(self, rows):
        # fewer than four rows: log(eps - 1) linear in log zeta between the
        # knots, the fitted Drude tail below them, the last slope above
        zeta = np.array([1e13, 1e14, 1e15])[:rows]
        eps = np.array([101.0, 11.0, 1.5])[:rows]
        tab = TabulatedPermittivity(zeta, eps)
        assert tab.eps_minus_one(zeta) == pytest.approx(eps - 1.0, rel=1e-14)
        mid = np.sqrt(zeta[:-1] * zeta[1:])
        assert tab.eps_minus_one(mid) == pytest.approx(np.sqrt((eps[:-1] - 1.0)
                                                               * (eps[1:] - 1.0)), rel=1e-14)
        below = np.array([1e11, 5e12])
        assert isinstance(tab.low_freq_model, DrudeModel)
        assert np.array_equal(tab.eps_minus_one(below), tab.low_freq_model.eps_minus_one(below))
        above = zeta[-1] * np.array([1.5, 10.0, 1e3])
        assert np.array_equal(tab.eps_minus_one(above), _power_law(tab, above))

    def test_validation(self):
        for zeta in ([0.0, 2.0], [-1.0, 2.0]):
            with pytest.raises(TableFormatError, match="zeta must be > 0"):
                TabulatedPermittivity(np.array(zeta), np.array([2.0, 2.0]))
        with pytest.raises(TableFormatError):
            TabulatedPermittivity(np.array([1.0]), np.array([2.0]))
        with pytest.raises(TableFormatError):
            TabulatedPermittivity(np.array([1.0, 0.5]), np.array([2.0, 2.0]))
        with pytest.raises(TableFormatError):
            TabulatedPermittivity(np.array([1.0, 2.0]), np.array([2.0, 0.9]))
        for bad in (math.inf, math.nan):
            with pytest.raises(TableFormatError):
                TabulatedPermittivity(np.array([1.0, 2.0]), np.array([2.0, bad]))
            with pytest.raises(TableFormatError):
                TabulatedPermittivity(np.array([1.0, bad]), np.array([2.0, 2.0]))


_GOLD_601 = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "gold_drude_601.txt"


def _gold_table(lo, hi, rows):
    z = np.geomspace(lo, hi, rows)
    return TabulatedPermittivity(z, GOLD.epsilon(z))


def _power_law(tab, zeta):
    """exp(ln(eps_n - 1) + s (ln zeta - ln zeta_n)), s the last log-log slope."""
    log_z, log_e = np.log(tab.zeta), np.log(tab.eps - 1.0)
    slope = (log_e[-1] - log_e[-2]) / (log_z[-1] - log_z[-2])
    return np.exp(log_e[-1] + slope * (np.log(zeta) - log_z[-1]))


@pytest.mark.parametrize("table", [
    lambda: load_permittivity_table(_GOLD_601),
    lambda: _gold_table(1e13, 1e17, 2),
    lambda: _gold_table(1e13, 1e17, 3),
    lambda: _gold_table(1e13, 1e17, 4),
], ids=["601-rows", "2-rows", "3-rows", "4-rows"])
def test_above_the_table_is_the_last_slope_bit_for_bit(table):
    tab = table()
    hi = tab.zeta[-1]
    above = np.concatenate([[np.nextafter(hi, math.inf)], hi * np.geomspace(1.001, 1e6, 60)])
    assert np.array_equal(tab.eps_minus_one(above), _power_law(tab, above))


def test_far_below_the_table_raises_no_floating_point_warning():
    # ln(eps - 1) an exact cubic in ln zeta, which the spline reproduces:
    # its first piece, continued to zeta = 1e-2, would overflow exp there
    def cubic(x):
        return 5.0 - (x - 30.0) - 0.02 * (x - 30.0) ** 3

    assert cubic(math.log(1e-2)) > math.log(np.finfo(float).max)
    x = np.linspace(math.log(1e13), math.log(1e16), 8)
    tab = TabulatedPermittivity(np.exp(x), 1.0 + np.exp(cubic(x)))
    probe = np.geomspace(1e-2, 0.999 * tab.zeta[0], 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = tab.eps_minus_one(probe)
        alone = tab.eps_minus_one(1e-2)
    assert np.array_equal(values, tab.low_freq_model.eps_minus_one(probe))
    assert alone == values[0] and np.all(np.isfinite(values))


class TestSplineAndFit:
    """The numpy spline and Drude fit, alone and against scipy as an oracle."""

    def test_spline_reproduces_a_cubic(self):
        # a not-a-knot spline is exact for a cubic, on any grid
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(28.0, 40.0, 23))
        cubic = np.polynomial.Polynomial([5.0, -1.5, 0.3, -0.02], domain=[28.0, 40.0])
        tab = TabulatedPermittivity(np.exp(x), 1.0 + np.exp(cubic(x)))
        probe = np.linspace(x[0], x[-1], 997)
        rel = np.abs(tab.eps_minus_one(np.exp(probe)) / np.exp(cubic(probe)) - 1.0)
        assert rel.max() < 1e-12

    @pytest.mark.parametrize("table", [
        lambda: _gold_table(1e12, 1e18, 241),
        lambda: _gold_table(1e13, 1e18, 201),
        lambda: _gold_table(1e13, 1e17, 5),
    ], ids=["from-1e12", "from-1e13", "two-rows-in-the-decade"])
    def test_fit_recovers_an_exact_drude_table(self, table):
        fitted = table().low_freq_model
        assert fitted.omega_p == pytest.approx(GOLD.omega_p, rel=1e-10)
        assert fitted.nu == pytest.approx(GOLD.nu, rel=1e-10)

    @pytest.mark.parametrize("eps", [
        lambda z: np.full_like(z, 3.0),
        lambda z: 1.0 + (GOLD.omega_p / z) ** 2,
    ], ids=["flat", "plasma"])
    def test_fit_of_a_non_drude_table_is_finite(self, eps):
        z = np.geomspace(1e13, 1e17, 41)
        fitted = TabulatedPermittivity(z, eps(z)).low_freq_model
        assert isinstance(fitted, DrudeModel)
        assert math.isfinite(fitted.omega_p) and math.isfinite(fitted.nu)

    @pytest.mark.parametrize("table", [
        lambda: load_permittivity_table(_GOLD_601),
        lambda: _gold_table(1e13, 1e17, 4),
        lambda: _gold_table(1e13, 1e17, 5),
    ], ids=["601-rows", "4-rows", "5-rows"])
    def test_spline_matches_scipy(self, table):
        interpolate = pytest.importorskip("scipy.interpolate")
        tab = table()
        oracle = interpolate.CubicSpline(np.log(tab.zeta), np.log(tab.eps - 1.0))
        probe = np.concatenate([tab.zeta, np.geomspace(tab.zeta[0], tab.zeta[-1], 4001)])
        rel = np.abs(tab.eps_minus_one(probe) / np.exp(oracle(np.log(probe))) - 1.0)
        assert rel.max() < 1e-13

    @pytest.mark.parametrize("table", [
        lambda: load_permittivity_table(_GOLD_601),
        lambda: _gold_table(1e12, 1e18, 241),
        lambda: _gold_table(1e13, 1e18, 201),
        lambda: _gold_table(1e13, 1e17, 100),
    ], ids=["601-rows", "from-1e12", "from-1e13", "1e13-1e17"])
    def test_fit_matches_least_squares(self, table):
        # tables with many rows in the lowest decade, where least_squares
        # itself converges to 1e-9; on two rows it stops short of the exact fit
        optimize = pytest.importorskip("scipy.optimize")
        tab = table()
        low = tab.zeta <= 10.0 * tab.zeta[0]
        if np.count_nonzero(low) < 2:
            low[:2] = True
        z, log_e = tab.zeta[low], np.log(tab.eps[low] - 1.0)

        def residual(params):
            return 2.0 * params[0] - np.log(z) - np.log(z + math.exp(params[1])) - log_e

        nu0 = 10.0 * z[-1]
        wp0 = math.sqrt(math.exp(log_e[0]) * z[0] * (z[0] + nu0))
        sol = optimize.least_squares(residual, x0=[math.log(wp0), math.log(nu0)])
        fitted = tab.low_freq_model
        assert fitted.omega_p == pytest.approx(math.exp(sol.x[0]), rel=1e-9)
        assert fitted.nu == pytest.approx(math.exp(sol.x[1]), rel=1e-9)


@pytest.mark.parametrize("where", ["inside", "below", "above", "mixed"])
def test_table_value_does_not_depend_on_the_batch(where):
    # inside the table the spline, below and above it the Drude tail:
    # a zeta gives the same value alone, in a batch or in a column
    tab = load_permittivity_table(_GOLD_601)
    lo, hi = tab.zeta[0], tab.zeta[-1]
    rng = np.random.default_rng(3)
    inside = np.concatenate([[lo, hi], tab.zeta[::37],
                             np.exp(rng.uniform(math.log(lo), math.log(hi), 200))])
    probe = {"inside": inside,
             "below": lo * np.geomspace(1e-9, 0.999, 40),
             "above": hi * np.geomspace(1.001, 1e4, 40),
             "mixed": np.concatenate([inside[:50], lo * np.geomspace(1e-3, 0.5, 5),
                                      hi * np.geomspace(2.0, 1e3, 5)])}[where]
    batch = tab.eps_minus_one(probe)
    one_by_one = np.array([tab.eps_minus_one(z) for z in probe])
    column = tab.eps_minus_one(probe[:, None])
    assert np.array_equal(batch, one_by_one)
    assert column.shape == (probe.size, 1) and np.array_equal(column[:, 0], batch)
    assert all(type(tab.eps_minus_one(float(z))) is float for z in probe[:3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1e14])
def test_table_rejects_an_invalid_zeta_next_to_valid_ones(bad):
    # a bad zeta fails alone or in a batch that is otherwise inside the
    # table; the analytic models share the check
    models = (load_permittivity_table(_GOLD_601), GOLD, PlasmaModel(GOLD.omega_p),
              ConstantPermittivity(4.0))
    for model in models:
        for zeta in (bad, [1e14, bad], [[1e14], [bad]]):
            with pytest.raises(ValueError, match="finite and > 0"):
                model.eps_minus_one(zeta)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build", [
    lambda x: DrudeModel(x, 1.0), lambda x: DrudeModel(1.0, x),
    lambda x: PlasmaModel(x), lambda x: ConstantPermittivity(x),
], ids=["drude-omega_p", "drude-nu", "plasma", "constant"])
def test_models_reject_non_finite_parameters(build, bad):
    with pytest.raises(ValueError):
        build(bad)


class TestLoader:
    def test_round_trip(self, tmp_path):
        z = np.geomspace(1e13, 1e16, 50)
        eps = GOLD.epsilon(z)
        path = tmp_path / "gold.tab"
        lines = ["# zeta_rad_s epsilon"]
        lines += [f"{zi:.12e} {ei:.12e}" for zi, ei in zip(z, eps)]
        path.write_text("\n".join(lines) + "\n")
        tab = load_permittivity_table(path)
        assert tab.zeta.size == 50
        assert tab.epsilon(1e14) == pytest.approx(GOLD.epsilon(1e14), rel=1e-6)

    def test_stream_input(self):
        tab = load_permittivity_table(io.StringIO("1e13 100.0\n1e14 2.0\n"))
        assert tab.zeta[0] == 1e13

    def test_line_numbers_in_errors(self):
        bad = "1e13 100.0\nnot numbers\n"
        with pytest.raises(TableFormatError) as err:
            load_permittivity_table(io.StringIO(bad))
        assert err.value.line_number == 2

        bad = "# header\n1e13 100.0\n1e12 150.0\n"
        with pytest.raises(TableFormatError) as err:
            load_permittivity_table(io.StringIO(bad))
        assert err.value.line_number == 3
        assert "increasing" in str(err.value)

    @pytest.mark.parametrize("line, message", [
        ("nan 2.0", "non-finite value"), ("1e14 inf", "non-finite value"),
        ("0 2.0", "zeta must be > 0"), ("-1e14 2.0", "zeta must be > 0")])
    def test_non_finite_or_non_positive_row_rejected(self, line, message):
        with pytest.raises(TableFormatError, match=message) as err:
            load_permittivity_table(io.StringIO(f"# header\n1e13 100.0\n{line}\n"))
        assert err.value.line_number == 3

    def test_wrong_column_count(self):
        with pytest.raises(TableFormatError) as err:
            load_permittivity_table(io.StringIO("1e13 2.0 3.0\n"))
        assert err.value.line_number == 1

    def test_eps_at_or_below_one_rejected(self):
        with pytest.raises(TableFormatError) as err:
            load_permittivity_table(io.StringIO("1e13 2.0\n1e14 1.0\n"))
        assert err.value.line_number == 2

    def test_too_few_rows(self):
        with pytest.raises(TableFormatError):
            load_permittivity_table(io.StringIO("1e13 2.0\n"))


@given(st.floats(min_value=1e10, max_value=1e18))
@settings(max_examples=50, deadline=None)
def test_epsilon_above_one_everywhere(zeta):
    """On the imaginary axis every causal metal model gives eps > 1."""
    for model in (GOLD, PlasmaModel(GOLD.omega_p)):
        assert model.epsilon(zeta) > 1.0


@given(st.floats(min_value=1e10, max_value=1e17),
       st.floats(min_value=1.1, max_value=4.0))
@settings(max_examples=50, deadline=None)
def test_epsilon_monotone_decreasing(zeta, factor):
    assert GOLD.epsilon(zeta * factor) < GOLD.epsilon(zeta)
