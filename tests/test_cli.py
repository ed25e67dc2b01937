import json
import math

import numpy as np
import pytest

from lifshitz import cli
from lifshitz.cli import main, parse_range


def run_cli(capsys, *args):
    rc = main(list(args))
    out, err = capsys.readouterr()
    return rc, out, err


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


class TestParseRange:
    def test_scalar(self):
        assert parse_range("300").tolist() == [300.0]

    def test_linear(self):
        got = parse_range("100:300:3:lin")
        assert got.tolist() == [100.0, 200.0, 300.0]

    def test_log(self):
        got = parse_range("1e-3:1e-1:3:log")
        assert got == pytest.approx([1e-3, 1e-2, 1e-1])

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_range("1:2:3")
        with pytest.raises(ValueError):
            parse_range("1:2:0:lin")
        with pytest.raises(ValueError):
            parse_range("1:2:3:geometric")
        with pytest.raises(ValueError):
            parse_range("-1:2:3:log")


class TestDeterminism:
    def test_same_config_same_bytes(self, capsys):
        args = ("pressure", "--gap", "1e-6", "--temp", "300")
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("args", [
        ("pressure", "--gap", "1e-6", "--temp", "100:300:3:lin"),
        ("free-energy", "--gap", "1e-6", "--temp", "300"),
        ("zero-temp", "--gap", "1e-6"),
        ("entropy", "--gap", "1e-6", "--temp", "0.01"),
        ("sweep", "--gap", "1e-6:2e-6:2:log", "--temp", "300"),
        ("asymptotics", "--gap", "1e-6", "--temp", "0.001:0.1:3:log"),
        ("fit-lowtemp", "--gap", "1e-6"),
        ("r-series", "--gap", "1e-6", "--temp", "2e-3:2e-2:4:log"),
        ("coeff-surface", "--zeta-range", "1e14:1e16:3:log", "--kperp-range", "1e4:1e8:5:log"),
        ("table1", "--gaps", "0.5", "--temps", "300"),
    ], ids=lambda args: args[0])
    def test_csv_and_json_encode_equal_values(self, capsys, args):
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        header, rows = csv_rows(out_csv)
        payload = json.loads(out_json)
        assert payload["columns"] == header
        assert len(payload["rows"]) == len(rows) > 0
        for csv_row, json_row in zip(rows, payload["rows"]):
            for c, j in zip(csv_row, json_row):
                assert c == "nan" if j is None else float(c) == float(j)
        comments = dict(line[2:].split(" = ", 1)
                        for line in out_csv.splitlines() if line.startswith("# "))
        for key, value in {**payload["config"], **payload["diagnostics"]}.items():
            if isinstance(value, float):
                assert float(comments[key]) == value

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        rc, out, _ = run_cli(capsys, "pressure", "--gap", "1e-6",
                             "--temp", "300", "--out", str(target))
        assert rc == 0
        assert out == ""
        assert target.read_text().startswith("# command = pressure")


class TestCommands:
    def test_pressure_row(self, capsys):
        rc, out, _ = run_cli(capsys, "pressure", "--gap", "1e-6", "--temp", "300")
        assert rc == 0
        header, rows = csv_rows(out)
        assert header[:3] == ["gap_m", "temperature_K", "pressure_Pa"]
        assert len(rows) == 1
        p = float(rows[0][2])
        assert abs(p) * 1e3 == pytest.approx(0.9852, rel=2e-2)

    def test_plasma_stronger_than_drude(self, capsys):
        _, out_d, _ = run_cli(capsys, "pressure", "--gap", "1e-6", "--temp", "300")
        _, out_p, _ = run_cli(capsys, "pressure", "--gap", "1e-6", "--temp", "300",
                              "--material", "plasma")
        p_d = float(csv_rows(out_d)[1][0][2])
        p_p = float(csv_rows(out_p)[1][0][2])
        assert abs(p_p) > abs(p_d)

    def test_free_energy_temp_zero_routes_to_zero_temp(self, capsys):
        rc, out, _ = run_cli(capsys, "free-energy", "--gap", "1e-6", "--temp", "0")
        assert rc == 0
        header, rows = csv_rows(out)
        assert "error_estimate_J_m2" in header
        f0 = float(rows[0][1])
        assert f0 == pytest.approx(-3.9151339816e-10, rel=1e-6)

    def test_zero_temp_command_matches_routing(self, capsys):
        _, via_fe, _ = run_cli(capsys, "free-energy", "--gap", "1e-6", "--temp", "0")
        _, direct, _ = run_cli(capsys, "zero-temp", "--gap", "1e-6")
        assert csv_rows(via_fe)[1] == csv_rows(direct)[1]

    def test_free_energy_range(self, capsys):
        rc, out, _ = run_cli(capsys, "free-energy", "--gap", "1e-6",
                             "--temp", "100:300:3:lin")
        assert rc == 0
        _, rows = csv_rows(out)
        assert [float(r[1]) for r in rows] == [100.0, 200.0, 300.0]
        assert all(float(r[2]) < 0.0 for r in rows)

    def test_entropy_low_t_negative(self, capsys):
        rc, out, _ = run_cli(capsys, "entropy", "--gap", "1e-6", "--temp", "0.01")
        assert rc == 0
        _, rows = csv_rows(out)
        assert float(rows[0][2]) < 0.0

    def test_asymptotics_values(self, capsys):
        rc, out, _ = run_cli(capsys, "asymptotics", "--gap", "1e-6")
        assert rc == 0
        header, rows = csv_rows(out)
        vals = dict(zip(header, rows[0]))
        assert float(vals["c1_J_m2K2"]) == pytest.approx(5.81e-13, rel=1e-2)
        assert float(vals["c2_per_sqrtK"]) == pytest.approx(3.03, rel=2e-2)
        assert float(vals["g_slope_at_zero"]) == pytest.approx(
            -(2.0 * math.log(2.0) - 1.0) / 4.0, abs=1e-6)

    def test_fit_lowtemp_diagnostics(self, capsys):
        rc, out, _ = run_cli(capsys, "fit-lowtemp", "--gap", "1e-6", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        d = payload["diagnostics"]
        assert d["d1_J_m2K2"] == pytest.approx(5.81e-13, rel=5e-2)
        assert d["residual_norm"] < 0.05
        assert len(payload["rows"]) == 12

    @pytest.mark.parametrize("gap", ["2e-6", "4e-6", "8e-6"])
    def test_fit_lowtemp_at_large_gaps(self, capsys, gap):
        rc, out, _ = run_cli(capsys, "fit-lowtemp", "--gap", gap, "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        d = payload["diagnostics"]
        assert d["residual_norm"] < 0.02
        assert d["d1_J_m2K2"] == pytest.approx(5.81e-13, rel=2e-2)
        assert d["d2_per_sqrtK"] == pytest.approx(3.03 * float(gap) / 1e-6, rel=0.07)
        assert len(payload["rows"]) == 12

    def test_r_series_diagnostics(self, capsys):
        rc, out, _ = run_cli(capsys, "r-series", "--gap", "1e-6",
                             "--temp", "2e-3:2e-2:6:log", "--format", "json")
        assert rc == 0
        d = json.loads(out)["diagnostics"]
        assert abs(d["intercept"]) < 0.05
        assert d["correlation"] > 0.98

    def test_coeff_surface_masks_propagating_points(self, capsys):
        rc, out, _ = run_cli(capsys, "coeff-surface",
                             "--zeta-range", "1e14:1e16:3:log",
                             "--kperp-range", "1e4:1e8:5:log")
        assert rc == 0
        _, rows = csv_rows(out)
        assert len(rows) == 15
        nan_rows = [r for r in rows if r[2] == "nan"]
        ok_rows = [r for r in rows if r[2] != "nan"]
        assert nan_rows and ok_rows
        for r in ok_rows:
            assert 0.0 <= float(r[2]) <= 1.0
            assert 0.0 <= float(r[3]) <= 1.0

    def test_coeff_surface_json_uses_null(self, capsys):
        rc, out, _ = run_cli(capsys, "coeff-surface",
                             "--zeta-range", "1e16:1e16:1:lin",
                             "--kperp-range", "1e4:1e4:1:lin",
                             "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["rows"][0][2] is None


class TestTable1:
    def test_full_grid(self, capsys):
        rc, out, _ = run_cli(capsys, "table1")
        assert rc == 0
        header, rows = csv_rows(out)
        assert header == ["gap_um", "temperature_K", "computed_mPa",
                          "reference_mPa", "rel_deviation"]
        assert len(rows) == 18
        for r in rows:
            gap = float(r[0])
            allowed = 0.05 if gap == 0.2 else 0.02
            assert abs(float(r[4])) < allowed

    def test_single_cell(self, capsys):
        rc, out, _ = run_cli(capsys, "table1", "--gaps", "0.5", "--temps", "300")
        assert rc == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1
        assert float(rows[0][3]) == 15.49
        assert float(rows[0][2]) == pytest.approx(15.49, rel=2e-2)

    def test_unknown_cell_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "table1", "--gaps", "0.7")
        assert rc == 1
        assert "reference" in err

    def test_unknown_cell_rejected_before_any_pressure(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "pressure", lambda *a, **k: calls.append(a))
        rc, out, err = run_cli(capsys, "table1", "--gaps", "0.5,0.7")
        assert (rc, out, calls) == (1, "", [])
        assert err == "error: no reference value for gap 0.7 um, T 1.0 K\n"


class TestFailureModes:
    def test_bad_range_spec(self, capsys):
        rc, _, err = run_cli(capsys, "pressure", "--gap", "1e-6",
                             "--temp", "1:2:3:geometric")
        assert rc == 1
        assert "error:" in err

    def test_table_material_needs_path(self, capsys):
        rc, _, err = run_cli(capsys, "pressure", "--gap", "1e-6",
                             "--temp", "300", "--material", "table")
        assert rc == 1
        assert "table-path" in err

    def test_missing_table_file(self, capsys):
        rc, _, err = run_cli(capsys, "pressure", "--gap", "1e-6", "--temp", "300",
                             "--material", "table", "--table-path", "/nonexistent.tab")
        assert rc == 1

    def test_zero_temp_applies_its_tol(self, capsys):
        # 0.1 is outside free_energy_T0's range, so the run must fail
        rc, out, err = run_cli(capsys, "zero-temp", "--gap", "1e-6", "--tol", "0.1")
        assert (rc, out) == (1, "")
        assert "tol must be in (0, 1e-2]" in err

    def test_asymptotics_rejects_plasma(self, capsys):
        # the three commands of the low-temperature expansion
        for command in ("asymptotics", "fit-lowtemp", "r-series"):
            rc, out, err = run_cli(capsys, command, "--gap", "1e-6",
                                   "--material", "plasma")
            assert (rc, out, err) == (1, "", f"error: {command} requires --material drude\n")

    def test_coeff_surface_rejects_non_finite_grid(self, capsys):
        rc, out, err = run_cli(capsys, "coeff-surface", "--zeta-range", "nan",
                               "--kperp-range", "1e5")
        assert rc == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("args", [("--gap", "inf"), ("--gap", "1e-6", "--temp", "nan")],
                             ids=["gap_inf", "temp_nan"])
    def test_asymptotics_rejects_non_finite_input(self, capsys, args):
        rc, out, err = run_cli(capsys, "asymptotics", *args)
        assert rc == 1
        assert out == ""
        assert "finite" in err

    def test_sweep_partial_flush(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        rc, _, err = run_cli(capsys, "sweep", "--gap", "1e-6",
                             "--temp", "300:0:2:lin", "--out", str(target))
        assert rc == 1
        text = target.read_text()
        _, rows = csv_rows(text)
        assert len(rows) == 1  # the 300 K point survived
        assert "# error = " in text
        assert "failed after 1 points" in err

    def test_a_temperature_range_keeps_its_finished_rows(self, capsys):
        rc, out, err = run_cli(capsys, "pressure", "--gap", "1e-6", "--temp", "300:0:2:lin")
        assert rc == 1
        _, rows = csv_rows(out)
        assert [float(r[1]) for r in rows] == [300.0]
        assert "# error = ValueError: temperature must be finite" in out
        assert "error: pressure failed after 1 points" in err

    def test_a_failure_before_the_first_row_writes_no_table(self, capsys):
        rc, out, err = run_cli(capsys, "sweep", "--gap", "1e-6", "--temp", "0:300:2:lin")
        assert (rc, out) == (1, "")
        assert err == "error: temperature must be finite and > 0 K, got 0.0\n"

    def test_r_series_on_one_repeated_temperature(self, capsys):
        rc, out, err = run_cli(capsys, "r-series", "--gap", "1e-6",
                               "--temp", "1e-3:1e-3:4:lin")
        assert (rc, out) == (1, "")
        assert err == ("error: lowest decade of the grid holds fewer than 3 "
                       "distinct temperatures\n")

    def test_zero_temperature_inside_a_range(self, capsys):
        # T = 0 routes free-energy to the T = 0 integral only as a scalar
        rc, out, err = run_cli(capsys, "free-energy", "--gap", "1e-6", "--temp", "0:300:2:lin")
        assert (rc, out) == (1, "")
        assert err == "error: T = 0 must be requested as a scalar, not a range\n"

    def test_unwritable_out(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, "pressure", "--gap", "1e-6", "--temp", "300",
                               "--out", str(tmp_path / "missing" / "p.csv"))
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and "p.csv" in err

    def test_negative_gap(self, capsys):
        rc, _, err = run_cli(capsys, "pressure", "--gap=-1e-6", "--temp", "300")
        assert rc == 1
        assert "gap" in err


class TestMaterialTable(object):
    def test_tabulated_material_runs(self, capsys, tmp_path):
        from lifshitz.dispersion import GOLD
        z = np.geomspace(1e12, 1e18, 240)
        path = tmp_path / "gold.tab"
        path.write_text("\n".join(f"{zi:.10e} {GOLD.epsilon(zi):.10e}" for zi in z) + "\n")
        rc, out, _ = run_cli(capsys, "pressure", "--gap", "1e-6", "--temp", "300",
                             "--material", "table", "--table-path", str(path))
        assert rc == 0
        _, rows = csv_rows(out)
        p_tab = float(rows[0][2])
        _, out_d, _ = run_cli(capsys, "pressure", "--gap", "1e-6", "--temp", "300")
        p_drude = float(csv_rows(out_d)[1][0][2])
        assert p_tab == pytest.approx(p_drude, rel=1e-4)
