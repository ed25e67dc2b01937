"""The benchmark's four workloads as fixed call lists built from a seed.

Each workload is a closed loop with one caller: the next call starts
when the previous one returns. Gaps and temperatures are drawn
log-uniformly by stratified sampling: a range is cut into equal strata
in log space and one point is drawn in each, so every seed covers the
whole range and a pass does the same amount of work within a few
percent. The library receives only the generated inputs. Fixed inputs
are the cryo_sum stress case, the criterion-9 temperature grid and the
table1 gaps (the command accepts only reference gaps).

Library functions are always looked up through their module
(``core.pressure``), so the tracer's patches reach these calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("room_grid", "cryo_sum", "nernst", "cli")
TABLE_PATH = Path(__file__).resolve().parent / "data" / "gold_drude_601.txt"
UM = 1e-6
REF_FACTOR = 1e-3  # references are computed at tol * REF_FACTOR
CLI_TIMEOUT_S = 120.0


@dataclass
class Call:
    """One timed library call or CLI invocation and how to judge it.

    ``check`` returns oracle violations for a result. Calls that take a
    ``tol`` also give ``values`` (the tolerance-bound numbers in a
    result) and ``reference`` (the same numbers at tol * REF_FACTOR).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    tol: float | None = None
    values: Callable[[object], list] | None = None
    reference: Callable[[], list] | None = None


def strata(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """n log-uniform draws, one per equal log-width stratum of [lo, hi]."""
    step = math.log(hi / lo) / n
    return [lo * math.exp((i + rng.random()) * step) for i in range(n)]


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return strata(rng, lo, hi, 1)[0]


def setup(workload: str):
    """Import what a workload uses and build its models (the set-up cost)."""
    if workload == "cli":
        import lifshitz.cli
        lifshitz.cli.build_parser()
        return {}
    from lifshitz import core, dispersion
    models = {"drude": dispersion.GOLD}
    if workload in ("room_grid", "nernst"):
        models["plasma"] = dispersion.PlasmaModel(dispersion.GOLD.omega_p)
        models["table"] = dispersion.load_permittivity_table(str(TABLE_PATH))
    if workload == "nernst":
        models["ideal"] = core.IdealMetal()
    return models


def build(workload: str, seed: int, small: bool = False, cli_in_process: bool = False,
          root: Path | None = None, scratch: Path | None = None) -> list:
    """The workload's call list for ``seed``; ``small`` keeps a cheap subset."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return _cli_calls(rng, small, cli_in_process, root, scratch)
    models = setup(workload)
    return {"room_grid": _room_calls, "cryo_sum": _cryo_calls,
            "nernst": _nernst_calls}[workload](rng, models, small)


# ---------------------------------------------------------------- library

def _value(kind, result):
    return result.pressure if kind == "pressure" else result.total


def _sum_reference(kind, model, gap, temp, tol):
    """Direct-sum free energy or pressure at tol * REF_FACTOR."""
    from lifshitz import core
    system = core.PlateSystem(gap, temp, model)
    return _value(kind, getattr(core, kind)(system, tol=tol * REF_FACTOR))


def _direct_sum(kind, model_name, model, gap, temp, tol):
    from lifshitz import core
    classical = model_name != "plasma"
    return Call(
        label=f"{kind} {model_name} a={gap / UM:.4g}um T={temp:.4g}K tol={tol:g}",
        run=lambda: getattr(core, kind)(core.PlateSystem(gap, temp, model), tol=tol),
        check=lambda r: oracles.check_metal_sum(kind, _value(kind, r), gap, temp, classical),
        tol=tol, values=lambda r: [_value(kind, r)],
        reference=lambda: [_sum_reference(kind, model, gap, temp, tol)])


def _t0_reference(model, gap, tol):
    from lifshitz import errors, zero_temp
    try:
        return zero_temp.free_energy_T0(gap, model, tol=tol).f0
    except errors.ConvergenceError as exc:
        # the 2-D engine cannot reach tol * 1e-3 everywhere (tabulated gold
        # at 1e-14); its best estimate is still far inside the call's tol
        return exc.best_estimate


def _zero_temp(model_name, model, gap, tol):
    from lifshitz import zero_temp
    return Call(
        label=f"free_energy_T0 {model_name} a={gap / UM:.4g}um tol={tol:g}",
        run=lambda: zero_temp.free_energy_T0(gap, model, tol=tol),
        check=lambda r: oracles.check_t0(r.f0, gap, ideal=model_name == "ideal"),
        tol=tol, values=lambda r: [r.f0],
        reference=lambda: [_t0_reference(model, gap, tol * REF_FACTOR)])


def _shift(kind, model, gap, temp):
    from lifshitz import core, thermo
    fn_name = f"{kind}_shift"
    return Call(
        label=f"{fn_name} a={gap / UM:.4g}um T={temp:.4g}K",
        run=lambda: getattr(thermo, fn_name)(core.PlateSystem(gap, temp, model)),
        check=lambda r: oracles.check_positive_shift(fn_name, r))


def _entropy(model, gap, temp):
    from lifshitz import core, thermo
    c1, c2 = oracles.low_temp_coefficients(model.omega_p, model.nu, gap)
    return Call(
        label=f"entropy a={gap / UM:.4g}um T={temp:g}K",
        run=lambda: thermo.entropy(core.PlateSystem(gap, temp, model)),
        check=lambda r: oracles.check_entropy(r, c1, c2, temp))


def _fit_calls(model, gap):
    from lifshitz import asymptotics, core, thermo
    c1, c2 = oracles.low_temp_coefficients(model.omega_p, model.nu, gap)

    def fit():
        return thermo.fit_low_temp(thermo.collect_lowtemp_samples(model, gap))

    def series():
        def numeric(t):
            return thermo.delta_f_te_numeric(core.PlateSystem(gap, t, model))
        return thermo.r_series(asymptotics.coefficients(model, gap), numeric,
                               thermo.default_fit_grid())

    return [
        Call(label=f"collect_lowtemp_samples+fit_low_temp a={gap / UM:.4g}um", run=fit,
             check=lambda r: oracles.check_fit(r.d1, r.d2, c1, c2)),
        Call(label=f"r_series a={gap / UM:.4g}um", run=series,
             check=lambda r: oracles.check_r_series(r.intercept, r.correlation)),
    ]


def _tm_slope(model):
    from lifshitz import core, thermo
    temps = np.geomspace(5.0, 50.0, 7)

    def run():
        vals = [abs(thermo.pressure_shift(core.PlateSystem(1 * UM, float(t), model),
                                          polarization="tm")) for t in temps]
        return float(np.polyfit(np.log(temps), np.log(vals), 1)[0])

    return Call(label="criterion-9 TM pressure-shift slope over [5, 50] K",
                run=run, check=oracles.check_tm_slope)


def _room_calls(rng, models, small):
    calls = []
    for name in ("drude", "plasma", "table"):
        for temp in (77.0, 300.0, 350.0):
            for kind in ("pressure", "free_energy"):
                for tol in (1e-6, 1e-9):
                    # own strata per combination, so the jitter averages out
                    for gap in strata(rng, 0.2 * UM, 8 * UM, 6):
                        calls.append(_direct_sum(kind, name, models[name], gap, temp, tol))
    return calls[::36] if small else calls


# gap stratum i of cryo_sum pairs with temperature stratum _CRYO_PAIRING[i]:
# a fixed scramble chosen so the calls span about 250 to 11k terms and no
# seed lands a second call near the stress case
_CRYO_PAIRING = (14, 11, 17, 13, 8, 16, 15, 7, 9, 6, 3, 10, 4, 5, 12, 2, 0, 18, 1)


def _cryo_calls(rng, models, small):
    gold = models["drude"]
    gaps = strata(rng, 0.2 * UM, 4 * UM, len(_CRYO_PAIRING))
    temps = strata(rng, 0.1, 4.0, len(_CRYO_PAIRING))
    inputs = [("pressure" if i % 2 else "free_energy", gap, temps[_CRYO_PAIRING[i]])
              for i, gap in enumerate(gaps)]
    if small:
        # the two cheapest: fewest terms at the largest gap * temperature
        inputs = sorted(inputs, key=lambda x: x[1] * x[2])[-2:]
    else:
        # ROADMAP stress case: 76k terms at the seed
        inputs.append(("pressure", 0.2 * UM, 0.1))
    return [_direct_sum(kind, "drude", gold, gap, temp, 1e-6) for kind, gap, temp in inputs]


def _nernst_calls(rng, models, small):
    gold = models["drude"]
    calls = []
    for name in ("drude", "plasma", "ideal", "table"):
        for tol in (1e-8, 1e-11):
            for gap in strata(rng, 0.2 * UM, 8 * UM, 8):
                calls.append(_zero_temp(name, models[name], gap, tol))
    for kind in ("free_energy", "pressure"):
        # temperature stratum 5i mod 16 goes with gap stratum i: a fixed scramble
        gaps = strata(rng, 0.2 * UM, 8 * UM, 16)
        temps = strata(rng, 1e-3, 10.0, 16)
        calls += [_shift(kind, gold, gap, temps[(5 * i) % 16]) for i, gap in enumerate(gaps)]
    calls += [_entropy(gold, log_uniform(rng, 0.5 * UM, 2 * UM), t) for t in (0.005, 0.05, 1.0)]
    calls += _fit_calls(gold, log_uniform(rng, 0.9 * UM, 1.1 * UM))
    calls.append(_tm_slope(models["ideal"]))
    return calls[::16] if small else calls


# ---------------------------------------------------------------- CLI

def _parse_table(text: str, fmt: str):
    """(rows as dicts, diagnostics) from the CLI's csv or json output."""
    if fmt == "json":
        payload = json.loads(text)
        rows = [dict(zip(payload["columns"], row)) for row in payload["rows"]]
        return rows, payload["diagnostics"]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [{k: float(v) for k, v in zip(header, ln.split(","))} for ln in lines[1:]]
    return rows, {}


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    max_rss_kb: int = 0


def _run_in_process(argv):
    from lifshitz import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


def _run_subprocess(argv, root: Path, scratch: Path):
    """One fresh ``python -m lifshitz.cli`` process; its own peak RSS via wait4."""
    out_path, err_path = scratch / "cli.stdout", scratch / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "lifshitz.cli", *argv],
                                stdout=out, stderr=err, cwd=root)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out_path.read_text(), err_path.read_text(),
                     usage.ru_maxrss)


def _cli_call(argv, fmt, check_rows, runner, tol=None, values=None, reference=None):
    """A CLI invocation; ``check_rows(rows, diagnostics)`` gives oracle violations."""
    argv = [str(a) for a in argv] + ["--format", fmt]

    def parsed(result):
        if result.code != 0:
            raise RuntimeError(f"exit code {result.code}: {result.stderr.strip()}")
        return _parse_table(result.stdout, fmt)

    def check(result):
        try:
            rows, diag = parsed(result)
        except (RuntimeError, ValueError, KeyError, IndexError) as exc:
            return [f"unusable output: {exc}"]
        return check_rows(rows, diag)

    return Call(label="lifshitz " + " ".join(argv), run=lambda: runner(argv), check=check,
                tol=tol, values=(lambda r: values(parsed(r)[0])) if values else None,
                reference=reference)


def _cli_calls(rng, small, in_process, root, scratch):
    from lifshitz import dispersion
    gold = dispersion.GOLD
    if in_process:
        runner = _run_in_process
    else:
        def runner(argv):
            return _run_subprocess(argv, root, scratch)

    def sums_check(rows):
        bad = []
        for row in rows:
            if "pressure_Pa" in row:
                bad += oracles.check_metal_sum("pressure", row["pressure_Pa"], row["gap_m"],
                                               row["temperature_K"], True)
            if "free_energy_J_m2" in row:
                bad += oracles.check_metal_sum("free_energy", row["free_energy_J_m2"],
                                               row["gap_m"], row["temperature_K"], True)
        return bad

    def pressure_call(gap, temp, fmt, material=()):
        gap, temp = float(f"{gap:.6g}"), float(f"{temp:.6g}")

        def reference():
            model = dispersion.load_permittivity_table(str(TABLE_PATH)) if material else gold
            return [_sum_reference("pressure", model, gap, temp, 1e-6)]

        return _cli_call(
            ["pressure", "--gap", gap, "--temp", temp, "--tol", "1e-6", *material],
            fmt, lambda rows, d: sums_check(rows), runner, tol=1e-6,
            values=lambda rows: [rows[0]["pressure_Pa"]], reference=reference)

    calls = [pressure_call(log_uniform(rng, 0.2 * UM, 8 * UM), log_uniform(rng, 77, 350), "csv")]

    gap = float(f"{log_uniform(rng, 0.2 * UM, 8 * UM):.6g}")
    t_lo, t_hi = (float(f"{log_uniform(rng, 77, 150):.6g}"),
                  float(f"{log_uniform(rng, 250, 350):.6g}"))
    temps = np.geomspace(t_lo, t_hi, 3)
    calls.append(_cli_call(
        ["free-energy", "--gap", gap, "--temp", f"{t_lo}:{t_hi}:3:log", "--tol", "1e-6"],
        "json", lambda rows, d: sums_check(rows), runner, tol=1e-6,
        values=lambda rows: [r["free_energy_J_m2"] for r in rows],
        reference=lambda: [_sum_reference("free_energy", gold, gap, float(t), 1e-6)
                           for t in temps]))

    gap_t0 = float(f"{log_uniform(rng, 0.2 * UM, 8 * UM):.6g}")
    calls.append(_cli_call(
        ["zero-temp", "--gap", gap_t0], "csv",
        lambda rows, d: oracles.check_t0(rows[0]["free_energy_J_m2"], gap_t0, False),
        runner, tol=1e-8, values=lambda rows: [rows[0]["free_energy_J_m2"]],
        reference=lambda: [_t0_reference(gold, gap_t0, 1e-8 * REF_FACTOR)]))

    gap_s = float(f"{log_uniform(rng, 0.5 * UM, 2 * UM):.6g}")
    t_s = float(f"{log_uniform(rng, 0.005, 0.05):.6g}")
    c1_s, c2_s = oracles.low_temp_coefficients(gold.omega_p, gold.nu, gap_s)
    calls.append(_cli_call(
        ["entropy", "--gap", gap_s, "--temp", t_s], "json",
        lambda rows, d: oracles.check_entropy(rows[0]["entropy_J_m2K"], c1_s, c2_s, t_s),
        runner))

    def table1_check(rows, diag):
        bad = []
        for row in rows:
            bad += oracles.check_table1(row["gap_um"], row["temperature_K"], row["computed_mPa"])
        return bad

    table_points = [(g, t) for g in (0.5, 2.0) for t in (1.0, 300.0, 350.0)]
    calls.append(_cli_call(
        ["table1", "--gaps", "0.5,2"], "csv", table1_check, runner, tol=1e-6,
        values=lambda rows: [r["computed_mPa"] for r in rows],
        reference=lambda: [abs(_sum_reference("pressure", gold, g * UM, t, 1e-6)) * 1e3
                           for g, t in table_points]))

    g_lo = float(f"{log_uniform(rng, 0.3 * UM, 1 * UM):.6g}")
    g_hi = float(f"{log_uniform(rng, 3 * UM, 8 * UM):.6g}")
    s_lo, s_hi = (float(f"{log_uniform(rng, 77, 150):.6g}"),
                  float(f"{log_uniform(rng, 250, 350):.6g}"))
    sweep_points = [(float(g), float(t)) for g in np.geomspace(g_lo, g_hi, 4)
                    for t in np.geomspace(s_lo, s_hi, 2)]
    calls.append(_cli_call(
        ["sweep", "--gap", f"{g_lo}:{g_hi}:4:log", "--temp", f"{s_lo}:{s_hi}:2:log",
         "--tol", "1e-6"], "csv", lambda rows, d: sums_check(rows), runner, tol=1e-6,
        values=lambda rows: [v for r in rows for v in (r["free_energy_J_m2"], r["pressure_Pa"])],
        reference=lambda: [_sum_reference(kind, gold, g, t, 1e-6) for g, t in sweep_points
                           for kind in ("free_energy", "pressure")]))

    gap_f = float(f"{log_uniform(rng, 0.9 * UM, 1.1 * UM):.6g}")
    c1_f, c2_f = oracles.low_temp_coefficients(gold.omega_p, gold.nu, gap_f)
    calls.append(_cli_call(
        ["fit-lowtemp", "--gap", gap_f], "json",
        lambda rows, d: oracles.check_fit(d["d1_J_m2K2"], d["d2_per_sqrtK"], c1_f, c2_f),
        runner))

    gap_a = float(f"{log_uniform(rng, 0.2 * UM, 8 * UM):.6g}")
    c1_a, c2_a = oracles.low_temp_coefficients(gold.omega_p, gold.nu, gap_a)

    def asymptotics_check(rows, diag):
        row, bad = rows[0], []
        g_slope = -oracles.TWO_LN2_MINUS_1 / 4.0
        if oracles.rel_error(row["c1_J_m2K2"], c1_a) > 1e-6:
            bad.append(f"c1 {row['c1_J_m2K2']:.9g} off the closed form {c1_a:.9g}")
        if oracles.rel_error(row["c2_per_sqrtK"], c2_a) > 1e-6:
            bad.append(f"c2 {row['c2_per_sqrtK']:.9g} off the closed form {c2_a:.9g}")
        if abs(row["g_slope_integral"] - g_slope) > 1e-8:
            bad.append(f"g slope integral {row['g_slope_integral']:.9g} off {g_slope:.9g}")
        if oracles.rel_error(row["g_slope_at_zero"], g_slope) > 1e-3:
            bad.append(f"g slope at zero {row['g_slope_at_zero']:.9g} off {g_slope:.9g}")
        bad += [f"Pade shift {r['delta_f_pade_J_m2']} not positive"
                for r in rows if not r["delta_f_pade_J_m2"] > 0.0]
        return bad

    calls.append(_cli_call(
        ["asymptotics", "--gap", gap_a, "--temp", "0.001:0.1:3:log"], "csv",
        asymptotics_check, runner))

    z_lo = float(f"{log_uniform(rng, 1e12, 1e13):.6g}")
    k_lo = float(f"{log_uniform(rng, 1e4, 1e5):.6g}")

    def surface_check(rows, diag):
        bad = []
        for row in rows:
            a, b = row["a_tm"], row["b_te"]
            inside = row["kperp_per_m"] * oracles.C_LIGHT >= row["zeta_rad_s"]
            if inside and not (a is not None and 0.0 <= b <= a <= 1.0):
                bad.append(f"0 <= B <= A <= 1 fails: A={a}, B={b} at {row}")
            if not inside and a is not None:
                bad.append(f"point outside the domain not NaN: {row}")
        return bad

    calls.append(_cli_call(
        ["coeff-surface", "--zeta-range", f"{z_lo}:{z_lo * 1e4:.6g}:6:log",
         "--kperp-range", f"{k_lo}:{k_lo * 1e3:.6g}:5:log"], "json", surface_check, runner))

    # the tabulated gold through the CLI's --material table path
    calls.append(pressure_call(log_uniform(rng, 0.2 * UM, 8 * UM), log_uniform(rng, 77, 350),
                               "json", ("--material", "table", "--table-path",
                                        os.path.relpath(TABLE_PATH, root))))
    return [calls[0], calls[2]] if small else calls


def time_call(call: Call):
    """(seconds, result or the exception it raised)."""
    start = time.perf_counter()
    try:
        result = call.run()
    except Exception as exc:  # a failed call is counted, not fatal
        result = exc
    return time.perf_counter() - start, result
