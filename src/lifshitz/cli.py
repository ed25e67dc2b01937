"""Command-line interface: computations, sweeps, fits, and data export.

Every command fills one table, which ``main`` writes as CSV
('#'-prefixed header comments, comma separators) or as a JSON object
{config, columns, rows, diagnostics}. CSV prints floats with 9
significant digits and JSON rounds them to the same digits, so repeated
runs with the same configuration are byte-identical and both formats
carry exactly the same values. When a command fails after its first
row, the finished rows are written with an ``error`` diagnostic and the
exit status is 1; a failure before the first row writes no table.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .asymptotics import (coefficients, g_slope_at_zero, pade_delta_f,
                          te_slope_integral)
from .constants import ev_to_rad_per_s
from .core import PlateSystem, coefficient_surface, free_energy, pressure
from .dispersion import (DrudeModel, PlasmaModel, load_permittivity_table)
from .errors import LifshitzError
from .thermo import (collect_lowtemp_samples, default_fit_grid,
                     delta_f_te_numeric, entropy, fit_low_temp, r_series)
from .zero_temp import free_energy_T0

# reference |P| in mPa for gold half-spaces (Drude, omega_p = 9.03 eV,
# nu = 34.5 meV), indexed by (gap in um, temperature in K)
TABLE1_REFERENCE = {
    (0.2, 1.0): 508.2, (0.2, 300.0): 497.8, (0.2, 350.0): 495.7,
    (0.5, 1.0): 16.56, (0.5, 300.0): 15.49, (0.5, 350.0): 15.30,
    (1.0, 1.0): 1.143, (1.0, 300.0): 0.9852, (1.0, 350.0): 0.9590,
    (2.0, 1.0): 7.549e-2, (2.0, 300.0): 5.550e-2, (2.0, 350.0): 5.344e-2,
    (3.0, 1.0): 1.520e-2, (3.0, 300.0): 1.033e-2, (3.0, 350.0): 1.049e-2,
    (4.0, 1.0): 4.858e-3, (4.0, 300.0): 3.481e-3, (4.0, 350.0): 3.804e-3,
}


def _round9(value):
    """A finite float rounded to the 9 significant digits CSV prints."""
    if isinstance(value, float) and np.isfinite(value):
        return float(f"{value:.9g}")
    return value


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def parse_range(spec: str) -> np.ndarray:
    """Parse a scalar or a "start:stop:count:lin|log" range."""
    if ":" not in spec:
        return np.array([float(spec)])
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(
            f"range spec {spec!r} must be start:stop:count:lin|log")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError(f"range count must be >= 1, got {count}")
    if parts[3] == "lin":
        return np.linspace(start, stop, count)
    if parts[3] == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("log range endpoints must be positive")
        return np.geomspace(start, stop, count)
    raise ValueError(f"range kind must be lin or log, got {parts[3]!r}")


def build_model(args):
    if args.material == "drude":
        return DrudeModel(ev_to_rad_per_s(args.omega_p_ev),
                          ev_to_rad_per_s(args.nu_mev / 1000.0))
    if args.material == "plasma":
        return PlasmaModel(ev_to_rad_per_s(args.omega_p_ev))
    if not args.table_path:
        raise ValueError("--table-path is required with --material table")
    return load_permittivity_table(args.table_path)


def _drude_model(args):
    """The Drude model, which the low-temperature expansion needs."""
    model = build_model(args)
    if not isinstance(model, DrudeModel):
        raise ValueError(f"{args.command} requires --material drude")
    return model


class Emitter:
    """One table: a command sets ``columns``, adds to ``config`` and
    ``diagnostics`` and appends ``rows``; ``render`` writes CSV or JSON
    with identical values."""

    def __init__(self, config: dict):
        self.config = config
        self.columns = []
        self.rows = []
        self.diagnostics = {}

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = {"config": {k: _round9(v) for k, v in self.config.items()},
                       "columns": self.columns,
                       "rows": [[None if isinstance(v, float) and not np.isfinite(v)
                                 else _round9(v) for v in row] for row in self.rows],
                       "diagnostics": {k: _round9(v)
                                       for k, v in self.diagnostics.items()}}
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        lines = []
        for key in sorted(self.config):
            lines.append(f"# {key} = {_fmt(self.config[key])}")
        for key in sorted(self.diagnostics):
            lines.append(f"# {key} = {_fmt(self.diagnostics[key])}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"


def _write(args, emitter: Emitter):
    text = emitter.render(args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(args, table, columns, row, gaps=None, **config):
    """One row per gap of the range ``gaps`` (--gap when None) and
    temperature of --temp.

    ``row(system)`` gives the values of ``columns``, which follow
    gap_m and temperature_K; ``config`` joins --temp in the table's
    config.
    """
    model = build_model(args)
    gaps = [args.gap] if gaps is None else parse_range(gaps)
    temps = parse_range(args.temp)
    table.config.update(temp=args.temp, **config)
    table.columns = ["gap_m", "temperature_K"] + columns
    for g in gaps:
        for t in temps:
            system = PlateSystem(float(g), float(t), model)
            table.rows.append([float(g), float(t)] + row(system))


def cmd_pressure(args, table):
    def row(system):
        res = pressure(system, tol=args.tol)
        return [res.pressure, res.tm_part, res.te_part, res.m_max, res.tail_estimate]
    _grid(args, table, ["pressure_Pa", "tm_part_Pa", "te_part_Pa", "m_last", "tail_Pa"],
          row, gap_m=args.gap, tol=args.tol)


def cmd_free_energy(args, table):
    temps = parse_range(args.temp)
    if np.any(temps == 0.0):
        if temps.size != 1:
            raise ValueError("T = 0 must be requested as a scalar, not a range")
        return cmd_zero_temp(args, table)

    def row(system):
        res = free_energy(system, tol=args.tol)
        return [res.total, res.tm_part, res.te_part, res.m_max, res.tail_estimate]
    _grid(args, table,
          ["free_energy_J_m2", "tm_part_J_m2", "te_part_J_m2", "m_last", "tail_J_m2"],
          row, gap_m=args.gap, tol=args.tol)


def cmd_zero_temp(args, table):
    res = free_energy_T0(args.gap, build_model(args), tol=args.tol)
    table.config.update(gap_m=args.gap, tol=args.tol)
    table.columns = ["gap_m", "free_energy_J_m2", "tm_part_J_m2",
                     "te_part_J_m2", "error_estimate_J_m2", "evaluations"]
    table.rows.append([args.gap, res.f0, res.tm_part, res.te_part,
                       res.error_estimate, res.evaluations])


def cmd_entropy(args, table):
    _grid(args, table, ["entropy_J_m2K"], lambda system: [entropy(system)],
          gap_m=args.gap)


def cmd_sweep(args, table):
    def row(system):
        return [free_energy(system, tol=args.tol).total,
                pressure(system, tol=args.tol).pressure]
    _grid(args, table, ["free_energy_J_m2", "pressure_Pa"], row,
          gaps=args.gap_range, gap=args.gap_range, tol=args.tol)


def cmd_asymptotics(args, table):
    model = _drude_model(args)
    co = coefficients(model, args.gap)
    slope = g_slope_at_zero(PlateSystem(args.gap, 1e-4, model))
    table.config.update(gap_m=args.gap, temp=args.temp)
    table.columns = ["gap_m", "c1_J_m2K2", "c2_per_sqrtK", "g_slope_at_zero",
                     "g_slope_integral"]
    base = [args.gap, co.c1, co.c2, slope, te_slope_integral()]
    if args.temp:
        table.columns += ["temperature_K", "delta_f_pade_J_m2"]
        for t in parse_range(args.temp):
            table.rows.append(base + [float(t), pade_delta_f(co, float(t))])
    else:
        table.rows.append(base)


def cmd_fit_lowtemp(args, table):
    model = _drude_model(args)
    grid = parse_range(args.temp) if args.temp else None
    samples = collect_lowtemp_samples(model, args.gap, t_grid=grid,
                                      tol=args.tol)
    fit = fit_low_temp(samples)
    table.config.update(gap_m=args.gap, tol=args.tol)
    table.columns = ["temperature_K", "delta_f_numeric_J_m2", "delta_f_model_J_m2"]
    for t, df in fit.grid:
        modeled = fit.d1 * (t ** 2 - fit.d2 * t ** 2.5 + fit.d3 * t ** 3)
        table.rows.append([t, df, modeled])
    table.diagnostics.update(d1_J_m2K2=fit.d1, d2_per_sqrtK=fit.d2,
                             d3_per_K=fit.d3, residual_norm=fit.residual_norm)


def cmd_r_series(args, table):
    model = _drude_model(args)
    grid = parse_range(args.temp) if args.temp else default_fit_grid()
    co = coefficients(model, args.gap)

    def numeric(t):
        return delta_f_te_numeric(PlateSystem(args.gap, t, model),
                                  tol=args.tol)

    series = r_series(co, numeric, grid)
    table.config.update(gap_m=args.gap, tol=args.tol)
    table.columns = ["temperature_K", "r_value"]
    for t, r in series.samples:
        table.rows.append([t, r])
    table.diagnostics.update(
        intercept=series.intercept,
        intercept_uncertainty=series.intercept_uncertainty,
        slope_at_origin_per_K=series.slope_at_origin,
        correlation=series.correlation, c1_J_m2K2=co.c1, c2_per_sqrtK=co.c2)


def cmd_coeff_surface(args, table):
    model = build_model(args)
    zeta = parse_range(args.zeta_range)
    kperp = parse_range(args.kperp_range)
    surf = coefficient_surface(model, zeta, kperp)
    table.config.update(zeta=args.zeta_range, kperp=args.kperp_range)
    table.columns = ["zeta_rad_s", "kperp_per_m", "a_tm", "b_te"]
    for i, z in enumerate(surf.zeta):
        for j, q in enumerate(surf.kperp):
            table.rows.append([float(z), float(q), float(surf.a_tm[i, j]),
                               float(surf.b_te[i, j])])


def cmd_table1(args, table):
    model = build_model(args)
    gaps = ([float(g) for g in args.gaps.split(",")] if args.gaps
            else [0.2, 0.5, 1.0, 2.0, 3.0, 4.0])
    temps = ([float(t) for t in args.temps.split(",")] if args.temps
             else [1.0, 300.0, 350.0])
    cells = [(g, t) for g in gaps for t in temps]
    for g, t in cells:
        if (g, t) not in TABLE1_REFERENCE:
            raise ValueError(f"no reference value for gap {g} um, T {t} K")
    table.config.update(tol=args.tol)
    table.columns = ["gap_um", "temperature_K", "computed_mPa",
                     "reference_mPa", "rel_deviation"]
    for g, t in cells:
        res = pressure(PlateSystem(g * 1e-6, t, model), tol=args.tol)
        computed = abs(res.pressure) * 1e3
        ref = TABLE1_REFERENCE[(g, t)]
        table.rows.append([g, t, computed, ref, (computed - ref) / ref])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifshitz",
        description="Thermal Casimir free energy, pressure, and entropy "
                    "between metal half-spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, gap=True, temp=None, tol=1e-6):
        p.add_argument("--material", choices=["drude", "plasma", "table"],
                       default="drude")
        p.add_argument("--omega-p-ev", type=float, default=9.03,
                       help="plasma frequency in eV")
        p.add_argument("--nu-mev", type=float, default=34.5,
                       help="relaxation rate in meV")
        p.add_argument("--table-path", default=None,
                       help="permittivity table for --material table")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if gap:
            p.add_argument("--gap", type=float, required=True,
                           help="plate separation in m")
        if temp == "required":
            p.add_argument("--temp", required=True,
                           help="temperature in K, or start:stop:count:lin|log")
        elif temp == "optional":
            p.add_argument("--temp", default=None,
                           help="temperature in K, or start:stop:count:lin|log")

    p = sub.add_parser("pressure", help="Casimir pressure")
    add_common(p, temp="required")
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("free-energy", help="free energy per unit area")
    add_common(p, temp="required")
    p.set_defaults(func=cmd_free_energy)

    p = sub.add_parser("zero-temp", help="T = 0 free energy")
    add_common(p, tol=1e-8)
    p.set_defaults(func=cmd_zero_temp)

    p = sub.add_parser("entropy", help="entropy per unit area")
    add_common(p, temp="required", tol=None)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("sweep", help="free energy and pressure on a grid")
    add_common(p, gap=False, temp="required")
    p.add_argument("--gap", dest="gap_range", required=True,
                   help="gap in m, or start:stop:count:lin|log")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("asymptotics", help="low-temperature TE coefficients")
    add_common(p, temp="optional", tol=None)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("fit-lowtemp", help="fit the low-T shift model")
    add_common(p, temp="optional", tol=1e-9)
    p.set_defaults(func=cmd_fit_lowtemp)

    p = sub.add_parser("r-series", help="relative difference series R(T)")
    add_common(p, temp="optional", tol=1e-9)
    p.set_defaults(func=cmd_r_series)

    p = sub.add_parser("coeff-surface", help="reflection coefficients on a grid")
    add_common(p, gap=False, tol=None)
    p.add_argument("--zeta-range", required=True,
                   help="imaginary frequency grid, start:stop:count:lin|log (rad/s)")
    p.add_argument("--kperp-range", required=True,
                   help="transverse wavenumber grid, start:stop:count:lin|log (1/m)")
    p.set_defaults(func=cmd_coeff_surface)

    p = sub.add_parser("table1", help="pressure against reference values")
    add_common(p, gap=False)
    p.add_argument("--gaps", default=None, help="comma list of gaps in um")
    p.add_argument("--temps", default=None, help="comma list of temperatures in K")
    p.set_defaults(func=cmd_table1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = {"command": args.command, "material": args.material,
              "omega_p_ev": args.omega_p_ev, "nu_mev": args.nu_mev,
              "format": args.format}
    if args.table_path:
        config["table_path"] = args.table_path
    table = Emitter(config)
    try:
        args.func(args, table)
    except (LifshitzError, ValueError, OSError) as exc:
        if not table.rows:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        table.diagnostics["error"] = f"{type(exc).__name__}: {exc}"
        print(f"error: {args.command} failed after {len(table.rows)} points: {exc}",
              file=sys.stderr)
    try:
        _write(args, table)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if "error" in table.diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
