"""Span tracing of the library's layers, installed from outside the package.

The tracer replaces selected functions and methods of the ``lifshitz``
modules with wrappers that record one span per call (name, start, end,
parent span, benchmark call id) and per-layer counts. Modules bind
helpers under their own names (``core``, ``thermo`` and ``zero_temp``
each hold their own ``gk_panels``, ``gl_panels`` or ``_log_reflection``),
so every module-level binding of a wrapped function is patched, not
just the defining one. Spans stay in memory until ``write_spans``.

A layer's self time is its span durations minus the time covered by
child spans; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: how it is derived, and what it should move."""

    name: str
    unit: str
    better: str
    kind: str        # count | self | total | ratio | probe | run
    sources: tuple   # wrapped names ("module:attr") the value depends on
    moves: str       # end-to-end metric and workload it should move


def _m(name, unit, kind, sources, moves, better="lower"):
    return LayerMetric(name, unit, better, kind, tuple(sources), moves)


_EPS = ("dispersion:DrudeModel.eps_minus_one", "dispersion:PlasmaModel.eps_minus_one",
        "dispersion:ConstantPermittivity.eps_minus_one",
        "dispersion:TabulatedPermittivity.eps_minus_one")
_MESH = ("quadrature:gk_panels", "quadrature:gl_panels")
_KERNEL = ("quadrature:log1mexp", "quadrature:inv_expm1")
_DRIVER = ("core:_matsubara_sum", "core:free_energy", "core:pressure")
_T0 = ("zero_temp:free_energy_T0", "zero_temp:_eval_rects")
_SHIFT = ("thermo:free_energy_shift", "thermo:pressure_shift",
          "thermo:delta_f_te_numeric")
_FIT = ("thermo:fit_low_temp", "thermo:r_series", "thermo:collect_lowtemp_samples")
_THERMO = ("thermo:sum_minus_integral", "thermo:entropy") + _SHIFT + _FIT
_CLI_MAIN = ("cli:main",)
_CLI_RENDER = ("cli:Emitter.render", "cli:_write")

_ROOM_WALL = "room_grid wall_s"
_CRYO_WALL = "cryo_sum wall_s"
_NERNST_WALL = "nernst wall_s"

LAYER_METRICS = (
    _m("dispersion.eps_calls", "count", "count", _EPS, f"{_ROOM_WALL} (tabulated third), setup_s"),
    _m("dispersion.eps_values", "count", "count", _EPS, f"{_ROOM_WALL} (tabulated third), setup_s"),
    _m("dispersion.eps_self_s", "s", "self", _EPS, f"{_ROOM_WALL} (tabulated third)"),
    _m("dispersion.table_load_s", "s", "total", ("dispersion:load_permittivity_table",),
       "setup_s on room_grid and nernst"),
    _m("quadrature.mesh_nodes", "count", "count", _MESH,
       f"{_CRYO_WALL}, then {_NERNST_WALL}, then room_grid call_p50_ms"),
    _m("quadrature.mesh_self_s", "s", "self", _MESH,
       f"{_CRYO_WALL}, then {_NERNST_WALL}, then room_grid call_p50_ms"),
    _m("quadrature.kernel_values", "count", "count", _KERNEL,
       f"{_CRYO_WALL}, then {_NERNST_WALL}, then room_grid call_p50_ms"),
    _m("quadrature.kernel_self_s", "s", "self", _KERNEL,
       f"{_CRYO_WALL}, then {_NERNST_WALL}, then room_grid call_p50_ms"),
    _m("quadrature.adaptive_calls", "count", "count", ("quadrature:adaptive_gk",),
       f"{_CRYO_WALL} (fallback path)"),
    _m("core.ln_r_values", "count", "count", ("core:_log_reflection",),
       f"{_CRYO_WALL}, room_grid call_p50_ms"),
    _m("core.ln_r_self_s", "s", "self", ("core:_log_reflection",),
       f"{_CRYO_WALL}, room_grid call_p50_ms"),
    _m("core.gk_contract_self_s", "s", "self", ("core:_gk_integrate",),
       f"{_CRYO_WALL}, room_grid call_p50_ms"),
    _m("core.mode_rows", "count", "count", ("core:mode_integrals",),
       f"{_CRYO_WALL}, room_grid call_p50_ms"),
    _m("core.mode_self_s", "s", "self", ("core:mode_integrals",),
       f"{_CRYO_WALL}, room_grid call_p50_ms"),
    _m("core.zero_mode_self_s", "s", "self", ("core:zero_mode_integrals",),
       "room_grid call_p50_ms"),
    _m("core.driver_self_s", "s", "self", _DRIVER, _CRYO_WALL),
    _m("core.sum_terms_used", "count", "count", ("core:_matsubara_sum",), _CRYO_WALL),
    _m("core.sum_rows_evaluated", "count", "count",
       ("core:_matsubara_sum", "core:mode_integrals", "core:zero_mode_integrals"),
       "room_grid call_p50_ms"),
    _m("core.sum_useful_ratio", "ratio", "ratio",
       ("core:_matsubara_sum", "core:mode_integrals", "core:zero_mode_integrals"),
       "room_grid call_p50_ms", better="higher"),
    _m("core.refine_calls", "count", "count", ("core:_refine_mode",),
       "failed share and wall_s on every workload (expected 0)"),
    _m("zero_temp.calls", "count", "count", ("zero_temp:free_energy_T0",),
       f"{_NERNST_WALL}, cli zero-temp"),
    _m("zero_temp.evaluations", "count", "count", ("zero_temp:free_energy_T0",),
       f"{_NERNST_WALL}, cli zero-temp"),
    _m("zero_temp.rect_batches", "count", "count", ("zero_temp:_eval_rects",),
       f"{_NERNST_WALL}, cli zero-temp"),
    _m("zero_temp.self_s", "s", "self", _T0, f"{_NERNST_WALL}, cli zero-temp"),
    _m("thermo.smi_calls", "count", "count", ("thermo:sum_minus_integral",),
       f"{_NERNST_WALL}, nernst call_p90_ms"),
    _m("thermo.smi_h_values", "count", "count", ("thermo:sum_minus_integral",),
       f"{_NERNST_WALL}, nernst call_p90_ms"),
    _m("thermo.smi_self_s", "s", "self", ("thermo:sum_minus_integral",),
       f"{_NERNST_WALL}, nernst call_p90_ms"),
    _m("thermo.shift_self_s", "s", "self", _SHIFT, f"{_NERNST_WALL}, nernst call_p90_ms"),
    _m("thermo.entropy_self_s", "s", "self", ("thermo:entropy",),
       f"{_NERNST_WALL}, nernst call_p90_ms"),
    _m("thermo.fit_self_s", "s", "self", _FIT, _NERNST_WALL),
    _m("thermo.precision_errors", "count", "count", _THERMO,
       "failed share on nernst (expected 0)"),
    _m("asymptotics.g_rows", "count", "count", ("asymptotics:_g_many",), _NERNST_WALL),
    _m("asymptotics.g_self_s", "s", "self", ("asymptotics:_g_many",), _NERNST_WALL),
    _m("cli.import_s", "s", "probe", (), "cli call_p50_ms, setup_s on every workload"),
    _m("cli.main_self_s", "s", "self", _CLI_MAIN, "cli wall_s (small)"),
    _m("cli.render_self_s", "s", "self", _CLI_RENDER, "cli wall_s (small)"),
    _m("trace.overhead_s", "s", "run", (), "none: traced minus untraced pass time"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_eps(counts, args, kwargs, out, parent):
    counts["dispersion.eps_calls"] += 1
    counts["dispersion.eps_values"] += int(np.size(_arg(args, kwargs, 1, "zeta")))


def _count_mesh(counts, args, kwargs, out, parent):
    counts["quadrature.mesh_nodes"] += int(np.size(out[0]))


def _count_kernel(counts, args, kwargs, out, parent):
    counts["quadrature.kernel_values"] += int(np.size(out))


def _counter(name):
    def hook(counts, args, kwargs, out, parent):
        counts[name] += 1
    return hook


def _count_ln_r(counts, args, kwargs, out, parent):
    counts["core.ln_r_values"] += int(np.size(out[0]))


def _count_mode_rows(counts, args, kwargs, out, parent):
    rows = int(np.size(_arg(args, kwargs, 2, "zetas")))
    counts["core.mode_rows"] += rows
    if parent == "core:_matsubara_sum":
        counts["core.sum_rows_evaluated"] += rows


def _count_zero_mode(counts, args, kwargs, out, parent):
    if parent == "core:_matsubara_sum":
        counts["core.sum_rows_evaluated"] += 1


def _count_terms(counts, args, kwargs, out, parent):
    counts["core.sum_terms_used"] += len(out[0])


def _count_t0(counts, args, kwargs, out, parent):
    counts["zero_temp.calls"] += 1
    counts["zero_temp.evaluations"] += int(out.evaluations)


def _count_g_rows(counts, args, kwargs, out, parent):
    counts["asymptotics.g_rows"] += int(np.size(_arg(args, kwargs, 1, "m")))


def _count_smi(counts, args, kwargs, out, parent):
    counts["thermo.smi_calls"] += 1


def _counting_h(counts, args, kwargs):
    """Wrap the integrand handed to sum_minus_integral to count its values."""
    h = _arg(args, kwargs, 0, "h")

    def counted(u):
        counts["thermo.smi_h_values"] += int(np.size(u))
        return h(u)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, h=counted)


# (wrapped name, count hook, argument rewriter)
WRAPPED = (
    *((name, _count_eps, None) for name in _EPS),
    ("dispersion:load_permittivity_table", None, None),
    *((name, _count_mesh, None) for name in _MESH),
    *((name, _count_kernel, None) for name in _KERNEL),
    ("quadrature:adaptive_gk", _counter("quadrature.adaptive_calls"), None),
    ("core:_log_reflection", _count_ln_r, None),
    ("core:_gk_integrate", None, None),
    ("core:mode_integrals", _count_mode_rows, None),
    ("core:zero_mode_integrals", _count_zero_mode, None),
    ("core:_matsubara_sum", _count_terms, None),
    ("core:free_energy", None, None),
    ("core:pressure", None, None),
    ("core:_refine_mode", _counter("core.refine_calls"), None),
    ("zero_temp:free_energy_T0", _count_t0, None),
    ("zero_temp:_eval_rects", _counter("zero_temp.rect_batches"), None),
    ("thermo:sum_minus_integral", _count_smi, _counting_h),
    *((name, None, None) for name in _SHIFT + _FIT),
    ("thermo:entropy", None, None),
    ("asymptotics:_g_many", _count_g_rows, None),
    *((name, None, None) for name in _CLI_MAIN + _CLI_RENDER),
)


class Tracer:
    """Records spans and counts while installed; restores the library on exit."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.missing = set()
        self.call_id = -1
        self._stack = []
        self._patches = []
        self._t0 = perf_counter()
        from lifshitz.errors import PrecisionError
        self._precision_error = PrecisionError

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lifshitz" or name.startswith("lifshitz.")]
        for name, hook, rewrite in WRAPPED:
            module_name, path = name.split(":")
            owner = importlib.import_module(f"lifshitz.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original, hook, rewrite)
            if classes:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hook, rewrite):
        tracer = self
        is_thermo = name.startswith("thermo:")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if rewrite is not None:
                args, kwargs = rewrite(tracer.counts, args, kwargs)
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except tracer._precision_error as exc:
                if is_thermo and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.counts["thermo.precision_errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[2]
                tracer.total_s[name] += duration
                if parent is not None:
                    parent[2] += duration
                tracer.spans[span_id] = (
                    span_id, name, start - tracer._t0, end - tracer._t0,
                    parent[0] if parent is not None else None, tracer.call_id)
            if hook is not None:
                hook(tracer.counts, args, kwargs, out,
                     parent[1] if parent is not None else None)
            return out

        return traced

    def metrics(self, probe_values: dict) -> dict:
        """Every layer metric as {name: value}; None where a source is gone."""
        out = {}
        for metric in LAYER_METRICS:
            if any(src in self.missing for src in metric.sources):
                out[metric.name] = None
            elif metric.kind == "count":
                out[metric.name] = int(self.counts[metric.name])
            elif metric.kind == "self":
                out[metric.name] = sum(self.self_s[s] for s in metric.sources)
            elif metric.kind == "total":
                out[metric.name] = sum(self.total_s[s] for s in metric.sources)
            elif metric.kind == "ratio":
                used = self.counts["core.sum_terms_used"]
                out[metric.name] = used / max(self.counts["core.sum_rows_evaluated"], 1)
            else:
                out[metric.name] = probe_values[metric.name]
        return out

    def write_spans(self, path):
        """One JSON array per line: id, name, start, end, parent, call id."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
