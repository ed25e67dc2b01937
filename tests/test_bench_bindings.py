"""Every function the benchmark's tracer wraps still exists and still runs.

``perfbench/tracer.py`` wraps library functions by name and prints a
metric as ``null`` when its function is gone, which the benchmark's
self-test rejects. These tests read its ``WRAPPED`` list without
editing the file and resolve each name the way ``Tracer.__enter__``
does: a module attribute, or a method in its class's own ``vars``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lifshitz import core, dispersion, thermo, zero_temp
from lifshitz.dispersion import GOLD, PlasmaModel

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACER_PATH = _PERFBENCH / "tracer.py"
_TABLE_PATH = _PERFBENCH / "data" / "gold_drude_601.txt"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolve(name):
    module_name, path = name.split(":")
    owner = importlib.import_module(f"lifshitz.{module_name}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
    return vars(owner).get(attr) if owner is not None else None


@pytest.mark.parametrize("name", [entry[0] for entry in tracer.WRAPPED])
def test_wrapped_binding_exists(name):
    assert callable(_resolve(name)), f"{name} is wrapped by the tracer but not defined"


def test_layer_metric_sources_are_wrapped():
    wrapped = {entry[0] for entry in tracer.WRAPPED}
    for metric in tracer.LAYER_METRICS:
        assert set(metric.sources) <= wrapped, metric.name


def _probes():
    return {m.name: 0.0 for m in tracer.LAYER_METRICS if m.kind in ("probe", "run")}


def test_traced_zero_temp_call_reports_every_metric():
    probes = _probes()
    with tracer.Tracer() as trace:  # it patches the bindings of lifshitz modules
        zero_temp.free_energy_T0(1e-6, GOLD, tol=1e-8)
    assert trace.missing == set()
    metrics = trace.metrics(probes)
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["zero_temp.calls"] == 1
    assert metrics["zero_temp.rect_batches"] >= 1
    assert metrics["zero_temp.evaluations"] == metrics["core.mode_rows"] > 0


def test_traced_room_grid_calls_report_every_metric():
    """The benchmark's room_grid path: zero modes and sums of its three model classes."""
    with tracer.Tracer() as trace:
        table = dispersion.load_permittivity_table(str(_TABLE_PATH))
        for model in (GOLD, PlasmaModel(GOLD.omega_p), table):
            core.pressure(core.PlateSystem(1e-6, 300.0, model))
    assert trace.missing == set()
    metrics = trace.metrics(_probes())
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["core.sum_rows_evaluated"] > 0
    assert metrics["dispersion.eps_calls"] > 0


def test_traced_shift_counts_every_h_value(monkeypatch):
    """The tracer counts h at ``sum_minus_integral``'s first argument, so it
    sees each call of the ladder's rungs and bisections: once per distinct
    u evaluated."""
    seen = []
    real_ladder = thermo._ladder

    def recording(h, tol):
        def h_seen(u):
            seen.append(np.array(u))
            return h(u)
        return real_ladder(h_seen, tol)

    monkeypatch.setattr(thermo, "_ladder", recording)
    with tracer.Tracer() as trace:
        thermo.free_energy_shift(core.PlateSystem(1e-6, 0.01, GOLD))
    assert trace.missing == set()
    metrics = trace.metrics(_probes())
    u = np.concatenate(seen)
    assert metrics["thermo.smi_calls"] == 1
    assert metrics["thermo.smi_h_values"] == np.unique(u).size == u.size
