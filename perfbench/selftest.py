"""Self-test of the benchmark at minimal size.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics run.py and
tracer.py produce, that a minimal-size run of every workload prints
every named metric with its unit on its last line, and that two traced
runs with the same seed report identical per-layer counts. Exits 1 on
the first set of problems found, 0 when everything holds.
"""

import json
import subprocess
import sys
from pathlib import Path

import run
from tracer import LAYER_METRICS

RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, trace: int) -> dict:
    res = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", str(trace), "--size", "min"],
                         capture_output=True, text=True, timeout=300)
    if res.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {res.returncode}: {res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: dict, where: str) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: last line has keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted = {result.get('attempted')!r}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(expected))} "
                        "printed or expected but not both")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {entry.get('unit')!r}, want {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} = {entry.get('value')!r} is not a number")
    return problems


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if end_to_end != run.GATED:
        problems.append(f"BENCHMARK.json end_to_end {end_to_end} != run.GATED {run.GATED}")
    layers = {m.name: (m.unit, m.better) for m in LAYER_METRICS}
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if listed != layers:
        problems.append(f"BENCHMARK.json per_layer differs from tracer.LAYER_METRICS: "
                        f"{sorted(set(listed.items()) ^ set(layers.items()))}")
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_result(bench(workload, 0), end_to_end, f"{workload} trace=0")
        first, second = bench(workload, 1), bench(workload, 1)
        problems += check_result(first, per_layer, f"{workload} trace=1")
        for name, unit in per_layer.items():
            if unit == "count" and first["metrics"][name] != second["metrics"][name]:
                problems.append(f"{workload}: {name} differs between two traced runs: "
                                f"{first['metrics'][name]} vs {second['metrics'][name]}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print("PROBLEM " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
