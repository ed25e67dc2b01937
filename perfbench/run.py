"""Benchmark of the lifshitz library and its CLI.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload room_grid --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): room_grid, cryo_sum, nernst, cli. A run
with ``--trace 0`` repeats the workload's call list until ``--seconds``
have passed, checks every result against physics oracles and every
``tol``-taking call against the same call at tol * 1e-3, and reports
the end-to-end metrics. A run with ``--trace 1`` does one untraced
pass, then one pass with every layer wrapped by tracer.py, and reports
the per-layer metrics and the tracing overhead; its spans go to
``.bench_out/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
same run in readable form and as a ``details`` JSON object that also
carries the metrics not gated by BENCHMARK.json (call_p90_ms,
failed_share, tol_miss_share) and the machine facts.
"""

import os

# one BLAS/OpenMP thread, here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"
LISTED = 20  # failures and tolerance misses printed in full

# end-to-end metrics gated by BENCHMARK.json, with their units
GATED = {"wall_s": "s", "call_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_library():
    """Import lifshitz from ./src, never from anywhere else."""
    if not (SRC / "lifshitz" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'lifshitz'}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import lifshitz
    if not os.path.realpath(lifshitz.__file__).startswith(str(SRC.resolve()) + os.sep):
        raise BenchError(f"lifshitz imported from {lifshitz.__file__}, not {SRC}")


def probe(workload: str, runs: int) -> list:
    """Set-up seconds of ``runs`` fresh interpreters. The first run in a new
    checkout also compiles bytecode; the median leaves that run out."""
    times = []
    for _ in range(runs):
        res = subprocess.run([sys.executable, str(PROBE), workload], cwd=ROOT,
                             capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise BenchError(f"set-up probe failed: {res.stderr.strip()}")
        times.append(float(res.stdout.split()[-1]))
    return times


def run_pass(calls, tracer=None):
    """(pass seconds, per-call seconds, results) for one pass over calls."""
    latencies, results = [], []
    start = perf_counter()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = i
        seconds, result = workloads.time_call(call)
        latencies.append(seconds)
        results.append(result)
    return perf_counter() - start, latencies, results


def _oracle_problems(call, result):
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"]
    try:
        return call.check(result)
    except Exception as exc:  # a result the oracle cannot read is a failure
        return [f"oracle could not read the result: {type(exc).__name__}: {exc}"]


def verify(calls, passes):
    """Oracle failures over every pass, and tolerance misses per distinct call."""
    attempted, failures = 0, []
    for results in passes:
        for call, result in zip(calls, results):
            attempted += 1
            problems = _oracle_problems(call, result)
            if problems:
                failures.append({"call": call.label, "problems": problems})
    tol_calls, misses = 0, []
    for call, result in zip(calls, passes[0]):
        if call.tol is None:
            continue
        tol_calls += 1
        if isinstance(result, Exception):
            misses.append({"call": call.label, "error_over_tol": None})
            continue
        try:
            worst = max(oracles.rel_error(v, r) for v, r in
                        zip(call.values(result), call.reference(), strict=True))
        except Exception as exc:  # no reference at the tighter tol is a miss too
            misses.append({"call": call.label, "error_over_tol": None, "error": repr(exc)})
            continue
        if worst > call.tol:
            misses.append({"call": call.label, "error_over_tol": worst / call.tol})
    return attempted, failures, tol_calls, misses


def _distinct(failures):
    """Failures once per call: repeated passes repeat the same inputs."""
    return list({item["call"]: item for item in failures}.values())


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measured_run(args, calls):
    # set-up probes are spread over the run: before the passes, after them
    # and after the checks, so one slow spell of the host does not set the median
    setup = probe(args.workload, 2)
    passes = []
    start = perf_counter()
    # another pass only if it ends nearer to --seconds than stopping now
    while not passes or perf_counter() - start + passes[-1][0] / 2 < args.seconds:
        passes.append(run_pass(calls))
    if args.workload == "cli":
        rss_kb = max((r.max_rss_kb for _, _, results in passes for r in results
                      if isinstance(r, workloads.CliResult)), default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup += probe(args.workload, 1)
    attempted, failures, tol_calls, misses = verify(calls, [p[2] for p in passes])
    setup += probe(args.workload, 2)
    latencies_ms = [1e3 * s for _, lat, _ in passes for s in lat]
    n = len(latencies_ms)
    metrics = {
        "wall_s": (statistics.median(p[0] for p in passes), "s", len(passes)),
        "call_p50_ms": (statistics.median(latencies_ms), "ms", n),
        "call_p90_ms": (statistics.quantiles(latencies_ms, n=10)[8] if n >= 100 else None,
                        "ms", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
        "failed_share": (len(failures) / attempted, "share", attempted),
        "tol_miss_share": (len(misses) / tol_calls if tol_calls else None, "share", tol_calls),
    }
    per_call_ms = [1e3 * statistics.median(lat[i] for _, lat, _ in passes)
                   for i in range(len(calls))]
    details = {"passes": len(passes), "calls_per_pass": len(calls),
               "pass_s": [p[0] for p in passes],
               "calls": [{"call": c.label, "median_ms": ms} for c, ms in zip(calls, per_call_ms)],
               "metrics": {k: {"value": v, "unit": u, "samples": s}
                           for k, (v, u, s) in metrics.items()},
               "failures": _distinct(failures)[:LISTED], "tol_misses": misses[:LISTED]}
    lines = [f"{k:16s} {'n/a (fewer than 100 calls)' if v is None else f'{v:.6g} {u}'}"
             f"  [{s} samples]" for k, (v, u, s) in metrics.items()]
    gated = {k: {"value": metrics[k][0], "unit": u} for k, u in GATED.items()}
    return attempted, len(failures), gated, details, lines


def traced_run(args):
    def build():
        return workloads.build(args.workload, args.seed, args.size == "min",
                               cli_in_process=True, root=ROOT, scratch=OUT)

    import lifshitz.cli  # noqa: F401  (so neither pass pays its import)
    from tracer import LAYER_METRICS, Tracer
    start = perf_counter()
    run_pass(build())
    plain_s = perf_counter() - start
    with Tracer() as tracer:
        start = perf_counter()
        calls = build()
        _, _, results = run_pass(calls, tracer)
        traced_s = perf_counter() - start
    import_s = statistics.median(probe("cli", 3))
    attempted, failures, tol_calls, misses = verify(calls, [results])
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    values = tracer.metrics({"cli.import_s": import_s, "trace.overhead_s": traced_s - plain_s})
    layer = {m.name: {"value": values[m.name], "unit": m.unit} for m in LAYER_METRICS}
    details = {"metrics": layer, "missing": sorted(tracer.missing), "spans": len(tracer.spans),
               "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
               "predictions": {m.name: m.moves for m in LAYER_METRICS},
               "failures": _distinct(failures)[:LISTED], "tol_misses": misses[:LISTED]}
    lines = [f"{m.name:28s} {'missing' if values[m.name] is None else f'{values[m.name]:.6g}'}"
             f" {m.unit:5s} -> {m.moves}" for m in LAYER_METRICS]
    return attempted, len(failures), layer, details, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="min: a few cheap calls per workload, for the self-test")
    args = parser.parse_args(argv)
    try:
        import_library()
        OUT.mkdir(exist_ok=True)
        if args.trace:
            attempted, failed, metrics, details, lines = traced_run(args)
        else:
            calls = workloads.build(args.workload, args.seed, args.size == "min",
                                    root=ROOT, scratch=OUT)
            attempted, failed, metrics, details, lines = measured_run(args, calls)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, size=args.size, machine=machine_facts())
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    facts = " ".join(f"{k}={v}" for k, v in details["machine"].items())
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} {facts}")
    for line in lines:
        print("# " + line)
    for item in details["failures"]:
        print(f"# FAILED {item['call']}: {'; '.join(item['problems'])}")
    print(json.dumps({"details": details}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
