"""Set-up probe: time importing a workload's modules and building its models.

Run in a fresh interpreter from the root of a checkout, with ``src`` on
PYTHONPATH:

    python3 perfbench/probe.py <workload>

Prints the elapsed seconds. The clock starts before the first import of
numpy or the library, so the figure is what a fresh process pays before
its first call.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402


if __name__ == "__main__":
    workloads.setup(sys.argv[1])
    print(repr(time.perf_counter() - _START))
