"""Time one set-up of a benchmark workload in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

Prints the seconds from before ``import repro`` until the workload is
ready to serve its first operation: its specs are built and, for the
simulator workloads, the first spec's ``System`` is constructed; for the
service workload, the server is started and has answered a ping.
``run.py`` reports the median of several probes as ``setup_s``.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    import suite

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workload = suite.WORKLOADS[name](seed, workdir)
    try:
        workload.setup(probe=True)
        elapsed = time.perf_counter() - start
    finally:
        workload.teardown()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
