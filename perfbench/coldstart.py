#!/usr/bin/env python3
"""Cold set-up of one workload's system in a fresh interpreter.

    python3 perfbench/coldstart.py --workload daemon_cheap --seed 1 --workdir DIR

Times importing the library plus building the workload's system until it is
ready for its first request (the workload's ``setup()``), tears the system
down and prints those seconds on its last line.  Building the benchmark's
own inputs in between is not timed.  ``run.py`` starts this several times
per run and reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    from workloads import WORKLOADS  # imports the library

    imported = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    began = time.perf_counter()
    system = workload.setup()
    ready = time.perf_counter()
    workload.teardown(system)
    print((imported - START) + (ready - began))
    return 0


if __name__ == "__main__":
    sys.exit(main())
