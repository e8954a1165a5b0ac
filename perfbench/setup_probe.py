"""One workload set-up in a fresh process, for the set-up time measurement.

usage: python3 setup_probe.py WORKLOAD SEED WORKDIR

Prints "ready" once the inputs of the first job exist; the parent times
from process start to that line.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workdir = Path(sys.argv[3])
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.build(sys.argv[1], int(sys.argv[2]), workdir)
    print("ready", flush=True)
