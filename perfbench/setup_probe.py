"""Set-up probe: started by run.py in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the library as the benchmark does, generates deck 0 of the run,
runs the workload's warm-up job and prints the monotonic clock, which on
Linux is shared with the parent that started this process.
"""

import sys
import time

import run

run.import_library()

from perfbench import workloads  # noqa: E402  (needs the path set above)

workload, seed = sys.argv[1], int(sys.argv[2])
workloads.deck(workload, seed, 0)
workloads.execute(workloads.WARMUP[workload])
print(time.monotonic())
