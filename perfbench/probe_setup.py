"""Time one workload's set-up in a fresh interpreter and print it as JSON.

Set-up is importing ``infobounds`` plus building the workload's priors and
models, and for ``qubit_demon`` the cold tabulation of a fresh adapter.
Usage: ``python3 perfbench/probe_setup.py langevin_grid|qubit_demon``
"""

import json
import sys
import time

import checkout

checkout.prepare()
start = time.perf_counter()
import infobounds  # noqa: E402,F401

imported = time.perf_counter()
import workloads  # noqa: E402  (not part of set-up: the benchmark's own code)

built = time.perf_counter()
{"langevin_grid": workloads.LangevinState, "qubit_demon": workloads.QubitState}[sys.argv[1]]()
done = time.perf_counter()
print(json.dumps({"setup_s": (imported - start) + (done - built)}))
