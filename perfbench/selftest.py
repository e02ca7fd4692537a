"""Checks of the benchmark itself; about three minutes on two cores.

    python3 perfbench/selftest.py

- Two traced runs of each workload give exactly the same counts, and each
  is correct, which includes traced outputs equalling untraced ones.
- The workloads in BENCHMARK.json exercise every per-layer metric.
- On langevin_grid the information and bounds spans account for the chain:
  what they leave of it is no larger than the tracing overhead.
- Without the package sources the benchmark fails and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checkout
from run import WORKLOADS

RUN = checkout.BENCH / "run.py"


def _run(args: list[str], cwd: Path = checkout.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def _traced(workload: str) -> dict:
    proc = _run([str(RUN), "--workload", workload, "--seed", "7", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout.splitlines()[-2]
    return result["metrics"]


def check_traced_runs() -> None:
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    listed = {w["name"] for w in spec["workloads"]}
    exercised = set()
    for workload in WORKLOADS:
        first, second = _traced(workload), _traced(workload)
        counts = {k: v["value"] for k, v in first.items() if v["unit"] != "s"}
        again = {k: v["value"] for k, v in second.items() if v["unit"] != "s"}
        assert counts == again, f"{workload}: counts differ between traced runs"
        if workload in listed:
            exercised |= {k for k, v in first.items() if v["value"]}
        if workload == "langevin_grid":
            value = {k: v["value"] for k, v in first.items()}
            spans = (
                value["information.mutual_information_s"]
                + value["bounds.average_pointwise_bound_s"]
                + value["bounds.mi_bound_average_s"]
            )
            remainder = value["bounds.mi_chain_values_s"] - spans
            assert remainder <= value["trace.overhead_s"], (remainder, value["trace.overhead_s"])
        print(f"ok  {workload}: traced counts repeat, traced == untraced", flush=True)
    idle = [m["name"] for m in spec["per_layer"] if m["name"] not in exercised]
    assert not idle, f"per-layer metrics no listed workload exercises: {idle}"
    print("ok  the workloads in BENCHMARK.json exercise every per-layer metric")


def check_fails_without_sources() -> None:
    checkout.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=checkout.WORK))
    try:
        shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(checkout.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["perfbench/run.py", "--workload", "langevin_grid", "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  no sources: exit", proc.returncode, "and no result")


def check_importtime_parser() -> None:
    import workloads

    listing = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.stats._a",
        "import time:        20 |         50 |         scipy.stats._c",
        "import time:         5 |         55 |       scipy.stats._b",
        "import time:         1 |          1 |       numpy",
        "import time:       100 |        200 |     infobounds.models",
        "import time:         7 |        300 |   infobounds",
    ])
    assert workloads._parse_importtime(listing) == (300e-6, 65e-6)
    print("ok  importtime parser")


if __name__ == "__main__":
    checkout.prepare()
    check_importtime_parser()
    check_fails_without_sources()
    check_traced_runs()
