"""Benchmark of the infobounds toolkit: one workload per run, or all three.

    python3 perfbench/run.py --workload cli_cold|langevin_grid|qubit_demon
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # BENCHMARK.json's workloads, untraced
    python3 perfbench/run.py --trace 1      # the same, traced

Run from anywhere; the checkout measured is the one this file sits in. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
``BENCHMARK.json`` untraced, its per-layer metrics traced. The lines before
it give each named metric with its unit, and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

import checkout

WORKLOADS = ("cli_cold", "langevin_grid", "qubit_demon")

#: The named metric each generic end-to-end metric reports, per workload.
ALIASES = {
    "cli_cold": {"op_s": "cli_mix_s", "evals_per_s": "cold_sweep_evals_per_s"},
    "langevin_grid": {"op_s": "chain_s", "evals_per_s": "sweep_evals_per_s"},
    "qubit_demon": {"op_s": "qubit_chain_s", "evals_per_s": "demon_records_per_s"},
}
UNITS = {"cli_mix_s": "s", "chain_s": "s", "qubit_chain_s": "s", "setup_s": "s",
         "cold_sweep_evals_per_s": "1/s", "sweep_evals_per_s": "1/s",
         "demon_records_per_s": "1/s", "peak_rss_mb": "MB", "error_rate": "ratio",
         "calibration_s": "s"}


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = checkout.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without ``.git``."""
    digest = hashlib.sha256()
    for path in sorted((checkout.SRC / "infobounds").rglob("*.py")):
        digest.update(path.relative_to(checkout.SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, package_file: str) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "infobounds_file": package_file,
    }


def run_one(args, spec: dict) -> int:
    import workloads

    gate = workloads.Gate()
    if args.trace:
        values = workloads.TRACED[args.workload](args.seed, gate)
        # A layer the workload does not exercise reads 0.
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
        named, samples = metrics, {}
    else:
        values, samples = workloads.RUNS[args.workload](args.seed, args.seconds, gate)
        values["error_rate"] = gate.failed / max(gate.attempted, 1)
        named = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
        alias = ALIASES[args.workload]
        metrics = {
            m["name"]: {"value": values[alias.get(m["name"], m["name"])], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    for name, metric in named.items():
        print(f"{args.workload:<14} {name:<36} {metric['value']:<12.6g} {metric['unit']}")
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, workloads.PACKAGE_FILE),
        "samples_s": samples,
        "failures": gate.failures,
    }))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload of ``spec`` in its own interpreter, one after another."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: a running child is killed and reaped, scratch
    # files are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    checkout.prepare()
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
