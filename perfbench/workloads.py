"""The benchmark's three workloads, each with an untraced and a traced run.

``cli_cold``
    Closed loop, one client: sequential cold ``python -m infobounds.cli``
    processes over a fixed mix of configs. Interpreter start and package
    import dominate each invocation.
``langevin_grid``
    Warm and in-process: Langevin mutual-information chains on the 4001 x
    2001 joint grid, plus three 50 x 50 bound sweeps. No quantum code runs.
``qubit_demon``
    In-process: quantum chains on the tabulated qubit adapter, plus a seeded
    stream of demon records checked one at a time at off-grid phases, each
    of which adds a point query to the adapter. The joint grid is not used.

Untraced runs return the named end-to-end metrics and a summary of their
samples. The machine is shared, and its speed drifts by up to 2x for
stretches from a second to most of a run. Set-up is a median. The other
timings are the fastest sample of the run. cli_cold and qubit_demon put them
at a fixed reference speed: each run also times a calibration that uses
nothing of the package between its operations, and scales by a reference
time of that calibration over the run's fastest calibrations (the lower
decile for cli_cold, the minimum for qubit_demon).

Traced runs repeat a fixed amount of work, alternately untraced and traced,
and return per-layer metrics whose counts repeat exactly. Every operation is
checked against ``reference.json``; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np

import infobounds as ib

import checkout
from reference import VALUE_TOL, Reference
from tracer import Tracer, installed, span

PACKAGE_FILE = checkout.package_file(ib)

#: Child interpreters: fresh setups per run, each timed from inside.
SETUP_PROBES = 5
#: Timed ``scenario list`` runs in cli_cold besides the one in each pass.
SETUP_EXTRA = 2
#: Fresh interpreters timed with ``-X importtime`` in a traced run.
IMPORT_PROBES = 3
#: Untraced/traced repetitions of the fixed work in a traced run.
TRACE_REPS = 5
#: Longest any single child process may take before it counts as failed.
CHILD_TIMEOUT_S = 120

X_SAMPLES = tuple(np.linspace(-4.0, 4.0, 50))
SWEEP_THETAS = 50

RECORDS_PER_ROUND = 25
TRACED_RECORDS = 100
VIOLATION_SHARE = 0.1
#: Demon phases are drawn in (margin, pi/2 - margin), off the prior grid.
PHASE_MARGIN = 0.05


#: Calibration of qubit_demon: a fixed kernel that uses nothing of the
#: package but does the kinds of work its rounds do (single 2 x 2 ``eigh``
#: calls, dict inserts, a vectorised exp). Timed after every round,
#: it tracks the shared machine's speed, which no change to the package
#: moves.
_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_MATRICES = [m + m.T for m in _KERNEL_RNG.normal(size=(400, 2, 2))]
_KERNEL_ARRAY = _KERNEL_RNG.normal(size=(400, 500))
#: About the fastest kernel seen on the machine the benchmark was written on
#: (Intel Xeon, two cores, Python 3.11.7, numpy 2.4.6: 2.55 ms).
REFERENCE_KERNEL_S = 0.0025


def _kernel_s() -> float:
    """Seconds for one run of the calibration kernel."""
    start = time.perf_counter()
    table = {}
    for i, matrix in enumerate(_KERNEL_MATRICES):
        table[i * 0.1] = np.linalg.eigh(matrix)[0]
    np.exp(_KERNEL_ARRAY).sum()
    return time.perf_counter() - start


class Gate:
    """Counts operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, problem: str | None, what: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {problem}")


def _summary(samples) -> dict:
    """Sample count, fastest sample, lower decile, median and upper decile."""
    p10, p50, p90 = np.quantile(samples, (0.1, 0.5, 0.9))
    return {"n": len(samples), "min": min(samples), "p10": p10, "median": p50, "p90": p90}


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class _ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _ChildTimeout


def _run_child(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess, float]:
    """Run ``cmd`` to its end: (wall seconds, completed process, its peak RSS
    in MB). The child is reaped with ``wait4``, so its own peak RSS is known
    apart from every other child's; its output goes through files in the
    work directory, so nothing has to read pipes while it runs. On a
    timeout or an interrupt the child is killed and reaped."""
    checkout.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=checkout.WORK) as out, tempfile.TemporaryFile(dir=checkout.WORK) as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        timed_out = False
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=checkout.ROOT, env=checkout.child_env(), stdout=out, stderr=err)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException as exc:
                child.kill()
                _, status, usage = os.wait4(child.pid, 0)
                if not isinstance(exc, _ChildTimeout):
                    raise
                timed_out = True
            elapsed = time.perf_counter() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stderr = "timed out" if timed_out else err.read().decode(errors="replace")
        proc = subprocess.CompletedProcess(cmd, child.returncode, out.read().decode(), stderr)
    return elapsed, proc, usage.ru_maxrss / 1024.0


def _setup_seconds(workload: str, gate: Gate) -> float:
    """Median set-up time over fresh interpreters (see probe_setup.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        _, proc, _ = _run_child([sys.executable, str(checkout.BENCH / "probe_setup.py"), workload])
        problem = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-300:]}"
        gate.check(problem, f"{workload} set-up")
        if problem is None:
            times.append(json.loads(proc.stdout)["setup_s"])
    return median(times) if times else math.nan


def _import_layers(gate: Gate) -> dict:
    """``import.total_s`` and ``import.scipy_stats_s`` from ``-X importtime``."""
    totals, stats = [], []
    code = "import sys, infobounds; sys.stdout.write(infobounds.__file__)"
    for _ in range(IMPORT_PROBES):
        _, proc, _ = _run_child([sys.executable, "-X", "importtime", "-c", code])
        problem = None if proc.returncode == 0 and proc.stdout == PACKAGE_FILE else (
            f"imported {proc.stdout!r}, exit {proc.returncode}"
        )
        gate.check(problem, "import probe")
        if problem is None:
            total, scipy_stats = _parse_importtime(proc.stderr)
            totals.append(total)
            stats.append(scipy_stats)
    return {
        "import.total_s": median(totals) if totals else math.nan,
        "import.scipy_stats_s": median(stats) if stats else math.nan,
    }


def _parse_importtime(text: str) -> tuple[float, float]:
    """(cumulative seconds of ``infobounds``, seconds spent importing
    ``scipy.stats``). The latter sums the outermost ``scipy.stats*`` entries,
    since scipy loads ``scipy.stats`` lazily and its own line may be missing.
    """
    entries = []
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    total = stats = 0
    parents: list[tuple[int, str]] = []
    # A parent follows its children in the listing, so walk it backwards.
    for depth, name, cumulative in reversed(entries):
        while parents and parents[-1][0] >= depth:
            parents.pop()
        in_stats = name == "scipy.stats" or name.startswith("scipy.stats.")
        parent = parents[-1][1] if parents else ""
        if in_stats and not (parent == "scipy.stats" or parent.startswith("scipy.stats.")):
            stats += cumulative
        if name == "infobounds" and not parents:
            total = cumulative
        parents.append((depth, name))
    return total / 1e6, stats / 1e6


def _traced_reps(rep, gate: Gate) -> tuple[dict, float]:
    """Run ``rep(tracer)`` TRACE_REPS times untraced and traced, alternately.

    Returns the values of the fastest traced repetition, which keeps its
    spans consistent with each other, and the overhead: that repetition's
    wall time minus the fastest untraced one. Traced outputs must equal
    untraced ones and counts must repeat exactly.
    """
    walls = {False: [], True: []}
    layers: list[dict] = []
    for _ in range(TRACE_REPS):
        outputs = {}
        for traced in (False, True):
            tracer = Tracer() if traced else None
            start = time.perf_counter()
            outputs[traced] = rep(tracer)
            walls[traced].append(time.perf_counter() - start)
            if tracer is not None:
                layers.append(tracer.values())
        gate.check(None if outputs[True] == outputs[False] else "outputs differ", "traced == untraced")
    counts = [{k: v for k, v in values.items() if not k.endswith("_s")} for values in layers]
    gate.check(None if all(c == counts[0] for c in counts) else "counts differ", "counts repeat")
    best = min(range(TRACE_REPS), key=walls[True].__getitem__)
    return layers[best], walls[True][best] - min(walls[False])


# ---------------------------------------------------------------------------
# langevin_grid
# ---------------------------------------------------------------------------


class LangevinState:
    """Priors, models and weights of the Langevin workload (trap stiffness)."""

    def __init__(self):
        self.uniform = ib.uniform_prior(0.5, 1.5)
        self.gaussian = ib.gaussian_prior(1.0, 0.2, lower=1e-3)
        self.model_uniform = ib.langevin_model(1.0, theta_min=self.uniform.grid.theta_min)
        self.model_gaussian = ib.langevin_model(1.0, theta_min=self.gaussian.grid.theta_min)
        self.boxcar = ib.boxcar_weight(self.uniform.grid)
        bump = ib.gaussian_weight(self.gaussian.grid, 1.0, 0.08)
        self.sweeps = {
            "langevin_theorem1": (self.model_uniform, self.uniform, "theorem1", None),
            "langevin_theorem2": (self.model_gaussian, self.gaussian, "theorem2", None),
            "langevin_general": (self.model_gaussian, self.gaussian, "general", bump),
        }

    def chain(self):
        return ib.mi_chain_values(self.model_uniform, self.uniform, self.boxcar)

    def sweep(self, name: str, xs, thetas):
        model, prior, kind, weight = self.sweeps[name]
        return ib.bound_sweep(model, prior, kind, xs, thetas, weight=weight)

    def thetas(self, name: str) -> list:
        grid = self.sweeps[name][1].grid
        return list(np.linspace(grid.theta_min, grid.theta_max, SWEEP_THETAS))


def _langevin_round(state: LangevinState, rng, ref: Reference, gate: Gate):
    """One chain, then the three sweeps in a seeded order with seeded sample
    orders. Returns (chain seconds, sweep seconds, evaluations, outputs)."""
    start = time.perf_counter()
    values = state.chain()
    chain_s = time.perf_counter() - start
    gate.check(ref.chain_problem("langevin", values), "langevin chain")
    outputs = [values]
    sweep_s, evals = 0.0, 0
    for name in rng.permutation(sorted(state.sweeps)):
        name = str(name)
        xs = [X_SAMPLES[i] for i in rng.permutation(len(X_SAMPLES))]
        thetas = state.thetas(name)
        thetas = [thetas[i] for i in rng.permutation(len(thetas))]
        start = time.perf_counter()
        reports, skipped = state.sweep(name, xs, thetas)
        sweep_s += time.perf_counter() - start
        evals += len(reports) + len(skipped)
        gate.check(ref.sweep_problem(name, reports, skipped), name)
        outputs.append((reports, skipped))
    return chain_s, sweep_s, evals, outputs


def langevin_grid(seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    """Reports raw fastest samples: after a round over the 64 MB joint grid
    the calibration kernel runs about 1.7x slower than between qubit rounds,
    so it does not track this workload's speed."""
    ref = Reference.load()
    rng = np.random.default_rng(seed)
    deadline = time.perf_counter() + seconds
    setup_s = _setup_seconds("langevin_grid", gate)
    state = LangevinState()
    _langevin_round(state, rng, ref, gate)  # warm-up
    chains, sweeps = [], []
    while not chains or time.perf_counter() < deadline:
        chain_s, sweep_s, evals, _ = _langevin_round(state, rng, ref, gate)
        chains.append(chain_s)
        sweeps.append(sweep_s / evals)
    metrics = {
        "setup_s": setup_s,
        "chain_s": min(chains),
        "sweep_evals_per_s": 1.0 / min(sweeps),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }
    return metrics, {"chain_s": _summary(chains), "sweep_s_per_eval": _summary(sweeps)}


def langevin_grid_traced(seed: int, gate: Gate) -> dict:
    ref = Reference.load()

    def rep(tracer):
        with installed(tracer):
            state = LangevinState()
            return _langevin_round(state, np.random.default_rng(seed), ref, gate)[3]

    layers, overhead = _traced_reps(rep, gate)
    return {**layers, **_import_layers(gate), "trace.overhead_s": overhead}


# ---------------------------------------------------------------------------
# qubit_demon
# ---------------------------------------------------------------------------


class QubitState:
    """Qubit phase prior and a fresh measurement adapter, tabulated cold on
    the 2001-node prior grid."""

    def __init__(self, tracer: Tracer | None = None):
        self.prior = ib.uniform_prior(0.0, math.pi / 2)
        self.model, self.sensitivity = ib.qubit_measurement_model()
        self.weight = ib.boxcar_weight(self.prior.grid)
        with span(tracer, "quantum.tabulate"):
            self.model.log_pdf("+", self.prior.grid.nodes)

    def chain(self):
        return ib.mi_chain_values(self.model, self.prior, self.weight, self.sensitivity)

    def check(self, record):
        return ib.demon_work_check(record, self.model, self.prior, self.sensitivity)


def demon_records(rng, n: int, ref: Reference) -> list:
    """``n`` seeded (record, built_to_violate, reference PMI) triples.

    Valid records spend at most the PMI; violating ones exceed the outcome's
    bound, so both budgets must flag them.
    """
    out = []
    for _ in range(n):
        theta = float(rng.uniform(PHASE_MARGIN, math.pi / 2 - PHASE_MARGIN))
        x = "+" if rng.random() < 0.5 else "-"
        violate = bool(rng.random() < VIOLATION_SHARE)
        info = ref.qubit_pmi(x, theta)
        if violate:
            lhs = ref.qubit_bound(x) + rng.uniform(0.05, 0.5)
        else:
            lhs = info - abs(rng.normal(0.0, 0.5))
        beta = float(rng.uniform(0.5, 2.0))
        delta_f = float(rng.normal(0.0, 1.0))
        out.append((ib.DemonRecord(beta, delta_f + lhs / beta, delta_f, x, theta), violate, info))
    return out


def _demon_problem(check, record, violate: bool, info: float, ref: Reference) -> str | None:
    if not abs(check.pmi - info) <= VALUE_TOL:
        return f"pmi {check.pmi!r} != reference {info!r}"
    if not abs(check.bound - ref.qubit_bound(record.outcome)) <= VALUE_TOL:
        return f"bound {check.bound!r} != reference"
    if violate and (check.chained_ok or check.sagawa_ueda_ok):
        return "violating record not flagged"
    if not violate and not (check.chained_ok and check.sagawa_ueda_ok):
        return "valid record flagged"
    return None


def _check_records(state: QubitState, records, ref: Reference, gate: Gate):
    """Check each record on its own; returns (seconds, checks)."""
    start = time.perf_counter()
    checks = [state.check(record) for record, _, _ in records]
    elapsed = time.perf_counter() - start
    for check, (record, violate, info) in zip(checks, records):
        gate.check(_demon_problem(check, record, violate, info, ref), "demon record")
    return elapsed, checks


def qubit_demon(seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    ref = Reference.load()
    rng = np.random.default_rng(seed)
    deadline = time.perf_counter() + seconds
    setup_s = _setup_seconds("qubit_demon", gate)
    state = QubitState()
    chains, checks, kernels = [], [], []
    while not chains or time.perf_counter() < deadline:
        start = time.perf_counter()
        values = state.chain()
        chains.append(time.perf_counter() - start)
        gate.check(ref.chain_problem("qubit", values), "qubit chain")
        records = demon_records(rng, RECORDS_PER_ROUND, ref)
        elapsed, _ = _check_records(state, records, ref, gate)
        checks.append(elapsed / len(records))
        kernels.append(_kernel_s())
    speed = REFERENCE_KERNEL_S / min(kernels)
    metrics = {
        "setup_s": setup_s,
        "qubit_chain_s": min(chains) * speed,
        "demon_records_per_s": 1.0 / (min(checks) * speed),
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "calibration_s": min(kernels),
    }
    samples = {"qubit_chain_s": chains, "demon_s_per_record": checks, "calibration_s": kernels}
    return metrics, {name: _summary(values) for name, values in samples.items()}


def qubit_demon_traced(seed: int, gate: Gate) -> dict:
    ref = Reference.load()
    records = demon_records(np.random.default_rng(seed), TRACED_RECORDS, ref)
    per_record = []

    def rep(tracer):
        with installed(tracer):
            state = QubitState(tracer)
            values = state.chain()
            gate.check(ref.chain_problem("qubit", values), "qubit chain")
            before = tracer.counts["quantum.state_evals"] if tracer else 0
            _, checks = _check_records(state, records, ref, gate)
            if tracer is not None:
                per_record.append((tracer.counts["quantum.state_evals"] - before) / len(records))
        return values, checks

    layers, overhead = _traced_reps(rep, gate)
    return {
        **layers,
        **_import_layers(gate),
        "quantum.state_evals_per_record": median(per_record),
        "trace.overhead_s": overhead,
    }


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

_LANGEVIN_SWEEP = {"x_min": -4.0, "x_max": 4.0, "x_count": len(X_SAMPLES), "theta_count": SWEEP_THETAS}

#: Config name -> run configuration; each name is also its reference table.
CLI_CONFIGS = {
    "langevin_theorem2": {
        "scenario": "langevin",
        "scenario_params": {"diffusion": 1.0},
        "prior": {"kind": "gaussian", "mean": 1.0, "sigma": 0.2},
        "bound": "theorem2",
        "sweep": _LANGEVIN_SWEEP,
        "output": {"format": "json"},
    },
    "qubit_theorem3": {
        "scenario": "qubit_phase",
        "scenario_params": {"povm": "sigma_x"},
        "prior": {"kind": "uniform"},
        "bound": "theorem3",
        "sweep": {"theta_count": 41},
        "output": {"format": "csv"},
    },
    "langevin_chain": {
        "scenario": "langevin",
        "scenario_params": {"diffusion": 1.0},
        "prior": {"kind": "uniform", "theta_min": 0.5, "theta_max": 1.5},
        "bound": "mi_average",
        "output": {"format": "json"},
    },
    "discrete_theorem1": {
        "scenario": "custom_discrete",
        "scenario_params": {
            "log_weights": [math.log(0.2), math.log(0.3), math.log(0.5)],
            "coefficients": [-1.0, 0.0, 1.0],
        },
        "prior": {"kind": "uniform", "theta_min": -1.0, "theta_max": 1.0},
        "bound": "theorem1",
        "sweep": {"theta_count": SWEEP_THETAS},
        "output": {"format": "csv"},
    },
}
VERIFY_CONFIGS = ("langevin_theorem2", "qubit_theorem3", "discrete_theorem1")
MIX = ("scenario_list",) + tuple(CLI_CONFIGS)

#: cli_cold's calibration: a cold interpreter that imports NumPy and
#: scipy.stats and nothing of the package, so it does most of what a CLI
#: invocation does and is slowed as much when the machine is. It runs at
#: seeded places in every pass.
CALIBRATION = [sys.executable, "-c", "import numpy, scipy.stats"]
CALIBRATIONS_PER_PASS = 3
#: Its reference time. The lower decile of its runs was 0.89-1.16 s in runs
#: on the machine the benchmark was written on (Intel Xeon, two cores,
#: Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
REFERENCE_CALIBRATION_S = 1.0


@contextmanager
def _workdir():
    checkout.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=checkout.WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _write_configs(work: Path) -> dict:
    argvs = {"scenario_list": ["scenario", "list"]}
    for name, cfg in CLI_CONFIGS.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps({"schema_version": 1, **cfg}))
        command = "mi-chain" if cfg["bound"] == "mi_average" else "verify"
        argvs[name] = [command, "--config", str(path)]
    return argvs


def _invoke(argv: list[str], counters: Path | None = None):
    if counters is None:
        return _run_child([sys.executable, "-m", "infobounds.cli", *argv])
    return _run_child([sys.executable, str(checkout.BENCH / "traced_cli.py"), str(counters), *argv])


def _csv_rows(text: str) -> tuple[list, dict]:
    lines = text.splitlines()
    rows, footer = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            footer[key] = value
            continue
        x, theta, pmi, bound, slack, *_, status = line.split(",")
        values = (float(pmi), float(bound), float(slack)) if status == "ok" else (None, None, None)
        rows.append((x, float(theta)) + values + (status,))
    return rows, footer


def _json_rows(text: str) -> tuple[list, dict]:
    doc = json.loads(text)
    rows = [
        (r["x"], r["theta"], r.get("pmi"), r.get("bound"), r.get("slack"), r["status"])
        for r in doc["rows"]
    ]
    return rows, {k: str(v) for k, v in doc["summary"].items()}


def _cli_problem(name: str, proc, ref: Reference) -> str | None:
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr[-300:]}"
    if name == "scenario_list":
        return None if proc.stdout == ref.scenario_list else "scenario list text differs"
    cfg = CLI_CONFIGS[name]
    try:
        if cfg["bound"] == "mi_average":
            doc = json.loads(proc.stdout)
            values = (doc["mutual_information"], doc["avg_pointwise_bound"], doc["mi_bound_average"])
            problem = ref.chain_problem("langevin", values)
            return problem or (None if doc["chain_ok"] is True else "chain_ok is not true")
        parse = _json_rows if cfg["output"]["format"] == "json" else _csv_rows
        rows, footer = parse(proc.stdout)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc!r}"
    if footer.get("violations") != "0":
        return f"violations={footer.get('violations')}"
    return ref.rows_problem(name, rows)


def _cli_call(name: str, argvs: dict, ref: Reference, gate: Gate, work=None, tracer=None):
    """One checked CLI invocation: (wall seconds, completed process, peak RSS MB)."""
    counters = work / f"{name}.trace.json" if tracer is not None else None
    elapsed, proc, rss = _invoke(argvs[name], counters)
    gate.check(_cli_problem(name, proc, ref), name)
    if tracer is not None and proc.returncode == 0:
        tracer.merge(json.loads(counters.read_text()))
    return elapsed, proc, rss


def _cli_pass(argvs: dict, order, ref: Reference, gate: Gate, work=None, tracer=None):
    """One pass through the mix; returns each config's report text."""
    return {name: _cli_call(name, argvs, ref, gate, work, tracer)[1].stdout for name in order}


def cli_cold(seed: int, seconds: float, gate: Gate) -> tuple[dict, dict]:
    ref = Reference.load()
    rng = np.random.default_rng(seed)
    walls = defaultdict(list)
    peak = 0.0
    # Determinism: this report must come out byte-identical every time.
    steady, first = str(rng.choice(VERIFY_CONFIGS)), None
    one_pass = MIX + ("calibration",) * CALIBRATIONS_PER_PASS
    with _workdir() as work:
        argvs = _write_configs(work)
        # Untimed warm-up: compiles the package's .pyc files.
        _, proc, _ = _invoke(argvs["scenario_list"])
        gate.check(_cli_problem("scenario_list", proc, ref), "warm-up")
        # Set-up is the cold scenario list; it is timed a few more times
        # than the passes alone would time it. Then come passes in seeded
        # orders, the calibration among the configs, until the time is up
        # and everything has run.
        queue = ["scenario_list"] * SETUP_EXTRA
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not all(walls[name] for name in one_pass):
            if not queue:
                queue = [str(name) for name in rng.permutation(one_pass)]
            name = queue.pop(0)
            if name == "calibration":
                elapsed, proc, _ = _run_child(CALIBRATION)
                gate.check(None if proc.returncode == 0 else f"exit {proc.returncode}", name)
            else:
                elapsed, proc, rss = _cli_call(name, argvs, ref, gate)
                peak = max(peak, rss)
                if name == steady and first is None:
                    first = proc.stdout
                elif name == steady:
                    same = proc.stdout == first
                    gate.check(None if same else "report bytes differ between runs", "determinism")
            walls[name].append(elapsed)
    # Fastest invocations, at the reference speed. The calibration's lower
    # decile is steadier than its single fastest run.
    calibration_s = float(np.quantile(walls["calibration"], 0.1))
    speed = REFERENCE_CALIBRATION_S / calibration_s
    verify_s = sum(min(walls[name]) for name in VERIFY_CONFIGS) * speed
    rows = sum(ref.n_rows(name) for name in VERIFY_CONFIGS)
    metrics = {
        "setup_s": median(walls["scenario_list"]),
        "cli_mix_s": sum(min(walls[name]) for name in MIX) * speed,
        "cold_sweep_evals_per_s": rows / verify_s,
        "peak_rss_mb": peak,
        "calibration_s": calibration_s,
    }
    return metrics, {f"{name}_s": _summary(times) for name, times in walls.items()}


def cli_cold_traced(seed: int, gate: Gate) -> dict:
    ref = Reference.load()
    order = [str(name) for name in np.random.default_rng(seed).permutation(MIX)]
    with _workdir() as work:
        argvs = _write_configs(work)
        _, proc, _ = _invoke(argvs["scenario_list"])
        gate.check(_cli_problem("scenario_list", proc, ref), "warm-up")

        def rep(tracer):
            return _cli_pass(argvs, order, ref, gate, work=work, tracer=tracer)

        layers, overhead = _traced_reps(rep, gate)
    return {**layers, **_import_layers(gate), "trace.overhead_s": overhead}


RUNS = {"cli_cold": cli_cold, "langevin_grid": langevin_grid, "qubit_demon": qubit_demon}
TRACED = {
    "cli_cold": cli_cold_traced,
    "langevin_grid": langevin_grid_traced,
    "qubit_demon": qubit_demon_traced,
}
