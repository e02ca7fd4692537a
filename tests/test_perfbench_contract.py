"""The names the benchmark harness in ``perfbench/`` looks up in the package.

The tracer and ``freeze_reference.py`` reach into ``infobounds`` by module
and attribute name, so a rename in ``src/`` breaks the benchmark without
breaking any other test. These tests resolve every such name.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infobounds as ib
import infobounds.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: RunContext attributes that the tracer and freeze_reference.py read.
RUN_CONTEXT_ATTRS = (
    "model", "prior", "x_samples", "theta_samples", "sensitivity", "sweep_kind", "weight", "tolerance",
)


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_names_resolve(perfbench):
    tracer, _ = perfbench
    for module, attr in tracer._SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for attr in tracer._MODEL_CONSTRUCTORS:
        assert callable(getattr(ib.scenarios, attr)), attr


def test_run_context_exposes_the_benchmark_attributes(perfbench):
    _, workloads = perfbench
    for name, cfg in workloads.CLI_CONFIGS.items():
        ctx = cli.RunContext({"schema_version": 1, **cfg})
        missing = [a for a in RUN_CONTEXT_ATTRS if not hasattr(ctx, a)]
        assert not missing, (name, missing)


def test_traced_sweep_counts_its_points(perfbench):
    tracer, _ = perfbench
    prior = ib.uniform_prior(0.5, 1.5, 201)
    traced = tracer.Tracer()
    with traced.installed():
        model = ib.langevin_model(1.0, prior.grid.theta_min, 401)
        ib.bound_sweep(model, prior, "theorem1", [-1.0, 1.0], np.linspace(0.5, 1.5, 3))
    counts = traced.values()
    assert counts["bounds.sweep_points"] == 6
    assert counts["bounds.skipped_points"] == 0
    assert counts["scenarios.model_build_calls"] == 1
    assert counts["models.log_pdf_calls"] > 0


def test_traced_cli_run_renders_through_the_traced_names(perfbench, tmp_path, capsys):
    tracer, workloads = perfbench
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **workloads.CLI_CONFIGS["discrete_theorem1"]}))
    traced = tracer.Tracer()
    with traced.installed():
        assert cli.main(["verify", "--config", str(path)]) == 0
    report = capsys.readouterr().out
    counts = traced.values()
    assert counts["cli.context_calls"] == 1 and counts["cli.render_calls"] == 1
    assert counts["cli.report_bytes"] == len(report.encode())
    assert counts["bounds.sweep_points"] == 3 * workloads.SWEEP_THETAS


def test_traced_cli_json_run_counts_one_render_and_its_bytes(perfbench, tmp_path, capsys):
    # The JSON report is laid out by hand, not by json.dumps of the rows; the
    # tracer still sees one render call and every byte it wrote.
    tracer, workloads = perfbench
    cfg = workloads.CLI_CONFIGS["langevin_theorem2"]
    assert cfg["output"]["format"] == "json"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    traced = tracer.Tracer()
    with traced.installed():
        assert cli.main(["verify", "--config", str(path)]) == 0
    report = capsys.readouterr().out
    counts = traced.values()
    assert counts["cli.context_calls"] == 1 and counts["cli.render_calls"] == 1
    assert counts["cli.report_bytes"] == len(report.encode())
    assert counts["bounds.sweep_points"] == cfg["sweep"]["x_count"] * cfg["sweep"]["theta_count"]
    assert len(json.loads(report)["rows"]) == counts["bounds.sweep_points"]


def test_traced_cli_runs_in_a_fresh_interpreter(perfbench, tmp_path):
    # The in-process test above runs with every submodule loaded already; a
    # fresh interpreter checks what traced_cli.py finds right after it
    # imports infobounds.cli, e.g. the submodules the tracer reads from
    # sys.modules.
    _, workloads = perfbench
    path, counters = tmp_path / "cfg.json", tmp_path / "counters.json"
    path.write_text(json.dumps({"schema_version": 1, **workloads.CLI_CONFIGS["discrete_theorem1"]}))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(counters), "verify", "--config", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(counters.read_text())
    assert counts["cli.context_calls"] == 1
    assert counts["bounds.sweep_points"] == 3 * workloads.SWEEP_THETAS
