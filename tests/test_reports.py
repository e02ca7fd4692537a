"""The CLI's reports, pinned.

Each config below runs through ``cli.main`` in process, and its stdout is
compared with what was recorded for it: the exit code, the SHA-256 digest,
the line count and the footer (the summary of a verify report, the whole
JSON of a chain report). A few also run as ``python -m infobounds.cli``
processes, through the process entry ``cli.run``.

Reports are deterministic, but their last digits come from NumPy's
floating-point kernels, and CI installs an unpinned NumPy. So the digest is
compared only under the NumPy version the records were taken with. Under any
other version the exit code and the line count must still match exactly,
and every footer number within 1e-12 relative.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infobounds.cli as cli

#: The NumPy version the records below were taken with.
RECORDED_NUMPY = "2.4.6"

#: Footer numbers agree to this relative tolerance under another NumPy.
FOOTER_RTOL = 1e-12

_LANGEVIN = {"scenario": "langevin", "scenario_params": {"diffusion": 1.0}}
_QUBIT = {"scenario": "qubit_phase", "scenario_params": {"povm": "sigma_x"}, "prior": {"kind": "uniform"}}

#: name -> (command, config). The first four are the run configs of the
#: benchmark's cold-CLI mix.
CONFIGS = {
    "langevin_theorem2": ("verify", {
        **_LANGEVIN,
        "prior": {"kind": "gaussian", "mean": 1.0, "sigma": 0.2},
        "bound": "theorem2",
        "sweep": {"x_min": -4.0, "x_max": 4.0, "x_count": 50, "theta_count": 50},
        "output": {"format": "json"},
    }),
    "qubit_theorem3": ("verify", {
        **_QUBIT, "bound": "theorem3", "sweep": {"theta_count": 41}, "output": {"format": "csv"},
    }),
    "langevin_chain": ("mi-chain", {
        **_LANGEVIN,
        "prior": {"kind": "uniform", "theta_min": 0.5, "theta_max": 1.5},
        "bound": "mi_average",
        "output": {"format": "json"},
    }),
    "discrete_theorem1": ("verify", {
        "scenario": "custom_discrete",
        "scenario_params": {
            "log_weights": [math.log(0.2), math.log(0.3), math.log(0.5)],
            "coefficients": [-1.0, 0.0, 1.0],
        },
        "prior": {"kind": "uniform", "theta_min": -1.0, "theta_max": 1.0},
        "bound": "theorem1",
        "sweep": {"theta_count": 50},
        "output": {"format": "csv"},
    }),
    "qubit_chain": ("mi-chain", {**_QUBIT, "bound": "mi_average", "output": {"format": "json"}}),
    "qubit_theorem1": ("verify", {
        **_QUBIT, "bound": "theorem1", "sweep": {"theta_count": 41}, "output": {"format": "csv"},
    }),
    "discrete5_chain": ("mi-chain", {
        "scenario": "custom_discrete",
        "scenario_params": {
            "log_weights": [0.1, -0.4, 0.3, 0.0, -0.2],
            "coefficients": [-1.0, -0.5, 0.0, 0.5, 1.2],
        },
        "prior": {"kind": "uniform", "theta_min": -1.0, "theta_max": 1.0},
        "bound": "mi_average",
        "output": {"format": "json"},
    }),
    "langevin_theorem1_30": ("verify", {
        **_LANGEVIN,
        "prior": {"kind": "uniform", "theta_min": 0.5, "theta_max": 1.5},
        "bound": "theorem1",
        "sweep": {"x_min": -4.0, "x_max": 4.0, "x_count": 30, "theta_count": 30},
        "output": {"format": "csv"},
    }),
}

#: name -> (exit code, stdout SHA-256, line count, footer).
RECORDED = {
    "langevin_theorem2": (
        0, "31cf105eaa0c0cac5dd4a8856a30e686dfd05887361932a2a6b052bb5566d0b7", 27514,
        {"n_evaluations": 2500, "n_skipped": 0, "violations": 0, "min_slack": 0.6931689862588912,
         "mean_slack": 8.375494450058069, "tolerance": 1e-06},
    ),
    "qubit_theorem3": (
        0, "bdff61e6b312f7bd4c1a84ddea086e96cfeee8eb404c4e5512c5dee148089977", 89,
        {"n_evaluations": 81, "n_skipped": 1, "violations": 0, "min_slack": 0.451582738014378,
         "mean_slack": 1.7057508769782666, "tolerance": 1e-06},
    ),
    "langevin_chain": (
        0, "910b43f20f1c252aca2d42515768f74b067f53f5c39f80b0bdbb45415e277d4b", 9,
        {"schema_version": 1, "kind": "mi_chain", "mutual_information": 0.022814278890199175,
         "avg_pointwise_bound": 0.8960144207177728, "mi_bound_average": 1.0213122406481623,
         "chain_ok": True, "tolerance": 1e-06},
    ),
    "discrete_theorem1": (
        0, "a4fc67f5b685716236b02f0c98bfc34959fea647f901dfe33045bb5801ee7f4b", 157,
        {"n_evaluations": 150, "n_skipped": 0, "violations": 0, "min_slack": 0.693147160055358,
         "mean_slack": 1.2929944228501653, "tolerance": 1e-06},
    ),
    "qubit_chain": (
        0, "57c7bc9f9851bc78d18b80828652519081b8d19d0f171162a31f460dd030426b", 9,
        {"schema_version": 1, "kind": "mi_chain", "mutual_information": 0.08765229724308082,
         "avg_pointwise_bound": 1.0411558222633497, "mi_bound_average": 1.2726786503847314,
         "chain_ok": True, "tolerance": 1e-06},
    ),
    "qubit_theorem1": (
        0, "6760fd18a725faed0d6be0a02138ae661f518d8beaf6697486288af99d8453fb", 89,
        {"n_evaluations": 81, "n_skipped": 1, "violations": 0, "min_slack": 0.6931471548578501,
         "mean_slack": 1.6573754064486221, "tolerance": 1e-06},
    ),
    "discrete5_chain": (
        0, "d86051c2e5da43a8f45809778287abee90649cc08d60a96df7703465344ea828", 9,
        {"schema_version": 1, "kind": "mi_chain", "mutual_information": 0.08073835503710884,
         "avg_pointwise_bound": 1.1199268873602148, "mi_bound_average": 1.2276590320796077,
         "chain_ok": True, "tolerance": 1e-06},
    ),
    "langevin_theorem1_30": (
        0, "d87fba11eae7928afc53e17bbf4c9d036ee78b4a70ccc653f58469058dbffcdd", 907,
        {"n_evaluations": 900, "n_skipped": 0, "violations": 0, "min_slack": 0.6931471574166775,
         "mean_slack": 1.8925366816490048, "tolerance": 1e-06},
    ),
    "scenario_list": (0, "c555047b42b181708aaaa863ca87a69f2a821b5d3c216302c94254973880ffb7", 3, {}),
}


def _footer(text: str) -> dict:
    """The summary of a verify report, or the whole JSON of a chain report."""
    if text.startswith("{"):
        doc = json.loads(text)
        return doc.get("summary", doc)
    pairs = (line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))
    return {key: json.loads(value) for key, value in pairs}


def _agrees(recorded, value) -> bool:
    if isinstance(recorded, float) and not isinstance(value, bool):
        return math.isclose(value, recorded, rel_tol=FOOTER_RTOL)
    return type(value) is type(recorded) and value == recorded


def _argv(name: str, tmp_path) -> list[str]:
    """The CLI arguments of a recorded run, its config written to ``tmp_path``."""
    if name == "scenario_list":
        return ["scenario", "list"]
    command, cfg = CONFIGS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"schema_version": 1, **cfg}))
    return [command, "--config", str(path)]


@pytest.mark.parametrize("name", list(RECORDED))
def test_report_matches_the_record(name, tmp_path, capsys):
    code = cli.main(_argv(name, tmp_path))
    text = capsys.readouterr().out
    recorded_code, digest, lines, footer = RECORDED[name]
    assert (code, len(text.splitlines())) == (recorded_code, lines)
    if np.__version__ == RECORDED_NUMPY:
        assert hashlib.sha256(text.encode()).hexdigest() == digest
    got = _footer(text)
    assert got.keys() == footer.keys()
    assert all(_agrees(footer[key], got[key]) for key in footer), (footer, got)


#: The stderr of the qubit_theorem3 run under ``python -m infobounds.cli``.
#: No frame outside the package has a source file there, so each adapter
#: warning comes from line 0 of cli.py, whatever that file's length.
QUBIT_THEOREM3_STDERR = "".join(f"{{cli}}:0: RuntimeWarning: {message}\n" for message in (
    "outcome '-' has zero probability at theta=0.0; such nodes are excluded from integrals",
    "POVM element '+' has weight outside the state support; the support-restricted SLD convention applies there",
    "POVM element '-' has weight outside the state support; the support-restricted SLD convention applies there",
))


#: The ``src`` directory this package was imported from.
_SRC = str(Path(cli.__file__).resolve().parents[1])


def _python(args: list[str], cwd) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``args``, importing this package, with no
    warning filters of the calling environment."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def test_qubit_report_stderr_under_python_m_is_pinned(tmp_path):
    proc = _python(["-m", "infobounds.cli", *_argv("qubit_theorem3", tmp_path)], tmp_path)
    assert proc.returncode == RECORDED["qubit_theorem3"][0]
    assert proc.stderr == QUBIT_THEOREM3_STDERR.format(cli=os.path.join(_SRC, "infobounds", "cli.py"))
    if np.__version__ == RECORDED_NUMPY:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == RECORDED["qubit_theorem3"][1]


@pytest.mark.parametrize("name", ["scenario_list", "langevin_chain", "discrete_theorem1"])
def test_report_under_python_m_matches_the_record(name, tmp_path):
    proc = _python(["-m", "infobounds.cli", *_argv(name, tmp_path)], tmp_path)
    recorded_code, digest, lines, _ = RECORDED[name]
    assert (proc.returncode, len(proc.stdout.splitlines()), proc.stderr) == (recorded_code, lines, "")
    if np.__version__ == RECORDED_NUMPY:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["verify", "mi-chain"])
def test_config_that_is_not_an_object_under_python_m_exits_two_as_in_process(command, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    argv = [command, "--config", str(path)]
    assert cli.main(argv) == 2
    proc = _python(["-m", "infobounds.cli", *argv], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", capsys.readouterr().err)


#: Calls the process entry as a console script does, with ``cli.main``
#: wrapped to report the collector's state during the run; the freeze count
#: after it goes to stderr too.
_ENTRY_PROBE = """\
import gc, sys
import infobounds.cli as cli
main = cli.main
def probe(argv=None):
    print("enabled in main:", gc.isenabled(), file=sys.stderr)
    return main(argv)
cli.main = probe
print("enabled at start:", gc.isenabled(), file=sys.stderr)
code = cli.run()
print("frozen after run:", gc.get_freeze_count(), file=sys.stderr)
sys.exit(code)
"""


def test_process_entry_runs_with_the_collector_off_and_freezes_the_heap(tmp_path):
    proc = _python(["-c", _ENTRY_PROBE, "scenario", "list"], tmp_path)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == RECORDED["scenario_list"][1]  # no NumPy in it
    start, during, after = proc.stderr.splitlines()
    assert (start, during) == ("enabled at start: True", "enabled in main: False")
    assert after.startswith("frozen after run: ") and int(after.split(": ")[1]) > 0
