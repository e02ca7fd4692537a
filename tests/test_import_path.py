"""What a fresh interpreter loads for each path into the package.

``import infobounds`` and the CLI must not load SciPy, and ``gamma_prior``
must load no more of it than ``scipy.special``. ``scenario list`` and a
``verify`` whose config is missing, not JSON or has a bad field must not load
NumPy either, and a Langevin ``verify`` must not run the quantum module. No
cold ``verify`` or ``mi-chain`` loads ``dataclasses``: no class of the
package is generated from source.

Each command runs in a fresh interpreter under ``-X importtime``, which logs
every module the process imports; the pytest process cannot tell, because
``conftest.py`` has loaded ``scipy.linalg`` already. The package registers
its submodules in ``sys.modules`` up front and runs each on its first use,
outside the import system, so ``-X importtime`` never lists them. So each
command also names, at exit, every ``infobounds`` module that has run.
"""

import json
import os
import py_compile
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Run first in every command: at exit, write ``ran: NAME`` to stderr for each
#: ``infobounds`` module that has run. A registered submodule that has not run
#: yet is still of LazyLoader's module subclass.
_REPORT_RAN = """
import atexit, sys, types
atexit.register(lambda: sys.stderr.write("".join(
    f"ran: {name}\\n" for name, module in list(sys.modules.items())
    if name.split(".")[0] == "infobounds" and type(module) is types.ModuleType
)))
"""

#: ``python -m infobounds.cli``: the CLI module runs as ``__main__``.
_CLI = "import runpy; runpy.run_module('infobounds.cli', run_name='__main__', alter_sys=True)"

_COMMANDS = {
    "import": ["import infobounds"],
    "cli-scenario-list": [_CLI, "scenario", "list"],
}


def _loaded_modules(stderr: str) -> list[str]:
    """Names of ``import time: self | cumulative | name`` and ``ran: name`` lines."""
    names = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            names.append(fields[2].strip())
        elif line.startswith("ran: "):
            names.append(line.removeprefix("ran: "))
    return names


def _run(code: str, *args: str) -> tuple[subprocess.CompletedProcess, list[str]]:
    """A fresh interpreter's run of ``code`` with ``args``, and the modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _REPORT_RAN + code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc, _loaded_modules(proc.stderr)


def _imported_by(command: list[str]) -> list[str]:
    proc, modules = _run(*command)
    assert proc.returncode == 0, proc.stderr
    return modules


def _top_level(modules: list[str], package: str) -> list[str]:
    return [m for m in modules if m.split(".")[0] == package]


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_no_scipy_on_import_path(name):
    modules = _imported_by(_COMMANDS[name])
    assert "infobounds" in modules
    assert _top_level(modules, "scipy") == []


def test_gamma_prior_loads_no_scipy_stats():
    modules = _imported_by(["import infobounds; infobounds.gamma_prior(3.0, 0.5)"])
    assert "scipy.special" in modules
    assert [m for m in modules if m.startswith("scipy.stats")] == []


def test_scenario_list_loads_no_numpy_and_no_library_module():
    modules = _imported_by(_COMMANDS["cli-scenario-list"])
    assert _top_level(modules, "numpy") == []
    assert set(_top_level(modules, "infobounds")) == {"infobounds", "infobounds.errors"}


_LANGEVIN = {
    "schema_version": 1,
    "scenario": "langevin",
    "scenario_params": {"diffusion": 1.0},
    "prior": {"kind": "uniform", "theta_min": 0.5, "theta_max": 1.5, "grid_points": 201},
    "bound": "theorem1",
    "sweep": {"x_count": 3, "theta_count": 3},
}


@pytest.mark.parametrize(
    "content",
    [None, "{not json", json.dumps({**_LANGEVIN, "scenario_params": {"diffusion": -1.0}})],
    ids=["missing-file", "invalid-json", "langevin-bad-field"],
)
def test_config_error_loads_no_numpy(tmp_path, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    proc, modules = _run(_CLI, "verify", "--config", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "config error: " in proc.stderr
    assert _top_level(modules, "numpy") == []


#: Each bound whose weight is the boxcar: its command and config.
_BOXCAR_BOUNDS = {
    "theorem1": ("verify", _LANGEVIN),
    "theorem3": ("verify", {**_LANGEVIN, "scenario": "qubit_phase", "scenario_params": {}, "sweep": {},
                            "bound": "theorem3"}),
    "mi_average": ("mi-chain", {**_LANGEVIN, "bound": "mi_average"}),
    "general-boxcar": ("verify", {**_LANGEVIN, "bound": "general", "weight": {"kind": "boxcar"}}),
}


@pytest.mark.parametrize("prior", [{"kind": "gaussian", "mean": 1.0, "sigma": 0.2},
                                   {"kind": "gamma", "shape": 3.0, "scale": 0.5}], ids=["gaussian", "gamma"])
@pytest.mark.parametrize("bound", sorted(_BOXCAR_BOUNDS))
def test_boxcar_weight_on_an_infinite_support_prior_is_a_config_error(tmp_path, bound, prior):
    command, cfg = _BOXCAR_BOUNDS[bound]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "prior": prior}))
    proc, modules = _run(_CLI, command, "--config", str(path))
    assert proc.returncode == 2, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("config error: ")]
    assert len(errors) == 1 and errors[0].startswith("config error: prior.kind: "), proc.stderr
    assert "requires a finite-support prior" in errors[0]
    assert _top_level(modules, "numpy") == []


def test_langevin_verify_runs_no_quantum_code(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_LANGEVIN))
    modules = _imported_by([_CLI, "verify", "--config", str(path)])
    assert {"infobounds.bounds", "infobounds.scenarios"} <= set(modules)
    assert "infobounds.quantum" not in modules


def test_uniform_prior_verify_loads_no_statistics(tmp_path):
    # only gaussian_prior needs statistics.NormalDist, which pulls in
    # fractions, decimal and random
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_LANGEVIN))
    modules = _imported_by([_CLI, "verify", "--config", str(path)])
    assert "infobounds.models" in modules
    assert "statistics" not in modules


#: A cold run of each path the benchmark's CLI mix takes: its command and config.
_COLD_RUNS = {
    "langevin-verify": ("verify", {**_LANGEVIN, "bound": "theorem2",
                                   "prior": {"kind": "gaussian", "mean": 1.0, "sigma": 0.2}}),
    "qubit-verify": _BOXCAR_BOUNDS["theorem3"],
    "discrete-verify": ("verify", {**_LANGEVIN, "scenario": "custom_discrete", "sweep": {"theta_count": 5},
                                   "scenario_params": {"log_weights": [-1.0, -1.0], "coefficients": [-1.0, 1.0]}}),
    "langevin-mi-chain": _BOXCAR_BOUNDS["mi_average"],
}


@pytest.mark.parametrize("name", sorted(_COLD_RUNS))
def test_a_cold_run_loads_no_dataclasses(tmp_path, name):
    # no class of the package is generated from source at import
    command, cfg = _COLD_RUNS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    modules = _imported_by([_CLI, command, "--config", str(path)])
    assert {"numpy", "infobounds.bounds"} <= set(modules)
    assert "dataclasses" not in modules


def test_a_failed_submodule_run_raises_the_same_error_on_every_use():
    # With NumPy blocked, no library submodule can run. Each use must raise
    # the import error again, not an AttributeError of a half-run module,
    # and the submodule runs once NumPy is back.
    code = """
import sys
sys.modules["numpy"] = None
import infobounds as ib
uses = (lambda: ib.uniform_prior, lambda: ib.uniform_prior,
        lambda: ib.models.uniform_prior, lambda: ib.mi_chain_values)
for use in uses:
    try:
        use()
    except ImportError as exc:
        print(f"{type(exc).__name__}: {exc}")
del sys.modules["numpy"]
print(ib.uniform_prior(0.0, 1.0, 11).grid.n_points)
"""
    proc, _ = _run(code)
    assert proc.returncode == 0, proc.stderr
    blocked = "ModuleNotFoundError: import of numpy halted; None in sys.modules"
    assert proc.stdout.splitlines() == [blocked] * 4 + ["11"]


def _zip_archive(root: Path) -> Path:
    archive = root / "infobounds.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(Path(SRC, "infobounds").glob("*.py")):
            zf.write(path, f"infobounds/{path.name}")
    return archive


def _bytecode_only(root: Path) -> Path:
    (root / "infobounds").mkdir()
    for path in sorted(Path(SRC, "infobounds").glob("*.py")):
        py_compile.compile(str(path), cfile=str(root / "infobounds" / f"{path.stem}.pyc"), doraise=True)
    return root


@pytest.mark.parametrize("deploy", [_zip_archive, _bytecode_only], ids=["zip", "bytecode"])
def test_submodules_run_through_the_loader_their_finder_gave(tmp_path, deploy):
    # Each submodule runs through its own loader, whatever form the package
    # takes on the path, and keeps that loader's other methods.
    location = str(deploy(tmp_path))
    code = """
import inspect, infobounds as ib
print(ib.__file__.startswith(sys.argv[1]), ib.uniform_prior(0.0, 1.0, 11).grid.n_points)
print(inspect.getsource(ib.uniform_prior).startswith("def uniform_prior("))
"""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys" + code, location],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": location},
        cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True 11", "True"]
