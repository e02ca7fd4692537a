"""``import infobounds`` and the CLI must not load SciPy, and
``gamma_prior`` must load no more of it than ``scipy.special``.

Each command runs in a fresh interpreter under ``-X importtime``, which logs
every module the process imports; the pytest process cannot tell, because
``conftest.py`` has loaded ``scipy.linalg`` already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_COMMANDS = {
    "import": ["-c", "import infobounds"],
    "cli-scenario-list": ["-m", "infobounds.cli", "scenario", "list"],
}


def _imported_modules(importtime_log: str) -> list[str]:
    """Module names of ``import time: self | cumulative | name`` lines."""
    names = []
    for line in importtime_log.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            names.append(fields[2].strip())
    return names


def _imported_by(args: list[str]) -> list[str]:
    """Modules a fresh interpreter imports while running ``args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return _imported_modules(proc.stderr)


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_no_scipy_on_import_path(name):
    modules = _imported_by(_COMMANDS[name])
    assert "infobounds" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_gamma_prior_loads_no_scipy_stats():
    modules = _imported_by(["-c", "import infobounds; infobounds.gamma_prior(3.0, 0.5)"])
    assert "scipy.special" in modules
    assert [m for m in modules if m.startswith("scipy.stats")] == []
