"""Locate the checkout under test and prepare the process that measures it.

Every benchmark entry point calls :func:`prepare` before it imports NumPy or
``infobounds``: the package is not installed, so the checkout's ``src/`` goes
first on ``sys.path`` here and on ``PYTHONPATH`` in every child process.
"""

from __future__ import annotations

import os
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: One BLAS thread: each workload runs in a single process with no extra
#: worker threads, which keeps runs on a 2-core machine comparable.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _quiet_env(env: dict) -> dict:
    for name in _THREAD_VARS:
        env[name] = "1"
    # The qubit scenario's zero-probability and support-leak notices are
    # expected; tests/conftest.py ignores RuntimeWarning the same way.
    env["PYTHONWARNINGS"] = "ignore::RuntimeWarning"
    return env


def prepare() -> None:
    """Put the checkout's ``src/`` first on the path; exit if it is missing."""
    if not (SRC / "infobounds" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no infobounds sources under {SRC}")
    _quiet_env(os.environ)
    warnings.simplefilter("ignore", RuntimeWarning)
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: same path, threads and warnings."""
    env = _quiet_env(dict(os.environ))
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def package_file(module) -> str:
    """``module.__file__``, refusing to go on if it is not from this checkout."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise SystemExit(f"perfbench: imported {path}, not the checkout under {SRC}")
    return str(path)
