"""Seeded demon records on the qubit phase scenario, pinned.

``demon_goldens.json`` holds 200 ``DemonRecord``s on the sigma-x qubit model
with its quantum sensitivity and a uniform prior on [0, pi/2], together with
the ``pmi``, ``bound``, ``sagawa_ueda_ok`` and ``chained_ok`` that
``demon_work_check`` gave for each when they were recorded. Phases are drawn
off-grid in (0.05, pi/2 - 0.05) with both outcomes. About one record in five
spends more than its PMI but no more than its bound, and one in ten more than
its bound.

The last digits of ``pmi`` and ``bound`` come from NumPy's floating-point
kernels, and CI installs an unpinned NumPy. So they are compared bit for bit
only under the NumPy version the records were taken with, and within 1e-12
relative under any other; the two verdicts are compared exactly. Every
record's work budget sits at least 0.001 from both of its budgets, far beyond
that tolerance.

Record the file again with ``PYTHONPATH=src python tests/test_demon_goldens.py``.
"""

import json
import math
from pathlib import Path

import numpy as np

import infobounds as ib

GOLDENS = Path(__file__).with_name("demon_goldens.json")

#: Values agree to this relative tolerance under another NumPy version.
RTOL = 1e-12

INPUTS = ("beta", "work_extracted", "delta_free_energy", "outcome", "theta")
OUTPUTS = ("pmi", "bound", "sagawa_ueda_ok", "chained_ok")


def _scenario():
    model, sensitivity = ib.qubit_measurement_model()
    return model, sensitivity, ib.uniform_prior(0.0, math.pi / 2)


def _check(row, model, sensitivity, prior):
    record = ib.DemonRecord(*row[: len(INPUTS)])
    check = ib.demon_work_check(record, model, prior, sensitivity)
    return [getattr(check, name) for name in OUTPUTS]


def _agrees(recorded, value, exact: bool) -> bool:
    if isinstance(recorded, bool):
        return value is recorded
    return value == recorded if exact else math.isclose(value, recorded, rel_tol=RTOL)


def test_demon_records_match_the_goldens():
    doc = json.loads(GOLDENS.read_text())
    assert doc["columns"] == list(INPUTS + OUTPUTS)
    exact = np.__version__ == doc["numpy"]
    model, sensitivity, prior = _scenario()
    rows = doc["rows"]
    assert len(rows) == 200
    for row in rows:
        got = _check(row, model, sensitivity, prior)
        recorded = row[len(INPUTS) :]
        assert all(_agrees(r, g, exact) for r, g in zip(recorded, got)), (row, got)
    verdicts = {tuple(row[-2:]) for row in rows}
    assert verdicts == {(True, True), (False, True), (False, False)}
    assert {row[3] for row in rows} == {"+", "-"}


def _record(seed: int = 14, n: int = 200) -> dict:
    """Draw the records and run them through the installed package."""
    model, sensitivity, prior = _scenario()
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        x = "+" if rng.random() < 0.5 else "-"
        info, bound, _, _ = _check([1.0, 0.0, 0.0, x, theta], model, sensitivity, prior)
        kind = rng.random()
        if kind < 0.1:  # beyond the bound: both budgets fail
            lhs = bound + rng.uniform(0.05, 0.5)
        elif kind < 0.3 and bound - info > 0.05:  # between the PMI and the bound
            lhs = info + rng.uniform(0.02, 0.98) * (bound - info)
        else:
            lhs = info - rng.uniform(0.01, 0.5)
        beta, delta_f = float(rng.uniform(0.5, 2.0)), float(rng.normal(0.0, 1.0))
        row = [beta, delta_f + float(lhs) / beta, delta_f, x, theta]
        rows.append(row + _check(row, model, sensitivity, prior))
    return {"numpy": np.__version__, "seed": seed, "columns": list(INPUTS + OUTPUTS), "rows": rows}


if __name__ == "__main__":
    doc = _record()
    lines = ",\n".join("  " + json.dumps(row) for row in doc["rows"])
    head = json.dumps({key: doc[key] for key in ("numpy", "seed", "columns")})[:-1]
    GOLDENS.write_text(f'{head}, "rows": [\n{lines}\n]}}\n')
