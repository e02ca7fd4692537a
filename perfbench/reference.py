"""Reference values frozen from the seed commit, and the checks against them.

``reference.json`` is written by ``freeze_reference.py``. The tolerances are
the ones the test suite states: 1e-9 absolute on PMI, bound and slack, and
1e-7 absolute on mutual information.
"""

from __future__ import annotations

import json
import math

from checkout import BENCH

PATH = BENCH / "reference.json"

VALUE_TOL = 1e-9
MI_TOL = 1e-7
THETA_TOL = 1e-12


def _same_x(got, want) -> bool:
    if isinstance(want, str):
        return got == want
    if isinstance(want, int):
        return int(got) == want
    return float(got) == want


class Reference:
    def __init__(self, doc: dict):
        self.doc = doc
        self.tables = doc["tables"]

    @classmethod
    def load(cls) -> "Reference":
        return cls(json.loads(PATH.read_text()))

    @property
    def scenario_list(self) -> str:
        return self.doc["scenario_list"]

    def n_rows(self, table: str) -> int:
        return len(self.tables[table]["pmi"])

    def chain_problem(self, name: str, values) -> str | None:
        """None if (MI, averaged bound, ensemble bound) match and are ordered."""
        want = self.doc["chains"][name]
        for label, got, ref, tol in zip(
            ("mutual_information", "avg_pointwise_bound", "mi_bound_average"),
            values,
            want,
            (MI_TOL, VALUE_TOL, VALUE_TOL),
        ):
            if not abs(got - ref) <= tol:
                return f"{label} {got!r} != reference {ref!r}"
        # chain_holds at the CLI's default slack tolerance
        mi, avg_bound, avg_limit = values
        if not (mi <= avg_bound + 1e-6 and avg_bound <= avg_limit + 1e-6):
            return "chain MI <= averaged bound <= ensemble bound violated"
        return None

    def rows_problem(self, table: str, rows) -> str | None:
        """Check report rows, in x-major reference order.

        Each row is ``(x, theta, pmi, bound, slack, status)`` with ``None``
        values on skipped rows; the skip reasons must match too.
        """
        ref = self.tables[table]
        n_theta = len(ref["theta"])
        if len(rows) != len(ref["pmi"]):
            return f"{len(rows)} rows, reference has {len(ref['pmi'])}"
        for i, (x, theta, pmi, bound, slack, status) in enumerate(rows):
            ix, it = divmod(i, n_theta)
            if not _same_x(x, ref["x"][ix]) or not abs(float(theta) - ref["theta"][it]) <= THETA_TOL:
                return f"row {i} is ({x!r}, {theta!r}), reference point differs"
            want = ref["status"].get(str(i), "ok")
            if status != want:
                return f"row {i} status {status!r} != {want!r}"
            if status != "ok":
                continue
            rp, rb = ref["pmi"][i], ref["bound"][i]
            if not (
                abs(pmi - rp) <= VALUE_TOL
                and abs(bound - rb) <= VALUE_TOL
                and abs(slack - (rb - rp)) <= VALUE_TOL
            ):
                return f"row {i} (pmi, bound, slack) = ({pmi!r}, {bound!r}, {slack!r}) off reference"
        return None

    def sweep_problem(self, table: str, reports, skipped) -> str | None:
        """Check a ``bound_sweep`` result whose samples came in any order."""
        ref = self.tables[table]
        by_point = {(r.x, r.theta): (r.pmi, r.bound, r.slack, "ok") for r in reports}
        by_point.update({(s.x, s.theta): (None, None, None, f"skipped:{s.reason}") for s in skipped})
        if len(by_point) != len(reports) + len(skipped):
            return "sweep returned a point twice"
        rows = []
        for x in ref["x"]:
            for theta in ref["theta"]:
                got = by_point.get((x, theta))
                if got is None:
                    return f"sweep is missing point ({x!r}, {theta!r})"
                rows.append((x, theta) + got)
        return self.rows_problem(table, rows)

    # -- qubit demon -------------------------------------------------------

    def qubit_bound(self, x: str) -> float:
        """Theorem 1 bound of outcome ``x``; the boxcar penalty is zero, so
        it does not depend on theta."""
        return self.doc["qubit_outcomes"][x]["bound"]

    def qubit_pmi(self, x: str, theta: float) -> float:
        """log p(x|theta) - log p(x) with the closed-form sigma-x Born
        probability (1 +- cos theta)/2 and the frozen marginal."""
        sign = 1.0 if x == "+" else -1.0
        p = 0.5 * (1.0 + sign * math.cos(theta))
        return math.log(p) - math.log(self.doc["qubit_outcomes"][x]["marginal"])
