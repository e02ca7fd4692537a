"""Write ``reference.json``: the values every benchmark operation is checked
against. Run it once, on the commit whose numbers are the reference
(0add508), with ``python3 perfbench/freeze_reference.py``; later commits
are measured against that file and must not regenerate it.
"""

import contextlib
import io
import json
import math

import checkout

checkout.prepare()
import numpy as np  # noqa: E402

import infobounds as ib  # noqa: E402
import infobounds.cli as cli  # noqa: E402

import workloads  # noqa: E402
from reference import PATH  # noqa: E402


def _table(xs, thetas, reports, skipped) -> dict:
    by_point = {(r.x, r.theta): r for r in reports}
    reasons = {(s.x, s.theta): f"skipped:{s.reason}" for s in skipped}
    table = {"x": [], "theta": [float(t) for t in thetas], "pmi": [], "bound": [], "status": {}}
    for x in xs:
        table["x"].append(x.item() if isinstance(x, np.generic) else x)
        for theta in thetas:
            key = (x, float(theta))
            if key in reasons:
                table["status"][str(len(table["pmi"]))] = reasons[key]
                table["pmi"].append(None)
                table["bound"].append(None)
            else:
                table["pmi"].append(by_point[key].pmi)
                table["bound"].append(by_point[key].bound)
    return table


def main() -> None:
    tables = {}
    langevin = workloads.LangevinState()
    for name in langevin.sweeps:
        xs, thetas = list(workloads.X_SAMPLES), langevin.thetas(name)
        tables[name] = _table(xs, thetas, *langevin.sweep(name, xs, thetas))
    for name in ("qubit_theorem3", "discrete_theorem1"):
        ctx = cli.RunContext({"schema_version": 1, **workloads.CLI_CONFIGS[name]})
        result = ib.bound_sweep(
            ctx.model, ctx.prior, ctx.sweep_kind, ctx.x_samples, ctx.theta_samples,
            sensitivity=ctx.sensitivity,
        )
        tables[name] = _table(ctx.x_samples, ctx.theta_samples, *result)

    qubit = workloads.QubitState()
    outcomes = {
        x: {
            "marginal": ib.marginal(qubit.model, qubit.prior, x),
            "bound": ib.bound_theorem1(qubit.model, qubit.prior, x, math.pi / 4, qubit.sensitivity).bound,
        }
        for x in ("+", "-")
    }
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        cli.run_scenario_list()
    doc = {
        "scenario_list": listing.getvalue(),
        "chains": {"langevin": list(langevin.chain()), "qubit": list(qubit.chain())},
        "qubit_outcomes": outcomes,
        "tables": tables,
    }
    PATH.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
