"""Command-line front end: configured bound-verification sweeps and
mutual-information chain checks with deterministic CSV/JSON reports.

Exit codes: 0 clean, 1 bound or chain violations, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path

from . import bounds, models, scenarios
from .errors import ConfigError, InfoBoundError

SCHEMA_VERSION = 1

SCENARIOS = {
    "langevin": "overdamped particle in a harmonic trap; continuous outcomes",
    "qubit_phase": "single-qubit phase estimation with a 2-element POVM",
    "custom_discrete": "discrete exponential-family outcome model",
}

#: The library bound kind behind each configured bound; it also fixes the
#: weight of every bound but "general", which names its own.
_BOUND_KINDS = {
    "theorem1": "theorem1",
    "theorem2": "theorem2",
    "theorem3": "theorem1",
    "general": "general",
    "mi_average": "theorem1",
}
#: POVM names; ``scenarios.<name>_povm`` builds each.
_POVMS = ("sigma_x", "sigma_y", "sigma_z")

#: Smallest admissible trap stiffness when a Gaussian prior is clipped to
#: the positive axis.
_MIN_STIFFNESS = 1e-3

#: The default of a field that must be given.
_REQUIRED = object()


# ---------------------------------------------------------------------------
# Config reading
# ---------------------------------------------------------------------------


def _is_number(value) -> bool:
    # False for JSON's NaN and Infinity, and for an integer beyond the float range
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    return ok and abs(value) <= sys.float_info.max


def _number(value) -> float:
    if not _is_number(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    value = _number(value)
    if value <= 0:
        raise ValueError("must be positive")
    return value


def _integer(minimum: int):
    def check(value) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ValueError(f"expected an integer >= {minimum}, got {value!r}")
        return value

    return check


def _one_of(choices):
    def check(value) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"expected one of {sorted(choices)}, got {value!r}")
        return value

    return check


def _numeric_list(value) -> list:
    if not isinstance(value, list) or len(value) < 2 or not all(map(_is_number, value)):
        raise ValueError("must be a list of finite numbers, length >= 2")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError("must be an object")
    return value


def _or_null(check):
    return lambda value: None if value is None else check(value)


class _Reader:
    """Reads config fields by path ("prior.sigma") into ``settings``; every
    field that fails its check adds one error that names its path."""

    def __init__(self, cfg: dict):
        self.cfg, self.settings, self.errors = cfg, {}, []

    def error(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def read(self, path: str, check=_number, default=_REQUIRED):
        """The checked value at ``path``, its default when absent, or None
        after an error; a section that failed its check has no fields."""
        section, _, key = path.rpartition(".")
        obj = (self.settings.get(section) or {}) if section else self.cfg
        try:
            if key in obj:
                value = check(obj[key])
            elif default is _REQUIRED:
                raise ValueError("missing required field")
            else:
                value = default
        except ValueError as exc:
            self.error(path, str(exc))
            return None
        self.settings[path] = value
        return value


def _read_config(cfg) -> tuple[dict, list[str]]:
    """Every field of a config, read once: type check, default, range check
    and an error naming the field's path. Returns the resolved settings by
    field path and the errors; the settings are complete iff there are none.
    """
    if not isinstance(cfg, dict):
        return {}, ["config: expected a JSON object"]
    r = _Reader(cfg)
    if cfg.get("schema_version") != SCHEMA_VERSION:
        r.error("schema_version", f"expected {SCHEMA_VERSION}")
    scenario = r.read("scenario", _one_of(SCENARIOS))
    bound = r.read("bound", _one_of(_BOUND_KINDS))
    qubit = scenario == "qubit_phase"

    if r.read("prior", _object) is not None:
        kind = r.read("prior.kind", _one_of(("uniform", "gaussian", "gamma")))
        if kind == "uniform":
            lo = r.read("prior.theta_min", default=0.0 if qubit else _REQUIRED)
            hi = r.read("prior.theta_max", default=scenarios.QUBIT_THETA_MAX if qubit else _REQUIRED)
            if qubit and None not in (lo, hi) and not 0.0 <= lo < hi <= scenarios.QUBIT_THETA_MAX + 1e-12:
                r.error(
                    "prior.theta_min/theta_max",
                    f"qubit phase support must lie inside [0, {scenarios.QUBIT_THETA_MAX}]",
                )
        elif kind == "gaussian":
            r.read("prior.mean")
            r.read("prior.sigma", _positive)
            lower = r.read("prior.lower", _or_null(_number), default=None)
            if scenario == "langevin":
                r.settings["prior.lower"] = max(lower or _MIN_STIFFNESS, _MIN_STIFFNESS)
        elif kind == "gamma":
            r.read("prior.shape", _positive)
            r.read("prior.scale", _positive)
        r.read("prior.grid_points", _integer(3), default=2001)
        if bound in ("theorem1", "theorem3") and kind in ("gaussian", "gamma"):
            r.error(
                "prior.kind",
                f"bound {bound!r} requires a finite-support prior, but {kind!r} has infinite support",
            )
    if bound == "theorem3" and scenario not in ("qubit_phase", None):
        r.error("bound", "theorem3 requires scenario 'qubit_phase'")

    r.read("scenario_params", _object, default={})
    if scenario == "langevin":
        r.read("scenario_params.diffusion", _positive, default=1.0)
    elif qubit:
        r.read("scenario_params.povm", _one_of(_POVMS), default="sigma_x")
    elif scenario == "custom_discrete":
        lw = r.read("scenario_params.log_weights", _numeric_list)
        co = r.read("scenario_params.coefficients", _numeric_list)
        if lw is not None and co is not None and len(lw) != len(co):
            r.error("scenario_params.coefficients", "length must match log_weights")

    sweep = r.read("sweep", _object, default={}) or {}
    r.read("sweep.tolerance", _positive, default=1e-6)
    r.read("sweep.theta_min", default=None)  # None: the prior grid's end
    r.read("sweep.theta_max", default=None)
    r.read("sweep.theta_count", _integer(1), default=41 if qubit else 50)
    if scenario in ("qubit_phase", "custom_discrete"):
        for key in ("x_min", "x_max", "x_count"):
            if key in sweep:
                r.error(f"sweep.{key}", "not applicable to discrete outcome scenarios")
    else:
        r.read("sweep.x_min", default=-4.0)
        r.read("sweep.x_max", default=4.0)
        r.read("sweep.x_count", _integer(1), default=50)

    if bound == "general" and r.read("weight", _object) is not None:
        if r.read("weight.kind", _one_of(("boxcar", "prior", "gaussian"))) == "gaussian":
            r.read("weight.center")
            r.read("weight.width", _positive)

    r.read("output", _object, default={})
    r.read("output.format", _one_of(("csv", "json")), default="csv")
    r.read("output.path", _or_null(_string), default=None)
    return r.settings, r.errors


# ---------------------------------------------------------------------------
# Run context construction
# ---------------------------------------------------------------------------


class RunContext:
    """Everything a run needs: model, prior, samples, weight, sensitivity.

    Built from the resolved settings of the config; a config with errors
    raises them all as one :class:`ConfigError`, one error per line.
    """

    def __init__(self, cfg: dict):
        s, errors = _read_config(cfg)
        if errors:
            raise ConfigError("\n".join(errors))
        import numpy as np  # only now: a config error is reported without NumPy

        self.settings = s
        self.scenario, self.bound = s["scenario"], s["bound"]
        self.tolerance = s["sweep.tolerance"]
        self.sensitivity = None

        self.prior = _build_prior(s)
        grid = self.prior.grid
        if self.scenario == "langevin":
            self.model = scenarios.langevin_model(s["scenario_params.diffusion"], grid.theta_min)
            self.x_samples = list(np.linspace(s["sweep.x_min"], s["sweep.x_max"], s["sweep.x_count"]))
        elif self.scenario == "qubit_phase":
            povm = getattr(scenarios, s["scenario_params.povm"] + "_povm")()
            self.model, quantum_sensitivity = scenarios.qubit_measurement_model(povm)
            if self.bound == "theorem3":
                self.sensitivity = quantum_sensitivity
        else:
            weights, coefficients = s["scenario_params.log_weights"], s["scenario_params.coefficients"]
            self.model = scenarios.discrete_exponential_model(weights, coefficients)
        if self.scenario != "langevin":
            self.x_samples = list(self.model.outcome_space.outcomes)

        theta_min = grid.theta_min if s["sweep.theta_min"] is None else s["sweep.theta_min"]
        theta_max = grid.theta_max if s["sweep.theta_max"] is None else s["sweep.theta_max"]
        if not (grid.contains(theta_min) and grid.contains(theta_max)):
            raise ConfigError(
                f"sweep.theta_min/theta_max: [{theta_min}, {theta_max}] outside the "
                f"prior grid [{grid.theta_min}, {grid.theta_max}]"
            )
        self.theta_samples = list(np.linspace(theta_min, theta_max, s["sweep.theta_count"]))
        self.sweep_kind = _BOUND_KINDS[self.bound]
        self.weight = bounds._weight_for_kind(self.prior, self.sweep_kind, _config_weight(s, self.prior))


def _build_prior(s: dict) -> models.Prior:
    n, kind = s["prior.grid_points"], s["prior.kind"]
    if kind == "uniform":
        return models.uniform_prior(s["prior.theta_min"], s["prior.theta_max"], n)
    if kind == "gaussian":
        return models.gaussian_prior(s["prior.mean"], s["prior.sigma"], n, lower=s["prior.lower"])
    return models.gamma_prior(s["prior.shape"], s["prior.scale"], n)


def _config_weight(s: dict, prior: models.Prior) -> models.WeightFunction | None:
    """The weight a "general" config names; other bounds have none."""
    kind = s.get("weight.kind")
    if kind == "gaussian":
        return models.gaussian_weight(prior.grid, s["weight.center"], s["weight.width"])
    if kind == "boxcar":
        return models.boxcar_weight(prior.grid)
    return models.prior_weight(prior) if kind == "prior" else None


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


#: Columns of a verify report row: the CSV header and the JSON row keys.
_COLUMNS = (
    "x", "theta", "pmi", "bound", "slack", "boundary_term", "integral_term", "penalty_term", "status",
)
_SUMMARY = ("n_evaluations", "n_skipped", "violations", "min_slack", "mean_slack", "tolerance")


#: Characters that put a CSV cell in quotes (RFC 4180).
_QUOTED = frozenset(',"\r\n')


def _cell(value) -> str:
    """A CSV cell; floats carry 17 significant digits, so they round-trip. A
    text holding a comma, quote or line break is quoted, its quotes doubled
    (RFC 4180)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    return text if _QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _texts(values: list, cell, fast) -> list[str]:
    """The text of each value: ``cell`` once per value object, or ``fast`` (the
    same text, without a Python call) when all are finite floats. Values are
    matched by identity, as 0.0 and -0.0, or 1 and 1.0, compare equal but
    print apart; ``values`` holds every object, so no id is reused meanwhile."""
    ids = list(map(id, values))
    distinct = dict(zip(ids, values))
    objects = distinct.values()
    if all(map(isinstance, objects, repeat(float))) and all(map(math.isfinite, objects)):
        cell = fast
    if len(distinct) == len(ids):
        return list(map(cell, objects))
    return list(map(dict(zip(distinct, map(cell, objects))).__getitem__, ids))


def _row_lines(rows, cell, fast, ok: str, skipped: str) -> list[str]:
    """One line per verify report row, in order: the ``ok`` template filled
    with a report's nine cells, or ``skipped`` with a skipped point's x, theta
    and status. Cells are made column by column (:func:`_texts`), so a value
    of a column that repeats per outcome (x and the outcome terms) or per
    theta sample (theta and the penalty) is formatted once. An x from NumPy
    prints as its Python value."""
    import numpy as np

    label = lambda x: cell(x.item() if isinstance(x, np.generic) else x)  # noqa: E731
    done = [r for r in rows if not isinstance(r, bounds.SkippedPoint)]
    columns = [list(map(attrgetter(c), done)) for c in _COLUMNS[:-1]]
    cells = [_texts(column, label if i == 0 else cell, fast) for i, column in enumerate(columns)]
    parts = [repeat(part) for part in ok.split("%s")]  # the text around the cells
    lines = map("".join, zip(parts[0], *chain(*zip([*cells, repeat(cell("ok"))], parts[1:]))))
    return [skipped % (label(r.x), cell(r.theta), cell(f"skipped:{r.reason}"))
            if isinstance(r, bounds.SkippedPoint) else next(lines) for r in rows]


def render_verify_csv(rows, summary) -> str:
    lines = [",".join(_COLUMNS), *_row_lines(rows, _cell, "{:.17g}".format, ",".join(["%s"] * 9), "%s,%s,,,,,,,%s")]
    lines += [f"# {name}={_cell(getattr(summary, name))}" for name in _SUMMARY]
    return "\n".join(lines) + "\n"


def render_verify_json(rows, summary) -> str:
    """The text of ``json.dumps(doc, indent=2)``, with the rows laid out here."""
    doc = {"schema_version": SCHEMA_VERSION, "kind": "verify", "rows": [],
           "summary": {name: getattr(summary, name) for name in _SUMMARY}}
    ok, skipped = ("    {\n" + ",\n".join(f'      "{c}": %s' for c in keys) + "\n    }"
                   for keys in (_COLUMNS, ("x", "theta", "status")))
    lines = _row_lines(rows, json.dumps, float.__repr__, ok, skipped)
    text = json.dumps(doc, indent=2) + "\n"
    return text.replace('"rows": []', '"rows": [\n' + ",\n".join(lines) + "\n  ]", 1) if lines else text


def render_chain_csv(values: dict) -> str:
    return ",".join(values) + "\n" + ",".join(map(_cell, values.values())) + "\n"


def render_chain_json(values: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "kind": "mi_chain", **values}
    return json.dumps(doc, indent=2) + "\n"


def _emit(ctx: RunContext, render_csv, render_json, *report) -> None:
    """Render the report in the configured format to the configured path."""
    render = render_csv if ctx.settings["output.format"] == "csv" else render_json
    text = render(*report)
    path = ctx.settings["output.path"]
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"output.path: cannot write {path!r}: {exc.strerror}") from exc
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def run_verify(cfg: dict) -> int:
    """Sweep the configured bound; exit 0 iff no violations. Raises InfoBoundError."""
    ctx = RunContext(cfg)
    if ctx.bound == "mi_average":
        raise ConfigError("bound: mi_average applies to the mi-chain command")
    reports, skipped = bounds.bound_sweep(
        ctx.model, ctx.prior, ctx.sweep_kind, ctx.x_samples, ctx.theta_samples,
        weight=ctx.weight, sensitivity=ctx.sensitivity,
    )
    summary = bounds.summarize_sweep(reports, ctx.tolerance, n_skipped=len(skipped))
    # A point is skipped iff it is the next skipped one: both lists are x-major, and evaluation is pure.
    reported, left = iter(reports), skipped[::-1]
    rows = [left.pop() if left and left[-1].x is x and left[-1].theta == theta else next(reported)
            for x in ctx.x_samples for theta in ctx.theta_samples]
    _emit(ctx, render_verify_csv, render_verify_json, rows, summary)
    return 0 if summary.violations == 0 else 1


def run_mi_chain(cfg: dict) -> int:
    """Check MI <= averaged pointwise bound <= ensemble bound. Raises InfoBoundError."""
    ctx = RunContext(cfg)
    mi, avg_bound, avg_limit = bounds.mi_chain_values(ctx.model, ctx.prior, ctx.weight, ctx.sensitivity)
    ok = bounds.chain_holds(mi, avg_bound, avg_limit, ctx.tolerance)
    values = {
        "mutual_information": mi,
        "avg_pointwise_bound": avg_bound,
        "mi_bound_average": avg_limit,
        "chain_ok": bool(ok),
        "tolerance": ctx.tolerance,
    }
    _emit(ctx, render_chain_csv, render_chain_json, values)
    return 0 if ok else 1


def run_scenario_list() -> int:
    width = max(len(name) for name in SCENARIOS)
    for name, blurb in SCENARIOS.items():
        print(f"{name:<{width}}  {blurb}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _load_config(path: str, overrides: argparse.Namespace) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}")
    for section, key, value in (
        ("output", "path", overrides.output),
        ("output", "format", overrides.format),
        ("sweep", "tolerance", overrides.tolerance),
        ("prior", "grid_points", overrides.grid),
    ):
        # A config or section that is not an object is left for the reader to report.
        if value is not None and isinstance(cfg, dict) and isinstance(cfg.setdefault(section, {}), dict):
            cfg[section][key] = value
    return cfg


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--output", default=None, help="report path (default: stdout)")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    parser.add_argument("--tolerance", default=None, type=float, help="slack tolerance")
    parser.add_argument("--grid", default=None, type=int, help="prior grid resolution")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="infobounds",
        description="Verify pointwise information bounds for configured scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(sub.add_parser("verify", help="sweep a pointwise bound"))
    _add_run_flags(sub.add_parser("mi-chain", help="check the averaged bound chain"))
    scenario = sub.add_parser("scenario", help="scenario utilities")
    scenario.add_argument("action", choices=("list",))

    args = parser.parse_args(argv)
    if args.command == "scenario":
        return run_scenario_list()
    try:
        cfg = _load_config(args.config, args)
        return run_verify(cfg) if args.command == "verify" else run_mi_chain(cfg)
    except InfoBoundError as exc:
        for line in str(exc).splitlines():
            print(f"config error: {line}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry: :func:`main` with the cyclic garbage collector off.

    A process runs one command and exits, so the cyclic garbage it leaves is
    bounded by that one run, and collecting would only walk the heap: in
    passes while NumPy loads and once more at exit. The heap is frozen before
    return, out of reach of the interpreter's final collection; exit handlers
    and the flushing of the standard streams still run. :func:`main` leaves
    the collector as it finds it, for callers in a process that goes on.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
