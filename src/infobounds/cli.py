"""Command-line front end: configured bound-verification sweeps and
mutual-information chain checks with deterministic CSV/JSON reports.

Exit codes: 0 clean, 1 bound or chain violations, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import (
    SkippedPoint,
    _weight_for_kind,
    bound_sweep,
    chain_holds,
    mi_chain_values,
    summarize_sweep,
)
from .errors import ConfigError, InfoBoundError
from .models import (
    Prior,
    WeightFunction,
    boxcar_weight,
    gamma_prior,
    gaussian_prior,
    gaussian_weight,
    prior_weight,
    uniform_prior,
)
from .scenarios import (
    QUBIT_THETA_MAX,
    discrete_exponential_model,
    langevin_model,
    qubit_measurement_model,
    sigma_x_povm,
    sigma_y_povm,
    sigma_z_povm,
)

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
_ALL_BOUNDS = tuple(_BOUND_KINDS)
_PRIOR_KINDS = ("uniform", "gaussian", "gamma")
_POVMS = {"sigma_x": sigma_x_povm, "sigma_y": sigma_y_povm, "sigma_z": sigma_z_povm}

#: Smallest admissible trap stiffness when a Gaussian prior is clipped to
#: the positive axis.
_MIN_STIFFNESS = 1e-3


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def _err(errors: list[str], path: str, message: str) -> None:
    errors.append(f"{path}: {message}")


def _get_number(cfg: dict, path: str, key: str, errors: list[str], default=None):
    if key not in cfg:
        if default is None:
            _err(errors, f"{path}.{key}", "missing required field")
        return default
    value = cfg[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _err(errors, f"{path}.{key}", f"expected a number, got {value!r}")
        return default
    return float(value)


def validate_config(cfg: dict) -> list[str]:
    """Schema and cross-field checks; returns error messages with field paths."""
    errors: list[str] = []
    if not isinstance(cfg, dict):
        return ["config: expected a JSON object"]
    if cfg.get("schema_version") != SCHEMA_VERSION:
        _err(errors, "schema_version", f"expected {SCHEMA_VERSION}")
    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        _err(errors, "scenario", f"expected one of {sorted(SCENARIOS)}, got {scenario!r}")
    bound = cfg.get("bound")
    if bound not in _ALL_BOUNDS:
        _err(errors, "bound", f"expected one of {_ALL_BOUNDS}, got {bound!r}")

    prior = cfg.get("prior")
    prior_kind = None
    if not isinstance(prior, dict):
        _err(errors, "prior", "missing or not an object")
    else:
        prior_kind = prior.get("kind")
        if prior_kind not in _PRIOR_KINDS:
            _err(errors, "prior.kind", f"expected one of {_PRIOR_KINDS}, got {prior_kind!r}")
        elif prior_kind == "uniform":
            # The qubit scenario defaults its phase window; others must say.
            for key in ("theta_min", "theta_max"):
                if scenario != "qubit_phase" or key in prior:
                    _get_number(prior, "prior", key, errors)
        elif prior_kind == "gaussian":
            _get_number(prior, "prior", "mean", errors)
            sigma = _get_number(prior, "prior", "sigma", errors)
            if sigma is not None and sigma <= 0:
                _err(errors, "prior.sigma", "must be positive")
            if prior.get("lower") is not None:
                _get_number(prior, "prior", "lower", errors)
        elif prior_kind == "gamma":
            shape = _get_number(prior, "prior", "shape", errors)
            scale = _get_number(prior, "prior", "scale", errors)
            if shape is not None and shape <= 0:
                _err(errors, "prior.shape", "must be positive")
            if scale is not None and scale <= 0:
                _err(errors, "prior.scale", "must be positive")
        n = prior.get("grid_points", 2001)
        if not isinstance(n, int) or n < 3:
            _err(errors, "prior.grid_points", "must be an integer >= 3")

    if bound in ("theorem1", "theorem3") and prior_kind not in ("uniform", None):
        _err(
            errors,
            "prior.kind",
            f"bound {bound!r} requires a finite-support prior, "
            f"but {prior_kind!r} has infinite support",
        )
    if bound == "theorem3" and scenario not in ("qubit_phase", None):
        _err(errors, "bound", "theorem3 requires scenario 'qubit_phase'")

    params = cfg.get("scenario_params", {})
    if not isinstance(params, dict):
        _err(errors, "scenario_params", "must be an object")
        params = {}
    if scenario == "langevin":
        d = _get_number(params, "scenario_params", "diffusion", errors, default=1.0)
        if d is not None and d <= 0:
            _err(errors, "scenario_params.diffusion", "must be positive")
    elif scenario == "qubit_phase":
        povm = params.get("povm", "sigma_x")
        if povm not in _POVMS:
            _err(errors, "scenario_params.povm", f"expected one of {sorted(_POVMS)}")
    elif scenario == "custom_discrete":
        for key in ("log_weights", "coefficients"):
            seq = params.get(key)
            if not isinstance(seq, list) or len(seq) < 2 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq
            ):
                _err(errors, f"scenario_params.{key}", "must be a numeric list, length >= 2")
        lw, co = params.get("log_weights"), params.get("coefficients")
        if isinstance(lw, list) and isinstance(co, list) and len(lw) != len(co):
            _err(errors, "scenario_params.coefficients", "length must match log_weights")

    sweep = cfg.get("sweep", {})
    if not isinstance(sweep, dict):
        _err(errors, "sweep", "must be an object")
        sweep = {}
    tol = _get_number(sweep, "sweep", "tolerance", errors, default=1e-6)
    if tol is not None and tol <= 0:
        _err(errors, "sweep.tolerance", "must be positive")
    for key in ("theta_count", "x_count"):
        if key in sweep and (not isinstance(sweep[key], int) or sweep[key] < 1):
            _err(errors, f"sweep.{key}", "must be a positive integer")
    numeric = ["theta_min", "theta_max"]
    if scenario in ("qubit_phase", "custom_discrete"):
        for key in ("x_min", "x_max", "x_count"):
            if key in sweep:
                _err(errors, f"sweep.{key}", "not applicable to discrete outcome scenarios")
    else:
        numeric += ["x_min", "x_max"]
    for key in numeric:
        if key in sweep:
            _get_number(sweep, "sweep", key, errors)

    if bound == "general":
        weight = cfg.get("weight")
        if not isinstance(weight, dict):
            _err(errors, "weight", "bound 'general' requires a weight object")
        else:
            kind = weight.get("kind")
            if kind not in ("boxcar", "prior", "gaussian"):
                _err(errors, "weight.kind", "expected boxcar, prior or gaussian")
            elif kind == "gaussian":
                _get_number(weight, "weight", "center", errors)
                width = _get_number(weight, "weight", "width", errors)
                if width is not None and width <= 0:
                    _err(errors, "weight.width", "must be positive")

    output = cfg.get("output", {})
    if not isinstance(output, dict):
        _err(errors, "output", "must be an object")
    else:
        if output.get("format", "csv") not in ("csv", "json"):
            _err(errors, "output.format", "expected 'csv' or 'json'")
        path = output.get("path")
        if path is not None and not isinstance(path, str):
            _err(errors, "output.path", f"expected a string, got {path!r}")
    return errors


# ---------------------------------------------------------------------------
# Run context construction
# ---------------------------------------------------------------------------


class RunContext:
    """Everything a run needs: model, prior, samples, weight, sensitivity."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.scenario = cfg["scenario"]
        self.bound = cfg["bound"]
        sweep = cfg.get("sweep", {})
        self.tolerance = float(sweep.get("tolerance", 1e-6))
        self.sensitivity = None

        self.prior = self._build_prior()
        params = cfg.get("scenario_params", {})
        if self.scenario == "langevin":
            self.model = langevin_model(float(params.get("diffusion", 1.0)), self.prior.grid.theta_min)
            x_min = float(sweep.get("x_min", -4.0))
            x_max = float(sweep.get("x_max", 4.0))
            x_count = int(sweep.get("x_count", 50))
            self.x_samples = list(np.linspace(x_min, x_max, x_count))
        elif self.scenario == "qubit_phase":
            povm = _POVMS[params.get("povm", "sigma_x")]()
            self.model, quantum_sensitivity = qubit_measurement_model(povm)
            if self.bound == "theorem3":
                self.sensitivity = quantum_sensitivity
            self.x_samples = list(self.model.outcome_space.outcomes)
        else:
            self.model = discrete_exponential_model(
                params["log_weights"], params["coefficients"]
            )
            self.x_samples = list(self.model.outcome_space.outcomes)

        grid = self.prior.grid
        theta_min = float(sweep.get("theta_min", grid.theta_min))
        theta_max = float(sweep.get("theta_max", grid.theta_max))
        default_count = 41 if self.scenario == "qubit_phase" else 50
        theta_count = int(sweep.get("theta_count", default_count))
        if not (grid.contains(theta_min) and grid.contains(theta_max)):
            raise ConfigError(
                f"sweep.theta_min/theta_max: [{theta_min}, {theta_max}] outside the "
                f"prior grid [{grid.theta_min}, {grid.theta_max}]"
            )
        self.theta_samples = list(np.linspace(theta_min, theta_max, theta_count))
        self.sweep_kind = _BOUND_KINDS[self.bound]
        self.weight = _weight_for_kind(self.prior, self.sweep_kind, self._config_weight())

    def _build_prior(self) -> Prior:
        cfg = self.cfg
        prior = cfg["prior"]
        n = int(prior.get("grid_points", 2001))
        kind = prior["kind"]
        if kind == "uniform":
            if self.scenario == "qubit_phase":
                lo = float(prior.get("theta_min", 0.0))
                hi = float(prior.get("theta_max", QUBIT_THETA_MAX))
                if not (0.0 <= lo < hi <= QUBIT_THETA_MAX + 1e-12):
                    raise ConfigError(
                        "prior.theta_min/theta_max: qubit phase support must lie "
                        f"inside [0, {QUBIT_THETA_MAX}]"
                    )
                return uniform_prior(lo, hi, n)
            return uniform_prior(float(prior["theta_min"]), float(prior["theta_max"]), n)
        if kind == "gaussian":
            lower = prior.get("lower")
            if self.scenario == "langevin":
                lower = max(float(lower) if lower is not None else _MIN_STIFFNESS, _MIN_STIFFNESS)
            return gaussian_prior(
                float(prior["mean"]), float(prior["sigma"]), n, lower=lower
            )
        return gamma_prior(float(prior["shape"]), float(prior["scale"]), n)

    def _config_weight(self) -> WeightFunction | None:
        """The weight a "general" config names; other bounds have none."""
        if self.bound != "general":
            return None
        weight = self.cfg["weight"]
        if weight["kind"] == "gaussian":
            return gaussian_weight(self.prior.grid, float(weight["center"]), float(weight["width"]))
        return boxcar_weight(self.prior.grid) if weight["kind"] == "boxcar" else prior_weight(self.prior)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


#: Columns of a verify report row: the CSV header and the JSON row keys.
_COLUMNS = (
    "x", "theta", "pmi", "bound", "slack", "boundary_term", "integral_term", "penalty_term", "status",
)
_SUMMARY = ("n_evaluations", "n_skipped", "violations", "min_slack", "mean_slack", "tolerance")


def _cell(value) -> str:
    """A CSV cell; floats carry 17 significant digits, so they round-trip."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _row_dict(row) -> dict:
    """One report row by column; a skipped point has no numeric columns."""
    x = row.x.item() if isinstance(row.x, np.generic) else row.x
    if isinstance(row, SkippedPoint):
        return {"x": x, "theta": row.theta, "status": f"skipped:{row.reason}"}
    return {"x": x, **{c: getattr(row, c) for c in _COLUMNS[1:-1]}, "status": "ok"}


def render_verify_csv(rows, summary) -> str:
    lines = [",".join(_COLUMNS)]
    for row in rows:
        cells = _row_dict(row)
        lines.append(",".join(_cell(cells.get(c, "")) for c in _COLUMNS))
    lines += [f"# {name}={_cell(getattr(summary, name))}" for name in _SUMMARY]
    return "\n".join(lines) + "\n"


def render_verify_json(rows, summary) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify",
        "rows": [_row_dict(r) for r in rows],
        "summary": {name: getattr(summary, name) for name in _SUMMARY},
    }
    return json.dumps(doc, indent=2) + "\n"


def render_chain_csv(values: dict) -> str:
    return ",".join(values) + "\n" + ",".join(map(_cell, values.values())) + "\n"


def render_chain_json(values: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "kind": "mi_chain", **values}
    return json.dumps(doc, indent=2) + "\n"


def _emit(cfg: dict, render_csv, render_json, *report) -> None:
    """Render the report in the configured format to the configured path."""
    output = cfg.get("output", {})
    render = render_csv if output.get("format", "csv") == "csv" else render_json
    text = render(*report)
    path = output.get("path")
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _sweep_rows(reports, skipped, ctx: RunContext) -> list:
    """Every sweep point once, x-major over the configured samples.

    ``bound_sweep`` returns both lists in that order and puts each point in
    exactly one of them, so a point is skipped iff it heads the skipped list.
    """
    reports, skipped = iter(reports), iter(skipped)
    rows, skip = [], next(skipped, None)
    for x in ctx.x_samples:
        for theta in ctx.theta_samples:
            if skip is not None and (skip.x, skip.theta) == (x, float(theta)):
                rows.append(skip)
                skip = next(skipped, None)
            else:
                rows.append(next(reports))
    return rows


def _config_errors(cfg: dict) -> bool:
    """Print the config's schema errors; True iff there are any."""
    errors = validate_config(cfg)
    for e in errors:
        print(f"config error: {e}", file=sys.stderr)
    return bool(errors)


def run_verify(cfg: dict) -> int:
    """Sweep the configured bound; exit 0 iff no violations."""
    if _config_errors(cfg):
        return 2
    if cfg["bound"] == "mi_average":
        print("config error: bound: mi_average applies to the mi-chain command", file=sys.stderr)
        return 2
    try:
        ctx = RunContext(cfg)
        reports, skipped = bound_sweep(
            ctx.model, ctx.prior, ctx.sweep_kind, ctx.x_samples, ctx.theta_samples,
            weight=ctx.weight, sensitivity=ctx.sensitivity,
        )
        summary = summarize_sweep(reports, ctx.tolerance, n_skipped=len(skipped))
    except InfoBoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _emit(cfg, render_verify_csv, render_verify_json, _sweep_rows(reports, skipped, ctx), summary)
    return 0 if summary.violations == 0 else 1


def _chain_values(ctx: RunContext) -> tuple[float, float, float]:
    return mi_chain_values(ctx.model, ctx.prior, ctx.weight, ctx.sensitivity)


def run_mi_chain(cfg: dict) -> int:
    """Check MI <= averaged pointwise bound <= ensemble bound."""
    if _config_errors(cfg):
        return 2
    try:
        ctx = RunContext(cfg)
        mi, avg_bound, avg_limit = _chain_values(ctx)
    except InfoBoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    ok = chain_holds(mi, avg_bound, avg_limit, ctx.tolerance)
    values = {
        "mutual_information": mi,
        "avg_pointwise_bound": avg_bound,
        "mi_bound_average": avg_limit,
        "chain_ok": bool(ok),
        "tolerance": ctx.tolerance,
    }
    _emit(cfg, render_chain_csv, render_chain_json, values)
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    if overrides.output is not None:
        cfg.setdefault("output", {})["path"] = overrides.output
    if overrides.format is not None:
        cfg.setdefault("output", {})["format"] = overrides.format
    if overrides.tolerance is not None:
        cfg.setdefault("sweep", {})["tolerance"] = overrides.tolerance
    if overrides.grid is not None:
        cfg.setdefault("prior", {})["grid_points"] = overrides.grid
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "verify":
        return run_verify(cfg)
    return run_mi_chain(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
