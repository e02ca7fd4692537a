import gc
import json
import math

import numpy as np
import pytest

import infobounds.cli as cli


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _qubit_cfg(out_path, fmt="csv"):
    return {
        "schema_version": 1,
        "scenario": "qubit_phase",
        "scenario_params": {"povm": "sigma_x"},
        "prior": {"kind": "uniform", "grid_points": 2001},
        "bound": "theorem3",
        "sweep": {"theta_count": 41, "tolerance": 1e-6},
        "output": {"format": fmt, "path": out_path},
    }


def _langevin_cfg(out_path, bound="theorem1", prior=None, fmt="csv"):
    return {
        "schema_version": 1,
        "scenario": "langevin",
        "scenario_params": {"diffusion": 1.0},
        "prior": prior
        or {"kind": "uniform", "theta_min": 0.5, "theta_max": 1.5, "grid_points": 2001},
        "bound": bound,
        "sweep": {"x_min": -4, "x_max": 4, "x_count": 10, "theta_count": 10, "tolerance": 1e-6},
        "output": {"format": fmt, "path": out_path},
    }


def _custom_cfg(out_path, coefficients, fmt="csv"):
    return {
        "schema_version": 1,
        "scenario": "custom_discrete",
        "scenario_params": {"log_weights": [0.0, 0.4, -0.3], "coefficients": coefficients},
        "prior": {"kind": "uniform", "theta_min": 0.0, "theta_max": 1.0, "grid_points": 1001},
        "bound": "theorem1",
        "sweep": {"theta_count": 9, "tolerance": 1e-6},
        "output": {"format": fmt, "path": out_path},
    }


def _custom3(out_path):
    return _custom_cfg(out_path, [-1.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_qubit_theorem3_exits_zero(tmp_path):
    out = tmp_path / "report.csv"
    cfg = _write(tmp_path, _qubit_cfg(str(out)))
    assert cli.main(["verify", "--config", cfg]) == 0
    text = out.read_text()
    assert "# violations=0" in text
    assert "skipped:ZeroLikelihoodError" in text  # the p=0 point of the "-" outcome


def test_verify_langevin_theorem1_exits_zero(tmp_path):
    out = tmp_path / "report.csv"
    cfg = _write(tmp_path, _langevin_cfg(str(out)))
    assert cli.main(["verify", "--config", cfg]) == 0
    assert "# violations=0" in out.read_text()


def test_verify_theorem1_infinite_prior_exits_two(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        _langevin_cfg(str(tmp_path / "r.csv"), prior={"kind": "gaussian", "mean": 1.0, "sigma": 0.2}),
    )
    assert cli.main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "finite-support" in err and "prior.kind" in err


@pytest.mark.parametrize("command", ["verify", "mi-chain"])
def test_gaussian_prior_cut_that_breaks_normalisation_exits_two(tmp_path, capsys, command):
    prior = {"kind": "gaussian", "mean": 1.0, "sigma": 0.2, "lower": 0.5}
    cfg = _write(tmp_path, _langevin_cfg(str(tmp_path / "r.csv"), bound="theorem2", prior=prior))
    assert cli.main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: gaussian prior cut lower=0.5 discards 0.00620967 ")
    assert "NORMALIZATION_TOL=1e-06" in err


def test_verify_gamma_prior_theorem2_exits_zero(tmp_path):
    out = tmp_path / "report.csv"
    prior = {"kind": "gamma", "shape": 3.0, "scale": 0.5, "grid_points": 2001}
    cfg = _write(tmp_path, _langevin_cfg(str(out), bound="theorem2", prior=prior))
    assert cli.main(["verify", "--config", cfg]) == 0
    text = out.read_text()
    assert "# violations=0" in text and "# n_evaluations=100" in text


def test_verify_general_with_a_boxcar_weight_is_theorem1(tmp_path):
    general, theorem1 = tmp_path / "general.csv", tmp_path / "theorem1.csv"
    cfg = {**_langevin_cfg(str(general), bound="general"), "weight": {"kind": "boxcar"}}
    assert cli.main(["verify", "--config", _write(tmp_path, cfg)]) == 0
    assert cli.main(["verify", "--config", _write(tmp_path, _langevin_cfg(str(theorem1)))]) == 0
    assert general.read_bytes() == theorem1.read_bytes()


def test_verify_rejects_mi_average(tmp_path, capsys):
    cfg_dict = _langevin_cfg(str(tmp_path / "r.csv"), bound="mi_average")
    cfg = _write(tmp_path, cfg_dict)
    assert cli.main(["verify", "--config", cfg]) == 2
    assert "mi-chain" in capsys.readouterr().err


def test_verify_unknown_fields_and_paths(tmp_path, capsys):
    cfg = _write(tmp_path, {"schema_version": 2, "scenario": "nope", "bound": "x"})
    assert cli.main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    for path in ("schema_version", "scenario", "bound", "prior"):
        assert path in err


#: One malformed config per row: a valid config, the edits merged into it,
#: and the field path its error names (None: the library's error names none).
_MALFORMED = {
    "sweep-theta-min-not-a-number": (_langevin_cfg, {"sweep": {"theta_min": "abc"}}, "sweep.theta_min"),
    "sweep-x-min-not-a-number": (_langevin_cfg, {"sweep": {"x_min": "q"}}, "sweep.x_min"),
    "langevin-uniform-prior-nonpositive": (_langevin_cfg, {"prior": {"theta_min": 0.0}}, None),
    "uniform-prior-inverted": (_langevin_cfg, {"prior": {"theta_min": 2.0, "theta_max": 1.0}}, None),
    "gaussian-prior-clipped-empty": (
        _langevin_cfg,
        {"bound": "theorem2", "prior": {"kind": "gaussian", "mean": -5.0, "sigma": 0.1}},
        None,
    ),
    "gaussian-prior-lower-not-a-number": (
        _langevin_cfg,
        {"bound": "theorem2", "prior": {"kind": "gaussian", "mean": 1, "sigma": 1, "lower": "x"}},
        "prior.lower",
    ),
    "qubit-prior-theta-min-not-a-number": (_qubit_cfg, {"prior": {"theta_min": "abc"}}, "prior.theta_min"),
    "output-path-not-a-string": (_langevin_cfg, {"output": {"path": 5}}, "output.path"),
    "scenario-not-a-string": (_langevin_cfg, {"scenario": ["langevin"]}, "scenario"),
    "povm-not-a-string": (_qubit_cfg, {"scenario_params": {"povm": ["sigma_x"]}}, "scenario_params.povm"),
    "sweep-theta-count-boolean": (_langevin_cfg, {"sweep": {"theta_count": True}}, "sweep.theta_count"),
    "sweep-x-count-boolean": (_langevin_cfg, {"sweep": {"x_count": True}}, "sweep.x_count"),
    "prior-grid-points-boolean": (_langevin_cfg, {"prior": {"grid_points": True}}, "prior.grid_points"),
    "sweep-tolerance-nan": (_langevin_cfg, {"sweep": {"tolerance": math.nan}}, "sweep.tolerance"),
    "prior-theta-max-infinity": (_langevin_cfg, {"prior": {"theta_max": math.inf}}, "prior.theta_max"),
    "log-weights-not-a-list": (_custom3, {"scenario_params": {"log_weights": 0.5}}, "scenario_params.log_weights"),
    "coefficients-of-another-length": (
        _custom3, {"scenario_params": {"coefficients": [0.0, 1.0]}}, "scenario_params.coefficients"
    ),
    "sweep-theta-outside-the-prior-grid": (_langevin_cfg, {"sweep": {"theta_min": 0.1}}, "sweep.theta_min/theta_max"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
@pytest.mark.parametrize("command", ["verify", "mi-chain"])
def test_malformed_config_exits_two(tmp_path, capsys, name, command):
    base, edits, path = _MALFORMED[name]
    cfg = base(str(tmp_path / "r.csv"))
    for key, edit in edits.items():
        cfg[key] = {**cfg[key], **edit} if isinstance(edit, dict) else edit
    assert cli.main([command, "--config", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if path is not None:
        assert f"config error: {path}: " in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", ["verify", "mi-chain"])
def test_output_path_in_a_missing_directory_exits_two(tmp_path, capsys, command):
    out = tmp_path / "absent" / "r.csv"
    cfg = _write(tmp_path, _langevin_cfg(str(out)))
    assert cli.main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: output.path: ")
    assert not out.parent.exists()


def test_override_into_a_section_that_is_not_an_object_exits_two(tmp_path, capsys):
    cfg = _langevin_cfg(str(tmp_path / "r.csv"))
    cfg["sweep"] = 3
    assert cli.main(["verify", "--config", _write(tmp_path, cfg), "--tolerance", "1e-3"]) == 2
    assert capsys.readouterr().err == "config error: sweep: must be an object\n"


@pytest.mark.parametrize("command", ["verify", "mi-chain"])
def test_config_that_is_not_an_object_exits_two(tmp_path, capsys, command):
    assert cli.main([command, "--config", _write(tmp_path, [1, 2])]) == 2
    assert capsys.readouterr().err == "config error: config: expected a JSON object\n"


def test_verify_missing_config_file(tmp_path, capsys):
    assert cli.main(["verify", "--config", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_nan_tolerance_flag_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, _langevin_cfg(str(tmp_path / "r.csv")))
    assert cli.main(["verify", "--config", cfg, "--tolerance", "nan"]) == 2
    assert capsys.readouterr().err.startswith("config error: sweep.tolerance: ")
    assert not (tmp_path / "r.csv").exists()


def test_config_that_is_a_directory_exits_two(tmp_path, capsys):
    assert cli.main(["verify", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config ")


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"scenario": ' + b"1" * 5000 + b"}"])
def test_config_that_cannot_be_decoded_exits_two(tmp_path, capsys, content):
    # a file that is not UTF-8, and an integer beyond Python's digit limit
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON: ")


def test_verify_csv_report_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = _write(tmp_path, _qubit_cfg(str(out1)))
    assert cli.main(["verify", "--config", cfg]) == 0
    assert cli.main(["verify", "--config", cfg, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_csv_row_schema(tmp_path):
    out = tmp_path / "report.csv"
    cfg = _write(tmp_path, _qubit_cfg(str(out)))
    cli.main(["verify", "--config", cfg])
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "x", "theta", "pmi", "bound", "slack",
        "boundary_term", "integral_term", "penalty_term", "status",
    ]
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 82  # 41 thetas x 2 outcomes
    for line in data:
        cells = line.split(",")
        assert len(cells) == 9
        if cells[-1] == "ok":
            values = [float(c) for c in cells[1:8]]
            assert all(abs(v) < 1e6 for v in values)
            # round-trip safety of the 17-significant-digit format
            assert f"{values[1]:.17g}" == cells[2]
        else:
            assert cells[-1].startswith("skipped:")


def test_verify_json_format(tmp_path):
    out = tmp_path / "report.json"
    cfg = _write(tmp_path, _qubit_cfg(str(out), fmt="json"))
    assert cli.main(["verify", "--config", cfg]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "verify"
    assert doc["summary"]["violations"] == 0
    assert len(doc["rows"]) == 82
    statuses = {r["status"] for r in doc["rows"]}
    assert "ok" in statuses and "skipped:ZeroLikelihoodError" in statuses


def test_verify_grid_override(tmp_path):
    out = tmp_path / "report.csv"
    cfg = _write(tmp_path, _langevin_cfg(str(out)))
    assert cli.main(["verify", "--config", cfg, "--grid", "501"]) == 0


def test_verify_general_bound_with_gaussian_weight(tmp_path):
    out = tmp_path / "report.csv"
    cfg_dict = _langevin_cfg(str(out), bound="general")
    cfg_dict["weight"] = {"kind": "gaussian", "center": 1.0, "width": 0.08}
    cfg = _write(tmp_path, cfg_dict)
    assert cli.main(["verify", "--config", cfg]) == 0
    text = out.read_text()
    assert "# violations=0" in text
    # nonzero penalty column distinguishes the weighted bound from boxcar
    first = text.splitlines()[1].split(",")
    assert float(first[7]) != 0.0


@pytest.mark.parametrize("descending", [False, True])
def test_verify_rows_are_x_major_and_csv_matches_json(tmp_path, descending):
    reports = {}
    for fmt in ("csv", "json"):
        cfg = _qubit_cfg(str(tmp_path / f"report.{fmt}"), fmt=fmt)
        if descending:
            cfg["sweep"].update(theta_min=math.pi / 2, theta_max=0.0)
        assert cli.main(["verify", "--config", _write(tmp_path, cfg)]) == 0
        reports[fmt] = (tmp_path / f"report.{fmt}").read_text()
    lines = reports["csv"].splitlines()
    header, data = lines[0].split(","), [l for l in lines[1:] if not l.startswith("#")]
    rows = json.loads(reports["json"])["rows"]
    # all "+" rows, then all "-" rows, each in sweep order; the one skipped
    # point is "-" at theta = 0, the first or the last theta of the sweep
    assert [r["x"] for r in rows] == ["+"] * 41 + ["-"] * 41
    skipped = [i + 1 for i, r in enumerate(rows) if r["status"] != "ok"]
    assert skipped == [82 if descending else 42]
    assert data[skipped[0] - 1].endswith(",skipped:ZeroLikelihoodError")
    assert header == list(rows[0])
    for line, row in zip(data, rows, strict=True):
        for name, cell in zip(header, line.split(","), strict=True):
            value = row.get(name)
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell) == value
            else:
                assert cell == str(value)


def test_verify_lists_every_point_of_a_repeated_sample(tmp_path):
    out = tmp_path / "report.csv"
    cfg = _langevin_cfg(str(out))
    cfg["sweep"].update(x_min=1.0, x_max=1.0, x_count=3, theta_count=2)
    assert cli.main(["verify", "--config", _write(tmp_path, cfg)]) == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert "# n_evaluations=6" in lines and len(data) == 6
    assert data[:2] == data[2:4] == data[4:]


@pytest.mark.parametrize("command", ["verify", "mi-chain"])
def test_qubit_prior_outside_the_phase_window_exits_two(tmp_path, capsys, command):
    cfg = _qubit_cfg(str(tmp_path / "r.csv"))
    cfg["prior"]["theta_max"] = 2.0
    assert cli.main([command, "--config", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: prior.theta_min/theta_max:")
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------------------
# mi-chain
# ---------------------------------------------------------------------------


def test_mi_chain_qubit_ordered_values(tmp_path):
    out = tmp_path / "chain.json"
    cfg = _write(tmp_path, _qubit_cfg(str(out), fmt="json"))
    assert cli.main(["mi-chain", "--config", cfg]) == 0
    doc = json.loads(out.read_text())
    assert doc["chain_ok"] is True
    assert (
        doc["mutual_information"]
        <= doc["avg_pointwise_bound"] + 1e-6
        <= doc["mi_bound_average"] + 2e-6
    )


def test_mi_chain_theta_independent_model(tmp_path):
    out = tmp_path / "chain.csv"
    cfg = _write(tmp_path, _custom_cfg(str(out), [0.3, 0.3, 0.3]))
    assert cli.main(["mi-chain", "--config", cfg]) == 0
    body = out.read_text().splitlines()
    mi = float(body[1].split(",")[0])
    assert abs(mi) <= 1e-8


def test_mi_chain_misordered_values_exit_one(tmp_path, monkeypatch):
    out = tmp_path / "chain.csv"
    cfg = _write(tmp_path, _qubit_cfg(str(out)))
    monkeypatch.setattr(cli.bounds, "mi_chain_values", lambda *args: (0.5, 0.4, 0.6))
    assert cli.main(["mi-chain", "--config", cfg]) == 1


def test_mi_chain_json_deterministic(tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    cfg = _write(tmp_path, _custom_cfg(str(out1), [-1.0, 0.0, 1.0], fmt="json"))
    assert cli.main(["mi-chain", "--config", cfg]) == 0
    assert cli.main(["mi-chain", "--config", cfg, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# scenario list
# ---------------------------------------------------------------------------


def test_scenario_list(capsys):
    assert cli.main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("langevin", "qubit_phase", "custom_discrete"):
        assert name in out


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_finds_it(tmp_path, capsys, enabled):
    # Only the process entry, cli.run, turns the collector off and freezes the heap.
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        assert cli.main(["scenario", "list"]) == 0
        assert cli.main(["verify", "--config", _write(tmp_path, _custom3(None))]) == 0
        assert cli.main(["mi-chain", "--config", _write(tmp_path, [1, 2])]) == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# validation details
# ---------------------------------------------------------------------------


def test_validate_config_theorem3_needs_qubit():
    cfg = _custom_cfg("r.csv", [0.0, 0.0, 0.0])
    cfg["bound"] = "theorem3"
    errors = cli._read_config(cfg)[1]
    assert any("theorem3 requires scenario 'qubit_phase'" in e for e in errors)


def test_validate_config_discrete_rejects_x_fields():
    cfg = _qubit_cfg("r.csv")
    cfg["sweep"]["x_min"] = -1.0
    errors = cli._read_config(cfg)[1]
    assert any("sweep.x_min" in e for e in errors)


def test_validate_config_general_needs_weight():
    cfg = _langevin_cfg("r.csv", bound="general")
    errors = cli._read_config(cfg)[1]
    assert any("weight" in e for e in errors)
    cfg["weight"] = {"kind": "gaussian", "center": 1.0, "width": 0.08}
    assert cli._read_config(cfg)[1] == []


@pytest.mark.parametrize("kind", ["beta", ["uniform"]], ids=["beta", "list"])
def test_validate_config_unknown_prior_kind_is_one_error(kind):
    cfg = _langevin_cfg("r.csv", prior={"kind": kind})
    errors = [e for e in cli._read_config(cfg)[1] if e.startswith("prior.kind:")]
    assert len(errors) == 1 and "expected one of" in errors[0], errors


def _same_context(a, b):
    assert (a.x_samples, a.theta_samples, a.tolerance) == (b.x_samples, b.theta_samples, b.tolerance)
    assert (a.sweep_kind, a.settings["output.format"]) == (b.sweep_kind, b.settings["output.format"])
    assert np.array_equal(a.prior.grid.nodes, b.prior.grid.nodes)
    assert np.array_equal(a.prior.density, b.prior.density)
    assert a.weight.kind == b.weight.kind
    theta = a.theta_samples[len(a.theta_samples) // 2]
    for x in a.x_samples:
        assert a.model.log_pdf(x, theta) == b.model.log_pdf(x, theta)
        if a.sensitivity is not None:
            assert a.sensitivity(x, theta) == b.sensitivity(x, theta)
    assert (a.sensitivity is None) == (b.sensitivity is None)


def test_config_defaults_match_the_spelled_out_config():
    required = {"schema_version": 1, "bound": "theorem1"}
    lang_prior = {"kind": "uniform", "theta_min": 0.5, "theta_max": 1.5}
    langevin = {**required, "scenario": "langevin", "prior": lang_prior}
    spelled = {
        **langevin,
        "scenario_params": {"diffusion": 1.0},
        "prior": {**lang_prior, "grid_points": 2001},
        "sweep": {"x_min": -4.0, "x_max": 4.0, "x_count": 50, "theta_count": 50, "tolerance": 1e-6},
        "output": {"format": "csv"},
    }
    qubit = {**required, "scenario": "qubit_phase", "bound": "theorem3", "prior": {"kind": "uniform"}}
    qubit_spelled = {
        **qubit,
        "scenario_params": {"povm": "sigma_x"},
        "prior": {"kind": "uniform", "theta_min": 0.0, "theta_max": math.pi / 2, "grid_points": 2001},
        "sweep": {"theta_count": 41, "tolerance": 1e-6},
    }
    custom = _custom_cfg(None, [-1.0, 0.0, 1.0])
    del custom["prior"]["grid_points"], custom["sweep"], custom["output"]
    custom_spelled = {**custom, "prior": {**custom["prior"], "grid_points": 2001}, "sweep": {"theta_count": 50}}
    for short, full in ((langevin, spelled), (qubit, qubit_spelled), (custom, custom_spelled)):
        _same_context(cli.RunContext(short), cli.RunContext(full))
    ctx = cli.RunContext(langevin)
    assert ctx.x_samples == list(np.linspace(-4.0, 4.0, 50)) and len(ctx.theta_samples) == 50
    assert ctx.tolerance == 1e-6 and ctx.prior.grid.n_points == 2001
    assert len(cli.RunContext(qubit).theta_samples) == 41
