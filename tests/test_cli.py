import json
import math

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


#: One malformed config per row: a valid config and the edits merged into it.
_MALFORMED = {
    "sweep-theta-min-not-a-number": (_langevin_cfg, {"sweep": {"theta_min": "abc"}}),
    "sweep-x-min-not-a-number": (_langevin_cfg, {"sweep": {"x_min": "q"}}),
    "langevin-uniform-prior-nonpositive": (_langevin_cfg, {"prior": {"theta_min": 0.0}}),
    "uniform-prior-inverted": (_langevin_cfg, {"prior": {"theta_min": 2.0, "theta_max": 1.0}}),
    "gaussian-prior-clipped-empty": (
        _langevin_cfg,
        {"bound": "theorem2", "prior": {"kind": "gaussian", "mean": -5.0, "sigma": 0.1}},
    ),
    "gaussian-prior-lower-not-a-number": (
        _langevin_cfg,
        {"bound": "theorem2", "prior": {"kind": "gaussian", "mean": 1, "sigma": 1, "lower": "x"}},
    ),
    "qubit-prior-theta-min-not-a-number": (_qubit_cfg, {"prior": {"theta_min": "abc"}}),
    "output-path-not-a-string": (_langevin_cfg, {"output": {"path": 5}}),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
@pytest.mark.parametrize("command", ["verify", "mi-chain"])
def test_malformed_config_exits_two(tmp_path, capsys, name, command):
    base, edits = _MALFORMED[name]
    cfg = base(str(tmp_path / "r.csv"))
    for key, edit in edits.items():
        cfg[key] = {**cfg[key], **edit} if isinstance(edit, dict) else edit
    assert cli.main([command, "--config", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "r.csv").exists()


def test_verify_missing_config_file(tmp_path, capsys):
    assert cli.main(["verify", "--config", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err


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
    monkeypatch.setattr(cli, "_chain_values", lambda ctx: (0.5, 0.4, 0.6))
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


# ---------------------------------------------------------------------------
# validation details
# ---------------------------------------------------------------------------


def test_validate_config_theorem3_needs_qubit():
    cfg = _custom_cfg("r.csv", [0.0, 0.0, 0.0])
    cfg["bound"] = "theorem3"
    errors = cli.validate_config(cfg)
    assert any("theorem3 requires scenario 'qubit_phase'" in e for e in errors)


def test_validate_config_discrete_rejects_x_fields():
    cfg = _qubit_cfg("r.csv")
    cfg["sweep"]["x_min"] = -1.0
    errors = cli.validate_config(cfg)
    assert any("sweep.x_min" in e for e in errors)


def test_validate_config_general_needs_weight():
    cfg = _langevin_cfg("r.csv", bound="general")
    errors = cli.validate_config(cfg)
    assert any("weight" in e for e in errors)
    cfg["weight"] = {"kind": "gaussian", "center": 1.0, "width": 0.08}
    assert cli.validate_config(cfg) == []
