"""The verify report renderers against the renderers they replaced.

The oracle below is the earlier code: each row becomes a dict by column,
JSON is ``json.dumps(doc, indent=2)`` of those dicts and CSV joins each
column's ``_cell``, which quotes a text holding a comma, quote or line break
by RFC 4180. The renderers in ``cli`` lay the text out column by
column instead, formatting each value of a repeating column once, and must
write the same bytes for every row set, including the awkward ones below.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import infobounds as ib
import infobounds.cli as cli

COLUMNS = ("x", "theta", "pmi", "bound", "slack", "boundary_term", "integral_term", "penalty_term", "status")
SUMMARY = ("n_evaluations", "n_skipped", "violations", "min_slack", "mean_slack", "tolerance")


def _row_dict(row) -> dict:
    x = row.x.item() if isinstance(row.x, np.generic) else row.x
    if isinstance(row, ib.SkippedPoint):
        return {"x": x, "theta": row.theta, "status": f"skipped:{row.reason}"}
    return {"x": x, **{c: getattr(row, c) for c in COLUMNS[1:-1]}, "status": "ok"}


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def oracle_json(rows, summary) -> str:
    doc = {
        "schema_version": 1,
        "kind": "verify",
        "rows": [_row_dict(r) for r in rows],
        "summary": {name: getattr(summary, name) for name in SUMMARY},
    }
    return json.dumps(doc, indent=2) + "\n"


def oracle_csv(rows, summary) -> str:
    lines = [",".join(COLUMNS)]
    for row in rows:
        cells = _row_dict(row)
        lines.append(",".join(_cell(cells.get(c, "")) for c in COLUMNS))
    lines += [f"# {name}={_cell(getattr(summary, name))}" for name in SUMMARY]
    return "\n".join(lines) + "\n"


SUMMARY_VALUE = ib.SweepSummary(
    n_evaluations=7, min_slack=-0.0, mean_slack=0.1 + 0.2, violations=0, tolerance=1e-6, n_skipped=2
)

LABELS = {
    "int": [0, 1, 2],
    "str": ["+", "-"],
    "float": [-4.0, 0.1 + 0.2, 1e-300],
    "np.float64": list(np.linspace(-4.0, 4.0, 3)),
    "np.int64": list(np.arange(3, dtype=np.int64)),
    "non-ascii": ["θ₀", "é"],
    "quote and backslash": ['a"b', "c\\d"],
    "comma and line breaks": ["a,b", "c\nd", "e\r\nf"],
}


def _sweep(labels, thetas, rng, skip=(), special=()):
    """x-major rows over ``labels`` x ``thetas``, as a sweep makes them: one
    object per outcome for x and the outcome terms, one per theta sample for
    theta and the penalty. ``skip`` holds the (i, j) points that are skipped;
    ``special`` values replace per-row numbers at random."""
    terms = [(rng.normal(), float(rng.normal())) for _ in labels]
    penalties = [float(v) for v in rng.normal(size=len(thetas))]
    rows = []
    for i, (x, (boundary, integral)) in enumerate(zip(labels, terms)):
        for j, (theta, penalty) in enumerate(zip(thetas, penalties)):
            if (i, j) in skip:
                rows.append(ib.SkippedPoint(x, theta, "NonFiniteError"))
                continue
            pmi, bound = (float(v) for v in rng.normal(size=2))
            if special and rng.random() < 0.3:
                pmi = special[rng.integers(len(special))]
            rows.append(ib.BoundReport(x, theta, pmi, bound, bound - pmi, boundary, integral, penalty))
    return rows


def _assert_same(rows, summary=SUMMARY_VALUE):
    assert cli.render_verify_json(rows, summary) == oracle_json(rows, summary)
    assert cli.render_verify_csv(rows, summary) == oracle_csv(rows, summary)


@pytest.mark.parametrize("kind", list(LABELS))
def test_labels_of_every_kind_render_as_before(kind):
    rng = np.random.default_rng(len(kind))
    _assert_same(_sweep(LABELS[kind], [0.5, 1.0, 1.5], rng, skip={(1, 2)}))


def test_skipped_points_among_reports_render_as_before():
    rng = np.random.default_rng(1)
    _assert_same(_sweep([0.0, 1.0, 2.0], [0.1, 0.2, 0.3, 0.4], rng, skip={(0, 0), (1, 3), (2, 1), (2, 2)}))


def test_a_report_with_every_point_skipped_renders_as_before():
    rng = np.random.default_rng(2)
    labels, thetas = ["+", 3, np.float64(0.5)], [0.0, 1.0]
    _assert_same(_sweep(labels, thetas, rng, skip={(i, j) for i in range(3) for j in range(2)}))


def test_an_empty_and_a_one_row_report_render_as_before():
    _assert_same([])
    _assert_same(_sweep([0.25], [1.0], np.random.default_rng(3)))
    _assert_same(_sweep(["+"], [1.0], np.random.default_rng(3), skip={(0, 0)}))


def test_nan_and_infinities_render_as_before():
    rng = np.random.default_rng(4)
    special = (math.nan, math.inf, -math.inf, np.float64(math.nan), -0.0)
    rows = _sweep([0.0, 1.0], [0.1, 0.2, 0.3], rng, special=special)
    rows[1] = ib.BoundReport(0.0, 0.2, 0.1, math.inf, math.inf, math.nan, -math.inf, math.nan)
    summary = ib.SweepSummary(n_evaluations=6, min_slack=math.nan, mean_slack=math.inf, violations=0,
                              tolerance=1e-6)
    _assert_same(rows, summary)


def test_values_that_compare_equal_but_print_apart_keep_their_own_text():
    # 0.0 and -0.0, 1 and 1.0 and True compare equal; each keeps its text,
    # whether the values are one object per column value or one per row.
    zeros, ones = [0.0, -0.0, 0.0, -0.0], [1, 1.0, True, np.float64(1.0)]
    rows = [ib.BoundReport(x, 0.5, 0.1, 0.2, 0.1, one, -0.0, zero) for x, (zero, one) in enumerate(zip(zeros, ones))]
    rows += [ib.BoundReport(4, theta, 0.1, 0.2, 0.1, 0.0, 0.0, zero) for theta, zero in zip([-0.0, 0.0], zeros)]
    _assert_same(rows)
    assert {line.split(",")[-2] for line in cli.render_verify_csv(rows, SUMMARY_VALUE).splitlines()[1:5]} == {
        "0", "-0"}


@pytest.mark.parametrize("seed", range(6))
def test_random_sweeps_render_as_before(seed):
    rng = np.random.default_rng(seed)
    kinds = list(LABELS)
    labels = [v for k in rng.permutation(kinds)[:3] for v in LABELS[k]]
    thetas = [float(t) for t in np.linspace(0.0, 1.0, int(rng.integers(1, 6)))]
    skip = {(int(rng.integers(len(labels))), int(rng.integers(len(thetas)))) for _ in range(int(rng.integers(3)))}
    _assert_same(_sweep(labels, thetas, rng, skip=skip, special=(math.nan, -0.0, math.inf)))


def test_a_sweep_renders_as_before():
    prior = ib.uniform_prior(0.5, 1.5, 201)
    model = ib.langevin_model(1.0, prior.grid.theta_min, 401)
    xs, thetas = list(np.linspace(-2.0, 2.0, 7)), list(np.linspace(0.5, 1.5, 5))
    reports, skipped = ib.bound_sweep(model, prior, "theorem1", xs, thetas)
    assert not skipped
    _assert_same(reports, ib.summarize_sweep(reports))


# ---------------------------------------------------------------------------
# round trip through the readers of each format
# ---------------------------------------------------------------------------

_SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308])
_FLOATS = st.floats() | _SPECIAL_FLOATS
_TEXTS = st.text(st.sampled_from(',"\n\r ;\'\\#éθ₀—aZ') | st.characters(codec="utf-8"))
_LABELS = st.one_of(
    st.integers(), _TEXTS, _FLOATS,
    st.integers(-(2**63), 2**63 - 1).map(np.int64), _FLOATS.map(np.float64),
)
_REPORTS = st.builds(ib.BoundReport, _LABELS, *[_FLOATS] * 7)
_SKIPPED = st.builds(ib.SkippedPoint, _LABELS, _FLOATS, _TEXTS)
_SUMMARIES = st.builds(ib.SweepSummary, st.integers(0, 10**6), _FLOATS, _FLOATS, st.integers(0, 10**6), _FLOATS,
                       st.integers(0, 10**6))


def _python(value):
    return value.item() if isinstance(value, np.generic) else value


def _same(read, value) -> bool:
    """``read`` is ``value`` as a Python value: same type, and the same repr,
    which tells every bit of a float but a NaN's sign and payload."""
    value = _python(value)
    return type(read) is type(value) and repr(read) == repr(value)


def _same_cell(cell: str, value) -> bool:
    """A CSV cell holds ``value``: a float's every bit, any other value's text."""
    value = _python(value)
    return _same(float(cell), value) if isinstance(value, float) else cell == str(value)


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_REPORTS | _SKIPPED, max_size=6), _SUMMARIES)
def test_reports_read_back_value_for_value(rows, summary):
    # csv.reader and json.loads give back each row's cells in its columns:
    # labels with commas, quotes and line breaks are quoted in the CSV.
    doc = json.loads(cli.render_verify_json(rows, summary))
    records = list(csv.reader(io.StringIO(cli.render_verify_csv(rows, summary), newline="")))
    assert records[0] == list(COLUMNS) and len(records) == 1 + len(rows) + len(SUMMARY)
    assert len(doc["rows"]) == len(rows)
    for row, cells, read in zip(rows, records[1:], doc["rows"]):
        skipped = isinstance(row, ib.SkippedPoint)
        names = ("x", "theta") if skipped else COLUMNS[:-1]
        status = f"skipped:{row.reason}" if skipped else "ok"
        assert len(cells) == len(COLUMNS) and list(read) == [*names, "status"]
        assert cells[-1] == read["status"] == status
        for i, name in enumerate(names):
            assert _same_cell(cells[i], getattr(row, name)) and _same(read[name], getattr(row, name))
        if skipped:
            assert cells[2:-1] == [""] * (len(COLUMNS) - 3)
    for name, line in zip(SUMMARY, records[1 + len(rows):]):
        assert line[0].startswith(f"# {name}=") and len(line) == 1
        value = getattr(summary, name)
        assert _same(doc["summary"][name], value)
        assert _same_cell(line[0][len(f"# {name}="):], value)

