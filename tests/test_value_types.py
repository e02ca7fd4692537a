"""The contract of the package's value types: construction, equality, hash,
immutability and repr.

The validated types (the grid, the two outcome spaces, the prior, the
weight, the POVM and the demon record) check their fields when built and are
read-only afterwards. The grid, the outcome spaces and the demon record
compare and hash by their fields (memo keys hash the first three); the
prior, the weight and the POVM compare by identity.
The records a bound evaluation returns (report, skipped point, summary and
demon check) are named tuples. Every repr is the one these types printed
when they were frozen dataclasses.
"""

import numpy as np
import pytest

import infobounds as ib

_GRID3 = ib.ParameterGrid(0.0, 1.0, 3)
_ONES, _ZEROS = np.ones(3), np.zeros(3)
_ELEMENTS = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]

#: name -> (type, positional arguments, number of them required)
_TYPES = {
    "ParameterGrid": (ib.ParameterGrid, (0, 1, 5), 3),
    "DiscreteOutcomes": (ib.DiscreteOutcomes, (("a", 1, 0.5),), 1),
    "ContinuousOutcomes": (ib.ContinuousOutcomes, (-1.0, 1.0, 3), 3),
    "Prior": (ib.Prior, (_GRID3, _ONES, _ZEROS, 1e-12), 3),
    "WeightFunction": (ib.WeightFunction, (_GRID3, _ONES, _ZEROS, True), 3),
    "Povm": (ib.Povm, (_ELEMENTS,), 1),
    "DemonRecord": (ib.DemonRecord, (1.0, 0.5, 0.25, "+", 0.3), 5),
    "BoundReport": (ib.BoundReport, (0.5, 0.25, 0.1, 0.2, 0.1, 0.0, 0.2, 0.0), 8),
    "SkippedPoint": (ib.SkippedPoint, ("x", 0.5, "ZeroLikelihoodError"), 3),
    "SweepSummary": (ib.SweepSummary, (3, 0.1, 0.2, 0, 1e-9, 0), 5),
    "DemonCheck": (ib.DemonCheck, (0.1, 0.2, 0.3, True, False), 5),
}

#: The repr of each type built from ``_TYPES``' arguments.
_REPRS = {
    "ParameterGrid": "ParameterGrid(theta_min=0, theta_max=1, n_points=5)",
    "DiscreteOutcomes": "DiscreteOutcomes(outcomes=('a', 1, 0.5))",
    "ContinuousOutcomes": "ContinuousOutcomes(x_min=-1.0, x_max=1.0, n_x=3)",
    "Prior": "Prior(grid=ParameterGrid(theta_min=0.0, theta_max=1.0, n_points=3), density=array([1., 1., 1.]), "
    "derivative=array([0., 0., 0.]), tail_mass_bound=1e-12)",
    "WeightFunction": "WeightFunction(grid=ParameterGrid(theta_min=0.0, theta_max=1.0, n_points=3), "
    "values=array([1., 1., 1.]), derivative=array([0., 0., 0.]), boxcar=True)",
    "Povm": "Povm(elements=(array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 0.+0.j]]), array([[0.+0.j, 0.+0.j],\n"
    "       [0.+0.j, 1.+0.j]])))",
    "DemonRecord": "DemonRecord(beta=1.0, work_extracted=0.5, delta_free_energy=0.25, outcome='+', theta=0.3)",
    "BoundReport": "BoundReport(x=0.5, theta=0.25, pmi=0.1, bound=0.2, slack=0.1, boundary_term=0.0, "
    "integral_term=0.2, penalty_term=0.0)",
    "SkippedPoint": "SkippedPoint(x='x', theta=0.5, reason='ZeroLikelihoodError')",
    "SweepSummary": "SweepSummary(n_evaluations=3, min_slack=0.1, mean_slack=0.2, violations=0, "
    "tolerance=1e-09, n_skipped=0)",
    "DemonCheck": "DemonCheck(lhs=0.1, pmi=0.2, bound=0.3, sagawa_ueda_ok=True, chained_ok=False)",
}

_BY_FIELDS = ("ParameterGrid", "DiscreteOutcomes", "ContinuousOutcomes", "DemonRecord")
_BY_IDENTITY = ("Prior", "WeightFunction", "Povm")
_RECORDS = ("BoundReport", "SkippedPoint", "SweepSummary", "DemonCheck")


def _built(name):
    cls, args, _ = _TYPES[name]
    return cls(*args)


def test_every_type_is_listed():
    assert set(_TYPES) == set(_REPRS) == set(_BY_FIELDS + _BY_IDENTITY + _RECORDS)


@pytest.mark.parametrize("name", sorted(_TYPES))
def test_repr_is_the_recorded_one(name):
    assert repr(_built(name)) == _REPRS[name]


@pytest.mark.parametrize("name", sorted(_TYPES))
def test_keyword_construction_gives_the_positional_value(name):
    cls, args, _ = _TYPES[name]
    assert repr(cls(**dict(zip(cls._fields, args)))) == _REPRS[name]


@pytest.mark.parametrize("name", sorted(_TYPES))
def test_a_wrong_call_raises_type_error(name):
    cls, args, required = _TYPES[name]
    with pytest.raises(TypeError):  # missing
        cls(*args[: required - 1])
    with pytest.raises(TypeError):  # extra
        cls(*args, 0.0)
    with pytest.raises(TypeError):  # repeated
        cls(*args[:required], **{cls._fields[0]: args[0]})
    with pytest.raises(TypeError):  # unknown keyword
        cls(*args[:required], no_such_field=0.0)


@pytest.mark.parametrize("name", sorted(_TYPES))
def test_fields_are_read_only(name):
    value = _built(name)
    for field in value._fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.no_such_field = 0.0


@pytest.mark.parametrize("name", _BY_FIELDS)
def test_value_types_compare_and_hash_by_fields(name):
    a, b = _built(name), _built(name)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    cls, args, _ = _TYPES[name]
    other = cls(*args[:-1], args[-1] + 2) if name != "DiscreteOutcomes" else cls(("a", 1))
    assert a != other
    assert a != args and a != tuple(args)  # not equal to a tuple of its fields


def test_a_grid_equals_an_equal_grid_of_other_number_types():
    assert ib.ParameterGrid(0, 1, 5) == ib.ParameterGrid(0.0, 1.0, 5)
    assert hash(ib.ParameterGrid(0, 1, 5)) == hash(ib.ParameterGrid(0.0, 1.0, 5))
    assert ib.ParameterGrid(0, 1, 5) != ib.ContinuousOutcomes(0, 1, 5)


@pytest.mark.parametrize("name", _BY_IDENTITY)
def test_validated_types_compare_by_identity(name):
    a, b = _built(name), _built(name)
    assert a == a and a != b and hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


def test_equal_grids_share_one_boxcar_weight():
    assert ib.boxcar_weight(ib.ParameterGrid(0, 1, 5)) is ib.boxcar_weight(ib.ParameterGrid(0, 1, 5))


def test_cached_properties_are_computed_once():
    grid = ib.ParameterGrid(0.0, 1.0, 5)
    assert grid.nodes is grid.nodes and not grid.nodes.flags.writeable
    assert grid.nodes.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    space = ib.ContinuousOutcomes(-1.0, 1.0, 3)
    assert space.grid is space.grid and space.grid == ib.ParameterGrid(-1.0, 1.0, 3)


@pytest.mark.parametrize("name", _RECORDS)
def test_a_record_is_a_tuple_of_its_fields(name):
    cls, args, _ = _TYPES[name]
    record = _built(name)
    assert record == tuple(args) and len(record) == len(cls._fields) == len(args)
    assert [*record] == list(args)
    assert record._replace(**{cls._fields[0]: "y"}) == ("y", *args[1:])


def test_a_summary_counts_no_skipped_point_by_default():
    assert ib.SweepSummary(3, 0.1, 0.2, 0, 1e-9).n_skipped == 0
