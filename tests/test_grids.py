import numpy as np
import pytest

import infobounds as ib


def test_grid_nodes_uniform_and_increasing():
    g = ib.ParameterGrid(0.5, 1.5, 2001)
    assert g.nodes[0] == 0.5 and g.nodes[-1] == 1.5
    steps = np.diff(g.nodes)
    assert np.all(steps > 0)
    assert np.max(np.abs(steps - g.spacing)) <= 1e-12 * g.spacing


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ib.ParameterGrid(1.0, 1.0, 11)
    with pytest.raises(ValueError):
        ib.ParameterGrid(0.0, 1.0, 2)
    with pytest.raises(ib.NonFiniteError):
        ib.ParameterGrid(0.0, np.inf, 11)


def test_quadrature_constant_is_exact():
    g = ib.ParameterGrid(0.0, 1.0, 101)
    assert ib.quadrature(np.ones(101), g) == 1.0


def test_quadrature_linear_is_exact():
    g = ib.ParameterGrid(0.0, 1.0, 101)
    assert ib.quadrature(g.nodes, g) == pytest.approx(0.5, abs=1e-12)


def test_quadrature_sine():
    g = ib.ParameterGrid(0.0, np.pi, 1001)
    # analytic antiderivative: integral of sin over [0, pi] is 2
    assert ib.quadrature(np.sin(g.nodes), g) == pytest.approx(2.0, abs=1e-5)


def test_quadrature_errors():
    g = ib.ParameterGrid(0.0, 1.0, 11)
    with pytest.raises(ib.LengthMismatchError):
        ib.quadrature(np.ones(10), g)
    bad = np.ones(11)
    bad[3] = np.nan
    with pytest.raises(ib.NonFiniteError):
        ib.quadrature(bad, g)
    bad[3] = np.inf
    with pytest.raises(ib.NonFiniteError):
        ib.quadrature(bad, g)
    # finite values whose sum overflows, alone and as rows of a matrix
    big = ib.ParameterGrid(0.0, 1.0, 2001)
    for values in (np.full(2001, 1e308), np.full((2, 2001), 1e308)):
        with pytest.raises(ib.NonFiniteError, match="overflows"):
            with pytest.warns(RuntimeWarning, match="overflow encountered"):
                ib.quadrature(values, big)


def test_quadrature_deterministic():
    g = ib.ParameterGrid(0.0, 2.0, 501)
    vals = np.cos(g.nodes) ** 2
    assert ib.quadrature(vals, g) == ib.quadrature(vals.copy(), g)

