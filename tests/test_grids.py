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



def _trapezoid(a, h):
    """The composite trapezoid rule written out, in the summation order
    that ``quadrature`` pins."""
    return h * (0.5 * a[0] + np.add.reduce(a[1:-1]) + 0.5 * a[-1])


@pytest.mark.parametrize("n", [3, 2001])
def test_quadrature_is_the_written_out_trapezoid_bit_for_bit(n):
    g = ib.ParameterGrid(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1e-320, 2.2250738585072014e-308])
    rows = np.array([
        rng.normal(size=n),
        rng.normal(size=n) * 1e-310,  # subnormal values throughout
        rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n),  # rounding depends on the order
        rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n),
        np.resize(special, n),
        rng.permutation(np.resize(special, n)),
        np.full(n, -0.0),
        np.r_[-2e16, 1e16, np.zeros(n - 3), 2.0],  # (-1e16 + 1e16) + 1 is 1, -1e16 + (1e16 + 1) is 0
        np.where(rng.random(n) < 0.5, -0.0, 0.0),
    ])
    matrix = ib.quadrature(rows, g)
    assert matrix.shape == (len(rows),)
    for i, row in enumerate(rows):
        expected = _trapezoid(row, g.spacing).tobytes()
        alone = ib.quadrature(row, g)
        assert type(alone) is float
        assert np.float64(alone).tobytes() == expected, i
        assert matrix[i].tobytes() == expected, i


@pytest.mark.parametrize("n", [3, 2001])
def test_quadrature_rejects_bad_rows_of_vectors_and_matrices(n):
    g = ib.ParameterGrid(0.0, 1.0, n)
    for bad_value in (np.nan, np.inf, -np.inf):
        for where in (0, n // 2, n - 1):
            row = np.ones(n)
            row[where] = bad_value
            with pytest.raises(ib.NonFiniteError):
                ib.quadrature(row, g)
            with pytest.raises(ib.NonFiniteError):
                ib.quadrature(np.array([np.ones(n), row]), g)
    for values in (np.full(n, 1.7e308), np.full((2, n), 1.7e308)):
        with pytest.raises(ib.NonFiniteError, match="overflows"):
            with pytest.warns(RuntimeWarning, match="overflow encountered"):
                ib.quadrature(values, g)
    for shape in ((n - 1,), (n + 1,), (2, n - 1), (2, n + 1), (1, 2, n), ()):
        with pytest.raises(ib.LengthMismatchError, match=f"expected {n} values per row"):
            ib.quadrature(np.ones(shape), g)
