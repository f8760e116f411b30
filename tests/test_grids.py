import math

import numpy as np
import pytest

from susyqm.grids import (
    Grid,
    GridError,
    SampledFunction,
    count_nodes,
    cumulative_integral,
    derivative,
    integrate,
    sample,
    simpson_weights,
)


def test_grid_basic_properties():
    g = Grid(0.0, 1.0, 11)
    assert g.h == pytest.approx(0.1)
    assert g.points[0] == 0.0 and g.points[-1] == 1.0
    assert g.refine().n_points == 21


def test_grid_rejects_bad_bounds():
    with pytest.raises(GridError):
        Grid(1.0, 0.0, 11)
    with pytest.raises(GridError):
        Grid(0.0, 1.0, 1)


def test_simpson_weights_sum_to_interval():
    w = simpson_weights(11, 0.1)
    assert w.sum() == pytest.approx(1.0)


def test_integrate_polynomial_exact():
    g = Grid(0.0, 2.0, 201)
    f = sample(lambda x: 3 * x**2, g)
    assert integrate(f) == pytest.approx(8.0, abs=1e-10)


def test_integrate_gaussian():
    g = Grid(-10.0, 10.0, 2001)
    f = sample(lambda x: np.exp(-(x**2)), g)
    assert integrate(f) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_cumulative_integral_endpoints():
    g = Grid(0.0, 1.0, 1001)
    f = sample(lambda x: 2 * x, g)
    cum = cumulative_integral(f)
    assert cum.values[0] == pytest.approx(0.0)
    assert cum.values[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(cum.values, g.points**2, atol=1e-8)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 2001, 4000])
def test_cumulative_integral_is_scipys_cumulative_simpson(n):
    from scipy.integrate import cumulative_simpson

    g = Grid(-2.0, 3.0, n)
    f = sample(lambda x: np.exp(-x * x) + 0.3 * np.cos(5 * x) + 0.5, g)  # positive: rtol is meaningful
    ours = cumulative_integral(f).values
    np.testing.assert_allclose(ours, cumulative_simpson(f.values, dx=g.h, initial=0.0), rtol=1e-15, atol=0)


def test_derivative_fourth_order():
    g = Grid(-1.0, 1.0, 101)
    f = sample(np.sin, g)
    err = np.max(np.abs(derivative(f).values[3:-3] - np.cos(g.points[3:-3])))
    assert err < 1e-7  # interior stencil; the one-sided edge rows are lower order


def test_count_nodes_ignores_noise():
    x = np.linspace(0, np.pi, 200)
    clean = np.sin(3 * x)  # two interior nodes
    assert count_nodes(clean[1:-1]) == 2
    noisy = clean + 1e-12 * np.sin(400 * x)
    assert count_nodes(noisy[1:-1]) == 2


def test_sampled_function_shape_mismatch():
    g = Grid(0.0, 1.0, 11)
    with pytest.raises(GridError):
        SampledFunction(g, np.zeros(10))
