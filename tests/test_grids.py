import numpy as np
import pytest

from groupsample import EuclideanModel, AffineModel, HeisenbergModel, Grid, GridFunction


def test_regular_grid_basic():
    model = EuclideanModel(2)
    g = Grid.regular(model, [0.0, -1.0], [2.0, 1.0], (8, 16))
    assert g.dim == 2
    assert g.size == 128
    assert np.allclose(g.spacings, [0.25, 0.125])
    # half-open box: weights sum to the box volume
    assert np.sum(g.weights()) == pytest.approx(4.0)


def test_axis_nodes_half_open():
    g = Grid.regular(EuclideanModel(1), [0.0], [1.0], (4,))
    assert np.allclose(g.axis(0), [0.0, 0.25, 0.5, 0.75])


def test_content_hash_sensitivity():
    model = EuclideanModel(1)
    a = Grid.regular(model, [0.0], [1.0], (8,))
    b = Grid.regular(model, [0.0], [1.0], (8,))
    c = Grid.regular(model, [0.0], [1.0], (16,))
    d = Grid.regular(model, [0.0], [2.0], (8,))
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()
    assert a.content_hash() != d.content_hash()


def test_gridfunction_norms():
    g = Grid.regular(EuclideanModel(1), [0.0], [1.0], (1000,))
    f = GridFunction.from_callable(g, lambda x: np.sin(2 * np.pi * x))
    assert f.norm_l2() == pytest.approx(np.sqrt(0.5), rel=1e-6)
    assert f.norm_l1() == pytest.approx(2.0 / np.pi, rel=1e-4)
    assert f.norm_sup() == pytest.approx(1.0, rel=1e-4)


def test_interpolation_exact_on_nodes_and_linears():
    g = Grid.regular(EuclideanModel(2), [0.0, 0.0], [1.0, 1.0], (16, 16))
    f = GridFunction.from_callable(g, lambda x, y: 2 * x - 3 * y + 1)
    pts = np.random.default_rng(2).uniform(0.05, 0.85, size=(40, 2))
    vals = f.at(pts)
    assert np.allclose(vals, 2 * pts[:, 0] - 3 * pts[:, 1] + 1, atol=1e-12)


def test_inner_product_conjugate_symmetry():
    g = Grid.regular(EuclideanModel(1), [-1.0], [1.0], (64,))
    f = GridFunction.from_callable(g, lambda x: x + 1j * x**2)
    h = GridFunction.from_callable(g, lambda x: np.cos(x))
    assert f.inner(h) == pytest.approx(np.conj(h.inner(f)))


def test_dilated_grid_heisenberg():
    g = Grid.regular(HeisenbergModel(), [-1.0] * 3, [1.0] * 3, (5, 5, 5))
    d = g.dilated(2.0)
    # anisotropic: horizontal box doubles, central quadruples
    assert np.allclose(d.lo, [-2.0, -2.0, -4.0])
    assert np.allclose(d.hi, [2.0, 2.0, 4.0])


def test_shape_mismatch_rejected():
    g = Grid.regular(EuclideanModel(1), [0.0], [1.0], (8,))
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros(7))


def test_nonfinite_rejected():
    g = Grid.regular(EuclideanModel(1), [0.0], [1.0], (8,))
    vals = np.zeros(8)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(g, vals)
