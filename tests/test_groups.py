import numpy as np
import pytest

from groupsample import (
    EuclideanModel,
    AffineModel,
    HeisenbergModel,
    model_from_id,
)
from groupsample.groups import UnsupportedModelError

MODELS = [EuclideanModel(1), EuclideanModel(2), AffineModel(), HeisenbergModel()]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.model_id())
def test_group_axioms(model):
    rng = np.random.default_rng(7)
    g = model.random_points(64, rng=rng)
    h = model.random_points(64, rng=rng)
    k = model.random_points(64, rng=rng)
    e = model.identity()
    assert np.allclose(model.mul(g, e[None, :]), g)
    assert np.allclose(model.mul(e[None, :], g), g)
    assert np.allclose(model.mul(g, model.inv(g)), e, atol=1e-12)
    lhs = model.mul(model.mul(g, h), k)
    rhs = model.mul(g, model.mul(h, k))
    assert np.allclose(lhs, rhs, atol=1e-9)


@pytest.mark.parametrize(
    "model",
    [EuclideanModel(1), EuclideanModel(2), HeisenbergModel()],
    ids=lambda m: m.model_id(),
)
def test_norm_symmetric_positive(model):
    rng = np.random.default_rng(3)
    g = model.random_points(64, rng=rng)
    n = model.norm(g)
    assert np.all(n >= 0)
    assert np.allclose(model.norm(model.inv(g)), n, rtol=1e-10)
    assert model.norm(model.identity()) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "model,q",
    [(EuclideanModel(1), 1), (EuclideanModel(3), 3), (HeisenbergModel(), 4)],
    ids=["r1", "r3", "heis1"],
)
def test_gauge_homogeneity(model, q):
    rng = np.random.default_rng(5)
    g = model.random_points(32, rng=rng)
    for t in (0.5, 2.0, 3.7):
        assert np.allclose(model.norm(model.dilate(t, g)), t * model.norm(g), rtol=1e-10)
    assert model.homogeneous_dimension == q


def test_heisenberg_group_law():
    model = HeisenbergModel()
    a = np.array([1.0, 2.0, 0.5])
    b = np.array([-0.5, 1.0, 0.25])
    c = model.mul(a, b)
    # central coordinate picks up the symplectic twist
    assert c[0] == pytest.approx(0.5)
    assert c[1] == pytest.approx(3.0)
    assert c[2] == pytest.approx(0.5 + 0.25 + (1.0 * 1.0 - 2.0 * (-0.5)) / 2.0)


def test_heisenberg_koranyi_norm():
    model = HeisenbergModel()
    g = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    n = model.norm(g)
    assert n[0] == pytest.approx(1.0)
    assert n[1] == pytest.approx(16.0**0.25)


def test_heisenberg_gauge_subadditive():
    # the H1 norm is the Cygan-Koranyi gauge, so separation_distance(s) = 2s
    model = HeisenbergModel()
    rng = np.random.default_rng(1)
    for scale in (0.1, 1.0, 10.0):
        x = model.random_points(20000, scale=scale, rng=rng)
        y = model.random_points(20000, scale=scale, rng=rng)
        lhs = model.gauge(model.mul(x, y))
        rhs = model.gauge(x) + model.gauge(y)
        assert np.all(lhs <= rhs * (1 + 1e-12))
    assert model.separation_distance(0.7) == pytest.approx(1.4)


@pytest.mark.parametrize("s", [0.1, 1.0, 2.5])
def test_affine_separation_distance_sound(s):
    # z2 z1^-1 = g2^-1 g1 for a common point g1 z1 = g2 z2 of two s-balls
    model = AffineModel()
    rng = np.random.default_rng(2)
    z1 = model.from_internal(rng.uniform(-s, s, size=(20000, 2)))
    z2 = model.from_internal(rng.uniform(-s, s, size=(20000, 2)))
    d = model.gauge(model.mul(z2, model.inv(z1)))
    assert np.all(d < model.separation_distance(s))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.model_id())
def test_gauge_grows_with_internal_coordinates(model):
    # the gauge of an internal-coordinate box's points is at most that of
    # its farthest corner, as tiling_check's candidate radius assumes
    rng = np.random.default_rng(8)
    for _ in range(50):
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, size=(2, model.dim)), axis=0)
        u = rng.uniform(lo, hi, size=(2000, model.dim))
        corner = np.maximum(np.abs(lo), np.abs(hi))
        bound = model.gauge(model.from_internal(corner))
        assert np.all(model.gauge(model.from_internal(u)) <= bound * (1 + 1e-12))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.model_id())
def test_ball_box_holds_ball(model):
    rng = np.random.default_rng(4)
    r = 1.3
    z = model.random_points(4000, scale=1.0, rng=rng)
    z = z[model.gauge(z) < r]
    p = model.random_points(len(z), scale=3.0, rng=rng)
    lo, hi, shear = model.ball_box(p, r)
    u = model.to_internal(model.mul(p, z))
    assert np.all((u[:, :-1] >= lo[:, :-1]) & (u[:, :-1] <= hi[:, :-1]))
    t = u[:, -1] - np.sum(shear * u[:, :-1], axis=1)
    assert np.all((t >= lo[:, -1]) & (t <= hi[:, -1]))
    # at the identity the bounds are a box
    _, _, shear0 = model.ball_box(model.identity()[None, :], r)
    assert not np.any(shear0)


def test_affine_haar_weight():
    # da db / a^2 in the internal coordinates (ln a, b) is e^{-ln a} d(ln a) db
    model = AffineModel()
    g = np.array([[2.0, 1.0], [0.5, -3.0]])
    w = model.haar_density_internal(model.to_internal(g))
    assert np.allclose(w, [0.5, 2.0])


def test_model_from_id():
    assert isinstance(model_from_id("r1"), EuclideanModel)
    assert model_from_id("rn:3").dim == 3
    assert isinstance(model_from_id("affine"), AffineModel)
    assert isinstance(model_from_id("heis1"), HeisenbergModel)
    with pytest.raises(ValueError):
        model_from_id("nope")


def test_model_from_id_rejects_rn_above_3():
    with pytest.raises(ValueError, match="N <= 3"):
        model_from_id("rn:4")


@pytest.mark.parametrize("model", [EuclideanModel(1), EuclideanModel(2)], ids=lambda m: m.model_id())
def test_node_shift_euclidean(model):
    h = np.array([0.25, 0.5])[: model.dim]
    steps = model.node_shift(np.array([0.75, -1.0])[: model.dim], h)
    assert steps.dtype.kind == "i"
    assert np.array_equal(steps, np.array([3, -2])[: model.dim])
    assert model.node_shift(np.array([0.8, -1.0])[: model.dim], h) is None


@pytest.mark.parametrize("model", [HeisenbergModel(), AffineModel()], ids=lambda m: m.model_id())
def test_node_shift_none_off_euclidean(model):
    # node offsets of these groups shear or scale the lattice
    assert model.node_shift(model.identity(), np.full(model.dim, 0.5)) is None
    assert model.node_shift(np.full(model.dim, 1.0), np.full(model.dim, 0.5)) is None


def test_heisenberg_dilate_squares_by_product():
    model = HeisenbergModel()
    rng = np.random.default_rng(11)
    g = rng.normal(size=(5, 3))
    for t in rng.uniform(0.01, 10.0, size=2000):
        out = model.dilate(t, g)
        assert np.array_equal(out[:, 2], t * t * g[:, 2])
        assert np.array_equal(out[:, :2], t * g[:, :2])


def test_affine_lacks_stratified_structure():
    model = AffineModel()
    assert model.weights is None and model.homogeneous_dimension is None
    g = np.array([[1.5, 0.2]])
    with pytest.raises(UnsupportedModelError):
        model.dilate(2.0, g)
    with pytest.raises(UnsupportedModelError):
        model.sphere(16)
    with pytest.raises(UnsupportedModelError):
        model.field_coefficients(0, g)
