import math

import numpy as np
import pytest

from groupsample import EuclideanModel, Grid, GridFunction, PointSet, model_from_id
from groupsample.kernels import SincKernel
from groupsample.frames import (
    FrameSystem,
    quasi_interpolate,
    theorem35_verdict,
    lattice_sum_squares,
    heisenberg_sampling_experiment,
    beurling_scan,
)
from groupsample.pointsets import build_partition, gap_lattice


@pytest.fixture(scope="module")
def shannon():
    grid = Grid.regular(EuclideanModel(1), [-16.0], [16.0], (512,))
    kernel = SincKernel(grid, 0.5)
    pts = np.arange(-16.0, 16.0)[:, None]
    ps = PointSet(EuclideanModel(1), pts, [-16.0], [16.0])
    return kernel, FrameSystem(kernel, ps)


def _lattice_system(kernel, gap):
    lo, hi = kernel.grid.lo[0], kernel.grid.hi[0]
    ps = PointSet(kernel.grid.model, gap_lattice(lo, hi, gap)[:, None], [lo], [hi])
    return FrameSystem(kernel, ps)


def test_empty_pointset_gives_zero_operator(shannon):
    kernel, _ = shannon
    ps = PointSet(EuclideanModel(1), np.zeros((0, 1)), [-16.0], [16.0])
    sys = FrameSystem(kernel, ps)
    assert sys.M.shape == (kernel.dim, kernel.dim)
    assert np.all(sys.M == 0)


def test_shannon_tight(shannon):
    _, sys = shannon
    fb = sys.estimate_bounds()
    assert fb.a == pytest.approx(1.0, abs=1e-3)
    assert fb.b == pytest.approx(1.0, abs=1e-3)


def test_oversampled_gram_is_parseval_oracle(shannon):
    kernel, _ = shannon
    sys = _lattice_system(kernel, 0.5)
    # Poisson/Parseval: the coefficient-space frame operator of the
    # half-integer lattice is exactly 2 * Id on the retained modes
    assert np.allclose(sys.M, 2.0 * np.eye(kernel.dim), atol=1e-10)


def test_undersampled_collapse(shannon):
    kernel, _ = shannon
    fb = _lattice_system(kernel, 2.0).estimate_bounds()
    assert fb.a < 1e-3


def test_frame_coefficients_match_samples(shannon):
    kernel, sys = shannon
    rng = np.random.default_rng(5)
    f = kernel.synthesize(rng.standard_normal(kernel.dim))
    samples = sys.sample(f)
    for i in (0, 7, 20):
        pv = kernel.reproducing_vector(sys.pointset.points[i])
        assert f.inner(pv) == pytest.approx(complex(samples[i]), abs=1e-6)


def test_bounds_monotone_under_point_addition(shannon):
    kernel, sys = shannon
    fb0 = sys.estimate_bounds()
    pts = np.concatenate([sys.pointset.points, [[0.37], [-5.11]]])
    sys2 = FrameSystem(kernel, PointSet(EuclideanModel(1), pts, [-16.0], [16.0]))
    fb1 = sys2.estimate_bounds()
    assert fb1.a >= fb0.a - 1e-9
    assert fb1.b >= fb0.b - 1e-9


def test_reconstruction_exact_and_consistent(shannon):
    kernel, sys = shannon
    rng = np.random.default_rng(11)
    f = kernel.synthesize(rng.standard_normal(kernel.dim))
    res = sys.reconstruct(sys.sample(f))
    assert (res.function - f).norm_l2() < 1e-8 * f.norm_l2()
    back = sys.sample(res.function)
    assert np.allclose(back, sys.sample(f), atol=1e-6)


def test_reconstruction_noise_bound(shannon):
    kernel, sys = shannon
    rng = np.random.default_rng(13)
    f = kernel.synthesize(rng.standard_normal(kernel.dim))
    fb = sys.estimate_bounds()
    noise = 1e-3 * rng.standard_normal(len(sys.pointset))
    res = sys.reconstruct(sys.sample(f) + noise, bounds=fb)
    err = (res.function - f).norm_l2()
    assert err <= np.linalg.norm(noise) / math.sqrt(fb.a) + 1e-6


def test_dual_frame_tight_case(shannon):
    # reconstructing the samples of the index-th unit vector solves
    # S c = p_gamma: the dual frame vector, p_gamma / A for a tight frame
    kernel, sys = shannon
    fb = sys.estimate_bounds()
    dual = sys.reconstruct(np.eye(len(sys.pointset))[16], bounds=fb).function
    pv = kernel.reproducing_vector(sys.pointset.points[16])
    assert (dual - (1.0 / fb.a) * pv).norm_l2() < 1e-3


def test_not_a_frame_is_explicit(shannon):
    kernel, _ = shannon
    sys = _lattice_system(kernel, 2.0)
    with pytest.raises(ValueError):
        sys.reconstruct(np.zeros(len(sys.pointset)) + 1.0)


def test_quasi_interpolate_constants():
    model = EuclideanModel(1)
    pts = np.arange(0.25, 8.0, 0.5)[:, None]
    ps = PointSet(model, pts, [0.0], [8.0])
    part = build_partition(ps, 0.1, 0.5, shape=256)
    q = quasi_interpolate(np.ones(len(ps)), part)
    assert np.allclose(q.values, 1.0)


def test_quasi_interpolate_operator_norm():
    model = EuclideanModel(1)
    pts = np.arange(0.25, 8.0, 0.5)[:, None]
    ps = PointSet(model, pts, [0.0], [8.0])
    part = build_partition(ps, 0.1, 0.5, shape=256)
    meas = np.bincount(part.assignment.reshape(-1), weights=part.grid.weights().reshape(-1))
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.standard_normal(len(ps))
        q = quasi_interpolate(c, part)
        assert q.norm_l2() ** 2 <= meas.max() * np.sum(np.abs(c) ** 2) + 1e-9


def test_theorem35_certificates_failed():
    grid = Grid.regular(EuclideanModel(1), [-16.0], [16.0], (512,))
    kernel = SincKernel(grid, 0.5)
    ps = PointSet(EuclideanModel(1), np.array([[0.0], [0.01]]), [-16.0], [16.0])
    rep = theorem35_verdict(kernel, ps, 0.1, 0.2, n_random=2)
    assert rep["verdict"] == "certificates-failed"


def test_theorem35_dense_lattice_passes():
    grid = Grid.regular(EuclideanModel(1), [-16.0], [16.0], (512,))
    kernel = SincKernel(grid, 0.5)
    pts = np.arange(-16.0, 16.001, 0.25)[:, None]
    ps = PointSet(EuclideanModel(1), pts, [-16.0], [16.0])
    rep = theorem35_verdict(kernel, ps, 0.1, 0.15, n_random=10, verify_shape=512)
    assert rep["verdict"] == "pass"
    assert rep["a_emp"] >= rep["a_pred"] - 1e-3
    assert rep["b_emp"] <= rep["b_pred"] + 1e-3


@pytest.mark.parametrize("model_id", ["r1", "rn:2", "heis1"])
def test_lattice_sum_squares_brute_force_oracle(model_id):
    model = model_from_id(model_id)
    grid = Grid.regular(model, [-2.0] * model.dim, [2.0] * model.dim, 17)
    pts = grid.points()
    # complex and different along each axis, so a slab or corner on the
    # wrong axis changes the sum
    center = np.array([0.3, -0.5, 0.2])[: model.dim]
    scale = np.array([1.0, 0.6, 1.7])[: model.dim]
    vals = np.exp(-np.sum(scale * (pts - center) ** 2, axis=-1) + 1j * pts[..., 0])
    f = GridFunction(grid, vals)
    steps = (0.311, 0.27, 0.19)[: model.dim]
    total = lattice_sum_squares(f, steps)
    # the interpolant ramps to zero over one cell below the box, so the
    # enumeration covers [lo - h, hi)
    lo = grid.lo - grid.spacings
    axes = [gap_lattice(lo[d], grid.hi[d], steps[d]) for d in range(model.dim)]
    lat = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.dim)
    brute = float(np.sum(np.abs(f.at(lat)) ** 2))
    assert total == pytest.approx(brute, rel=1e-12)


def test_heisenberg_experiment_validates_input():
    grid = Grid.regular(EuclideanModel(1), [-1.0], [1.0], (8,))

    class FakeProj:
        def __init__(self):
            self.grid = grid
            self.omega = 1.0

    with pytest.raises(ValueError):
        heisenberg_sampling_experiment(FakeProj(), 10.0, 0.9)


def test_beurling_scan_requires_1d():
    grid = Grid.regular(EuclideanModel(2), [-4.0, -4.0], [4.0, 4.0], (16, 16))
    kernel = SincKernel(grid, 0.5)
    with pytest.raises(ValueError):
        beurling_scan(kernel, [1.0])


def test_beurling_scan_leaves_out_the_high_endpoint():
    # r = 0.5 divides the width of [-32, 32): the half-open box holds 128
    # multiples of r, and x = 32, the periodic image of -32, is not sampled
    grid = Grid.regular(EuclideanModel(1), [-32.0], [32.0], (2048,))
    (row,) = beurling_scan(SincKernel(grid, 0.5), [0.5])
    assert row["n_points"] == 128
    assert row["a"] == pytest.approx(2.0, abs=1e-9)
    assert row["b"] == pytest.approx(2.0, abs=1e-9)
