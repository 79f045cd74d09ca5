import numpy as np
import pytest

import groupsample.analysis as analysis

from groupsample import (
    EuclideanModel,
    HeisenbergModel,
    Grid,
    GridFunction,
    interpolate,
    oscillation,
    osc_conv_check,
    vector_field_apply,
    apply_multiindex,
    sublaplacian_matrix,
    sublaplacian_spectrum,
    random_bandlimited,
    oscillation_scaling_check,
    estimate_constants,
)
from groupsample.analysis import projector_dilation_angle


def _gauss(grid, center, width):
    pts = grid.points()
    e = np.zeros(grid.shape)
    for d in range(grid.dim):
        e += (pts[..., d] - center[d]) ** 2
    return GridFunction(grid, np.exp(-e / (2 * width**2)))


def test_oscillation_linear_function():
    grid = Grid.regular(EuclideanModel(1), [-4.0], [4.0], (512,))
    f = GridFunction.from_callable(grid, lambda x: 3.0 * x)
    (osc,) = oscillation([f], 0.25)
    mask = np.abs(grid.points().reshape(-1)) < 3.0
    vals = osc.values.reshape(-1).real[mask]
    # sup over |y| <= r of |f(x) - f(x - y)| = 3 r for linear f
    assert np.all(vals <= 3 * 0.25 + 1e-9)
    assert vals.max() == pytest.approx(0.75, rel=0.05)


def test_oscillation_constant_vanishes():
    grid = Grid.regular(EuclideanModel(1), [-2.0], [2.0], (64,))
    f = GridFunction(grid, np.full(grid.shape, 2.5))
    # interior only: shifts past the box edge fall onto the zero padding
    mask = np.abs(grid.points().reshape(grid.shape)) < 1.5
    assert oscillation([f], 0.3)[0].norm_sup(mask) == pytest.approx(0.0, abs=1e-12)


def test_osc_conv_inequality_euclidean():
    grid = Grid.regular(EuclideanModel(1), [-8.0], [8.0], (256,))
    f = _gauss(grid, [0.0], 0.7)
    g = _gauss(grid, [0.5], 0.9)
    rep = osc_conv_check(f, g, 0.4, seed=3)
    assert rep["max_violation"] < 1e-6


def test_vector_fields_heisenberg_polynomials():
    grid = Grid.regular(HeisenbergModel(), [-2.0] * 3, [2.0] * 3, (33,) * 3)
    # f = t: X f = -y/2, Y f = x/2, T f = 1
    f = GridFunction.from_callable(grid, lambda x, y, t: t)
    pts = grid.points()
    m = np.s_[4:-4, 4:-4, 4:-4]
    xf = vector_field_apply(0, f).values.real
    yf = vector_field_apply(1, f).values.real
    tf = vector_field_apply(2, f).values.real
    assert np.allclose(xf[m], -pts[..., 1][m] / 2, atol=1e-9)
    assert np.allclose(yf[m], pts[..., 0][m] / 2, atol=1e-9)
    assert np.allclose(tf[m], 1.0, atol=1e-9)


def test_apply_multiindex_matches_composition():
    grid = Grid.regular(HeisenbergModel(), [-2.0] * 3, [2.0] * 3, (17,) * 3)
    f = _gauss(grid, [0.0, 0.0, 0.0], 0.8)
    a = apply_multiindex((1, 1, 0), f)
    b = vector_field_apply(1, vector_field_apply(0, f))
    assert np.allclose(a.values, b.values, atol=1e-12)


def test_sublaplacian_symmetric():
    grid = Grid.regular(HeisenbergModel(), [-2.0] * 3, [2.0] * 3, (9,) * 3)
    L = sublaplacian_matrix(grid)
    assert abs(L - L.T).max() < 1e-12


def test_spectrum_bernstein_and_cache(h1_grid, h1_proj, cache_dir):
    omega = h1_proj.omega
    assert np.all(h1_proj.eigenvalues <= omega + 1e-12)
    assert np.all(h1_proj.eigenvalues >= 0)
    L = sublaplacian_matrix(h1_grid)
    v = h1_proj.eigenvectors[0].reshape(-1)
    lam = h1_proj.eigenvalues[0]
    assert np.linalg.norm(L @ v - lam * v) < 1e-8 * np.linalg.norm(v)
    # second call must come from the cache with identical content
    again = sublaplacian_spectrum(h1_grid, omega, cache_dir=cache_dir)
    assert np.allclose(again.eigenvalues, h1_proj.eigenvalues)


def test_projection_idempotent(h1_proj):
    f = random_bandlimited(h1_proj, seed=4)
    pf = h1_proj.synthesize(h1_proj.coefficients(f))
    assert (pf - f).norm_l2() < 1e-10 * f.norm_l2()


def test_ball_volume_closed_forms():
    assert EuclideanModel(1).ball_volume(2.0) == pytest.approx(4.0)
    assert EuclideanModel(2).ball_volume(1.0) == pytest.approx(np.pi)
    v1 = HeisenbergModel().ball_volume(1.0)
    v2 = HeisenbergModel().ball_volume(2.0)
    assert v2 / v1 == pytest.approx(16.0)
    # Koranyi unit ball: slice thickness sqrt(1 - rho^4)/2 integrates to pi^2/8
    assert v1 == pytest.approx(np.pi**2 / 8.0, rel=2e-2)


def test_scaling_check_rejects_large_radius(h1_proj):
    with pytest.raises(ValueError):
        oscillation_scaling_check(h1_proj, (0.5, 2.0), 100.0)


def test_dilation_angle_small(h1_proj, cache_dir):
    angle = projector_dilation_angle(h1_proj, 2.0**-0.25, cache_dir=cache_dir)
    assert angle <= 5e-2


def _broken_savez(file, **arrays):
    """Writes the start of an archive, then fails like a full disk."""
    if isinstance(file, str):
        with open(file, "wb") as fh:
            fh.write(b"PK\x03\x04 partial")
    else:
        file.write(b"PK\x03\x04 partial")
    raise OSError("no space left on device")


def test_spectrum_cache_write_is_atomic(tmp_path, monkeypatch):
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    monkeypatch.setattr(analysis.np, "savez_compressed", _broken_savez)
    with pytest.raises(OSError):
        sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
    # neither the final file nor the temporary one is left behind
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    proj = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
    assert proj.dim > 0
    assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]
    again = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
    assert np.array_equal(again.eigenvalues, proj.eigenvalues)


def test_estimate_constants_flags_unverified_b(tmp_path):
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    proj = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
    est = estimate_constants(grid, proj, b_scan=(0.5, 1.0))
    assert est.metadata["b_verified"] is False
    assert est.b == 1.0


def test_estimate_constants_flags_verified_b(tmp_path, monkeypatch):
    # with derivative fields far above any difference quotient every b
    # passes, so the first scanned one is taken and verified
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    proj = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
    monkeypatch.setattr(
        analysis, "vector_field_apply", lambda j, f: GridFunction(f.grid, np.full(f.grid.shape, 1e6))
    )
    est = estimate_constants(grid, proj, b_scan=(0.5, 1.0))
    assert est.metadata["b_verified"] is True
    assert est.b == 0.5


def _reference_oscillation(f, offsets):
    """sup over the offsets of |f(x) - f(x - y)| on the nodes: lattice
    offsets move node values by whole index steps (zero from outside the
    box), any other offset is interpolated."""
    grid = f.grid
    column = (-1,) + (1,) * grid.dim  # one entry per axis, broadcast over nodes
    out = np.zeros(grid.shape)
    for y in offsets:
        k = y / grid.spacings
        if np.max(np.abs(k - np.rint(k))) < 1e-9:
            idx = np.indices(grid.shape) - np.rint(k).astype(int).reshape(column)
            inside = np.all((idx >= 0) & (idx < np.reshape(grid.shape, column)), axis=0)
            fy = np.zeros(grid.shape, dtype=complex)
            fy[inside] = f.values[tuple(i[inside] for i in idx)]
        else:
            fy = interpolate(f.values, grid, grid.nodes_internal() - y)
        out = np.maximum(out, np.abs(f.values - fy))
    return out


@pytest.mark.parametrize(
    "model,shape",
    [(EuclideanModel(1), (128,)), (EuclideanModel(2), (24, 20)), (HeisenbergModel(), (9, 8, 10))],
    ids=["r1", "rn2", "heis1"],
)
def test_oscillation_matches_shift_and_interpolation_reference(model, shape):
    grid = Grid.regular(model, [-3.0] * model.dim, [3.0] * model.dim, shape)
    rng = np.random.default_rng(8)
    fs = [GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape)) for _ in range(3)]
    for r in (0.3, 0.8):
        batched = oscillation(fs, r)
        assert len(batched) == len(fs)
        for f, osc in zip(fs, batched):
            # a batch gives each function the bits it gets on its own
            assert np.array_equal(osc.values, oscillation([f], r)[0].values)
        if model.kind == "euclidean":
            offsets = analysis.ball_offsets(model, r, grid.spacings)
            # both kinds of offset occur
            n_lattice = sum(model.node_shift(y, grid.spacings) is not None for y in offsets)
            assert 0 < n_lattice < len(offsets)
            assert np.array_equal(batched[0].values, _reference_oscillation(fs[0], offsets))
