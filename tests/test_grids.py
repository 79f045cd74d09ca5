import hashlib

import numpy as np
import pytest

from groupsample import EuclideanModel, AffineModel, HeisenbergModel, Grid, GridFunction, interpolate


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


def test_support_keeps_nodes_above_a_share_of_the_largest_modulus():
    g = Grid.regular(EuclideanModel(1), [0.0], [1.0], (6,))
    vals = np.array([1.0, 2e-14, 5e-15, 0.0, -0.5j, 1e-13])
    keep = [0, 1, 4, 5]
    f = GridFunction(g, vals)
    pts, w, v = f.support()
    assert np.array_equal(pts, g.points()[keep])
    assert np.array_equal(w, g.weights()[keep])
    assert np.array_equal(v, vals[keep])
    # the threshold scales with the function
    assert np.array_equal((f * 1e-20).support()[2], vals[keep] * 1e-20)
    assert [len(a) for a in GridFunction(g, np.zeros(6)).support()] == [0, 0, 0]


def test_support_quadrature_matches_the_integral():
    # no entry below the threshold: the support is every node, and its
    # weights times values sum to the Haar quadrature of the function
    g = Grid.regular(AffineModel(), [-1.0, -2.0], [1.0, 2.0], (12, 20))
    f = GridFunction.from_callable(g, lambda a, b: (1.0 + b**2) * np.exp(1j * a))
    pts, w, v = f.support()
    assert len(v) == g.size
    assert np.sum(w * v) == pytest.approx(np.sum(g.weights() * f.values), rel=1e-12)


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


def _interpolate_reference(values, grid, pts_internal):
    """The corner loop ``interpolate`` ran before its per-axis stencil:
    each corner clips its indices, masks the corners off the grid and adds
    its weighted values, over the points inside the support only."""
    pts = np.asarray(pts_internal, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    flat = pts.reshape(-1, grid.dim)

    h = grid.spacings
    u = (flat - grid.lo) / h
    with np.errstate(invalid="ignore"):
        i0 = np.floor(u).astype(np.int64)
    frac = u - i0

    inside = np.ones(len(flat), dtype=bool)
    for d in range(grid.dim):
        inside &= (u[:, d] >= -1.0) & (u[:, d] <= grid.shape[d])

    batch = values.shape[: values.ndim - grid.dim]
    out = np.zeros(batch + (len(flat),), dtype=values.dtype)
    vflat = values.reshape(batch + (grid.size,))

    idx_in = np.nonzero(inside)[0]
    if idx_in.size:
        i0i = i0[idx_in]
        fri = frac[idx_in]
        strides = np.cumprod((grid.shape + (1,))[::-1])[::-1][1:]
        acc = np.zeros(batch + (idx_in.size,), dtype=values.dtype)
        for corner in range(1 << grid.dim):
            w = np.ones(idx_in.size)
            lin = np.zeros(idx_in.size, dtype=np.int64)
            valid = np.ones(idx_in.size, dtype=bool)
            for d in range(grid.dim):
                bit = (corner >> d) & 1
                idx = i0i[:, d] + bit
                w = w * (fri[:, d] if bit else 1.0 - fri[:, d])
                ok = (idx >= 0) & (idx < grid.shape[d])
                valid &= ok
                lin = lin + np.clip(idx, 0, grid.shape[d] - 1) * strides[d]
            w = np.where(valid, w, 0.0)
            acc = acc + vflat[..., lin] * w
        out[..., idx_in] = acc

    out = out.reshape(batch + pts.shape[:-1])
    if squeeze:
        out = out[..., 0]
    return out


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _probe_points(grid, rng, count=400):
    """Internal-coordinate points whose node coordinates u = (x - lo)/h mix
    random interior values, nodes, the lo and hi faces, the outer ring
    (-1 < u < 0 and n - 1 < u <= n), the ring's ends, far outside and NaN."""
    cols = []
    for n in grid.shape:
        special = np.array(
            [0.0, 1.0, n - 1.0, n, -1.0, -0.5, -1e-12, n - 0.5, n - 1e-12, n - 1 + 1e-12,
             -1.0 - 1e-12, n + 1e-12, -7.0, n + 9.0, np.nan]
        )
        k = np.where(
            rng.uniform(size=count) < 0.5,
            rng.uniform(-1.5, n + 0.5, size=count),
            special[rng.integers(0, len(special), size=count)],
        )
        k[: n] = np.arange(n)  # every node index on this axis
        cols.append(k)
    return grid.lo + grid.spacings * np.stack(cols, axis=-1)


@pytest.mark.parametrize(
    "model,lo,hi,shape",
    [
        (EuclideanModel(1), [-1.0], [1.5], (9,)),
        (EuclideanModel(2), [0.0, -1.0], [2.0, 1.0], (6, 5)),
        (AffineModel(), [-1.0, -2.0], [1.0, 2.0], (7, 6)),
        (HeisenbergModel(), [-2.0, -1.5, -3.0], [2.0, 1.5, 3.0], (5, 6, 7)),
    ],
    ids=["r1", "rn2", "affine", "heis1"],
)
def test_interpolate_matches_corner_loop_bytes(model, lo, hi, shape):
    grid = Grid.regular(model, lo, hi, shape)
    rng = np.random.default_rng(4)
    pts = _probe_points(grid, rng)
    for batch in ((), (3,), (2, 3)):
        real = rng.normal(size=batch + shape)
        cplx = real + 1j * rng.normal(size=batch + shape)
        cplx.flat[::3] *= -1  # negative real and imaginary parts
        for values in (real, cplx):
            for p in (pts, pts.reshape(20, -1, grid.dim), pts[7]):
                got = interpolate(values, grid, p)
                ref = _interpolate_reference(values, grid, p)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert _digest(got) == _digest(ref)


def _node_points(grid, rng, free_axis=None, count=400):
    """Internal-coordinate points on nodes on every axis but ``free_axis``:
    whole node coordinates u = (x - lo)/h, with u = -1, u = n, far outside
    and NaN among them; the free axis mixes random values in."""
    cols = []
    for d, n in enumerate(grid.shape):
        if d == free_axis:
            k = rng.uniform(-1.5, n + 0.5, size=count)
        else:
            special = np.array([-1.0, n, -7.0, n + 9.0, np.nan])
            k = np.where(
                rng.uniform(size=count) < 0.8,
                rng.integers(0, n, size=count),
                special[rng.integers(0, len(special), size=count)],
            )
        cols.append(k)
    return grid.lo + grid.spacings * np.stack(cols, axis=-1)


def _signed_zeros(values, rng):
    """Values with about a third of their entries zero, of either sign; the
    parts of a complex zero take their signs independently, so (-0, -0) is
    among them.  A node-aligned point picks its node's value up unchanged."""
    out = values.copy()
    zero = rng.uniform(size=values.shape) < 0.35
    for part in (out.real, out.imag) if np.iscomplexobj(out) else (out,):
        part[zero] = np.where(rng.uniform(size=values.shape) < 0.5, -0.0, 0.0)[zero]
    return out


@pytest.mark.parametrize(
    "model,lo,hi,shape",
    [
        (EuclideanModel(1), [-2.0], [2.5], (9,)),
        (EuclideanModel(2), [0.0, -1.0], [3.0, 1.5], (6, 5)),
        (AffineModel(), [-1.0, -2.0], [2.5, 1.0], (7, 6)),
        (HeisenbergModel(), [-2.0, -1.5, -3.0], [0.5, 1.5, 0.5], (5, 6, 7)),
    ],
    ids=["r1", "rn2", "affine", "heis1"],
)
def test_interpolate_on_node_aligned_axes_matches_corner_loop_bytes(model, lo, hi, shape):
    # spacings of 1/2 make u exact, so the aligned axes build one corner;
    # signed zeros show whether the kept corner is added to +0 as before
    grid = Grid.regular(model, lo, hi, shape)
    rng = np.random.default_rng(6)
    for free_axis in (None, *range(grid.dim)):
        pts = _node_points(grid, rng, free_axis)
        u = (pts - grid.lo) / grid.spacings
        aligned = [d for d in range(grid.dim) if d != free_axis]
        assert np.all((u[:, aligned] == np.floor(u[:, aligned])) | np.isnan(u[:, aligned]))
        for batch in ((), (3,)):
            real = _signed_zeros(rng.normal(size=batch + shape), rng)
            cplx = _signed_zeros(rng.normal(size=batch + shape) + 1j * rng.normal(size=batch + shape), rng)
            for values in (real, cplx):
                for p in (pts, pts.reshape(20, -1, grid.dim), pts[3]):
                    got = interpolate(values, grid, p)
                    ref = _interpolate_reference(values, grid, p)
                    assert got.dtype == ref.dtype and got.shape == ref.shape
                    assert _digest(got) == _digest(ref)
