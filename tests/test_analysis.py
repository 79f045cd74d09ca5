import hashlib

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import groupsample.analysis as analysis

from groupsample import (
    AffineModel,
    EuclideanModel,
    HeisenbergModel,
    Grid,
    GridFunction,
    interpolate,
    oscillation,
    oscillation_l1_box,
    osc_conv_check,
    vector_field_apply,
    sublaplacian_matrix,
    sublaplacian_spectrum,
    random_bandlimited,
    oscillation_scaling_check,
    estimate_constants,
    ConstantEstimates,
    SpectralProjector,
)
from groupsample.analysis import projector_dilation_angle
from groupsample.groups import UnsupportedModelError, model_from_id


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


def _osc_conv_reference(f, g, r, seed):
    """The loop ``osc_conv_check`` ran before it interpolated each distinct
    point once: every pair (z, x) interpolated, all evaluation points at
    once; returns the max violation and rhs_scale."""
    grid = f.grid
    model = grid.model
    n_sample = 400 if grid.dim == 1 else 120
    offsets = analysis.ball_offsets(model, r, grid.spacings, n_dirs=12)
    z, w, fv = f.support()
    zinv = model.inv(z)
    coef = w * fv
    all_pts = grid.points().reshape(-1, grid.dim)
    if len(all_pts) > n_sample:
        rng = np.random.default_rng(seed)
        xs = all_pts[rng.choice(len(all_pts), size=n_sample, replace=False)]
    else:
        xs = all_pts
    q0 = model.mul(zinv[:, None, :], xs[None, :, :])
    g0 = interpolate(g.values, grid, model.to_internal(q0))
    osc_g = np.zeros(q0.shape[:2])
    lhs = np.zeros((len(offsets), len(xs)))
    for k, y in enumerate(offsets):
        q1 = model.mul(q0, model.inv(y))
        g1 = interpolate(g.values, grid, model.to_internal(q1))
        diff = g0 - g1
        np.maximum(osc_g, np.abs(diff), out=osc_g)
        lhs[k] = np.abs(np.sum(coef[:, None] * diff, axis=0))
    rhs = np.sum(np.abs(coef)[:, None] * osc_g, axis=0)
    return float(np.max(lhs - rhs[None, :])), float(rhs.max())


def _digest(*values):
    return hashlib.sha256(np.array(values, dtype=float).tobytes()).hexdigest()


# model, box, shape and radius; on "r1-odd" (spacing 0.02) the node-index
# difference does not fix the bytes of z^-1 x
_OSC_CONV_CASES = {
    "r1": (EuclideanModel(1), 16.0, (512,), 0.5),
    "rn2": (EuclideanModel(2), 4.0, (32, 16), 0.6),
    "heis1-5": (HeisenbergModel(), 6.0, (5,) * 3, 0.4),
    "heis1-9": (HeisenbergModel(), 6.0, (9,) * 3, 0.4),
    "r1-odd": (EuclideanModel(1), 4.0, (400,), 0.3),
}


def _osc_conv_pairs(case):
    """A complex white-noise pair, and a narrow bump (support short of the
    grid) against white noise."""
    model, half, shape, r = _OSC_CONV_CASES[case]
    grid = Grid.regular(model, [-half] * model.dim, [half] * model.dim, shape)
    rng = np.random.default_rng(12)
    noise = [GridFunction(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
             for _ in range(3)]
    bump = _gauss(grid, [0.3] * model.dim, 0.3)
    assert 0 < len(bump.support_index()) < grid.size
    return grid, r, [(noise[0], noise[1]), (bump, noise[2])]


@pytest.mark.parametrize("case", list(_OSC_CONV_CASES))
def test_osc_conv_check_matches_reference_loop(case):
    grid, r, pairs = _osc_conv_pairs(case)
    if case == "r1-odd":
        # one index step, two byte patterns: the dedupe must fall back
        steps = np.diff(grid.points().reshape(-1))
        assert len(np.unique(steps)) > 1
    for seed, (f, g) in enumerate(pairs):
        rep = osc_conv_check(f, g, r, seed=seed)
        ref = _osc_conv_reference(f, g, r, seed)
        assert _digest(rep["max_violation"], rep["rhs_scale"]) == _digest(*ref), (case, seed)


@pytest.mark.parametrize("case", ["r1", "heis1-5"])
def test_osc_conv_check_blocks_keep_the_bits(case, monkeypatch):
    # 2^9 pairs (z, x) a block: tens to hundreds of blocks, down to two
    # evaluation points each, with the dedupe (r1) and without (heis1)
    monkeypatch.setattr(analysis, "_OSC_CONV_BLOCK", 2**9)
    grid, r, pairs = _osc_conv_pairs(case)
    for seed, (f, g) in enumerate(pairs):
        rep = osc_conv_check(f, g, r, seed=seed)
        assert _digest(rep["max_violation"], rep["rhs_scale"]) == _digest(
            *_osc_conv_reference(f, g, r, seed)), (case, seed)


def test_osc_conv_check_interpolates_each_index_difference_once(monkeypatch):
    counts = []

    def counting(values, grid, pts):
        counts.append(np.asarray(pts).size // grid.dim)
        return interpolate(values, grid, pts)

    monkeypatch.setattr(analysis, "interpolate", counting)
    for case in ("r1", "r1-odd"):
        grid, r, pairs = _osc_conv_pairs(case)
        counts.clear()
        osc_conv_check(*pairs[0], r)
        n = grid.shape[0]
        if case == "r1":
            # 512 * 400 pairs (z, x), at most 2n - 1 distinct differences
            assert counts and max(counts) <= 2 * n - 1
        else:
            # the fallback interpolates every pair of a block
            assert min(counts) > 2 * n - 1


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


def test_derivative_matches_composition():
    grid = Grid.regular(HeisenbergModel(), [-2.0] * 3, [2.0] * 3, (17,) * 3)
    f = _gauss(grid, [0.0, 0.0, 0.0], 0.8)
    tree = {(0, 0, 0): f}
    a = analysis._derivative(tree, (1, 1, 0))
    b = vector_field_apply(1, vector_field_apply(0, f))
    assert np.array_equal(a.values, b.values)
    # the prefix was stored on the way, and a second request reuses it
    assert sorted(tree) == [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    assert analysis._derivative(tree, (1, 1, 0)) is a


def _padded_central_diff(values, axis, h):
    """Reference central difference: two zero-padded shifted copies,
    subtracted."""
    sl_all = [slice(None)] * values.ndim

    def shifted(k):
        pad = np.zeros_like(values)
        src = sl_all.copy()
        dst = sl_all.copy()
        if k > 0:
            src[axis] = slice(k, None)
            dst[axis] = slice(None, -k)
        else:
            src[axis] = slice(None, k)
            dst[axis] = slice(-k, None)
        pad[tuple(dst)] = values[tuple(src)]
        return pad

    return (shifted(1) - shifted(-1)) / (2.0 * h)


def _reference_field_apply(i, f):
    grid = f.grid
    c = grid.model.field_coefficients(i, grid.points())
    out = np.zeros(grid.shape, dtype=np.complex128)
    for d in range(grid.dim):
        cd = c[..., d]
        if np.any(cd != 0):
            out += cd * _padded_central_diff(f.values, d, grid.spacings[d])
    return out


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "model_id,shape",
    [("r1", (33,)), ("rn:2", (12, 9)), ("affine", (10, 11)), ("heis1", (9, 8, 7)), ("heis1", (2, 3, 2))],
)
def test_vector_field_apply_matches_padded_reference(model_id, shape):
    model = model_from_id(model_id)
    lo = model.to_internal(model.identity()) - 2.0
    grid = Grid.regular(model, lo, lo + 4.0, shape)
    rng = np.random.default_rng(5)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # signed zeros at every other node of both faces and of the layers
    # next to them
    idx = np.indices(shape)
    every_other = idx.sum(axis=0) % 2 == 0
    for d, n in enumerate(shape):
        for k, z in ((0, complex(0.0, -0.0)), (1, complex(-0.0, 0.0)),
                     (n - 2, complex(-0.0, -0.0)), (n - 1, complex(0.0, 0.0))):
            v[(idx[d] == k) & every_other] = z
    f = GridFunction(grid, v)
    if model_id == "affine":  # no vector fields
        with pytest.raises(UnsupportedModelError):
            vector_field_apply(0, f)
        return
    for i in range(model.dim):
        assert _sha(vector_field_apply(i, f).values) == _sha(_reference_field_apply(i, f)), i


def test_sublaplacian_symmetric():
    grid = Grid.regular(HeisenbergModel(), [-2.0] * 3, [2.0] * 3, (9,) * 3)
    L = sublaplacian_matrix(grid)
    assert abs(L - L.T).max() < 1e-12


@pytest.mark.parametrize("grid,digests", [
    (Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3),
     ("256d4a5d0864d4140ec7775bf7590ce7e0dff6ff9b1bf97e541255c397b86e55",
      "51183b98cc8afaf4b5f83011f69d7f82e5d9c0e167cf05199a8ea193cd290c8d",
      "c1407639f51a89932d4a485c851a17b273d5d392e8462e591f79cb3a045535f5")),
    (Grid.regular(EuclideanModel(2), [-5.0] * 2, [5.0] * 2, (20,) * 2),
     ("c0f820d9c682b7a6119c69ca35f1fe4997bb28b72d5afe4931a0c7c8cf04d3c9",
      "82e72889ca1201604d2726391e0753e83d676dd039f0a201b05e7c326e71ea0d",
      "7eb8d9841dbc0f0562fc9073b32629e293f6803d0d069d082965e62b1737ef4f")),
], ids=["heis1-9", "rn2-20"])
def test_sublaplacian_matrix_bytes_pinned(grid, digests):
    # the eigenpairs, and so every spectral table, rest on these bytes
    L = sublaplacian_matrix(grid)
    assert (_sha(L.data), _sha(L.indices), _sha(L.indptr)) == digests


@pytest.mark.parametrize("r", [-0.5, float("nan"), float("inf")])
def test_oscillation_radius_must_be_positive_and_finite(r):
    grid = Grid.regular(EuclideanModel(1), [-4.0], [4.0], (64,))
    f = _gauss(grid, [0.0], 0.7)
    for call in (lambda: oscillation([f], r), lambda: osc_conv_check(f, f, r)):
        with pytest.raises(ValueError, match="oscillation radius must be positive and finite"):
            call()


@pytest.mark.parametrize(
    "half_widths", [(0.0, 0.0), (0.1, 0.0), (float("nan"), 0.1), (float("inf"), 0.1)]
)
def test_oscillation_l1_box_half_widths_must_be_positive_and_finite(half_widths):
    # a zero half-width would measure a box of zero width along its axis
    grid = Grid.regular(AffineModel(), [-2.0, -8.0], [2.0, 8.0], (8, 16))
    f = GridFunction(grid, np.ones(grid.shape))
    with pytest.raises(ValueError, match="half-widths must be positive and finite"):
        oscillation_l1_box(f, half_widths)


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
        oscillation_scaling_check(h1_proj, (0.5, 2.0))


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
    monkeypatch.setattr(analysis.np, "savez", _broken_savez)
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


def test_spectrum_cache_serves_only_eigenpairs_that_hold(tmp_path):
    # an entry whose eigenpairs miss L v = lambda v by more than 1e-9 is
    # recomputed, rewritten and counted as a miss; an intact one is a hit
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    cold = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
    assert analysis._eigen_residual(grid, cold.eigenvalues, cold.eigenvectors) <= 1e-12
    (path,) = tmp_path.glob("spectrum-*.npz")
    vecs = cold.eigenvectors.copy()
    vecs[3].flat[100] += 1e-6 * np.abs(vecs[3]).max()
    np.savez(path, vals=cold.eigenvalues, vecs=vecs.reshape(len(vecs), -1))
    for served in ("misses", "hits"):
        counts0 = dict(analysis.CACHE_COUNTS)
        proj = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
        assert {k: analysis.CACHE_COUNTS[k] - v for k, v in counts0.items()} == {
            "hits": int(served == "hits"), "misses": int(served == "misses")}
        assert _sha(proj.eigenvalues) == _sha(cold.eigenvalues)
        assert _sha(proj.eigenvectors) == _sha(cold.eigenvectors)


@pytest.mark.parametrize("content", [b"PK\x03\x04 truncated", b""], ids=["truncated-zip", "empty"])
def test_spectrum_cache_recomputes_an_unreadable_entry(tmp_path, content):
    # an entry np.load cannot read is recomputed to the cold solve, rewritten
    # and counted as a miss; the rewritten entry is then a hit
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    cold = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("spectrum-*.npz")
    path.write_bytes(content)
    for served in ("misses", "hits"):
        counts0 = dict(analysis.CACHE_COUNTS)
        proj = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
        assert {k: analysis.CACHE_COUNTS[k] - v for k, v in counts0.items()} == {
            "hits": int(served == "hits"), "misses": int(served == "misses")}
        assert _sha(proj.eigenvalues) == _sha(cold.eigenvalues)
        assert _sha(proj.eigenvectors) == _sha(cold.eigenvectors)


def test_cache_serves_no_entry_from_other_code(tmp_path, monkeypatch):
    # entries written under another version_hash are never read, for both
    # kinds: the lookups miss and recompute
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    c_gs = iter([2.5, 3.5])
    monkeypatch.setattr(analysis, "estimate_constants", lambda proj: ConstantEstimates(
        c_ku=1.0, b=3.0, bernstein_norms={}, ball_volume_1=1.0, c_g=next(c_gs), b_verified=False))
    with monkeypatch.context() as m:
        m.setattr(analysis, "version_hash", lambda: "0" * 16)
        old = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
        assert analysis.oscillation_constant(old, str(tmp_path)) == (2.5, False)
    # a wrong band under the other version would show if it were served
    (stale,) = tmp_path.glob("spectrum-*.npz")
    np.savez_compressed(stale, vals=old.eigenvalues + 1.0, vecs=old.eigenvectors)
    counts0 = dict(analysis.CACHE_COUNTS)
    proj = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
    assert analysis.oscillation_constant(proj, str(tmp_path)) == (3.5, False)
    assert (analysis.CACHE_COUNTS["misses"] - counts0["misses"],
            analysis.CACHE_COUNTS["hits"] - counts0["hits"]) == (2, 0)
    assert np.array_equal(proj.eigenvalues, old.eigenvalues)
    # the new entries replaced the other version's
    assert sorted(p.name.split("-")[1] for p in tmp_path.iterdir()) == [analysis.version_hash()] * 2


def test_cache_write_prunes_other_versions(tmp_path):
    # a miss deletes the entry of the same kind, grid and omega that another
    # version wrote, and nothing else
    grid = Grid.regular(EuclideanModel(1), [0.0], [1.0], (8,))
    other = Grid.regular(EuclideanModel(1), [0.0], [1.0], (16,))
    stale = tmp_path / f"spectrum-{'0' * 16}-{grid.content_hash()}-1.0.npz"
    keep = [
        tmp_path / f"spectrum-{'0' * 16}-{grid.content_hash()}-2.0.npz",
        tmp_path / f"spectrum-{'0' * 16}-{other.content_hash()}-1.0.npz",
        tmp_path / f"constants-{'0' * 16}-{grid.content_hash()}-1.0.npz",
    ]
    for path in [stale, *keep]:
        np.savez_compressed(path, a=np.zeros(1))
    counts0 = dict(analysis.CACHE_COUNTS)
    arrays = analysis._cached("spectrum", grid, 1.0, str(tmp_path), lambda: {"a": np.arange(3)})
    assert analysis.CACHE_COUNTS["misses"] - counts0["misses"] == 1
    assert np.array_equal(arrays["a"], np.arange(3))
    new = tmp_path / f"spectrum-{analysis.version_hash()}-{grid.content_hash()}-1.0.npz"
    assert sorted(tmp_path.iterdir()) == sorted([new, *keep])


def test_estimate_constants_flags_unverified_b(tmp_path):
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    proj = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
    est = estimate_constants(proj, b_scan=(2.0, 3.0))
    assert est.b_verified is False
    assert est.b == 3.0


def test_estimate_constants_flags_verified_b(tmp_path, monkeypatch):
    # with derivative fields far above any difference quotient every b
    # passes, so the first scanned one is taken and verified
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    proj = sublaplacian_spectrum(grid, 1.0, cache_dir=str(tmp_path))
    monkeypatch.setattr(
        analysis, "vector_field_apply", lambda j, f: GridFunction(f.grid, np.full(f.grid.shape, 1e6))
    )
    est = estimate_constants(proj, b_scan=(2.0, 3.0))
    assert est.b_verified is True
    assert est.b == 2.0


def test_estimate_constants_rejects_k_ball_without_nodes(h1_small):
    # the nearest node of the 9^3 grid lies at gauge 1.83, so B_1 holds no
    # node and c_ku, a sup over the nodes of B_b, would make C_G 0
    _, proj = h1_small
    with pytest.raises(ValueError, match=r"b = 1 holds no grid node .* gauge 1\.83"):
        estimate_constants(proj, b_scan=(0.5, 1.0))


def _per_direction_verdicts(proj, b_scan):
    """The mean-value verdict at each b of ``b_scan``, as the scan computed
    it with nested loops, rebuilding the z-sample, x z and the sup for each
    of the 16 directions y (the reference for the one-predicate scan)."""
    grid = proj.grid
    model = grid.model
    n = model.dim
    funcs = [GridFunction(grid, v) for v in proj.eigenvectors] + analysis._bump_family(grid, 12, 0)
    family = [k for k in range(len(funcs)) if k < 16 or k >= proj.dim]
    nfirst = model.weights.count(1)
    units = [tuple(int(d == j) for d in range(n)) for j in range(n)]
    grads = {k: [analysis._derivative({(0,) * n: funcs[k]}, e) for e in units] for k in family}
    rng = np.random.default_rng(1)
    mid = 0.5 * (grid.lo + grid.hi)
    span = grid.hi - grid.lo
    xs_int = mid + rng.uniform(-0.2, 0.2, size=(24, n)) * span
    xs = model.from_internal(xs_int)
    rmax = 0.2 * float(np.min(span[:nfirst]))
    ys = model.dilate(1.0, model.sphere(16))
    radii = rng.uniform(0.2, 1.0, size=4) * rmax

    verdicts = []
    for b_try in b_scan:
        ok = True
        for k in family:
            f = funcs[k]
            fx = f.at(xs)
            for rad in radii:
                yr = model.dilate(rad, ys)
                for y in yr:
                    xy = model.mul(xs, y)
                    lhs = np.abs(f.at(xy) - fx)
                    zdirs = np.concatenate(
                        [model.dilate(b_try * rad * fr, model.sphere(12)) for fr in (1.0, 0.5)]
                        + [np.zeros((1, n))]
                    )
                    xz = model.mul(xs[:, None, :], zdirs[None, :, :])
                    sup = np.zeros(len(xs))
                    for g in grads[k]:
                        gv = np.abs(g.at(xz))
                        np.maximum(sup, gv.max(axis=1), out=sup)
                    if np.any(lhs > rad * sup + 1e-12):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        verdicts.append(ok)
    return verdicts


@pytest.fixture(scope="module")
def h1_origin():
    """The band projector of a 9^3 grid with a node at the origin, so that no
    B_b is empty and each b can be scanned alone."""
    grid = Grid.regular(HeisenbergModel(), [-8.0] * 3, [10.0] * 3, (9,) * 3)
    return sublaplacian_spectrum(grid, 1.0)


@pytest.mark.parametrize("scale,b_scan,expected", [
    (1.0, (1.0, 1.25, 1.5, 2.0, 2.5, 3.0), [False] * 6),
    # fields 5 times X_j: b = 2 passes; at b = 1.5 and 2.5 one direction
    # at one radius violates, so a scan that checks fewer misses it
    (5.0, (1.5, 2.0, 2.5), [False, True, False]),
], ids=["fields", "fields-x5"])
def test_mean_value_verdicts_match_per_direction_loop(h1_origin, monkeypatch, scale, b_scan,
                                                     expected):
    # a scan of one b returns that b, verified or not
    proj = h1_origin
    apply = analysis.vector_field_apply
    monkeypatch.setattr(analysis, "vector_field_apply", lambda j, f: apply(j, f) * scale)
    verdicts = [estimate_constants(proj, b_scan=(b,)).b_verified for b in b_scan]
    assert verdicts == _per_direction_verdicts(proj, b_scan) == expected


def test_mean_value_slack_absorbs_differences_below_1e12(h1_origin, monkeypatch):
    # with zero fields the sup is 0, so only the 1e-12 slack lets functions
    # of size 1e-13 pass
    grid = h1_origin.grid
    rng = np.random.default_rng(0)
    proj = SpectralProjector(grid, 1.0, np.zeros(2), 1e-13 * rng.uniform(size=(2,) + grid.shape))
    bumps = [GridFunction(grid, 1e-13 * rng.uniform(size=grid.shape)) for _ in range(2)]
    monkeypatch.setattr(analysis, "_bump_family", lambda grid, count, seed: bumps)
    monkeypatch.setattr(analysis, "vector_field_apply", lambda j, f: f * 0.0)
    est = estimate_constants(proj, b_scan=(1.0,))
    assert [est.b_verified] == _per_direction_verdicts(proj, (1.0,)) == [True]


@pytest.fixture(scope="module")
def h1_small():
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    return grid, sublaplacian_spectrum(grid, 1.0)


def _apply_multiindex(alpha, f):
    """X^alpha f composed from scratch, fields applied left to right."""
    out = f
    for i, k in enumerate(alpha):
        for _ in range(int(k)):
            out = analysis.vector_field_apply(i, out)
    return out


def test_estimate_constants_matches_per_alpha_composition(h1_small, monkeypatch):
    grid, proj = h1_small
    calls = []
    apply = analysis.vector_field_apply

    def counted(i, f):
        calls.append(i)
        return apply(i, f)

    monkeypatch.setattr(analysis, "vector_field_apply", counted)
    est = estimate_constants(proj)
    # one application per distinct (function, alpha): |alpha| <= 4 on every
    # eigenvector, |alpha| <= 3 on each of the 12 bumps
    assert proj.dim > 16
    n_pairs = len(analysis._multiindices(3, 4)) * proj.dim + len(analysis._multiindices(3, 3)) * 12
    assert len(calls) == n_pairs

    # the reference composes every X^alpha from scratch
    monkeypatch.setattr(analysis, "_derivative", lambda tree, a: _apply_multiindex(a, tree[(0, 0, 0)]))
    ref = estimate_constants(proj)
    assert len(calls) > 3 * n_pairs
    for name in ("c_ku", "c_g", "b", "ball_volume_1", "b_verified"):
        assert getattr(est, name) == getattr(ref, name), name
    assert list(est.bernstein_norms.items()) == list(ref.bernstein_norms.items())


def test_cold_spectrum_repeats_bit_for_bit(h1_small):
    grid, proj = h1_small
    again = sublaplacian_spectrum(grid, 1.0)
    assert _sha(again.eigenvalues) == _sha(proj.eigenvalues)
    assert _sha(again.basis_matrix()) == _sha(proj.basis_matrix())
    # the sign convention: each eigenvector's largest-modulus entry is positive
    b = proj.basis_matrix()
    assert np.all(b[np.arange(len(b)), np.argmax(np.abs(b), axis=1)] > 0)


def test_spectrum_factors_once_across_restarts(monkeypatch):
    import importlib

    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
    counts = {"splu": 0, "eigsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # scipy's eigsh factors through its own reference to splu
    monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
    monkeypatch.setattr(arpack, "splu", counted("splu", arpack.splu))
    monkeypatch.setattr(spla, "eigsh", counted("eigsh", spla.eigsh))
    grid = Grid.regular(HeisenbergModel(), [-7.0] * 3, [7.0] * 3, (9,) * 3)
    proj = sublaplacian_spectrum(grid, 1.0)
    # 36 eigenpairs in the band: k = 16, 32, 64
    assert proj.dim > 32
    assert counts == {"splu": 1, "eigsh": 3}


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
