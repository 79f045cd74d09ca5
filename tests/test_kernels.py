import hashlib
import math

import numpy as np
import pytest

from groupsample import (
    EuclideanModel,
    AffineModel,
    Grid,
    GridFunction,
    interpolate,
    oscillation_l1_box,
)
from groupsample.frames import hypothesis_scan
from groupsample.kernels import (
    BasisKernel,
    SincKernel,
    SpectralProjector,
    admissibility_constant,
    mexican_hat,
    mexican_hats,
    wavelet_transform,
    cosine_taper_bump,
    mollified_vector,
    WaveletSystem,
    _conv_hstar_at,
)


@pytest.fixture(scope="module")
def line_grid():
    return Grid.regular(EuclideanModel(1), [-20.0], [20.0], (2048,))


@pytest.fixture(scope="module")
def affine_grid():
    return Grid.regular(AffineModel(), [-3.0, -16.0], [3.0, 16.0], (66, 292))


@pytest.fixture(scope="module")
def wavelet_system(line_grid, affine_grid):
    psi = mexican_hat(line_grid)
    h = cosine_taper_bump(affine_grid)
    return mollified_vector(psi, affine_grid, h=h)


def test_sinc_projection_idempotent():
    # projection through the basis: synthesize(coefficients(f))
    grid = Grid.regular(EuclideanModel(1), [-16.0], [16.0], (512,))
    k = SincKernel(grid, 0.5)
    f = GridFunction.from_callable(grid, lambda x: np.exp(-(x**2) / 8.0))
    p = k.synthesize(k.coefficients(f))
    assert (k.synthesize(k.coefficients(p)) - p).norm_l2() < 1e-10


def test_sinc_reproducing_property():
    grid = Grid.regular(EuclideanModel(1), [-16.0], [16.0], (512,))
    k = SincKernel(grid, 0.5)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(k.dim)
    f = k.synthesize(c)
    for x in (0.3, -4.7, 7.21):
        pv = k.reproducing_vector(x)
        exact = complex(c @ k.basis_at([[x]])[:, 0])
        assert f.inner(pv) == pytest.approx(exact, abs=1e-9)
        # node interpolation agrees to its own tolerance
        assert f.inner(pv) == pytest.approx(complex(f.at([[x]])[0]), abs=5e-3)


def test_sinc_band_mode_count():
    grid = Grid.regular(EuclideanModel(1), [-64.0], [64.0], (8192,))
    k = SincKernel(grid, 0.5)
    # frequencies k/128 with |nu| < 1/2: 2*63 + 1 modes
    assert k.dim == 127


def test_mexican_hat_unit_admissibility(line_grid):
    psi = mexican_hat(line_grid)
    assert admissibility_constant(psi) == pytest.approx(1.0, rel=1e-10)
    # zero mean: the hat has one vanishing moment
    w = line_grid.spacings[0]
    assert abs(np.sum(psi.values) * w) < 1e-10


def test_admissibility_oracle(line_grid):
    # Gaussian-derivative oracle: psi(s) = -s e^{-s^2/2} has
    # psi_hat(xi) = 2 pi i xi sqrt(2 pi) e^{-2 pi^2 xi^2}, so
    # int_0^inf |psi_hat|^2 dxi/xi = 8 pi^3 int xi e^{-4 pi^2 xi^2} dxi = pi
    psi = GridFunction.from_callable(line_grid, lambda s: -s * np.exp(-(s**2) / 2))
    assert admissibility_constant(psi) == pytest.approx(np.pi, rel=1e-2)


def test_wavelet_transform_isometry(line_grid, affine_grid):
    psi = mexican_hat(line_grid)
    phi = GridFunction.from_callable(line_grid, lambda s: (1 - s**2) * np.exp(-(s**2) / 2))
    (W,) = wavelet_transform([phi], psi, affine_grid)
    assert W.norm_l2() == pytest.approx(phi.norm_l2(), rel=2e-2)


def test_wavelet_transform_detects_leakage(line_grid):
    tiny = Grid.regular(AffineModel(), [-0.2, -0.5], [0.2, 0.5], (8, 16))
    psi = mexican_hat(line_grid)
    phi = GridFunction.from_callable(line_grid, lambda s: np.exp(-(s**2) / 2))
    with pytest.raises(ValueError):
        wavelet_transform([phi], psi, tiny)


def test_cosine_taper_support(affine_grid):
    h = cosine_taper_bump(affine_grid)
    u = affine_grid.nodes_internal()
    outside = (np.abs(u[..., 0]) >= 1.0) | (np.abs(u[..., 1]) >= 1.0)
    assert np.all(np.abs(h.values[outside]) == 0.0)
    assert h.values.real.max() == pytest.approx(1.0, rel=0.05)


def test_oscillation_l1_box_constant():
    # constants oscillate only across the zero padding at the box edge, so
    # the L1 mass stays a boundary-layer fraction of the norm and grows
    # with the box half-width
    grid = Grid.regular(AffineModel(), [-2.0, -8.0], [2.0, 8.0], (40, 160))
    g = GridFunction(grid, np.ones(grid.shape))
    small = oscillation_l1_box(g, (0.05, 0.05))
    large = oscillation_l1_box(g, (0.1, 0.1))
    assert small < 0.1 * g.norm_l1()
    assert small < large


def test_mollified_vector_hypothesis_scan(wavelet_system):
    scan = hypothesis_scan(wavelet_system, (0.3, 0.2, 0.1))
    eps = [row["epsilon"] for row in scan["rows"]]
    assert eps[0] > eps[1] > eps[2]
    assert scan["u_star"] is not None
    assert scan["c_factor"] > 0


def test_transform_eta_two_paths_agree(wavelet_system, line_grid, affine_grid):
    # independent paths: convolution V_psi phi * h^* on the affine grid
    # versus the direct line quadrature against eta = V_psi^* h
    phi = GridFunction.from_callable(
        line_grid, lambda s: (1 - (s / 1.2) ** 2) * np.exp(-(s**2) / (2 * 1.44))
    )
    pts = np.array([[1.0, 0.0], [math.e, 0.5], [0.5, -1.0], [1.5, 2.0]])
    (W,) = wavelet_transform([phi], wavelet_system.psi, affine_grid)
    (conv_path,) = _conv_hstar_at([W], wavelet_system.h, pts)
    (direct_path,) = wavelet_system.transform_eta_direct([phi], pts).T
    scale = np.abs(direct_path).max()
    assert np.allclose(conv_path, direct_path, atol=5e-2 * scale)


# references: the per-signal loops the wavelet layer ran before it took a
# batch of signals, copied as they were; the batched calls must keep each
# signal's bytes


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _wavelet_transform_reference(phi, psi, affine_grid):
    s = phi.grid.axis(0)
    hs = float(phi.grid.spacings[0])
    us = affine_grid.axis(0)
    bs = affine_grid.axis(1)
    out = np.empty(affine_grid.shape, dtype=np.complex128)
    for i, u in enumerate(us):
        a = math.exp(u)
        arg = (s[:, None] - bs[None, :]) / a  # (ns, nb)
        tpl = interpolate(psi.values, psi.grid, arg.reshape(-1, 1)).reshape(arg.shape)
        out[i] = hs * (phi.values[None, :] @ np.conj(tpl))[0] / math.sqrt(a)
    return out


def _conv_hstar_at_reference(F, h, points_chart):
    chunk = 64
    model = F.grid.model
    hg = h.grid
    w = hg.weights().reshape(-1)
    hv = h.values.reshape(-1)
    supp = np.nonzero(np.abs(hv) > 1e-14)[0]
    z = hg.points().reshape(-1, 2)[supp]
    coef = (w[supp] * np.conj(hv[supp]))[None, :]
    pts = np.asarray(points_chart, dtype=float).reshape(-1, 2)
    out = np.empty(len(pts), dtype=np.complex128)
    for s in range(0, len(pts), chunk):
        blk = pts[s : s + chunk]
        y = model.mul(blk[:, None, :], z[None, :, :])
        Fv = F.at(y.reshape(-1, 2)).reshape(len(blk), -1)
        out[s : s + chunk] = np.sum(coef * Fv, axis=1)
    return out


def _transform_eta_direct_reference(psi, h, phi, points_chart):
    lo, hi = phi.grid.lo[0], phi.grid.hi[0]
    n_eta = max(8192, phi.grid.shape[0])
    s_grid = Grid.regular(phi.grid.model, [1.5 * lo], [1.5 * hi], (n_eta,))
    # eta on the line, as the memoized eta_on_line built it
    hg = h.grid
    w = hg.weights().reshape(-1)
    hv = h.values.reshape(-1)
    supp = np.nonzero(np.abs(hv) > 1e-14)[0]
    zs = hg.points().reshape(-1, 2)[supp]
    coef = w[supp] * hv[supp]
    s = s_grid.axis(0)
    vals = np.zeros(len(s), dtype=np.complex128)
    for (a, b), c in zip(zs, coef):
        vals += c * interpolate(psi.values, psi.grid, ((s - b) / a)[:, None]) / math.sqrt(a)
    ev = GridFunction(s_grid, vals.reshape(s_grid.shape)).values
    tau_full = s_grid.axis(0)
    htau = float(s_grid.spacings[0])
    keep = np.abs(ev) > 1e-13 * np.abs(ev).max()
    i0, i1 = np.nonzero(keep)[0][[0, -1]]
    tau = tau_full[i0 : i1 + 1]
    ec = np.conj(ev[i0 : i1 + 1]) * htau
    s_ax = phi.grid.axis(0)
    pv_re = phi.values.real
    pv_im = phi.values.imag
    phi_cplx = np.any(pv_im != 0)
    s_lo, s_hi = float(s_ax[0]), float(s_ax[-1])
    pts = np.asarray(points_chart, dtype=float).reshape(-1, 2)
    out = np.zeros(len(pts), dtype=np.complex128)
    order = np.argsort(pts[:, 0])
    sorted_a = pts[order, 0]
    starts = np.searchsorted(sorted_a, np.unique(sorted_a))
    starts = np.append(starts, len(pts))
    for si in range(len(starts) - 1):
        sel = order[starts[si] : starts[si + 1]]
        a = pts[sel[0], 0]
        bs = pts[sel, 1]
        live = (bs > s_lo - a * tau[-1] - 1.0) & (bs < s_hi - a * tau[0] + 1.0)
        if not np.any(live):
            continue
        sel = sel[live]
        bs = bs[live]
        blk = max(1, int(4e6 / len(tau)))
        for j0 in range(0, len(sel), blk):
            bj = bs[j0 : j0 + blk]
            arg = a * tau[:, None] + bj[None, :]  # (n_tau, n_b)
            fre = np.interp(arg.ravel(), s_ax, pv_re, left=0.0, right=0.0)
            if phi_cplx:
                fv = fre + 1j * np.interp(arg.ravel(), s_ax, pv_im, left=0.0, right=0.0)
            else:
                fv = fre
            out[sel[j0 : j0 + blk]] = math.sqrt(a) * (ec @ fv.reshape(arg.shape))
    return out


@pytest.fixture(scope="module")
def signal_batch(line_grid):
    # two real hats and a modulated, complex one
    hats = mexican_hats(line_grid, [(0.0, 1.0), (0.7, 1.3), (-1.1, 0.8)])
    (s,) = np.moveaxis(line_grid.points(), -1, 0)
    hats[1] = GridFunction(line_grid, hats[1].values * np.exp(0.9j * s))
    assert np.any(hats[1].values.imag != 0)
    return hats


@pytest.fixture(scope="module")
def small_affine_grid():
    return Grid.regular(AffineModel(), [-3.0, -16.0], [3.0, 16.0], (33, 146))


def test_wavelet_transform_batch_matches_per_signal_loop_bytes(line_grid, small_affine_grid, signal_batch):
    psi = mexican_hat(line_grid)
    refs = [_digest(_wavelet_transform_reference(phi, psi, small_affine_grid)) for phi in signal_batch]
    Ws = wavelet_transform(signal_batch, psi, small_affine_grid)
    assert [_digest(W.values) for W in Ws] == refs
    (W,) = wavelet_transform(signal_batch[1:2], psi, small_affine_grid)
    assert _digest(W.values) == refs[1]


def test_conv_hstar_at_batch_matches_per_function_loop_bytes(line_grid, small_affine_grid, signal_batch):
    Ws = wavelet_transform(signal_batch, mexican_hat(line_grid), small_affine_grid)
    h = cosine_taper_bump(small_affine_grid)
    rng = np.random.default_rng(4)
    # 150 points: two full chunks of 64 and a partial one
    pts = np.stack([np.exp(rng.uniform(-2.0, 2.0, 150)), rng.uniform(-10.0, 10.0, 150)], axis=1)
    refs = [_digest(_conv_hstar_at_reference(W, h, pts)) for W in Ws]
    out = _conv_hstar_at(Ws, h, pts)
    assert out.shape == (3, 150)
    assert [_digest(row) for row in out] == refs
    (row,) = _conv_hstar_at(Ws[1:2], h, pts)
    assert _digest(row) == refs[1]


def test_transform_eta_direct_batch_matches_per_signal_loop_bytes(line_grid, affine_grid, signal_batch):
    psi = mexican_hat(line_grid)
    h = cosine_taper_bump(affine_grid)
    system = WaveletSystem(psi=psi, h=h, c_factor=1.0)
    # several scales, one of them with more shifts than one block holds,
    # and shifts far off the signals' support
    b_wide = np.linspace(-30.0, 30.0, 1500)
    pts = np.concatenate([
        np.stack([np.ones_like(b_wide), b_wide], axis=1),
        [[0.3, 0.0], [0.3, 2.5], [2.0, -1.0], [math.e, 0.5], [4.0, 300.0], [0.05, -80.0]],
    ])
    refs = [_digest(_transform_eta_direct_reference(psi, h, phi, pts)) for phi in signal_batch]
    out = system.transform_eta_direct(signal_batch, pts)
    assert out.shape == (len(pts), 3)
    assert [_digest(col) for col in out.T] == refs
    one = system.transform_eta_direct(signal_batch[1:2], pts)
    assert one.shape == (len(pts), 1)
    assert _digest(one[:, 0]) == refs[1]


def test_wavelet_batches_need_one_line_grid(line_grid, affine_grid, signal_batch):
    other = mexican_hats(Grid.regular(EuclideanModel(1), [-20.0], [20.0], (1024,)), [(0.0, 1.0)])
    psi = mexican_hat(line_grid)
    system = WaveletSystem(psi=psi, h=cosine_taper_bump(affine_grid), c_factor=1.0)
    for call in (lambda fs: wavelet_transform(fs, psi, affine_grid),
                 lambda fs: system.transform_eta_direct(fs, [[1.0, 0.0]])):
        with pytest.raises(ValueError, match="shared grid required"):
            call(signal_batch + other)
        with pytest.raises(ValueError, match="no functions given"):
            call([])


def test_spectral_projector_holds_band_elements(h1_proj):
    from groupsample import random_bandlimited

    assert h1_proj.basis_matrix().shape == (h1_proj.dim, h1_proj.grid.size)
    f = random_bandlimited(h1_proj, seed=2)
    defect = (h1_proj.synthesize(h1_proj.coefficients(f)) - f).norm_l2() / f.norm_l2()
    assert defect < 1e-8


def test_sinc_shared_base_matches_per_kernel_expressions():
    # reference: the expressions SincKernel evaluated before it shared
    # BasisKernel, written out on a freshly built basis
    grid = Grid.regular(EuclideanModel(1), [-16.0], [16.0], (512,))
    k = SincKernel(grid, 0.5)
    B = k.basis_at(grid.points().reshape(-1, 1))
    w = grid.weights().reshape(-1)
    rng = np.random.default_rng(3)
    c_real = rng.standard_normal(k.dim)
    c_cplx = c_real + 1j * rng.standard_normal(k.dim)
    for c in (c_real, c_cplx):
        assert np.array_equal(k.synthesize(c).values, (B.T @ c).reshape(grid.shape))
    f = GridFunction.from_callable(grid, lambda x: np.exp(-(x**2) / 8.0))
    assert np.array_equal(k.coefficients(f), np.conj(B) @ (w * f.values.reshape(-1)))
    for x in (0.3, -4.7):
        e_x = k.basis_at([[x]])[:, 0]
        ref = (B.T @ np.conj(e_x)).reshape(grid.shape)
        assert np.array_equal(k.reproducing_vector(x).values, ref)


def test_spectral_projector_matches_its_own_expressions_exactly(h1_proj):
    # reference: the expressions SpectralProjector evaluated before it
    # shared BasisKernel, written out over its eigenvectors
    E = h1_proj.eigenvectors
    w = h1_proj.grid.weights().reshape(-1)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(h1_proj.dim) + 1j * rng.standard_normal(h1_proj.dim)
    f = h1_proj.synthesize(c)
    assert np.array_equal(f.values, np.tensordot(c, E, axes=(0, 0)))
    ref_coeffs = E.reshape(h1_proj.dim, -1).conj() @ (w * f.values.reshape(-1))
    assert np.array_equal(h1_proj.coefficients(f), ref_coeffs)
    assert np.array_equal(
        h1_proj.synthesize(h1_proj.coefficients(f)).values, np.tensordot(ref_coeffs, E, axes=(0, 0))
    )
    x = [0.4, -1.1, 0.7]
    e_x = h1_proj.basis_at([x])[:, 0]
    ref = np.tensordot(np.conj(e_x), E, axes=(0, 0))
    assert np.array_equal(h1_proj.reproducing_vector(x).values, ref)


def test_kernels_share_one_base():
    for cls in (SincKernel, SpectralProjector):
        assert issubclass(cls, BasisKernel)
        for name in ("coefficients", "synthesize", "reproducing_vector"):
            assert name not in vars(cls)
        for name in ("basis_at", "basis_matrix", "dim"):
            assert name in vars(cls)


def test_sinc_basis_built_once_and_read_only(monkeypatch):
    grid = Grid.regular(EuclideanModel(1), [-16.0], [16.0], (512,))
    k = SincKernel(grid, 0.5)
    widths = []
    basis_at = SincKernel.basis_at

    def counting(self, pts):
        out = basis_at(self, pts)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(SincKernel, "basis_at", counting)
    f = GridFunction.from_callable(grid, lambda x: np.exp(-(x**2) / 8.0))
    c = np.ones(k.dim)
    for _ in range(3):
        k.synthesize(c)
        k.coefficients(f)
        k.reproducing_vector(0.3)
    assert widths.count(512) == 1
    B = k.basis_matrix()
    assert B is k.basis_matrix()
    assert not B.flags.writeable
    with pytest.raises(ValueError):
        B[0, 0] = 0.0
