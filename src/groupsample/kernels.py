"""Reproducing kernels of the three left-invariant spaces: band-limited
(sinc) spaces on R^n, spectral-projection spaces on H1, and the wavelet
range space on the affine group.

The sinc kernel and the spectral projector share one discrete interface,
:class:`BasisKernel`: an orthonormal basis of the space (evaluable at
arbitrary chart points through ``basis_at``, and on the grid nodes as the
matrix ``basis_matrix``) and reproducing vectors p_x.  Coefficients,
synthesis and reproducing vectors are read off the basis matrix, which each
kernel builds at most once.  The frame layer consumes only this interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction, interpolate, shared_grid
from .groups import EuclideanModel, AffineModel

__all__ = [
    "BasisKernel",
    "SincKernel",
    "SpectralProjector",
    "mexican_hats",
    "mexican_hat",
    "admissibility_constant",
    "wavelet_transform",
    "cosine_taper_bump",
    "WaveletSystem",
    "mollified_vector",
]


class BasisKernel:
    """Space spanned by an orthonormal basis B of shape (dim, n_nodes).

    Subclasses supply ``grid``, ``dim``, ``basis_at`` (basis values at
    chart points, shape (dim, n_points)) and ``basis_matrix`` (the basis on
    the grid nodes).
    """

    def coefficients(self, f: GridFunction) -> np.ndarray:
        w = self.grid.weights().reshape(-1)
        return np.conj(self.basis_matrix()) @ (w * f.values.reshape(-1))

    def synthesize(self, coeffs) -> GridFunction:
        vals = np.tensordot(np.asarray(coeffs), self.basis_matrix(), axes=(0, 0))
        return GridFunction(self.grid, vals.reshape(self.grid.shape))

    def reproducing_vector(self, x) -> GridFunction:
        x = np.asarray(x, dtype=float).reshape(1, self.grid.dim)
        return self.synthesize(np.conj(self.basis_at(x)[:, 0]))


class SincKernel(BasisKernel):
    """Band-limited space on a Euclidean grid: modes with |nu_d| < band.

    The band is half-open (strict inequality), so the critical integer
    lattice keeps the mode count odd and the band-edge alias pair out of the
    space.  Basis functions are the DFT exponentials; off-node evaluation is
    analytic, not interpolated.
    """

    def __init__(self, grid: Grid, band: float):
        if not isinstance(grid.model, EuclideanModel):
            raise ValueError("sinc kernel requires a Euclidean grid")
        if band <= 0:
            raise ValueError("band must be positive")
        self.grid = grid
        self.band = float(band)
        freqs = [np.fft.fftfreq(n, d=h) for n, h in zip(grid.shape, grid.spacings)]
        mesh = np.meshgrid(*freqs, indexing="ij")
        mask = np.ones(grid.shape, dtype=bool)
        for f in mesh:
            mask &= np.abs(f) < band
        self.freqs = np.stack([f[mask] for f in mesh], axis=-1)  # (m, dim) cycles
        self._basis = None

    @property
    def dim(self) -> int:
        return len(self.freqs)

    def basis_at(self, points_chart) -> np.ndarray:
        """Orthonormal basis values, shape (dim, n_points); exact everywhere."""
        pts = np.asarray(points_chart, dtype=float).reshape(-1, self.grid.dim)
        vol = float(np.prod(self.grid.hi - self.grid.lo))
        phase = self.freqs @ pts.T  # (m, P)
        return np.exp(2j * np.pi * phase) / math.sqrt(vol)

    def basis_matrix(self) -> np.ndarray:
        """The basis on the grid nodes, built on first use; read-only."""
        if self._basis is None:
            basis = self.basis_at(self.grid.points().reshape(-1, self.grid.dim))
            basis.setflags(write=False)
            self._basis = basis
        return self._basis


@dataclass
class SpectralProjector(BasisKernel):
    """Retained eigenpairs of the discrete sub-Laplacian up to bandwidth
    omega: the band space and its reproducing kernel."""

    grid: Grid
    omega: float
    eigenvalues: np.ndarray  # ascending, all <= omega
    eigenvectors: np.ndarray  # shape (m, *grid.shape), orthonormal in the weighted inner product

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def basis_at(self, points_chart) -> np.ndarray:
        pts = np.asarray(points_chart, dtype=float).reshape(-1, self.grid.dim)
        return interpolate(self.eigenvectors, self.grid, self.grid.model.to_internal(pts))

    def basis_matrix(self) -> np.ndarray:
        return self.eigenvectors.reshape(self.dim, -1)


# ---------------------------------------------------------------------------
# wavelets on the affine group
# ---------------------------------------------------------------------------


def admissibility_constant(psi: GridFunction) -> float:
    """Calderon integral int_0^inf |psi_hat(xi)|^2 dxi/xi (positive frequencies).

    With a real-valued wavelet the negative-frequency integral is equal, so
    normalizing this to 1 makes the wavelet transform an isometry for the
    full affine group with Haar measure da db / a^2.
    """
    grid = psi.grid
    n = grid.shape[0]
    h = float(grid.spacings[0])
    spec = np.fft.fft(psi.values) * h
    xi = np.fft.fftfreq(n, d=h)
    pos = xi > 0
    return float(np.sum(np.abs(spec[pos]) ** 2 / xi[pos]) * (1.0 / (n * h)))


def mexican_hats(grid: Grid, params) -> list:
    """Mexican hats (1 - u^2) exp(-u^2 / 2), u = (s - shift) / width, on a
    line grid, one per (shift, width) in ``params``; not normalized."""
    (s,) = np.moveaxis(grid.points(), -1, 0)
    return [
        GridFunction(grid, (1 - ((s - sh) / wd) ** 2) * np.exp(-((s - sh) ** 2) / (2 * wd**2)))
        for sh, wd in params
    ]


def mexican_hat(grid: Grid) -> GridFunction:
    """Second Gaussian derivative of width 1, normalized to unit admissibility."""
    (psi,) = mexican_hats(grid, [(0.0, 1.0)])
    return psi * (1.0 / math.sqrt(admissibility_constant(psi)))


def wavelet_transform(phis, psi: GridFunction, affine_grid: Grid) -> list:
    """V_psi phi (a, b) = <phi, pi(a,b) psi> on the affine grid, one
    GridFunction per signal of ``phis``, which share one line grid.

    pi(a,b)psi(s) = a^{-1/2} psi((s-b)/a).  The scale axis of the grid is
    logarithmic (internal coordinate u = ln a); each scale's template of psi
    is built once for all the signals.  Raises when the grid misses more
    than 5% of a signal's energy (isometry defect), which signals that the
    scale/shift window does not cover its content.
    """
    if not isinstance(affine_grid.model, AffineModel):
        raise ValueError("target grid must be affine")
    line = shared_grid(phis)
    s = line.axis(0)
    hs = float(line.spacings[0])
    us = affine_grid.axis(0)
    bs = affine_grid.axis(1)
    outs = [np.empty(affine_grid.shape, dtype=np.complex128) for _ in phis]
    for i, u in enumerate(us):
        a = math.exp(u)
        arg = (s[:, None] - bs[None, :]) / a  # (ns, nb)
        tpl = interpolate(psi.values, psi.grid, arg.reshape(-1, 1)).reshape(arg.shape)
        ctpl = np.conj(tpl)
        # one single-row product per signal: a merged product rounds differently
        for phi, out in zip(phis, outs):
            out[i] = hs * (phi.values[None, :] @ ctpl)[0] / math.sqrt(a)
    Ws = [GridFunction(affine_grid, out) for out in outs]
    for phi, W in zip(phis, Ws):
        defect = abs(W.norm_l2() - phi.norm_l2()) / phi.norm_l2()
        if defect > 0.05:
            raise ValueError(
                f"affine grid misses the scale content of the signal "
                f"(isometry defect {defect:.3f} > 0.05)"
            )
    return Ws


def cosine_taper_bump(affine_grid: Grid) -> GridFunction:
    """Compactly supported cos^2 bump on |ln a|, |b| < 1 around the identity."""

    def fn(u, b):
        m = (np.abs(u) < 1.0) & (np.abs(b) < 1.0)
        return np.where(m, np.cos(np.pi * u / 2.0) ** 2 * np.cos(np.pi * b / 2.0) ** 2, 0.0)

    return GridFunction.from_callable(affine_grid, fn, chart=False)


@dataclass
class WaveletSystem:
    """Mother wavelet, mollifier h, and the derived vector eta of the
    convolution identity V_eta phi = V_psi phi * h^*."""

    psi: GridFunction
    h: GridFunction
    c_factor: float  # ||V_psi phi|| / ||V_eta phi|| over the probe family (max)

    def transform_eta_direct(self, phis, points_chart) -> np.ndarray:
        """V_eta phi(gamma) = <phi, pi(gamma) eta> by direct line quadrature,
        shape (n_points, n_phis), for signals ``phis`` on one line grid.

        eta = V_psi^* h is realized on the line, once per call: with
        unit-admissible psi the transform is an isometry, so the adjoint
        inverts it on its range and eta(s) = int h(a,b) pi(a,b)psi(s)
        dmu(a,b).  Evaluating <phi, pi(gamma) eta> with this vector
        reproduces V_psi phi * h^* without touching the affine grid's
        interpolation.  Points are grouped by scale; each block of a scale
        builds its arguments once and is one vectorized correlation per
        signal."""
        line = shared_grid(phis)
        lo, hi = line.lo[0], line.hi[0]
        n_eta = max(8192, line.shape[0])
        s_grid = Grid.regular(line.model, [1.5 * lo], [1.5 * hi], (n_eta,))
        tau_full = s_grid.axis(0)
        zs, w, hv = self.h.support()
        ev = np.zeros(n_eta, dtype=np.complex128)
        for (a, b), c in zip(zs, w * hv):
            tpl = interpolate(self.psi.values, self.psi.grid, ((tau_full - b) / a)[:, None])
            ev += c * tpl / math.sqrt(a)
        htau = float(s_grid.spacings[0])
        # substitution s = a tau + b keeps the quadrature step fine relative
        # to eta's features at every scale; the s-form loses small-a rows
        keep = np.abs(ev) > 1e-13 * np.abs(ev).max()
        i0, i1 = np.nonzero(keep)[0][[0, -1]]
        tau = tau_full[i0 : i1 + 1]
        ec = np.conj(ev[i0 : i1 + 1]) * htau
        s_ax = line.axis(0)
        # real and imaginary parts; None for a real signal
        parts = [(phi.values.real, phi.values.imag if np.any(phi.values.imag != 0) else None)
                 for phi in phis]
        s_lo, s_hi = float(s_ax[0]), float(s_ax[-1])
        pts = np.asarray(points_chart, dtype=float).reshape(-1, 2)
        out = np.zeros((len(pts), len(phis)), dtype=np.complex128)
        order = np.argsort(pts[:, 0])
        sorted_a = pts[order, 0]
        starts = np.searchsorted(sorted_a, np.unique(sorted_a))
        starts = np.append(starts, len(pts))
        for si in range(len(starts) - 1):
            sel = order[starts[si] : starts[si + 1]]
            a = pts[sel[0], 0]
            bs = pts[sel, 1]
            # rows only contribute where a*supp(eta)+b meets supp(phi)
            live = (bs > s_lo - a * tau[-1] - 1.0) & (bs < s_hi - a * tau[0] + 1.0)
            if not np.any(live):
                continue
            sel = sel[live]
            bs = bs[live]
            blk = max(1, int(4e6 / len(tau)))
            for j0 in range(0, len(sel), blk):
                bj = bs[j0 : j0 + blk]
                arg = a * tau[:, None] + bj[None, :]  # (n_tau, n_b)
                flat = arg.ravel()
                for k, (re, im) in enumerate(parts):
                    fv = np.interp(flat, s_ax, re, left=0.0, right=0.0)
                    if im is not None:
                        fv = fv + 1j * np.interp(flat, s_ax, im, left=0.0, right=0.0)
                    out[sel[j0 : j0 + blk], k] = math.sqrt(a) * (ec @ fv.reshape(arg.shape))
        return out

    def h_star(self) -> GridFunction:
        """h^*(x) = conj(h(x^-1)) sampled on an affine grid covering supp(h)^-1."""
        model = self.h.grid.model
        nz, _, _ = self.h.support()
        u_max = float(np.abs(np.log(nz[:, 0])).max())
        # inverse support: u -> -u, b -> -b e^{-u}
        b_max = float(np.abs(nz[:, 1]).max()) * math.exp(u_max)
        grid = Grid.regular(
            model, [-u_max - 0.2, -b_max - 0.2], [u_max + 0.2, b_max + 0.2], (128, 192)
        )
        x = grid.points().reshape(-1, 2)
        vals = np.conj(self.h.at(model.inv(x)))
        return GridFunction(grid, vals.reshape(grid.shape))


def _conv_hstar_at(Fs, h: GridFunction, points_chart) -> np.ndarray:
    """(F * h^*)(x) = int F(x z) conj(h(z)) dmu(z) at chart points x, shape
    (n_Fs, n_points), for functions ``Fs`` on one affine grid; one
    interpolation per chunk of points for all of them."""
    chunk = 64
    grid = shared_grid(Fs)
    model = grid.model
    values = np.stack([F.values for F in Fs])
    z, w, hv = h.support()
    coef = (w * np.conj(hv))[None, :]
    pts = np.asarray(points_chart, dtype=float).reshape(-1, 2)
    out = np.empty((len(Fs), len(pts)), dtype=np.complex128)
    for s in range(0, len(pts), chunk):
        blk = pts[s : s + chunk]
        y = model.to_internal(model.mul(blk[:, None, :], z[None, :, :]).reshape(-1, 2))
        Fv = interpolate(values, grid, y).reshape(len(Fs), len(blk), -1)
        for k in range(len(Fs)):
            out[k, s : s + chunk] = np.sum(coef * Fv[k], axis=1)
    return out


def mollified_vector(psi: GridFunction, affine_grid: Grid, h: GridFunction) -> WaveletSystem:
    """Build the wavelet system of the convolution identity with mollifier h.

    The probes are shifted, dilated copies of the wavelet itself.  Rejects h
    whose projection onto the transform range vanishes (probe norms below
    1e-10).
    """
    probes = mexican_hats(psi.grid, [(0.0, 1.0), (0.7, 1.3), (-1.1, 0.8)])
    Ws = wavelet_transform(probes, psi, affine_grid)
    etas = _conv_hstar_at(Ws, h, affine_grid.points().reshape(-1, 2))
    n_eta = [GridFunction(affine_grid, e.reshape(affine_grid.shape)).norm_l2() for e in etas]
    if min(n_eta) < 1e-10:
        raise ValueError("mollifier projects to zero on the transform range")
    return WaveletSystem(psi=psi, h=h, c_factor=max(W.norm_l2() / n for W, n in zip(Ws, n_eta)))
