"""Frame layer: sampling operator, frame operator, bound estimates,
reconstruction, quasi-interpolation, and theorem-level verdicts.

Everything runs in coefficient space: a kernel supplies an orthonormal basis
{e_i} of the discrete space H, a point set Gamma supplies the evaluation
matrix V[i, gamma] = e_i(gamma), and the frame operator becomes the
Hermitian PSD matrix M = conj(V) V^T.  The extreme eigenvalues of M are the
frame bounds, and reconstruction solves M c = rhs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction
from .groups import EuclideanModel, HeisenbergModel
from .pointsets import PointSet, Partition, verify_separated, verify_dense, gap_lattice
from .kernels import SincKernel, SpectralProjector
from .analysis import oscillation, oscillation_l1_box, random_bandlimited

__all__ = [
    "FrameSystem",
    "FrameBounds",
    "ReconstructionResult",
    "quasi_interpolate",
    "theorem35_verdict",
    "lattice_sum_squares",
    "heisenberg_sampling_experiment",
    "hypothesis_scan",
    "wavelet_frame_bounds",
    "beurling_scan",
]


@dataclass
class FrameBounds:
    a: float
    b: float

    @property
    def tightness(self) -> float:
        return self.b / self.a if self.a > 0 else math.inf

    def __post_init__(self):
        if self.a < -1e-9 or self.b < self.a - 1e-9:
            raise ValueError("need 0 <= A <= B")
        self.a = max(self.a, 0.0)


@dataclass
class ReconstructionResult:
    function: GridFunction
    iterations: int


class FrameSystem:
    """Point set + kernel, with the frame operator cached in coefficient space."""

    def __init__(self, kernel, pointset: PointSet):
        self.kernel = kernel
        self.pointset = pointset
        pts = pointset.points
        grid = kernel.grid
        u = grid.model.to_internal(pts)
        if np.any(u < grid.lo - 1e-9) or np.any(u >= grid.hi + grid.spacings):
            raise ValueError("sample point outside the kernel grid box")
        self.V = kernel.basis_at(pts)  # (m, n_gamma)
        self.M = np.conj(self.V) @ self.V.T
        self.M = 0.5 * (self.M + self.M.conj().T)

    @property
    def dim(self) -> int:
        return self.V.shape[0]

    def sample(self, f: GridFunction) -> np.ndarray:
        """Restriction of f to Gamma by interpolation (exact on nodes)."""
        return f.at(self.pointset.points)

    def estimate_bounds(self) -> FrameBounds:
        """Extreme eigenvalues of the frame operator (dense Hermitian solve)."""
        vals = np.linalg.eigvalsh(self.M)
        return FrameBounds(float(vals[0]), float(vals[-1]))

    def reconstruct(self, samples, bounds: FrameBounds | None = None) -> ReconstructionResult:
        """Solve M c = V^* samples by conjugate gradients, to a relative
        residual below 1e-10 or 2000 iterations."""
        samples = np.asarray(samples)
        rhs = np.conj(self.V) @ samples
        if bounds is None:
            bounds = self.estimate_bounds()
        if bounds.a <= 1e-12 * max(bounds.b, 1.0):
            raise ValueError("not a frame at solver tolerance (A ~ 0); cannot reconstruct")
        rhs_n = np.linalg.norm(rhs)
        c = np.zeros_like(rhs)
        r = rhs.copy()
        p = r.copy()
        rs = float(np.real(np.vdot(r, r)))
        for it in range(1, 2001):
            Mp = self.M @ p
            alpha = rs / float(np.real(np.vdot(p, Mp)))
            c = c + alpha * p
            r = r - alpha * Mp
            rs_new = float(np.real(np.vdot(r, r)))
            if math.sqrt(rs_new) / rhs_n < 1e-10:
                break
            p = r + (rs_new / rs) * p
            rs = rs_new
        return ReconstructionResult(function=self.kernel.synthesize(c), iterations=it)


# ---------------------------------------------------------------------------
# quasi-interpolation and the oscillation sampling theorem
# ---------------------------------------------------------------------------


def quasi_interpolate(samples, partition: Partition) -> GridFunction:
    """Piecewise-constant extension: value c_gamma on the cell of gamma."""
    samples = np.asarray(samples)
    if len(samples) != len(partition.pointset):
        raise ValueError("sample count does not match the partition's point set")
    vals = samples[partition.assignment]
    return GridFunction(partition.grid, vals)


def theorem35_verdict(
    kernel: SincKernel,
    ps: PointSet,
    w_radius: float,
    u_radius: float,
    n_random: int = 50,
    seed: int = 0,
    verify_shape=None,
) -> dict:
    """Oscillation-based sampling envelope on a ``SincKernel``'s space.

    epsilon is the max of ||osc_{B_U} f|| / ||f|| over a finite test family
    (random space elements, reproducing vectors, and the retained band-edge
    modes, which oscillate hardest); it is an estimate, so the verdict is a
    consistency check of the printed envelope, not a proof.
    """
    grid = kernel.grid
    model = grid.model
    if verify_shape is None:
        verify_shape = grid.shape
    sep = verify_separated(ps, w_radius)
    den = verify_dense(ps, u_radius, shape=verify_shape)
    if not (sep.passed and den.passed):
        return {"verdict": "certificates-failed", "separated": sep.passed, "dense": den.passed}

    rng = np.random.default_rng(seed)
    family = []
    for _ in range(n_random):
        c = rng.normal(size=kernel.dim) + 1j * rng.normal(size=kernel.dim)
        family.append(c / np.linalg.norm(c))
    # kernel translates
    span = grid.hi - grid.lo
    for frac in (0.5, 0.35, 0.65):
        x = model.from_internal(grid.lo + frac * span)
        pvec = kernel.reproducing_vector(x)
        c = kernel.coefficients(pvec)
        family.append(c / np.linalg.norm(c))
    # band-edge modes (largest oscillation per unit norm)
    for i in np.argsort(np.linalg.norm(kernel.freqs, axis=1))[-6:]:
        c = np.zeros(kernel.dim, dtype=np.complex128)
        c[i] = 1.0
        family.append(c)

    eps = 0.0
    fs = [kernel.synthesize(c) for c in family]
    for f, osc in zip(fs, oscillation(fs, u_radius)):
        eps = max(eps, osc.norm_l2() / f.norm_l2())

    # quadrature measures of the discretized balls
    u_meas = _ball_measure(grid, u_radius)
    w_meas = _ball_measure(grid, w_radius)
    report = {
        "epsilon": float(eps),
        "u_measure": u_meas,
        "w_measure": w_meas,
        "family_size": len(family),
    }
    if eps >= 1.0:
        report["verdict"] = "hypothesis-not-met"
        return report
    a_pred = (1.0 - eps) ** 2 / u_meas**2
    b_pred = (1.0 + eps) ** 2 / w_meas**2
    system = FrameSystem(kernel, ps)
    fb = system.estimate_bounds()
    report.update(
        {
            "a_pred": a_pred,
            "b_pred": b_pred,
            "a_emp": fb.a,
            "b_emp": fb.b,
            "tightness": fb.tightness,
            "verdict": "pass" if (fb.a >= a_pred - 1e-3 and fb.b <= b_pred + 1e-3) else "fail",
        }
    )
    return report


def _ball_measure(grid: Grid, r: float) -> float:
    pts = grid.points().reshape(-1, grid.dim)
    # center the ball on the box midpoint to avoid edge clipping
    mid = grid.model.from_internal(0.5 * (grid.lo + grid.hi))
    d = grid.model.norm(grid.model.mul(grid.model.inv(mid)[None, :], pts))
    w = grid.weights().reshape(-1)
    return float(np.sum(w[d < r]))


# ---------------------------------------------------------------------------
# exact lattice sums for product lattices
# ---------------------------------------------------------------------------


def _axis_slab_sums(nodes, h, step):
    """Per-cell 2x2 Gram of the linear hat coefficients against the
    arithmetic progression {step*k} inside each cell [x0, x0 + h).

    Returns array (n_cells, 2, 2).  Uses closed-form power sums, so the cost
    is independent of the number of lattice points.
    """
    x0 = nodes[:-1]
    p0 = np.ceil(x0 / step - 1e-12)
    p1 = np.ceil((x0 + h) / step - 1e-12) - 1.0
    n = np.maximum(p1 - p0 + 1.0, 0.0)
    sp = np.where(n > 0, (p0 + p1) * n / 2.0, 0.0)

    def f2(m):
        return m * (m + 1.0) * (2.0 * m + 1.0) / 6.0

    sp2 = np.where(n > 0, f2(p1) - f2(p0 - 1.0), 0.0)
    s0 = n
    s1 = step * sp
    s2 = step**2 * sp2
    # hat coefficients: L0 = 1 - (x-x0)/h, L1 = (x-x0)/h as c0 + c1*x
    c = np.empty((len(x0), 2, 2))  # (cell, hat, [c0, c1])
    c[:, 0, 0] = 1.0 + x0 / h
    c[:, 0, 1] = -1.0 / h
    c[:, 1, 0] = -x0 / h
    c[:, 1, 1] = 1.0 / h
    out = np.empty((len(x0), 2, 2))
    for i in range(2):
        for l in range(2):
            out[:, i, l] = (
                c[:, i, 0] * c[:, l, 0] * s0
                + (c[:, i, 0] * c[:, l, 1] + c[:, i, 1] * c[:, l, 0]) * s1
                + c[:, i, 1] * c[:, l, 1] * s2
            )
    return out


def lattice_sum_squares(f: GridFunction, steps) -> float:
    """Sum of |f(gamma)|^2 over the product lattice with the given per-axis
    steps, with f the grid's multilinear interpolant (supported on
    (lo - h, hi), see ``grids.interpolate``).

    Exact up to rounding for any step size: per cell, |f|^2 is a quadratic
    polynomial per axis and the lattice restricted to the cell is a product
    of arithmetic progressions, so closed-form power sums apply.
    """
    grid = f.grid
    slabs = []
    for d in range(grid.dim):
        # the interpolant ramps to zero one cell beyond the node range on
        # both sides; include those ghost cells
        nodes = grid.axis(d)
        h = grid.spacings[d]
        nodes = np.concatenate([[nodes[0] - h], nodes, [grid.hi[d]]])
        slabs.append(_axis_slab_sums(nodes, h, steps[d]))
    # C[cell..., corner bits...]: the node values at the corners of each
    # cell, the ghost cells included
    v = np.pad(f.values, [(1, 1)] * grid.dim)
    cells = tuple(n + 1 for n in grid.shape)
    C = np.empty(cells + (2,) * grid.dim, dtype=v.dtype)
    for bits in itertools.product((0, 1), repeat=grid.dim):
        C[(...,) + bits] = v[tuple(slice(b, b + n) for b, n in zip(bits, cells))]
    # one cell index, two corner indices and one slab per axis; for 3-D
    # "abcijk,abclmn,ail,bjm,ckn->"
    cell, left, right = "abc"[: grid.dim], "ijk"[: grid.dim], "lmn"[: grid.dim]
    subs = ",".join([cell + left, cell + right] + ["".join(t) for t in zip(cell, left, right)])
    return float(np.real(np.einsum(subs + "->", C, np.conj(C), *slabs, optimize=True)))


# ---------------------------------------------------------------------------
# theorem-level experiments
# ---------------------------------------------------------------------------


def heisenberg_sampling_experiment(
    proj: SpectralProjector, c_g: float, x_target: float, seed: int = 0
) -> dict:
    """Lower frame bound of the dilated integer-type lattice over 8 random
    band elements against the band-space envelope.

    The lattice {(p, q, k/2)} dilated by d is a product set, so the sampled
    energy is evaluated exactly through per-cell power sums: no point
    enumeration, any dilation is feasible.  x_target = r sqrt(omega) C_G
    selects the dilation on the guaranteed branch (x < 1).
    """
    grid = proj.grid
    model = grid.model
    if not isinstance(model, HeisenbergModel):
        raise ValueError("experiment requires a Heisenberg grid")
    omega = proj.omega
    q_hom = model.homogeneous_dimension
    # covering radius of the integer-type lattice: max homogeneous norm over
    # the closure of the complement box [0,1)^2 x [0,1/2)
    r_cov = 8.0 ** 0.25
    if not 0 < x_target < 1:
        raise ValueError("x_target must lie in (0, 1) for the guaranteed branch")
    d = x_target / (r_cov * math.sqrt(omega) * c_g)
    r = r_cov * d
    vol_b1 = model.ball_volume()
    b_r = vol_b1 * r**q_hom
    # the envelope's (1 - x)^2 with x = r sqrt(omega) C_G, the quantity the
    # dilation is chosen from
    a_pred = omega ** (-q_hom / 2.0) / b_r**2 * (1.0 - r * math.sqrt(omega) * c_g) ** 2

    steps = (d, d, d * d / 2.0)
    ratios = []
    for k in range(8):
        f = random_bandlimited(proj, seed=seed + k)
        ratios.append(lattice_sum_squares(f, steps) / f.norm_l2() ** 2)
    ratios = np.array(ratios)
    return {
        "omega": float(omega),
        "c_g": float(c_g),
        "dilation": float(d),
        "r_dense": float(r),
        "x": float(x_target),
        "a_pred": float(a_pred),
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "ratios": ratios.tolist(),
        "guaranteed_pass": bool(ratios.min() >= a_pred * 0.9),
    }


def hypothesis_scan(system, radii) -> dict:
    """First box U (half-widths scaled by each radius) with
    c * ||osc_U h^*||_1 < 1 for the wavelet system ``system``; the hypothesis
    feeding the frame theorem."""
    hs = system.h_star()
    rows = []
    found = None
    for r in radii:
        val = system.c_factor * oscillation_l1_box(hs, (r, r))
        rows.append({"u_half": float(r), "epsilon": float(val)})
        if found is None and val < 1.0:
            found = float(r)
    return {"rows": rows, "u_star": found, "c_factor": system.c_factor}


def wavelet_frame_bounds(system, pointset: PointSet, probes) -> FrameBounds:
    """Frame bounds of (pi(gamma) eta) restricted to the probe subspace.

    Probes are orthonormalized in L^2(R); the bound matrix is the Gram of
    their transforms sampled on Gamma.  A subspace estimate: honest for
    comparing refinements, reported as such.  Samples are produced by the
    direct line quadrature against eta, so the lattice sum is the only
    discretization that varies between refinement levels.
    """
    sgrid = probes[0].grid
    w = sgrid.weights().reshape(-1)
    P = np.stack([p.values.reshape(-1) for p in probes])
    G = (P.conj() * w) @ P.T
    G = 0.5 * (G + G.conj().T)
    vals, vecs = np.linalg.eigh(G)
    keep = vals > 1e-10 * vals.max()
    A = vecs[:, keep] / np.sqrt(vals[keep])  # columns: orthonormal combos
    T = system.transform_eta_direct(probes, pointset.points) @ A
    M = T.conj().T @ T
    M = 0.5 * (M + M.conj().T)
    evs = np.linalg.eigvalsh(M)
    return FrameBounds(float(evs[0]), float(evs[-1]))


def beurling_scan(kernel, r_values) -> list:
    """Lower/upper bounds of gap-r arithmetic sets Gamma = rZ on the kernel
    grid, one row per r.  Gamma covers the whole half-open box [lo, hi): the
    kernel modes are periodic on it, so an unsampled border would fake a
    near-null vector, and a sample at hi would repeat the one at lo."""
    grid = kernel.grid
    if not isinstance(grid.model, EuclideanModel) or grid.dim != 1:
        raise ValueError("scan runs on 1-D Euclidean kernels")
    rows = []
    for r in r_values:
        ps = PointSet(grid.model, gap_lattice(grid.lo[0], grid.hi[0], r)[:, None], grid.lo, grid.hi)
        fb = FrameSystem(kernel, ps).estimate_bounds()
        rows.append({"r": float(r), "a": fb.a, "b": fb.b, "tightness": fb.tightness, "n_points": len(ps)})
    return rows
