"""Oscillation and the convolution inequality, left-invariant derivatives,
the sub-Laplacian eigensolver, and estimation of the oscillation constants.

The discrete band space at bandwidth ``omega`` is the span of the
eigenvectors of the discrete sub-Laplacian (Dirichlet on the chart box) with
eigenvalue at most ``omega``; every bandwidth-related check in this package
is a statement about that discrete space.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import Grid, GridFunction, interpolate, shared_grid
from .groups import HeisenbergModel, UnsupportedModelError
from .kernels import SpectralProjector

__all__ = [
    "oscillation",
    "oscillation_l1_box",
    "ball_offsets",
    "osc_conv_check",
    "vector_field_apply",
    "commutator_residual",
    "sublaplacian_matrix",
    "sublaplacian_spectrum",
    "random_bandlimited",
    "estimate_constants",
    "ConstantEstimates",
    "oscillation_constant",
    "version_hash",
    "oscillation_scaling_check",
    "dilation_residual",
]

# largest |Z| * B pairs (z, x) in one block of osc_conv_check
_OSC_CONV_BLOCK = 2**17
_COMMUTATOR_SLAB = 4  # interior rows of axis 0 in one slab of commutator_residual


# ---------------------------------------------------------------------------
# oscillation
# ---------------------------------------------------------------------------


def ball_offsets(model, r, spacings, n_dirs=32):
    """Deterministic sample of the punctured ball B_r used for oscillation sups.

    Combines the node-lattice offsets with 0 < |y| < r (at most 512, evenly
    thinned) with sphere directions dilated to 0.999 r and 0.5 r, each
    distinct offset (by its bytes) once.  Raises unless 0 < r < inf.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"oscillation radius must be positive and finite, got {r}")
    max_grid_offsets = 512
    spacings = np.asarray(spacings, dtype=float)
    offs = []
    # node-lattice offsets inside the ball's bounding box
    _, hi, _ = model.ball_box(model.identity()[None, :], r)
    reach = np.floor(hi[0] / spacings).astype(int)
    if np.prod(2 * reach + 1) <= 8 * max_grid_offsets:
        axes = [np.arange(-k, k + 1) * h for k, h in zip(reach, spacings)]
        mesh = np.meshgrid(*axes, indexing="ij")
        cand = np.stack(mesh, axis=-1).reshape(-1, model.dim)
        nrm = model.norm(cand)
        cand = cand[(nrm > 0) & (nrm < r)]
        if len(cand) > max_grid_offsets:
            stride = int(math.ceil(len(cand) / max_grid_offsets))
            cand = cand[::stride]
        offs.append(cand)
    # shell samples
    dirs = model.sphere(n_dirs)
    for frac in (0.999, 0.5):
        offs.append(model.dilate(r * frac, dirs))
    offs = np.concatenate(offs, axis=0)
    _, first = np.unique(offs.view(f"V{offs.itemsize * model.dim}").ravel(), return_index=True)
    return offs[np.sort(first)]


def _integer_shift(values, shift):
    """Array translated by ``shift`` node steps along its trailing axes,
    zero-filled at the edges."""
    out = np.zeros_like(values)
    src = [...]
    dst = [...]
    for k, n in zip(shift, values.shape[values.ndim - len(shift):]):
        if abs(k) >= n:
            return out
        if k >= 0:
            dst.append(slice(k, n))
            src.append(slice(0, n - k))
        else:
            dst.append(slice(0, n + k))
            src.append(slice(-k, n))
    out[tuple(dst)] = values[tuple(src)]
    return out


def oscillation(fs, r: float) -> list:
    """Discrete modulus of continuity sup_{y in B_r} |f(x) - f(x y^-1)| of
    each function of the sequence ``fs``, which share one grid; one
    GridFunction per function, in order.

    The sup runs over a deterministic sample of the ball (``ball_offsets``:
    node offsets plus interpolated boundary shells), so it is a lower
    estimate of the continuum sup: conservative only where osc stands on the
    large side of a check (||f - Qf|| <= ||osc f||), not where it must be
    small (``osc-scaling-bound``, the epsilon < 1 of ``theorem35_verdict``).
    """
    grid = shared_grid(fs)
    return _oscillation(grid, fs, ball_offsets(grid.model, r, grid.spacings))


def oscillation_l1_box(f: GridFunction, half_widths) -> float:
    """||osc_U f||_1 with U the internal-coordinate box, sampled 5 per axis
    including the box corners (the set U for models without a homogeneous
    norm); Haar-weighted L1.  Raises unless every half-width lies in
    (0, inf)."""
    half_widths = np.asarray(half_widths, dtype=float)
    if not np.all((0 < half_widths) & (half_widths < math.inf)):
        raise ValueError(f"box half-widths must be positive and finite, got {half_widths.tolist()}")
    axes = [np.linspace(-w, w, 5) for w in half_widths]
    u = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, f.grid.dim)
    offs = f.grid.model.from_internal(u[np.any(u != 0, axis=1)])
    (osc,) = _oscillation(f.grid, [f], offs)
    return osc.norm_l1()


def _oscillation(grid, fs, offsets):
    """sup over the chart ``offsets`` y of |f(x) - f(x y^-1)| at the nodes of
    ``grid`` for each function of ``fs``.  An offset that moves the node
    lattice by whole steps (``model.node_shift``) is an exact shift; any
    other is interpolated, once per offset for all the functions."""
    model = grid.model
    values = np.stack([f.values for f in fs])
    x = model.from_internal(grid.nodes_internal())
    out = np.zeros(values.shape)
    for y in offsets:
        steps = model.node_shift(y, grid.spacings)
        if steps is None:
            fy = interpolate(values, grid, model.to_internal(model.mul(x, model.inv(y))))
        else:
            fy = _integer_shift(values, steps)
        np.maximum(out, np.abs(values - fy), out=out)
    return [GridFunction(grid, o) for o in out]


def osc_conv_check(f: GridFunction, g: GridFunction, r: float, seed: int = 0):
    """Check osc_U(f*g) <= |f| * osc_U(g) pointwise, U = B_r.

    Both sides are evaluated from the same interpolant of g and the same
    finite offset sample (``ball_offsets`` with 12 sphere directions), at a
    deterministic sample of evaluation points: 400 nodes on a line, 120 in
    higher dimensions, which keeps the 3-D runs tractable.  So the reported
    violation isolates the inequality itself from discretization
    differences.  Returns a dict with the max violation, scale info and the
    sample sizes.  Each distinct z^-1 x is interpolated once where all pairs
    (z, x) of one node-index difference share its bytes, else every one is.
    """
    grid = shared_grid((f, g))
    model = grid.model
    n_sample = 400 if grid.dim == 1 else 120
    # on a line the sphere is {-1, 1} for any direction count
    offsets = ball_offsets(model, r, grid.spacings, n_dirs=12)

    iz = f.support_index()
    z, w, fv = f.support()
    zinv = model.inv(z)
    coef = w * fv

    all_pts = grid.points().reshape(-1, grid.dim)
    ix = np.arange(len(all_pts))
    if len(all_pts) > n_sample:
        ix = np.random.default_rng(seed).choice(len(all_pts), size=n_sample, replace=False)
    xs = all_pts[ix]

    # key of (z, x): x's node index minus z's plus n - 1, raveled on (2n - 1)^dim
    lattice = tuple(2 * m - 1 for m in grid.shape)
    kx, kz = (np.ravel_multi_index(np.unravel_index(i, grid.shape), lattice) for i in (ix, iz))
    kz -= np.ravel_multi_index(tuple(m - 1 for m in grid.shape), lattice)
    slot = np.empty(math.prod(lattice), dtype=np.intp)

    n = len(xs)
    lhs = np.zeros((len(offsets), n))
    rhs = np.zeros(n)
    # at least two columns a block: over a single column the sum over z
    # would run pairwise rather than in order, and round differently
    n_blocks = min(-(-len(z) * n // _OSC_CONV_BLOCK), n // 2) or 1
    for cols in np.array_split(np.arange(n), n_blocks):
        # q0[z, x] = z^-1 x; rep: one pair per key, back: each pair's rep
        q0 = model.mul(zinv[:, None, :], xs[None, cols, :]).reshape(-1, grid.dim)
        key = (kx[None, cols] - kz[:, None]).reshape(-1)
        order = np.arange(len(key))
        slot[key] = order
        rep = np.flatnonzero(slot[key] == order)
        slot[key[rep]] = np.arange(len(rep))
        back = slot[key]
        pts = q0[rep]
        if not np.array_equal(pts[back].view(np.uint64), q0.view(np.uint64)):
            pts, back = q0, None
        g0 = interpolate(g.values, grid, model.to_internal(pts))
        d, ad, osc = np.empty_like(g0), np.empty(g0.shape), np.zeros(g0.shape)
        diff = d if back is None else np.empty(len(key), dtype=d.dtype)
        for k, y in enumerate(offsets):
            g1 = interpolate(g.values, grid, model.to_internal(model.mul(pts, model.inv(y))))
            np.subtract(g0, g1, out=d)
            np.maximum(osc, np.abs(d, out=ad), out=osc)
            terms = (diff if back is None else np.take(d, back, out=diff)).reshape(len(z), len(cols))
            # coef first: with the operands swapped a complex product can round differently
            np.multiply(coef[:, None], terms, out=terms)
            lhs[k, cols] = np.abs(np.sum(terms, axis=0))
        osc_g = (osc if back is None else osc[back]).reshape(len(z), len(cols))
        rhs[cols] = np.sum(np.abs(coef)[:, None] * osc_g, axis=0)
    violation = np.max(lhs - rhs[None, :])
    return {
        "max_violation": float(violation),
        "rhs_scale": float(rhs.max()) if rhs.size else 0.0,
        "checked_on": "sampled",
        "n_points": len(xs),
        "n_offsets": len(offsets),
    }


# ---------------------------------------------------------------------------
# left-invariant vector fields and the sub-Laplacian
# ---------------------------------------------------------------------------


def _field_columns(grid, i, pts=None):
    """The nonzero chart coefficient columns (d, c_d) of the i-th basis
    field at ``pts``; by default at the grid's nodes, cached on the grid."""
    if pts is None:
        if ("field", i) not in grid._cache:
            grid._cache[("field", i)] = _field_columns(grid, i, grid.points())
        return grid._cache[("field", i)]
    c = grid.model.field_coefficients(i, pts)
    return [(d, c[..., d].copy()) for d in range(grid.dim) if np.any(c[..., d] != 0)]


def _apply_columns(v, columns, spacings):
    """sum_d c_d dv/dx_d on the array ``v`` by second-order central
    differences, zero (Dirichlet) beyond its faces."""
    out = np.zeros(v.shape, dtype=np.complex128)
    for d, cd in columns:
        ax = (slice(None),) * d
        diff = np.empty_like(v)
        np.subtract(v[ax + (slice(2, None),)], v[ax + (slice(None, -2),)], out=diff[ax + (slice(1, -1),)])
        # each face differences against a zero node beyond the box
        np.subtract(v[ax + (slice(1, 2),)], 0.0, out=diff[ax + (slice(0, 1),)])
        np.subtract(0.0, v[ax + (slice(-2, -1),)], out=diff[ax + (slice(-1, None),)])
        diff /= 2.0 * spacings[d]
        diff *= cd
        out += diff
    return out


def vector_field_apply(i: int, f: GridFunction) -> GridFunction:
    """Apply the i-th left-invariant basis field by second-order central
    differences, zero (Dirichlet) beyond the box."""
    return GridFunction(f.grid, _apply_columns(f.values, _field_columns(f.grid, i), f.grid.spacings))


def commutator_residual():
    """sup |([X,Y] - T) f| / sup |T f| for a Gaussian bump of width 2 on the
    121^3 grid over [-5, 5)^3, a boundary ring of 12 nodes excluded
    (Dirichlet padding pollutes it).  Only X differences along axis 0, so
    slabs of its rows with one row of margin each side get the inner rows
    of the whole grid's X(Yf), Y(Xf) and Tf bit for bit."""
    ring, grid = 12, Grid.regular(HeisenbergModel(), [-5.0] * 3, [5.0] * 3, (121,) * 3)
    h, n, inner = grid.spacings, grid.shape[0], np.s_[1:-1, ring:-ring, ring:-ring]
    comm = tf_max = 0.0
    for a in range(ring, n - ring, _COMMUTATOR_SLAB):
        rows = grid.axis(0)[a - 1:min(a + _COMMUTATOR_SLAB, n - ring) + 1]
        pts = grid.model.from_internal(np.stack(np.meshgrid(rows, grid.axis(1), grid.axis(2), indexing="ij"), -1))
        f = np.exp(-(pts[..., 0]**2 + pts[..., 1]**2 + pts[..., 2]**2) / 8.0).astype(np.complex128)
        X, Y, T = (_field_columns(grid, i, pts) for i in range(3))
        tf = _apply_columns(f, T, h)
        res = _apply_columns(_apply_columns(f, Y, h), X, h) - _apply_columns(_apply_columns(f, X, h), Y, h) - tf
        comm, tf_max = max(comm, np.abs(res[inner]).max()), max(tf_max, np.abs(tf[inner]).max())
    return float(comm / tf_max)


def _derivative(tree, alpha):
    """X^alpha f = X_1^{a1} ... X_n^{an} f (fields applied left to right) from
    ``tree``, a dict multiindex -> GridFunction holding f at zero; a missing
    entry is alpha's last field applied to its prefix, and is stored."""
    if alpha not in tree:
        i = max(j for j, k in enumerate(alpha) if k)
        prefix = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        tree[alpha] = vector_field_apply(i, _derivative(tree, prefix))
    return tree[alpha]


def _weights(model):
    """The model's dilation weights; UnsupportedModelError without them."""
    if model.weights is None:
        raise UnsupportedModelError(f"{model.kind} is not stratified")
    return model.weights


def _forward_diff_matrix(n, h):
    return sp.diags([-np.ones(n), np.ones(n - 1)], [0, 1], format="csr") / h


def _axis_operator(grid, mat, axis):
    ops = []
    for d, n in enumerate(grid.shape):
        ops.append(mat if d == axis else sp.identity(n, format="csr"))
    out = ops[0]
    for m in ops[1:]:
        out = sp.kron(out, m, format="csr")
    return out


def sublaplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Sparse symmetric PSD discretization of -(sum_i X_i^2) on V_1 fields.

    Each first-layer field is discretized by a forward difference; the
    operator is assembled as sum X^T X, which keeps it symmetric positive
    semidefinite and avoids the odd-even decoupling of composed central
    stencils.  Dirichlet condition on the box (zero outside).
    """
    h = grid.spacings
    # the first layer: the fields of weight 1
    first_layer = [i for i, w in enumerate(_weights(grid.model)) if w == 1]

    L = None
    for i in first_layer:
        X = None
        # forward differences treat values beyond the high face as zero; the
        # matching ghost edge at the low face is restored below as a diagonal
        # penalty, so both faces carry the Dirichlet condition
        penalty = np.zeros(grid.shape)
        for d, cd in _field_columns(grid, i):
            D = _axis_operator(grid, _forward_diff_matrix(grid.shape[d], h[d]), d)
            term = sp.diags(cd.reshape(-1)) @ D
            X = term if X is None else X + term
            face = [slice(None)] * grid.dim
            face[d] = slice(0, 1)
            pen = np.zeros(grid.shape)
            pen[tuple(face)] = (cd[tuple(face)] / h[d]) ** 2
            penalty += pen
        contrib = (X.T @ X + sp.diags(penalty.reshape(-1))).tocsr()
        L = contrib if L is None else L + contrib
    return L.tocsr()


def _lambda_max_estimate(L):
    rng = np.random.default_rng(0)
    v = rng.normal(size=L.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(30):
        v = L @ v
        nrm = np.linalg.norm(v)
        if nrm == 0:
            return 0.0
        lam = nrm
        v /= nrm
    return lam


#: cache lookups since import by outcome, over every entry ``_cached``
#: serves; a run reports the difference over its span
CACHE_COUNTS = {"hits": 0, "misses": 0}


@functools.cache
def version_hash():
    """Content hash of the library sources, read once per process."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode())
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _cached(kind, grid, omega, cache_dir, compute, sound=None):
    """The arrays ``compute()`` returns, through ``cache_dir``.

    The entry is named by kind, ``version_hash``, grid hash and omega, so a
    file written by other code is never read, and an entry that cannot be
    read or fails ``sound`` is recomputed.  Each lookup counts as a hit or a
    miss in ``CACHE_COUNTS``.  A write (uncompressed) goes to a temporary
    file that replaces the entry only when complete, so a failed or killed
    writer leaves no partial entry; then every complete entry of that kind
    from another code version is deleted, whatever its grid and omega.
    Without a directory nothing is cached or counted.
    """
    if not cache_dir:
        return compute()
    prefix = f"{kind}-{version_hash()}-"
    path = os.path.join(cache_dir, f"{prefix}{grid.content_hash()}-{float(omega)!r}.npz")
    if os.path.exists(path):
        try:
            # an open file of our own: np.load leaks its own when a zip fails
            with open(path, "rb") as fh, np.load(fh) as data:
                arrays = {k: data[k] for k in data.files}
        except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError):
            arrays = None  # unreadable, so recomputed like an unsound entry
        if arrays is not None and (sound is None or sound(arrays)):
            CACHE_COUNTS["hits"] += 1
            return arrays
    arrays = compute()
    CACHE_COUNTS["misses"] += 1
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for old in os.listdir(cache_dir):
        if old.startswith(f"{kind}-") and old.endswith(".npz") and not old.startswith(prefix):
            # another process may have pruned it first
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(cache_dir, old))
    return arrays


def sublaplacian_spectrum(grid: Grid, omega: float, cache_dir: str | None = None) -> SpectralProjector:
    """All eigenpairs with eigenvalue <= omega (shift-invert Lanczos).

    Rejects bandwidths beyond a quarter of the largest discrete eigenvalue:
    such modes are not resolved by the grid.  Eigenpairs are cached on disk
    (``_cached``) and served while every ||L v - lambda v|| / ||v|| <= 1e-9.
    Lanczos starts from a fixed vector and restarts with twice the eigenpair
    count, up to 400, from one sparse LU factorization of the matrix; each
    eigenvector's largest-modulus entry is positive, so a cold solve repeats
    bit for bit.
    """
    if omega <= 0:
        raise ValueError("bandwidth must be positive")
    data = _cached("spectrum", grid, omega, cache_dir, lambda: _band_eigenpairs(grid, omega),
                   lambda d: _eigen_residual(grid, d["vals"], d["vecs"]) <= 1e-9)
    return SpectralProjector(grid, omega, data["vals"], data["vecs"].reshape((-1,) + grid.shape))


def _eigen_residual(grid, vals, vecs):
    """max_i ||L v_i - lambda_i v_i|| / ||v_i||, one eigenvector a row."""
    V = vecs.reshape(len(vals), -1).T
    R = sublaplacian_matrix(grid) @ V - V * vals
    return np.max(np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0), initial=0.0)


def _band_eigenpairs(grid, omega):
    L = sublaplacian_matrix(grid)
    lam_max = _lambda_max_estimate(L)
    if omega > lam_max / 4.0:
        raise ValueError(
            f"bandwidth {omega:g} under-resolved: grid supports at most {lam_max / 4.0:g}"
        )

    n = L.shape[0]
    # for a real csr L, L.T is the csc matrix eigsh would factor on each call
    lu = spla.splu(L.T)
    opinv = spla.LinearOperator(L.shape, matvec=lu.solve, dtype=L.dtype)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    k = 16
    while True:
        k = min(k, n - 2)
        vals, vecs = spla.eigsh(L, k=k, sigma=0, which="LM", v0=v0, OPinv=opinv)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        if vals[-1] > omega or k >= min(400, n - 2):
            break
        k *= 2
    keep = vals <= omega
    vals, vecs = vals[keep], vecs[:, keep]
    vals = np.maximum(vals, 0.0)
    vecs = vecs * np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])])

    # orthonormalize in the weighted inner product (weights are a constant
    # cell volume for unimodular models)
    cell = float(np.prod(grid.spacings))
    return {"vals": vals, "vecs": (vecs / math.sqrt(cell)).T}


def random_bandlimited(proj: SpectralProjector, seed: int = 0) -> GridFunction:
    """Unit-norm random element of the retained span, deterministic per seed."""
    if proj.dim == 0:
        raise ValueError("empty spectral projector")
    rng = np.random.default_rng(seed)
    c = rng.normal(size=proj.dim) + 1j * rng.normal(size=proj.dim)
    c /= np.linalg.norm(c)
    return proj.synthesize(c)


# ---------------------------------------------------------------------------
# constants of the oscillation estimate
# ---------------------------------------------------------------------------


def _multiindices(nfields, max_order):
    """The multiindices of order 1 to ``max_order``, in lexicographic order
    (which fixes the order of the Bernstein sum)."""
    orders = itertools.product(range(max_order + 1), repeat=nfields)
    return [a for a in orders if 0 < sum(a) <= max_order]


@dataclass
class ConstantEstimates:
    """Empirical ingredients of the oscillation constant and their assembly."""

    c_ku: float  # local Sobolev constant for (K, U) = (B_b, B_2b), lower-bound estimate
    b: float  # mean-value sup-region dilation factor (empirical fit)
    bernstein_norms: dict  # multiindex -> empirical ||X^alpha||_{E_1 -> L2}
    ball_volume_1: float  # |B_1| by quadrature
    c_g: float
    b_verified: bool  # False when every scanned b showed a violation

    @staticmethod
    def assemble(n_dim, q_hom, b, c_ku, vol1, bernstein_norms) -> float:
        total = sum(v for a, v in bernstein_norms.items() if 1 <= sum(a) <= n_dim + 1)
        return (
            math.sqrt(math.comb(2 * n_dim, n_dim))
            * 2.0 ** (q_hom / 2.0)
            * b ** (q_hom / 2.0)
            * c_ku
            * math.sqrt(vol1)
            * total
        )


def _gaussian_bump(grid, center, widths):
    pts = grid.nodes_internal()
    expo = np.zeros(grid.shape)
    for d in range(grid.dim):
        expo += ((pts[..., d] - center[d]) / widths[d]) ** 2
    return GridFunction(grid, np.exp(-expo))


def _bump_family(grid, count, seed):
    rng = np.random.default_rng(seed)
    span = grid.hi - grid.lo
    mid = 0.5 * (grid.lo + grid.hi)
    fams = []
    for _ in range(count):
        center = mid + (rng.uniform(-0.15, 0.15, size=grid.dim)) * span
        widths = span * rng.uniform(0.06, 0.3, size=grid.dim)
        fams.append(_gaussian_bump(grid, center, widths))
    return fams


def estimate_constants(
    proj_e1: SpectralProjector,
    b_scan=(1.0, 1.25, 1.5, 2.0, 2.5, 3.0),
) -> ConstantEstimates:
    """Estimate the oscillation-constant ingredients on a stratified grid.

    All values are empirical: the Sobolev constant is a maximum over a test
    family (up to 16 eigenvectors and 12 Gaussian bumps of seed 0; a lower
    bound of the optimal constant), the mean-value factor is
    the smallest scanned dilation with no observed violation, and the
    Bernstein norms are maxima over the retained eigenbasis.  When every
    scanned dilation shows a violation, the last one is used and
    ``b_verified`` is False.  Raises ``ValueError`` when the ball B_b of the
    chosen b holds no grid node.  Each derivative X^alpha f is computed once
    and serves all three estimates.
    """
    grid = proj_e1.grid
    model = grid.model
    n = model.dim
    q = model.homogeneous_dimension
    if q is None:
        raise UnsupportedModelError("constants require a stratified model")

    # the eigenbasis, then the bumps; `family` indexes the test family
    funcs = [GridFunction(grid, v) for v in proj_e1.eigenvectors] + _bump_family(grid, 12, 0)
    family = [k for k in range(len(funcs)) if k < 16 or k >= proj_e1.dim]
    zero = (0,) * n
    trees = [{zero: f} for f in funcs]

    # first-order derivative fields per family member (for the mean-value scan)
    nfirst = model.weights.count(1)
    units = [tuple(int(d == j) for d in range(n)) for j in range(n)]
    grads = {k: [_derivative(trees[k], e) for e in units] for k in family}

    # --- mean-value dilation factor b ------------------------------------
    rng = np.random.default_rng(1)
    mid = 0.5 * (grid.lo + grid.hi)
    span = grid.hi - grid.lo
    xs = model.from_internal(mid + rng.uniform(-0.2, 0.2, size=(24, n)) * span)[:, None, :]
    rmax = 0.2 * float(np.min(span[:nfirst]))
    ys = model.sphere(16)
    radii = rng.uniform(0.2, 1.0, size=4) * rmax

    def holds(b):
        """Whether every sampled |f(x y) - f(x)| is at most
        |y| max_j sup |X_j f(x z)| + 1e-12, the sup over 25 points z with
        |z| <= b |y| (12 sphere directions at b |y| and at b |y| / 2, and 0)."""
        for k in family:
            fx = funcs[k].at(xs)
            for rad in radii:
                zs = np.concatenate(
                    [model.dilate(b * rad * fr, model.sphere(12)) for fr in (1.0, 0.5)]
                    + [np.zeros((1, n))]
                )
                xz = model.mul(xs, zs)
                sup = np.max([np.abs(g.at(xz)).max(axis=1) for g in grads[k]], axis=0)
                lhs = np.abs(funcs[k].at(model.mul(xs, model.dilate(rad, ys))) - fx)
                if np.any(lhs > rad * sup[:, None] + 1e-12):
                    return False
        return True

    b_est, b_verified = next(((b, True) for b in b_scan if holds(b)), (b_scan[-1], False))

    # --- local Sobolev constant for (K, U) = (B_b, B_2b) over the family and
    # Bernstein norms over the eigenbasis, one function and its tree at a time
    pts = grid.points()
    gnorm = model.norm(pts)
    mask_k = gnorm <= b_est
    if not mask_k.any():
        raise ValueError(
            f"the ball B_b at b = {b_est:g} holds no grid node (the nearest lies at "
            f"gauge {gnorm.min():.3g}), so C_G would be 0: scan larger b or refine the grid"
        )
    mask_u = gnorm <= 2.0 * b_est
    alphas_sob = [zero] + _multiindices(n, n)
    alphas = _multiindices(n, n + 1)
    c_ku = 0.0
    bern = dict.fromkeys(alphas, 0.0)
    for k, f in enumerate(funcs):
        tree, trees[k] = trees[k], None
        if k in family:
            sup_k = f.norm_sup(mask=mask_k)
            denom = 0.0
            for a in alphas_sob:
                denom += _derivative(tree, a).norm_l2(mask=mask_u) ** 2
            if denom > 0:
                c_ku = max(c_ku, sup_k / math.sqrt(denom))
        if k < proj_e1.dim:
            norm = f.norm_l2()
            for a in alphas:
                bern[a] = max(bern[a], _derivative(tree, a).norm_l2() / norm)

    vol1 = model.ball_volume()
    c_g = ConstantEstimates.assemble(n, q, b_est, c_ku, vol1, bern)
    return ConstantEstimates(
        c_ku=c_ku,
        b=b_est,
        bernstein_norms=bern,
        ball_volume_1=vol1,
        c_g=c_g,
        b_verified=b_verified,
    )


def oscillation_constant(proj: SpectralProjector, cache_dir: str | None):
    """``(c_g, b_verified)`` of ``estimate_constants`` on ``proj``, through
    the cache (``_cached``)."""

    def estimate():
        est = estimate_constants(proj)
        return {"c_g": np.array(est.c_g), "b_verified": np.array(est.b_verified)}

    data = _cached("constants", proj.grid, proj.omega, cache_dir, estimate)
    return float(data["c_g"]), bool(data["b_verified"])


def oscillation_scaling_check(proj_e1: SpectralProjector, r_list, seed: int = 0):
    """Ratios ||osc_{B_r} f||_2 / ||f||_2 for 8 random band elements.

    Reports the per-radius ratios and the linear fit of ratio against r.
    """
    if not all(0 < r <= 1 for r in r_list):
        raise ValueError("radii must lie in (0, 1]")
    rows = []
    fs = [random_bandlimited(proj_e1, seed=seed + k) for k in range(8)]
    for r in r_list:
        oscs = oscillation(fs, r)
        ratios = [o.norm_l2() / f.norm_l2() for o, f in zip(oscs, fs)]
        rows.append({"r": float(r), "ratios": ratios, "max_ratio": max(ratios)})
    rs = np.array([row["r"] for row in rows])
    ms = np.array([row["max_ratio"] for row in rows])
    slope = float(np.sum(rs * ms) / np.sum(rs * rs))
    ss_res = float(np.sum((ms - slope * rs) ** 2))
    ss_tot = float(np.sum((ms - ms.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    per_r = ms / rs
    return {
        "rows": rows,
        "slope": slope,
        "r_squared": r2,
        "ratio_over_r": per_r.tolist(),
        "ratio_over_r_spread": float((per_r.max() - per_r.min()) / per_r.max()),
    }


def dilation_residual(grid: Grid, t: float) -> float:
    """max |L(delta_t grid) - t^-2 L(grid)| / max |t^-2 L(grid)| over every
    entry of the two ``sublaplacian_matrix`` assemblies: the homogeneity of
    degree 2 that carries the band E_omega onto E_{omega/t^2} under delta_t.
    A homogeneous discretization leaves only rounding (about 1e-16)."""
    scaled = sublaplacian_matrix(grid) * t**-2.0
    return float(abs(sublaplacian_matrix(grid.dilated(t)) - scaled).max() / abs(scaled).max())
