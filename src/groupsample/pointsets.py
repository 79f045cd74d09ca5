"""Separated/dense sampling sets, their certification, cell partitions, and
quasi-lattice constructions for the semidirect-product models.

Region-level set operations are discretized on a verification grid:
"measure zero overlap" becomes "no shared grid cell".  All outputs are
deterministic (fixed enumeration order: homogeneous norm, then lexicographic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupModel, EuclideanModel, HeisenbergModel, AffineModel
from .grids import Grid

__all__ = [
    "PointSet",
    "Certificate",
    "Partition",
    "verify_separated",
    "verify_dense",
    "build_partition",
    "quasilattice_semidirect",
    "tiling_check",
    "hyperbolic_lattice",
    "gap_lattice",
]


@dataclass
class PointSet:
    """Finite candidate sampling set with the internal-coordinate box it covers."""

    model: GroupModel
    points: np.ndarray  # (N, dim) chart coordinates
    lo: np.ndarray  # region box, internal coordinates
    hi: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.points.shape[1] != self.model.dim:
            raise ValueError("point dimension mismatch")
        if len(np.unique(self.points, axis=0)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    def __len__(self):
        return len(self.points)

    def sorted_order(self) -> np.ndarray:
        """Enumeration order: gauge ascending, ties lexicographic."""
        gauge = self.model.gauge(self.points)
        keys = tuple(self.points[:, d] for d in reversed(range(self.model.dim)))
        return np.lexsort(keys + (gauge,))

    def to_csv(self, path):
        header = ",".join(f"x{i}" for i in range(self.model.dim))
        np.savetxt(path, self.points, delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path, model):
        with open(path) as fh:  # the header, then a row per point; '#' comments
            rows = [line for line in fh.readlines()[1:] if line.split("#", 1)[0].strip()]
        if not rows:
            raise ValueError(f"{path} holds no points")
        pts = np.loadtxt(rows, delimiter=",", ndmin=2)
        u = model.to_internal(pts)
        return cls(model, pts, u.min(axis=0), u.max(axis=0) + 1e-9)


@dataclass
class Certificate:
    kind: str  # "separated" | "dense" | "quasi-lattice"
    radius: float
    passed: bool
    witness: object = None
    n_checked: int = 0
    detail: dict = field(default_factory=dict)

# relative padding of the candidate boxes, so that rounding in the gauge never
# finds a pair within r that the box left out
_BOX_SLACK = 1e-9
# candidate pairs per block of gauge evaluations: the one memory bound of a near-pair search
_CHUNK = 1 << 18
# bucket cells per median box width: finer cells mean fewer candidates
# outside the boxes but more cell runs per box
_CELLS_PER_BOX = 4
# grid-resolution tolerance of a partition's radii: U is tested at
# u + _RADIUS_TOL and W at w - _RADIUS_TOL
_RADIUS_TOL = 1e-12


def _near_blocks(model, x, pts, r):
    """The pairs with d = gauge(p_j^-1 x_i) < r as arrays (i, j, d), one yield
    per block of at most ``_CHUNK`` candidate pairs, in no set order.  r may be inf.

    d is evaluated only on candidates: the x_i inside the internal-coordinate
    bounds of p_j B_r (``model.ball_box``), whose last axis may be sheared
    by the others.  The x are bucketed into cells a quarter of the median box
    wide; for each cell of its first dim - 1 axes that a box meets, one run
    of sorted cell keys covers the last axis over that cell column.
    """
    if not (len(x) and len(pts)):
        return
    # one contiguous row per axis
    u = np.ascontiguousarray(model.to_internal(x).T)
    lo, hi, shear = (np.ascontiguousarray(v.T) for v in model.ball_box(pts, r))
    umin, umax = u.min(axis=1), u.max(axis=1)
    pad = _BOX_SLACK * (np.abs(lo) + np.abs(hi))
    # the sheared last coordinate also rounds with the size of its terms
    reach = np.maximum(np.abs(umin), np.abs(umax))
    pad[-1] += _BOX_SLACK * (reach[-1] + reach[:-1] @ np.abs(shear))
    lo, hi = lo - pad, hi + pad

    cell = np.maximum(np.median(hi - lo, axis=1) / _CELLS_PER_BOX, (umax - umin) / len(x))
    n_cells = ((umax - umin) / cell).astype(np.int64) + 1
    strides = np.cumprod(np.r_[1, n_cells[:0:-1]])[::-1]

    def cell_of(v, k):
        return np.minimum(((v - umin[k]) / cell[k]).astype(np.int64), n_cells[k] - 1)

    key = sum(cell_of(u[k], k) * strides[k] for k in range(model.dim))
    order = np.argsort(key, kind="stable")
    key, u, x = key[order], u[:, order], np.asarray(x, dtype=float)[order]

    # one run per ball and cell column (a cell of the first dim - 1 axes)
    # its box meets
    rest_axes = range(model.dim - 1)
    c_lo = [cell_of(np.clip(lo[k], umin[k], umax[k]), k) for k in rest_axes]
    span = [cell_of(np.clip(hi[k], umin[k], umax[k]), k) - c_lo[k] + 1 for k in rest_axes]
    meets = np.ones(len(pts), dtype=bool)
    for k in rest_axes:
        meets &= (lo[k] <= umax[k]) & (hi[k] >= umin[k])
    n_run = np.where(meets, math.prod(span), 0)
    jr = np.repeat(np.arange(len(pts)), n_run)
    rest = np.arange(len(jr)) - np.repeat(np.cumsum(n_run) - n_run, n_run)
    # the last axis over the column clipped to the box: shear . u_rest ranges
    # between its values at the column's ends; the column width is capped by
    # the extent of the x, so that an infinite cell (r = inf) has finite ends
    width = np.minimum(cell, umax - umin + 1.0)
    first = np.zeros(len(jr), dtype=np.int64)  # key of the column's cell 0
    t_lo, t_hi = lo[-1][jr], hi[-1][jr]
    for k in reversed(rest_axes):
        col = c_lo[k][jr] + rest % span[k][jr]
        rest //= span[k][jr]
        first += col * strides[k]
        at_lo = shear[k][jr] * np.maximum(umin[k] + col * width[k], lo[k][jr])
        at_hi = shear[k][jr] * np.minimum(umin[k] + (col + 1) * width[k], hi[k][jr])
        t_lo += np.minimum(at_lo, at_hi)
        t_hi += np.maximum(at_lo, at_hi)
    last = first + cell_of(np.clip(t_hi, umin[-1], umax[-1]), -1)
    first += cell_of(np.clip(t_lo, umin[-1], umax[-1]), -1)
    start = np.searchsorted(key, first, side="left")
    count = np.searchsorted(key, last, side="right") - start
    # only the runs that hold a candidate go on: most hold none when r is small
    keep = (count > 0) & (t_lo <= umax[-1]) & (t_hi >= umin[-1])
    jr, start, count = jr[keep], start[keep], count[keep]

    inv = model.inv(pts)
    ends = np.cumsum(count)
    start -= ends - count  # so candidate k of all, in run m, is the sorted x[start[m] + k]
    for b0 in range(0, int(count.sum()), _CHUNK):
        # the runs that meet candidates [b0, b0 + _CHUNK), cut to them
        sl = slice(np.searchsorted(ends, b0, side="right"), np.searchsorted(ends, b0 + _CHUNK) + 1)
        cb = np.minimum(ends[sl], b0 + _CHUNK) - np.maximum(ends[sl] - count[sl], b0)
        pos = np.arange(b0, b0 + cb.sum()) + np.repeat(start[sl], cb)
        jc = np.repeat(jr[sl], cb)
        t = u[-1][pos]
        inside = np.ones(len(pos), dtype=bool)
        for k in range(model.dim - 1):
            uk = u[k][pos]
            t -= shear[k][jc] * uk
            inside &= (uk >= lo[k][jc]) & (uk <= hi[k][jc])
        inside &= (t >= lo[-1][jc]) & (t <= hi[-1][jc])
        pos, jc = pos[inside], jc[inside]
        if not len(pos):
            continue
        d = model.gauge(model.mul(inv[jc], x[pos]))
        near = d < r
        yield order[pos[near]], jc[near], d[near]


def _near_pairs(model, x, pts, r):
    """Every pair of ``_near_blocks``, as arrays (i, j, d) sorted by (i, j)."""
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    i, j, d = (np.concatenate(a) for a in zip(empty, *_near_blocks(model, x, pts, r)))
    k = np.lexsort((j, i))
    return i[k], j[k], d[k]


def verify_separated(ps: PointSet, s: float) -> Certificate:
    """Pairwise disjointness of the gauge balls of radius s around the points.

    Two balls are disjoint when their centres lie at gauge distance at least
    ``model.separation_distance(s)``: 2s where the gauge is subadditive (R^n,
    H1), s (1 + e^{2s}) for the affine box gauge.  A closer pair fails unless
    ``model.balls_overlap`` finds its balls disjoint, which only the affine
    group's exact box test can.  On R^n closer means overlapping; on H1 the
    rule is sound but conservative: vertical pairs in [sqrt(2) s, 2s) fail.
    ``detail["overlap_test"]`` says "exact" or "sufficient".  Raises unless
    0 < s < inf.
    """
    if not 0 < s < math.inf:
        raise ValueError(f"separation radius must be positive and finite, got {s}")
    model = ps.model
    detail = {"overlap_test": model.overlap_test, "exact_pairs": 0}
    i, j, _ = _near_pairs(model, ps.points, ps.points, model.separation_distance(s))
    for a, b in zip(i[i < j], j[i < j]):
        detail["exact_pairs"] += 1
        if model.balls_overlap(ps.points[a], ps.points[b], s):
            return Certificate(
                "separated", s, False, witness=(ps.points[a], ps.points[b]),
                n_checked=len(ps), detail=detail,
            )
    return Certificate("separated", s, True, n_checked=len(ps), detail=detail)


def verify_dense(ps: PointSet, r: float, shape=64) -> Certificate:
    """Every grid point of the region lies within gauge distance r of the set.

    Only the grid nodes are checked, not the whole region; the certificate
    says so in ``detail["checked_on"]``.  The set is searched within r/2 of
    every node, then within r, then whole, each time over the nodes still
    without a point; a node that finds one within a radius finds all, so
    ``worst_distance`` is exact over the nodes.  Raises unless 0 < r < inf.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"density radius must be positive and finite, got {r}")
    model = ps.model
    grid = Grid.regular(model, ps.lo, ps.hi, shape)
    x = grid.points().reshape(-1, model.dim)
    dist = np.full(len(x), np.inf)
    far = np.arange(len(x))
    for rung in (r / 2, r, np.inf):
        if len(far):
            for i, _, d in _near_blocks(model, x[far], ps.points, rung):
                np.minimum.at(dist, far[i], d)
            far = far[np.isinf(dist[far])]
    k = int(np.argmax(dist))
    passed = bool(dist[k] < r)
    return Certificate(
        "dense", r, passed, witness=None if passed else x[k],
        n_checked=len(x), detail={"worst_distance": float(dist[k]), "checked_on": "grid nodes"},
    )


@dataclass
class Partition:
    """Grid-cell assignment realizing the recursive cells W subset V_gamma subset U."""

    pointset: PointSet
    grid: Grid
    assignment: np.ndarray  # int index into pointset.points, shape = grid.shape
    w_radius: float
    u_radius: float
    #: the pairs (i, j, d) of grid nodes and points with
    #: d < u_radius + _RADIUS_TOL, as ``build_partition`` found them
    near_pairs: tuple = field(repr=False, compare=False)

    def check_invariants(self) -> dict:
        """Disjoint cover and W subset V_gamma subset U at grid resolution."""
        a = self.assignment.reshape(-1)
        covered = bool(np.all(a >= 0))
        u_tol, w_tol = self.u_radius + _RADIUS_TOL, self.w_radius - _RADIUS_TOL
        i, j, d = self.near_pairs
        own = (j == a[i]) & (d < u_tol)
        inside_u = bool(np.count_nonzero(own) == len(a))
        # every cell strictly inside gamma B_W belongs to gamma
        near = d < w_tol
        w_ok = bool(np.all(j[near] == a[i[near]]))
        return {"covered": covered, "inside_u": inside_u, "w_contained": w_ok}

    def resolved_counts(self) -> tuple:
        """(W-balls that hold a grid node, cells that own one): only those
        W-balls test W subset V_gamma at grid resolution."""
        _, j, d = self.near_pairs
        return len(np.unique(j[d < self.w_radius - _RADIUS_TOL])), len(np.unique(self.assignment))

def _first_per_cell(i, j, key):
    """For each distinct cell i of the pairs (i, j), the j with the smallest
    (key, j)."""
    k = np.lexsort((j, key, i))
    cells, first = np.unique(i[k], return_index=True)
    return cells, j[k][first]


def build_partition(ps: PointSet, w_radius, u_radius, shape=64) -> Partition:
    """Recursive cell construction: seed each point with its W-ball, then hand
    the remaining region to the points in enumeration order, each taking what
    is left of its U-ball.
    """
    if not 0 < w_radius <= u_radius:
        raise ValueError("need 0 < W radius <= U radius")
    model = ps.model
    grid = Grid.regular(model, ps.lo, ps.hi, shape)
    x = grid.points().reshape(-1, model.dim)
    # one search serves the rules below and check_invariants' tolerance
    near_pairs = _near_pairs(model, x, ps.points, u_radius + _RADIUS_TOL)
    i, j, d = (v[near_pairs[2] < u_radius] for v in near_pairs)

    assignment = np.full(len(x), -1, dtype=np.int64)
    # W-balls first; separation certificate makes these disjoint, numerically
    # a shared cell goes to the nearer point, ties to the lower index
    w = d < w_radius
    cells, owner = _first_per_cell(i[w], j[w], d[w])
    assignment[cells] = owner
    # each free cell goes to the first point in enumeration order whose
    # U-ball holds it
    order = ps.sorted_order()
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    free = assignment[i] < 0
    cells, owner = _first_per_cell(i[free], j[free], rank[j[free]])
    assignment[cells] = owner
    if np.any(assignment < 0):
        bad = x[np.argmax(assignment < 0)]
        raise ValueError(
            f"region not covered by U-balls (density precondition violated near {bad})"
        )
    return Partition(ps, grid, assignment.reshape(grid.shape), w_radius, u_radius, near_pairs)


# ---------------------------------------------------------------------------
# quasi-lattices
# ---------------------------------------------------------------------------


def quasilattice_semidirect(model, base_range, ell_range):
    """Inductive quasi-lattice for the semidirect-product models.

    The lattice of the normal factor is transported by the action of the
    quotient parameter: affine gets the hyperbolic set {(e^l, e^l m)},
    the plane gets Z^2, and heis1 gets the integer-type set {(p, q, r/2)}
    (a subgroup: the central components close under the group law).
    Returns (PointSet, (c_lo, c_hi)) with the complement box in internal
    coordinates.
    """
    b0, b1 = int(base_range[0]), int(base_range[1])
    l0, l1 = int(ell_range[0]), int(ell_range[1])
    base = np.arange(b0, b1 + 1)
    ells = np.arange(l0, l1 + 1)
    if isinstance(model, AffineModel):
        M, L = np.meshgrid(base, ells, indexing="ij")
        a = np.exp(L.astype(float))
        pts = np.column_stack([a.ravel(), (a * M).ravel()])
        # row l covers b in [b0 e^l, (b1+1) e^l); the box below is inside
        # every row's coverage, so the tiling over it is exact
        lo = np.array([float(l0), b0 * math.exp(l0)])
        hi = np.array([float(l1 + 1), (b1 + 1) * math.exp(l0)])
        c_box = (np.zeros(2), np.ones(2))
        return PointSet(model, pts, lo, hi), c_box
    if isinstance(model, EuclideanModel) and model.dim == 2:
        P, Q = np.meshgrid(base, ells, indexing="ij")
        pts = np.column_stack([P.ravel(), Q.ravel()]).astype(float)
        return PointSet(model, pts, [b0, l0], [b1 + 1, l1 + 1]), (np.zeros(2), np.ones(2))
    if isinstance(model, HeisenbergModel):
        P, Q, R = np.meshgrid(base, base, ells, indexing="ij")
        pts = np.column_stack([P.ravel(), Q.ravel(), R.ravel() / 2.0]).astype(float)
        # the central chart coordinate of gamma^-1 x is sheared by
        # (p c_y - q c_x)/2, so the exactly-tiled t-box shrinks by the
        # largest base index magnitude on each side
        shear = float(max(abs(b0), abs(b1)))
        lo = np.array([float(b0), float(b0), l0 / 2.0 + shear])
        hi = np.array([float(b1 + 1), float(b1 + 1), (l1 + 1) / 2.0 - shear])
        if lo[2] >= hi[2]:
            raise ValueError(
                "central range too small for the base range: widen ell_range"
            )
        c_box = (np.zeros(3), np.array([1.0, 1.0, 0.5]))
        return PointSet(model, pts, lo, hi), c_box
    raise ValueError("no semidirect construction for this model")


def tiling_check(ps: PointSet, c_lo, c_hi, shape) -> Certificate:
    """Gamma C covers the region disjointly: every grid node lies in exactly
    one translate gamma C (C a half-open internal-coordinate box).  Only the
    grid nodes are checked, as ``detail["checked_on"]`` says, with their
    count in ``detail["n_nodes"]``.

    A translate is tested only on the nodes ``_near_blocks`` finds within the
    gauge of C's farthest corner, padded for rounding: the gauge does not
    decrease as any |u_k| grows, so that ball holds C.
    """
    model = ps.model
    c_lo = np.asarray(c_lo, dtype=float)
    c_hi = np.asarray(c_hi, dtype=float)
    lo, hi = c_lo - 1e-9, c_hi - 1e-9
    grid = Grid.regular(model, ps.lo, ps.hi, shape)
    x = grid.points().reshape(-1, model.dim)
    corner = model.from_internal(np.maximum(np.abs(lo), np.abs(hi)))
    r = float(model.gauge(corner)) * (1.0 + 1e-6)
    counts = np.zeros(len(x), dtype=np.int64)
    inv = model.inv(ps.points)
    for i, j, _ in _near_blocks(model, x, ps.points, r):
        q = model.to_internal(model.mul(inv[j], x[i]))
        counts += np.bincount(i[np.all((q >= lo) & (q < hi), axis=1)], minlength=len(x))
    passed = bool(np.all(counts == 1))
    return Certificate(
        "quasi-lattice", float(np.max(c_hi - c_lo)), passed,
        witness=None if passed else x[int(np.argmax(counts != 1))],
        n_checked=len(x),
        detail={"min_count": int(counts.min()), "max_count": int(counts.max()),
                "checked_on": "grid nodes", "n_nodes": len(x)},
    )


def hyperbolic_lattice(model, sigma, beta, ell_range, b_extent) -> PointSet:
    """Affine lattice {(e^{l sigma}, e^{l sigma} m beta)} with |b| <= b_extent.

    Dense for the internal-coordinate box with half-widths
    (sigma/2, beta/2): the scale index l pins ln(a) within sigma/2 and the
    shift index m pins the rescaled shift within beta/2.  Halving (sigma,
    beta) refines the lattice.
    """
    if not isinstance(model, AffineModel):
        raise ValueError("hyperbolic lattice lives on the affine group")
    pts = []
    for ell in range(int(ell_range[0]), int(ell_range[1]) + 1):
        a = math.exp(ell * sigma)
        m_max = int(math.floor(b_extent / (a * beta)))
        ms = np.arange(-m_max, m_max + 1)
        pts.append(np.column_stack([np.full(len(ms), a), a * beta * ms]))
    pts = np.concatenate(pts)
    lo = np.array([ell_range[0] * sigma, -b_extent])
    hi = np.array([(ell_range[1] + 1) * sigma, b_extent + 1e-9])
    return PointSet(model, pts, lo, hi)


def gap_lattice(lo, hi, gap) -> np.ndarray:
    """The multiples of ``gap`` in the half-open interval [lo, hi)."""
    return np.arange(math.ceil(lo / gap), math.ceil(hi / gap)) * gap
