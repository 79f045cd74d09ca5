"""Quadrature grids over chart boxes and complex grid functions.

A grid covers the half-open box [lo, hi) in the model's internal coordinates
with nodes ``lo + i*h`` (``h = (hi-lo)/shape``); the quadrature weight of a
node is the cell volume times the Haar density there, so the weights sum to
the Haar measure of the box exactly for unimodular models.

Functions are complex-valued node arrays, evaluated between nodes by
multilinear interpolation with zero beyond the nodes: along each axis the
interpolant ramps linearly to zero over the cell below ``lo`` and over the
last cell, up to ``hi``, so it is supported on (lo - h, hi).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .groups import GroupModel

__all__ = ["Grid", "GridFunction", "interpolate", "shared_grid"]


@dataclass(frozen=True)
class Grid:
    model: GroupModel
    lo: np.ndarray
    hi: np.ndarray
    shape: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def regular(cls, model, lo, hi, shape):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if np.isscalar(shape) or np.ndim(shape) == 0:
            shape = (int(shape),) * model.dim
        shape = tuple(int(n) for n in shape)
        if len(shape) != model.dim or lo.size != model.dim or hi.size != model.dim:
            raise ValueError("box and shape must match the model dimension")
        if np.any(hi <= lo) or any(n < 2 for n in shape):
            raise ValueError("need hi > lo and at least 2 nodes per axis")
        return cls(model, lo, hi, shape)

    @property
    def dim(self):
        return self.model.dim

    @property
    def spacings(self) -> np.ndarray:
        return (self.hi - self.lo) / np.array(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def axis(self, i) -> np.ndarray:
        h = self.spacings[i]
        return self.lo[i] + h * np.arange(self.shape[i])

    def nodes_internal(self) -> np.ndarray:
        """All nodes in internal coords, shape (*grid.shape, dim)."""
        if "nodes" not in self._cache:
            mesh = np.meshgrid(*[self.axis(i) for i in range(self.dim)], indexing="ij")
            self._cache["nodes"] = np.stack(mesh, axis=-1)
        return self._cache["nodes"]

    def points(self) -> np.ndarray:
        """All nodes in chart coords."""
        return self.model.from_internal(self.nodes_internal())

    def weights(self) -> np.ndarray:
        """Quadrature weights per node, shape = grid.shape."""
        if "weights" not in self._cache:
            cell = float(np.prod(self.spacings))
            dens = self.model.haar_density_internal(self.nodes_internal())
            self._cache["weights"] = cell * dens
        return self._cache["weights"]

    def content_hash(self) -> str:
        payload = json.dumps(
            {
                "model": self.model.model_id(),
                "lo": self.lo.tolist(),
                "hi": self.hi.tolist(),
                "shape": list(self.shape),
            },
            sort_keys=True,
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def dilated(self, t: float) -> "Grid":
        """The image grid under delta_t (models with dilations only)."""
        lo = self.model.to_internal(self.model.dilate(t, self.model.from_internal(self.lo)))
        hi = self.model.to_internal(self.model.dilate(t, self.model.from_internal(self.hi)))
        return Grid.regular(self.model, lo, hi, self.shape)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.model.model_id() == other.model.model_id()
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
            and self.shape == other.shape
        )

    def __hash__(self):
        return hash(self.content_hash())


def interpolate(values: np.ndarray, grid: Grid, pts_internal: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of node values at points (internal coords).

    Along each axis the interpolant ramps linearly from the first node to
    zero at ``lo - h`` and from the last node to zero at ``hi``, so it is
    supported on (lo - h, hi); it is zero outside, and at NaN points.
    ``values`` are finite and may carry leading batch axes: shape
    (..., *grid.shape); each point's stencil is built once for the whole
    batch.
    """
    pts = np.asarray(pts_internal, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    flat = pts.reshape(-1, grid.dim)
    # one contiguous row per axis
    u = (np.ascontiguousarray(flat.T) - grid.lo[:, None]) / grid.spacings[:, None]
    inside = np.all((u >= -1.0) & (u <= np.array(grid.shape)[:, None]), axis=0)
    sel = None if inside.all() else np.flatnonzero(inside)
    if sel is not None:
        u = u[:, sel]

    # per axis: the two node indices of each point, clipped onto the grid,
    # and their weights, 0 where the node is off the grid; the corners
    # follow in the order of their bits, axis 0 lowest, with weights
    # multiplied axis by axis.  On an axis where every point sits on a node
    # the upper weight is 0 for every point, so that corner's terms are +-0
    # and leave the sum unchanged: only the lower corner is built.
    i0 = np.floor(u)
    frac = u - i0
    i0 = i0.astype(np.int64)
    strides = np.cumprod((grid.shape + (1,))[::-1])[::-1][1:]
    for d, n in enumerate(grid.shape):
        # -1 <= k <= n; a negative index viewed as unsigned is never below n
        k = i0[d]
        w = [np.where(k.view(np.uint64) < n, 1.0 - frac[d], 0.0)]
        c = [np.minimum(np.maximum(k, 0), n - 1) * strides[d]]
        if frac[d].any():
            k1 = k + 1
            w.append(np.where(k1 < n, frac[d], 0.0))
            c.append(np.minimum(k1, n - 1) * strides[d])
        if d == 0:
            weights, index = w, c
        else:
            weights = [a * b for b in w for a in weights]
            index = [a + b for b in c for a in index]

    batch = values.shape[: values.ndim - grid.dim]
    vflat = values.reshape(batch + (grid.size,))
    dtype = np.result_type(values.dtype, float)
    # summed from zero, corner by corner: a sum that started from the first
    # corner would keep its -0
    acc = np.zeros(batch + (u.shape[1],), dtype=dtype)
    for w, lin in zip(weights, index):
        term = vflat[..., lin].astype(dtype, copy=False)
        term *= w
        acc += term
    if sel is None:
        out = acc.astype(values.dtype, copy=False)
    else:
        out = np.zeros(batch + (len(flat),), dtype=values.dtype)
        out[..., sel] = acc
    out = out.reshape(batch + pts.shape[:-1])
    if squeeze:
        out = out[..., 0]
    return out


class GridFunction:
    """Complex-valued function sampled on a grid."""

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = values.astype(np.complex128, copy=False)

    @classmethod
    def from_callable(cls, grid: Grid, fn, chart: bool = True):
        pts = grid.points() if chart else grid.nodes_internal()
        coords = np.moveaxis(pts, -1, 0)
        return cls(grid, np.asarray(fn(*coords), dtype=np.complex128))

    # -- norms ---------------------------------------------------------------

    def norm_l2(self, mask=None) -> float:
        w = self.grid.weights()
        v2 = np.abs(self.values) ** 2
        if mask is not None:
            v2 = v2 * mask
        return float(np.sqrt(np.sum(w * v2)))

    def norm_l1(self) -> float:
        return float(np.sum(self.grid.weights() * np.abs(self.values)))

    def norm_sup(self, mask=None) -> float:
        v = np.abs(self.values)
        if mask is not None:
            v = np.where(mask, v, 0.0)
        return float(v.max())

    def inner(self, other: "GridFunction") -> complex:
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        return complex(np.sum(self.grid.weights() * self.values * np.conj(other.values)))

    def support_index(self) -> np.ndarray:
        """Flat indices of the nodes where |f| > 1e-14 max|f|, in order."""
        a = np.abs(self.values.reshape(-1))
        return np.nonzero(a > 1e-14 * max(a.max(), 1e-300))[0]

    def support(self):
        """Chart points (n, dim), quadrature weights and values at ``support_index``."""
        idx = self.support_index()
        pts = self.grid.points().reshape(-1, self.grid.dim)
        return pts[idx], self.grid.weights().reshape(-1)[idx], self.values.reshape(-1)[idx]

    # -- evaluation ----------------------------------------------------------

    def at(self, points_chart) -> np.ndarray:
        """Multilinear interpolation at chart-coordinate points."""
        u = self.grid.model.to_internal(points_chart)
        return interpolate(self.values, self.grid, u)

    def __add__(self, other):
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c):
        return GridFunction(self.grid, self.values * c)

    __rmul__ = __mul__


def shared_grid(fs) -> Grid:
    """The one grid of the functions ``fs``; raises when they have several."""
    if not len(fs):
        raise ValueError("no functions given")
    if any(f.grid != fs[0].grid for f in fs[1:]):
        raise ValueError("shared grid required")
    return fs[0].grid
