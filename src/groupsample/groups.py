"""Concrete group models: R^n, the affine group, and the Heisenberg group H1.

Points are plain numpy arrays of shape (..., dim) in the model's canonical
chart.  All operations are vectorized over leading axes and pure, so they are
safe for unrestricted parallel use.

Chart conventions
-----------------
* euclidean(n): coords x in R^n, addition.
* affine: coords (a, b) with a > 0; (a1,b1)(a2,b2) = (a1*a2, b1 + a1*b2).
  Left Haar density da db / a^2.
* heis1: exponential coordinates (x, y, t) with the symmetric BCH law
  t3 = t1 + t2 + (x1*y2 - y1*x2)/2.  Homogeneous norm
  ((x^2+y^2)^2 + 16 t^2)^(1/4), dilations (x,y,t) -> (r x, r y, r^2 t).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GroupModel",
    "EuclideanModel",
    "AffineModel",
    "HeisenbergModel",
    "model_from_id",
]


class UnsupportedModelError(ValueError):
    """Operation requires structure (dilations, homogeneous norm) the model lacks."""


def _as_points(g, dim):
    g = np.asarray(g, dtype=float)
    if g.shape[-1] != dim:
        raise ValueError(f"expected points with last axis {dim}, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("point coordinates must be finite")
    return g


class GroupModel:
    """Base class; subclasses fix the chart, group law and metric structure."""

    kind: str
    dim: int
    #: homogeneous dimension, or None (affine group is not stratified)
    homogeneous_dimension: int | None = None

    # -- group law -----------------------------------------------------------

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def mul(self, g, h) -> np.ndarray:
        raise NotImplementedError

    def inv(self, g) -> np.ndarray:
        raise NotImplementedError

    # -- metric structure ----------------------------------------------------

    def norm(self, g) -> np.ndarray:
        """Homogeneous norm |g| (euclidean and heis1 only)."""
        raise UnsupportedModelError(f"{self.kind} has no homogeneous norm")

    def dilate(self, t: float, g) -> np.ndarray:
        raise UnsupportedModelError(f"{self.kind} has no dilations")

    def haar_weight(self, g) -> np.ndarray:
        """Left Haar density at g in chart coordinates."""
        g = _as_points(g, self.dim)
        return np.ones(g.shape[:-1])

    # -- internal (grid) coordinates ----------------------------------------
    # Grids are uniform in internal coordinates; for the affine group these
    # are (log a, b), elsewhere they coincide with the chart.

    def to_internal(self, g) -> np.ndarray:
        return _as_points(g, self.dim)

    def from_internal(self, u) -> np.ndarray:
        return np.asarray(u, dtype=float)

    def haar_density_internal(self, u) -> np.ndarray:
        """Left Haar density with respect to Lebesgue measure in internal coords."""
        u = np.asarray(u, dtype=float)
        return np.ones(u.shape[:-1])

    # -- misc ----------------------------------------------------------------

    def model_id(self) -> str:
        return self.kind

    def gauge(self, g) -> np.ndarray:
        """Distance-like gauge used by point-set certification.

        Equals the homogeneous norm where one exists; the affine group uses
        the max of |log a| and |b| (a coordinate box gauge).
        """
        return self.norm(g)

    def ball_box(self, p, r):
        """Internal-coordinate bounding box (lo, hi) of each ball p B_r, where
        B_r = {z : gauge(z) < r}; p has shape (m, dim), lo and hi too."""
        raise NotImplementedError

    def separation_distance(self, s: float) -> float:
        """Gauge distance gauge(g2^-1 g1) at or above which the balls g1 B_s
        and g2 B_s are disjoint.

        2s wherever the gauge is subadditive: the norm of R^n, and the H1
        norm, which under this group law is the Cygan-Koranyi gauge (Cygan,
        Proc. AMS 83 (1981) 69-70).
        """
        return 2.0 * s

    def random_points(self, n, scale=1.0, rng=None) -> np.ndarray:
        rng = np.random.default_rng(rng)
        return self.from_internal(rng.normal(scale=scale, size=(n, self.dim)))

    def __repr__(self):
        return f"<GroupModel {self.model_id()}>"


class EuclideanModel(GroupModel):
    kind = "euclidean"

    def __init__(self, n: int = 1):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = n
        self.homogeneous_dimension = n

    def model_id(self):
        return f"rn:{self.dim}" if self.dim != 1 else "r1"

    def mul(self, g, h):
        g = _as_points(g, self.dim)
        h = _as_points(h, self.dim)
        return g + h

    def inv(self, g):
        return -_as_points(g, self.dim)

    def norm(self, g):
        g = _as_points(g, self.dim)
        return np.linalg.norm(g, axis=-1)

    def dilate(self, t, g):
        if t <= 0:
            raise ValueError("dilation parameter must be positive")
        return t * _as_points(g, self.dim)

    def ball_box(self, p, r):
        p = _as_points(p, self.dim)
        return p - r, p + r


class AffineModel(GroupModel):
    kind = "affine"
    dim = 2

    def identity(self):
        return np.array([1.0, 0.0])

    def _check(self, g):
        g = _as_points(g, 2)
        if np.any(g[..., 0] <= 0):
            raise ValueError("affine scale coordinate must be strictly positive")
        return g

    def mul(self, g, h):
        g = self._check(g)
        h = self._check(h)
        out = np.empty(np.broadcast_shapes(g.shape, h.shape))
        out[..., 0] = g[..., 0] * h[..., 0]
        out[..., 1] = g[..., 1] + g[..., 0] * h[..., 1]
        return out

    def inv(self, g):
        g = self._check(g)
        out = np.empty_like(g)
        out[..., 0] = 1.0 / g[..., 0]
        out[..., 1] = -g[..., 1] / g[..., 0]
        return out

    def haar_weight(self, g):
        g = self._check(g)
        return 1.0 / g[..., 0] ** 2

    def to_internal(self, g):
        g = self._check(g)
        u = np.empty_like(g)
        u[..., 0] = np.log(g[..., 0])
        u[..., 1] = g[..., 1]
        return u

    def from_internal(self, u):
        u = np.asarray(u, dtype=float)
        g = np.empty_like(u)
        g[..., 0] = np.exp(u[..., 0])
        g[..., 1] = u[..., 1]
        return g

    def haar_density_internal(self, u):
        # da db/a^2 = e^{-v} dv db with v = log a
        u = np.asarray(u, dtype=float)
        return np.exp(-u[..., 0])

    def gauge(self, g):
        u = self.to_internal(g)
        return np.maximum(np.abs(u[..., 0]), np.abs(u[..., 1]))

    def random_points(self, n, scale=1.0, rng=None):
        rng = np.random.default_rng(rng)
        return self.from_internal(rng.normal(scale=scale, size=(n, 2)))

    def ball_box(self, p, r):
        # p (a_z, b_z) = (a_p a_z, b_p + a_p b_z)
        u = self.to_internal(p)
        half = np.empty_like(u)
        half[..., 0] = r
        half[..., 1] = r * np.asarray(p, dtype=float)[..., 0]
        return u - half, u + half

    def separation_distance(self, s):
        # a common point g1 z1 = g2 z2 with z1, z2 in B_s gives
        # g2^-1 g1 = z2 z1^-1, whose |log a| <= 2s and |b| <= s + e^{2s} s
        return s * (1.0 + math.exp(2.0 * s))


class HeisenbergModel(GroupModel):
    kind = "heis1"
    dim = 3
    homogeneous_dimension = 4

    def model_id(self):
        return "heis1"

    def mul(self, g, h):
        g = _as_points(g, 3)
        h = _as_points(h, 3)
        out = np.empty(np.broadcast_shapes(g.shape, h.shape))
        out[..., 0] = g[..., 0] + h[..., 0]
        out[..., 1] = g[..., 1] + h[..., 1]
        out[..., 2] = (
            g[..., 2]
            + h[..., 2]
            + 0.5 * (g[..., 0] * h[..., 1] - g[..., 1] * h[..., 0])
        )
        return out

    def inv(self, g):
        return -_as_points(g, 3)

    def norm(self, g):
        g = _as_points(g, 3)
        r2 = g[..., 0] ** 2 + g[..., 1] ** 2
        return (r2**2 + 16.0 * g[..., 2] ** 2) ** 0.25

    def dilate(self, t, g):
        if t <= 0:
            raise ValueError("dilation parameter must be positive")
        g = _as_points(g, 3)
        out = np.empty_like(g)
        out[..., 0] = t * g[..., 0]
        out[..., 1] = t * g[..., 1]
        out[..., 2] = t * t * g[..., 2]
        return out

    def ball_box(self, p, r):
        # |x|, |y| < r and 4|t| < r^2 on B_r; the group law shears t by
        # (p_x z_y - p_y z_x)/2
        p = _as_points(p, 3)
        half = np.empty_like(p)
        half[..., :2] = r
        half[..., 2] = r * (r / 4.0 + (np.abs(p[..., 0]) + np.abs(p[..., 1])) / 2.0)
        return p - half, p + half



def model_from_id(model_id: str) -> GroupModel:
    """Resolve a model from its CLI/config string id."""
    if model_id == "r1":
        return EuclideanModel(1)
    if model_id.startswith("rn:"):
        n = int(model_id.split(":", 1)[1])
        if n > 3:
            # oscillation and ball sampling take sphere directions in R^1..R^3
            raise ValueError(f"unsupported model {model_id!r}: rn:N needs N <= 3")
        return EuclideanModel(n)
    if model_id == "affine":
        return AffineModel()
    if model_id == "heis1":
        return HeisenbergModel()
    raise ValueError(f"unknown model id {model_id!r}")
