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

Each model carries the structure the analysis reads: the dilation weights of
its coordinates, how a right translation moves the node lattice, a sample of
its unit sphere, its left-invariant basis fields, the measure of its balls and
when two balls meet.  What a model lacks raises UnsupportedModelError.
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
    "UnsupportedModelError",
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
    #: dilation weight of each coordinate, or None (the affine group is not
    #: stratified)
    weights: tuple | None = None
    #: how ``balls_overlap`` decides: "exact", or "sufficient" when every
    #: pair closer than ``separation_distance`` counts as overlapping
    overlap_test = "sufficient"

    def _unsupported(self, what):
        return UnsupportedModelError(f"{self.kind} has no {what}")

    @property
    def homogeneous_dimension(self) -> int | None:
        """Sum of the dilation weights, or None without dilations."""
        return None if self.weights is None else sum(self.weights)

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
        raise self._unsupported("homogeneous norm")

    def dilate(self, t: float, g) -> np.ndarray:
        """delta_t g: each coordinate scaled by t to the power of its weight."""
        if self.weights is None:
            raise self._unsupported("dilations")
        if t <= 0:
            raise ValueError("dilation parameter must be positive")
        # t**w as a product: pow(t, 2.0) is not always t * t to the last bit
        return _as_points(g, self.dim) * np.array([math.prod([t] * w) for w in self.weights])

    def sphere(self, count) -> np.ndarray:
        """Deterministic sample of the unit sphere of the homogeneous norm."""
        raise self._unsupported("homogeneous sphere")

    def ball_volume(self, r=1.0) -> float:
        """Haar measure of the homogeneous ball B_r."""
        raise self._unsupported("homogeneous ball")

    def field_coefficients(self, i, pts) -> np.ndarray:
        """Chart coefficients c_d(g) of the i-th left-invariant basis field."""
        raise self._unsupported("vector fields")

    def node_shift(self, y, spacings):
        """Integer steps k when right translation by y moves every node of a
        lattice with these spacings k steps along (x y = x + k h); None when
        it leaves the lattice."""
        return None

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
        the max of |log a| and |b| (a coordinate box gauge).  In internal
        coordinates u it does not decrease as any |u_k| grows, so a box of
        internal coordinates lies in the ball of its farthest corner's gauge.
        """
        return self.norm(g)

    def ball_box(self, p, r):
        """Internal-coordinate bounds (lo, hi, shear) of each ball p B_r,
        where B_r = {z : gauge(z) < r}: every u of p B_r has lo <= u <= hi
        on the first dim - 1 axes and lo <= u_last - shear . u_rest <= hi on
        the last.  p has shape (m, dim), lo and hi too, shear (m, dim - 1);
        the shear is zero where the group law does not shear the last axis,
        and at the identity."""
        raise NotImplementedError

    def _unsheared(self, lo, hi):
        return lo, hi, np.zeros(lo.shape[:-1] + (self.dim - 1,))

    def separation_distance(self, s: float) -> float:
        """Gauge distance gauge(g2^-1 g1) at or above which the balls g1 B_s
        and g2 B_s are disjoint.

        2s wherever the gauge is subadditive: the norm of R^n, and the H1
        norm, which under this group law is the Cygan-Koranyi gauge (Cygan,
        Proc. AMS 83 (1981) 69-70).
        """
        return 2.0 * s

    def balls_overlap(self, g1, g2, s) -> bool:
        """Whether the open s-balls around g1 and g2 meet, for centres closer
        than ``separation_distance(s)``: yes unless a model decides exactly,
        which is sound (on H1 vertical pairs meet only below sqrt(2) s)."""
        return True

    def __repr__(self):
        return f"<GroupModel {self.model_id()}>"


class EuclideanModel(GroupModel):
    kind = "euclidean"
    overlap_test = "exact"  # open balls meet exactly when the centres are closer than 2s

    def __init__(self, n: int = 1):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = n
        self.weights = (1,) * n

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

    def sphere(self, count):
        n = self.dim
        if n == 1:
            return np.array([[1.0], [-1.0]])
        if n == 2:
            th = 2 * np.pi * np.arange(count) / count
            return np.column_stack([np.cos(th), np.sin(th)])
        if n > 3:
            raise self._unsupported("sphere sample above dimension 3")
        # Fibonacci sphere
        i = np.arange(count)
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i
        zc = 1 - 2 * (i + 0.5) / count
        rr = np.sqrt(1 - zc**2)
        return np.column_stack([rr * np.cos(phi), rr * np.sin(phi), zc])

    def ball_volume(self, r=1.0):
        if self.dim == 1:
            return 2.0 * r
        if self.dim == 2:
            return math.pi * r**2
        if self.dim == 3:
            return 4.0 / 3.0 * math.pi * r**3
        raise self._unsupported("ball volume above dimension 3")

    def field_coefficients(self, i, pts):
        c = np.zeros(pts.shape)
        c[..., i] = 1.0
        return c

    def node_shift(self, y, spacings):
        k = np.asarray(y, dtype=float) / spacings
        steps = np.rint(k)
        return steps.astype(int) if np.max(np.abs(k - steps)) < 1e-9 else None

    def ball_box(self, p, r):
        p = _as_points(p, self.dim)
        return self._unsheared(p - r, p + r)


class AffineModel(GroupModel):
    kind = "affine"
    dim = 2
    overlap_test = "exact"

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

    def ball_box(self, p, r):
        # p (a_z, b_z) = (a_p a_z, b_p + a_p b_z)
        u = self.to_internal(p)
        half = np.empty_like(u)
        half[..., 0] = r
        half[..., 1] = r * np.asarray(p, dtype=float)[..., 0]
        return self._unsheared(u - half, u + half)

    def separation_distance(self, s):
        # a common point g1 z1 = g2 z2 with z1, z2 in B_s gives
        # g2^-1 g1 = z2 z1^-1, whose |log a| <= 2s and |b| <= s + e^{2s} s
        return s * (1.0 + math.exp(2.0 * s))

    def balls_overlap(self, g1, g2, s):
        # g1 z1 = g2 z2 with z2 = h z1, h = g2^-1 g1 = (alpha, beta): z1 = (a, b)
        # needs |log a|, |log a + log alpha| < s and |b|, |beta + alpha b| < s
        alpha, beta = self.mul(self.inv(g2), g1)
        la = math.log(alpha)
        return bool(
            max(-s, -s - la) < min(s, s - la)
            and max(-s, (-s - beta) / alpha) < min(s, (s - beta) / alpha)
        )


class HeisenbergModel(GroupModel):
    kind = "heis1"
    dim = 3
    weights = (1, 1, 2)

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

    def sphere(self, count):
        # |(x,y,t)| = 1 on the slice: t = s/4, (x,y) = (1-s^2)^(1/4) e(phi)
        n_phi = max(4, int(np.sqrt(count)))
        n_s = max(3, count // n_phi)
        phi = 2 * np.pi * np.arange(n_phi) / n_phi
        s = np.linspace(-1.0, 1.0, n_s)
        P, S = np.meshgrid(phi, s, indexing="ij")
        pr = (1 - S**2) ** 0.25
        return np.stack([pr * np.cos(P), pr * np.sin(P), S / 4.0], axis=-1).reshape(-1, 3)

    def ball_volume(self, r=1.0):
        # midpoint quadrature on n^2 cells of the bounding box of B_1:
        # x^2+y^2 <= 1, |t| <= 1/4, where 16 t^2 <= 1 - (x^2+y^2)^2; scaled
        # by homogeneity
        n = 160
        ax = np.linspace(-1, 1, n, endpoint=False) + 1.0 / n
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        r2 = X**2 + Y**2
        tmax = np.sqrt(np.clip(1.0 - r2**2, 0.0, None)) / 4.0
        vol1 = float(np.sum(2.0 * tmax) * (2.0 / n) ** 2)
        return vol1 * r**self.homogeneous_dimension

    def field_coefficients(self, i, pts):
        c = np.zeros(pts.shape)
        if i == 0:  # X = dx - (y/2) dt
            c[..., 0] = 1.0
            c[..., 2] = -pts[..., 1] / 2.0
        elif i == 1:  # Y = dy + (x/2) dt
            c[..., 1] = 1.0
            c[..., 2] = pts[..., 0] / 2.0
        elif i == 2:  # T = dt
            c[..., 2] = 1.0
        else:
            raise ValueError("heis1 has three basis fields")
        return c

    def ball_box(self, p, r):
        # |z_x|, |z_y| < r and 4|z_t| < r^2 on B_r; u = p z has
        # u_t = p_t + z_t + (p_x u_y - p_y u_x)/2
        p = _as_points(p, 3)
        half = np.empty_like(p)
        half[..., :2] = r
        half[..., 2] = r * (r / 4.0)
        return p - half, p + half, np.stack([-p[..., 1], p[..., 0]], axis=-1) / 2.0


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
