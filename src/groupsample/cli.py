"""Experiment runner.

Subcommands::

    groupsample run <config>
    groupsample sweep <config> --param {r,omega,grid} --values v1 v2 ...
    groupsample verify <pointset.csv> --sep S --dense R [--model ID]

Config files are flat ``key = value`` text; ``_EXPERIMENTS`` holds each run
key's default, and ``validate()`` rejects, before any setup, a model or key
the run (or sweep) does not read and a value an experiment's rule forbids.
Each check's bound is fixed in the code.  Each run writes ``report.json`` and
``table.csv`` (plus ``points.csv`` for a central point set) into the output
directory.  Exit status: 0 when every check passes or is hypothesis-not-met,
1 on a check failure, 2 on usage or config errors.  Numbers come from library
calls, except ``haar_scaling_ratio``, ``constants``' Bernstein ratio and the
sweep trends, which are computed here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import sys
import time

import numpy as np

from .groups import EuclideanModel, AffineModel, HeisenbergModel, model_from_id
from .grids import Grid, GridFunction
from .pointsets import (
    PointSet,
    verify_separated,
    verify_dense,
    build_partition,
    quasilattice_semidirect,
    tiling_check,
    hyperbolic_lattice,
    gap_lattice,
)
from .analysis import (
    osc_conv_check,
    oscillation,
    commutator_residual,
    sublaplacian_matrix,
    sublaplacian_spectrum,
    random_bandlimited,
    oscillation_constant,
    oscillation_scaling_check,
    dilation_residual,
    version_hash,
    CACHE_COUNTS,
)
from .kernels import SincKernel, mexican_hat, mexican_hats, cosine_taper_bump, mollified_vector
from .frames import (
    FrameBounds,
    FrameSystem,
    theorem35_verdict,
    quasi_interpolate,
    heisenberg_sampling_experiment,
    hypothesis_scan,
    wavelet_frame_bounds,
    beurling_scan,
)


_SCALAR_KEYS = {
    "experiment": str,
    "model": str,
    "resolution": int,
    "r": float,
    "s": float,
    "omega": float,
    "seed": int,
    "outdir": str,
}
_H1_HALF = 7.0  # the H^1 experiments' chart box is [-_H1_HALF, _H1_HALF)^3
# the line grid over [-32, 32) of beurling-scan, shannon's envelope and partition r1
_LINE_GRID = Grid.regular(EuclideanModel(1), [-32.0], [32.0], (2048,))
_HAAR_POINTS, _HAAR_BLOCK = 4_000_000, 250_000  # haar_scaling_ratio's sample, drawn in blocks


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class ExperimentConfig:
    experiment: str
    model: str | None = None
    resolution: int | None = None
    r: float | None = None
    s: float | None = None
    omega: float | None = None
    seed: int = 0
    outdir: str = "out"

    def validate(self):
        """Reject an unknown experiment, a value out of range, an unrun model,
        and a key the run does not read on that model."""
        return self._validate(False)

    def _validate(self, sweep):
        # a sweep reads the parameters it varies (grid sets resolution)
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose one of {', '.join(_EXPERIMENTS)}"
            )
        for name in ("r", "s", "omega"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ConfigError(f"radius {name} must be positive and finite, got {v}")
        if self.resolution is not None and self.resolution < 3:
            raise ConfigError("grid resolution must be at least 3")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        _, models, params = _EXPERIMENTS[self.experiment]
        if self.model_id not in models:
            raise ConfigError(f"{self.experiment} runs on model {', '.join(models)}, not {self.model!r}")
        if sweep and params is None:
            raise ConfigError(f"experiment {self.experiment!r} has no sweep mode")
        keys = ["resolution" if p == "grid" else p for p in params[1]] if sweep else models[self.model_id]
        unread = [k for k in self.echo() if k not in {"experiment", "model", "seed", "outdir", *keys}]
        if unread:
            reader = f"the {self.experiment} sweep" if sweep else f"{self.experiment} on {self.model_id}"
            raise ConfigError(f"{reader} does not read {', '.join(unread)}")
        # the experiments' rules, on the values the run will read
        if self.experiment == "partition":
            u, w = self.get("r"), self.get("s")
            if w > u:
                raise ConfigError(f"partition needs s <= r (W inside U), got s = {w} and r = {u}")
            jit, span, n = _gamma_r_layout(u, w)
            # on r1 the last node may sit (64 - span) - span / 2n + jit left of the box's right end
            if self.model_id == "r1" and (n < 1 or (64.0 - span) - span / (2 * n) + jit >= u):
                raise ConfigError(f"partition on r1 needs a lattice step 1.6 r + 0.3 s below 64, the "
                                  f"line box width, and a last point within r of its right end 32; "
                                  f"got r = {u} and s = {w}")
        if self.experiment == "heisenberg" and self.get("r") >= 1:
            raise ConfigError("r plays the role of x = r sqrt(omega) C_G here: need 0 < r < 1")
        if (self.experiment == "beurling-scan"
                and _beurling_band(self.get("omega")) >= 0.5 / _LINE_GRID.spacings[0] / 2.0):
            raise ConfigError("omega too large for the scan grid: need omega < 256 pi^2 "
                              f"(about 2527), got {self.get('omega'):g}")
        return self

    @property
    def model_id(self):
        """``model``, or else the experiment's default (its first) model."""
        return self.model or next(iter(_EXPERIMENTS[self.experiment][1]))

    def get(self, key):
        """Run key ``key`` as set, or else its default in ``_EXPERIMENTS``."""
        value = getattr(self, key)
        return _EXPERIMENTS[self.experiment][1][self.model_id][key] if value is None else value

    def echo(self):
        return {k: v for k, v in sorted(dataclasses.asdict(self).items()) if v is not None}


def parse_config(path, overrides=()):
    """A run's config: a flat key=value file, then the overrides."""
    return _config_from_dict(_read_config(path, overrides)).validate()


def _read_config(path, overrides):
    """Flat key=value file, then the key=value overrides; '#' starts a comment."""
    raw = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must have the form key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        raw[key] = value
    return raw


def _config_from_dict(raw):
    if "experiment" not in raw:
        raise ConfigError("config must set 'experiment'")
    kwargs = {}
    for key, value in raw.items():
        if key not in _SCALAR_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _SCALAR_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"bad value for {key}: {value!r}") from None
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col, "")) for col in header))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _check(name, ok, **detail):
    return {"name": name, "verdict": "pass" if ok else "fail", **detail}


# ---------------------------------------------------------------------------
# shared constructions
# ---------------------------------------------------------------------------


def _gamma_r_layout(u, w):
    """Jitter, span and cell count of ``_jittered_gamma_r`` on [-32, 32): no
    cell once the target step 1.6 u + 0.3 w reaches the box width 64."""
    jit = 0.15 * (u - w)
    step_t = 2.0 * (0.95 * u - jit)
    return jit, 64.0 - step_t, math.ceil((64.0 - step_t) / step_t)


def _jittered_gamma_r(model, seed, u, w):
    """Jittered 1-D lattice on [-32, 32) with disjoint B_w-balls and midpoint spacing
    below 0.95 u; B_u-dense while its right-end gap is below u, as ``validate()`` checks."""
    jit, span, n = _gamma_r_layout(u, w)
    step = span / n
    base = -32.0 + 0.5 * step + step * np.arange(n + 1)
    pts = base + np.random.default_rng(seed).uniform(-jit, jit, size=base.size)
    pts = np.clip(pts, -32.0, 32.0 - 1e-9)
    return PointSet(model, pts[:, None], [-32.0], [32.0])


def _h1_jittered_lattice(model, seed):
    """Jittered product lattice of spacing s = 1.4 on the Heisenberg chart box.

    The xy jitter is kept small because the group-law twist (x dy - y dx)/2
    feeds horizontal displacements into the central spacing s^2/2.
    """
    half, s = _H1_HALF, 1.4
    rng = np.random.default_rng(seed)
    px = np.arange(-half, half + 1e-9, s)
    pt = np.arange(-half, half + 1e-9, s * s / 2.0)
    X, Y, T = np.meshgrid(px, px, pt, indexing="ij")
    pts = np.stack([X, Y, T], axis=-1).reshape(-1, 3).copy()
    pts[:, :2] += rng.uniform(-0.02 * s, 0.02 * s, size=(len(pts), 2))
    pts[:, 2] += rng.uniform(-0.04 * s * s, 0.04 * s * s, size=len(pts))
    pts = np.clip(pts, -half, half - 1e-9)
    return PointSet(model, pts, [-half] * 3, [half] * 3)


def _random_smooth(grid, seed, spread):
    """Sum of three Gaussian bumps with random centers and widths in [0.5, 1.2)."""
    rng = np.random.default_rng(seed)
    pts = grid.points()
    vals = np.zeros(grid.shape)
    for _ in range(3):
        c = rng.uniform(-spread, spread, size=grid.dim)
        wd = rng.uniform(0.5, 1.2)
        amp = rng.uniform(-1.0, 1.0)
        e = sum((pts[..., d] - c[d]) ** 2 for d in range(grid.dim))
        vals += amp * np.exp(-e / (2.0 * wd**2))
    return GridFunction(grid, vals)


def _h1_projector(cfg):
    """Band projector at omega on the resolution^3 grid over the chart box,
    through the cache."""
    grid = Grid.regular(HeisenbergModel(), [-_H1_HALF] * 3, [_H1_HALF] * 3, (cfg.get("resolution"),) * 3)
    return sublaplacian_spectrum(grid, cfg.get("omega"), cache_dir=_cache_dir(cfg))


def haar_scaling_ratio(model, t, seed):
    """Measure ratio |delta_t B_1| / |B_1| by Monte Carlo over one shared
    bounding box, so the homogeneity exponent is produced by the geometry
    and not by a change of variables."""
    rng = np.random.default_rng(seed)
    box = np.array([t, t, t * t / 4.0])
    c1 = ct = 0
    for _ in range(_HAAR_POINTS // _HAAR_BLOCK):
        g = model.norm(rng.uniform(-1.0, 1.0, size=(_HAAR_BLOCK, 3)) * box)
        c1 += np.count_nonzero(g <= 1.0)
        ct += np.count_nonzero(g <= t)
    return ct / c1


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _shannon_kernel(n):
    """Band-1/2 sinc kernel on n nodes over [-64, 64)."""
    return SincKernel(Grid.regular(EuclideanModel(1), [-64.0], [64.0], (n,)), 0.5)


def _exp_shannon(cfg):
    kernel = _shannon_kernel(8192)
    model = kernel.grid.model
    rng = np.random.default_rng(cfg.seed)

    # critical, over- and undersampled gaps
    rows = beurling_scan(kernel, (1.0, 0.5, 2.0))
    fb_c, fb_o, fb_u = (FrameBounds(row["a"], row["b"]) for row in rows)
    # the bounds are the exact eigenvalues of the grid kernel's finite frame
    # operator, on its n_modes-dimensional space, not the continuum's
    basis = {"checked_on": "discrete space", "n_modes": kernel.dim}
    checks = [
        _check("shannon-critical-bounds", abs(fb_c.a - 1) <= 1e-3 and abs(fb_c.b - 1) <= 1e-3,
               a=fb_c.a, b=fb_c.b, **basis),
        _check("oversampling-bounds", abs(fb_o.a - 2) <= 5e-3 and abs(fb_o.b - 2) <= 5e-3,
               a=fb_o.a, b=fb_o.b, **basis),
        _check("undersampling-collapse", fb_u.a < 1e-3, a=fb_u.a, **basis),
    ]

    # the gap-1 lattice covers the whole box, as in the scan
    ps_c = PointSet(model, gap_lattice(-64.0, 64.0, 1.0)[:, None], [-64.0], [64.0])
    sys_c = FrameSystem(kernel, ps_c)
    worst = 0.0
    for _ in range(20):
        c = rng.standard_normal(kernel.dim)
        f = kernel.synthesize(c)
        rec = sys_c.reconstruct(sys_c.sample(f), bounds=fb_c)
        worst = max(worst, (rec.function - f).norm_l2() / f.norm_l2())
    checks.append(_check("shannon-reconstruction", worst < 1e-6,
                         worst_rel_err=worst, checked_on="sampled", n_functions=20))

    # oscillation envelope on ten random certified configurations
    ekernel = SincKernel(_LINE_GRID, 0.5)
    env_ok, n_hyp, family_size = True, 0, None
    for k in range(10):
        crng = np.random.default_rng(1000 + cfg.seed + k)
        u = 0.2 + 0.15 * crng.random()
        w = u * (0.25 + 0.15 * crng.random())
        ps = _jittered_gamma_r(model, 2000 + cfg.seed + k, u, w)
        # the verdict certifies ps first and fails when a certificate does
        rep = theorem35_verdict(ekernel, ps, w, u, seed=cfg.seed + k, verify_shape=1024)
        rows.append(
            {"r": u, "a": rep.get("a_emp", float("nan")), "b": rep.get("b_emp", float("nan")),
             "tightness": rep.get("tightness", float("nan"))}
        )
        family_size = rep.get("family_size", family_size)  # absent when a certificate fails
        if rep["verdict"] == "hypothesis-not-met":
            n_hyp += 1
        elif rep["verdict"] != "pass":
            env_ok = False
    checks.append(_check("envelope-ten-configs", env_ok and n_hyp == 0, n_configs=10,
                         n_hypothesis_not_met=n_hyp, checked_on="sampled", family_size=family_size))
    return checks, ("r", "a", "b", "tightness"), rows, ps_c


def _beurling_band(omega):
    return math.sqrt(omega) / (2.0 * math.pi)


def _beurling_kernel(cfg):
    """omega and the sinc kernel of band sqrt(omega) / 2 pi on the line grid,
    which ``validate()`` has checked resolves it."""
    omega = cfg.get("omega")
    return omega, SincKernel(_LINE_GRID, _beurling_band(omega))


def _exp_beurling(cfg):
    omega, kernel = _beurling_kernel(cfg)
    targets = (1.0, 1.4, 2.0, 2.8, 3.5)
    rows = beurling_scan(kernel, [x / math.sqrt(omega) for x in targets])
    table = [{"r_sqrt_omega": x, **row} for x, row in zip(targets, rows)]
    a14, a35 = table[1]["a"], table[4]["a"]
    basis = {"checked_on": "discrete space", "n_modes": kernel.dim}  # as in shannon
    checks = [
        _check("beurling-positive-below-threshold", a14 > 1e-6, a=a14, **basis),
        _check("beurling-collapse-above-threshold", a35 < 1e-3, a=a35, **basis),
    ]
    return checks, ("r_sqrt_omega", "r", "a", "b", "tightness", "n_points"), table, None


def _exp_wavelet(cfg):
    e1 = EuclideanModel(1)
    am = AffineModel()
    sg = Grid.regular(e1, [-20.0], [20.0], (2048,))
    psi = mexican_hat(sg)
    ag = Grid.regular(am, [-3.0, -16.0], [3.0, 16.0], (66, 292))
    system = mollified_vector(psi, ag, cosine_taper_bump(ag))
    scan = hypothesis_scan(system, (0.3, 0.25, 0.2, 0.15, 0.1))
    checks = [
        _check("hypothesis-scan", scan["u_star"] is not None, checked_on="sampled",
               u_star=scan["u_star"], c_factor=scan["c_factor"],
               epsilons={f"{r['u_half']:g}": r["epsilon"] for r in scan["rows"]})
    ]
    rows = []
    if scan["u_star"] is None:
        return checks, ("sigma", "a", "b", "tightness", "n_points"), rows, None

    pg = Grid.regular(e1, [-20.0], [20.0], (8192,))
    probes = mexican_hats(
        pg, [(0.0, 1.0), (0.5, 1.1), (-0.5, 0.9), (0.3, 1.3), (-0.8, 1.2), (0.8, 1.4)]
    )
    # base lattice coarse relative to u*, then refined twice
    sigmas = [16.0 * scan["u_star"] * f for f in (1.0, 0.5, 0.25)]
    bounds = []
    for sigma in sigmas:
        lat = hyperbolic_lattice(
            am, sigma, sigma, (round(-4.0 / sigma), round(3.2 / sigma)), 32.0
        )
        fb = wavelet_frame_bounds(system, lat, probes)
        bounds.append(fb)
        rows.append({"sigma": sigma, "a": fb.a, "b": fb.b,
                     "tightness": fb.tightness, "n_points": len(lat)})
    tight = [fb.tightness for fb in bounds]
    basis = {"checked_on": "probe subspace", "n_probes": len(probes)}
    checks.append(_check("lower-bound-positive", all(fb.a > 0 for fb in bounds),
                         a_values=[fb.a for fb in bounds], **basis))
    checks.append(_check("tightness-monotone", tight[0] > tight[1] > tight[2], tightness=tight,
                         **basis))
    return checks, ("sigma", "a", "b", "tightness", "n_points"), rows, lat  # the finest lattice


def _heisenberg_report(cfg, phases):
    """``heisenberg_sampling_experiment`` over the cached projector and C_G,
    at x = r sqrt(omega) C_G given by r; records the phases ``projector``,
    ``c_g`` and ``lattice`` (``_phase``) and returns the report and the grid."""
    clock = time.perf_counter()
    proj = _h1_projector(cfg)
    clock = _phase(phases, "projector", clock)
    c_g, _ = oscillation_constant(proj, _cache_dir(cfg))
    clock = _phase(phases, "c_g", clock)
    rep = heisenberg_sampling_experiment(proj, c_g, x_target=cfg.get("r"), seed=cfg.seed)
    _phase(phases, "lattice", clock)
    return rep, proj.grid


def _exp_heisenberg(cfg):
    """``_heisenberg_report``, then the band's dilation covariance through the
    operator identity it rests on, L(delta_t grid) = t^-2 L(grid) at
    t = 2^(-1/4) (``dilation_residual``, bound 1e-12 from rounding).  The
    check keeps its historical name ``dilation-covariance-angle``."""
    phases = []
    rep, grid = _heisenberg_report(cfg, phases)
    clock = time.perf_counter()
    residual = dilation_residual(grid, 2.0**-0.25)
    _phase(phases, "dilation-covariance", clock)
    rows = [
        {"k": k, "ratio": ratio, "a_pred": rep["a_pred"]}
        for k, ratio in enumerate(rep["ratios"])
    ]
    checks = [
        _check("lower-ratio-vs-prediction", rep["guaranteed_pass"],
               ratio_min=rep["ratio_min"], a_pred=rep["a_pred"], dilation=rep["dilation"],
               c_g=rep["c_g"], checked_on="sampled", n_functions=len(rep["ratios"])),
        _check("dilation-covariance-angle", residual <= 1e-12,
               residual=residual, bound=1e-12, checked_on="discrete space"),
    ]
    return checks, ("k", "ratio", "a_pred"), rows, None, {"phases": phases}


def _partition_r1(cfg, u, w):
    kernel = SincKernel(_LINE_GRID, 0.5)

    def points(k):
        return _jittered_gamma_r(_LINE_GRID.model, cfg.seed + 10 * k, u, w)

    def funcs(k):
        rng = np.random.default_rng(500 + cfg.seed + k)
        return [kernel.synthesize(rng.standard_normal(kernel.dim)) for _ in range(2)]

    return points, funcs, 1024, 2048


def _partition_heis1(cfg, u, w):
    proj = _h1_projector(cfg)

    def points(k):
        return _h1_jittered_lattice(proj.grid.model, cfg.seed + 10 * k)

    def funcs(k):
        return [random_bandlimited(proj, seed=700 + cfg.seed + 2 * k + j) for j in range(2)]

    return points, funcs, 17, proj.grid.shape[0]


# model -> (bound tolerance, setup(cfg, U radius r, W radius s)); the setup gives the
# k-th point set, the k-th test-function pair, and the density and partition grid shapes
_PARTITION_MODELS = {"r1": (1e-6, _partition_r1), "heis1": (1e-4, _partition_heis1)}


def _exp_partition(cfg):
    u, w = cfg.get("r"), cfg.get("s")
    tol, setup = _PARTITION_MODELS[cfg.model_id]
    points, funcs, dense_shape, partition_shape = setup(cfg, u, w)
    rows = []
    cert_ok = inv_ok = True
    fs, resolved = [], []
    for k in range(10):
        ps = points(k)
        cs = verify_separated(ps, w)
        cd = verify_dense(ps, u, shape=dense_shape)
        part = build_partition(ps, w, u, shape=partition_shape)
        cert_ok &= cs.passed and cd.passed
        inv_ok &= all(part.check_invariants().values())
        resolved.append(part.resolved_counts())
        for j, f in enumerate(funcs(k)):
            q = quasi_interpolate(f.at(ps.points), part)
            rows.append({"config": k, "func": j, "lhs": (f - q).norm_l2()})
            fs.append(f)
    # the test functions of every configuration share one grid and one ball
    worst = -math.inf
    for row, osc in zip(rows, oscillation(fs, u)):
        row["rhs"] = osc.norm_l2()
        row["margin"] = row["rhs"] - row["lhs"]
        worst = max(worst, row["lhs"] - row["rhs"])
    # every configuration is checked the same way
    checks = [
        _check("certificates", cert_ok, n_configs=10, checked_on=cd.detail["checked_on"],
               overlap_test=cs.detail["overlap_test"]),
        _check("partition-invariants", inv_ok, checked_on="grid nodes", n_points=len(ps),
               min_w_balls_with_node=min(c[0] for c in resolved),
               min_cells_with_node=min(c[1] for c in resolved)),
        _check("quasi-interpolation-bound", worst <= tol, worst_violation=worst, tolerance=tol,
               checked_on="sampled"),
    ]
    return checks, ("config", "func", "lhs", "rhs", "margin"), rows, ps


_QL_DEFAULTS = {
    "rn:2": ((-2, 2), (-2, 2)),
    "affine": ((-4, 4), (-2, 2)),
    "heis1": ((-2, 2), (-9, 9)),
}


def _exp_quasilattice(cfg):
    model = model_from_id(cfg.model_id)
    base_range, ell_range = _QL_DEFAULTS[cfg.model_id]
    ps, (c_lo, c_hi) = quasilattice_semidirect(model, base_range, ell_range)
    cert = tiling_check(ps, c_lo, c_hi, shape=33)
    rows = [{"model": cfg.model_id, "n_points": len(ps), **cert.detail}]
    checks = [_check("exact-tiling", cert.passed, **cert.detail)]
    return checks, ("model", "n_points", "min_count", "max_count"), rows, ps


def _exp_oscillation(cfg):
    if cfg.model_id == "r1":
        grid = Grid.regular(EuclideanModel(1), [-16.0], [16.0], (512,))
        tol, spread = 1e-6, 4.0
    else:  # heis1
        grid = Grid.regular(HeisenbergModel(), [-6.0] * 3, [6.0] * 3, (cfg.get("resolution"),) * 3)
        tol, spread = 1e-4, 1.5
    r = cfg.get("r")
    rows = []
    worst = -math.inf
    for k in range(20):
        f = _random_smooth(grid, cfg.seed + 2 * k, spread)
        g = _random_smooth(grid, cfg.seed + 2 * k + 1, spread)
        rep = osc_conv_check(f, g, r, seed=cfg.seed + k)
        worst = max(worst, rep["max_violation"])
        rows.append({"pair": k, "max_violation": rep["max_violation"],
                     "rhs_scale": rep["rhs_scale"]})
    # the sample sizes depend on the grid only, so every pair shares them
    basis = {key: rep[key] for key in ("checked_on", "n_points", "n_offsets")}
    checks = [
        _check("osc-conv-inequality", worst < tol, worst_violation=worst,
               tolerance=tol, n_pairs=20, **basis)
    ]
    return checks, ("pair", "max_violation", "rhs_scale"), rows, None


def _phase(phases, name, t0):
    """Record step ``name`` in ``phases``: its wall seconds since ``t0`` and
    the process's peak RSS after it; returns the time now."""
    t = time.perf_counter()
    phases.append({"name": name, "wall_s": t - t0,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return t


def _exp_constants(cfg):
    phases, clock = [], time.perf_counter()
    proj = _h1_projector(cfg)
    clock = _phase(phases, "projector", clock)
    grid, omega, model = proj.grid, proj.omega, proj.grid.model
    checks = [
        _check("band-dimension", proj.dim >= 20, dim=proj.dim, checked_on="discrete space"),
        _check("homogeneous-dimension", model.homogeneous_dimension == 4,
               q=model.homogeneous_dimension, checked_on="exact"),
    ]
    L = sublaplacian_matrix(grid)
    worst = 0.0
    for i in range(proj.dim):
        v = proj.eigenvectors[i].reshape(-1)
        worst = max(worst, float(np.linalg.norm(L @ v) / np.linalg.norm(v)))
    checks.append(_check("bernstein-eigenbasis", worst <= omega * (1 + 1e-9),
                         max_ratio=worst, omega=omega, checked_on="discrete space",
                         n_modes=proj.dim))
    clock = _phase(phases, "bernstein-eigenbasis", clock)
    res = commutator_residual()
    checks.append(_check("commutator-xy-t", res < 1e-3, residual=res, checked_on="grid nodes"))
    clock = _phase(phases, "commutator-xy-t", clock)
    t = 1.3
    ratio = haar_scaling_ratio(model, t, cfg.seed)
    checks.append(_check("haar-scaling", abs(ratio / t**4 - 1.0) < 1e-2,
                         ratio=ratio, expected=t**4, checked_on="sampled",
                         n_points=_HAAR_POINTS))
    clock = _phase(phases, "haar-scaling", clock)
    c_g, b_verified = oscillation_constant(proj, _cache_dir(cfg))
    clock = _phase(phases, "c_g", clock)
    scal = oscillation_scaling_check(proj, (0.1, 0.2, 0.4), seed=cfg.seed)
    _phase(phases, "osc-scaling", clock)
    rows = [
        {"r": row["r"], "max_ratio": row["max_ratio"],
         "ratio_over_r": row["max_ratio"] / row["r"], "bound": row["r"] * c_g}
        for row in scal["rows"]
    ]
    basis = {"checked_on": "sampled", "n_functions": len(scal["rows"][0]["ratios"])}
    checks.append(_check("osc-scaling-bound", all(row["max_ratio"] <= row["bound"] for row in rows),
                         c_g=c_g, b_verified=b_verified, **basis))
    checks.append(_check("osc-scaling-linearity",
                         scal["ratio_over_r_spread"] < 0.25,
                         spread=scal["ratio_over_r_spread"], slope=scal["slope"],
                         r_squared=scal["r_squared"], **basis))
    return checks, ("r", "max_ratio", "ratio_over_r", "bound"), rows, None, {"phases": phases}


def _cache_dir(cfg):
    """Cache location: GROUPSAMPLE_CACHE overrides the per-run default, so
    repeated runs can share eigensolves."""
    return os.environ.get("GROUPSAMPLE_CACHE") or os.path.join(cfg.outdir, "cache")


def _start():
    """Wall clock and cache counts at the start of a run, for ``_report``."""
    return time.perf_counter(), dict(CACHE_COUNTS)


def _report(experiment, config, checks, start, **extra):
    """The report.json of a run, a sweep or a verify: config echo, library
    version, checks, and the wall time and cache counts since ``start``."""
    t0, counts0 = start
    return {
        "experiment": experiment,
        "config": config,
        "version": version_hash(),
        "checks": checks,
        "wall_time_s": time.perf_counter() - t0,
        "cache": {k: CACHE_COUNTS[k] - v for k, v in counts0.items()},
        **extra,
    }


def run_experiment(cfg):
    """Execute one experiment; returns (report dict, header, rows, pointset).
    A runner may return a fifth item, a dict of extra report keys."""
    start = _start()
    checks, header, rows, pointset, *extra = _EXPERIMENTS[cfg.experiment][0](cfg)
    return _report(cfg.experiment, cfg.echo(), checks, start, **dict(*extra)), header, rows, pointset


def _emit(cfg, report, header, rows, pointset):
    """Write report.json, table.csv and, given a point set, points.csv into
    ``cfg.outdir``."""
    os.makedirs(cfg.outdir, exist_ok=True)
    with open(os.path.join(cfg.outdir, "report.json"), "w") as fh:
        json.dump(_plain(report), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _write_csv(os.path.join(cfg.outdir, "table.csv"), header, rows)
    if pointset is not None:
        pointset.to_csv(os.path.join(cfg.outdir, "points.csv"))


def _plain(o):
    """``o`` as strict JSON data: numpy values become Python ones, and a
    non-finite float is spelt as in table.csv (``inf``, ``-inf``, ``nan``)."""
    if isinstance(o, (np.ndarray, np.generic)):
        return _plain(o.tolist())
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    return _fmt(o) if isinstance(o, float) and not math.isfinite(o) else o


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _shannon_sweep_row(cfg):
    kernel = _shannon_kernel(cfg.resolution if cfg.resolution is not None else 4096)
    gap = cfg.r if cfg.r is not None else 2.0
    rng = np.random.default_rng(cfg.seed)
    pts = gap_lattice(-64.0, 64.0, gap)
    # fixed-profile jitter so density, not luck, drives the bounds
    pts += 0.1 * gap * (2.0 * rng.random(pts.size) - 1.0)
    ps = PointSet(kernel.grid.model, np.clip(pts, -64.0, 64.0 - 1e-9)[:, None], [-64.0], [64.0])
    fb = FrameSystem(kernel, ps).estimate_bounds()
    return {"a": fb.a, "b": fb.b, "tightness": fb.tightness}


def _beurling_sweep_row(cfg):
    omega, kernel = _beurling_kernel(cfg)
    r = cfg.r if cfg.r is not None else 1.4 / math.sqrt(omega)
    row = beurling_scan(kernel, [r])[0]
    return {"a": row["a"], "b": row["b"], "tightness": row["tightness"]}


def _heisenberg_sweep_row(cfg):
    rep, _ = _heisenberg_report(cfg, [])
    return {"a": rep["ratio_min"], "b": rep["ratio_max"],
            "tightness": rep["ratio_min"] / rep["a_pred"]}


def _tightness_trend(vals, rows):
    # denser sets tighten the frame: tightness nonincreasing as r decreases
    t = [rows[i]["tightness"] for i in np.argsort(vals)[::-1]]
    ok = all(t[i + 1] <= t[i] + 1e-6 for i in range(len(t) - 1))
    return _check("tightness-nonincreasing", ok, tightness_by_decreasing_r=t)


def _lower_bound_trend(vals, rows):
    a = [rows[i]["a"] for i in np.argsort(vals)]
    ok = all(a[i + 1] <= a[i] + 1e-6 for i in range(len(a) - 1))
    return _check("lower-bound-nonincreasing", ok, a_by_increasing_r=a)


def _covariance_trend(vals, rows):
    # dilation covariance: ratio_min / a_pred invariant across omega
    norm = [row["tightness"] for row in rows]
    spread = (max(norm) - min(norm)) / max(norm) if norm else 0.0
    return _check("covariance-normalized-ratio", spread < 0.15,
                  normalized=norm, spread=spread)


def _completed_trend(vals, rows):
    return _check("sweep-completed", len(rows) == len(vals), n_rows=len(rows))


# experiment -> (runner, {model: {key its runner reads on that model, beyond
# experiment, seed and outdir: its default}}, sweep or None); the first model
# is the default, and a sweep is (row of one value, {param: trend check}) over
# every parameter it varies, on any model
_H1_RUN = {"resolution": 33, "omega": 1.0}  # _h1_projector's grid and band
_EXPERIMENTS = {
    "shannon": (_exp_shannon, {"r1": {}},
                (_shannon_sweep_row, {"r": _tightness_trend, "grid": _completed_trend})),
    "beurling-scan": (_exp_beurling, {"r1": {"omega": math.pi**2}},
                      (_beurling_sweep_row, {"r": _lower_bound_trend, "omega": _completed_trend})),
    "wavelet-frame": (_exp_wavelet, {"affine": {}}, None),
    "heisenberg": (_exp_heisenberg, {"heis1": {"r": 1.0 - 5e-6, **_H1_RUN}},
                   (_heisenberg_sweep_row, {"r": _completed_trend, "omega": _covariance_trend,
                                            "grid": _completed_trend})),
    "partition": (_exp_partition,
                  {"r1": {"r": 0.25, "s": 0.08}, "heis1": {"r": 2.6, "s": 0.4, **_H1_RUN}}, None),
    "quasilattice": (_exp_quasilattice, {m: {} for m in _QL_DEFAULTS}, None),
    "oscillation": (_exp_oscillation, {"r1": {"r": 0.5}, "heis1": {"r": 0.4, "resolution": 25}}, None),
    "constants": (_exp_constants, {"heis1": _H1_RUN}, None),
}


def run_sweep(cfg, param, values):
    """One row per value of ``param`` (``grid`` sets the resolution), then
    the trend check; returns (report dict, header, rows, None).  Each value
    is parsed and validated like a sweep's config entry before the first
    row, so a parameter the sweep does not vary stops it there."""
    key = "resolution" if param == "grid" else param
    subs = [_config_from_dict({**cfg.echo(), key: v})._validate(True) for v in values]
    row_of, trends = _EXPERIMENTS[cfg.experiment][2]
    vals = [float(getattr(sub, key)) for sub in subs]
    start = _start()
    rows = [{param: v, **row_of(sub)} for v, sub in zip(vals, subs)]
    report = _report(cfg.experiment, cfg.echo(), [trends[param](vals, rows)], start,
                     sweep={"param": param, "values": vals})
    return report, (param, "a", "b", "tightness"), rows, None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_verify(path, model_id, sep, dense):
    """Certify the point set in a CSV file: its ``sep``-balls disjoint, its
    ``dense``-balls covering; returns (report dict, header, rows, pointset)."""
    model = model_from_id(model_id)
    try:
        ps = PointSet.from_csv(path, model)
    except OSError as e:
        raise ConfigError(f"cannot read point set {path}: {e}") from None
    checks = []
    rows = []
    start = _start()
    for name, radius, certify in (("separated", sep, verify_separated),
                                  ("dense", dense, verify_dense)):
        if radius is None:
            continue
        cert = certify(ps, radius)
        # the certificate's detail says how it was checked
        checks.append(_check(name, cert.passed, radius=radius, **cert.detail))
        rows.append({"check": name, "radius": radius, "passed": cert.passed})
    if not checks:
        raise ConfigError("nothing to verify: pass --sep and/or --dense")
    config = {"pointset": os.path.basename(path), "model": model_id,
              "sep": sep, "dense": dense, "n_points": len(ps)}
    return _report("verify", config, checks, start), ("check", "radius", "passed"), rows, ps


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(prog="groupsample",
                                description="sampling-theorem experiment runner")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run one experiment from a config file")
    pr.add_argument("config")
    pr.add_argument("-o", "--override", action="append", default=[],
                    metavar="KEY=VALUE", help="override a config entry")
    pr.add_argument("--outdir", default=None)

    psw = sub.add_parser("sweep", help="run a parameter sweep")
    psw.add_argument("config")
    psw.add_argument("--param", required=True, choices=("r", "omega", "grid"))
    psw.add_argument("--values", required=True, nargs="+")
    psw.add_argument("-o", "--override", action="append", default=[],
                     metavar="KEY=VALUE")
    psw.add_argument("--outdir", default=None)

    pv = sub.add_parser("verify", help="certify a point set from CSV")
    pv.add_argument("pointset")
    pv.add_argument("--model", default="r1")
    pv.add_argument("--sep", type=float, default=None)
    pv.add_argument("--dense", type=float, default=None)
    pv.add_argument("--outdir", default="out")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            dest = args  # _emit reads only .outdir
            out = run_verify(args.pointset, args.model, args.sep, args.dense)
        elif args.command == "run":
            dest = parse_config(args.config, args.override)
            dest.outdir = args.outdir or dest.outdir
            out = run_experiment(dest)
        else:
            dest = _config_from_dict(_read_config(args.config, args.override))
            dest.outdir = args.outdir or dest.outdir
            out = run_sweep(dest, args.param, args.values)
        _emit(dest, *out)
    except ValueError as e:  # ConfigError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    checks = out[0]["checks"]
    for c in checks:
        print(f"{c['name']}: {c['verdict']}")
    return 0 if all(c["verdict"] in ("pass", "hypothesis-not-met") for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
