import hashlib
import math

import numpy as np
import pytest

from groupsample import (
    EuclideanModel,
    AffineModel,
    HeisenbergModel,
    Grid,
    PointSet,
    Certificate,
    verify_separated,
    verify_dense,
    build_partition,
    quasilattice_semidirect,
    tiling_check,
)
from groupsample.pointsets import hyperbolic_lattice, _near_pairs

from helpers import random_points

NEAR_MODELS = [EuclideanModel(1), EuclideanModel(2), AffineModel(), HeisenbergModel()]


def _dense_gauge(model, x, pts):
    """Reference for the near-pair search: d[i, j] = gauge(p_j^-1 x_i) for
    every pair."""
    return model.gauge(model.mul(model.inv(pts)[None, :, :], x[:, None, :]))


def _jittered(model, lo, hi, shape, jitter, seed):
    """Grid nodes over [lo, hi) moved by up to jitter cells in internal
    coordinates: a separated, dense test set."""
    grid = Grid.regular(model, lo, hi, shape)
    u = grid.nodes_internal().reshape(-1, model.dim)
    rng = np.random.default_rng(seed)
    u = u + jitter * grid.spacings * rng.uniform(-1, 1, size=u.shape)
    return PointSet(model, model.from_internal(u), lo, hi)


def test_verify_separated_detects_collision():
    model = EuclideanModel(1)
    ps = PointSet(model, np.array([[0.0], [0.05], [1.0]]), [0.0], [2.0])
    cert = verify_separated(ps, 0.1)
    assert not cert.passed
    assert cert.witness is not None


def test_verify_dense_detects_hole():
    model = EuclideanModel(1)
    ps = PointSet(model, np.array([[0.0], [4.0]]), [0.0], [4.5])
    cert = verify_dense(ps, 0.5, shape=128)
    assert not cert.passed


def test_verify_dense_rejects_nonpositive_radius():
    model = EuclideanModel(1)
    ps = PointSet(model, np.array([[0.0]]), [0.0], [1.0])
    with pytest.raises(ValueError):
        verify_dense(ps, 0.0)


def test_partition_invariants_euclidean():
    model = EuclideanModel(1)
    pts = np.arange(0.25, 8.0, 0.5)[:, None]
    ps = PointSet(model, pts, [0.0], [8.0])
    part = build_partition(ps, 0.1, 0.5, shape=512)
    inv = part.check_invariants()
    assert inv == {"covered": True, "inside_u": True, "w_contained": True}
    # cells partition the region measure exactly
    meas = np.bincount(part.assignment.reshape(-1), weights=part.grid.weights().reshape(-1))
    assert np.sum(meas) == pytest.approx(8.0)


def test_partition_requires_valid_radii():
    model = EuclideanModel(1)
    ps = PointSet(model, np.array([[0.5]]), [0.0], [1.0])
    with pytest.raises(ValueError):
        build_partition(ps, 0.5, 0.1)


def test_partition_uncovered_region_raises():
    model = EuclideanModel(1)
    ps = PointSet(model, np.array([[0.5]]), [0.0], [4.0])
    with pytest.raises(ValueError):
        build_partition(ps, 0.1, 0.4, shape=64)


def _tiling_reference(ps, c_lo, c_hi, shape):
    """The loop tiling_check ran before its candidate search: the membership
    test of every translate on every node."""
    model = ps.model
    c_lo = np.asarray(c_lo, dtype=float)
    c_hi = np.asarray(c_hi, dtype=float)
    grid = Grid.regular(model, ps.lo, ps.hi, shape)
    x = grid.points().reshape(-1, model.dim)
    counts = np.zeros(len(x), dtype=np.int64)
    for g in model.inv(ps.points):
        q = model.to_internal(model.mul(g[None, :], x))
        counts += np.all((q >= c_lo - 1e-9) & (q < c_hi - 1e-9), axis=1)
    passed = bool(np.all(counts == 1))
    return Certificate(
        "quasi-lattice", float(np.max(c_hi - c_lo)), passed,
        witness=None if passed else x[int(np.argmax(counts != 1))],
        n_checked=len(x),
        detail={"min_count": int(counts.min()), "max_count": int(counts.max()),
                "checked_on": "grid nodes", "n_nodes": len(x)},
    )


@pytest.mark.parametrize(
    "model,base,ells",
    [
        (EuclideanModel(2), (-2, 2), (-2, 2)),
        (AffineModel(), (-4, 4), (-2, 2)),
        (HeisenbergModel(), (-2, 2), (-9, 9)),
    ],
    ids=["rn2", "affine", "heis1"],
)
def test_quasilattice_exact_tiling(model, base, ells):
    ps, (c_lo, c_hi) = quasilattice_semidirect(model, base, ells)
    cert = tiling_check(ps, c_lo, c_hi, shape=33)
    assert cert.passed
    assert cert.detail["min_count"] == 1
    assert cert.detail["max_count"] == 1
    # the same certificate as every translate tested on every node, for the
    # tiling, for C shrunk so that nodes fall in gaps and for C widened along
    # its first axis so that neighbouring translates overlap
    wide = np.where(np.arange(model.dim) == 0, 1.3, 1.0)
    for scale, key, count in ((1.0, "max_count", 1), (0.8, "min_count", 0), (wide, "max_count", 2)):
        ref = _tiling_reference(ps, c_lo, scale * c_hi, 33)
        got = tiling_check(ps, c_lo, scale * c_hi, shape=33)
        assert ref.detail[key] == count
        assert (got.kind, got.radius, got.passed, got.n_checked, got.detail) == (
            ref.kind, ref.radius, ref.passed, ref.n_checked, ref.detail)
        assert np.array_equal(got.witness, ref.witness)


def test_quasilattice_heisenberg_narrow_center_raises():
    with pytest.raises(ValueError):
        quasilattice_semidirect(HeisenbergModel(), (-3, 3), (-1, 1))


def test_heisenberg_integer_lattice_is_subgroup():
    model = HeisenbergModel()
    ps, _ = quasilattice_semidirect(model, (-1, 1), (-8, 8))
    pts = ps.points
    rng = np.random.default_rng(0)
    i = rng.integers(0, len(pts), size=50)
    j = rng.integers(0, len(pts), size=50)
    prod = model.mul(pts[i], pts[j])
    assert np.allclose(prod[:, :2], np.round(prod[:, :2]))
    assert np.allclose(2 * prod[:, 2], np.round(2 * prod[:, 2]))


def test_hyperbolic_lattice_refinement_nests_scales():
    model = AffineModel()
    coarse = hyperbolic_lattice(model, 1.0, 1.0, (-2, 2), 8.0)
    fine = hyperbolic_lattice(model, 0.5, 0.5, (-4, 4), 8.0)
    assert len(fine) > len(coarse)
    a_coarse = np.unique(coarse.points[:, 0])
    a_fine = np.unique(fine.points[:, 0])
    assert np.all(np.isin(np.round(np.log(a_coarse), 9), np.round(np.log(a_fine), 9)))


def test_csv_roundtrip(tmp_path):
    model = EuclideanModel(2)
    pts = np.array([[0.0, 0.0], [0.5, 1.25], [1.75, 0.3], [1.2, 1.9]])
    ps = PointSet(model, pts, [0.0, 0.0], [2.0, 2.0])
    path = tmp_path / "pts.csv"
    ps.to_csv(path)
    back = PointSet.from_csv(path, model)
    assert np.allclose(np.sort(back.points, axis=0), np.sort(ps.points, axis=0))


@pytest.mark.parametrize(
    "model,far",
    [
        (EuclideanModel(1), [1.999]),
        # off the axes: the gauge distance decides in every direction
        (EuclideanModel(2), [1.998 * math.cos(math.pi / 64), 1.998 * math.sin(math.pi / 64)]),
    ],
    ids=["r1", "rn2"],
)
def test_verify_separated_euclidean_overlap_just_below_2s(model, far):
    # open 1-balls around centres closer than 2 meet; at distance 2 they do not
    origin = np.zeros(model.dim)
    lo, hi = [-3.0] * model.dim, [3.0] * model.dim
    cert = verify_separated(PointSet(model, np.array([origin, far]), lo, hi), 1.0)
    assert not cert.passed
    assert cert.detail["overlap_test"] == "exact"
    apart = 2.0 * np.asarray(far) / np.linalg.norm(far)
    assert verify_separated(PointSet(model, np.array([origin, apart]), lo, hi), 1.0).passed


def test_verify_separated_heisenberg_overlap_is_sufficient():
    # on H1 every pair closer than 2s fails, a sound rule by Cygan's
    # subadditivity of the gauge
    model = HeisenbergModel()
    lo, hi = [-3.0] * 3, [3.0] * 3
    cert = verify_separated(PointSet(model, np.array([[0.0, 0, 0], [1.5, 0, 0]]), lo, hi), 1.0)
    assert not cert.passed
    assert cert.detail["overlap_test"] == "sufficient"
    # the sampled test this replaced certified this vertical pair at gauge
    # distance 1.41407 < sqrt(2), although the midpoint lies in both 1-balls
    pair = np.array([[0.0, 0, 0], [0.0, 0, 0.4999]])
    mid = np.array([0.0, 0, 0.24995])
    assert np.all(model.gauge(model.mul(model.inv(pair), mid)) < 1.0)
    assert not verify_separated(PointSet(model, pair, lo, hi), 1.0).passed
    # pairs at gauge distance exactly 2s still pass
    for far in ([2.0, 0, 0], [0.0, 0, 1.0]):
        assert model.gauge(np.array(far)) == 2.0
        assert verify_separated(PointSet(model, np.array([[0.0, 0, 0], far]), lo, hi), 1.0).passed


def _common_point(model, h, s, n=21, levels=8):
    """A point y with gauge(y) < s and gauge(h y) < s, that is a point
    g1 y common to the open s-balls around g1 and g2 = g1 h^-1, or None.

    Searches a grid over the internal-coordinate box of B_s, then grids
    zoomed, each to four cells either way, around the best point so far.
    """
    lo, hi, _ = model.ball_box(model.identity()[None], s)
    lo, hi = lo[0], hi[0]
    for _ in range(levels):
        axes = [np.linspace(lo[k], hi[k], n) for k in range(model.dim)]
        u = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.dim)
        y = model.from_internal(u)
        worst = np.maximum(model.gauge(y), model.gauge(model.mul(h[None], y)))
        best = np.argmin(worst)
        if worst[best] < s:
            return y[best]
        half = 4.0 * (hi - lo) / (n - 1)
        lo, hi = u[best] - half, u[best] + half
    return None


def _pairs_near_threshold(model, s, rng, n):
    """n offsets h = g2^-1 g1 around the model's separation threshold."""
    if model.kind == "affine":
        # the exact box test decides: offsets on both sides of its boundary
        d = model.separation_distance(s)
        u = rng.uniform([-2.2 * s, -1.1 * d], [2.2 * s, 1.1 * d], size=(n, 2))
        return model.from_internal(u)
    dirs = random_points(model, n, rng=rng)
    d = 2.0 * s * rng.uniform(0.9, 1.1, size=n)
    hs = np.array([model.dilate(t / model.gauge(g), g) for t, g in zip(d, dirs)])
    if model.kind == "heis1":
        # vertical pairs meet only below sqrt(2) s, horizontal ones below 2s
        near = [math.sqrt(2.0) * s * (1 - 1e-4), 2.0 * s * (1 - 1e-4), 2.0 * s]
        hs = np.concatenate([hs, [[0.0, 0.0, (t / 2.0) ** 2] for t in near],
                             [[t, 0.0, 0.0] for t in near]])
    return hs


@pytest.mark.parametrize("model", [EuclideanModel(1), EuclideanModel(2), EuclideanModel(3),
                                   AffineModel(), HeisenbergModel()],
                         ids=lambda m: m.model_id())
@pytest.mark.parametrize("s", [0.5, 1.0])
def test_verify_separated_passes_only_disjoint_balls(model, s):
    # soundness: whenever the certificate passes, a dense search finds no
    # common point of the two open balls
    rng = np.random.default_rng(17)
    passed = found = 0
    for h in _pairs_near_threshold(model, s, rng, 150):
        g1 = random_points(model, 1, rng=rng)[0]
        pts = np.array([g1, model.mul(g1, model.inv(h))])
        u = model.to_internal(pts)
        cert = verify_separated(PointSet(model, pts, u.min(axis=0) - 1, u.max(axis=0) + 1), s)
        common = _common_point(model, model.mul(model.inv(pts[1]), pts[0]), s)
        if cert.passed:
            passed += 1
            assert common is None, (pts, common)
        found += common is not None
    # neither side is empty, so the search is not vacuous
    assert passed > 10 and found > 10


def test_verify_separated_affine_overlap_beyond_2s():
    # the two 1-balls share g1 z1 = g2 z2 = (0.3716, 0.99) although their
    # centres are at gauge distance 8.16 > 2s; the exact box decision finds it
    model = AffineModel()
    s = 1.0
    g1 = np.array([1.0, 0.0])
    z1 = np.array([math.exp(-0.99), 0.99])
    z2 = np.array([math.exp(0.99), -0.99])
    g2 = model.mul(model.mul(g1, z1), model.inv(z2))
    common = model.mul(g1, z1)
    assert np.allclose(common, [0.3716, 0.99], atol=1e-4)
    for g in (g1, g2):
        assert model.gauge(model.mul(model.inv(g), common)) < s
    assert model.gauge(model.mul(model.inv(g2), g1)) > 2 * s
    for pts in ([g1, g2], [g2, g1]):
        cert = verify_separated(PointSet(model, np.array(pts), [-3.0, -3.0], [3.0, 3.0]), s)
        assert not cert.passed


def test_verify_separated_affine_disjoint_within_fast_path():
    # centres closer than separation_distance(s), boxes disjoint in log a
    model = AffineModel()
    g1 = np.array([1.0, 0.0])
    g2 = model.mul(g1, np.array([math.exp(2.01), 0.0]))
    ps = PointSet(model, np.array([g1, g2]), [-3.0, -3.0], [3.0, 3.0])
    assert model.gauge(model.mul(model.inv(g2), g1)) < model.separation_distance(1.0)
    cert = verify_separated(ps, 1.0)
    assert cert.passed
    assert cert.detail == {"exact_pairs": 1, "overlap_test": "exact"}


def _assert_near_pairs_exact(model, x, pts, r):
    d_ref = _dense_gauge(model, x, pts)
    i_ref, j_ref = np.nonzero(d_ref < r)
    i, j, d = _near_pairs(model, x, pts, r)
    assert np.array_equal(i, i_ref)
    assert np.array_equal(j, j_ref)
    assert np.array_equal(d, d_ref[i_ref, j_ref])


@pytest.mark.parametrize("model", NEAR_MODELS, ids=lambda m: m.model_id())
def test_near_pairs_match_dense_reference(model):
    rng = np.random.default_rng(11)
    grid = Grid.regular(model, [-3.0] * model.dim, [3.0] * model.dim, 9)
    nodes = grid.points().reshape(-1, model.dim)
    cases = [
        (random_points(model, 300, scale=2.0, rng=rng), 40, 0.3),
        (random_points(model, 200, scale=2.0, rng=rng), 60, 1.7),
        (nodes, 50, 1.0),
        (nodes, 25, 2.6),
        (random_points(model, 1, rng=rng), 9, 0.8),
        (nodes[:40], 30, np.inf),
    ]
    for x, n_pts, r in cases:
        _assert_near_pairs_exact(model, x, random_points(model, n_pts, scale=2.0, rng=rng), r)
    # a point set against itself, as in verify_separated
    pts = random_points(model, 80, scale=2.0, rng=rng)
    _assert_near_pairs_exact(model, pts, pts, 0.9)
    # off-centre balls, where the H1 group law shears the central axis most:
    # centres with |p_x|, |p_y| up to 7 against the nodes of [-7, 7)^dim
    wide = Grid.regular(model, [-7.0] * model.dim, [7.0] * model.dim, 11)
    centres = model.from_internal(rng.uniform(-7.0, 7.0, size=(60, model.dim)))
    _assert_near_pairs_exact(model, wide.points().reshape(-1, model.dim), centres, 2.6)


def _partition_reference(ps, w, u, shape):
    """Dense reference of build_partition and check_invariants: the nearest
    W-point (ties to the lower index), then the first point in enumeration
    order whose U-ball holds the cell."""
    grid = Grid.regular(ps.model, ps.lo, ps.hi, shape)
    x = grid.points().reshape(-1, ps.model.dim)
    d = _dense_gauge(ps.model, x, ps.points)
    a = np.full(len(x), -1)
    dd = np.where(d < w, d, np.inf)
    in_w = np.isfinite(dd).any(axis=1)
    a[in_w] = np.argmin(dd[in_w], axis=1)
    for k in ps.sorted_order():
        a[(a < 0) & (d[:, k] < u)] = k
    return a, d


def _invariants_reference(d, a, w, u):
    own = d[np.arange(len(a)), a]
    near = d < w - 1e-12
    return {
        "covered": bool(np.all(a >= 0)),
        "inside_u": bool(np.all(own < u + 1e-12)),
        "w_contained": all(np.all(a[near[:, k]] == k) for k in range(d.shape[1])),
    }


@pytest.mark.parametrize(
    "model,lo,hi,shape,w,u",
    [
        (EuclideanModel(1), [0.0], [6.0], 12, 0.1, 0.55),
        (EuclideanModel(2), [0.0, 0.0], [4.0, 4.0], 8, 0.1, 0.8),
        (AffineModel(), [-1.0, -2.0], [1.0, 2.0], 6, 0.1, 1.5),
        (HeisenbergModel(), [-2.0, -2.0, -2.0], [2.0, 2.0, 2.0], 5, 0.3, 2.2),
    ],
    ids=["r1", "rn2", "affine", "heis1"],
)
def test_partition_matches_dense_reference(model, lo, hi, shape, w, u):
    ps = _jittered(model, lo, hi, shape, 0.3, seed=3)
    part = build_partition(ps, w, u, shape=4 * shape + 1)
    a_ref, d = _partition_reference(ps, w, u, 4 * shape + 1)
    a = part.assignment.reshape(-1)
    assert np.array_equal(a, a_ref)
    assert part.check_invariants() == _invariants_reference(d, a, w, u)
    assert all(part.check_invariants().values())
    # hand a W-cell to another point: both invariants must fail as in the reference
    cell = int(np.argmax(np.min(d, axis=1) < w))
    part.assignment.reshape(-1)[cell] = (a[cell] + 1) % len(ps)
    broken = part.check_invariants()
    assert broken == _invariants_reference(d, part.assignment.reshape(-1), w, u)
    assert not broken["w_contained"]


@pytest.mark.parametrize("model", NEAR_MODELS, ids=lambda m: m.model_id())
def test_verify_dense_worst_distance_exact(model):
    lo, hi = [-2.0] * model.dim, [2.0] * model.dim
    ps = _jittered(model, lo, hi, 4, 0.3, seed=5)
    grid = Grid.regular(model, lo, hi, 9)
    worst = np.max(np.min(_dense_gauge(model, grid.points().reshape(-1, model.dim), ps.points), axis=1))
    for r, passed in ((1.05 * worst, True), (0.5 * worst, False)):
        cert = verify_dense(ps, r, shape=9)
        assert cert.passed is passed
        assert cert.detail == {"worst_distance": worst, "checked_on": "grid nodes"}


# the ten point sets of ``partition model=heis1 resolution=9 seed=0``, as
# recorded before the sheared boxes and the shared partition pairs:
# (verify_separated's exact_pairs, verify_dense's worst distance on 17^3
# nodes, sha256 of the int64 bytes of build_partition's assignment on 9^3)
_H1_PARTITION_GEOMETRY = [
    (0, 1.5435862977478982, "8464c7a533e1de9408334a0ca17530b8b34cd4aebb30bed277b9dfbd29fc31ab"),
    (0, 1.5607319210127206, "4e5e7ef4eed577b174eba6c23d23bdd613af5358d00f34c53121f6c34fa45363"),
    (0, 1.5881247162477603, "e8df2d6af027c1094e979566f1fa76b6ac05151f80c01ba6a7c160de0548caf4"),
    (0, 1.5141675365165206, "f233487d544ea86f343935053aa84a912cafd09e24ebf72189045b24f7b01e77"),
    (0, 1.566840735865519, "05729005a5974b451806c49daa6cc515f2639219057b6add49160683678a2a0e"),
    (0, 1.5953217190076783, "7c85b1e49094635ed0a3f7706c02cb05786ecf30ba5a7125e2023a559553f640"),
    (0, 1.5093972336218469, "5ccaa87793f8870d89df3dadef52b7cbbb9bec9339a0aec91e878b44b6095887"),
    (0, 1.4801251622451863, "0eee6a5ea23e5e8a99c1e61b03624cb27e857f00de9e09bd72b0770c0dd4c7b4"),
    (0, 1.551733417286803, "f3b1769d9afce717f0d510fbe60b574634d7164908f1baf30052a6f97b469359"),
    (0, 1.567465224540796, "63d659d5a73a3931e9bc6ac355702388a64ad571d60e4609baba09d8f55988d5"),
]


@pytest.mark.parametrize("k", range(10))
def test_h1_partition_geometry_pinned(k):
    from groupsample.cli import _h1_jittered_lattice

    exact_pairs, worst, digest = _H1_PARTITION_GEOMETRY[k]
    ps = _h1_jittered_lattice(HeisenbergModel(), 10 * k)
    sep = verify_separated(ps, 0.4)
    assert sep.passed and sep.detail["exact_pairs"] == exact_pairs
    dense = verify_dense(ps, 2.6, shape=17)
    assert dense.passed and dense.detail["worst_distance"] == worst
    part = build_partition(ps, 0.4, 2.6, shape=9)
    assert hashlib.sha256(part.assignment.astype(np.int64).tobytes()).hexdigest() == digest
    assert part.check_invariants() == {"covered": True, "inside_u": True, "w_contained": True}


def _dense_two_pass(ps, r, shape):
    """verify_dense's search before the radius ladder, as a reference: every
    point within r of every node, then the whole set for the nodes that
    found none.  Returns (passed, worst_distance, witness)."""
    model = ps.model
    grid = Grid.regular(model, ps.lo, ps.hi, shape)
    x = grid.points().reshape(-1, model.dim)
    dist = np.full(len(x), np.inf)
    i, _, d = _near_pairs(model, x, ps.points, r)
    np.minimum.at(dist, i, d)
    far = np.flatnonzero(np.isinf(dist))
    step = max(1, (1 << 18) // len(ps))
    for start in range(0, len(far), step):
        blk = far[start : start + step]
        i, _, d = _near_pairs(model, x[blk], ps.points, np.inf)
        np.minimum.at(dist, blk[i], d)
    k = int(np.argmax(dist))
    passed = bool(dist[k] < r)
    return passed, float(dist[k]), None if passed else x[k]


def _dense_digest(passed, worst, witness):
    h = hashlib.sha256(repr((passed, worst)).encode())
    h.update(b"" if witness is None else np.asarray(witness).tobytes())
    return h.hexdigest()


def _h1_lattice0():
    from groupsample.cli import _h1_jittered_lattice

    return _h1_jittered_lattice(HeisenbergModel(), 0)


@pytest.mark.parametrize(
    "make_ps,r,shape,passed",
    [
        (lambda: _jittered(EuclideanModel(1), [-4.0], [4.0], 16, 0.3, seed=1), 0.6, 129, True),
        (lambda: _jittered(EuclideanModel(1), [-4.0], [4.0], 16, 0.3, seed=1), 0.3, 129, False),
        # a hole: most nodes find no point within r and go on to the whole set
        (lambda: PointSet(EuclideanModel(1), np.array([[0.0], [4.0]]), [0.0], [4.5]), 0.5, 128, False),
        (lambda: _jittered(EuclideanModel(2), [-2.0] * 2, [2.0] * 2, 6, 0.3, seed=2), 1.0, 33, True),
        (lambda: _jittered(EuclideanModel(2), [-2.0] * 2, [2.0] * 2, 6, 0.3, seed=2), 0.5, 33, False),
        (lambda: _jittered(AffineModel(), [-1.0, -2.0], [1.0, 2.0], 6, 0.3, seed=3), 1.0, 25, True),
        (lambda: _jittered(AffineModel(), [-1.0, -2.0], [1.0, 2.0], 6, 0.3, seed=3), 0.4, 25, False),
        (_h1_lattice0, 2.6, 17, True),
        # 4 nodes have no point within 1.5 and reach the search of the whole set
        (_h1_lattice0, 1.5, 17, False),
    ],
    ids=["r1-pass", "r1-fail", "r1-hole", "rn2-pass", "rn2-fail", "affine-pass", "affine-fail",
         "heis1-pass", "heis1-fail"],
)
def test_verify_dense_ladder_matches_two_pass_reference(make_ps, r, shape, passed):
    ps = make_ps()
    ref = _dense_two_pass(ps, r, shape)
    cert = verify_dense(ps, r, shape=shape)
    assert ref[0] is passed
    assert _dense_digest(cert.passed, cert.detail["worst_distance"], cert.witness) == _dense_digest(*ref)


def test_verify_dense_searches_near_first(monkeypatch):
    from groupsample import pointsets

    calls = []

    def spy(model, x, pts, r):
        out = _near_pairs(model, x, pts, r)
        calls.append((r, len(x), len(out[0])))
        return out

    monkeypatch.setattr(pointsets, "_near_pairs", spy)
    ps = _h1_lattice0()
    assert verify_dense(ps, 2.6, shape=17).passed
    # every node finds a point within r, so the whole set is never searched;
    # the single pass within r enumerated 112,146 pairs
    assert [c[0] for c in calls] == [1.3, 2.6]
    assert sum(c[2] for c in calls) <= 20_000
    calls.clear()
    assert not verify_dense(ps, 1.5, shape=17).passed
    assert [c[0] for c in calls] == [0.75, 1.5, np.inf]
    assert calls[-1][1] == 4
