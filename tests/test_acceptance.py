"""Acceptance checks: one test per primary criterion, at stated tolerances.

Each test prints one PASS/FAIL line (the pytest -v status line); the heavy
experiment runs are session fixtures in ``conftest.py``, shared with the
other test modules, and their eigensolves come from the persistent cache
directory.
"""

import hashlib

from groupsample import cli


def _get(report, name):
    matches = [c for c in report["checks"] if c["name"] == name]
    assert len(matches) == 1, f"check {name} must appear exactly once"
    return matches[0]


def _passes(report, name):
    c = _get(report, name)
    assert c["verdict"] == "pass", c
    return c


def test_criterion_01_shannon_identity(shannon):
    c = _passes(shannon, "shannon-critical-bounds")
    assert 0.999 <= c["a"] <= 1.001
    assert 0.999 <= c["b"] <= 1.001
    r = _passes(shannon, "shannon-reconstruction")
    assert r["worst_rel_err"] < 1e-6
    assert shannon["elapsed_s"] < 30.0


def test_criterion_02_over_and_undersampling(shannon):
    c = _passes(shannon, "oversampling-bounds")
    assert 1.995 <= c["a"] <= 2.005
    assert 1.995 <= c["b"] <= 2.005
    u = _passes(shannon, "undersampling-collapse")
    assert u["a"] < 1e-3


def test_criterion_03_sampling_envelope(shannon):
    c = _passes(shannon, "envelope-ten-configs")
    assert c["n_configs"] == 10
    assert c["n_hypothesis_not_met"] == 0


def test_criterion_04_partition_euclidean(partition_r):
    _passes(partition_r, "certificates")
    _passes(partition_r, "partition-invariants")
    c = _passes(partition_r, "quasi-interpolation-bound")
    assert c["worst_violation"] <= 1e-6
    assert len(partition_r["rows"]) == 20


def test_criterion_04_partition_heisenberg(partition_h):
    _passes(partition_h, "certificates")
    _passes(partition_h, "partition-invariants")
    c = _passes(partition_h, "quasi-interpolation-bound")
    assert c["worst_violation"] <= 1e-4
    assert len(partition_h["rows"]) == 20


def test_criterion_05_osc_conv_euclidean(osc_r):
    c = _passes(osc_r, "osc-conv-inequality")
    assert c["n_pairs"] == 20
    assert c["worst_violation"] < 1e-6


def test_criterion_05_osc_conv_heisenberg(osc_h):
    c = _passes(osc_h, "osc-conv-inequality")
    assert c["n_pairs"] == 20
    assert c["worst_violation"] < 1e-4


def test_criterion_06_wavelet_pipeline(wavelet, tmp_path):
    scan = _passes(wavelet, "hypothesis-scan")
    assert scan["u_star"] is not None
    pos = _passes(wavelet, "lower-bound-positive")
    assert all(a > 0 for a in pos["a_values"])
    mono = _passes(wavelet, "tightness-monotone")
    t = mono["tightness"]
    assert t[0] > t[1] > t[2]
    assert wavelet["elapsed_s"] < 300.0
    # the table's bytes through the CLI's own writer, as `groupsample run`
    # writes them
    path = tmp_path / "table.csv"
    cli._write_csv(path, wavelet["header"], wavelet["rows"])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "2e43bd930c4d2deba961803fbee6150334b0556e07643c7ca63689540bf4be83"


def test_criterion_07_spectral_layer(constants):
    b = _passes(constants, "bernstein-eigenbasis")
    assert b["max_ratio"] <= b["omega"] * (1 + 1e-9)
    c = _passes(constants, "commutator-xy-t")
    assert c["residual"] < 1e-3
    q = _passes(constants, "homogeneous-dimension")
    assert q["q"] == 4
    h = _passes(constants, "haar-scaling")
    assert abs(h["ratio"] / h["expected"] - 1.0) < 1e-2


def test_criterion_08_oscillation_scaling(constants):
    d = _passes(constants, "band-dimension")
    assert d["dim"] >= 20
    _passes(constants, "osc-scaling-bound")
    lin = _passes(constants, "osc-scaling-linearity")
    assert lin["spread"] < 0.25
    assert constants["elapsed_s"] < 600.0


def test_criterion_09_heisenberg_lattice(heisenberg):
    c = _passes(heisenberg, "lower-ratio-vs-prediction")
    assert c["ratio_min"] >= 0.9 * c["a_pred"]
    a = _passes(heisenberg, "dilation-covariance-angle")
    assert a["residual"] <= 1e-12


def test_criterion_10_beurling_regime(beurling):
    pos = _passes(beurling, "beurling-positive-below-threshold")
    assert pos["a"] > 0
    col = _passes(beurling, "beurling-collapse-above-threshold")
    assert col["a"] < 1e-3
