import os
import time

import numpy as np
import pytest

# Share eigensolve/constants caches across test runs so the expensive H^1
# spectral work happens once.
_CACHE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".cache")
os.environ.setdefault("GROUPSAMPLE_CACHE", os.path.abspath(_CACHE))
os.makedirs(os.environ["GROUPSAMPLE_CACHE"], exist_ok=True)


@pytest.fixture(scope="session")
def cache_dir():
    return os.environ["GROUPSAMPLE_CACHE"]


@pytest.fixture(scope="session")
def h1_grid():
    from groupsample import HeisenbergModel, Grid

    model = HeisenbergModel()
    return Grid.regular(model, [-7.0] * 3, [7.0] * 3, (33, 33, 33))


@pytest.fixture(scope="session")
def h1_proj(h1_grid, cache_dir):
    from groupsample import sublaplacian_spectrum

    return sublaplacian_spectrum(h1_grid, 1.0, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


# one run of each experiment per session, shared by the acceptance checks
# and the report tests


@pytest.fixture(scope="session")
def outroot(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _run(experiment, outroot, tag=None, **kw):
    from groupsample.cli import ExperimentConfig, run_experiment

    name = tag or experiment
    cfg = ExperimentConfig(experiment=experiment, outdir=str(outroot / name), **kw).validate()
    t0 = time.perf_counter()
    report, header, rows, _ = run_experiment(cfg)
    report["elapsed_s"] = time.perf_counter() - t0
    report["header"] = header
    report["rows"] = rows
    return report


@pytest.fixture(scope="session")
def shannon(outroot):
    return _run("shannon", outroot)


@pytest.fixture(scope="session")
def beurling(outroot):
    return _run("beurling-scan", outroot)


@pytest.fixture(scope="session")
def wavelet(outroot):
    return _run("wavelet-frame", outroot)


@pytest.fixture(scope="session")
def heisenberg(outroot):
    return _run("heisenberg", outroot)


@pytest.fixture(scope="session")
def constants(outroot):
    return _run("constants", outroot, model="heis1")


@pytest.fixture(scope="session")
def partition_r(outroot):
    return _run("partition", outroot, tag="partition-r1", model="r1")


@pytest.fixture(scope="session")
def partition_h(outroot):
    return _run("partition", outroot, tag="partition-heis1", model="heis1")


@pytest.fixture(scope="session")
def osc_r(outroot):
    return _run("oscillation", outroot, tag="oscillation-r1", model="r1")


@pytest.fixture(scope="session")
def osc_h(outroot):
    return _run("oscillation", outroot, tag="oscillation-heis1", model="heis1")
