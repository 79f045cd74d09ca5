"""Shared test helpers."""

import numpy as np


def random_points(model, n, scale=1.0, rng=None) -> np.ndarray:
    """n chart points of ``model`` whose internal coordinates are normal
    with standard deviation ``scale``."""
    rng = np.random.default_rng(rng)
    return model.from_internal(rng.normal(scale=scale, size=(n, model.dim)))
