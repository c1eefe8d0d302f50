"""Deterministic stream splitting for parallel trials.

All randomness in the library flows from explicit ``numpy.random.Generator``
objects; there is no hidden global state.  Experiment suites derive each
stream from a single master seed and a short integer path, such as
(grid point, trial chunk) or (grid point, trial), via
``SeedSequence(master, spawn_key=path)`` feeding a counter-based Philox
generator.  The same (master seed, path) always yields the same stream, and
distinct paths are independent, so results do not depend on how trials are
scheduled across workers.
"""

from __future__ import annotations

import numpy as np


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``path`` under ``master_seed``."""
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))
