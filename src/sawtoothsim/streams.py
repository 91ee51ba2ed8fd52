"""Seed derivation for reproducible ensembles.

Every random quantity in the package is drawn from a generator derived
from a single master seed through ``numpy.random.SeedSequence`` spawn
keys.  The first key component names the consumer domain, so classical
kick noise, gate noise, initial states, and measurement shots are
statistically independent streams even when they share a master seed,
and adding members to one ensemble never perturbs the draws of another.

Derivation layout::

    (DOMAIN_INITIAL,   member)          initial-state construction
    (DOMAIN_CLASSICAL, member)          per-step kick perturbations
    (DOMAIN_GATE,      member)          per-gate noise parameters
    (DOMAIN_SHOTS,     ...)             simulated measurement sampling
    (DOMAIN_SWEEP,     point)           derived master seeds per grid point

A member consumes its gate-noise stream sequentially, a fixed number of
draws per circuit step, so the noise parameters of member ``m`` depend
only on ``(master_seed, m)`` and not on ensemble size or execution order.
"""

from __future__ import annotations

import numpy as np

DOMAIN_INITIAL = 0
DOMAIN_CLASSICAL = 1
DOMAIN_GATE = 2
DOMAIN_SHOTS = 3
DOMAIN_SWEEP = 4


def child_sequence(master_seed: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for the stream at ``path`` under ``master_seed``."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(path))


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Fresh generator for the stream at ``path`` under ``master_seed``."""
    return np.random.default_rng(child_sequence(master_seed, *path))
