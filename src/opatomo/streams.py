"""Deterministic random-number streams derived from one master seed.

Every stochastic routine in the package draws from a generator produced here.
The derivation scheme is fixed: a stream is identified by the 64-bit master
seed plus a tuple of non-negative integer indices, mapped through
``numpy.random.SeedSequence(master, spawn_key=key)``. Two streams with
different keys are statistically independent; the same (master, key) pair
always yields the same generator state, regardless of platform or process
layout.
"""

from __future__ import annotations

import numpy as np
# numpy 2 loads numpy.random on first use; load it with the package instead.
import numpy.random  # noqa: F401

__all__ = ["stream", "derive_seed"]


def stream(master: int, *key: int) -> np.random.Generator:
    """Generator for sub-stream `key` of `master`. Same inputs, same stream."""
    if not 0 <= int(master) < 2**64:
        raise ValueError("master seed must fit in 64 bits")
    return np.random.default_rng(np.random.SeedSequence(int(master), spawn_key=tuple(int(k) for k in key)))


def derive_seed(master: int, *key: int) -> int:
    """Collapse (master, key) to a fresh 64-bit seed for labelling sub-runs."""
    ss = np.random.SeedSequence(int(master), spawn_key=tuple(int(k) for k in key))
    lo, hi = ss.generate_state(2, np.uint32)
    return int(lo) | (int(hi) << 32)
