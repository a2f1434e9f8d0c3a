"""Seed handling and the one categorical sampler.

Every random draw in the toolkit goes through a `numpy.random.Generator`:
`as_generator` turns a seed into one, and `sample_rows` is the single
softmax-and-draw used by both token generators.
"""

from __future__ import annotations

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Return `seed` unchanged if it is already a Generator, else seed a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_rows(
    logits: np.ndarray, temperature: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one index per row from softmax(logits / temperature).

    Works in place: `logits` (a float64 (rows, K) array the caller owns) is
    overwritten with the row probabilities, which are returned with the
    draws. Entries of -inf get probability 0. Each row consumes one
    `rng.random()` double and is inverted through its normalized CDF with a
    right-side count, exactly as `Generator.choice(K, p=row)` does, so the
    two give the same draws under the same generator state.
    """
    probs = logits
    probs /= temperature
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    draws = (cdf <= rng.random((len(probs), 1))).sum(axis=1)
    return draws, probs
