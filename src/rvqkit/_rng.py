"""Seed handling, the model-logits guard and the one categorical sampler.

Every random draw in the toolkit goes through a `numpy.random.Generator`:
`as_generator` turns a seed into one, `checked_logits` is the one check on
what a generation model returns, and `sample_rows` is the single
softmax-and-draw used by both token generators.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


def as_generator(seed) -> np.random.Generator:
    """Return `seed` unchanged if it is already a Generator, else seed a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def checked_logits(raw, shape: tuple, what: str) -> np.ndarray:
    """A model's logits as float64: ValueError unless their shape is `shape`
    (only its length, the number of dimensions, when it holds a None),
    NumericalError if any is not finite."""
    logits = np.asarray(raw, dtype=np.float64)
    if logits.ndim != len(shape) or None not in shape and logits.shape != shape:
        raise ValueError(f"{what} logits have shape {logits.shape}, expected {shape}")
    if not np.isfinite(logits).all():
        raise NumericalError(f"{what} logits contain non-finite values")
    return logits


def sample_rows(
    logits: np.ndarray, temperature: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one index per row from softmax(logits / temperature).

    Works in place: `logits` (a float64 (rows, K) array the caller owns) is
    overwritten with the row probabilities, which are returned with the
    draws. Entries of -inf get probability 0; a row whose largest scaled
    logit is not finite (overflow, or all -inf) raises NumericalError. Each
    row consumes one `rng.random()` double and is inverted through its
    normalized CDF with a right-side count, exactly as
    `Generator.choice(K, p=row)` does, so the two give the same draws under
    the same generator state.
    """
    probs = logits
    probs /= temperature
    peak = probs.max(axis=1, keepdims=True)
    if not np.isfinite(peak).all():
        raise NumericalError(f"logits / temperature {temperature!r} are not finite")
    probs -= peak
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    draws = (cdf <= rng.random((len(probs), 1))).sum(axis=1)
    return draws, probs
