"""Seed handling, model logits and the one categorical sampler.

Every random draw in the toolkit goes through a `numpy.random.Generator`:
`as_generator` turns a seed into one, `checked_logits` is the one check on
what a generation model returns, all three generators draw with
`sample_rows` (the AR stage one row at a time), and both multi-layer ones
fill layers 2..N with `greedy_layers`. The toy oracles check their inputs
with `finite_margin` and `checked_truth` and build their logits with
`peaked_logits`. `positive_finite` is the one check on every rate,
temperature, learning rate, separation and smoothing value. `BLOCK_BYTES`
is the one working-set budget of the row-blocked passes: the lookup's score
blocks and the masked generator's sampling blocks.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NumericalError

# Cap on one row block of scores or logits: 512 KB, which stays in one
# core's L2 cache with room for the operands. In `vq._lookup` that is 128
# rows of float32 Euclidean scores at K=1024 distinct entries, or 64 rows of
# float64 cosine ones at K=1024. With BLAS on one thread (2-core Xeon, 2 MB
# of L2 a core): the q=8 cosine GEMM writes more than it reads, and costs
# 0.50 us a row in 64-row blocks against 0.98 us in 256-row (2 MB) blocks,
# which fill the L2; `argmax` costs 0.17 against 0.20 us a row. The float32
# Euclidean GEMM at q=32 runs 1.6 times faster than the float64 one at 64
# rows and 2.9 times at 256; 128-row blocks keep most of that gain while the
# scores stay in the L2. In `mlm.generate_parallel` it is 64 rows of float64
# guided logits at K=1024, which `cfg_combine` and `sample_rows` then pass
# over in cache instead of over whole (frames, K) grids in DRAM.
BLOCK_BYTES = 1 << 19


def as_generator(seed) -> np.random.Generator:
    """Return `seed` unchanged if it is already a Generator, else seed a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def checked_logits(raw, shape: tuple, what: str) -> np.ndarray:
    """A model's logits as float64: ValueError unless their shape is exactly
    `shape`, NumericalError if any is not finite."""
    logits = np.asarray(raw, dtype=np.float64)
    if logits.shape != shape:
        raise ValueError(f"{what} logits have shape {logits.shape}, expected {shape}")
    if not np.isfinite(logits).all():
        raise NumericalError(f"{what} logits contain non-finite values")
    return logits


def greedy_layers(grid: np.ndarray, rows: slice, layer_logits, shape: tuple, what: str) -> None:
    """Fill layers 1..N-1 of a (frames, N) `grid` in order, in place: layer l
    gets the argmax over `rows` (ties to the lowest index) of
    `checked_logits(layer_logits(l), shape, what.format(l))`. It holds one
    layer's logits at a time: each grid is released before the next layer
    is scored."""
    for layer in range(1, grid.shape[1]):
        logits = checked_logits(layer_logits(layer), shape, what.format(layer))
        grid[rows, layer] = np.argmax(logits[rows], axis=1)
        del logits


def finite_margin(margin) -> float:
    """A toy model's margin as a float; ValueError unless it is finite."""
    margin = float(margin)
    if not math.isfinite(margin):
        raise ValueError("margin must be finite")
    return margin


def positive_finite(value, name: str) -> float:
    """`value` as a float; ValueError unless it is a real number, not a
    bool, in (0, inf)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number")
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return float(value)


def checked_truth(truth, codebook_size: int, dtype) -> np.ndarray:
    """A toy model's ground-truth codes as `dtype` (no copy when they already
    are); ValueError unless every one lies in [0, codebook_size)."""
    codes = np.asarray(truth)
    if codes.size and not (codes.min() >= 0 and codes.max() < codebook_size):
        raise ValueError(f"truth codes must lie in [0, {codebook_size})")
    return codes.astype(dtype, copy=False)


def peaked_logits(targets, classes: int, margin: float) -> np.ndarray:
    """Zero logits over `classes` classes with `margin` at each target: one
    vector for a scalar target, one row per entry of a 1-D array of them."""
    targets = np.asarray(targets)
    logits = np.zeros(targets.shape + (classes,))
    np.put_along_axis(logits, targets[..., None], margin, axis=-1)
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
    the same generator state. Every step works row by row, so a caller that
    splits its rows into ordered blocks and calls once per block, with the
    same generator, draws exactly what one call over all the rows draws.
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
