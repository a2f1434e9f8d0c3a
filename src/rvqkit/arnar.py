"""Two-stage token generation: autoregressive first layer, parallel rest.

The AR stage samples first-layer codes one at a time at a configurable
temperature until an end-of-sequence symbol (the extra class K in the AR
vocabulary) is drawn or the frame budget runs out. The NAR stage then fills
layers 2..N in order, one greedy argmax pass per layer (the pass `mlm` ends
with), each conditioned on everything already decoded. Layer indices are
0-based in code; the NAR stage therefore targets layers 1..N-1. As in `mlm`,
the prompt stream gives the output its layers, codebook size, rate and id.

Model contracts are duck-typed: anything with the right method works. Toy
implementations live here: one oracle per protocol, which with empty truth
also stands for an always-EOS model, and an add-k smoothed n-gram AR model
trainable from token streams. Every oracle takes its codebook size K and
rejects truth codes outside [0, K) at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._rng import (
    as_generator,
    checked_logits,
    checked_truth,
    finite_margin,
    greedy_layers,
    peaked_logits,
    sample_rows,
)
from .errors import EmptyGenerationError
from .rvq import TokenStream


class ArModel(Protocol):
    """Next-code distribution over K+1 classes (codes plus EOS at index K)."""

    def next_logits(
        self, condition: np.ndarray, prompt_codes: np.ndarray, generated_prefix: np.ndarray
    ) -> np.ndarray: ...


class NarModel(Protocol):
    """Per-frame logits for one target layer given all shallower layers."""

    def layer_logits(
        self,
        condition: np.ndarray,
        prompt: TokenStream,
        decoded_layers: np.ndarray,
        target_layer: int,
    ) -> np.ndarray: ...


@dataclass
class GenConfig:
    temperature: float = 1.0
    max_frames: int = 256
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        if self.max_frames < 1:
            raise ValueError("max_frames must be >= 1")


@dataclass
class ArNarStats:
    ar_steps: int
    nar_passes: int
    eos_terminated: bool


def sample_with_temperature(logits, temperature: float, rng) -> int:
    """Draw an index from softmax(logits / temperature)."""
    logits = np.array(logits, dtype=np.float64).ravel()
    if not 0 < temperature < math.inf:
        raise ValueError("temperature must be positive and finite")
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    draws, _ = sample_rows(logits[None, :], temperature, as_generator(rng))
    return int(draws[0])


def generate_ar(model: ArModel, condition, prompt_codes, config: GenConfig) -> np.ndarray:
    """Sample first-layer codes until EOS or max_frames; EOS is not returned.

    At step t the model sees the t codes drawn so far as an int64 array.
    """
    condition = np.asarray(condition)
    prompt_codes = np.asarray(prompt_codes, dtype=np.int64).ravel()
    rng = as_generator(config.rng_seed)
    drawn = np.empty(config.max_frames, dtype=np.int64)
    t = 0
    while t < config.max_frames:
        logits = model.next_logits(condition, prompt_codes, drawn[:t])
        logits = checked_logits(logits, (None,), "AR")
        idx = sample_with_temperature(logits, config.temperature, rng)
        if idx == len(logits) - 1:  # EOS
            break
        drawn[t] = idx
        t += 1
    return drawn[:t].astype(np.int32)


def generate_nar(model: NarModel, condition, prompt: TokenStream, layer1_codes) -> TokenStream:
    """Fill layers 1..N-1 greedily around the given first-layer codes.

    N, the codebook size, the rate and the id (`"generated"` if the
    prompt's is empty) come from `prompt`, which may hold no frames.
    """
    condition = np.asarray(condition)
    layer1 = np.asarray(layer1_codes, dtype=np.int32).ravel()
    if layer1.shape[0] < 1:
        raise ValueError("layer1_codes must contain at least one frame")
    num_layers = prompt.layers
    if num_layers < 2:
        raise ValueError("generate_nar needs num_layers >= 2")

    t = layer1.shape[0]
    grid = np.zeros((t, num_layers), dtype=np.int32)
    grid[:, 0] = layer1
    greedy_layers(
        grid,
        slice(None),
        lambda layer: model.layer_logits(condition, prompt, grid[:, :layer].copy(), layer),
        (t, prompt.codebook_size),
        "NAR layer-{}",
    )

    return TokenStream(
        frames=grid,
        token_rate_hz=prompt.token_rate_hz,
        layers=num_layers,
        codebook_size=prompt.codebook_size,
        source_id=prompt.source_id or "generated",
    )


def generate_text_to_tokens(
    ar: ArModel,
    nar: NarModel,
    condition,
    prompt: TokenStream,
    config: GenConfig,
) -> tuple[TokenStream, ArNarStats]:
    """AR first layer, then NAR for the rest; raises if the AR stage is empty."""
    prompt_layer1 = prompt.frames[:, 0] if prompt.num_frames else np.empty(0, dtype=np.int64)
    layer1 = generate_ar(ar, condition, prompt_layer1, config)
    if layer1.shape[0] == 0:
        raise EmptyGenerationError("AR stage produced an empty sequence")
    stream = generate_nar(nar, condition, prompt, layer1)
    eos = layer1.shape[0] < config.max_frames
    stats = ArNarStats(
        ar_steps=layer1.shape[0] + (1 if eos else 0),
        nar_passes=prompt.layers - 1,
        eos_terminated=eos,
    )
    return stream, stats


class NgramArModel:
    """Add-k smoothed n-gram over first-layer codes, EOS appended per stream.

    Contexts are the last order-1 tokens of prompt + prefix (shorter near the
    start); unseen contexts fall back to the smoothed uniform distribution.
    Smoothing must be positive so logits stay finite.
    """

    def __init__(self, order: int, smoothing: float, codebook_size: int, counts: dict):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < smoothing < math.inf:
            raise ValueError("smoothing must be positive and finite")
        self.order = order
        self.smoothing = smoothing
        self.codebook_size = codebook_size
        self._counts = counts

    def _context(self, prompt_codes: np.ndarray, generated_prefix: np.ndarray) -> tuple:
        """The last order-1 codes of prompt + prefix, reading only those tails."""
        width = self.order - 1
        if width == 0:
            return ()
        tail = generated_prefix[-width:].tolist()
        missing = width - len(tail)
        return tuple((prompt_codes[-missing:].tolist() if missing else []) + tail)

    def probabilities(self, condition, prompt_codes, generated_prefix) -> np.ndarray:
        prompt_codes = np.asarray(prompt_codes, dtype=np.int64).ravel()
        generated_prefix = np.asarray(generated_prefix, dtype=np.int64).ravel()
        ctx = self._context(prompt_codes, generated_prefix)
        vec = self._counts.get(ctx)
        classes = self.codebook_size + 1
        if vec is None:
            vec = np.zeros(classes)
        smoothed = vec + self.smoothing
        return smoothed / smoothed.sum()

    def next_logits(self, condition, prompt_codes, generated_prefix) -> np.ndarray:
        return np.log(self.probabilities(condition, prompt_codes, generated_prefix))


def train_ngram_ar(streams: list[TokenStream], order: int = 2, smoothing: float = 0.1) -> NgramArModel:
    """Count n-gram transitions over the first layer of each stream.

    Each stream's codes, left-padded with -1 and followed by EOS (K), give
    one window per token: its context (up to order-1 codes, shorter near the
    start) and the token. One lexsort of the windows groups equal contexts
    and one bincount fills a float64 (contexts, K+1) table: one row per
    context, the memory of a dict of per-context count vectors. The counts
    map each context tuple to its row of that table. While counting, the
    windows also hold min(order, longest stream + 1) int32 codes per token.
    """
    if not streams:
        raise ValueError("train_ngram_ar requires at least one stream")
    if order < 1:
        raise ValueError("order must be >= 1")
    k = streams[0].codebook_size
    for s in streams:
        if s.codebook_size != k:
            raise ValueError("streams must share codebook_size")
    classes = k + 1  # EOS
    # No context is longer than the longest stream, whatever the order.
    width = min(order - 1, max(s.num_frames for s in streams))
    # int32 like the frames: a K past int32 would need 16 GiB a table row.
    pad = np.full(width, -1, dtype=np.int32)
    eos = np.array([k], dtype=np.int32)
    seq = np.concatenate([part for s in streams for part in (pad, s.frames[:, 0], eos)])
    # The window ending at each code or EOS; padding never ends one.
    windows = sliding_window_view(seq, width + 1)[np.flatnonzero(seq >= 0) - width]
    contexts = windows[:, :width]
    perm = np.lexsort(contexts.T[::-1]) if width else np.arange(len(windows))
    contexts = contexts[perm]
    first = np.ones(len(contexts), dtype=bool)
    np.any(contexts[1:] != contexts[:-1], axis=1, out=first[1:])
    group = np.cumsum(first) - 1
    table = np.bincount(
        group * classes + windows[perm, width],
        weights=np.ones(len(group)),
        minlength=(group[-1] + 1) * classes,
    ).reshape(-1, classes)
    firsts = contexts[first]
    pads = (firsts < 0).sum(axis=1)
    keys = [tuple(row[p:]) for row, p in zip(firsts.tolist(), pads.tolist())]
    counts = dict(zip(keys, table))
    return NgramArModel(order=order, smoothing=smoothing, codebook_size=k, counts=counts)


def sequence_perplexity(model: ArModel, condition, codes) -> float:
    """Perplexity (base 2) of a first-layer sequence plus its EOS under an AR model."""
    codes = np.asarray(codes, dtype=np.int64).ravel()
    empty = np.empty(0, dtype=np.int64)
    log2_sum = 0.0
    steps = 0
    for t in range(len(codes) + 1):
        logits = np.asarray(model.next_logits(condition, empty, codes[:t]), dtype=np.float64).ravel()
        z = logits - logits.max()
        logp = z - np.log(np.exp(z).sum())
        target = codes[t] if t < len(codes) else len(logits) - 1
        log2_sum += logp[target] / np.log(2.0)
        steps += 1
    return float(2.0 ** (-log2_sum / steps))


class OracleArModel:
    """Peaked at a fixed ground-truth code sequence, then at EOS: empty truth
    stops the AR stage at once, truth `arange(n) % K` cycles through the codes."""

    def __init__(self, truth_codes, codebook_size: int, margin: float = 50.0):
        self.truth = checked_truth(truth_codes, codebook_size, np.int64).ravel()
        self.codebook_size = codebook_size
        self.margin = finite_margin(margin)

    def next_logits(self, condition, prompt_codes, generated_prefix) -> np.ndarray:
        t = len(np.asarray(generated_prefix).ravel())
        target = self.truth[t] if t < len(self.truth) else self.codebook_size
        return peaked_logits(target, self.codebook_size + 1, self.margin)


class OracleNarModel:
    """Peaked at a fixed ground-truth grid, layer by layer."""

    def __init__(self, truth_grid, codebook_size: int, margin: float = 50.0):
        self.truth = checked_truth(truth_grid, codebook_size, np.int64)
        if self.truth.ndim != 2:
            raise ValueError("truth grid must be (frames, layers)")
        self.codebook_size = codebook_size
        self.margin = finite_margin(margin)

    def layer_logits(self, condition, prompt, decoded_layers, target_layer) -> np.ndarray:
        t = decoded_layers.shape[0]
        if t > self.truth.shape[0]:
            raise ValueError("more frames requested than the oracle's ground truth holds")
        return peaked_logits(self.truth[:t, target_layer], self.codebook_size, self.margin)
