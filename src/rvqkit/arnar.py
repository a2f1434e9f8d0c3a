"""Two-stage token generation: autoregressive first layer, parallel rest.

The AR stage samples first-layer codes one at a time at a configurable
temperature until an end-of-sequence symbol (the extra class K in the AR
vocabulary) is drawn or the frame budget runs out. The NAR stage then fills
layers 2..N in order, one greedy argmax pass per layer, each conditioned on
everything already decoded. Layer indices are 0-based in code; the NAR stage
therefore targets layers 1..N-1.

Model contracts are duck-typed: anything with the right method works. Toy
implementations live here, including an add-k smoothed n-gram AR model
trainable from token streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ._rng import as_generator, checked_logits, sample_rows
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
        prompt: TokenStream | None,
        decoded_layers: np.ndarray,
        target_layer: int,
    ) -> np.ndarray: ...


@dataclass
class GenConfig:
    temperature: float = 1.0
    max_frames: int = 256
    rng_seed: int = 0
    top_k: int | None = None  # optional truncation; off by default

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        if self.max_frames < 1:
            raise ValueError("max_frames must be >= 1")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1 when given")


@dataclass
class ArNarStats:
    ar_steps: int
    nar_passes: int
    eos_terminated: bool


def sample_with_temperature(logits, temperature: float, rng, top_k: int | None = None) -> int:
    """Draw an index from softmax(logits / temperature).

    With `top_k`, only the classes whose logit reaches the k-th largest
    (ties included) can be drawn.
    """
    logits = np.array(logits, dtype=np.float64).ravel()
    if not 0 < temperature < math.inf:
        raise ValueError("temperature must be positive and finite")
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    if top_k is not None and top_k < len(logits):
        logits[logits < np.sort(logits)[-top_k]] = -np.inf
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
        idx = sample_with_temperature(logits, config.temperature, rng, config.top_k)
        if idx == len(logits) - 1:  # EOS
            break
        drawn[t] = idx
        t += 1
    return drawn[:t].astype(np.int32)


def generate_nar(
    model: NarModel,
    condition,
    prompt: TokenStream | None,
    layer1_codes,
    num_layers: int,
    *,
    codebook_size: int | None = None,
    token_rate_hz: float | None = None,
    source_id: str = "generated",
) -> TokenStream:
    """Fill layers 1..num_layers-1 greedily around the given first-layer codes."""
    condition = np.asarray(condition)
    layer1 = np.asarray(layer1_codes, dtype=np.int32).ravel()
    if layer1.shape[0] < 1:
        raise ValueError("layer1_codes must contain at least one frame")
    if num_layers < 2:
        raise ValueError("generate_nar needs num_layers >= 2")
    if codebook_size is None:
        if prompt is None:
            raise ValueError("codebook_size required when no prompt is given")
        codebook_size = prompt.codebook_size
    if token_rate_hz is None:
        token_rate_hz = prompt.token_rate_hz if prompt is not None else 50.0

    t = layer1.shape[0]
    grid = np.zeros((t, num_layers), dtype=np.int32)
    grid[:, 0] = layer1
    for layer in range(1, num_layers):
        logits = checked_logits(
            model.layer_logits(condition, prompt, grid[:, :layer].copy(), layer),
            (t, codebook_size),
            f"NAR layer-{layer}",
        )
        grid[:, layer] = np.argmax(logits, axis=1)

    return TokenStream(
        frames=grid,
        token_rate_hz=token_rate_hz,
        layers=num_layers,
        codebook_size=codebook_size,
        source_id=source_id,
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
    stream = generate_nar(
        nar,
        condition,
        prompt,
        layer1,
        prompt.layers,
        codebook_size=prompt.codebook_size,
        source_id=prompt.source_id or "generated",
    )
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
        seq = np.concatenate([prompt_codes, generated_prefix]) if len(prompt_codes) else generated_prefix
        width = self.order - 1
        if width == 0:
            return ()
        return tuple(int(c) for c in seq[-width:])

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
    """Count n-gram transitions over the first layer of each stream."""
    if not streams:
        raise ValueError("train_ngram_ar requires at least one stream")
    if order < 1:
        raise ValueError("order must be >= 1")
    k = streams[0].codebook_size
    for s in streams:
        if s.codebook_size != k:
            raise ValueError("streams must share codebook_size")
    classes = k + 1  # EOS
    width = order - 1
    counts: dict[tuple, np.ndarray] = {}
    for s in streams:
        seq = [int(c) for c in s.frames[:, 0]] + [k]
        for i, tok in enumerate(seq):
            ctx = tuple(seq[max(0, i - width) : i])
            vec = counts.get(ctx)
            if vec is None:
                vec = np.zeros(classes)
                counts[ctx] = vec
            vec[tok] += 1
    return NgramArModel(order=order, smoothing=smoothing, codebook_size=k, counts=counts)


def sequence_perplexity(model: ArModel, condition, codes, *, eos_index: int | None = None) -> float:
    """Perplexity (base 2) of a first-layer sequence plus its EOS under an AR model."""
    codes = np.asarray(codes, dtype=np.int64).ravel()
    empty = np.empty(0, dtype=np.int64)
    log2_sum = 0.0
    steps = 0
    for t in range(len(codes) + 1):
        logits = np.asarray(model.next_logits(condition, empty, codes[:t]), dtype=np.float64).ravel()
        z = logits - logits.max()
        logp = z - np.log(np.exp(z).sum())
        target = codes[t] if t < len(codes) else (eos_index if eos_index is not None else len(logits) - 1)
        log2_sum += logp[target] / np.log(2.0)
        steps += 1
    return float(2.0 ** (-log2_sum / steps))


def _finite_margin(margin: float) -> float:
    margin = float(margin)
    if not math.isfinite(margin):
        raise ValueError("margin must be finite")
    return margin


class OracleArModel:
    """Peaked at a fixed ground-truth code sequence, then at EOS."""

    def __init__(self, truth_codes, codebook_size: int, margin: float = 50.0):
        self.truth = np.asarray(truth_codes, dtype=np.int64).ravel()
        self.codebook_size = codebook_size
        self.margin = _finite_margin(margin)

    def next_logits(self, condition, prompt_codes, generated_prefix) -> np.ndarray:
        t = len(np.asarray(generated_prefix).ravel())
        logits = np.zeros(self.codebook_size + 1)
        target = self.truth[t] if t < len(self.truth) else self.codebook_size
        logits[target] = self.margin
        return logits


class EosArModel:
    """Always prefers EOS; the AR stage stops immediately."""

    def __init__(self, codebook_size: int, margin: float = 50.0):
        self.codebook_size = codebook_size
        self.margin = _finite_margin(margin)

    def next_logits(self, condition, prompt_codes, generated_prefix) -> np.ndarray:
        logits = np.zeros(self.codebook_size + 1)
        logits[self.codebook_size] = self.margin
        return logits


class CyclingArModel:
    """Peaked at (generated prefix length mod K); never prefers EOS."""

    def __init__(self, codebook_size: int, margin: float = 50.0):
        self.codebook_size = codebook_size
        self.margin = _finite_margin(margin)

    def next_logits(self, condition, prompt_codes, generated_prefix) -> np.ndarray:
        t = len(np.asarray(generated_prefix).ravel())
        logits = np.zeros(self.codebook_size + 1)
        logits[t % self.codebook_size] = self.margin
        return logits


class OracleNarModel:
    """Peaked at a fixed ground-truth grid, layer by layer."""

    def __init__(self, truth_grid, codebook_size: int | None = None, margin: float = 50.0):
        self.truth = np.asarray(truth_grid, dtype=np.int64)
        if self.truth.ndim != 2:
            raise ValueError("truth grid must be (frames, layers)")
        self.codebook_size = (
            int(self.truth.max()) + 1 if codebook_size is None else codebook_size
        )
        self.margin = _finite_margin(margin)

    def layer_logits(self, condition, prompt, decoded_layers, target_layer) -> np.ndarray:
        t = decoded_layers.shape[0]
        if t > self.truth.shape[0]:
            raise ValueError("more frames requested than the oracle's ground truth holds")
        logits = np.zeros((t, self.codebook_size))
        logits[np.arange(t), self.truth[:t, target_layer]] = self.margin
        return logits
