"""Two-stage token generation: autoregressive first layer, parallel rest.

The AR stage samples first-layer codes one at a time at a configurable
temperature until an end-of-sequence symbol (the extra class K in the AR
vocabulary) is drawn or the frame budget runs out. The NAR stage then fills
layers 2..N in order, one greedy argmax pass per layer (the pass `mlm` ends
with), each conditioned on everything already decoded. Layer indices are
0-based in code; the NAR stage therefore targets layers 1..N-1. As in `mlm`,
the prompt stream gives the output its layers, codebook size K, rate and id,
and K fixes the shape of every model output: K+1 AR logits, K per NAR frame.

Model contracts are duck-typed: anything with the right method works. Toy
implementations live here: one oracle per protocol, which with empty truth
also stands for an always-EOS model, and an add-k smoothed n-gram AR model
trainable from token streams. Every oracle takes its codebook size K and
rejects truth codes outside [0, K) at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from ._rng import (
    as_generator,
    checked_logits,
    checked_seed,
    checked_truth,
    finite_margin,
    greedy_layers,
    integer_at_least,
    peaked_logits,
    positive_finite,
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
        self.temperature = positive_finite(self.temperature, "temperature")
        self.max_frames = integer_at_least(self.max_frames, "max_frames")
        self.rng_seed = checked_seed(self.rng_seed, "rng_seed")


@dataclass
class ArNarStats:
    ar_steps: int
    nar_passes: int


def sample_with_temperature(logits, temperature: float, rng) -> int:
    """Draw an index from softmax(logits / temperature) by `sample_rows` on a
    copy of `logits` as one row: -inf gets probability 0, NaN or +inf logits
    raise NumericalError."""
    row = np.array(logits, dtype=np.float64).reshape(1, -1)
    draws, _ = sample_rows(row, positive_finite(temperature, "temperature"), as_generator(rng))
    return int(draws[0])


def generate_ar(model: ArModel, condition, prompt: TokenStream, config: GenConfig) -> np.ndarray:
    """Sample first-layer codes until EOS (class K, the prompt's codebook
    size) or max_frames; EOS is not returned. At step t the model sees the
    prompt's first-layer codes and the t codes drawn so far as int64 arrays,
    and must return K + 1 logits."""
    condition = np.asarray(condition)
    prompt_codes = prompt.frames[:, 0].astype(np.int64)
    eos = prompt.codebook_size
    rng = as_generator(config.rng_seed)
    drawn = np.empty(config.max_frames, dtype=np.int64)
    for t in range(config.max_frames):
        logits = model.next_logits(condition, prompt_codes, drawn[:t])
        logits = checked_logits(logits, (eos + 1,), "AR")
        idx = sample_with_temperature(logits, config.temperature, rng)
        if idx == eos:
            return drawn[:t].astype(np.int32)
        drawn[t] = idx
    return drawn.astype(np.int32)


def generate_nar(model: NarModel, condition, prompt: TokenStream, layer1_codes) -> TokenStream:
    """Fill layers 1..N-1 greedily around the given first-layer codes.

    N, the codebook size, the rate and the id (`"generated"` if the
    prompt's is empty) come from `prompt`, which may hold no frames.
    """
    condition = np.asarray(condition)
    layer1 = np.asarray(layer1_codes, dtype=np.int32).ravel()
    if layer1.shape[0] < 1:
        raise ValueError("layer1_codes must contain at least one frame")
    if prompt.layers < 2:
        raise ValueError("generate_nar needs num_layers >= 2")

    t = layer1.shape[0]
    grid = np.zeros((t, prompt.layers), dtype=np.int32)
    grid[:, 0] = layer1
    greedy_layers(
        grid,
        slice(None),
        lambda layer: model.layer_logits(condition, prompt, grid[:, :layer].copy(), layer),
        (t, prompt.codebook_size),
        "NAR layer-{}",
    )

    return replace(prompt, frames=grid, source_id=prompt.source_id or "generated")


def generate_text_to_tokens(
    ar: ArModel,
    nar: NarModel,
    condition,
    prompt: TokenStream,
    config: GenConfig,
) -> tuple[TokenStream, ArNarStats]:
    """AR first layer, then NAR for the rest; raises if the AR stage is empty."""
    layer1 = generate_ar(ar, condition, prompt, config)
    if layer1.shape[0] == 0:
        raise EmptyGenerationError("AR stage produced an empty sequence")
    stream = generate_nar(nar, condition, prompt, layer1)
    # One AR step per code, and one for the EOS unless the budget ran out first.
    return stream, ArNarStats(min(layer1.shape[0] + 1, config.max_frames), prompt.layers - 1)


class NgramArModel:
    """Add-k smoothed n-gram over first-layer codes, EOS appended per stream.

    Contexts are the last order-1 tokens of prompt + prefix (shorter near the
    start); unseen contexts fall back to the smoothed uniform distribution.
    Smoothing must be positive so logits stay finite.
    """

    def __init__(self, order: int, smoothing: float, codebook_size: int, counts: dict):
        self.order = integer_at_least(order, "order")
        self.smoothing = positive_finite(smoothing, "smoothing")
        self.codebook_size = integer_at_least(codebook_size, "codebook_size")
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
        if vec is None:
            vec = np.zeros(self.codebook_size + 1)
        smoothed = vec + self.smoothing
        return smoothed / smoothed.sum()

    def next_logits(self, condition, prompt_codes, generated_prefix) -> np.ndarray:
        return np.log(self.probabilities(condition, prompt_codes, generated_prefix))


def train_ngram_ar(streams: list[TokenStream], order: int = 2, smoothing: float = 0.1) -> NgramArModel:
    """Count n-gram transitions over the first layer of each stream.

    Each stream's codes, left-padded with -1 and followed by EOS (K), give
    one context (up to order-1 codes, shorter near the start) per token.
    Prefix doubling, as in suffix-array construction, ranks the contexts in
    at most ceil(log2(order-1)) np.unique passes over one int64 key, in
    O(tokens) memory at any order. One bincount fills a float64 (contexts,
    K+1) table, the memory of a dict of per-context count vectors. The
    counts map each context tuple to its row of that table, in the
    lexicographic order of the padded contexts.
    """
    if not streams:
        raise ValueError("train_ngram_ar requires at least one stream")
    order = integer_at_least(order, "order")
    k = streams[0].codebook_size
    if any(s.codebook_size != k for s in streams):
        raise ValueError("streams must share codebook_size")
    classes = k + 1  # EOS
    # No context is longer than the longest stream, whatever the order.
    width = min(order - 1, max(s.num_frames for s in streams))
    pad = np.full(width, -1, dtype=np.int64)
    eos = np.array([k], dtype=np.int64)
    seq = np.concatenate([part for s in streams for part in (pad, s.frames[:, 0], eos)])
    # rank[j] ranks the m codes from j lexicographically: two runs of
    # m + step <= 2m codes are equal exactly when both their m-code halves,
    # from j and j + step, are. Ranks are at most K + 1, then below len(seq),
    # so (max rank + 1)^2 < 2^63 while len(seq) and K stay below 3*10^9.
    rank, m = seq + 1, 1
    while m < width:
        step = min(m, width - m)
        rank = np.unique(rank[:-step] * (rank.max() + 1) + rank[step:], return_inverse=True)[1]
        m += step
    # Each code or EOS ends one window; its context starts width codes back.
    ends = np.flatnonzero(seq >= 0)
    context = rank[ends - width] if width else np.zeros(len(ends), dtype=np.int64)
    _, first, group = np.unique(context, return_index=True, return_inverse=True)
    table = np.bincount(
        group * classes + seq[ends],
        weights=np.ones(len(group)),
        minlength=len(first) * classes,
    ).reshape(-1, classes)
    keys = [tuple(c for c in seq[e - width : e].tolist() if c >= 0) for e in ends[first].tolist()]
    counts = dict(zip(keys, table))
    return NgramArModel(order=order, smoothing=smoothing, codebook_size=k, counts=counts)


def sequence_perplexity(model: ArModel, condition, stream: TokenStream) -> float:
    """Perplexity (base 2) of a stream's first-layer codes plus its EOS under
    an AR model whose logits must have shape (K + 1,), K the stream's
    codebook size and class K the EOS; non-finite logits raise NumericalError."""
    codes = stream.frames[:, 0].astype(np.int64)
    eos = stream.codebook_size
    empty = np.empty(0, dtype=np.int64)
    log2_sum = 0.0
    for t, target in enumerate([*codes, eos]):
        logits = checked_logits(model.next_logits(condition, empty, codes[:t]), (eos + 1,), "AR")
        z = logits - logits.max()
        logp = z - np.log(np.exp(z).sum())
        log2_sum += logp[target] / np.log(2.0)
    return float(2.0 ** (-log2_sum / (len(codes) + 1)))


class OracleArModel:
    """Peaked at a fixed ground-truth code sequence, then at EOS: empty truth
    stops the AR stage at once, truth `arange(n) % K` cycles through the codes."""

    def __init__(self, truth_codes, codebook_size: int, margin: float = 50.0):
        self.codebook_size = integer_at_least(codebook_size, "codebook_size")
        self.truth = checked_truth(truth_codes, self.codebook_size, np.int64).ravel()
        self.margin = finite_margin(margin)

    def next_logits(self, condition, prompt_codes, generated_prefix) -> np.ndarray:
        t = len(np.asarray(generated_prefix).ravel())
        target = self.truth[t] if t < len(self.truth) else self.codebook_size
        return peaked_logits(target, self.codebook_size + 1, self.margin)


class OracleNarModel:
    """Peaked at a fixed ground-truth grid, layer by layer."""

    def __init__(self, truth_grid, codebook_size: int, margin: float = 50.0):
        self.codebook_size = integer_at_least(codebook_size, "codebook_size")
        self.truth = checked_truth(truth_grid, self.codebook_size, np.int64)
        if self.truth.ndim != 2:
            raise ValueError("truth grid must be (frames, layers)")
        self.margin = finite_margin(margin)

    def layer_logits(self, condition, prompt, decoded_layers, target_layer) -> np.ndarray:
        t = decoded_layers.shape[0]
        if t > self.truth.shape[0]:
            raise ValueError("more frames requested than the oracle's ground truth holds")
        return peaked_logits(self.truth[:t, target_layer], self.codebook_size, self.margin)
