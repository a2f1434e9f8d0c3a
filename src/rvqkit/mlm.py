"""Masked parallel generation over RVQ token grids.

The first layer is decoded iteratively: every round scores the grid
conditionally and unconditionally, combines the logits with an annealed
guidance coefficient, samples all still-masked positions, and commits the
most confident ones, as many as a cosine ramp over the rounds allows
(`cosine_unmask_fractions`). Remaining layers are decoded greedily in a
single argmax pass each (`_rng.greedy_layers`, the pass that also fills
`arnar.generate_nar`'s layers), so a full grid costs iterations +
(layers - 1) conditional forward passes.

A layer-1 round holds the two score grids plus one block: it checks both
(frames, K) grids whole, then guides (`cfg_combine`) and samples
(`sample_rows`) the masked rows in ascending blocks of at most
`_rng.BLOCK_BYTES` (512 KB) of float64 logits, 64 rows at K=1024, whose
passes run in cache. The draws are those of one call over every masked row,
and both grids are released before the next round scores.

Grids are (frames, layers) int32 arrays with MASKED (-1) at unknown
positions. Layer indices are 0-based throughout. When a layer is being
scored, every deeper layer is hidden from the model, prompt frames
included; prompt tokens are copied through to the output untouched. The
prompt stream gives the output its layers, codebook size, rate and id, as
in `arnar.generate_nar`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from ._rng import (
    BLOCK_BYTES,
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
from .rvq import TokenStream

MASKED = -1

CONDITIONAL = "conditional"
UNCONDITIONAL = "unconditional"


class ScoreModel(Protocol):
    """Source of per-position, per-code logits for one target layer.

    score() must return a finite (frames, codebook_size) float array and be
    deterministic given identical inputs.
    """

    def score(
        self, grid: np.ndarray, target_layer: int, condition: np.ndarray, mode: str
    ) -> np.ndarray: ...


def cosine_unmask_fractions(iterations: int) -> np.ndarray:
    """Per-iteration commit fractions from a cosine ramp (few early, many late)."""
    grid = np.cos(np.pi / 2.0 * np.arange(iterations + 1) / iterations)
    fractions = -np.diff(grid)
    return fractions / fractions.sum()


@dataclass
class DecodeSchedule:
    """Knobs of the iterative first-layer pass: its number of rounds (their
    commits follow `cosine_unmask_fractions(iterations_layer1)`), the
    guidance coefficient at its start and end, and the sampling temperature
    and seed."""

    iterations_layer1: int = 5
    cfg_start: float = 0.0
    cfg_end: float = 2.0
    temperature: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        self.iterations_layer1 = integer_at_least(self.iterations_layer1, "iterations_layer1")
        self.temperature = positive_finite(self.temperature, "temperature")
        self.rng_seed = checked_seed(self.rng_seed, "rng_seed")
        if not (math.isfinite(self.cfg_start) and math.isfinite(self.cfg_end)):
            raise ValueError("cfg_start and cfg_end must be finite")


@dataclass
class GenerationStats:
    forward_passes: int  # conditional scoring passes
    unconditional_passes: int
    commit_counts: list[int] = field(default_factory=list)


def anneal_coeff(progress: float, cfg_start: float, cfg_end: float) -> float:
    """Linear guidance coefficient in decoding progress (0 = everything masked)."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError("progress must lie in [0, 1]")
    return cfg_start + progress * (cfg_end - cfg_start)


def cfg_combine(cond_logits, uncond_logits, coeff: float) -> np.ndarray:
    """Guided logits (1 + coeff) * cond - coeff * uncond, elementwise."""
    cond = np.asarray(cond_logits, dtype=np.float64)
    uncond = np.asarray(uncond_logits, dtype=np.float64)
    if cond.shape != uncond.shape:
        raise ValueError(f"shape mismatch {cond.shape} vs {uncond.shape}")
    return (1.0 + coeff) * cond - coeff * uncond


def confidence_select(confidences, num_to_unmask: int) -> np.ndarray:
    """Positions of the m largest confidences, ties to the lower index."""
    confidences = np.asarray(confidences, dtype=np.float64)
    m = confidences.shape[0]
    if not 1 <= num_to_unmask <= m:
        raise ValueError(f"num_to_unmask must lie in [1, {m}]")
    order = np.argsort(-confidences, kind="stable")
    return np.sort(order[:num_to_unmask])


def _commit_targets(total: int, fractions: np.ndarray) -> list[int]:
    """Cumulative commit counts per iteration: strictly growing until all done."""
    targets = []
    prev = 0
    for frac in np.cumsum(fractions):
        prev = min(total, max(prev + 1, math.ceil(frac * total)))
        targets.append(prev)
    targets[-1] = total
    return targets


def _scoring_view(grid: np.ndarray, target_layer: int) -> np.ndarray:
    view = grid.copy()
    view[:, target_layer + 1 :] = MASKED
    return view


def generate_parallel(
    model: ScoreModel,
    condition,
    prompt: TokenStream,
    num_frames: int,
    schedule: DecodeSchedule,
) -> tuple[TokenStream, GenerationStats]:
    """Decode a full (num_frames, layers) grid from a prompt prefix.

    Layer 0 runs `iterations_layer1` rounds of guided sampling with
    confidence-ordered commits; layers 1..N-1 are greedy argmax passes. A
    round holds its two (num_frames, K) score grids plus one 512 KB block
    of guided logits: the masked rows are guided and sampled block by block,
    in ascending order, which draws what one pass over all of them draws.
    """
    condition = np.asarray(condition)
    num_layers = prompt.layers
    k = prompt.codebook_size
    p = prompt.num_frames
    if p >= num_frames:
        raise ValueError(f"prompt length {p} must be shorter than num_frames {num_frames}")

    shape = (num_frames, k)
    block_rows = max(1, BLOCK_BYTES // (8 * k))
    rng = as_generator(schedule.rng_seed)
    grid = np.full((num_frames, num_layers), MASKED, dtype=np.int32)
    if p:
        grid[:p] = prompt.frames

    masked = np.ones(num_frames, dtype=bool)  # layer-1 positions not yet committed
    masked[:p] = False

    total = num_frames - p
    targets = _commit_targets(total, cosine_unmask_fractions(schedule.iterations_layer1))
    commit_counts: list[int] = []
    committed = 0

    for target in targets:
        progress = committed / total
        coeff = anneal_coeff(progress, schedule.cfg_start, schedule.cfg_end)

        view = _scoring_view(grid, 0)
        cond = checked_logits(model.score(view, 0, condition, CONDITIONAL), shape, "conditional")
        uncond = checked_logits(
            model.score(view, 0, condition, UNCONDITIONAL), shape, "unconditional"
        )

        masked_pos = np.flatnonzero(masked)
        draws = np.empty(len(masked_pos), dtype=np.intp)
        conf = np.empty(len(masked_pos))
        for lo in range(0, len(masked_pos), block_rows):
            part = slice(lo, lo + block_rows)
            rows = masked_pos[part]
            guided = cfg_combine(cond[rows], uncond[rows], coeff)
            draws[part], probs = sample_rows(guided, schedule.temperature, rng)
            conf[part] = probs[np.arange(len(rows)), draws[part]]
        del cond, uncond

        count = target - committed
        if count > 0:
            chosen = confidence_select(conf, count)
            pos = masked_pos[chosen]
            grid[pos, 0] = draws[chosen]
            masked[pos] = False
            committed = target
        commit_counts.append(count)

    greedy_layers(
        grid,
        slice(p, None),
        lambda layer: model.score(_scoring_view(grid, layer), layer, condition, CONDITIONAL),
        shape,
        "conditional",
    )

    stats = GenerationStats(
        forward_passes=schedule.iterations_layer1 + num_layers - 1,
        unconditional_passes=schedule.iterations_layer1,
        commit_counts=commit_counts,
    )
    return replace(prompt, frames=grid, source_id=prompt.source_id or "generated"), stats


class OracleScoreModel:
    """Logits peaked at a hidden ground-truth grid by a large finite margin.

    Conditional scores put `margin` on the true code; unconditional scores
    are flat. With an optional noise seed, a fixed jitter much smaller than
    the margin is baked in at construction so confidences are distinct while
    score() stays deterministic. Margin 0 without noise gives flat scores in
    both modes, so sampling is uniform over the codes.
    """

    def __init__(
        self,
        truth: np.ndarray,
        codebook_size: int,
        margin: float = 50.0,
        noise_seed: int | None = None,
    ):
        self.codebook_size = integer_at_least(codebook_size, "codebook_size")
        self.truth = checked_truth(truth, self.codebook_size, np.int32)
        if self.truth.ndim != 2:
            raise ValueError("truth grid must be (frames, layers)")
        self.margin = finite_margin(margin)
        self._noise = None
        if noise_seed is not None:
            rng = as_generator(noise_seed)
            self._noise = rng.normal(
                0.0, 1e-3, size=(self.truth.shape[0], self.truth.shape[1], self.codebook_size)
            )

    def score(self, grid, target_layer, condition, mode) -> np.ndarray:
        if mode != CONDITIONAL:
            return np.zeros((self.truth.shape[0], self.codebook_size))
        logits = peaked_logits(self.truth[:, target_layer], self.codebook_size, self.margin)
        if self._noise is not None:
            logits += self._noise[:, target_layer, :]
        return logits

