"""Masked parallel generation over RVQ token grids.

The first layer is decoded iteratively: every round scores the grid
conditionally and unconditionally, combines the logits with an annealed
guidance coefficient, samples all still-masked positions, and commits the
most confident ones. Remaining layers are decoded greedily in a single
argmax pass each, so a full grid costs iterations + (layers - 1)
conditional forward passes.

Grids are (frames, layers) int32 arrays with MASKED (-1) at unknown
positions. Layer indices are 0-based throughout. When a layer is being
scored, every deeper layer is hidden from the model, prompt frames
included; prompt tokens are copied through to the output untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ._rng import as_generator, checked_logits, sample_rows
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
    """Knobs of the iterative first-layer pass.

    unmask_fractions defaults to a cosine ramp over iterations_layer1 and
    must be positive and sum to one.
    """

    iterations_layer1: int = 5
    cfg_start: float = 0.0
    cfg_end: float = 2.0
    temperature: float = 1.0
    rng_seed: int = 0
    unmask_fractions: np.ndarray | None = None

    def __post_init__(self):
        if self.iterations_layer1 < 1:
            raise ValueError("iterations_layer1 must be >= 1")
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        if not (math.isfinite(self.cfg_start) and math.isfinite(self.cfg_end)):
            raise ValueError("cfg_start and cfg_end must be finite")
        if self.unmask_fractions is None:
            self.unmask_fractions = cosine_unmask_fractions(self.iterations_layer1)
        else:
            self.unmask_fractions = np.asarray(self.unmask_fractions, dtype=np.float64)
            if self.unmask_fractions.shape != (self.iterations_layer1,):
                raise ValueError("unmask_fractions must have one entry per iteration")
            if np.any(self.unmask_fractions <= 0):
                raise ValueError("unmask fractions must be positive")
            if abs(self.unmask_fractions.sum() - 1.0) > 1e-9:
                raise ValueError("unmask fractions must sum to 1")


@dataclass
class GenerationStats:
    forward_passes: int  # conditional scoring passes
    unconditional_passes: int
    commit_counts: list[int] = field(default_factory=list)
    layer1_confidence: np.ndarray | None = None


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
    confidence-ordered commits; layers 1..N-1 are greedy argmax passes.
    """
    condition = np.asarray(condition)
    num_layers = prompt.layers
    k = prompt.codebook_size
    p = prompt.num_frames
    if p >= num_frames:
        raise ValueError(f"prompt length {p} must be shorter than num_frames {num_frames}")

    shape = (num_frames, k)
    rng = as_generator(schedule.rng_seed)
    grid = np.full((num_frames, num_layers), MASKED, dtype=np.int32)
    if p:
        grid[:p] = prompt.frames

    masked = np.ones(num_frames, dtype=bool)  # layer-1 positions not yet committed
    masked[:p] = False
    confidence = np.zeros(num_frames)

    total = num_frames - p
    targets = _commit_targets(total, schedule.unmask_fractions)
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
        combined = cfg_combine(cond, uncond, coeff)

        masked_pos = np.flatnonzero(masked)
        draws, probs = sample_rows(combined[masked_pos], schedule.temperature, rng)
        conf = probs[np.arange(len(masked_pos)), draws]

        count = target - committed
        if count > 0:
            chosen = confidence_select(conf, count)
            pos = masked_pos[chosen]
            grid[pos, 0] = draws[chosen]
            masked[pos] = False
            confidence[pos] = conf[chosen]
            committed = target
        commit_counts.append(count)

    cond_passes = schedule.iterations_layer1
    for layer in range(1, num_layers):
        view = _scoring_view(grid, layer)
        logits = model.score(view, layer, condition, CONDITIONAL)
        logits = checked_logits(logits, shape, "conditional")
        grid[p:, layer] = np.argmax(logits[p:], axis=1)
        cond_passes += 1

    stats = GenerationStats(
        forward_passes=cond_passes,
        unconditional_passes=schedule.iterations_layer1,
        commit_counts=commit_counts,
        layer1_confidence=confidence,
    )
    stream = TokenStream(
        frames=grid,
        token_rate_hz=prompt.token_rate_hz,
        layers=num_layers,
        codebook_size=k,
        source_id=prompt.source_id or "generated",
    )
    return stream, stats


class OracleScoreModel:
    """Logits peaked at a hidden ground-truth grid by a large finite margin.

    Conditional scores put `margin` on the true code; unconditional scores
    are flat. With an optional noise seed, a fixed jitter much smaller than
    the margin is baked in at construction so confidences are distinct while
    score() stays deterministic.
    """

    def __init__(
        self,
        truth: np.ndarray,
        margin: float = 50.0,
        noise_seed: int | None = None,
        codebook_size: int | None = None,
    ):
        self.truth = np.asarray(truth, dtype=np.int32)
        if self.truth.ndim != 2:
            raise ValueError("truth grid must be (frames, layers)")
        self.margin = float(margin)
        if not math.isfinite(self.margin):
            raise ValueError("margin must be finite")
        inferred = int(self.truth.max()) + 1 if self.truth.size else 1
        self.codebook_size = inferred if codebook_size is None else codebook_size
        if self.codebook_size < inferred:
            raise ValueError("codebook_size smaller than the largest truth code")
        self._noise = None
        if noise_seed is not None:
            rng = as_generator(noise_seed)
            self._noise = rng.normal(
                0.0, 1e-3, size=(self.truth.shape[0], self.truth.shape[1], self.codebook_size)
            )

    @classmethod
    def random(
        cls,
        num_frames: int,
        num_layers: int,
        codebook_size: int,
        rng=0,
        margin: float = 50.0,
        noise_seed: int | None = None,
    ) -> "OracleScoreModel":
        rng = as_generator(rng)
        truth = rng.integers(0, codebook_size, size=(num_frames, num_layers), dtype=np.int32)
        return cls(truth, margin=margin, noise_seed=noise_seed, codebook_size=codebook_size)

    def score(self, grid, target_layer, condition, mode) -> np.ndarray:
        t = self.truth.shape[0]
        logits = np.zeros((t, self.codebook_size))
        if mode == CONDITIONAL:
            logits[np.arange(t), self.truth[:, target_layer]] = self.margin
            if self._noise is not None:
                logits = logits + self._noise[:, target_layer, :]
        return logits


class UniformScoreModel:
    """Flat logits in both modes; sampling becomes uniform over codes."""

    def __init__(self, num_frames: int, codebook_size: int):
        self.num_frames = num_frames
        self.codebook_size = codebook_size

    def score(self, grid, target_layer, condition, mode) -> np.ndarray:
        return np.zeros((self.num_frames, self.codebook_size))
