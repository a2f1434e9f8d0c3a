"""Token-level statistics: per-layer code utilization, entropy, rank-frequency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rvq import TokenStream


@dataclass
class UtilizationReport:
    """Code-usage counts for one layer across a set of streams; the statistics derive from them."""

    layer: int
    counts: np.ndarray  # (K,) int64

    @property
    def total_frames(self) -> int:
        return int(self.counts.sum())

    @property
    def used_codes(self) -> int:
        return int((self.counts > 0).sum())

    @property
    def utilization_fraction(self) -> float:
        return self.used_codes / self.counts.shape[0]

    @property
    def entropy_bits(self) -> float:
        if not self.total_frames:
            return 0.0
        p = self.counts[self.counts > 0] / self.total_frames
        return float(-(p * np.log2(p)).sum())

    @property
    def perplexity(self) -> float:
        return float(2.0**self.entropy_bits)


def utilization(streams: list[TokenStream], layer: int) -> UtilizationReport:
    """Count layer codes exactly over all frames of all streams."""
    if not streams:
        raise ValueError("utilization requires at least one stream")
    k = streams[0].codebook_size
    n_layers = streams[0].layers
    for s in streams:
        if s.codebook_size != k:
            raise ValueError(
                f"mixed codebook sizes across streams: {k} vs {s.codebook_size}"
            )
        if s.layers != n_layers:
            raise ValueError(f"mixed layer counts across streams: {n_layers} vs {s.layers}")
    if not 0 <= layer < n_layers:
        raise ValueError(f"layer {layer} out of range [0, {n_layers})")

    counts = np.zeros(k, dtype=np.int64)
    for s in streams:
        if s.num_frames:
            counts += np.bincount(s.frames[:, layer], minlength=k)
    return UtilizationReport(layer, counts)


def rank_frequency(report: UtilizationReport) -> list[tuple[int, int]]:
    """Counts sorted descending (ties by code index), ranks 1..K, zeros kept."""
    order = np.lexsort((np.arange(len(report.counts)), -report.counts))
    return [(rank + 1, int(report.counts[code])) for rank, code in enumerate(order)]
