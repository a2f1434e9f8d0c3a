"""Hierarchical residual quantization over a stack of codebooks.

Encoding quantizes a latent vector layer by layer, subtracting the looked-up
entry from a running residual; decoding sums the entries back up. In the
projected scheme the latent is mapped once into the low-dimensional
quantization space, the residual recursion runs entirely there, and each
layer's looked-up entry is mapped back through its out-projection at decode
time. Encode and decode are pure over an immutable quantizer and safe to
parallelize across frames.

A token frame is a plain length-N integer array of per-layer codes; streams
bundle frames with their rate metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vq import Codebook, ProjectionPair, nearest_codes, project_in, project_out

PLAIN = "plain"
PROJECTED = "projected"
SCHEMES = (PLAIN, PROJECTED)

# A token frame is just a 1-D integer array of length num_layers.
TokenFrame = np.ndarray


@dataclass
class RvqQuantizer:
    """An ordered stack of codebooks sharing dimensionality and lookup metric."""

    layers: list[Codebook]
    latent_dim: int
    scheme: str = PLAIN
    projections: list[ProjectionPair] | None = None

    def __post_init__(self):
        self.validate()

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def codebook_size(self) -> int:
        return self.layers[0].num_codes

    @property
    def quant_dim(self) -> int:
        return self.layers[0].code_dim

    @property
    def metric(self) -> str:
        return self.layers[0].metric

    def validate(self) -> None:
        if not self.layers:
            raise ValueError("quantizer needs at least one layer")
        k, q, metric = self.layers[0].num_codes, self.layers[0].code_dim, self.layers[0].metric
        for i, layer in enumerate(self.layers):
            if layer.num_codes != k or layer.code_dim != q:
                raise ValueError(f"layer {i} shape differs from layer 0")
            if layer.metric != metric:
                raise ValueError(f"layer {i} metric differs from layer 0")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == PLAIN:
            if self.projections is not None:
                raise ValueError("plain scheme does not take projections")
            if q != self.latent_dim:
                raise ValueError(
                    f"plain scheme requires code dim {q} == latent dim {self.latent_dim}"
                )
        else:
            if not self.projections or len(self.projections) != len(self.layers):
                raise ValueError("projected scheme needs one projection pair per layer")
            for i, pair in enumerate(self.projections):
                if pair.latent_dim != self.latent_dim or pair.quant_dim != q:
                    raise ValueError(f"projection pair {i} dims do not match the quantizer")


@dataclass
class TokenStream:
    """Per-utterance token frames plus rate metadata.

    frames is a (T, num_layers) int32 array; T may be zero. It is given as
    any integer array, checked against [0, codebook_size) before the cast.
    """

    frames: np.ndarray
    token_rate_hz: float
    layers: int
    codebook_size: int
    source_id: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        self.validate()
        self.frames = self.frames.astype(np.int32, copy=False)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    def validate(self) -> None:
        if not 0 < self.token_rate_hz < math.inf:
            raise ValueError("token_rate_hz must be positive and finite")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.codebook_size < 1:
            raise ValueError("codebook_size must be >= 1")
        if self.frames.ndim != 2:
            raise ValueError(f"frames must be a (T, layers) matrix, got shape {self.frames.shape}")
        if self.frames.shape[1] != self.layers:
            raise ValueError(
                f"frame width {self.frames.shape[1]} does not match layers={self.layers}"
            )
        if self.frames.dtype.kind not in "iu":
            raise ValueError(f"codes must be integers, got {self.frames.dtype}")
        if self.frames.size and (self.frames.min() < 0 or self.frames.max() >= self.codebook_size):
            raise ValueError("codes must lie in [0, codebook_size)")


@dataclass
class EncodeTrace:
    """Residual norm after each layer of a one-frame encode.

    Norms are taken in latent space for the plain scheme and in quantization
    space for the projected scheme.
    """

    residual_norms: np.ndarray


def residual_codes(residual, entries, nearest) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residual recursion over (rows, q) residuals.

    Layer n looks up one code per row with `nearest(residual, n)` and
    subtracts those rows of `entries[n]`, its (K, q) entry matrix, from the
    running residual. Returns the (rows, N) int32 codes, the (rows, N)
    residual norms after each layer and the final (rows, q) residual.
    """
    codes = np.empty((residual.shape[0], len(entries)), dtype=np.int32)
    norms = np.empty((residual.shape[0], len(entries)))
    for n, layer_entries in enumerate(entries):
        idx = nearest(residual, n)
        residual = residual - layer_entries[idx]
        codes[:, n] = idx
        # Row-wise dot products, summed as `np.linalg.norm` sums one vector.
        norms[:, n] = np.sqrt(np.matmul(residual[:, None, :], residual[:, :, None])[:, 0, 0])
    return codes, norms, residual


def entry_sum(entries, codes: np.ndarray) -> np.ndarray:
    """Sum over layers of each layer's entries picked by (rows, >= N) codes."""
    out = np.zeros((codes.shape[0], entries[0].shape[1]))
    for n, layer_entries in enumerate(entries):
        out += layer_entries[codes[:, n]]
    return out


def _encode_rows(latents: np.ndarray, quantizer: RvqQuantizer):
    """Run the recursion on (T, d) latents, in quantization space when projected."""
    if quantizer.scheme == PROJECTED:
        latents = project_in(latents, quantizer.projections[0])
    layers = quantizer.layers
    return residual_codes(
        latents, [layer.entries for layer in layers], lambda r, n: nearest_codes(r, layers[n])[0]
    )


def rvq_encode(latent, quantizer: RvqQuantizer) -> tuple[TokenFrame, EncodeTrace]:
    """Quantize one latent vector into per-layer codes.

    Plain scheme: the residual starts at the latent and each layer subtracts
    its looked-up entry. Projected scheme: the latent is projected once into
    quantization space and the recursion runs there.
    """
    latent = np.asarray(latent, dtype=np.float64)
    if latent.shape != (quantizer.latent_dim,):
        raise ValueError(
            f"latent shape {latent.shape} does not match latent_dim {quantizer.latent_dim}"
        )
    codes, norms, _ = _encode_rows(latent[None, :], quantizer)
    return codes[0], EncodeTrace(residual_norms=norms[0])


def rvq_encode_batch(latents, quantizer: RvqQuantizer) -> tuple[np.ndarray, np.ndarray]:
    """Encode (T, d) latents; returns ((T, N) int32 codes, (T, q) final residuals)."""
    latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
    if latents.shape[1] != quantizer.latent_dim:
        raise ValueError(
            f"latent dim {latents.shape[1]} does not match latent_dim {quantizer.latent_dim}"
        )
    codes, _, residual = _encode_rows(latents, quantizer)
    return codes, residual


def rvq_decode(frame, quantizer: RvqQuantizer, num_layers: int | None = None) -> np.ndarray:
    """Reconstruct a latent vector from a token frame.

    With `num_layers=m`, only the first m layers contribute (coarse preview).
    """
    codes = np.asarray(frame, dtype=np.int64).reshape(1, -1)
    return rvq_decode_batch(codes, quantizer, num_layers)[0]


def rvq_decode_batch(codes, quantizer: RvqQuantizer, num_layers: int | None = None) -> np.ndarray:
    """Decode (T, N) code rows back to (T, d) latents: the sum of looked-up entries.

    With `num_layers=m`, only the first m layers contribute (coarse preview).
    """
    codes = np.atleast_2d(np.asarray(codes, dtype=np.int64))
    if codes.shape[1] != quantizer.num_layers:
        raise ValueError(
            f"code width {codes.shape[1]} does not match {quantizer.num_layers} layers"
        )
    if codes.size and (codes.min() < 0 or codes.max() >= quantizer.codebook_size):
        raise ValueError(f"code out of range [0, {quantizer.codebook_size})")
    m = quantizer.num_layers if num_layers is None else num_layers
    if not 1 <= m <= quantizer.num_layers:
        raise ValueError(f"num_layers must lie in [1, {quantizer.num_layers}]")
    if quantizer.scheme == PROJECTED:
        out = np.zeros((codes.shape[0], quantizer.latent_dim))
        for i in range(m):
            out += project_out(quantizer.layers[i].entries[codes[:, i]], quantizer.projections[i])
        return out
    return entry_sum([layer.entries for layer in quantizer.layers[:m]], codes)


def code_bits(codebook_size: int) -> int:
    """Bits needed per code: log2(K) for powers of two, else ceil(log2 K)."""
    if codebook_size < 1:
        raise ValueError("codebook_size must be >= 1")
    return math.ceil(math.log2(codebook_size))


def bitrate_bps(quantizer: RvqQuantizer, token_rate_hz: float) -> float:
    """Bits per second: num_layers * bits-per-code * token rate."""
    if token_rate_hz <= 0:
        raise ValueError("token_rate_hz must be positive")
    return quantizer.num_layers * code_bits(quantizer.codebook_size) * token_rate_hz
