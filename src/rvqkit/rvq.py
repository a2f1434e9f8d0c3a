"""Hierarchical residual quantization over a stack of codebooks.

Encoding quantizes a latent vector layer by layer, subtracting the looked-up
entry from a running residual; decoding sums the entries back up. In the
projected scheme the latent is mapped once into the low-dimensional
quantization space, the residual recursion runs entirely there, and at
decode time the sum of the looked-up entries is mapped back once through the
out-projection. Encode and decode are pure over an immutable quantizer and
safe to parallelize across frames. Encoding reads each layer's cached lookup
tables (`Codebook._lookup_tables`), built at a codebook's first lookup, and
keeps only the indices of each lookup.

A token frame is a plain length-N integer array of per-layer codes; a stream
is a (T, N) grid of frames with its rate metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import integer_at_least, positive_finite
from .vq import Codebook, ProjectionPair, _lookup
from .vq import nearest_codes  # noqa: F401  # bench/tracing.py patches this name here

PLAIN = "plain"
PROJECTED = "projected"
SCHEMES = (PLAIN, PROJECTED)


@dataclass
class RvqQuantizer:
    """An ordered stack of codebooks sharing dimensionality and lookup metric.

    Under the projected scheme `projections` holds one pair per layer, as
    the codebook file stores them, and all of them are equal: the recursion
    runs in one shared quantization space, so layer 1's pair maps every
    layer in and out.
    """

    layers: list[Codebook]
    latent_dim: int
    scheme: str = PLAIN
    projections: list[ProjectionPair] | None = None

    def __post_init__(self):
        self.latent_dim = integer_at_least(self.latent_dim, "latent_dim")
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
            first = self.projections[0]
            if first.latent_dim != self.latent_dim or first.quant_dim != q:
                raise ValueError("projection pair dims do not match the quantizer")
            # Bit for bit, so that pairs differing only in the sign of a zero differ too.
            for i, pair in enumerate(self.projections[1:], start=1):
                if (
                    pair.proj_in.shape != first.proj_in.shape
                    or pair.proj_in.tobytes() != first.proj_in.tobytes()
                    or pair.proj_out.tobytes() != first.proj_out.tobytes()
                ):
                    raise ValueError(f"projection pair {i} differs from pair 0")


@dataclass
class TokenStream:
    """Per-utterance token frames plus rate metadata.

    frames is a (T, layers) int32 array; T may be zero, `layers` may not.
    It is given as any integer array, checked against [0, codebook_size)
    before the cast, and token_rate_hz as any real number, stored as a
    float. A stream that passes `validate` reads back equal from
    the token file it is written to.
    """

    frames: np.ndarray
    token_rate_hz: float
    codebook_size: int
    source_id: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        self.validate()
        self.frames = self.frames.astype(np.int32, copy=False)
        self.token_rate_hz = float(self.token_rate_hz)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def layers(self) -> int:
        return self.frames.shape[1]

    def validate(self) -> None:
        if isinstance(self.codebook_size, bool) or not isinstance(
            self.codebook_size, (int, np.integer)
        ):
            raise ValueError("layers and codebook_size must be integers")
        if not isinstance(self.source_id, str):
            raise ValueError("id must be a string")
        positive_finite(self.token_rate_hz, "token_rate_hz")
        if self.codebook_size < 1:
            raise ValueError("codebook_size must be >= 1")
        if self.frames.ndim != 2:
            raise ValueError(f"frames must be a (T, layers) matrix, got shape {self.frames.shape}")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.frames.dtype.kind not in "iu":
            raise ValueError(f"codes must be integers, got {self.frames.dtype}")
        if self.frames.size and (self.frames.min() < 0 or self.frames.max() >= self.codebook_size):
            raise ValueError("codes must lie in [0, codebook_size)")


def residual_codes(residual, entries, nearest) -> tuple[np.ndarray, np.ndarray]:
    """The residual recursion over (rows, q) residuals.

    Layer n looks up one code per row with `nearest(residual, n)` and
    subtracts those rows of `entries[n]`, its (K, q) entry matrix, from the
    running residual. Returns the (rows, N) int32 codes and the final
    (rows, q) residual.
    """
    codes = np.empty((residual.shape[0], len(entries)), dtype=np.int32)
    for n, layer_entries in enumerate(entries):
        idx = nearest(residual, n)
        residual = residual - layer_entries[idx]
        codes[:, n] = idx
    return codes, residual


def entry_sum(entries, codes: np.ndarray) -> np.ndarray:
    """Sum over layers of each layer's entries picked by (rows, >= N) codes."""
    out = np.zeros((codes.shape[0], entries[0].shape[1]))
    for n, layer_entries in enumerate(entries):
        out += layer_entries[codes[:, n]]
    return out


def _encode_rows(latents: np.ndarray, quantizer: RvqQuantizer, layer_inputs=None):
    """Run the recursion on (T, d) latents, in quantization space when
    projected, appending each layer's input residual to `layer_inputs` if given.

    Each layer's lookup runs the block loop of `nearest_codes` straight on
    the codebook's cached tables and keeps only the indices, so no layer
    repeats the argument checks or computes a distance the recursion drops.
    """
    if quantizer.scheme == PROJECTED:
        # Projecting would turn Inf into NaN; the lookup rejects the rest.
        if not np.isfinite(latents).all():
            raise ValueError("latents must be finite")
        latents = latents @ quantizer.projections[0].proj_in
    metric = quantizer.metric
    tables = [layer._lookup_tables() for layer in quantizer.layers]

    def nearest(residual, n):
        if layer_inputs is not None:
            layer_inputs.append(residual)
        return _lookup(residual, tables[n], metric)[0]

    return residual_codes(latents, [t[0] for t in tables], nearest)


def rvq_encode(latent, quantizer: RvqQuantizer) -> tuple[np.ndarray, np.ndarray]:
    """Quantize one latent vector into its frame of per-layer codes.

    Plain scheme: the residual starts at the latent and each layer subtracts
    its looked-up entry. Projected scheme: the latent is projected once into
    quantization space and the recursion runs there. Returns the N codes and
    the N residual norms after each layer, taken in latent space for the
    plain scheme and in quantization space for the projected one.
    """
    latent = np.asarray(latent, dtype=np.float64)
    if latent.shape != (quantizer.latent_dim,):
        raise ValueError(
            f"latent shape {latent.shape} does not match latent_dim {quantizer.latent_dim}"
        )
    layer_inputs = []
    codes, residual = _encode_rows(latent[None, :], quantizer, layer_inputs)
    # The residual after layer n is layer n+1's input; after the last, the final one.
    after = np.concatenate(layer_inputs[1:] + [residual])
    # Row-wise dot products, summed as `np.linalg.norm` sums one vector.
    norms = np.sqrt(np.matmul(after[:, None, :], after[:, :, None])[:, 0, 0])
    return codes[0], norms


def rvq_encode_batch(latents, quantizer: RvqQuantizer) -> tuple[np.ndarray, np.ndarray]:
    """Encode (T, d) latents; returns ((T, N) int32 codes, (T, q) final residuals)."""
    latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
    if latents.shape[1] != quantizer.latent_dim:
        raise ValueError(
            f"latent dim {latents.shape[1]} does not match latent_dim {quantizer.latent_dim}"
        )
    return _encode_rows(latents, quantizer)


def rvq_decode(frame, quantizer: RvqQuantizer, num_layers: int | None = None) -> np.ndarray:
    """Reconstruct a latent vector from a token frame.

    With `num_layers=m`, only the first m layers contribute (coarse preview).
    """
    return rvq_decode_batch(np.asarray(frame).reshape(1, -1), quantizer, num_layers)[0]


def rvq_decode_batch(codes, quantizer: RvqQuantizer, num_layers: int | None = None) -> np.ndarray:
    """Decode (T, N) code rows back to (T, d) latents: the sum of looked-up
    entries, mapped back through the out-projection under the projected scheme.

    With `num_layers=m`, only the first m layers contribute (coarse preview).
    Codes must be an integer array: float or bool codes raise ValueError.
    """
    codes = np.atleast_2d(np.asarray(codes))
    if codes.dtype.kind not in "iu":
        raise ValueError(f"codes must be integers, got {codes.dtype}")
    if codes.shape[1] != quantizer.num_layers:
        raise ValueError(
            f"code width {codes.shape[1]} does not match {quantizer.num_layers} layers"
        )
    if codes.size and (codes.min() < 0 or codes.max() >= quantizer.codebook_size):
        raise ValueError(f"code out of range [0, {quantizer.codebook_size})")
    m = quantizer.num_layers if num_layers is None else integer_at_least(num_layers, "num_layers")
    if m > quantizer.num_layers:
        raise ValueError(f"num_layers must lie in [1, {quantizer.num_layers}]")
    out = entry_sum([layer.entries for layer in quantizer.layers[:m]], codes)
    if quantizer.scheme == PROJECTED:
        out = out @ quantizer.projections[0].proj_out
    return out


def code_bits(codebook_size: int) -> int:
    """Bits needed per code: log2(K) for powers of two, else ceil(log2 K)."""
    if codebook_size < 1:
        raise ValueError("codebook_size must be >= 1")
    return math.ceil(math.log2(codebook_size))


def bitrate_bps(quantizer: RvqQuantizer, token_rate_hz: float) -> float:
    """Bits per second: num_layers * bits-per-code * token rate."""
    token_rate_hz = positive_finite(token_rate_hz, "token_rate_hz")
    return quantizer.num_layers * code_bits(quantizer.codebook_size) * token_rate_hz
