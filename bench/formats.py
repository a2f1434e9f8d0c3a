"""The benchmark's own readers and writers for rvqkit's three file formats.

They are written from the format description, not from `rvqkit.io`, so that
inputs reach the program only as files and outputs are checked without the
program's own parser:

- vector file `RVQV`: magic, u32 version, u64 count, u32 dim, then
  count*dim float32, row-major, little-endian;
- codebook file `RVQC`: magic, u32 version, u8 scheme (0 plain, 1 projected),
  u8 metric (0 euclidean, 1 cosine), u32 layers, u32 K, u32 d, u32 q, then per
  layer `proj_in` (d*q, projected only), `entries` (K*q), `proj_out` (q*d,
  projected only), all float32;
- token file: JSON lines with `id`, `token_rate_hz`, `layers`,
  `codebook_size` and `codes` (a list of frames of per-layer integers).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

_VECTOR_HEADER = struct.Struct("<4sIQI")
_CODEBOOK_HEADER = struct.Struct("<4sIBBIIII")


def write_vectors(path: str, vectors: np.ndarray) -> None:
    count, dim = vectors.shape
    with open(path, "wb") as handle:
        handle.write(_VECTOR_HEADER.pack(b"RVQV", 1, count, dim))
        handle.write(np.ascontiguousarray(vectors, dtype="<f4").tobytes())


def read_vectors(path: str) -> np.ndarray:
    """Return the (count, dim) float32 payload of a vector file."""
    with open(path, "rb") as handle:
        data = handle.read()
    magic, version, count, dim = _VECTOR_HEADER.unpack_from(data)
    if magic != b"RVQV" or version != 1:
        raise ValueError(f"{path}: not a version-1 RVQV file")
    if len(data) != _VECTOR_HEADER.size + 4 * count * dim:
        raise ValueError(f"{path}: payload length does not match the header")
    return np.frombuffer(data, dtype="<f4", offset=_VECTOR_HEADER.size).reshape(count, dim)


@dataclass
class Codebooks:
    """A parsed RVQC file; every array is float32 exactly as stored."""

    projected: bool
    cosine: bool
    entries: list[np.ndarray]  # per layer, (K, q)
    proj_in: list[np.ndarray] | None  # per layer, (d, q)
    proj_out: list[np.ndarray] | None  # per layer, (q, d)
    latent_dim: int


def read_codebooks(path: str) -> Codebooks:
    with open(path, "rb") as handle:
        data = handle.read()
    magic, version, scheme, metric, layers, k, d, q = _CODEBOOK_HEADER.unpack_from(data)
    if magic != b"RVQC" or version != 1 or scheme not in (0, 1) or metric not in (0, 1):
        raise ValueError(f"{path}: not a version-1 RVQC file")
    projected = scheme == 1
    per_layer = k * q + (2 * d * q if projected else 0)
    if len(data) != _CODEBOOK_HEADER.size + 4 * layers * per_layer:
        raise ValueError(f"{path}: payload length does not match the header")
    floats = np.frombuffer(data, dtype="<f4", offset=_CODEBOOK_HEADER.size)
    entries, proj_in, proj_out = [], [], []
    pos = 0
    for _ in range(layers):
        if projected:
            proj_in.append(floats[pos : pos + d * q].reshape(d, q))
            pos += d * q
        entries.append(floats[pos : pos + k * q].reshape(k, q))
        pos += k * q
        if projected:
            proj_out.append(floats[pos : pos + q * d].reshape(q, d))
            pos += q * d
    return Codebooks(
        projected=projected,
        cosine=metric == 1,
        entries=entries,
        proj_in=proj_in if projected else None,
        proj_out=proj_out if projected else None,
        latent_dim=d,
    )


def write_tokens(path: str, utterances: list[tuple[str, np.ndarray]], codebook_size: int) -> None:
    """Write (id, (T, layers) codes) utterances as a token file at 50 Hz."""
    with open(path, "w", encoding="utf-8") as handle:
        for source_id, codes in utterances:
            record = {
                "id": source_id,
                "token_rate_hz": 50.0,
                "layers": int(codes.shape[1]),
                "codebook_size": codebook_size,
                "codes": codes.tolist(),
            }
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_tokens(path: str) -> list[dict]:
    """Parse a token file with the json module; one dict per utterance."""
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def token_codes(path: str) -> np.ndarray:
    """All frames of a token file, utterances concatenated, as an int64 array."""
    records = read_tokens(path)
    frames = [frame for record in records for frame in record["codes"]]
    width = records[0]["layers"] if records else 0
    return np.asarray(frames, dtype=np.int64).reshape(-1, width)
