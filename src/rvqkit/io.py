"""On-disk formats. Everything is little-endian and written atomically.

Vector file ("RVQV"):
    magic 4s | version u32 | count u64 | dim u32 | count*dim float32, row-major

Codebook file ("RVQC"):
    magic 4s | version u32 | scheme u8 (0 plain, 1 projected) | metric u8
    (0 euclidean, 1 cosine) | num_layers u32 | K u32 | d u32 | q u32,
    then per layer:
        proj_in  d*q float32   (projected scheme only)
        entries  K*q float32
        proj_out q*d float32   (projected scheme only)

Token stream file: one JSON object per line with keys
    id, token_rate_hz, layers, codebook_size, codes
where codes is a list of frames, each a list of `layers` integers.

Payload lengths must match the header exactly; a save of a loaded file
reproduces it byte for byte.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError
from .rvq import PLAIN, PROJECTED, RvqQuantizer, TokenStream
from .vq import COSINE, EUCLIDEAN, Codebook, ProjectionPair

VECTOR_MAGIC = b"RVQV"
CODEBOOK_MAGIC = b"RVQC"
FORMAT_VERSION = 1

_VECTOR_HEADER = struct.Struct("<4sIQI")
_CODEBOOK_HEADER = struct.Struct("<4sIBBIIII")

_SCHEME_TAGS = {PLAIN: 0, PROJECTED: 1}
_METRIC_TAGS = {EUCLIDEAN: 0, COSINE: 1}
_SCHEMES_BY_TAG = {v: k for k, v in _SCHEME_TAGS.items()}
_METRICS_BY_TAG = {v: k for k, v in _METRIC_TAGS.items()}


def _atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rvqkit-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _f32_bytes(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f4").tobytes()


def write_vectors(path: str, vectors) -> None:
    """Write a (count, dim) array as a vector file."""
    vectors = np.atleast_2d(np.asarray(vectors))
    count, dim = vectors.shape
    header = _VECTOR_HEADER.pack(VECTOR_MAGIC, FORMAT_VERSION, count, dim)
    _atomic_write_bytes(path, header + _f32_bytes(vectors))


def read_vectors(path: str) -> np.ndarray:
    """Read a vector file back as a (count, dim) float32 array."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _VECTOR_HEADER.size:
        raise FormatError(f"{path}: truncated vector file header")
    magic, version, count, dim = _VECTOR_HEADER.unpack_from(data)
    if magic != VECTOR_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {VECTOR_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = _VECTOR_HEADER.size + 4 * count * dim
    if len(data) != expected:
        raise FormatError(f"{path}: payload is {len(data)} bytes, header implies {expected}")
    payload = np.frombuffer(data, dtype="<f4", offset=_VECTOR_HEADER.size)
    return payload.reshape(count, dim).copy()


def save_quantizer(path: str, quantizer: RvqQuantizer) -> None:
    """Write a quantizer as a codebook file (entries and projections as float32)."""
    k = quantizer.codebook_size
    q = quantizer.quant_dim
    d = quantizer.latent_dim
    header = _CODEBOOK_HEADER.pack(
        CODEBOOK_MAGIC,
        FORMAT_VERSION,
        _SCHEME_TAGS[quantizer.scheme],
        _METRIC_TAGS[quantizer.metric],
        quantizer.num_layers,
        k,
        d,
        q,
    )
    chunks = [header]
    for i, layer in enumerate(quantizer.layers):
        if quantizer.scheme == PROJECTED:
            chunks.append(_f32_bytes(quantizer.projections[i].proj_in))
        chunks.append(_f32_bytes(layer.entries))
        if quantizer.scheme == PROJECTED:
            chunks.append(_f32_bytes(quantizer.projections[i].proj_out))
    _atomic_write_bytes(path, b"".join(chunks))


def load_quantizer(path: str) -> RvqQuantizer:
    """Read a codebook file; EMA statistics are re-primed from the entries."""
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < _CODEBOOK_HEADER.size:
        raise FormatError(f"{path}: truncated codebook file header")
    magic, version, scheme_tag, metric_tag, layers, k, d, q = _CODEBOOK_HEADER.unpack_from(data)
    if magic != CODEBOOK_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {CODEBOOK_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if scheme_tag not in _SCHEMES_BY_TAG or metric_tag not in _METRICS_BY_TAG:
        raise FormatError(f"{path}: unknown scheme/metric tags ({scheme_tag}, {metric_tag})")
    scheme = _SCHEMES_BY_TAG[scheme_tag]
    metric = _METRICS_BY_TAG[metric_tag]
    if layers < 1 or k < 1 or d < 1 or q < 1:
        raise FormatError(f"{path}: degenerate header dimensions")

    per_layer = k * q + (d * q + q * d if scheme == PROJECTED else 0)
    expected = _CODEBOOK_HEADER.size + 4 * layers * per_layer
    if len(data) != expected:
        raise FormatError(f"{path}: payload is {len(data)} bytes, header implies {expected}")

    floats = np.frombuffer(data, dtype="<f4", offset=_CODEBOOK_HEADER.size).astype(np.float64)
    pos = 0

    def take(n: int, shape: tuple[int, int]) -> np.ndarray:
        nonlocal pos
        block = floats[pos : pos + n].reshape(shape)
        pos += n
        return block

    codebooks = []
    projections = [] if scheme == PROJECTED else None
    for _ in range(layers):
        if scheme == PROJECTED:
            proj_in = take(d * q, (d, q))
            entries = take(k * q, (k, q))
            proj_out = take(q * d, (q, d))
            projections.append(ProjectionPair(proj_in=proj_in, proj_out=proj_out))
        else:
            entries = take(k * q, (k, q))
        codebooks.append(Codebook.from_entries(entries, metric=metric))

    try:
        return RvqQuantizer(
            layers=codebooks, latent_dim=d, scheme=scheme, projections=projections
        )
    except ValueError as exc:
        raise FormatError(f"{path}: inconsistent codebook file: {exc}") from exc


def _stream_record(stream: TokenStream) -> str:
    record = {
        "id": stream.source_id,
        "token_rate_hz": float(stream.token_rate_hz),
        "layers": int(stream.layers),
        "codebook_size": int(stream.codebook_size),
        "codes": stream.frames.tolist(),
    }
    return json.dumps(record, separators=(",", ":"))


def write_token_streams(path: str, streams: list[TokenStream]) -> None:
    """Write streams as JSON lines, one utterance per line."""
    text = "".join(_stream_record(s) + "\n" for s in streams)
    _atomic_write_bytes(path, text.encode("utf-8"))


def _frames(codes, layers: int) -> np.ndarray:
    """A record's codes as an array; an empty JSON list is zero `layers`-wide
    frames. `TokenStream` checks the shape, the dtype and the range."""
    if isinstance(codes, list) and not codes:
        return np.empty((0, layers), dtype=np.int32)
    return np.asarray(codes)


def read_token_streams(path: str) -> list[TokenStream]:
    """Parse a token stream file, validating ranges and frame widths."""
    streams = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                layers, codebook_size = record["layers"], record["codebook_size"]
                rate, source_id = record["token_rate_hz"], record["id"]
                if type(layers) is not int or type(codebook_size) is not int:
                    raise ValueError("layers and codebook_size must be integers")
                if type(rate) not in (int, float):
                    raise ValueError("token_rate_hz must be a number")
                if type(source_id) is not str:
                    raise ValueError("id must be a string")
                stream = TokenStream(
                    frames=_frames(record["codes"], layers),
                    token_rate_hz=float(rate),
                    layers=layers,
                    codebook_size=codebook_size,
                    source_id=source_id,
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise FormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
            streams.append(stream)
    return streams
