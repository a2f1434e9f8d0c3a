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
    The projected scheme stores the same pair in every layer; a file whose
    pairs differ, or that holds a value that is not finite, is rejected
    (FormatError, exit 3). The loader converts the payload to float64 once;
    every layer's entries, EMA sums and projection pair are read-only views
    of that one copy.

Token stream file: one JSON object per line with keys
    id, token_rate_hz, layers, codebook_size, codes
where codes is a list of frames, each a list of `layers` integers. The
writer puts codes last, in the compact form `"codes":[[1,2],[3,4]]}`; on
such a line the reader parses the rest of the line with `json` and the codes
in vectorized passes over their bytes, in blocks of whole frames cut between
frames at about 64 KB, so its temporaries stay within a few times 512 KB
whatever the line's length (codes text up to 128 KB is one block). Any
other valid JSON layout is parsed by `json` alone, with the same results and
the same errors.

Payload lengths must match the header exactly; a save of a loaded file
reproduces it byte for byte. A vector payload is written straight from the
array's own buffer (one float32 copy only when the array is not already
C-contiguous `<f4`) and read into one array, after the file size has been
checked against the header.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from ._rng import BLOCK_BYTES
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


def _atomic_write_bytes(path: str, chunks) -> None:
    """Write the byte-like `chunks`, in order, to a temporary file beside
    `path`, then rename it over `path`. On any failure the temporary file is
    removed, `path` is left as it was, and an OSError names only `path`."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rvqkit-")
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def _f32_buffer(array: np.ndarray) -> np.ndarray:
    """The array as little-endian float32 bytes, row-major: a uint8 view of
    the array itself when it already is C-contiguous `<f4`, else of one copy."""
    return np.ascontiguousarray(array, dtype="<f4").reshape(-1).view(np.uint8)


def write_vectors(path: str, vectors) -> None:
    """Write a (count, dim) array as a vector file."""
    vectors = np.atleast_2d(np.asarray(vectors))
    count, dim = vectors.shape
    header = _VECTOR_HEADER.pack(VECTOR_MAGIC, FORMAT_VERSION, count, dim)
    _atomic_write_bytes(path, (header, _f32_buffer(vectors)))


def read_vectors(path: str) -> np.ndarray:
    """Read a vector file back as a (count, dim) float32 array."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        header = handle.read(_VECTOR_HEADER.size)
        if len(header) < _VECTOR_HEADER.size:
            raise FormatError(f"{path}: truncated vector file header")
        magic, version, count, dim = _VECTOR_HEADER.unpack(header)
        if magic != VECTOR_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {VECTOR_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        # Checked before anything is allocated, so a header that claims more
        # rows than the file holds is a format error, not a MemoryError.
        expected = _VECTOR_HEADER.size + 4 * count * dim
        if size != expected:
            raise FormatError(f"{path}: payload is {size} bytes, header implies {expected}")
        vectors = np.empty((count, dim), dtype="<f4")
        if handle.readinto(vectors) != vectors.nbytes:
            raise FormatError(f"{path}: file changed while it was read")
    return vectors


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
            chunks.append(_f32_buffer(quantizer.projections[i].proj_in))
        chunks.append(_f32_buffer(layer.entries))
        if quantizer.scheme == PROJECTED:
            chunks.append(_f32_buffer(quantizer.projections[i].proj_out))
    _atomic_write_bytes(path, chunks)


def load_quantizer(path: str) -> RvqQuantizer:
    """Read a codebook file; EMA statistics are re-primed from the entries.
    Every array of the quantizer is a read-only view of one float64 copy of
    the payload; a non-finite entry or projection is a FormatError."""
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
    floats.flags.writeable = False
    sizes = np.ones(k)
    sizes.flags.writeable = False
    pos = 0

    def take(n: int, shape: tuple[int, int]) -> np.ndarray:
        nonlocal pos
        block = floats[pos : pos + n].reshape(shape)
        pos += n
        return block

    codebooks = []
    projections = [] if scheme == PROJECTED else None
    for layer in range(layers):
        try:
            if scheme == PROJECTED:
                proj_in = take(d * q, (d, q))
                entries = take(k * q, (k, q))
                proj_out = take(q * d, (q, d))
                projections.append(ProjectionPair(proj_in=proj_in, proj_out=proj_out))
            else:
                entries = take(k * q, (k, q))
            # The EMA statistics `Codebook.from_entries` gives: sums equal to
            # the entries, cluster sizes 1.
            codebooks.append(Codebook(entries, sizes, entries, metric))
        except ValueError as exc:
            raise FormatError(f"{path}: layer {layer}: {exc}") from exc

    try:
        return RvqQuantizer(
            layers=codebooks, latent_dim=d, scheme=scheme, projections=projections
        )
    except ValueError as exc:
        raise FormatError(f"{path}: inconsistent codebook file: {exc}") from exc


def _stream_record(stream: TokenStream) -> str:
    record = {
        "id": stream.source_id,
        "token_rate_hz": stream.token_rate_hz,
        "layers": stream.layers,
        "codebook_size": int(stream.codebook_size),
        "codes": stream.frames.tolist(),
    }
    return json.dumps(record, separators=(",", ":"))


def write_token_streams(path: str, streams: list[TokenStream]) -> None:
    """Write streams as JSON lines, one utterance per line."""
    _atomic_write_bytes(path, ((_stream_record(s) + "\n").encode("utf-8") for s in streams))


def _frames(codes, layers: int, line: str) -> np.ndarray:
    """A record's codes as an array; an empty JSON list is zero `layers`-wide
    frames. The reader checks the width, `TokenStream` the rest.

    `np.asarray` turns booleans mixed with integers into integers, so they
    are looked for in the frames first, but only in lines that spell a JSON
    boolean. Any other nesting fails the shape or dtype check."""
    if not isinstance(codes, list):
        return np.asarray(codes)
    if not codes:
        return np.empty((0, layers), dtype=np.int32)
    if ("true" in line or "false" in line) and any(
        isinstance(frame, list) and any(type(v) is bool for v in frame) for frame in codes
    ):
        raise ValueError("codes must be integers, got a boolean")
    return np.asarray(codes)


_CODES_KEY = '"codes":['
_DIGITS = b"0123456789"
_MAX_DIGITS = 9  # every 9-digit code fits an int32
# Codes text a block of `_compact_codes` reaches before it is cut, 64 KB:
# at most one digit-run edge a char, so its int64 edges fit `BLOCK_BYTES`.
_BLOCK_CHARS = BLOCK_BYTES // 8


def _frame_blocks(text: str):
    """Spans (start, stop) that cover `text` in order, each cut right after
    the first `],` that follows `_BLOCK_CHARS` chars of it, while more than
    twice that remain. Adjacent spans share the cut's `,`; a text of at most
    `2 * _BLOCK_CHARS` chars is one span."""
    start = 0
    while len(text) - start > 2 * _BLOCK_CHARS:
        cut = text.find("],[", start + _BLOCK_CHARS)
        if cut < 0:
            break
        yield start, cut + 2
        start = cut + 1
    yield start, len(text)


def _block_codes(data: bytes, layers: int, first: bool, last: bool) -> np.ndarray | None:
    """The (frames, layers) int32 grid spelled by `data`, whole frames
    `[1,2],[3,4]` led by the text's opening `[` (`first`) or a `,` and closed
    by its final `]` (`last`) or a `,`; None unless the block is exactly
    that compact form with codes in canonical decimal of at most 9 digits.

    The brackets and commas must be exactly those of its frames. Then the
    digit runs must be frames*layers, each in a slot of a frame: none right
    after a `]` or right before a `[`, none with a leading zero."""
    skeleton = data.translate(None, _DIGITS)
    frames, rest = divmod(len(skeleton) - 1, layers + 2)
    if frames < 1 or rest:
        return None
    frame = b"[" + b"," * (layers - 1) + b"]"
    head, tail = b"[" if first else b",", b"]" if last else b","
    if skeleton != head + b",".join([frame] * frames) + tail:
        return None
    # Non-digits wrap around to 10..255 in uint8; the block starts and ends
    # with a bracket or comma, so the mask's edges pair up as (start, end)
    # of runs.
    raw = np.frombuffer(data, dtype=np.uint8)
    digits = raw - np.uint8(ord("0"))
    is_digit = digits < 10
    edges = np.flatnonzero(is_digit[1:] != is_digit[:-1])
    edges += 1
    starts, ends = edges[0::2], edges[1::2]
    if len(starts) != frames * layers:
        return None
    lengths = ends - starts
    longest = int(lengths.max())
    if (
        longest > _MAX_DIGITS
        or (raw[starts - 1] == ord("]")).any()
        or (raw[ends] == ord("[")).any()
        or ((lengths > 1) & (digits[starts] == 0)).any()
    ):
        return None
    values = np.zeros(len(starts), dtype=np.int32)
    for column in range(longest):
        digit = np.where(lengths > column, digits[ends - 1 - column], 0).astype(np.int32)
        values += digit * np.int32(10**column)
    return values.reshape(frames, layers)


def _compact_codes(text: str, layers: int) -> np.ndarray | None:
    """The (T, layers) int32 grid spelled by `text` when it is exactly the
    compact form `write_token_streams` writes, `[[1,2],[3,4]]` with T >= 1
    and codes in canonical decimal of at most 9 digits; otherwise None.

    The text is parsed in the blocks of whole frames `_frame_blocks` cuts,
    so the temporaries stay within a few `BLOCK_BYTES` whatever its length;
    a text of up to 128 KB is one block, whose grid is returned as it is.
    Every cut is a `],[` between frames: when the whole text is compact,
    each of its `],[` is one, and each block is compact; when every block
    is, so is their concatenation."""
    if not text.isascii():
        return None
    blocks = []
    for start, stop in _frame_blocks(text):
        data = text[start:stop].encode("ascii")
        block = _block_codes(data, layers, start == 0, stop == len(text))
        if block is None:
            return None
        blocks.append(block)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _compact_record(line: str) -> dict | None:
    """The record on `line` with its codes already an int32 grid, when the
    line ends in a compact `"codes":[[...]]}` member; otherwise None, and
    the line takes the full `json.loads` path.

    This returns exactly what `json.loads(line)` would, with the codes as an
    array, which `_frames` passes through. The head, the line with the
    codes value replaced by `[]`, is parsed by `json`. The `"` that starts
    the split follows a `,` or a `{`, so it is not escaped: it either closes
    a string, and then `codes` follows a closing quote and the head does
    not parse, or it opens the key `codes`, whose value `[]` is followed by
    the head's last `}`. So a head that parses is one object whose last key
    is `codes`. When the codes text also passes `_compact_codes`, it is a
    valid JSON array of those integers, the whole line is valid JSON, and
    `json` keeps the last of duplicated keys, which is this one."""
    split = line.rfind(_CODES_KEY)
    if split < 1 or line[split - 1] not in ",{" or not line.endswith("]]}"):
        return None
    value = split + len(_CODES_KEY) - 1
    try:
        record = json.loads(line[:value] + "[]}")
    except json.JSONDecodeError:
        return None
    layers = record.get("layers")
    if type(layers) is not int or layers < 1:
        return None
    codes = _compact_codes(line[value:-1], layers)
    if codes is None:
        return None
    record["codes"] = codes
    return record


def read_token_streams(path: str) -> list[TokenStream]:
    """Parse a token stream file, validating ranges and frame widths."""
    streams = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = _compact_record(line)
            if record is None:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                layers, codebook_size = record["layers"], record["codebook_size"]
                rate, source_id = record["token_rate_hz"], record["id"]
                # Checks on what a record declares but a stream does not store.
                if type(layers) is not int:
                    raise ValueError("layers and codebook_size must be integers")
                if layers < 1:
                    raise ValueError("layers must be >= 1")
                frames = _frames(record["codes"], layers, line)
                if frames.ndim == 2 and frames.shape[1] != layers:
                    raise ValueError(f"frame width {frames.shape[1]} does not match {layers=}")
                stream = TokenStream(frames, rate, codebook_size, source_id)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise FormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
            streams.append(stream)
    return streams
