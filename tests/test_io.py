"""File formats: headers, exact round-trips, corruption handling."""

import json
import os
import struct
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rvqkit.io
from rvqkit import (
    Codebook,
    FormatError,
    ProjectionPair,
    RvqQuantizer,
    TokenStream,
    load_quantizer,
    read_token_streams,
    read_vectors,
    rvq_encode,
    save_quantizer,
    write_token_streams,
    write_vectors,
)


class TestVectorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(100)
        vectors = rng.normal(size=(37, 9)).astype(np.float32)
        path = tmp_path / "v.rvqv"
        write_vectors(path, vectors)
        first = path.read_bytes()
        loaded = read_vectors(path)
        np.testing.assert_array_equal(loaded, vectors)
        write_vectors(path, loaded)
        assert path.read_bytes() == first

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rvqv"
        write_vectors(path, np.empty((0, 5)))
        loaded = read_vectors(path)
        assert loaded.shape == (0, 5)

    def test_header_fields(self, tmp_path):
        path = tmp_path / "v.rvqv"
        write_vectors(path, np.zeros((3, 2), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"RVQV"
        assert int.from_bytes(raw[4:8], "little") == 1  # version
        assert int.from_bytes(raw[8:16], "little") == 3  # count
        assert int.from_bytes(raw[16:20], "little") == 2  # dim
        assert len(raw) == 20 + 4 * 6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rvqv"
        write_vectors(path, np.zeros((1, 1)))
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_vectors(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.rvqv"
        write_vectors(path, np.zeros((4, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(FormatError):
            read_vectors(path)

    @pytest.mark.parametrize("make", [
        lambda rng: np.empty((0, 6)),
        lambda rng: rng.normal(size=(11, 6)),
        lambda rng: rng.normal(size=(22, 9))[::2, 1:7].astype(np.float32),
        lambda rng: np.asfortranarray(rng.normal(size=(11, 6)).astype(np.float32)),
        lambda rng: rng.normal(size=(11, 6)).astype(">f4"),
    ], ids=["empty", "float64", "sliced", "fortran", "big-endian"])
    def test_payload_is_the_contiguous_float32_rows(self, tmp_path, make):
        vectors = make(np.random.default_rng(102))
        path = tmp_path / "v.rvqv"
        write_vectors(path, vectors)
        header = struct.pack("<4sIQI", b"RVQV", 1, *vectors.shape)
        assert path.read_bytes() == header + np.ascontiguousarray(vectors, "<f4").tobytes()
        loaded = read_vectors(path)
        assert loaded.dtype == np.dtype("<f4") and loaded.flags.c_contiguous
        np.testing.assert_array_equal(loaded, vectors.astype(np.float32))

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "long.rvqv"
        write_vectors(path, np.zeros((4, 4)))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="payload is 85 bytes, header implies 84"):
            read_vectors(path)

    def test_huge_row_count_is_a_format_error(self, tmp_path):
        # Checked against the file size before the payload is allocated.
        path = tmp_path / "huge.rvqv"
        path.write_bytes(struct.pack("<4sIQI", b"RVQV", 1, 2**40, 64) + bytes(16))
        with pytest.raises(FormatError, match=f"payload is 36 bytes, header implies {20 + 2**48}"):
            read_vectors(path)

    def test_truncated_header_and_version(self, tmp_path):
        path = tmp_path / "v.rvqv"
        path.write_bytes(b"RVQV\1\0")
        with pytest.raises(FormatError, match="truncated vector file header"):
            read_vectors(path)
        path.write_bytes(struct.pack("<4sIQI", b"RVQV", 2, 0, 3))
        with pytest.raises(FormatError, match="unsupported version 2"):
            read_vectors(path)


def plain_quantizer(rng, layers=2, k=8, dim=4):
    return RvqQuantizer(
        layers=[Codebook.from_entries(rng.normal(size=(k, dim)).astype(np.float32)) for _ in range(layers)],
        latent_dim=dim,
    )


def projected_quantizer(rng, layers=2, k=8, d=6, q=3):
    pair = ProjectionPair(
        proj_in=rng.normal(size=(d, q)).astype(np.float32),
        proj_out=rng.normal(size=(q, d)).astype(np.float32),
    )
    return RvqQuantizer(
        layers=[
            Codebook.from_entries(rng.normal(size=(k, q)).astype(np.float32), metric="cosine")
            for _ in range(layers)
        ],
        latent_dim=d,
        scheme="projected",
        projections=[pair] * layers,
    )


class TestCodebookFile:
    def test_plain_round_trip(self, tmp_path):
        rng = np.random.default_rng(101)
        qz = plain_quantizer(rng)
        path = tmp_path / "cb.rvqc"
        save_quantizer(path, qz)
        first = path.read_bytes()
        loaded = load_quantizer(path)
        assert loaded.scheme == "plain"
        assert loaded.metric == "euclidean"
        for a, b in zip(loaded.layers, qz.layers):
            np.testing.assert_array_equal(a.entries, b.entries)
        save_quantizer(path, loaded)
        assert path.read_bytes() == first

    def test_projected_round_trip(self, tmp_path):
        rng = np.random.default_rng(102)
        qz = projected_quantizer(rng)
        path = tmp_path / "cb.rvqc"
        save_quantizer(path, qz)
        first = path.read_bytes()
        loaded = load_quantizer(path)
        assert loaded.scheme == "projected"
        assert loaded.metric == "cosine"
        assert loaded.latent_dim == 6 and loaded.quant_dim == 3
        for pair, orig in zip(loaded.projections, qz.projections):
            np.testing.assert_array_equal(pair.proj_in, orig.proj_in)
            np.testing.assert_array_equal(pair.proj_out, orig.proj_out)
        save_quantizer(path, loaded)
        assert path.read_bytes() == first

    def test_loaded_quantizer_encodes_identically(self, tmp_path):
        rng = np.random.default_rng(103)
        qz = plain_quantizer(rng)
        path = tmp_path / "cb.rvqc"
        save_quantizer(path, qz)
        loaded = load_quantizer(path)
        latent = rng.normal(size=4)
        codes_orig, _ = rvq_encode(latent, qz)
        codes_loaded, _ = rvq_encode(latent, loaded)
        assert codes_orig.tolist() == codes_loaded.tolist()

    def test_header_scheme_and_dims(self, tmp_path):
        rng = np.random.default_rng(104)
        qz = projected_quantizer(rng, layers=3, k=16, d=8, q=2)
        path = tmp_path / "cb.rvqc"
        save_quantizer(path, qz)
        raw = path.read_bytes()
        assert raw[:4] == b"RVQC"
        assert raw[8] == 1  # projected
        assert raw[9] == 1  # cosine
        assert int.from_bytes(raw[10:14], "little") == 3
        assert int.from_bytes(raw[14:18], "little") == 16
        assert int.from_bytes(raw[18:22], "little") == 8
        assert int.from_bytes(raw[22:26], "little") == 2

    def test_bad_magic_and_length(self, tmp_path):
        rng = np.random.default_rng(105)
        qz = plain_quantizer(rng)
        path = tmp_path / "cb.rvqc"
        save_quantizer(path, qz)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_quantizer(path)
        save_quantizer(path, qz)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError):
            load_quantizer(path)

    def test_load_holds_one_read_only_copy(self, tmp_path):
        """A bench-shaped file (8 layers, K=1024, q=32) of 1 MiB: the load
        peaked at 7.1 MiB when each layer copied its entries twice. Its
        floor is the file's bytes and one float64 copy of the payload."""
        rng = np.random.default_rng(110)
        path = tmp_path / "cb.rvqc"
        save_quantizer(path, plain_quantizer(rng, layers=8, k=1024, dim=32))
        size = path.stat().st_size
        load_quantizer(path)
        tracemalloc.start()
        try:
            loaded = load_quantizer(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * (size + 2 * (size - 26))
        for layer in loaded.layers:
            assert not layer.entries.flags.writeable
        path = tmp_path / "pcb.rvqc"
        save_quantizer(path, projected_quantizer(rng))
        for pair in load_quantizer(path).projections:
            assert not (pair.proj_in.flags.writeable or pair.proj_out.flags.writeable)

    @pytest.mark.parametrize("scheme, offset, value", [
        ("plain", 0, np.nan),
        ("plain", 4 * 8 * 4 - 4, -np.inf),
        ("projected", 0, np.nan),
        ("projected", 4 * 6 * 3, np.inf),
        ("projected", 4 * (6 * 3 + 8 * 3), np.nan),
    ], ids=["entry-nan", "last-entry-inf", "proj-in-nan", "entry-inf", "proj-out-nan"])
    def test_non_finite_value_is_a_format_error(self, tmp_path, scheme, offset, value):
        # Each file has one layer of K=8; plain d=4, projected d=6, q=3.
        rng = np.random.default_rng(112)
        path = tmp_path / "cb.rvqc"
        build = plain_quantizer if scheme == "plain" else projected_quantizer
        save_quantizer(path, build(rng, layers=1))
        data = bytearray(path.read_bytes())
        struct.pack_into("<f", data, 26 + offset, value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="must be finite") as caught:
            load_quantizer(path)
        assert str(caught.value).startswith(f"{path}: layer 0: ")

    def test_distinct_pairs_rejected(self, tmp_path):
        # One pair maps every layer: a file whose layer-2 pair differs from
        # layer 1's would encode through one and decode through the other.
        rng = np.random.default_rng(107)
        k, d, q = 8, 6, 3
        path = tmp_path / "cb.rvqc"
        save_quantizer(path, projected_quantizer(rng, layers=2, k=k, d=d, q=q))
        data = bytearray(path.read_bytes())
        layer2_proj_in = 26 + 4 * (d * q + k * q + q * d)
        (value,) = struct.unpack_from("<f", data, layer2_proj_in)
        struct.pack_into("<f", data, layer2_proj_in, value + 1.0)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="differs from pair 0"):
            load_quantizer(path)


class TestTokenStreamFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(106)
        streams = [
            TokenStream(
                frames=rng.integers(0, 16, size=(n, 3)).astype(np.int32),
                token_rate_hz=50.0,
                codebook_size=16,
                source_id=f"utt-{i}",
            )
            for i, n in enumerate((5, 0, 12))
        ]
        path = tmp_path / "t.jsonl"
        write_token_streams(path, streams)
        first = path.read_bytes()
        loaded = read_token_streams(path)
        assert len(loaded) == 3
        for a, b in zip(loaded, streams):
            np.testing.assert_array_equal(a.frames, b.frames)
            assert a.source_id == b.source_id
            assert a.token_rate_hz == b.token_rate_hz
        write_token_streams(path, loaded)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("source_id, codebook_size, message", [
        (5, 4, "id must be a string"),
        (None, 4, "id must be a string"),
        ("s", 4.5, "codebook_size must be integers"),
        ("s", True, "codebook_size must be integers"),
    ])
    def test_unreadable_stream_is_not_built(self, source_id, codebook_size, message):
        # The reader would reject its record, so the stream is never written.
        with pytest.raises(ValueError, match=message):
            TokenStream(np.zeros((2, 1), dtype=np.int32), 50.0, codebook_size, source_id)

    @pytest.mark.parametrize("frames, rate, codebook_size, source_id", [
        (np.array([[3], [0]], dtype=np.uint8), 50, np.int64(4), "np.int64 K"),
        (np.empty((0, 3), dtype=np.int64), 12.5, 7, ""),
        (np.array([[2, 0, 1]]), np.float32(75.5), np.uint16(3), "ü \"quoted\""),
        (np.array([[1]]), Fraction(1, 3), 4, "a rate with no float spelling"),
    ])
    def test_every_built_stream_reads_back(self, tmp_path, frames, rate, codebook_size,
                                           source_id):
        stream = TokenStream(frames, rate, codebook_size, source_id)
        path = tmp_path / "t.jsonl"
        write_token_streams(path, [stream])
        [loaded] = read_token_streams(path)
        fields = ("token_rate_hz", "codebook_size", "source_id", "layers", "num_frames")
        assert [getattr(loaded, f) for f in fields] == [getattr(stream, f) for f in fields]
        assert loaded.frames.dtype == stream.frames.dtype == np.int32
        np.testing.assert_array_equal(loaded.frames, stream.frames)

    def test_rejects_out_of_range_codes(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for codes, rate in (
            ("[[9]]", "50.0"),
            ("[[4294967297]]", "50.0"),  # 2**32 + 1 must not reach an int32 cast
            ("[[1]]", "NaN"),  # the rate is out of range too
        ):
            path.write_text(
                f'{{"id":"x","token_rate_hz":{rate},"layers":1,"codebook_size":4,'
                f'"codes":{codes}}}\n'
            )
            with pytest.raises(FormatError):
                read_token_streams(path)

    def test_rejects_ragged_frames(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for codes in (
            "[[1,2],[3]]",
            "[[1,2,3],[3,2,1]]",  # 3-wide under "layers": 2, not to be regrouped
            "[1,2]",  # a flat list, not a list of frames
            "[[1.7,2]]",  # float codes are not truncated
            "[[[1,2]]]",
        ):
            path.write_text(
                f'{{"id":"x","token_rate_hz":50.0,"layers":2,"codebook_size":4,"codes":{codes}}}\n'
            )
            with pytest.raises(FormatError):
                read_token_streams(path)

    def test_rejects_non_integer_sizes(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for layers, k in (("2.9", "4"), ("2", "4.5"), ("true", "4"), ('"2"', "4")):
            path.write_text(
                f'{{"id":"x","token_rate_hz":50.0,"layers":{layers},"codebook_size":{k},'
                f'"codes":[[1,3]]}}\n'
            )
            with pytest.raises(FormatError):
                read_token_streams(path)

    def test_rejects_wrong_typed_rate_and_id(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for rate, source_id in (("true", '"x"'), ('"50"', '"x"'), ("null", '"x"'), ("50", "7"),
                                ("50", "null"), ("50", '["x"]')):
            path.write_text(
                f'{{"id":{source_id},"token_rate_hz":{rate},"layers":1,"codebook_size":4,'
                f'"codes":[[1]]}}\n'
            )
            with pytest.raises(FormatError):
                read_token_streams(path)

    def test_rejects_booleans_among_codes(self, tmp_path):
        # np.asarray would read [[1,true],[false,3]] as [[1,1],[0,3]].
        path = tmp_path / "bad.jsonl"
        for codes in ("[[1,true],[false,3]]", "[[true,2]]", "[[0,1],[2,false]]"):
            path.write_text(
                f'{{"id":"x","token_rate_hz":50.0,"layers":2,"codebook_size":4,"codes":{codes}}}\n'
            )
            with pytest.raises(FormatError, match="boolean"):
                read_token_streams(path)
        path.write_text(
            '{"id":"true false","token_rate_hz":50.0,"layers":2,"codebook_size":4,'
            '"codes":[[1,2],[0,3]]}\n'
        )
        assert read_token_streams(path)[0].frames.tolist() == [[1, 2], [0, 3]]

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(FormatError):
            read_token_streams(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"x","layers":1,"codebook_size":4,"codes":[[1]]}\n')
        with pytest.raises(FormatError):
            read_token_streams(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '\n{"id":"x","token_rate_hz":50.0,"layers":1,"codebook_size":4,"codes":[[1]]}\n\n'
        )
        assert len(read_token_streams(path)) == 1


VALID_RECORD = {"id": "u", "token_rate_hz": 50.0, "layers": 2, "codebook_size": 4,
                "codes": [[1, 3], [0, 2]]}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)
# Grids of codes near the valid ones, so the range and width checks get hit.
CODE_GRIDS = st.lists(
    st.lists(st.integers(-2, 5) | st.sampled_from([2**31, 2**32 + 1, 2**63, 2**64]) | JSON_VALUES,
             min_size=1, max_size=3),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from([*VALID_RECORD, "one code"]),
    value=JSON_VALUES | CODE_GRIDS,
    where=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    separators=st.sampled_from([None, (",", ":")]),
)
def test_token_reader_rejects_or_keeps_any_field_value(
    tmp_path_factory, field, value, where, separators
):
    """One field of a valid record replaced by any JSON value: the reader
    raises FormatError or returns exactly what the record says. Compact
    separators are the layout the writer uses and the byte parser reads."""
    record = json.loads(json.dumps(VALID_RECORD))
    if field == "one code":
        record["codes"][where[0]][where[1]] = value
    else:
        record[field] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_text(json.dumps(record, separators=separators) + "\n")
    try:
        [stream] = read_token_streams(path)
    except FormatError:
        return
    assert stream.frames.dtype == np.int32
    assert stream.frames.shape == (len(record["codes"]), record["layers"])
    # Compared as JSON, so that a boolean read as an integer shows.
    assert json.dumps(stream.frames.tolist()) == json.dumps(record["codes"])
    assert stream.source_id == record["id"]
    assert stream.token_rate_hz == record["token_rate_hz"]
    assert (stream.layers, stream.codebook_size) == (record["layers"], record["codebook_size"])


def _read_outcome(path):
    """What reading `path` gives: each stream's fields and frames, or the
    exception's type and message."""
    try:
        streams = read_token_streams(path)
    except Exception as exc:  # noqa: BLE001 -- the comparison covers every failure
        return type(exc).__name__, str(exc)
    return [
        (s.frames.dtype.str, s.frames.shape, s.frames.tobytes(), s.source_id,
         s.token_rate_hz, s.layers, s.codebook_size)
        for s in streams
    ]


def _reference_outcome(path):
    """The same, with every line through `json.loads`, `_frames` and the
    `TokenStream` checks: the reader without its compact byte pass."""
    with mock.patch.object(rvqkit.io, "_compact_record", lambda line: None):
        return _read_outcome(path)


HEAD = '{"id":"u","token_rate_hz":50.0,"layers":2,"codebook_size":1000000000,'


class TestCompactCodesParser:
    """The byte pass over compact codes against the reference path: equal
    frames, dtype and fields, or the same error and message."""

    def check(self, tmp_path, text, fast):
        path = tmp_path / "t.jsonl"
        path.write_bytes(text.encode("utf-8"))
        outcome = _read_outcome(path)
        assert outcome == _reference_outcome(path)
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        assert any(rvqkit.io._compact_record(line) is not None for line in lines) is fast
        return outcome

    def test_written_files_take_the_byte_pass(self, tmp_path):
        rng = np.random.default_rng(108)
        streams = [
            TokenStream(frames=rng.integers(0, k, size=(n, layers)), token_rate_hz=75.0,
                        codebook_size=k, source_id=f"utt-{n}")
            for n, layers, k in ((1, 1, 1), (7, 3, 10), (40, 8, 1024), (3, 2, 999_999_999))
        ]
        path = tmp_path / "t.jsonl"
        write_token_streams(path, streams)
        lines = path.read_text().splitlines()
        assert all(rvqkit.io._compact_record(line) is not None for line in lines)
        loaded = read_token_streams(path)
        for a, b in zip(loaded, streams):
            assert a.frames.dtype == np.int32
            np.testing.assert_array_equal(a.frames, b.frames)
        assert _read_outcome(path) == _reference_outcome(path)

    @pytest.mark.parametrize("line, fast", [
        # Ids that hold the key, escaped quotes or non-ASCII text.
        (HEAD + '"codes":[[1,2]]}', True),
        ('{"id":"x\\"codes\\":[[7,7]]}","token_rate_hz":50.0,"layers":2,'
         '"codebook_size":10,"codes":[[1,2]]}', True),
        ('{"id":"say \\"hi\\"","token_rate_hz":50.0,"layers":2,"codebook_size":10,'
         '"codes":[[1,2],[3,4]]}', True),
        ('{"id":"\\u00e9\\u2603","token_rate_hz":50.0,"layers":1,"codebook_size":4,"codes":[[3]]}',
         True),
        ('{"id":"é☃","token_rate_hz":50.0,"layers":1,"codebook_size":4,"codes":[[3]]}', True),
        ('{"id":"é","token_rate_hz":50.0,"layers":1,"codebook_size":4,"codes":[[3é]]}', False),
        # The last `"codes":[` opens a key `a"codes`, not `codes`: the escaped
        # quote sends the line to json, which reads the earlier codes.
        (HEAD + '"codes":[[1,2]],"a\\"codes":[[5,6]]}', False),
        (HEAD + '"a\\"codes":[[5,6]]}', False),
        (HEAD + '"codes":[[1,2]],"a\\\\"codes":[[5,6]]}', False),
        # Duplicated keys: json keeps the last.
        (HEAD + '"codes":[[3,3]],"codes":[[1,2]]}', True),
        ('{"codes":[[3,3]],' + HEAD[1:] + '"codes":[[1,2]]}', True),
        (HEAD + '"codes":[[1,2]],"codes":[[3]]}', False),
        (HEAD + '"codes":[[1,2]],"codes":"x"}', False),
        (HEAD + '"codes":[[1,2]],"layers":1}', False),
        ('{"layers":3,' + HEAD[1:] + '"codes":[[1,2]]}', True),
        # Keys in another order.
        ('{"codes":[[1,2]],"layers":2,"codebook_size":4,"token_rate_hz":50.0,"id":"u"}', False),
        ('{"layers":2,"codes":[[1,2]],"codebook_size":4,"id":"u","token_rate_hz":50}', False),
        ('{"codebook_size":4,"token_rate_hz":50,"id":"u","layers":2,"codes":[[1,2]]}', True),
        # Codes that are not canonical decimal integers.
        (HEAD + '"codes":[[01,2]]}', False),
        (HEAD + '"codes":[[0,00]]}', False),
        (HEAD + '"codes":[[-0,2]]}', False),
        (HEAD + '"codes":[[1e2,2]]}', False),
        (HEAD + '"codes":[[1.0,2]]}', False),
        (HEAD + '"codes":[[1,1234567890]]}', False),
        (HEAD + '"codes":[[1,99999999999999999999999]]}', False),
        (HEAD + '"codes":[[0,999999999]]}', True),
        (HEAD + '"codes":[[1,2],[3,4]]}', True),
        # Whitespace, line ends and empty codes.
        (HEAD + '"codes":[[1, 2]]}', False),
        (HEAD + '"codes": [[1,2]]}', False),
        (HEAD + '"codes":[[1,2] ]}', False),
        (HEAD + '"codes":[[1,2]]} ', True),
        (HEAD + '"codes":[[1,2]]}\r\n' + HEAD + '"codes":[[3,4]]}\r\n', True),
        (HEAD + '"codes":[]}', False),
        (HEAD + '"codes":[[]]}', False),
        # Digits outside a frame's slots, with as many runs as slots or not,
        # and broken brackets.
        (HEAD + '"codes":[[1,]5]}', False),
        (HEAD + '"codes":[5[,2]]}', False),
        (HEAD + '"codes":[[1,2]3,[,4]]}', False),
        (HEAD + '"codes":[[1,2],3[4,]]}', False),
        (HEAD + '"codes":[5[1,2]]}', False),
        (HEAD + '"codes":[[1,2]5]}', False),
        (HEAD + '"codes":[[1,2]5,[3,4]]}', False),
        (HEAD + '"codes":[[1,2],5[3,4]]}', False),
        (HEAD + '"codes":[[1,2],[3,4]]]}', False),
        (HEAD + '"codes":[[1,2],[3,4]}', False),
        (HEAD + '"codes":[[1,2][3,4]]}', False),
        (HEAD + '"codes":[[1,,2]]}', False),
        (HEAD + '"codes":[[1,2,3]]}', False),
        # Far too short for its frames at the declared width: rejected
        # before anything of that width is built.
        ('{"id":"u","token_rate_hz":50.0,"layers":1000000000,"codebook_size":4,'
         '"codes":[[1],[2],[3]]}', False),
        # Bad heads and bad metadata behind a compact codes member.
        ('{"id":"u","token_rate_hz":50.0,"layers":2.0,"codebook_size":4,"codes":[[1,2]]}', False),
        ('{"id":"u","token_rate_hz":50.0,"layers":0,"codebook_size":4,"codes":[[1,2]]}', False),
        ('{"id":"u","token_rate_hz":50.0,"layers":true,"codebook_size":4,"codes":[[1,2]]}', False),
        ('{"id":"u","token_rate_hz":50.0,"codebook_size":4,"codes":[[1,2]]}', False),
        ('{"id":7,"token_rate_hz":50.0,"layers":2,"codebook_size":4,"codes":[[1,2]]}', True),
        ('{"id":"u","token_rate_hz":0,"layers":2,"codebook_size":4,"codes":[[1,2]]}', True),
        ('{"id":"u","token_rate_hz":50,"layers":2,"codebook_size":4,"codes":[[1,4]]}', True),
        ('{"id":"u","token_rate_hz":50,"layers":2,"codebook_size":0,"codes":[[1,2]]}', True),
        ('{"id":"u","token_rate_hz":50,"layers":2,"codebook_size":4,"codes":[[1,2]]}}', False),
        ('{"id":"u","token_rate_hz":50,"layers":2,"codebook_size":4,"x":{"codes":[[1,2]]}', False),
        ('["codes":[[1,2]]}', False),
        ('"codes":[[1,2]]}', False),
    ])
    def test_line_matches_reference(self, tmp_path, line, fast):
        self.check(tmp_path, line + "\n", fast)

    def test_escaped_key_keeps_the_real_codes(self, tmp_path):
        [stream] = self.check(tmp_path, HEAD + '"codes":[[1,2]],"a\\"codes":[[5,6]]}\n', False)
        assert np.frombuffer(stream[2], dtype=np.int32).tolist() == [1, 2]

    def test_mutations_match_reference(self, tmp_path):
        """Compact records with one or two characters replaced, inserted or
        deleted, half of them inside the codes text."""
        rng = np.random.default_rng(109)
        alphabet = '0123456789[],-. e"tf{}:\\'
        ids = ["u", 'a"codes":[[1]]', "say \"hi\"", "é☃", "true false", ""]
        path = tmp_path / "t.jsonl"
        fast = 0
        for case in range(1500):
            layers = int(rng.integers(1, 4))
            k = int(rng.choice([1, 10, 1024, 10**9]))
            codes = rng.integers(0, k, size=(int(rng.integers(1, 4)), layers)).tolist()
            record = {"id": ids[case % len(ids)], "token_rate_hz": 50.0, "layers": layers,
                      "codebook_size": k, "codes": codes}
            line = json.dumps(record, separators=(",", ":"), ensure_ascii=bool(case % 2))
            split = line.rfind('"codes":[')
            for _ in range(int(rng.integers(1, 3))):
                low = split if rng.random() < 0.5 else 0
                pos = int(rng.integers(low, len(line) + 1))
                char = alphabet[int(rng.integers(len(alphabet)))]
                op = int(rng.integers(3))
                if op == 0 and pos < len(line):
                    line = line[:pos] + char + line[pos + 1:]
                elif op == 1:
                    line = line[:pos] + char + line[pos:]
                else:
                    line = line[:pos] + line[pos + 1:]
            path.write_bytes((line + "\n").encode("utf-8"))
            assert _read_outcome(path) == _reference_outcome(path), line
            fast += rvqkit.io._compact_record(line.strip()) is not None
        assert 100 < fast < 1400


def _long_line(frames, seed):
    """A one-line compact record of `frames` random 8-layer frames at K=1024,
    and its codes."""
    codes = np.random.default_rng(seed).integers(0, 1024, size=(frames, 8))
    stream = TokenStream(frames=codes, token_rate_hz=75.0, codebook_size=1024, source_id="long")
    return rvqkit.io._stream_record(stream), codes


class TestLongLines:
    """Codes text longer than one parse block: cut between frames, read in
    bounded memory, and equal to the `json` path in frames and errors."""

    LINE, CODES = _long_line(8192, 113)

    @classmethod
    def cuts(cls):
        """Where the blocks of the codes text meet: the index in the line of
        each `],[` whose comma two blocks share."""
        value = cls.LINE.rfind('"codes":[') + len('"codes":')
        spans = list(rvqkit.io._frame_blocks(cls.LINE, value, len(cls.LINE) - 1))
        return [start - 1 for start, _ in spans[1:]]

    def test_valid_line_is_read_in_blocks(self, tmp_path):
        assert len(self.cuts()) >= 3
        assert rvqkit.io._compact_record(self.LINE) is not None
        path = tmp_path / "t.jsonl"
        path.write_text(self.LINE + "\n")
        outcome = _read_outcome(path)
        assert outcome == _reference_outcome(path)
        np.testing.assert_array_equal(read_token_streams(path)[0].frames, self.CODES)

    @pytest.mark.parametrize("where", ["last-cut", "last-frame"])
    @pytest.mark.parametrize("fault", [
        "leading-zero", "digit-after-bracket", "ten-digits", "short-frame", "non-ascii",
    ])
    def test_fault_late_in_the_line_matches_reference(self, tmp_path, where, fault):
        line = self.LINE
        # `],[` at p: the codes of the frame it opens start at p + 3.
        p = self.cuts()[-1] if where == "last-cut" else line.rfind("],[")
        code = p + 3
        comma = line.index(",", code)
        line = {
            "leading-zero": line[:code] + "0" + line[code:],
            "digit-after-bracket": line[:p + 1] + "5" + line[p + 1:],
            "ten-digits": line[:code] + "1234567890" + line[comma:],
            "short-frame": line[:code] + line[comma + 1:],
            "non-ascii": line[:code] + "é" + line[code:],
        }[fault]
        assert rvqkit.io._compact_record(line) is None
        path = tmp_path / "t.jsonl"
        path.write_bytes((line + "\n").encode("utf-8"))
        outcome = _read_outcome(path)
        assert outcome[0] == "FormatError"
        assert outcome == _reference_outcome(path)

    def test_long_line_reads_in_bounded_memory(self, tmp_path):
        """A 65,536-frame, 8-layer, K=1024 line, 2.2 MB: the whole-line pass
        peaked at 34.1 MiB in int64 temporaries that grow with the line, and
        the block pass at 10.3 MiB while it sliced the codes text out of the
        line; without that copy it peaks at 8.3 MiB."""
        line, codes = _long_line(65536, 114)
        path = tmp_path / "t.jsonl"
        path.write_text(line + "\n")
        read_token_streams(path)
        tracemalloc.start()
        try:
            [stream] = read_token_streams(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20
        np.testing.assert_array_equal(stream.frames, codes)


class TestAtomicity:
    @pytest.mark.parametrize("write", [
        lambda path: write_vectors(path, np.ones((300, 7))),
        lambda path: save_quantizer(path, projected_quantizer(np.random.default_rng(103))),
        lambda path: write_token_streams(path, [
            TokenStream(frames=np.zeros((n, 2), dtype=np.int32), token_rate_hz=50.0,
                        codebook_size=4, source_id=str(n)) for n in (3, 0, 5)]),
    ], ids=["vectors", "codebook", "tokens"])
    def test_failed_rename_keeps_target_and_removes_temp(self, tmp_path, monkeypatch, write):
        path = tmp_path / "target"
        path.write_bytes(b"old contents")

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            write(path)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]
        assert path.read_bytes() == b"old contents"

    def test_overwrite_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "v.rvqv"
        write_vectors(path, np.zeros((2, 2)))
        write_vectors(path, np.ones((2, 2)))
        leftovers = [p for p in tmp_path.iterdir() if p.name != "v.rvqv"]
        assert leftovers == []
        np.testing.assert_array_equal(read_vectors(path), np.ones((2, 2), dtype=np.float32))
