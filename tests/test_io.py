"""File formats: headers, exact round-trips, corruption handling."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def plain_quantizer(rng, layers=2, k=8, dim=4):
    return RvqQuantizer(
        layers=[Codebook.from_entries(rng.normal(size=(k, dim)).astype(np.float32)) for _ in range(layers)],
        latent_dim=dim,
    )


def projected_quantizer(rng, layers=2, k=8, d=6, q=3):
    pairs = [
        ProjectionPair(
            proj_in=rng.normal(size=(d, q)).astype(np.float32),
            proj_out=rng.normal(size=(q, d)).astype(np.float32),
        )
        for _ in range(layers)
    ]
    return RvqQuantizer(
        layers=[
            Codebook.from_entries(rng.normal(size=(k, q)).astype(np.float32), metric="cosine")
            for _ in range(layers)
        ],
        latent_dim=d,
        scheme="projected",
        projections=pairs,
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


class TestTokenStreamFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(106)
        streams = [
            TokenStream(
                frames=rng.integers(0, 16, size=(n, 3)).astype(np.int32),
                token_rate_hz=50.0,
                layers=3,
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
)
def test_token_reader_rejects_or_keeps_any_field_value(tmp_path_factory, field, value, where):
    """One field of a valid record replaced by any JSON value: the reader
    raises FormatError or returns exactly what the record says."""
    record = json.loads(json.dumps(VALID_RECORD))
    if field == "one code":
        record["codes"][where[0]][where[1]] = value
    else:
        record[field] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_text(json.dumps(record) + "\n")
    try:
        [stream] = read_token_streams(path)
    except FormatError:
        return
    assert stream.frames.dtype == np.int32
    assert stream.frames.shape == (len(record["codes"]), record["layers"])
    assert stream.frames.tolist() == record["codes"]
    assert stream.source_id == record["id"]
    assert stream.token_rate_hz == record["token_rate_hz"]
    assert (stream.layers, stream.codebook_size) == (record["layers"], record["codebook_size"])


class TestAtomicity:
    def test_overwrite_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "v.rvqv"
        write_vectors(path, np.zeros((2, 2)))
        write_vectors(path, np.ones((2, 2)))
        leftovers = [p for p in tmp_path.iterdir() if p.name != "v.rvqv"]
        assert leftovers == []
        np.testing.assert_array_equal(read_vectors(path), np.ones((2, 2), dtype=np.float32))
