"""CLI surface: command behavior, exit codes, determinism of files and stdout."""

import contextlib
import io
import os
import re
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rvqkit
from rvqkit import (
    Codebook,
    CorpusSpec,
    ProjectionPair,
    RvqQuantizer,
    TokenStream,
    make_corpus,
    read_token_streams,
    read_vectors,
    save_quantizer,
    write_token_streams,
    write_vectors,
)
from rvqkit.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"

# Out-of-range values, among 0, -1, nan and inf, for each kind of numeric flag
# (and --cfg), with decay's open upper bound.
INT_1 = ("0", "-1", "nan", "inf")
INT_0 = ("-1", "nan", "inf")
POSITIVE = ("0", "-1", "nan", "inf")
NON_NEGATIVE = ("-1", "nan", "inf")
FINITE = ("nan", "inf")
DECAY = ("-1", "nan", "inf", "1")
CFG = ("0", "-1", "nan:1", "1:inf", "1:2:3", "nope")
SIM_FLAGS = {
    "--layers": INT_1, "--codebook-size": INT_1, "--temperature": POSITIVE, "--seed": INT_0,
    "--prompt-frames": INT_0, "--token-rate": POSITIVE, "--margin": FINITE,
}
NUMERIC_FLAGS = {
    "train": {
        "--layers": INT_1, "--codebook-size": INT_1, "--latent-dim": INT_1, "--quant-dim": INT_1,
        "--decay": DECAY, "--learning-rate": POSITIVE, "--commitment-weight": NON_NEGATIVE,
        "--codebook-weight": NON_NEGATIVE, "--restart-period": INT_1, "--steps": INT_1,
        "--batch-size": INT_1, "--seed": INT_0,
    },
    "encode": {"--token-rate": POSITIVE, "--threads": INT_1},
    "analyze": {"--layer": INT_1},
    "mlm-sim": {
        **SIM_FLAGS, "--frames": INT_1, "--iterations": INT_1, "--cfg": CFG, "--noise-seed": INT_0,
    },
    "arnar-sim": {
        # The NAR stage needs a second layer, so one layer is out of range too.
        **SIM_FLAGS, "--layers": ("1", *INT_1), "--max-frames": INT_1, "--ngram-order": INT_1,
        "--ngram-smoothing": POSITIVE,
    },
}
# Otherwise complete command lines, every input file missing.
BASE_ARGV = {
    "train": ["--corpus", "{missing}", "--out", "{out}"],
    "encode": ["--codebook", "{missing}", "--input", "{missing}", "--out", "{out}"],
    "analyze": ["--tokens", "{missing}"],
    "mlm-sim": ["--out", "{out}"],
    "arnar-sim": ["--ar", "ngram", "--train-tokens", "{missing}", "--out", "{out}"],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_stats(out):
    stats = {}
    for line in out.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            stats[key] = value
    return stats


@pytest.fixture
def corpus_file(tmp_path):
    corpus = make_corpus(CorpusSpec(num_components=6, dims=8, separation=5.0, count=300, seed=5))
    path = tmp_path / "corpus.rvqv"
    write_vectors(path, corpus)
    return path


@pytest.fixture
def trained_codebook(tmp_path, corpus_file, capsys):
    out = tmp_path / "cb.rvqc"
    code = main(
        [
            "train", "--corpus", str(corpus_file), "--scheme", "ema", "--layers", "2",
            "--codebook-size", "16", "--latent-dim", "8", "--steps", "60",
            "--batch-size", "32", "--seed", "7", "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    return out


class TestTrain:
    def test_synth_training_reports(self, tmp_path, capsys):
        out = tmp_path / "cb.rvqc"
        code, stdout, _ = run(
            capsys,
            "train", "--synth", "modes=4,count=256", "--scheme", "ema", "--layers", "1",
            "--codebook-size", "8", "--latent-dim", "16", "--steps", "40",
            "--batch-size", "32", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        stats = parse_stats(stdout)
        assert stats["scheme"] == "ema"
        assert "final_mse" in stats and "layer_1_utilization" in stats
        assert out.exists()

    def test_projected_header_fields(self, tmp_path, capsys):
        out = tmp_path / "cb.rvqc"
        code, stdout, _ = run(
            capsys,
            "train", "--synth", "modes=8,count=600", "--scheme", "projected", "--layers", "2",
            "--codebook-size", "32", "--latent-dim", "16", "--quant-dim", "4",
            "--steps", "50", "--batch-size", "32", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        raw = out.read_bytes()
        assert raw[8] == 1  # projected scheme tag
        assert int.from_bytes(raw[10:14], "little") == 2
        assert int.from_bytes(raw[14:18], "little") == 32
        assert int.from_bytes(raw[18:22], "little") == 16
        assert int.from_bytes(raw[22:26], "little") == 4

    def test_projected_full_size_header(self, tmp_path, capsys):
        # The 8-layer, 1024-code, 64-to-8-dimensional configuration.
        out = tmp_path / "cb.rvqc"
        code, _, _ = run(
            capsys,
            "train", "--synth", "modes=64,count=2100", "--scheme", "projected",
            "--layers", "8", "--codebook-size", "1024", "--latent-dim", "64",
            "--quant-dim", "8", "--steps", "1", "--batch-size", "64", "--seed", "2",
            "--out", str(out),
        )
        assert code == 0
        raw = out.read_bytes()
        assert raw[8] == 1
        assert int.from_bytes(raw[10:14], "little") == 8  # layers
        assert int.from_bytes(raw[14:18], "little") == 1024  # K
        assert int.from_bytes(raw[18:22], "little") == 64  # d
        assert int.from_bytes(raw[22:26], "little") == 8  # q

    def test_quant_dim_with_ema_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "train", "--synth", "modes=2,count=64", "--scheme", "ema", "--quant-dim", "2",
            "--codebook-size", "4", "--latent-dim", "4", "--steps", "5",
            "--out", str(tmp_path / "x.rvqc"),
        )
        assert code == 2
        assert "--quant-dim" in err

    def test_projected_requires_quant_dim(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "train", "--synth", "modes=2,count=64", "--scheme", "projected",
            "--codebook-size", "4", "--latent-dim", "4", "--steps", "5",
            "--out", str(tmp_path / "x.rvqc"),
        )
        assert code == 2
        assert "--quant-dim" in err

    def test_corpus_and_synth_mutually_exclusive(self, tmp_path, corpus_file, capsys):
        code, _, _ = run(
            capsys,
            "train", "--corpus", str(corpus_file), "--synth", "modes=2,count=64",
            "--out", str(tmp_path / "x.rvqc"),
        )
        assert code == 2

    def test_corpus_or_synth_required(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--out", str(tmp_path / "x.rvqc"))
        assert code == 2
        assert "--corpus" in err and "--synth" in err
        assert not (tmp_path / "x.rvqc").exists()

    def test_byte_identical_across_runs(self, tmp_path, corpus_file, capsys):
        outputs = []
        stdouts = []
        for name in ("a.rvqc", "b.rvqc"):
            out = tmp_path / name
            code, stdout, _ = run(
                capsys,
                "train", "--corpus", str(corpus_file), "--scheme", "ema-restart",
                "--layers", "1", "--codebook-size", "8", "--latent-dim", "8",
                "--steps", "30", "--batch-size", "16", "--seed", "9", "--out", str(out),
            )
            assert code == 0
            outputs.append(out.read_bytes())
            stdouts.append(stdout.replace(name, "OUT"))
        assert outputs[0] == outputs[1]
        assert stdouts[0] == stdouts[1]


class TestEncodeDecode:
    def test_encode_records_token_rate(self, tmp_path, corpus_file, trained_codebook, capsys):
        tokens = tmp_path / "t.jsonl"
        code, stdout, _ = run(
            capsys,
            "encode", "--codebook", str(trained_codebook), "--input", str(corpus_file),
            "--token-rate", "50", "--out", str(tokens),
        )
        assert code == 0
        streams = read_token_streams(tokens)
        assert len(streams) == 1
        assert streams[0].token_rate_hz == 50.0
        assert parse_stats(stdout)["token_rate_hz"] == "50.0"

    def test_round_trip_mse_close_to_training(self, tmp_path, corpus_file, trained_codebook, capsys):
        tokens = tmp_path / "t.jsonl"
        recon_path = tmp_path / "recon.rvqv"
        _, train_out, _ = run(
            capsys,
            "train", "--corpus", str(corpus_file), "--scheme", "ema", "--layers", "2",
            "--codebook-size", "16", "--latent-dim", "8", "--steps", "60",
            "--batch-size", "32", "--seed", "7", "--out", str(trained_codebook),
        )
        final_mse = float(parse_stats(train_out)["final_mse"])
        run(capsys, "encode", "--codebook", str(trained_codebook), "--input", str(corpus_file),
            "--out", str(tokens))
        code, _, _ = run(
            capsys,
            "decode", "--codebook", str(trained_codebook), "--tokens", str(tokens),
            "--out", str(recon_path),
        )
        assert code == 0
        original = read_vectors(corpus_file).astype(np.float64)
        recon = read_vectors(recon_path).astype(np.float64)
        mse = ((original - recon) ** 2).sum(axis=1).mean()
        assert mse <= final_mse * 1.1 + 1e-9

    def test_empty_input_gives_empty_stream(self, tmp_path, trained_codebook, capsys):
        empty = tmp_path / "empty.rvqv"
        write_vectors(empty, np.empty((0, 8)))
        tokens = tmp_path / "t.jsonl"
        code, stdout, _ = run(
            capsys,
            "encode", "--codebook", str(trained_codebook), "--input", str(empty),
            "--out", str(tokens),
        )
        assert code == 0
        streams = read_token_streams(tokens)
        assert streams[0].num_frames == 0

    def test_dimension_mismatch_names_both(self, tmp_path, trained_codebook, capsys):
        wrong = tmp_path / "wrong.rvqv"
        for count in (4, 0):  # an empty file has a dimension too
            write_vectors(wrong, np.zeros((count, 5)))
            code, _, err = run(
                capsys,
                "encode", "--codebook", str(trained_codebook), "--input", str(wrong),
                "--out", str(tmp_path / "t.jsonl"),
            )
            assert code == 3
            assert "5" in err and "8" in err

    def test_projected_codebook_round_trip(self, tmp_path, corpus_file, capsys):
        cb = tmp_path / "proj.rvqc"
        code, _, _ = run(
            capsys,
            "train", "--corpus", str(corpus_file), "--scheme", "projected", "--layers", "2",
            "--codebook-size", "16", "--latent-dim", "8", "--quant-dim", "3",
            "--steps", "400", "--batch-size", "32", "--learning-rate", "0.01",
            "--seed", "8", "--out", str(cb),
        )
        assert code == 0
        tokens = tmp_path / "t.jsonl"
        recon = tmp_path / "r.rvqv"
        assert run(capsys, "encode", "--codebook", str(cb), "--input", str(corpus_file),
                   "--out", str(tokens))[0] == 0
        assert run(capsys, "decode", "--codebook", str(cb), "--tokens", str(tokens),
                   "--out", str(recon))[0] == 0
        original = read_vectors(corpus_file).astype(np.float64)
        rebuilt = read_vectors(recon).astype(np.float64)
        assert rebuilt.shape == original.shape
        # Lossy through the 3-dim bottleneck, but far better than predicting zero.
        rel = ((original - rebuilt) ** 2).sum() / (original**2).sum()
        assert rel < 0.6

    @pytest.mark.parametrize(
        "train_args",
        [
            # k-means over the init sample leaves zero entries in layer 2.
            ["--synth", "modes=512,count=3072", "--scheme", "projected", "--codebook-size",
             "1024", "--latent-dim", "64", "--quant-dim", "8", "--steps", "100",
             "--batch-size", "256", "--seed", "0"],
            # The last restart copies corpus rows into layer 1, so their
            # layer-2 residual is exactly 0.
            *(
                ["--corpus", "{corpus}", "--scheme", "ema-restart", "--metric", "cosine",
                 "--init", init, "--codebook-size", "512", "--latent-dim", "16", "--steps", "20",
                 "--batch-size", "64", "--restart-period", "20", "--seed", "9"]
                for init in ("kmeans", "random")
            ),
        ],
    )
    def test_cosine_codebook_encodes_zero_vectors(self, tmp_path, capsys, train_args):
        # A zero vector has cosine 0 with every vector, in training and in
        # encoding alike, so what trains also encodes.
        corpus = tmp_path / "c.rvqv"
        write_vectors(corpus, make_corpus(CorpusSpec(num_components=12, dims=16, separation=5,
                                                     count=1500, seed=3)))
        held_out = tmp_path / "h.rvqv"
        write_vectors(held_out, make_corpus(CorpusSpec(dims=64, count=200, seed=1)))
        cb = tmp_path / "cb.rvqc"
        argv = [arg.format(corpus=corpus) for arg in train_args]
        code, _, err = run(capsys, "train", *argv, "--layers", "2", "--out", str(cb))
        assert code == 0, err
        quantizer = rvqkit.load_quantizer(cb)
        vectors = corpus if quantizer.latent_dim == 16 else held_out
        if quantizer.scheme == "projected":
            assert not quantizer.layers[1].entries.any(axis=1).all()
        else:
            rows = read_vectors(corpus).astype(np.float64)
            entries = quantizer.layers[0].entries
            assert (rows[:, None, :] == entries[None, :, :]).all(axis=2).any()
        tokens = tmp_path / "t.jsonl"
        code, _, err = run(capsys, "encode", "--codebook", str(cb), "--input", str(vectors),
                           "--out", str(tokens))
        assert code == 0, err
        assert "Traceback" not in err
        assert read_token_streams(tokens)[0].num_frames == len(read_vectors(vectors))

    def test_threads_do_not_change_output(self, tmp_path, trained_codebook, capsys):
        rng = np.random.default_rng(6)
        big = tmp_path / "big.rvqv"
        write_vectors(big, rng.normal(size=(2500, 8)))
        outs = []
        for threads, name in (("1", "t1.jsonl"), ("4", "t4.jsonl")):
            path = tmp_path / name
            code, _, _ = run(
                capsys,
                "encode", "--codebook", str(trained_codebook), "--input", str(big),
                "--threads", threads, "--out", str(path),
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


# Empty streams first, in the middle and last, among streams of 1, 700 and
# 2,049 frames.
MULTI_STREAM_FRAMES = (0, 700, 0, 1, 2049, 0)


def _multi_stream_quantizer(scheme):
    rng = np.random.default_rng(2049)
    if scheme == "plain":
        return RvqQuantizer(
            layers=[Codebook.from_entries(rng.normal(size=(64, 8)) / (n + 1)) for n in range(3)],
            latent_dim=8,
        )
    pair = ProjectionPair(rng.normal(size=(8, 4)) / 4, rng.normal(size=(4, 8)) / 2)
    return RvqQuantizer(
        layers=[Codebook.from_entries(rng.normal(size=(64, 4)), metric="cosine")
                for _ in range(3)],
        latent_dim=8,
        scheme="projected",
        projections=[pair] * 3,
    )


def _streams(frames_per_stream, layers, k, rng):
    return [
        TokenStream(frames=rng.integers(0, k, size=(n, layers)).astype(np.int32),
                    token_rate_hz=50.0, codebook_size=k, source_id=f"s{i}")
        for i, n in enumerate(frames_per_stream)
    ]


class TestMultiStreamDecode:
    @pytest.mark.parametrize("scheme", ["plain", "projected"])
    def test_output_matches_per_stream_decode(self, tmp_path, capsys, scheme):
        book = tmp_path / "cb.rvqc"
        save_quantizer(book, _multi_stream_quantizer(scheme))
        quantizer = rvqkit.load_quantizer(book)
        streams = _streams(MULTI_STREAM_FRAMES, 3, 64, np.random.default_rng(7))
        tokens, out = tmp_path / "t.jsonl", tmp_path / "r.rvqv"
        write_token_streams(tokens, streams)
        code, stdout, _ = run(capsys, "decode", "--codebook", str(book), "--tokens", str(tokens),
                              "--out", str(out))
        assert code == 0
        total = sum(MULTI_STREAM_FRAMES)
        assert parse_stats(stdout)["frames"] == str(total)
        decoded = np.concatenate([rvqkit.rvq_decode_batch(s.frames, quantizer)
                                  for s in streams if s.num_frames])
        header = struct.pack("<4sIQI", b"RVQV", 1, total, 8)
        assert out.read_bytes() == header + decoded.astype("<f4").tobytes()

    @staticmethod
    def _overflow_book(tmp_path):
        # Code 1 in both layers sums past float32's range; code 0 does not.
        entries = np.zeros((2, 3))
        entries[1] = 3e38
        book = tmp_path / "big.rvqc"
        layer = Codebook.from_entries(entries)
        save_quantizer(book, RvqQuantizer(layers=[layer, layer], latent_dim=3))
        return book

    def _decode_keeps_old_out(self, tmp_path, capsys, book, streams):
        tokens, out = tmp_path / "t.jsonl", tmp_path / "r.rvqv"
        write_token_streams(tokens, streams)
        out.write_bytes(b"old output")
        code, stdout, err = run(capsys, "decode", "--codebook", str(book),
                                "--tokens", str(tokens), "--out", str(out))
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert out.read_bytes() == b"old output"
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".rvqkit-")] == []
        return code, err

    def test_overflow_in_a_middle_stream_is_exit_4(self, tmp_path, capsys):
        book = self._overflow_book(tmp_path)
        frames = [np.zeros((5, 2)), np.array([[0, 0], [1, 1], [0, 1]]), np.zeros((0, 2)),
                  np.zeros((4, 2))]
        streams = [TokenStream(frames=f.astype(np.int32), token_rate_hz=50.0, codebook_size=2,
                               source_id=f"s{i}") for i, f in enumerate(frames)]
        code, err = self._decode_keeps_old_out(tmp_path, capsys, book, streams)
        assert code == 4 and "float32" in err

    @pytest.mark.parametrize("layers, k", [(3, 2), (2, 4)])
    def test_later_mismatch_is_exit_3_before_an_overflow(self, tmp_path, capsys, layers, k):
        book = self._overflow_book(tmp_path)
        overflow = TokenStream(frames=np.ones((2, 2), dtype=np.int32), token_rate_hz=50.0,
                               codebook_size=2, source_id="overflow")
        streams = _streams((0, 3), 2, 2, np.random.default_rng(1))
        streams += [overflow] + _streams((4,), layers, k, np.random.default_rng(2))
        code, err = self._decode_keeps_old_out(tmp_path, capsys, book, streams)
        assert code == 3
        assert ("layers" if layers != 2 else "codebook_size") in err


class TestAnalyze:
    def test_concatenation_matches_sum(self, tmp_path, corpus_file, trained_codebook, capsys):
        t1 = tmp_path / "t1.jsonl"
        t2 = tmp_path / "t2.jsonl"
        half = tmp_path / "half.rvqv"
        vectors = read_vectors(corpus_file)
        write_vectors(half, vectors[:150])
        run(capsys, "encode", "--codebook", str(trained_codebook), "--input", str(corpus_file),
            "--out", str(t1))
        run(capsys, "encode", "--codebook", str(trained_codebook), "--input", str(half),
            "--out", str(t2))
        code, merged_out, _ = run(capsys, "analyze", "--tokens", str(t1), str(t2), "--layer", "1")
        assert code == 0
        merged = parse_stats(merged_out)
        assert int(merged["total_frames"]) == 450

    def test_single_code_entropy_zero(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"id":"x","token_rate_hz":50.0,"layers":1,"codebook_size":8,"codes":[[3],[3],[3]]}\n'
        )
        code, stdout, _ = run(capsys, "analyze", "--tokens", str(path))
        assert code == 0
        stats = parse_stats(stdout)
        assert float(stats["entropy_bits"]) == 0.0
        assert stats["used_codes"] == "1"

    def test_mixed_codebook_sizes_exit_3(self, tmp_path, capsys):
        path1 = tmp_path / "a.jsonl"
        path2 = tmp_path / "b.jsonl"
        path1.write_text('{"id":"a","token_rate_hz":50.0,"layers":1,"codebook_size":8,"codes":[[1]]}\n')
        path2.write_text('{"id":"b","token_rate_hz":50.0,"layers":1,"codebook_size":16,"codes":[[1]]}\n')
        code, _, err = run(capsys, "analyze", "--tokens", str(path1), str(path2))
        assert code == 3
        assert "codebook" in err

    def test_850_of_1024_codes(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        codes = np.concatenate([np.arange(850), rng.integers(0, 850, size=4000)])
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"id":"x","token_rate_hz":50.0,"layers":1,"codebook_size":1024,"codes":'
            + str(codes.reshape(-1, 1).tolist()).replace(" ", "")
            + "}\n"
        )
        code, stdout, _ = run(capsys, "analyze", "--tokens", str(path), "--layer", "1")
        assert code == 0
        stats = parse_stats(stdout)
        assert stats["used_codes"] == "850"
        assert float(stats["utilization_fraction"]) == pytest.approx(850 / 1024)

    def test_json_lines_format(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"id":"x","token_rate_hz":50.0,"layers":1,"codebook_size":4,"codes":[[0],[1],[1]]}\n'
        )
        code, stdout, _ = run(capsys, "analyze", "--tokens", str(path), "--format", "json-lines")
        assert code == 0
        lines = stdout.strip().splitlines()
        summary = json.loads(lines[0])
        assert summary["used_codes"] == 2
        ranks = [json.loads(line) for line in lines[1:]]
        assert ranks[0] == {"rank": 1, "count": 2}


class TestMlmSim:
    def test_default_forward_passes(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        code, stdout, _ = run(
            capsys, "mlm-sim", "--model", "oracle", "--frames", "24", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        assert parse_stats(stdout)["forward_passes"] == "12"

    def test_oracle_output_matches_truth_dump(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        truth = tmp_path / "truth.jsonl"
        code, _, _ = run(
            capsys, "mlm-sim", "--model", "oracle", "--frames", "30", "--layers", "4",
            "--codebook-size", "32", "--seed", "11", "--out", str(out),
            "--truth-out", str(truth),
        )
        assert code == 0
        gen = read_token_streams(out)[0]
        ref = read_token_streams(truth)[0]
        np.testing.assert_array_equal(gen.frames, ref.frames)

    def test_prompt_longer_than_frames_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "mlm-sim", "--frames", "10", "--prompt-frames", "10",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2
        assert "--prompt-frames" in err

    def test_zero_guidance_matches_disabled_branch(self, tmp_path, capsys):
        outs = []
        for name, cfg in (("a.jsonl", "0:0"), ("b.jsonl", "0:0")):
            path = tmp_path / name
            code, _, _ = run(
                capsys, "mlm-sim", "--model", "uniform", "--frames", "16", "--layers", "2",
                "--codebook-size", "8", "--cfg", cfg, "--seed", "21", "--out", str(path),
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            code, _, _ = run(
                capsys, "mlm-sim", "--model", "uniform", "--frames", "20", "--seed", "17",
                "--out", str(path),
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestArnarSim:
    def test_cycling_trace(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        code, stdout, _ = run(
            capsys, "arnar-sim", "--ar", "cycling", "--temperature", "0.0001",
            "--max-frames", "6", "--layers", "2", "--codebook-size", "16",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        stream = read_token_streams(out)[0]
        assert stream.frames[:, 0].tolist() == [0, 1, 2, 3, 4, 5]
        assert parse_stats(stdout)["nar_passes"] == "1"

    def test_temperature_presets_accepted(self, tmp_path, capsys):
        for i, temp in enumerate(("1.0", "0.9", "0.8")):
            out = tmp_path / f"gen{i}.jsonl"
            code, stdout, _ = run(
                capsys, "arnar-sim", "--ar", "oracle", "--temperature", temp,
                "--max-frames", "8", "--layers", "2", "--codebook-size", "8",
                "--seed", "1", "--out", str(out),
            )
            assert code == 0
            assert parse_stats(stdout)["temperature"] == repr(float(temp))

    def test_oracle_recovers_truth(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        code, stdout, _ = run(
            capsys, "arnar-sim", "--ar", "oracle", "--temperature", "0.001",
            "--max-frames", "12", "--layers", "3", "--codebook-size", "16",
            "--seed", "5", "--out", str(out),
        )
        assert code == 0
        stream = read_token_streams(out)[0]
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 16, size=(12, 3), dtype=np.int32)
        np.testing.assert_array_equal(stream.frames, truth)

    def test_ngram_requires_training_tokens(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "arnar-sim", "--ar", "ngram", "--out", str(tmp_path / "x.jsonl")
        )
        assert code == 2
        assert "--train-tokens" in err

    def test_ngram_with_support_reports_rate(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        rng = np.random.default_rng(8)
        codes = rng.integers(0, 10, size=(300, 1)).tolist()
        train.write_text(
            '{"id":"t","token_rate_hz":50.0,"layers":1,"codebook_size":32,"codes":'
            + str(codes).replace(" ", "")
            + "}\n"
        )
        out = tmp_path / "gen.jsonl"
        code, stdout, _ = run(
            capsys, "arnar-sim", "--ar", "ngram", "--train-tokens", str(train),
            "--support", str(train), "--max-frames", "50", "--layers", "2",
            "--codebook-size", "32", "--seed", "6", "--out", str(out),
        )
        assert code == 0
        stats = parse_stats(stdout)
        assert "out_of_support_rate" in stats
        assert 0.0 <= float(stats["out_of_support_rate"]) <= 1.0

    def test_ngram_order_past_training_length_is_deterministic(self, tmp_path, capsys):
        frames = 300
        train = tmp_path / "train.jsonl"
        codes = np.random.default_rng(11).integers(0, 4, size=(frames, 1))
        write_token_streams(str(train), [TokenStream(
            frames=codes, token_rate_hz=50.0, codebook_size=4, source_id="t",
        )])
        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code, stdout, _ = run(
                capsys, "arnar-sim", "--ar", "ngram", "--train-tokens", str(train),
                "--ngram-order", str(frames + 1), "--max-frames", "40", "--layers", "2",
                "--codebook-size", "4", "--seed", "3", "--out", str(out),
            )
            assert code == 0
            outputs.append((out.read_bytes(), stdout.replace(name, "OUT")))
        assert outputs[0] == outputs[1]

    def test_ngram_with_empty_support_file_is_all_outside(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        write_token_streams(str(train), [TokenStream(
            frames=np.arange(40).reshape(40, 1) % 8, token_rate_hz=50.0, codebook_size=8,
            source_id="t",
        )])
        support = tmp_path / "empty.jsonl"
        support.write_text("")
        code, stdout, _ = run(
            capsys, "arnar-sim", "--ar", "ngram", "--train-tokens", str(train),
            "--support", str(support), "--max-frames", "20", "--layers", "2",
            "--codebook-size", "8", "--seed", "6", "--out", str(tmp_path / "gen.jsonl"),
        )
        assert code == 0
        assert parse_stats(stdout)["out_of_support_rate"] == "1.0"


class TestExitCodes:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_failure_is_exit_4(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "train", "--synth", "modes=4,count=128", "--scheme", "projected",
            "--layers", "1", "--codebook-size", "16", "--latent-dim", "8",
            "--quant-dim", "4", "--steps", "200", "--batch-size", "32",
            "--learning-rate", "1e9", "--seed", "1", "--out", str(tmp_path / "x.rvqc"),
        )
        assert code == 4
        assert "non-finite" in err

    # A huge codebook weight blows up the entries, a huge commitment weight the
    # input projection; either update must be caught before the next lookup.
    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("weight", ["--codebook-weight", "--commitment-weight"])
    def test_diverging_parameter_update_is_exit_4(self, tmp_path, capsys, weight):
        out = tmp_path / "x.rvqc"
        code, _, err = run(
            capsys,
            "train", "--synth", "modes=4,count=256", "--scheme", "projected",
            "--latent-dim", "16", "--quant-dim", "4", "--codebook-size", "16",
            "--steps", "20", weight, "1e300", "--learning-rate", "1e10", "--out", str(out),
        )
        assert code == 4, err
        assert "parameters became non-finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "encode", "--codebook", str(tmp_path / "none.rvqc"),
            "--input", str(tmp_path / "none.rvqv"), "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 3

    def test_non_finite_vectors_are_data_error(self, tmp_path, trained_codebook, capsys):
        vectors = np.zeros((5, 8))
        vectors[3, 2] = np.nan
        bad = tmp_path / "nan.rvqv"
        write_vectors(bad, vectors)
        out = tmp_path / "t.jsonl"
        code, _, err = run(
            capsys, "encode", "--codebook", str(trained_codebook), "--input", str(bad),
            "--out", str(out),
        )
        assert code == 3
        assert "finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_decode_past_float32_range_is_exit_4(self, tmp_path, capsys):
        # Each entry fits float32; the sum of two does not.
        layer = Codebook.from_entries(np.full((2, 3), 3e38))
        book = tmp_path / "big.rvqc"
        save_quantizer(book, RvqQuantizer(layers=[layer, layer], latent_dim=3))
        tokens = tmp_path / "t.jsonl"
        tokens.write_text(
            '{"id":"x","token_rate_hz":50.0,"layers":2,"codebook_size":2,"codes":[[0,1]]}\n'
        )
        out = tmp_path / "r.rvqv"
        code, stdout, err = run(
            capsys, "decode", "--codebook", str(book), "--tokens", str(tokens), "--out", str(out),
        )
        assert code == 4
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_oversized_code_is_data_error(self, tmp_path, trained_codebook, capsys):
        tokens = tmp_path / "big.jsonl"
        tokens.write_text(
            '{"id":"x","token_rate_hz":50.0,"layers":2,"codebook_size":16,'
            '"codes":[[1,4294967297]]}\n'
        )
        out = tmp_path / "r.rvqv"
        code, _, err = run(
            capsys, "decode", "--codebook", str(trained_codebook), "--tokens", str(tokens),
            "--out", str(out),
        )
        assert code == 3
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # A corpus with one NaN is rejected before any scheme or init runs.
            *(
                ["train", "--corpus", "{nan}", "--scheme", scheme, "--init", init, "--latent-dim",
                 "8", "--codebook-size", "16", "--steps", "30", *quant]
                for scheme, quant in (("ema", []), ("ema-restart", []), ("projected", ["--quant-dim", "4"]))
                for init in ("kmeans", "random")
            ),
            # A directory where a file belongs.
            ["train", "--corpus", "{dir}", "--latent-dim", "8"],
            ["encode", "--codebook", "{dir}", "--input", "{nan}"],
            ["decode", "--codebook", "{dir}", "--tokens", "{train}"],
            ["arnar-sim", "--max-frames", "20", "--ar", "ngram", "--train-tokens", "{dir}"],
            ["arnar-sim", "--max-frames", "20", "--support", "{dir}"],
        ],
    )
    def test_bad_parameters_are_data_errors(self, tmp_path, capsys, argv):
        train = tmp_path / "train.jsonl"
        train.write_text(
            '{"id":"t","token_rate_hz":50.0,"layers":1,"codebook_size":1024,"codes":[[1],[2],[1]]}\n'
        )
        corpus = np.random.default_rng(3).normal(size=(300, 8))
        corpus[299, 3] = np.nan
        write_vectors(tmp_path / "nan.rvqv", corpus)
        (tmp_path / "dir").mkdir()
        out = tmp_path / "out.bin"
        argv = [arg.format(train=train, nan=tmp_path / "nan.rvqv", dir=tmp_path / "dir") for arg in argv]
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 3, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("tokens", [["{dir}"], ["{good}", "{dir}"]])
    def test_analyze_directory_is_data_error(self, tmp_path, capsys, tokens):
        good = tmp_path / "good.jsonl"
        good.write_text('{"id":"t","token_rate_hz":50.0,"layers":1,"codebook_size":4,"codes":[[1]]}\n')
        (tmp_path / "dir").mkdir()
        tokens = [arg.format(good=good, dir=tmp_path / "dir") for arg in tokens]
        code, out, err = run(capsys, "analyze", "--tokens", *tokens)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_output_path_that_is_a_directory_is_data_error(self, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        code, _, err = run(capsys, "mlm-sim", "--frames", "20", "--out", str(tmp_path / "dir"))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
        assert list((tmp_path / "dir").iterdir()) == []

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize(
        "argv",
        [
            ["mlm-sim", "--frames", "20", "--margin", "1e308", "--temperature", "0.5"],
            ["arnar-sim", "--max-frames", "20", "--margin", "1e308", "--temperature", "0.5"],
        ],
    )
    def test_overflowing_logits_are_numerical_errors(self, tmp_path, capsys, argv):
        # Dividing a finite 1e308 logit by 0.5 overflows to inf; the sampler
        # must fail rather than draw code 0 for every row.
        out = tmp_path / "out.jsonl"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 4, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflow_prints_one_error_line(self, tmp_path):
        # A child process, so that numpy's warnings reach stderr as a user
        # would see them.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(rvqkit.__file__)))
        env = dict(os.environ, PYTHONPATH=package_root)
        proc = subprocess.run(
            [sys.executable, "-m", "rvqkit.cli", "mlm-sim", "--frames", "20", "--margin",
             "1e308", "--temperature", "0.5", "--out", str(tmp_path / "o.jsonl")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            pytest.param(command, flag, value, id=f"{command}{flag}={value}")
            for command, flags in NUMERIC_FLAGS.items()
            for flag, values in flags.items()
            for value in values
        ],
    )
    def test_out_of_range_flag_is_a_usage_error_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, flag, value
    ):
        # Every input file is missing and every reader, corpus draw, training
        # and generator fails if called: the parser alone must reject the value.
        def unreachable(*_, **__):
            raise AssertionError(f"work started with {flag} {value}")

        for name in ("read_vectors", "read_token_streams", "load_quantizer"):
            monkeypatch.setattr(rvqkit.cli.rvqio, name, unreachable)
        for name in ("make_corpus", "train_quantizer", "generate_parallel",
                     "generate_text_to_tokens"):
            monkeypatch.setattr(rvqkit.cli, name, unreachable)
        out = tmp_path / "out"
        base = [arg.format(missing=tmp_path / "missing", out=out) for arg in BASE_ARGV[command]]
        code, stdout, err = run(capsys, command, *base, flag, value)
        assert code == 2, err
        assert f"argument {flag}: " in err
        assert stdout == ""
        assert not out.exists()

    def test_in_range_boundaries_parse(self):
        parser = build_parser()
        args = parser.parse_args([
            "train", "--synth", "modes=1", "--decay", "0", "--commitment-weight", "0",
            "--codebook-weight", "0", "--seed", "0", "--layers", "1", "--out", "q.rvqc",
        ])
        assert (args.decay, args.commitment_weight, args.codebook_weight, args.seed) == (0, 0, 0, 0)
        args = parser.parse_args([
            "mlm-sim", "--margin", "-1", "--prompt-frames", "0", "--noise-seed", "0",
            "--cfg=-2:0.5", "--temperature", "1e-300", "--out", "o.jsonl",
        ])
        assert (args.margin, args.prompt_frames, args.noise_seed) == (-1.0, 0, 0)
        assert (args.cfg, args.temperature) == ((-2.0, 0.5), 1e-300)
        args = parser.parse_args(["arnar-sim", "--margin", "0", "--layers", "2", "--out", "o"])
        assert (args.margin, args.layers) == (0.0, 2)
        assert parser.parse_args(["mlm-sim", "--layers", "1", "--out", "o"]).layers == 1

    def test_quant_dim_above_latent_dim_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def unreachable(*_):
            raise AssertionError("work started with --quant-dim > --latent-dim")

        monkeypatch.setattr(rvqkit.cli, "make_corpus", unreachable)
        monkeypatch.setattr(rvqkit.cli, "train_quantizer", unreachable)
        out = tmp_path / "q.rvqc"
        code, _, err = run(capsys, "train", "--synth", "modes=4", "--scheme", "projected",
                           "--latent-dim", "4", "--quant-dim", "5", "--out", str(out))
        assert (code, err) == (2, "error: --quant-dim must be <= --latent-dim\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "synth, message",
        [
            ("modes=abc", "--synth modes must be an integer >= 1, got 'abc'"),
            ("modes=4,count=1e3", "--synth count must be an integer >= 1, got '1e3'"),
            ("modes=4,sep=x", "--synth sep must be positive and finite, got 'x'"),
            ("modes=0", "--synth modes must be an integer >= 1, got '0'"),
            ("modes=4,count=0", "--synth count must be an integer >= 1, got '0'"),
            ("modes=4,count=-3", "--synth count must be an integer >= 1, got '-3'"),
            ("modes=4,sep=0", "--synth sep must be positive and finite, got '0'"),
            ("modes=4,sep=nan", "--synth sep must be positive and finite, got 'nan'"),
            ("modes=4,sep=inf", "--synth sep must be positive and finite, got 'inf'"),
            ("modes=4,dims", "--synth entry 'dims' is not key=value"),
            ("modes=4,size=3", "--synth key 'size' unknown (use modes,sep,count)"),
            ("modes=4,dims=16", "--synth key 'dims' unknown (use modes,sep,count)"),
        ],
    )
    def test_train_bad_synth_spec_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, synth, message
    ):
        def unreachable(*_):
            raise AssertionError("work started on a bad --synth")

        monkeypatch.setattr(rvqkit.cli, "make_corpus", unreachable)
        monkeypatch.setattr(rvqkit.cli, "train_quantizer", unreachable)
        out = tmp_path / "q.rvqc"
        code, _, err = run(capsys, "train", "--synth", synth, "--out", str(out))
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def test_readme_cli_examples_parse():
    # Every `rvqkit ...` command in the README's sh blocks, continuations joined.
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("rvqkit "):
                commands.append(shlex.split(line)[1:])
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == {
        "train", "encode", "decode", "analyze", "mlm-sim", "arnar-sim"
    }


# Header fields as (offset, struct format) in the vector and codebook files.
VECTOR_FIELDS = {"magic": (0, "4s"), "version": (4, "I"), "count": (8, "Q"), "dim": (16, "I")}
CODEBOOK_FIELDS = {
    "magic": (0, "4s"), "version": (4, "I"), "scheme": (8, "B"), "metric": (9, "B"),
    "layers": (10, "I"), "K": (14, "I"), "d": (18, "I"), "q": (22, "I"),
}
VECTOR_HEADER_SIZE, CODEBOOK_HEADER_SIZE = 20, 26


def _corrupt(data: bytes, fields: dict, header_size: int, draw) -> bytes:
    """One corruption of a valid file: a truncation, a changed header field
    or a NaN/Inf float in the payload."""
    kind = draw(st.sampled_from(["truncate", "field", "non-finite"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    data = bytearray(data)
    if kind == "field":
        name = draw(st.sampled_from(sorted(fields)))
        offset, fmt = fields[name]
        (old,) = struct.unpack_from("<" + fmt, data, offset)
        if fmt == "4s":
            new = draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != old))
        elif name == "metric":
            # The other valid tag names a valid metric; nothing in the file
            # can tell it from the original, so draw a tag that names none.
            new = draw(st.integers(2, 255))
        else:
            top = 2 ** (8 * struct.calcsize("<" + fmt)) - 1
            new = draw(st.integers(0, top).filter(lambda v: v != old))
        struct.pack_into("<" + fmt, data, offset, new)
    else:
        index = draw(st.integers(0, (len(data) - header_size) // 4 - 1))
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        struct.pack_into("<f", data, header_size + 4 * index, value)
    return bytes(data)


def _valid_files(root: Path, projected: bool) -> dict:
    rng = np.random.default_rng(21)
    d, q = (4, 2) if projected else (3, 3)
    metric = "cosine" if projected else "euclidean"
    layers = [Codebook.from_entries(rng.normal(size=(4, q)), metric=metric) for _ in range(2)]
    pairs = None
    if projected:
        pair = ProjectionPair(proj_in=rng.normal(size=(d, q)), proj_out=rng.normal(size=(q, d)))
        pairs = [pair, pair]
    quantizer = RvqQuantizer(
        layers=layers, latent_dim=d, scheme="projected" if projected else "plain", projections=pairs
    )
    paths = {name: root / f"valid-{projected}.{name}" for name in ("rvqc", "rvqv", "jsonl")}
    save_quantizer(paths["rvqc"], quantizer)
    write_vectors(paths["rvqv"], rng.normal(size=(1100, d)))  # two chunks for --threads 2
    frames = rng.integers(0, 4, size=(5, 2))
    write_token_streams(paths["jsonl"], [TokenStream(frames, 50.0, 4, "t")])
    return paths


@settings(max_examples=300, deadline=None)
@given(data=st.data(), projected=st.booleans(), target=st.sampled_from(["rvqv", "rvqc"]),
       command=st.sampled_from(["encode", "decode"]))
def test_corrupt_vector_and_codebook_files_fail_cleanly(tmp_path_factory, data, projected,
                                                        target, command):
    """A truncated file, a changed header field or a NaN/Inf value exits 3
    or 4 with one error line: no traceback, no warning, no output file."""
    if target == "rvqv" and command == "decode":
        command = "encode"  # decode reads no vector file
    root = tmp_path_factory.getbasetemp()
    paths = _valid_files(root, projected)
    fields, header = (
        (VECTOR_FIELDS, VECTOR_HEADER_SIZE) if target == "rvqv"
        else (CODEBOOK_FIELDS, CODEBOOK_HEADER_SIZE)
    )
    bad = root / f"bad.{target}"
    bad.write_bytes(_corrupt(paths[target].read_bytes(), fields, header, data.draw))
    inputs = {**paths, target: bad}
    out = root / "out.bin"
    if out.exists():
        out.unlink()
    if command == "encode":
        argv = ["encode", "--codebook", inputs["rvqc"], "--input", inputs["rvqv"], "--threads", "2"]
    else:
        argv = ["decode", "--codebook", inputs["rvqc"], "--tokens", inputs["jsonl"]]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([str(arg) for arg in argv] + ["--out", str(out)])
    assert code in (3, 4), err.getvalue()
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_projected_file_with_distinct_pairs_exits_3(tmp_path, command):
    """Layer 2's proj_in differs from layer 1's in one float: the file is
    rejected as a whole, with one error line and no output file."""
    paths = _valid_files(tmp_path, projected=True)
    data = bytearray(paths["rvqc"].read_bytes())
    k, d, q = 4, 4, 2
    layer2_proj_in = CODEBOOK_HEADER_SIZE + 4 * (d * q + k * q + q * d)
    (value,) = struct.unpack_from("<f", data, layer2_proj_in)
    struct.pack_into("<f", data, layer2_proj_in, value + 1.0)
    paths["rvqc"].write_bytes(bytes(data))
    out = tmp_path / "out.bin"
    if command == "encode":
        argv = ["encode", "--codebook", paths["rvqc"], "--input", paths["rvqv"]]
    else:
        argv = ["decode", "--codebook", paths["rvqc"], "--tokens", paths["jsonl"]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv] + ["--out", str(out)])
    assert code == 3
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "differs from pair 0" in err.getvalue()
    assert not out.exists()
