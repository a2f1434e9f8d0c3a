"""CLI surface: command behavior, exit codes, determinism of files and stdout."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from rvqkit import (
    CorpusSpec,
    make_corpus,
    read_token_streams,
    read_vectors,
    write_vectors,
)
from rvqkit.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


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

    def test_zero_steps_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "train", "--synth", "modes=2,count=64", "--codebook-size", "4",
            "--latent-dim", "4", "--steps", "0", "--out", str(tmp_path / "x.rvqc"),
        )
        assert code == 2
        assert "--steps" in err

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
        write_vectors(wrong, np.zeros((4, 5)))
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

    def test_bad_cfg_format(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "mlm-sim", "--cfg", "nope", "--out", str(tmp_path / "x.jsonl")
        )
        assert code == 2
        assert "--cfg" in err

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
            ["mlm-sim", "--frames", "20", "--temperature", "nan"],
            ["mlm-sim", "--frames", "20", "--temperature", "inf"],
            ["mlm-sim", "--frames", "20", "--cfg", "nan:1"],
            ["mlm-sim", "--frames", "20", "--cfg", "inf:1"],
            ["mlm-sim", "--frames", "20", "--margin", "inf"],
            ["mlm-sim", "--frames", "20", "--margin", "nan"],
            ["arnar-sim", "--max-frames", "20", "--temperature", "nan"],
            ["arnar-sim", "--max-frames", "20", "--temperature", "inf"],
            ["arnar-sim", "--max-frames", "20", "--margin", "inf"],
            ["arnar-sim", "--max-frames", "20", "--margin", "nan"],
            ["arnar-sim", "--max-frames", "20", "--layers", "0"],
            ["arnar-sim", "--max-frames", "20", "--ar", "ngram", "--train-tokens", "{train}",
             "--ngram-smoothing", "nan"],
            ["train", "--synth", "modes=4,count=256,sep=nan", "--codebook-size", "16",
             "--steps", "5"],
            ["train", "--synth", "modes=4,count=256,sep=inf", "--codebook-size", "16",
             "--steps", "5"],
            ["train", "--synth", "modes=4,count=256", "--scheme", "projected", "--latent-dim", "16",
             "--quant-dim", "4", "--codebook-size", "16", "--steps", "20", "--learning-rate", "0"],
            ["train", "--synth", "modes=4,count=256", "--scheme", "projected", "--latent-dim", "16",
             "--quant-dim", "4", "--codebook-size", "16", "--steps", "20", "--learning-rate", "-1"],
            ["train", "--synth", "modes=4,count=256", "--scheme", "projected", "--latent-dim", "16",
             "--quant-dim", "4", "--codebook-size", "16", "--steps", "20", "--commitment-weight", "nan"],
            ["train", "--synth", "modes=4,count=256", "--scheme", "projected", "--latent-dim", "16",
             "--quant-dim", "4", "--codebook-size", "16", "--steps", "20", "--codebook-weight", "inf"],
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
