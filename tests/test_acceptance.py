"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The utilization criteria train on a shared 512-mode mixture corpus with
K=1024 codes; both schemes start from moment-matched random initialization
(identical data, seed, and init regime), since codebooks placed directly on
corpus points by k-means cannot exhibit the collapse being measured.
"""

import os
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import rvqkit
from rvqkit import (
    Codebook,
    CorpusSpec,
    DecodeSchedule,
    GenConfig,
    OracleArModel,
    OracleNarModel,
    OracleScoreModel,
    ProjectedParams,
    RvqQuantizer,
    TokenStream,
    TrainConfig,
    anneal_coeff,
    bitrate_bps,
    generate_ar,
    generate_parallel,
    generate_text_to_tokens,
    make_corpus,
    projected_assign,
    projected_grads,
    projected_loss,
    rank_frequency,
    read_token_streams,
    read_vectors,
    rvq_encode,
    train_ngram_ar,
    train_quantizer,
    utilization,
    write_token_streams,
    write_vectors,
)
from rvqkit.io import load_quantizer, save_quantizer


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {description}")
        raise
    print(f"criterion {num:2d}: PASS - {description}")


def empty_prompt(layers, k):
    return TokenStream(
        frames=np.empty((0, layers), dtype=np.int32),
        token_rate_hz=50.0,
        codebook_size=k,
        source_id="acceptance",
    )


def test_criterion_1_forward_pass_accounting():
    with criterion(1, "MLM default schedule, N=8: exactly 12 forward passes"):
        truth = np.random.default_rng(0).integers(0, 64, size=(60, 8), dtype=np.int32)
        model = OracleScoreModel(truth, 64)
        _, stats = generate_parallel(
            model, np.arange(60), empty_prompt(8, 64), 60, DecodeSchedule(rng_seed=0)
        )
        assert stats.forward_passes == 12
        assert stats.unconditional_passes == 5


def test_criterion_2_bitrate_arithmetic():
    with criterion(2, "8 layers x 1024 codes x 50 Hz = 4000 bps"):
        rng = np.random.default_rng(1)
        qz = RvqQuantizer(
            layers=[Codebook.from_entries(rng.normal(size=(1024, 8))) for _ in range(8)],
            latent_dim=8,
        )
        assert bitrate_bps(qz, 50.0) == 4000.0


def test_criterion_3_cfg_schedule_endpoints():
    with criterion(3, "guidance coefficient is 0 at progress 0 and 2 at progress 1"):
        assert anneal_coeff(0.0, 0.0, 2.0) == 0.0
        assert anneal_coeff(1.0, 0.0, 2.0) == 2.0


def test_criterion_4_rvq_oracle_equivalence():
    with criterion(4, "1000 latents: encoder matches a brute-force recursion exactly"):
        rng = np.random.default_rng(2)
        entries = [rng.normal(size=(64, 16)) for _ in range(4)]
        qz = RvqQuantizer(
            layers=[Codebook.from_entries(e) for e in entries], latent_dim=16
        )
        latents = rng.normal(size=(1000, 16)) * 2.0
        for latent in latents:
            codes, norms = rvq_encode(latent, qz)
            # Independent re-implementation: scan all entries, subtract, repeat.
            residual = latent.copy()
            ref_codes = []
            for layer_entries in entries:
                dists = ((layer_entries - residual) ** 2).sum(axis=1)
                i = int(np.argmin(dists))
                ref_codes.append(i)
                residual = residual - layer_entries[i]
            assert codes.tolist() == ref_codes
            ref_norm = np.linalg.norm(residual)
            assert abs(norms[-1] - ref_norm) <= 1e-6 * max(ref_norm, 1e-12)


def test_criterion_5_projected_gradient_check():
    with criterion(5, "20 instances: analytic gradients match central differences to 1e-3"):
        rng = np.random.default_rng(3)
        step = 1e-4
        for _ in range(20):
            b = int(rng.integers(4, 10))
            d = int(rng.integers(6, 12))
            q = int(rng.integers(2, min(6, d)))
            n_layers = int(rng.integers(1, 4))
            k = int(rng.integers(6, 16))
            params = ProjectedParams(
                proj_in=rng.normal(size=(d, q)) / np.sqrt(d),
                proj_out=rng.normal(size=(q, d)) / np.sqrt(q),
                entries=[rng.normal(size=(k, q)) for _ in range(n_layers)],
            )
            batch = rng.normal(size=(b, d)) * 2.0
            w_cb = float(rng.uniform(0.5, 2.0))
            w_cm = float(rng.uniform(0.1, 0.5))
            codes = projected_assign(params, batch, metric="euclidean")
            z_ref = batch @ params.proj_in
            q_ref = np.sum([e[codes[:, i]] for i, e in enumerate(params.entries)], axis=0)
            grads = projected_grads(
                params, batch, codes, z_ref, q_ref,
                codebook_weight=w_cb, commitment_weight=w_cm,
            )

            def loss():
                return projected_loss(
                    params, batch, codes, z_ref, q_ref,
                    codebook_weight=w_cb, commitment_weight=w_cm,
                )

            def fd_block(array):
                out = np.zeros_like(array)
                flat, out_flat = array.ravel(), out.ravel()
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + step
                    up = loss()
                    flat[j] = orig - step
                    down = loss()
                    flat[j] = orig
                    out_flat[j] = (up - down) / (2 * step)
                return out

            for analytic, array in [
                (grads.proj_in, params.proj_in),
                (grads.proj_out, params.proj_out),
                *zip(grads.entries, params.entries),
            ]:
                fd = fd_block(array)
                denom = max(np.linalg.norm(fd), 1e-10)
                assert np.linalg.norm(analytic - fd) / denom < 1e-3


COLLAPSE_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def collapse_runs():
    """Train EMA / EMA+restart / projected per seed on the 512-mode corpus.

    The first seed's entry also keeps its corpus and its EMA and projected
    quantizers, whose rank-frequency curves criterion 6b reads.
    """
    results = {}
    for seed in COLLAPSE_SEEDS:
        corpus = make_corpus(
            CorpusSpec(num_components=512, dims=32, separation=8.0, count=3072, seed=seed)
        )
        base = dict(
            num_layers=1, codebook_size=1024, latent_dim=32, steps=1500,
            batch_size=256, seed=seed, init="random",
        )
        qz_ema, ema = train_quantizer(corpus, TrainConfig(scheme="ema", **base))
        _, restart = train_quantizer(corpus, TrainConfig(scheme="ema_restart", **base))
        qz_proj, projected = train_quantizer(
            corpus,
            TrainConfig(scheme="projected", quant_dim=8, metric="cosine", **base),
        )
        results[seed] = {
            "ema": int(round(ema.utilization[0] * 1024)),
            "restart": int(round(restart.utilization[0] * 1024)),
            "projected": int(round(projected.utilization[0] * 1024)),
        }
        if seed == COLLAPSE_SEEDS[0]:
            results[seed].update(corpus=corpus, qz_ema=qz_ema, qz_proj=qz_proj)
    return results


def test_criterion_6_utilization_collapse(collapse_runs):
    with criterion(6, "512-mode corpus, K=1024: plain EMA uses strictly fewer layer-1 codes than projected (>=4/5 seeds)"):
        wins = 0
        for seed in COLLAPSE_SEEDS:
            used = collapse_runs[seed]
            print(
                f"    seed {seed}: ema={used['ema']} restart={used['restart']} "
                f"projected={used['projected']}"
            )
            if used["ema"] < used["projected"]:
                wins += 1
        assert wins >= 4


def test_criterion_6b_rank_frequency_knee(collapse_runs):
    # Companion check on one seed: the EMA rank-frequency curve hits zero
    # before rank K, and the projected curve's zero rank is no earlier.
    with criterion(6, "rank-frequency knee: EMA curve hits zero before rank K, projected no earlier"):
        run = collapse_runs[COLLAPSE_SEEDS[0]]
        corpus, qz_ema, qz_proj = run["corpus"], run["qz_ema"], run["qz_proj"]

        def zero_rank(qz):
            from rvqkit import rvq_encode_batch

            codes, _ = rvq_encode_batch(corpus, qz)
            stream = TokenStream(
                frames=codes, token_rate_hz=50.0, codebook_size=1024, source_id="c"
            )
            table = rank_frequency(utilization([stream], 0))
            zeros = [rank for rank, count in table if count == 0]
            return zeros[0] if zeros else 1025

        ema_zero = zero_rank(qz_ema)
        proj_zero = zero_rank(qz_proj)
        print(f"    first zero-count rank: ema={ema_zero} projected={proj_zero}")
        assert ema_zero < 1025  # EMA leaves unused codes
        assert proj_zero >= ema_zero


def test_criterion_7_restart_efficacy(collapse_runs):
    with criterion(7, "EMA with restart uses at least as many codes as plain EMA (5/5 seeds)"):
        for seed in COLLAPSE_SEEDS:
            used = collapse_runs[seed]
            assert used["restart"] >= used["ema"]


def test_criterion_8_oracle_generation():
    with criterion(8, "both schedulers recover a hidden grid exactly for 50 seeds (T=60, N=4)"):
        t, n, k = 60, 4, 32
        for seed in range(50):
            rng = np.random.default_rng(seed)
            truth = rng.integers(0, k, size=(t, n), dtype=np.int32)

            score_model = OracleScoreModel(truth, margin=50.0, codebook_size=k)
            stream, _ = generate_parallel(
                score_model,
                np.arange(t),
                empty_prompt(n, k),
                t,
                DecodeSchedule(rng_seed=seed),
            )
            np.testing.assert_array_equal(stream.frames, truth)

            ar = OracleArModel(truth[:, 0], codebook_size=k, margin=50.0)
            nar = OracleNarModel(truth, codebook_size=k, margin=50.0)
            stream, _ = generate_text_to_tokens(
                ar, nar, np.arange(t), empty_prompt(n, k),
                GenConfig(temperature=1.0, max_frames=t + 10, rng_seed=seed),
            )
            np.testing.assert_array_equal(stream.frames, truth)


def test_criterion_9_temperature_hallucination_ordering():
    with criterion(9, "n-gram on 700-of-1024 support: out-of-support rate at 0.8 strictly below 1.0"):
        k, support = 1024, 700
        rng = np.random.default_rng(10)
        streams = []
        for i in range(10):
            codes = np.concatenate(
                [rng.permutation(support), rng.integers(0, support, size=14_000)]
            )
            streams.append(
                TokenStream(
                    frames=codes.reshape(-1, 1).astype(np.int32),
                    token_rate_hz=50.0,
                    codebook_size=k,
                    source_id=f"train-{i}",
                )
            )
        model = train_ngram_ar(streams, order=2, smoothing=0.05)
        observed = {int(c) for s in streams for c in s.frames[:, 0]}
        assert len(observed) == support

        def sampled_rate(temperature, needed, seed):
            outside = 0
            total = 0
            while total < needed:
                cfg = GenConfig(temperature=temperature, max_frames=2000, rng_seed=seed)
                chunk = generate_ar(model, np.arange(1), empty_prompt(1, k), cfg)
                seed += 1
                total += len(chunk)
                outside += int((chunk >= support).sum())
            return outside / total, total

        rate_hot, n_hot = sampled_rate(1.0, 100_000, 10_000)
        rate_cold, n_cold = sampled_rate(0.8, 100_000, 20_000)
        print(
            f"    out-of-support: {rate_hot:.4f} over {n_hot} tokens at T=1.0, "
            f"{rate_cold:.4f} over {n_cold} tokens at T=0.8"
        )
        assert rate_hot > 0
        assert rate_cold < rate_hot


def _run_cli(args, cwd):
    # The child runs from `cwd`, where a relative PYTHONPATH no longer
    # resolves; put the directory holding the imported rvqkit first so the
    # child imports the same copy as this test session.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(rvqkit.__file__)))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, "-m", "rvqkit.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_10_cli_determinism_and_round_trips(tmp_path):
    with criterion(10, "every CLI command byte-identical across reruns and thread counts; formats round-trip"):
        corpus = make_corpus(CorpusSpec(num_components=8, dims=8, separation=5.0, count=300, seed=4))
        corpus_path = tmp_path / "corpus.rvqv"
        write_vectors(corpus_path, corpus)

        def compare_runs(args, outputs):
            transcripts = []
            snapshots = []
            for run_id in ("a", "b"):
                run_args = [arg.replace("{run}", run_id) for arg in args]
                code, stdout, stderr = _run_cli(run_args, tmp_path)
                assert code == 0, stdout + stderr
                for name in outputs:
                    stdout = stdout.replace(name.replace("{run}", run_id), "OUT")
                transcripts.append(stdout)
                snapshots.append([
                    (tmp_path / name.replace("{run}", run_id)).read_bytes() for name in outputs
                ])
            assert transcripts[0] == transcripts[1]
            for first, second in zip(*snapshots):
                assert first == second

        compare_runs(
            ["train", "--corpus", "corpus.rvqv", "--scheme", "ema-restart", "--layers", "2",
             "--codebook-size", "16", "--latent-dim", "8", "--steps", "40",
             "--batch-size", "32", "--seed", "5", "--out", "cb_{run}.rvqc"],
            ["cb_{run}.rvqc"],
        )
        compare_runs(
            ["train", "--corpus", "corpus.rvqv", "--scheme", "projected", "--layers", "2",
             "--codebook-size", "16", "--latent-dim", "8", "--quant-dim", "3",
             "--steps", "40", "--batch-size", "32", "--seed", "5", "--out", "pj_{run}.rvqc"],
            ["pj_{run}.rvqc"],
        )
        compare_runs(
            ["encode", "--codebook", "cb_a.rvqc", "--input", "corpus.rvqv",
             "--token-rate", "50", "--out", "tok_{run}.jsonl"],
            ["tok_{run}.jsonl"],
        )
        # Thread count must not change encode output.
        code, _, stderr = _run_cli(
            ["encode", "--codebook", "cb_a.rvqc", "--input", "corpus.rvqv",
             "--token-rate", "50", "--threads", "4", "--out", "tok_t4.jsonl"],
            tmp_path,
        )
        assert code == 0, stderr
        assert (tmp_path / "tok_t4.jsonl").read_bytes() == (tmp_path / "tok_a.jsonl").read_bytes()

        compare_runs(
            ["decode", "--codebook", "cb_a.rvqc", "--tokens", "tok_a.jsonl",
             "--out", "rec_{run}.rvqv"],
            ["rec_{run}.rvqv"],
        )
        compare_runs(
            ["analyze", "--tokens", "tok_a.jsonl", "--layer", "1"],
            [],
        )
        compare_runs(
            ["mlm-sim", "--model", "oracle", "--frames", "40", "--layers", "8",
             "--codebook-size", "64", "--seed", "6", "--out", "mlm_{run}.jsonl"],
            ["mlm_{run}.jsonl"],
        )
        compare_runs(
            ["arnar-sim", "--ar", "oracle", "--max-frames", "20", "--layers", "4",
             "--codebook-size", "32", "--seed", "7", "--out", "ar_{run}.jsonl"],
            ["ar_{run}.jsonl"],
        )

        # Format round-trips: write -> read -> write reproduces the bytes.
        first = corpus_path.read_bytes()
        write_vectors(corpus_path, read_vectors(corpus_path))
        assert corpus_path.read_bytes() == first

        cb_path = tmp_path / "cb_a.rvqc"
        first = cb_path.read_bytes()
        save_quantizer(cb_path, load_quantizer(cb_path))
        assert cb_path.read_bytes() == first

        pj_path = tmp_path / "pj_a.rvqc"
        first = pj_path.read_bytes()
        save_quantizer(pj_path, load_quantizer(pj_path))
        assert pj_path.read_bytes() == first

        tok_path = tmp_path / "tok_a.jsonl"
        first = tok_path.read_bytes()
        write_token_streams(tok_path, read_token_streams(tok_path))
        assert tok_path.read_bytes() == first
