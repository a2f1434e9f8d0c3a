"""The three workloads: their inputs, one round of their commands, their checks.

Every workload runs rounds of the same operations. A CLI command runs
in-process through `rvqkit.cli.main(argv)` with the argv a user would type;
its stdout is captured for the checks. The first round's outputs are checked
in full; every later round must reproduce them byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

import rvqkit.cli
import rvqkit.io
import rvqkit.rvq

import checks
import clock
import formats

K = 1024  # codebook size of every workload
LAYERS = 8
SAMPLE_ROWS = 128  # frames whose codes are recomputed by brute force


class Harness:
    """Runs operations, counts attempts and failures, collects check failures."""

    def __init__(self, work: str):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def cli(self, argv: list[str]) -> tuple[float, str]:
        """Run one CLI command; returns (scaled seconds, stdout)."""
        main = rvqkit.cli.main
        if self.tracer is not None:
            main = self.tracer.wrap("cli." + argv[0], main)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            seconds, _, code = clock.timed(main, argv)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.errors.append(f"{argv[0]} exited {code}")
        return seconds, buffer.getvalue()


def _digest(paths: list[str], texts: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _mixture(rng, count: int, dims: int, modes: int, separation: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian mixture: means uniform in the centred cube, unit-variance components."""
    means = rng.uniform(-separation / 2, separation / 2, size=(modes, dims))
    return means, means[rng.integers(0, modes, size=count)] + rng.standard_normal((count, dims))


class Workload:
    """Shared shape: make inputs, warm up, run rounds, check the first round."""

    def __init__(self, harness: Harness, seed: int):
        self.h = harness
        self.seed = seed
        self.digest = None

    def setup(self) -> None:
        self.make_inputs(np.random.default_rng(self.seed))
        self.warm_up()

    def run_round(self, first: bool) -> dict[str, list[float]]:
        """One round; returns its samples of each end-to-end metric."""
        samples, outputs, texts = self.round()
        if self.h.failed:
            return samples
        if first:
            try:
                self.h.errors.extend(self.check())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.h.errors.append(f"{type(self).__name__}: output could not be checked: {exc!r}")
            self.digest = _digest(outputs, texts)
        elif _digest(outputs, texts) != self.digest:
            self.h.errors.append(f"{type(self).__name__}: a rerun changed the outputs")
        return samples


class Codec(Workload):
    """Train a quantizer; then, `repeats` times, encode held-out vectors in a
    batch and one frame at a time, and decode (and on the Euclidean workload
    analyze) a large multi-utterance token file made from the encoded codes."""

    dims = 32
    modes = 256
    train_args: list[str] = []
    warm_args: list[str] = []
    corpus_count = 8192
    held_out = 256
    stream_frames = 256
    # Short coding operations, repeated within each round, sample the speed of
    # a shared machine at many moments of the run rather than a few.
    repeats = 4  # encode, one-frame encode, decode and analyze runs per train
    token_frames = 98304
    utterances = 48
    analyze = True
    mse_below_variance = True  # final_mse must beat predicting the corpus mean

    def make_inputs(self, rng) -> None:
        means, corpus = _mixture(rng, self.corpus_count, self.dims, self.modes, 4.0)
        held = means[rng.integers(0, self.modes, size=self.held_out)] + rng.standard_normal(
            (self.held_out, self.dims)
        )
        formats.write_vectors(self.h.path("corpus.rvqv"), corpus)
        formats.write_vectors(self.h.path("held.rvqv"), held)
        corpus32 = formats.read_vectors(self.h.path("corpus.rvqv")).astype(np.float64)
        self.total_variance = float(((corpus32 - corpus32.mean(axis=0)) ** 2).sum(axis=1).mean())
        self.held = formats.read_vectors(self.h.path("held.rvqv"))
        self.stream_rows = np.sort(rng.choice(self.held_out, size=self.stream_frames, replace=False))
        self.sample_rows = np.sort(rng.choice(self.held_out, size=SAMPLE_ROWS, replace=False))
        lengths = rng.multinomial(self.token_frames - self.utterances * 512, [1 / self.utterances] * self.utterances) + 512
        self.utterance_picks = [rng.integers(0, self.held_out, size=n) for n in lengths]
        self.train_seed = str(int(rng.integers(0, 2**31)))
        formats.write_vectors(self.h.path("warm.rvqv"), corpus[:512])
        formats.write_tokens(
            self.h.path("warm.jsonl"), [("warm", rng.integers(0, 16, size=(64, 2)))], 16
        )
        self.tokens = None

    def warm_up(self) -> None:
        """Every command once on small inputs, so imports and first calls are paid."""
        h = self.h
        h.cli(["train", "--corpus", h.path("warm.rvqv"), "--layers", "2", "--codebook-size", "16",
               "--latent-dim", str(self.dims), "--steps", "4", "--batch-size", "64",
               "--restart-period", "2", "--seed", "0", "--out", h.path("warm.rvqc"), *self.warm_args])
        h.cli(["encode", "--codebook", h.path("warm.rvqc"), "--input", h.path("warm.rvqv"),
               "--out", h.path("warm-enc.jsonl")])
        quantizer = rvqkit.io.load_quantizer(h.path("warm.rvqc"))
        for row in self.held[:8]:
            rvqkit.rvq.rvq_encode(row.astype(np.float64), quantizer)
        h.cli(["decode", "--codebook", h.path("warm.rvqc"), "--tokens", h.path("warm.jsonl"),
               "--out", h.path("warm-dec.rvqv")])
        if self.analyze:
            h.cli(["analyze", "--tokens", h.path("warm.jsonl"), "--layer", "1"])

    def stream_encode(self) -> tuple[float, np.ndarray]:
        """rvq_encode one frame per call; returns (scaled seconds of the loop, codes)."""
        quantizer = rvqkit.io.load_quantizer(self.h.path("codebook.rvqc"))
        rows = self.held[self.stream_rows].astype(np.float64)
        encode = rvqkit.rvq.rvq_encode
        if self.h.tracer is not None:
            encode = self.h.tracer.wrap("rvq.encode_frame", encode)
        codes = np.empty((len(rows), LAYERS), dtype=np.int64)

        def loop():
            for i, row in enumerate(rows):
                codes[i] = encode(row, quantizer)[0]

        seconds, _, _ = clock.timed(loop)
        self.h.attempted += len(rows)
        return seconds, codes

    def round(self):
        h = self.h
        train_seconds, self.train_out = h.cli(
            ["train", "--corpus", h.path("corpus.rvqv"), "--layers", str(LAYERS),
             "--codebook-size", str(K), "--latent-dim", str(self.dims), "--seed", self.train_seed,
             "--out", h.path("codebook.rvqc"), *self.train_args])
        samples = {"round_s": [train_seconds], "batch_fps": [], "step_fps": [], "read_fps": []}
        for _ in range(self.repeats):
            encode_seconds, self.encode_out = h.cli(
                ["encode", "--codebook", h.path("codebook.rvqc"), "--input", h.path("held.rvqv"),
                 "--out", h.path("encoded.jsonl")])
            if h.failed:
                return samples, [], []
            samples["batch_fps"].append(self.held_out / encode_seconds)
            stream_seconds, self.stream_codes = self.stream_encode()
            samples["step_fps"].append(self.stream_frames / stream_seconds)
            if self.tokens is None:
                codes = formats.token_codes(h.path("encoded.jsonl"))
                self.tokens = [(f"utt-{i:03d}", codes[p]) for i, p in enumerate(self.utterance_picks)]
                formats.write_tokens(h.path("tokens.jsonl"), self.tokens, K)
            read_seconds, self.decode_out = h.cli(
                ["decode", "--codebook", h.path("codebook.rvqc"), "--tokens", h.path("tokens.jsonl"),
                 "--out", h.path("decoded.rvqv")])
            read_frames = self.token_frames
            if self.analyze:
                analyze_seconds, self.analyze_out = h.cli(
                    ["analyze", "--tokens", h.path("tokens.jsonl"), "--layer", "1"])
                read_seconds += analyze_seconds
                read_frames += self.token_frames
            samples["read_fps"].append(read_frames / read_seconds)
            samples["round_s"][0] += encode_seconds + stream_seconds + read_seconds
        outputs = [h.path(n) for n in ("codebook.rvqc", "encoded.jsonl", "decoded.rvqv")]
        texts = [self.train_out, self.encode_out, self.decode_out, self.stream_codes.tobytes().hex()]
        if self.analyze:
            texts.append(self.analyze_out)
        return samples, outputs, texts

    def check(self) -> list[str]:
        h = self.h
        books = formats.read_codebooks(h.path("codebook.rvqc"))
        encoded = formats.token_codes(h.path("encoded.jsonl"))
        variance = self.total_variance if self.mse_below_variance else None
        errors = checks.check_train(self.train_out, LAYERS, K, variance)
        errors += checks.check_encoded(self.held, books, encoded, self.sample_rows)
        if not np.array_equal(self.stream_codes, encoded[self.stream_rows]):
            errors.append("stream encode: one-frame codes differ from the batch codes")
        codes = np.concatenate([c for _, c in self.tokens])
        errors += checks.check_decoded(formats.read_vectors(h.path("decoded.rvqv")), books, codes)
        if self.analyze:
            errors += checks.check_analyze(self.analyze_out, [h.path("tokens.jsonl")], 1, K)
        return errors

class CodecEuclid(Codec):
    train_args = ["--scheme", "ema-restart", "--steps", "60", "--batch-size", "256",
                  "--restart-period", "20"]
    warm_args = ["--scheme", "ema-restart"]


class CodecProjected(Codec):
    dims = 64
    modes = 512
    held_out = 2048
    token_frames = 65536
    analyze = False
    mse_below_variance = False  # the projected scheme only has to stay finite
    train_args = ["--scheme", "projected", "--quant-dim", "8", "--metric", "cosine",
                  "--init", "random", "--steps", "400", "--batch-size", "256"]
    warm_args = ["--scheme", "projected", "--quant-dim", "8", "--init", "random"]


class SlmGenerate(Workload):
    """Masked parallel generation against the oracle, AR+NAR generation with an
    n-gram trained on a token file whose layer 1 follows a known map, and
    analyze over the training and generated tokens."""

    mlm_frames = 2048
    iterations = 5
    ar_frames = 2500
    laps = 64  # times the training stream walks the whole map cycle
    smoothing = 1e-3
    temperature = 0.3

    def make_inputs(self, rng) -> None:
        # Layer 1 of the training stream walks one cycle through all K codes
        # `laps` times, so every context is seen `laps` times followed by its
        # successor; only the final context also ends in EOS. At temperature
        # 0.3 an EOS draw there has odds of about (1/63) ** (1/0.3) = 1e-6,
        # so generation runs to its frame budget.
        order = rng.permutation(K)
        self.successor = np.empty(K, dtype=np.int64)
        self.successor[order] = np.roll(order, -1)
        layer1 = np.tile(order, self.laps)
        codes = rng.integers(0, K, size=(len(layer1), LAYERS))
        codes[:, 0] = layer1
        formats.write_tokens(self.h.path("train.jsonl"), [("map", codes)], K)
        formats.write_tokens(self.h.path("warm.jsonl"), [("map", codes[:512])], K)
        n_follow = np.bincount(layer1[:-1], minlength=K)
        n_eos = np.bincount(layer1[-1:], minlength=K)
        self.p_follow = checks.follow_probability(n_follow, n_eos, K, self.smoothing, self.temperature)
        self.mlm_seed, self.ar_seed = (str(int(s)) for s in rng.integers(0, 2**31, size=2))

    def _mlm(self, frames: int, out: str) -> list[str]:
        return ["mlm-sim", "--model", "oracle", "--frames", str(frames), "--layers", str(LAYERS),
                "--codebook-size", str(K), "--iterations", str(self.iterations),
                "--seed", self.mlm_seed, "--out", self.h.path(out + ".jsonl"),
                "--truth-out", self.h.path(out + "-truth.jsonl")]

    def _arnar(self, frames: int, train: str, out: str) -> list[str]:
        return ["arnar-sim", "--ar", "ngram", "--train-tokens", self.h.path(train),
                "--ngram-smoothing", str(self.smoothing), "--temperature", str(self.temperature),
                "--max-frames", str(frames), "--layers", str(LAYERS), "--codebook-size", str(K),
                "--seed", self.ar_seed, "--out", self.h.path(out)]

    def warm_up(self) -> None:
        h = self.h
        h.cli(self._mlm(64, "warm-mlm"))
        h.cli(self._arnar(64, "warm.jsonl", "warm-ar.jsonl"))
        h.cli(["analyze", "--tokens", h.path("warm.jsonl"), h.path("warm-ar.jsonl"), "--layer", "1"])

    def round(self):
        h = self.h
        t = {}
        t["mlm"], self.mlm_out = h.cli(self._mlm(self.mlm_frames, "mlm"))
        t["arnar"], self.arnar_out = h.cli(self._arnar(self.ar_frames, "train.jsonl", "ar.jsonl"))
        self.analyzed = [h.path(n) for n in ("train.jsonl", "mlm.jsonl", "ar.jsonl")]
        t["analyze"], self.analyze_out = h.cli(["analyze", "--tokens", *self.analyzed, "--layer", "1"])
        frames = int(checks.parse_kv(self.arnar_out).get("frames", self.ar_frames))
        analyzed = self.laps * K + self.mlm_frames + frames
        samples = {
            "round_s": [sum(t.values())],
            "batch_fps": [self.mlm_frames / t["mlm"]],
            "step_fps": [frames / t["arnar"]],
            "read_fps": [analyzed / t["analyze"]],
        }
        outputs = [h.path(n) for n in ("mlm.jsonl", "ar.jsonl")]
        return samples, outputs, [self.mlm_out, self.arnar_out, self.analyze_out]

    def check(self) -> list[str]:
        h = self.h
        errors = checks.check_mlm(self.mlm_out, h.path("mlm.jsonl"), h.path("mlm-truth.jsonl"),
                                  self.iterations, LAYERS)
        errors += checks.check_arnar(self.arnar_out, h.path("ar.jsonl"), LAYERS, K, self.ar_frames,
                                     self.successor, self.p_follow)
        errors += checks.check_analyze(self.analyze_out, self.analyzed, 1, K)
        return errors


WORKLOADS = {
    "codec-euclid": CodecEuclid,
    "codec-projected": CodecProjected,
    "slm-generate": SlmGenerate,
}
