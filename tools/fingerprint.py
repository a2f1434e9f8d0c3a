"""Fingerprint rvqkit's seeded outputs, to show which ones a change moves.

Runs a fixed list of seeded CLI commands and library calls in a temporary
directory and prints one `sha256 name` line per stdout, stderr, exit code and
output file, named `<case>/<stream>`. The training outputs are the cases
`train-*`, `lib/train-*` and `lib/kmeans-init*`, and demo 03, which trains.
`projected-distinct-pairs` runs encode and decode on a projected codebook file
whose layers' projection pairs differ, and `*/decode-multi-stream` decodes a
token file with empty streams among long ones. `lib/encode-batch-*` and
`lib/encode-frame-*` encode 300 queries on each codebook, and on the one the
`train-ema-restart` case trains, in one batch (codes and final residuals) and
one frame per call (codes and residual norms). The
`tokens-*` cases decode and analyze one token file rewritten with spaces,
reordered keys and `"codes"` inside the id or another key, and with a leading
zero or a 10-digit code; `tokens-long-line*` decode and analyze one line
whose codes span several parse blocks, as written and with a leading zero in
its last frame. `mlm-sim-blocks` runs masked generation at K=1024
on enough frames that each round samples in several row blocks. The
`lib/generate-*` and `lib/text-to-tokens-*` cases run the schedulers on the
toy oracles, the `lib/train-ngram-*` cases hash the
n-gram AR model's counts and the perplexity it gives a stream, and the
`lib/oracle-truth-check-*` cases build each oracle on a truth code outside
[0, K) and call it once. To see what a change moves, run it on two checkouts
and diff:

    python tools/fingerprint.py > new.txt
    python tools/fingerprint.py --repo ../old-checkout > old.txt
    diff old.txt new.txt

--repo picks the checkout whose `src` and `demos` run (default: the one that
holds this file). --codebook adds a saved codebook, for instance one trained
by another checkout, to the fixed codebooks that encode, decode and analyze
run on. BLAS runs on one thread, in this process and in the children.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Fingerprint:
    def __init__(self, repo: Path, work: Path):
        self.repo, self.work = repo, work
        self.env = dict(os.environ, PYTHONPATH=str(repo / "src"))

    def emit(self, name: str, data: bytes) -> None:
        print(f"{_sha(data)} {name}", flush=True)

    def run(self, case: str, argv: list[str], outputs: tuple[str, ...] = ()) -> None:
        """Run one command in the work directory; hash its streams and files."""
        proc = subprocess.run(argv, cwd=self.work, env=self.env, capture_output=True)
        self.emit(f"{case}/exit", str(proc.returncode).encode())
        self.emit(f"{case}/stdout", proc.stdout)
        self.emit(f"{case}/stderr", proc.stderr)
        for name in outputs:
            path = self.work / name
            self.emit(f"{case}/{name}", path.read_bytes() if path.exists() else b"<missing>")

    def cli(self, case: str, *args: str, outputs: tuple[str, ...] = ()) -> None:
        self.run(case, [sys.executable, "-m", "rvqkit.cli", *args], outputs)

    def arrays(self, name: str, *arrays) -> None:
        self.emit(name, b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))

    def call(self, name: str, fn, *args) -> None:
        """Hash the arrays `fn(*args)` returns, or the ValueError it raises,
        so that a checkout which rejects an input still diffs case by case."""
        try:
            self.arrays(name, *fn(*args))
        except ValueError as exc:
            self.emit(name, f"{type(exc).__name__}: {exc}".encode())


def _fixed_codebooks(rk) -> dict:
    """Codebooks built from seeded entries, with no training."""
    rng = np.random.default_rng(2024)
    plain = rk.RvqQuantizer(
        layers=[rk.Codebook.from_entries(rng.normal(size=(32, 16)) / (n + 1)) for n in range(3)],
        latent_dim=16,
    )
    pair = rk.ProjectionPair(rng.normal(size=(16, 4)) / 4, rng.normal(size=(4, 16)) / 2)
    projected = rk.RvqQuantizer(
        layers=[rk.Codebook.from_entries(rng.normal(size=(32, 4)), metric="cosine")
                for _ in range(3)],
        latent_dim=16,
        scheme="projected",
        projections=[pair] * 3,
    )
    # What a collapsed k-means init leaves: blocks of copies, then zero layers.
    layers = []
    for n in range(8):
        base = rng.normal(size=(48, 32)) * 3.0 / (n + 1)
        entries = base[rng.integers(0, 48, size=1024)] if n < 3 else np.zeros((1024, 32))
        if n == 2:
            entries[100:900] = entries[0]
        layers.append(rk.Codebook.from_entries(entries))
    duplicates = rk.RvqQuantizer(layers=layers, latent_dim=32)
    return {"plain": plain, "projected": projected, "duplicates": duplicates}


def _codebook_cases(fp: Fingerprint, rk, extra: list[Path]) -> None:
    books = _fixed_codebooks(rk)
    for path in extra:
        books[f"extra-{path.stem}"] = rk.load_quantizer(str(path))
    for name, quantizer in books.items():
        book = f"{name}.rvqc"
        rk.save_quantizer(str(fp.work / book), quantizer)
        fp.emit(f"{name}/{book}", (fp.work / book).read_bytes())
        spec = rk.CorpusSpec(num_components=24, dims=quantizer.latent_dim, separation=4.0,
                             count=2500, seed=7)
        rk.write_vectors(str(fp.work / f"{name}.rvqv"), rk.make_corpus(spec))
        for threads in ("1", "2"):
            fp.cli(f"{name}/encode-threads-{threads}", "encode", "--codebook", book,
                   "--input", f"{name}.rvqv", "--threads", threads, "--id", name,
                   "--out", f"{name}-t{threads}.jsonl", outputs=(f"{name}-t{threads}.jsonl",))
        tokens = f"{name}-t1.jsonl"
        fp.cli(f"{name}/decode", "decode", "--codebook", book, "--tokens", tokens,
               "--out", f"{name}-decoded.rvqv", outputs=(f"{name}-decoded.rvqv",))
        fp.cli(f"{name}/analyze", "analyze", "--tokens", tokens)
        fp.cli(f"{name}/analyze-json", "analyze", "--tokens", tokens, "--layer", "2",
               "--format", "json-lines")

        _encode_cases(fp, rk, name, quantizer)
    _distinct_pairs_case(fp, books["projected"])
    _multi_stream_decode_case(fp, rk, books)
    _token_layout_cases(fp)
    _long_line_cases(fp, rk)


def _encode_cases(fp: Fingerprint, rk, name: str, quantizer) -> None:
    """Encode 300 queries in one batch and one frame per call."""
    queries = rk.make_corpus(rk.CorpusSpec(dims=quantizer.latent_dim, count=300, seed=8))
    fp.arrays(f"lib/encode-batch-{name}", *rk.rvq_encode_batch(queries, quantizer))
    codes, norms = zip(*(rk.rvq_encode(row, quantizer) for row in queries))
    fp.arrays(f"lib/encode-frame-{name}", np.stack(codes), np.stack(norms))


def _distinct_pairs_case(fp: Fingerprint, quantizer) -> None:
    """The fixed projected codebook with one float of layer 2's proj_in
    changed, so that its two layers' projection pairs differ."""
    k, d, q = quantizer.codebook_size, quantizer.latent_dim, quantizer.quant_dim
    data = bytearray((fp.work / "projected.rvqc").read_bytes())
    layer2_proj_in = 26 + 4 * (d * q + k * q + q * d)  # header, then layer 1's floats
    (value,) = struct.unpack_from("<f", data, layer2_proj_in)
    struct.pack_into("<f", data, layer2_proj_in, value + 1.0)
    case, book = "projected-distinct-pairs", "projected-distinct-pairs.rvqc"
    (fp.work / book).write_bytes(bytes(data))
    fp.emit(f"{case}/{book}", bytes(data))
    fp.cli(f"{case}/encode", "encode", "--codebook", book, "--input", "projected.rvqv",
           "--out", f"{case}.jsonl", outputs=(f"{case}.jsonl",))
    fp.cli(f"{case}/decode", "decode", "--codebook", book, "--tokens", "projected-t1.jsonl",
           "--out", f"{case}.rvqv", outputs=(f"{case}.rvqv",))


def _multi_stream_decode_case(fp: Fingerprint, rk, books: dict) -> None:
    """Decode of one token file whose streams have 0, 700, 0, 1, 2,049 and 0
    frames, on the fixed plain and projected codebooks."""
    for name in ("plain", "projected"):
        quantizer = books[name]
        rng = np.random.default_rng(2049)
        streams = [rk.TokenStream(frames=rng.integers(0, quantizer.codebook_size,
                                                      size=(n, quantizer.num_layers)),
                                  token_rate_hz=50.0, codebook_size=quantizer.codebook_size,
                                  source_id=f"s{i}")
                   for i, n in enumerate((0, 700, 0, 1, 2049, 0))]
        case, tokens, out = (f"{name}/decode-multi-stream", f"{name}-multi-stream.jsonl",
                             f"{name}-decode-multi-stream.rvqv")
        rk.write_token_streams(str(fp.work / tokens), streams)
        fp.emit(f"{case}/{tokens}", (fp.work / tokens).read_bytes())
        fp.cli(case, "decode", "--codebook", f"{name}.rvqc", "--tokens", tokens, "--out", out,
               outputs=(out,))


def _token_layout_cases(fp: Fingerprint) -> None:
    """Decode and analyze of `plain-t1.jsonl` rewritten in layouts that the
    writer does not use, and with one code made malformed."""
    line = (fp.work / "plain-t1.jsonl").read_text().rstrip("\n")
    record = json.loads(line)
    codes_last = {key: record[key] for key in ("codebook_size", "id", "layers", "token_rate_hz")}
    first = f'"codes":[[{record["codes"][0][0]},'
    layouts = {
        "spaces": json.dumps(record),
        "codes-first": json.dumps({"codes": record["codes"], **codes_last},
                                  separators=(",", ":")),
        "keys-reordered": json.dumps({**codes_last, "codes": record["codes"]},
                                     separators=(",", ":")),
        "codes-in-id": json.dumps({**record, "id": 'a"codes":[[0,0,0]]}'},
                                  separators=(",", ":")),
        # Ends in `"b\"codes":[[1,1,1]]}`: the last `"codes":[` is not the codes key.
        "codes-in-key": json.dumps({**record, 'b"codes': [[1, 1, 1]]}, separators=(",", ":")),
        "leading-zero": line.replace(first, first.replace("[[", "[[0"), 1),
        "long-code": line.replace(first, '"codes":[[1234567890,', 1),
    }
    for name, text in layouts.items():
        case, tokens = f"tokens-{name}", f"tokens-{name}.jsonl"
        (fp.work / tokens).write_text(text + "\n")
        fp.emit(f"{case}/{tokens}", (fp.work / tokens).read_bytes())
        fp.cli(f"{case}/decode", "decode", "--codebook", "plain.rvqc", "--tokens", tokens,
               "--out", f"{case}.rvqv", outputs=(f"{case}.rvqv",))
        fp.cli(f"{case}/analyze", "analyze", "--tokens", tokens, "--layer", "3")


def _long_line_cases(fp: Fingerprint, rk) -> None:
    """Decode and analyze of one seeded 32,768-frame line on `plain.rvqc`,
    whose codes text spans several parse blocks, and of a copy with a
    leading zero in the last frame, which the compact reader rejects."""
    rng = np.random.default_rng(2026)
    stream = rk.TokenStream(frames=rng.integers(0, 32, size=(32768, 3)), token_rate_hz=75.0,
                            codebook_size=32, source_id="long")
    rk.write_token_streams(str(fp.work / "long.jsonl"), [stream])
    line = (fp.work / "long.jsonl").read_text()
    last = line.rfind("],[") + 3
    for name, text in (("long-line", line), ("long-line-leading-zero",
                                              line[:last] + "0" + line[last:])):
        case, tokens = f"tokens-{name}", f"tokens-{name}.jsonl"
        (fp.work / tokens).write_text(text)
        fp.emit(f"{case}/{tokens}", (fp.work / tokens).read_bytes())
        fp.cli(f"{case}/decode", "decode", "--codebook", "plain.rvqc", "--tokens", tokens,
               "--out", f"{case}.rvqv", outputs=(f"{case}.rvqv",))
        fp.cli(f"{case}/analyze", "analyze", "--tokens", tokens, "--layer", "3")


def _lookup_cases(fp: Fingerprint, rk) -> None:
    """`nearest_codes` on random codebooks: copies, zeros, rounding, scales."""
    rng = np.random.default_rng(99)
    for n in range(40):
        k, q = int(rng.integers(1, 300)), int(rng.integers(1, 24))
        base = rng.normal(size=(k, q))
        scale = 10.0 ** rng.uniform(-5, 4)
        entries = base * scale
        kind = n % 4
        if kind == 1:
            entries[k // 2 :] = entries[: k - k // 2]
        elif kind == 2:
            entries[k // 2 :] = 0.0
        elif kind == 3:  # rounded at the codebook's own scale, so ties survive every scale
            entries = np.round(base, 1) * scale
        queries = np.concatenate([entries[rng.integers(0, k, size=20)],
                                  rng.normal(size=(30, q)) * np.abs(entries).max()])
        for metric in ("euclidean", "cosine"):
            cb = rk.Codebook.from_entries(entries, metric=metric)
            fp.call(f"lib/nearest-codes-{n}-{metric}", rk.nearest_codes, queries, cb)
    _multi_block_cases(fp, rk)
    _float32_edge_cases(fp, rk)


def _multi_block_cases(fp: Fingerprint, rk) -> None:
    """`nearest_codes` and `assign_batch` on 1,200 queries at K=1024, more
    rows than one lookup block holds, with runs of one query across the row
    counts where blocks may end and entries copied from others: at q=32
    under both metrics, and at q=8 (the projected codec's shape) under
    cosine."""
    _multi_block_lookups(fp, rk, 1024, 32, (128, 256, 512, 1024), ("euclidean", "cosine"), "")
    _multi_block_lookups(fp, rk, 1208, 8, (64, 128, 192, 256, 512, 1024), ("cosine",), "-q8")


def _multi_block_lookups(fp: Fingerprint, rk, seed: int, q: int, edges: tuple,
                         metrics: tuple, suffix: str) -> None:
    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(1024, q))
    entries[640:] = entries[rng.integers(0, 640, size=384)]
    queries = np.concatenate([entries[rng.integers(0, 1024, size=400)],
                              rng.normal(size=(800, q))])
    queries = queries[rng.permutation(1200)]
    for edge in edges:
        queries[edge - 8 : edge + 8] = entries[edge % 1024 + 100]
    for metric in metrics:
        cb = rk.Codebook.from_entries(entries, metric=metric)
        fp.call(f"lib/nearest-codes-multi-block-{metric}{suffix}", rk.nearest_codes, queries, cb)
        fp.call(f"lib/assign-batch-multi-block-{metric}{suffix}",
                lambda *args: (rk.vq.assign_batch(*args),), queries, entries, metric)


def _float32_edge_cases(fp: Fingerprint, rk) -> None:
    """Euclidean `nearest_codes` and `assign_batch` where a float32 score is
    too coarse to rank the entries: clusters of entries 3e-8 apart (about
    half a float32 ulp) with components near 1e-40 (subnormal in float32)
    and near 1e20 (squares past float32's range), an integer lattice at 1e8
    (float32 spacing 8), and entries a few float32 ulps apart. Half the
    queries are entries."""
    rng = np.random.default_rng(3240)
    for q in (8, 32):
        base = rng.normal(size=(16, q))
        cluster = base[rng.integers(0, 16, size=512)]
        cluster += 3e-8 * rng.normal(size=cluster.shape)
        lattice = 1e8 + np.round(4.0 * rng.normal(size=(512, q)))
        ulps = np.float32(0.7) + rng.integers(-3, 4, size=(512, q)) * np.spacing(np.float32(0.7))
        books = {"tiny": 1e-40 * cluster, "huge": 1e20 * cluster, "offset-lattice": lattice,
                 "f32-ulps": ulps.astype(np.float64)}
        for name, entries in books.items():
            spread = entries.std(axis=0)
            queries = np.concatenate([entries[rng.integers(0, 512, size=150)],
                                      entries[rng.integers(0, 512, size=150)]
                                      + spread * rng.normal(size=(150, q))])
            case = f"{name}-q{q}"
            fp.call(f"lib/nearest-codes-f32-edge-{case}", rk.nearest_codes, queries,
                    rk.Codebook.from_entries(entries))
            fp.call(f"lib/assign-batch-f32-edge-{case}",
                    lambda *args: (rk.vq.assign_batch(*args),), queries, entries, "euclidean")


def _training_cases(fp: Fingerprint, rk) -> None:
    fp.cli("train-ema", "train", "--synth", "modes=8,count=600", "--latent-dim", "8",
           "--layers", "3", "--codebook-size", "32", "--steps", "80", "--seed", "3",
           "--out", "ema.rvqc", outputs=("ema.rvqc",))
    # The shape of the benchmark's codec-euclid training run.
    fp.cli("train-ema-restart", "train", "--synth", "modes=256,count=8192",
           "--latent-dim", "32", "--scheme", "ema-restart", "--layers", "8",
           "--codebook-size", "1024", "--steps", "60", "--batch-size", "256",
           "--restart-period", "20", "--seed", "11", "--out", "restart.rvqc",
           outputs=("restart.rvqc",))
    # Its deep layers hold hundreds of copies each, as a bench-shaped run leaves.
    _encode_cases(fp, rk, "train-ema-restart", rk.load_quantizer(str(fp.work / "restart.rvqc")))
    fp.cli("train-ema-cosine", "train", "--synth", "modes=8,count=600", "--latent-dim", "8",
           "--metric", "cosine", "--init", "random", "--layers", "2", "--codebook-size", "32",
           "--steps", "60", "--seed", "4", "--out", "cos.rvqc", outputs=("cos.rvqc",))
    fp.cli("train-projected", "train", "--synth", "modes=8,count=600", "--latent-dim", "16",
           "--scheme", "projected", "--quant-dim", "4", "--init", "random", "--layers", "3",
           "--codebook-size", "32", "--steps", "80", "--seed", "5", "--out", "proj.rvqc",
           outputs=("proj.rvqc",))
    # Parameter updates that overflow the entries (codebook weight) or the
    # input projection (commitment weight): numerical failures, no output.
    for term in ("codebook", "commitment"):
        fp.cli(f"train-projected-diverging-{term}", "train", "--synth", "modes=4,count=256",
               "--scheme", "projected", "--latent-dim", "16", "--quant-dim", "4",
               "--codebook-size", "16", "--steps", "20", f"--{term}-weight", "1e300",
               "--learning-rate", "1e10", "--out", f"diverging-{term}.rvqc",
               outputs=(f"diverging-{term}.rvqc",))

    # Cosine codebooks with zero entries, and a corpus whose layer-2 residuals
    # are zero where the last restart copied its rows into layer 1: both
    # train, and both encode.
    fp.cli("train-projected-kmeans", "train", "--synth", "modes=512,count=3072",
           "--scheme", "projected", "--layers", "2", "--codebook-size", "1024",
           "--latent-dim", "64", "--quant-dim", "8", "--steps", "100", "--batch-size", "256",
           "--seed", "0", "--out", "proj-kmeans.rvqc", outputs=("proj-kmeans.rvqc",))
    rk.write_vectors(str(fp.work / "held-out-64.rvqv"),
                     rk.make_corpus(rk.CorpusSpec(dims=64, count=300, seed=1)))
    fp.cli("encode-projected-kmeans", "encode", "--codebook", "proj-kmeans.rvqc",
           "--input", "held-out-64.rvqv", "--out", "proj-kmeans.jsonl",
           outputs=("proj-kmeans.jsonl",))
    rk.write_vectors(str(fp.work / "restart-corpus.rvqv"),
                     rk.make_corpus(rk.CorpusSpec(num_components=12, dims=16, separation=5,
                                                  count=1500, seed=3)))
    for init in ("kmeans", "random"):
        case, book = f"ema-restart-cosine-{init}", f"restart-cosine-{init}.rvqc"
        fp.cli(f"train-{case}", "train", "--corpus", "restart-corpus.rvqv",
               "--scheme", "ema-restart", "--metric", "cosine", "--init", init, "--layers", "2",
               "--codebook-size", "512", "--latent-dim", "16", "--steps", "20",
               "--batch-size", "64", "--restart-period", "20", "--seed", "9", "--out", book,
               outputs=(book,))
        fp.cli(f"encode-{case}", "encode", "--codebook", book, "--input", "restart-corpus.rvqv",
               "--out", f"{case}.jsonl", outputs=(f"{case}.jsonl",))

    corpus = rk.make_corpus(rk.CorpusSpec(num_components=12, dims=8, separation=6.0,
                                          count=1024, seed=44))
    # Also an all-zero sample and one with fewer distinct rows than K, where
    # k-means++ runs out of D^2 weight, an integer lattice at 1e8, where its
    # expanded distances err by more than the gaps between exact ones, and
    # a sample whose squares are a few subnormal units; the generator's next
    # draw shows whether it was left where it was.
    samples = {"": corpus, "-all-zero": np.zeros((256, 8)),
               "-few-distinct": corpus[np.arange(1024) % 40],
               "-offset-lattice": 1e8 + np.round(corpus), "-tiny": 3e-162 * corpus}
    for suffix, sample in samples.items():
        gen = np.random.default_rng(1)
        cb = rk.kmeans_init(sample, 64, rng=gen)
        fp.arrays(f"lib/kmeans-init{suffix}", cb.entries, cb.ema_cluster_size, cb.ema_embed_sum,
                  gen.integers(2**63, size=1))
    for scheme, extra in (("ema", {}), ("ema_restart", {"restart_period": 20}),
                          ("projected", {"quant_dim": 4, "init": "random"})):
        config = rk.TrainConfig(scheme=scheme, num_layers=3, codebook_size=64, latent_dim=8,
                                steps=60, seed=44, **extra)
        quantizer, report = rk.train_quantizer(corpus, config)
        fp.arrays(f"lib/train-{scheme}", report.mse, report.codebook, report.utilization,
                  *(layer.entries for layer in quantizer.layers))


def _generation_cases(fp: Fingerprint) -> None:
    fp.cli("mlm-sim-oracle", "mlm-sim", "--frames", "40", "--layers", "4",
           "--codebook-size", "64", "--iterations", "6", "--prompt-frames", "5", "--seed", "2",
           "--out", "mlm.jsonl", "--truth-out", "truth.jsonl",
           outputs=("mlm.jsonl", "truth.jsonl"))
    fp.cli("mlm-sim-uniform", "mlm-sim", "--model", "uniform", "--frames", "30",
           "--cfg", "1:3", "--temperature", "0.7", "--noise-seed", "9", "--seed", "3",
           "--out", "mlm-u.jsonl", outputs=("mlm-u.jsonl",))
    # K=1024 and 291 masked frames: the layer-1 rounds sample in several
    # 64-row blocks, where the cases above fit one.
    fp.cli("mlm-sim-blocks", "mlm-sim", "--frames", "320", "--layers", "3",
           "--codebook-size", "1024", "--prompt-frames", "29", "--temperature", "0.3",
           "--cfg=-1:2", "--margin", "2", "--noise-seed", "5", "--seed", "11",
           "--out", "mlm-b.jsonl", outputs=("mlm-b.jsonl",))
    fp.cli("arnar-sim-oracle", "arnar-sim", "--max-frames", "40", "--layers", "4",
           "--codebook-size", "64", "--prompt-frames", "4", "--seed", "6",
           "--out", "arnar.jsonl", outputs=("arnar.jsonl",))
    fp.cli("arnar-sim-ngram", "arnar-sim", "--ar", "ngram", "--train-tokens", "plain-t1.jsonl",
           "--support", "plain-t1.jsonl", "--max-frames", "200", "--layers", "3",
           "--codebook-size", "32", "--ngram-order", "3", "--seed", "7",
           "--out", "ngram.jsonl", outputs=("ngram.jsonl",))
    fp.cli("arnar-sim-cycling", "arnar-sim", "--ar", "cycling", "--max-frames", "30",
           "--layers", "2", "--codebook-size", "16", "--seed", "8",
           "--out", "cycling.jsonl", outputs=("cycling.jsonl",))


def _generator_cases(fp: Fingerprint, rk) -> None:
    """The library schedulers on the toy oracles, including the oracle forms
    that stand for an always-EOS, a cycling and a flat-score model."""
    k, layers = 16, 3
    rng = np.random.default_rng(21)
    truth = rng.integers(0, k, size=(24, layers)).astype(np.int32)
    condition = np.arange(24)
    prompt = rk.TokenStream(frames=truth[:3], token_rate_hz=50.0, codebook_size=k, source_id="fp")
    empty = rk.TokenStream(frames=np.empty((0, layers), dtype=np.int32), token_rate_hz=25.0,
                           codebook_size=k)
    ar_prompt = _stream_arg(rk.generate_ar, "prompt_codes")
    eos = rk.OracleArModel(np.empty(0, dtype=np.int64), k)
    fp.arrays("lib/generate-ar-empty-truth",
              rk.generate_ar(eos, condition, ar_prompt(prompt), rk.GenConfig(max_frames=10)))
    try:
        rk.generate_text_to_tokens(eos, rk.OracleNarModel(truth, codebook_size=k), condition,
                                   prompt, rk.GenConfig(rng_seed=1))
        fp.emit("lib/text-to-tokens-empty-truth", b"<no exception>")
    except Exception as exc:
        fp.emit("lib/text-to-tokens-empty-truth", f"{type(exc).__name__}: {exc}".encode())
    cycling = rk.OracleArModel(np.arange(30) % k, k)
    fp.arrays("lib/generate-ar-cycling",
              rk.generate_ar(cycling, condition, ar_prompt(empty),
                             rk.GenConfig(temperature=0.7, max_frames=30, rng_seed=5)))
    flat = rk.OracleScoreModel(truth, margin=0.0, codebook_size=k)
    stream, stats = rk.generate_parallel(flat, condition, prompt, 24,
                                         rk.DecodeSchedule(temperature=0.7, rng_seed=6))
    fp.arrays("lib/generate-parallel-flat", stream.frames, stats.forward_passes,
              stats.unconditional_passes, stats.commit_counts)
    # Checkouts where generate_nar takes the layer count besides the prompt
    # still run, with the prompt's.
    extra = (layers,) if "num_layers" in inspect.signature(rk.generate_nar).parameters else ()
    for margin in (50.0, 0.0):
        nar = rk.OracleNarModel(truth[3:], codebook_size=k, margin=margin)
        stream = rk.generate_nar(nar, condition, prompt, truth[3:, 0], *extra)
        fp.arrays(f"lib/generate-nar-margin-{margin:g}", stream.frames)
    stream = rk.generate_nar(rk.OracleNarModel(truth, codebook_size=k), condition, empty,
                             truth[:, 0], *extra)
    fp.arrays("lib/generate-nar-empty-prompt", stream.frames, stream.token_rate_hz,
              stream.layers, stream.codebook_size)
    fp.emit("lib/generate-nar-empty-prompt/id", stream.source_id.encode())
    _ngram_cases(fp, rk)
    _oracle_check_cases(fp, rk)


def _stream_arg(func, old_name: str):
    """How to pass a token stream to `func`: as it is, or as its first-layer
    codes in checkouts where `func` took those, as `old_name`, instead."""
    if old_name in inspect.signature(func).parameters:
        return lambda stream: stream.frames[:, 0]
    return lambda stream: stream


def _ngram_cases(fp: Fingerprint, rk) -> None:
    """The n-gram counts of `train_ngram_ar`: each context, led by its length,
    then its count vector. The `order-*` cases count one stream and one empty
    stream, in sorted context order. The `streams-order-*` cases count a
    random stream, an empty one and one that laps a 13-code cycle, so that
    long contexts recur, in the model's own order. Each `perplexity` case
    scores a case's first stream under its model."""
    scored = _stream_arg(rk.sequence_perplexity, "codes")
    k = 6
    codes = np.random.default_rng(22).integers(0, k, size=(25, 1))
    rng = np.random.default_rng(23)
    laps = np.tile(rng.integers(0, k, size=(13, 1)), (16, 1))[:200]
    cases = (
        ("order", (codes, codes[:0]), ((1, "1"), (2, "2"), (3, "3"), (10**12, "huge")), True),
        ("streams-order", (rng.integers(0, k, size=(40, 1)), codes[:0], laps),
         ((5, "5"), (17, "17"), (33, "33"), (10**12, "huge")), False),
    )
    for name, frames_list, orders, in_sorted_order in cases:
        streams = [rk.TokenStream(frames=frames, token_rate_hz=50.0, codebook_size=k)
                   for frames in frames_list]
        for order, label in orders:
            model = rk.train_ngram_ar(streams, order=order)
            pairs = model._counts.items()
            if in_sorted_order:
                pairs = sorted(pairs, key=lambda pair: pair[0])
            fp.arrays(f"lib/train-ngram-{name}-{label}",
                      *(a for ctx, vec in pairs for a in (np.array([len(ctx), *ctx]), vec)))
            fp.arrays(f"lib/train-ngram-{name}-{label}/perplexity",
                      np.float64(rk.sequence_perplexity(model, None, scored(streams[0]))))


def _oracle_check_cases(fp: Fingerprint, rk) -> None:
    """Each oracle built on a truth grid with one code of K, or of -1, and
    called once: the logits it returns, or the error it raises."""
    k = 4
    first_call = {
        "ar": lambda truth: rk.OracleArModel(truth[:, 0], k).next_logits(None, [], []),
        "nar": lambda truth: rk.OracleNarModel(truth, codebook_size=k).layer_logits(
            None, None, truth[:, :1], 1),
        "score": lambda truth: rk.OracleScoreModel(truth, codebook_size=k).score(
            truth, 1, None, "conditional"),
    }
    for code, label in ((k, "above"), (-1, "negative")):
        truth = np.zeros((3, 2), dtype=np.int64)
        truth[0] = code
        for name, call in first_call.items():
            case = f"lib/oracle-truth-check-{name}-{label}"
            try:
                fp.arrays(case, call(truth))
            except Exception as exc:
                fp.emit(case, f"{type(exc).__name__}: {exc}".encode())


def _demo_cases(fp: Fingerprint) -> None:
    for demo in sorted((fp.repo / "demos").glob("*.py")):
        before = set(fp.work.iterdir())
        fp.run(f"demo-{demo.stem}", [sys.executable, str(demo)])
        for path in sorted(set(fp.work.iterdir()) - before):
            fp.emit(f"demo-{demo.stem}/{path.name}", path.read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--codebook", type=Path, action="append", default=[],
                        help="extra codebook file for encode, decode and analyze")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))
    import rvqkit as rk

    with tempfile.TemporaryDirectory(prefix="rvqkit-fingerprint-") as work:
        fp = Fingerprint(repo, Path(work))
        _codebook_cases(fp, rk, [p.resolve() for p in args.codebook])
        _lookup_cases(fp, rk)
        _training_cases(fp, rk)
        _generation_cases(fp)
        _generator_cases(fp, rk)
        _demo_cases(fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
