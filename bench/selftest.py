"""Self-test of the benchmark's checkers and file parsers.

    python3 bench/selftest.py

Each checker must pass on correct program output and report a failure when one
value is changed; the benchmark's RVQC reader must agree with
`rvqkit.io.load_quantizer`; and the metric tables in the code must match
BENCHMARK.json. Exits 0 when every case behaves, 1 otherwise.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import io
import json
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np

import rvqkit.cli
import rvqkit.io
from rvqkit.rvq import PROJECTED, RvqQuantizer, rvq_decode_batch, rvq_encode_batch
from rvqkit.vq import COSINE, Codebook, ProjectionPair

import checks
import formats
import run
import tracing

FAILURES = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def tiny_plain() -> RvqQuantizer:
    """Two layers, K=4, q=3; layer 1 holds a duplicated entry (a tie)."""
    first = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -3.0]])
    second = np.array([[0.5, 0.5, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.5]])
    return RvqQuantizer(layers=[Codebook.from_entries(first), Codebook.from_entries(second)], latent_dim=3)


def tiny_projected() -> RvqQuantizer:
    rng = np.random.default_rng(5)
    pair = ProjectionPair(proj_in=rng.standard_normal((4, 2)), proj_out=rng.standard_normal((2, 4)))
    layers = [Codebook.from_entries(rng.standard_normal((6, 2)), metric=COSINE) for _ in range(2)]
    layers[0].entries[3] = layers[0].entries[1]  # a tie
    return RvqQuantizer(layers=layers, latent_dim=4, scheme=PROJECTED, projections=[pair, pair])


def reader_agrees(work: str, quantizer: RvqQuantizer, name: str) -> formats.Codebooks:
    path = os.path.join(work, name)
    rvqkit.io.save_quantizer(path, quantizer)
    ours, theirs = formats.read_codebooks(path), rvqkit.io.load_quantizer(path)
    same = len(ours.entries) == theirs.num_layers and all(
        np.array_equal(e.astype(np.float64), layer.entries) for e, layer in zip(ours.entries, theirs.layers)
    )
    if theirs.scheme == PROJECTED:
        same = same and ours.projected and all(
            np.array_equal(pi.astype(np.float64), pair.proj_in) and np.array_equal(po.astype(np.float64), pair.proj_out)
            for pi, po, pair in zip(ours.proj_in, ours.proj_out, theirs.projections)
        )
    expect(same and ours.cosine == (theirs.metric == COSINE), f"RVQC reader agrees with load_quantizer ({name})")
    return ours


def codec_cases(work: str, quantizer: RvqQuantizer, name: str, latents: np.ndarray) -> None:
    books = reader_agrees(work, quantizer, name + ".rvqc")
    vectors_path = os.path.join(work, name + ".rvqv")
    formats.write_vectors(vectors_path, latents)
    vectors = formats.read_vectors(vectors_path)
    codes = rvq_encode_batch(vectors.astype(np.float64), quantizer)[0].astype(np.int64)
    rows = np.arange(len(vectors))
    expect(not checks.check_encoded(vectors, books, codes, rows), f"{name}: program codes pass brute force")

    tokens = os.path.join(work, name + ".jsonl")
    changed = codes.copy()
    changed[2, 1] = (changed[2, 1] + 1) % quantizer.codebook_size
    formats.write_tokens(tokens, [("u", changed)], quantizer.codebook_size)
    expect(bool(checks.check_encoded(vectors, books, formats.token_codes(tokens), rows)),
           f"{name}: a token file with one code changed is reported")

    decoded_path = os.path.join(work, name + "-dec.rvqv")
    rvqkit.io.write_vectors(decoded_path, rvq_decode_batch(codes, quantizer))
    decoded = formats.read_vectors(decoded_path).copy()
    expect(not checks.check_decoded(decoded, books, codes), f"{name}: program decode passes")
    decoded[1, 2] = decoded[1, 2] * (1 + 1e-5) + 1e-5
    expect(bool(checks.check_decoded(decoded, books, codes)), f"{name}: a decoded file with one value changed is reported")


def mlm_cases(work: str) -> None:
    out, truth = os.path.join(work, "mlm.jsonl"), os.path.join(work, "truth.jsonl")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rvqkit.cli.main(["mlm-sim", "--frames", "32", "--out", out, "--truth-out", truth])
    expect(not checks.check_mlm(buffer.getvalue(), out, truth, 5, 8), "mlm-sim: oracle output passes")
    record = formats.read_tokens(out)[0]
    record["codes"][7][0] = (record["codes"][7][0] + 1) % 1024
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    expect(bool(checks.check_mlm(buffer.getvalue(), out, truth, 5, 8)),
           "mlm-sim: a grid that differs from its truth is reported")


def arnar_cases(work: str) -> None:
    successor = np.roll(np.arange(16), -1)
    p_follow = checks.follow_probability(np.full(16, 64), np.zeros(16), 16, 1e-3, 0.3)
    path = os.path.join(work, "ar.jsonl")
    stdout = "frames: 40\nar_steps: 40\nnar_passes: 1\n"
    layer1 = np.arange(40) % 16
    formats.write_tokens(path, [("g", np.stack([layer1, layer1], axis=1))], 16)
    expect(not checks.check_arnar(stdout, path, 2, 16, 40, successor, p_follow), "arnar-sim: mapped walk passes")
    layer1[20] = 3
    formats.write_tokens(path, [("g", np.stack([layer1, layer1], axis=1))], 16)
    expect(bool(checks.check_arnar(stdout, path, 2, 16, 40, successor, p_follow)),
           "arnar-sim: an off-map step at near-zero odds is reported")


def benchmark_json_matches() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(per_layer == {n: u for n, (u, _, _) in tracing.PER_LAYER.items()},
           "per-layer metrics match BENCHMARK.json")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ours = dict(run.END_TO_END) | {"setup_s": "s", "peak_rss_mb": "MB"}
    expect(end_to_end == ours, "end-to-end metrics match BENCHMARK.json")


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        latents = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.5, 0.5, 0.0], [0.0, 0.0, -3.0],
                            [1.0, 0.25, 0.0], [0.3, -0.2, 0.9]])
        codec_cases(work, tiny_plain(), "plain", latents)
        codec_cases(work, tiny_projected(), "projected", np.random.default_rng(6).standard_normal((6, 4)))
        mlm_cases(work)
        arnar_cases(work)
    benchmark_json_matches()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
