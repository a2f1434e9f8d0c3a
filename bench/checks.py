"""Output checks. Each returns a list of failure messages; empty means passed.

Every expected value is computed here from the benchmark's own inputs and its
own file parsers (`formats`), or is a property the method must have. None is
compared with a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

import formats

# Cosine distances are computed twice in float64 over q <= 64 terms, so a
# correct choice is within a few ulp of the minimum; 1e-9 is far above that
# and far below the gap between distinct codes.
COSINE_TOLERANCE = 1e-9
# A float64 sum rounded to float32 may differ by one float32 ulp when the
# float64 sums were accumulated in another order (projected decode goes
# through a GEMM); 2**-22 relative is two ulp.
PROJECTED_DECODE_RTOL = 2.0**-22
# The arnar transition check fails a correct sampler with at most this chance.
FALSE_ALARM = 1e-9


def parse_kv(stdout: str) -> dict[str, str]:
    """The `key: value` lines of a command's output."""
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def check_train(stdout: str, layers: int, codebook_size: int, total_variance: float | None):
    fields = parse_kv(stdout)
    errors = []
    if fields.get("layers") != str(layers) or fields.get("codebook_size") != str(codebook_size):
        errors.append(f"train: wrong shape in output {fields}")
    mse = float(fields.get("final_mse", "nan"))
    if not math.isfinite(mse):
        errors.append(f"train: final_mse {mse} is not finite")
    elif total_variance is not None and not mse < total_variance:
        errors.append(f"train: final_mse {mse} is not below the corpus variance {total_variance}")
    return errors


def _project(vectors: np.ndarray, books: formats.Codebooks) -> np.ndarray:
    residual = vectors.astype(np.float64)
    if books.projected:
        residual = residual @ books.proj_in[0].astype(np.float64)
    return residual


def check_encoded(vectors: np.ndarray, books: formats.Codebooks, codes: np.ndarray, rows):
    """Compare codes of the sampled rows with a brute-force residual recursion.

    Euclidean: an independent recursion over explicit float64 differences
    must give identical codes, ties to the lowest index. Cosine: along the
    program's own path, each chosen code's cosine distance must be within
    COSINE_TOLERANCE of the minimum over the codebook.
    """
    rows = np.asarray(rows)
    if codes.shape != (vectors.shape[0], len(books.entries)):
        return [f"encode: codes have shape {codes.shape}, expected {(vectors.shape[0], len(books.entries))}"]
    residual = _project(vectors[rows], books)
    chosen = codes[rows]
    errors = []
    for layer, entries32 in enumerate(books.entries):
        entries = entries32.astype(np.float64)
        if books.cosine:
            dots = (residual[:, None, :] * entries[None, :, :]).sum(axis=2)
            norms = np.sqrt((residual * residual).sum(axis=1))[:, None] * np.sqrt(
                (entries * entries).sum(axis=1)
            )[None, :]
            dist = 1.0 - dots / norms
            picked = dist[np.arange(len(rows)), chosen[:, layer]]
            bad = np.flatnonzero(picked > dist.min(axis=1) + COSINE_TOLERANCE)
            step = chosen[:, layer]
        else:
            diff = residual[:, None, :] - entries[None, :, :]
            dist = (diff * diff).sum(axis=2)
            step = np.argmin(dist, axis=1)  # first minimum: ties to the lowest index
            bad = np.flatnonzero(step != chosen[:, layer])
        if bad.size:
            errors.append(
                f"encode: layer {layer + 1}: {bad.size} sampled frames disagree with brute "
                f"force, first at frame {int(rows[bad[0]])}"
            )
            return errors
        residual = residual - entries[step]
    return errors


def expected_decode(books: formats.Codebooks, codes: np.ndarray) -> np.ndarray:
    """Float32 sum of the selected entries, projected out on the projected scheme."""
    acc = np.zeros((codes.shape[0], books.latent_dim))
    for layer, entries in enumerate(books.entries):
        picked = entries.astype(np.float64)[codes[:, layer]]
        if books.projected:
            picked = picked @ books.proj_out[layer].astype(np.float64)
        acc += picked
    return acc.astype(np.float32)


def check_decoded(decoded: np.ndarray, books: formats.Codebooks, codes: np.ndarray):
    expected = expected_decode(books, codes)
    if decoded.shape != expected.shape:
        return [f"decode: output shape {decoded.shape}, expected {expected.shape}"]
    if books.projected:
        bad = np.abs(decoded.astype(np.float64) - expected) > PROJECTED_DECODE_RTOL * np.abs(expected)
    else:
        bad = decoded != expected
    if bad.any():
        row = int(np.flatnonzero(bad.any(axis=1))[0])
        return [f"decode: {int(bad.sum())} values differ from the sum of entries, first in frame {row}"]
    return []


def check_analyze(stdout: str, token_paths: list[str], layer: int, codebook_size: int):
    """Counts, used codes, entropy and the rank table against a json-module count."""
    counts = Counter()
    for path in token_paths:
        for record in formats.read_tokens(path):
            counts.update(frame[layer - 1] for frame in record["codes"])
    total = sum(counts.values())
    entropy = -sum(c / total * math.log2(c / total) for c in counts.values())
    ranked = sorted(counts.values(), reverse=True) + [0] * (codebook_size - len(counts))

    fields = parse_kv(stdout)
    errors = []
    if int(fields.get("total_frames", -1)) != total:
        errors.append(f"analyze: total_frames {fields.get('total_frames')} != {total}")
    if int(fields.get("used_codes", -1)) != len(counts):
        errors.append(f"analyze: used_codes {fields.get('used_codes')} != {len(counts)}")
    if abs(float(fields.get("entropy_bits", "nan")) - entropy) > 1e-9 * max(1.0, entropy):
        errors.append(f"analyze: entropy_bits {fields.get('entropy_bits')} != {entropy}")
    lines = stdout.splitlines()
    table = lines[lines.index("rank\tcount") + 1 :] if "rank\tcount" in lines else []
    if table != [f"{rank}\t{count}" for rank, count in enumerate(ranked, start=1)]:
        errors.append("analyze: rank-frequency table does not match the counted codes")
    return errors


def check_mlm(stdout: str, out_path: str, truth_path: str, iterations: int, layers: int):
    """Oracle recovery and the forward-pass accounting of the masked scheduler."""
    fields = parse_kv(stdout)
    errors = []
    if int(fields.get("forward_passes", -1)) != iterations + layers - 1:
        errors.append(f"mlm-sim: forward_passes {fields.get('forward_passes')} != {iterations + layers - 1}")
    if int(fields.get("unconditional_passes", -1)) != iterations:
        errors.append(f"mlm-sim: unconditional_passes {fields.get('unconditional_passes')} != {iterations}")
    generated, truth = formats.token_codes(out_path), formats.token_codes(truth_path)
    if generated.shape != truth.shape or not np.array_equal(generated, truth):
        errors.append("mlm-sim: generated grid differs from the oracle's truth grid")
    return errors


def follow_probability(n_follow, n_eos, codebook_size: int, smoothing: float, temperature: float):
    """Chance, per context, that the sampled next code is the mapped successor.

    The n-gram model gives class j the smoothed probability
    (count_j + s) / (total + s * (K + 1)); sampling at temperature T draws j
    with weight p_j ** (1 / T). A context has three kinds of class: the mapped
    successor (n_follow counts), EOS (n_eos counts) and K - 1 unseen codes.
    """
    log_follow = np.log(np.asarray(n_follow, dtype=np.float64) + smoothing) / temperature
    log_eos = np.log(np.asarray(n_eos, dtype=np.float64) + smoothing) / temperature
    log_other = math.log(smoothing) / temperature + math.log(codebook_size - 1)
    top = np.maximum(np.maximum(log_follow, log_eos), log_other)
    norm = np.exp(log_follow - top) + np.exp(log_eos - top) + np.exp(log_other - top)
    return np.exp(log_follow - top) / norm


def poisson_quantile(mean: float, false_alarm: float) -> int:
    """Smallest k with P(Poisson(mean) > k) <= false_alarm."""
    k = 0
    while True:
        tail = sum(
            math.exp(-mean + i * math.log(mean) - math.lgamma(i + 1)) if mean > 0 else 0.0
            for i in range(k + 1, k + 400)
        )
        if tail <= false_alarm:
            return k
        k += 1


def check_arnar(stdout, out_path, layers, codebook_size, max_frames, successor, p_follow):
    """Range, pass accounting, and the share of layer-1 steps that follow the map.

    Deviations from the map are independent rare events with per-step chance
    1 - p_follow[context]; the share must reach the level that a correct
    sampler misses with chance at most FALSE_ALARM (Poisson tail).
    """
    fields = parse_kv(stdout)
    codes = formats.token_codes(out_path)
    errors = []
    frames = int(fields.get("frames", -1))
    if codes.shape != (frames, layers) or not 1 <= frames <= max_frames:
        return [f"arnar-sim: output has shape {codes.shape}, reported frames {frames}"]
    if codes.min() < 0 or codes.max() >= codebook_size:
        errors.append("arnar-sim: code out of range")
    if int(fields.get("nar_passes", -1)) != layers - 1:
        errors.append(f"arnar-sim: nar_passes {fields.get('nar_passes')} != {layers - 1}")
    if int(fields.get("ar_steps", -1)) not in (frames, frames + 1):
        errors.append(f"arnar-sim: ar_steps {fields.get('ar_steps')} is not frames or frames + 1")
    layer1 = codes[:, 0]
    steps = len(layer1) - 1
    if steps > 0:
        follows = int((successor[layer1[:-1]] == layer1[1:]).sum())
        slack = poisson_quantile(float((1.0 - p_follow[layer1[:-1]]).sum()), FALSE_ALARM)
        if follows < steps - slack:
            errors.append(
                f"arnar-sim: {follows} of {steps} layer-1 transitions follow the map, "
                f"below the bound {steps - slack}"
            )
    return errors
