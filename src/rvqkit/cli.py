"""Command-line surface tying the library into reproducible experiments.

Subcommands: train, encode, decode, analyze, mlm-sim, arnar-sim. All output
is line-oriented `key: value` text; every command is deterministic given
--seed. Exit codes: 0 success, 2 usage error, 3 data/format error,
4 numerical failure. The parser range-checks every numeric flag before any
handler runs; handlers raise UsageError only for --synth and flag pairs.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from . import io as rvqio
from ._rng import positive_finite
from .analytics import rank_frequency, utilization
from .arnar import (
    GenConfig,
    OracleArModel,
    OracleNarModel,
    generate_text_to_tokens,
    train_ngram_ar,
)
from .errors import EmptyGenerationError, FormatError, NumericalError
from .mlm import DecodeSchedule, OracleScoreModel, generate_parallel
from .rvq import TokenStream, bitrate_bps, code_bits, rvq_decode_batch, rvq_encode_batch
from .training import (
    SCHEME_PROJECTED,
    CorpusSpec,
    TrainConfig,
    make_corpus,
    train_quantizer,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_ENCODE_CHUNK = 1024  # frames per worker unit; fixed so results ignore --threads


class UsageError(Exception):
    pass


# What each error a command raises exits with; any other exception is a bug
# and keeps its traceback. A FormatError or FileNotFoundError is a ValueError
# or OSError, so bad files exit 3.
_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    NumericalError: EXIT_NUMERIC,
    EmptyGenerationError: EXIT_NUMERIC,
    ValueError: EXIT_DATA,
    OSError: EXIT_DATA,
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    return str(value)


def _emit(key: str, value) -> None:
    print(f"{key}: {_fmt(value)}")


def _ranged(wanted: str, convert, ok=lambda value: True):
    """An argparse `type=` (one per kind of flag, below) that reads a flag's
    text with `convert` and keeps the value only if `ok` holds for it; else
    the parser exits 2 with `argument --FLAG: must be WANTED, got 'TEXT'`."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")

    return parse


_INT_1 = _ranged("an integer >= 1", int, lambda n: n >= 1)
_INT_0 = _ranged("an integer >= 0", int, lambda n: n >= 0)
_INT_2 = _ranged("an integer >= 2", int, lambda n: n >= 2)  # arnar-sim's NAR stage needs layer 2
_POSITIVE = _ranged("positive and finite", lambda text: positive_finite(float(text), "value"))
_NON_NEGATIVE = _ranged("non-negative and finite", float, lambda x: 0 <= x < np.inf)
_FINITE = _ranged("finite", float, np.isfinite)
_DECAY = _ranged("in [0, 1)", float, lambda x: 0 <= x < 1)
_CFG = _ranged("START:END of two finite numbers", lambda text: tuple(map(float, text.split(":"))),
               lambda pair: len(pair) == 2 and np.isfinite(pair).all())


def _parse_synth_spec(text: str, seed: int, latent_dim: int) -> CorpusSpec:
    fields = {"modes": 8, "sep": 4.0, "count": 1024}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"--synth entry {part!r} is not key=value")
        key, raw = part.split("=", 1)
        if key not in fields:
            raise UsageError(f"--synth key {key!r} unknown (use modes,sep,count)")
        try:
            fields[key] = (_POSITIVE if key == "sep" else _INT_1)(raw)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"--synth {key} {exc}") from None
    return CorpusSpec(
        num_components=fields["modes"],
        dims=latent_dim,
        separation=fields["sep"],
        count=fields["count"],
        seed=seed,
    )


def cmd_train(args) -> int:
    scheme = args.scheme.replace("-", "_")
    if scheme != SCHEME_PROJECTED and args.quant_dim is not None:
        raise UsageError("--quant-dim only applies to --scheme projected")
    if scheme == SCHEME_PROJECTED and args.quant_dim is None:
        raise UsageError("--scheme projected requires --quant-dim")
    if scheme == SCHEME_PROJECTED and args.quant_dim > args.latent_dim:
        raise UsageError("--quant-dim must be <= --latent-dim")

    config = TrainConfig(
        scheme=scheme,
        num_layers=args.layers,
        codebook_size=args.codebook_size,
        latent_dim=args.latent_dim,
        quant_dim=args.quant_dim,
        metric=args.metric,
        decay=args.decay,
        commitment_weight=args.commitment_weight,
        codebook_weight=args.codebook_weight,
        learning_rate=args.learning_rate,
        steps=args.steps,
        batch_size=args.batch_size,
        seed=args.seed,
        restart_period=args.restart_period,
        init=args.init,
    )
    if args.corpus is not None:
        corpus = rvqio.read_vectors(args.corpus)
    else:
        corpus = make_corpus(_parse_synth_spec(args.synth, args.seed, args.latent_dim))
    quantizer, report = train_quantizer(corpus, config)
    rvqio.save_quantizer(args.out, quantizer)

    _emit("scheme", scheme)
    _emit("metric", quantizer.metric)
    _emit("layers", quantizer.num_layers)
    _emit("codebook_size", quantizer.codebook_size)
    _emit("latent_dim", quantizer.latent_dim)
    _emit("quant_dim", quantizer.quant_dim)
    _emit("steps", args.steps)
    _emit("final_mse", float(report.mse[-1]))
    for i, frac in enumerate(report.utilization, start=1):
        _emit(f"layer_{i}_utilization", float(frac))
    _emit("out", args.out)
    return EXIT_OK


def _encode_frames(quantizer, vectors: np.ndarray, threads: int) -> np.ndarray:
    # An empty file is one empty chunk, so its dimension is checked too.
    chunks = [
        vectors[lo : lo + _ENCODE_CHUNK]
        for lo in range(0, max(vectors.shape[0], 1), _ENCODE_CHUNK)
    ]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda c: rvq_encode_batch(c, quantizer)[0], chunks))
    else:
        parts = [rvq_encode_batch(c, quantizer)[0] for c in chunks]
    return np.concatenate(parts, axis=0)


def cmd_encode(args) -> int:
    quantizer = rvqio.load_quantizer(args.codebook)
    vectors = rvqio.read_vectors(args.input).astype(np.float64)

    frames = _encode_frames(quantizer, vectors, args.threads)
    stream = TokenStream(frames, args.token_rate, quantizer.codebook_size, args.id)
    rvqio.write_token_streams(args.out, [stream])

    k = quantizer.codebook_size
    bits = code_bits(k)
    _emit("frames", frames.shape[0])
    _emit("layers", quantizer.num_layers)
    _emit("token_rate_hz", float(args.token_rate))
    _emit("bits_per_frame", quantizer.num_layers * bits)
    if k & (k - 1):
        _emit("bit_accounting", f"codebook size {k} is not a power of two; using ceil(log2 K) = {bits} bits per code")
    _emit("bitrate_bps", bitrate_bps(quantizer, args.token_rate))
    _emit("out", args.out)
    return EXIT_OK


def cmd_decode(args) -> int:
    quantizer = rvqio.load_quantizer(args.codebook)
    streams = rvqio.read_token_streams(args.tokens)
    for stream in streams:
        if stream.layers != quantizer.num_layers:
            raise FormatError(
                f"stream {stream.source_id!r} has {stream.layers} layers, codebook has "
                f"{quantizer.num_layers}"
            )
        if stream.codebook_size != quantizer.codebook_size:
            raise FormatError(
                f"stream {stream.source_id!r} codebook_size {stream.codebook_size} does not "
                f"match codebook {quantizer.codebook_size}"
            )
    total = sum(stream.num_frames for stream in streams)
    # Each stream is decoded on its own, straight into its rows of the
    # file's float32 array (the assignment rounds as `astype` does), where a
    # sum past float32's range would read as inf.
    vectors = np.empty((total, quantizer.latent_dim), dtype="<f4")
    start = 0
    for stream in streams:
        if stream.num_frames:
            rows = vectors[start : start + stream.num_frames]
            rows[:] = rvq_decode_batch(stream.frames, quantizer)
            if not np.isfinite(rows).all():
                raise NumericalError("decoded vectors exceed the float32 range of the vector file")
            start += stream.num_frames
    rvqio.write_vectors(args.out, vectors)
    _emit("frames", total)
    _emit("dim", quantizer.latent_dim)
    _emit("out", args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    streams = []
    for path in args.tokens:
        streams.extend(rvqio.read_token_streams(path))
    layers = {s.layers for s in streams}
    if len(layers) == 1 and args.layer > max(layers):  # utilization reports mixed counts
        raise ValueError(f"--layer {args.layer} is above the token streams' {max(layers)} layers")
    report = utilization(streams, args.layer - 1)
    table = rank_frequency(report)
    summary = {
        "layer": args.layer,
        "total_frames": report.total_frames,
        "used_codes": report.used_codes,
        "utilization_fraction": report.utilization_fraction,
        "entropy_bits": report.entropy_bits,
        "perplexity": report.perplexity,
    }

    if args.format == "json-lines":
        import json

        print(json.dumps(summary, separators=(",", ":")))
        for rank, count in table:
            print(json.dumps({"rank": rank, "count": count}, separators=(",", ":")))
        return EXIT_OK

    for key, value in summary.items():
        _emit(key, value)
    print("rank\tcount")
    for rank, count in table:
        print(f"{rank}\t{count}")
    return EXIT_OK


def _sim_inputs(args, num_frames: int, source_id: str):
    """A simulator's hidden (num_frames, --layers) truth grid and condition,
    drawn from --seed, and a TokenStream builder with the run's metadata."""
    rng = np.random.default_rng(args.seed)
    truth = rng.integers(0, args.codebook_size, size=(num_frames, args.layers), dtype=np.int32)
    condition = rng.integers(0, 512, size=num_frames)
    make_stream = partial(
        TokenStream,
        token_rate_hz=args.token_rate,
        codebook_size=args.codebook_size,
        source_id=source_id,
    )
    return truth, condition, make_stream


def cmd_mlm_sim(args) -> int:
    if args.prompt_frames >= args.frames:
        raise UsageError("--prompt-frames must be smaller than --frames")
    truth, condition, make_stream = _sim_inputs(args, args.frames, "mlm-sim")

    if args.model == "oracle":
        model = OracleScoreModel(
            truth, margin=args.margin, noise_seed=args.noise_seed, codebook_size=args.codebook_size
        )
    else:  # flat scores in both modes; --margin and --noise-seed are ignored
        model = OracleScoreModel(truth, margin=0.0, codebook_size=args.codebook_size)

    prompt = make_stream(truth[: args.prompt_frames])
    schedule = DecodeSchedule(
        iterations_layer1=args.iterations,
        cfg_start=args.cfg[0],
        cfg_end=args.cfg[1],
        temperature=args.temperature,
        rng_seed=args.seed,
    )
    stream, stats = generate_parallel(model, condition, prompt, args.frames, schedule)
    rvqio.write_token_streams(args.out, [stream])
    if args.truth_out:
        rvqio.write_token_streams(args.truth_out, [make_stream(truth)])

    _emit("model", args.model)
    _emit("frames", args.frames)
    _emit("layers", args.layers)
    _emit("iterations_layer1", args.iterations)
    _emit("forward_passes", stats.forward_passes)
    _emit("unconditional_passes", stats.unconditional_passes)
    _emit("commit_counts", stats.commit_counts)
    _emit("out", args.out)
    return EXIT_OK


def cmd_arnar_sim(args) -> int:
    if args.ar == "ngram" and not args.train_tokens:
        raise UsageError("--ar ngram requires --train-tokens")
    if args.prompt_frames >= args.max_frames:
        raise UsageError("--prompt-frames must be smaller than --max-frames")
    truth, condition, make_stream = _sim_inputs(args, args.max_frames, "arnar-sim")
    support_streams = rvqio.read_token_streams(args.support) if args.support else None
    train_streams = rvqio.read_token_streams(args.train_tokens) if args.ar == "ngram" else []
    for what, streams in (("training", train_streams), ("support", support_streams or [])):
        for stream in streams:
            if stream.codebook_size != args.codebook_size:
                raise FormatError(
                    f"--codebook-size {args.codebook_size} does not match {what} stream "
                    f"{stream.source_id!r} ({stream.codebook_size})"
                )

    budget = args.max_frames - args.prompt_frames
    if args.ar == "oracle":
        ar = OracleArModel(truth[args.prompt_frames :, 0], args.codebook_size, margin=args.margin)
    elif args.ar == "cycling":  # code t % K at step t, never EOS within the budget
        cycle = np.arange(budget) % args.codebook_size
        ar = OracleArModel(cycle, args.codebook_size, margin=args.margin)
    else:
        ar = train_ngram_ar(train_streams, order=args.ngram_order, smoothing=args.ngram_smoothing)

    # NAR ground truth is aligned with the generated span (post-prompt frames).
    nar = OracleNarModel(
        truth[args.prompt_frames :], codebook_size=args.codebook_size, margin=args.margin
    )
    prompt = make_stream(truth[: args.prompt_frames])
    config = GenConfig(temperature=args.temperature, max_frames=budget, rng_seed=args.seed)
    stream, stats = generate_text_to_tokens(ar, nar, condition, prompt, config)
    rvqio.write_token_streams(args.out, [stream])

    _emit("ar_model", args.ar)
    _emit("nar_model", "oracle")
    _emit("temperature", float(args.temperature))
    _emit("frames", stream.num_frames)
    _emit("ar_steps", stats.ar_steps)
    _emit("nar_passes", stats.nar_passes)
    if support_streams is not None:
        layer1 = stream.frames[:, 0]
        support = [s.frames[:, 0] for s in support_streams]
        inside = np.isin(layer1, np.concatenate(support) if support else [])
        outside = int(np.count_nonzero(~inside))
        _emit("out_of_support_rate", outside / max(1, len(layer1)))
    _emit("out", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvqkit",
        description="Residual vector quantization toolkit: training, coding, analytics, "
        "and token-generation simulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a quantizer on a corpus")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--corpus", help="vector file to train on")
    src.add_argument(
        "--synth", help="synthetic mixture spec modes=..,sep=..,count=.. in --latent-dim dims"
    )
    p.add_argument("--scheme", choices=["ema", "ema-restart", "projected"], default="ema")
    p.add_argument("--layers", type=_INT_1, default=1)
    p.add_argument("--codebook-size", type=_INT_1, default=256)
    p.add_argument("--latent-dim", type=_INT_1, default=16)
    p.add_argument("--quant-dim", type=_INT_1, default=None)
    p.add_argument("--metric", choices=["euclidean", "cosine"], default=None)
    p.add_argument("--decay", type=_DECAY, default=0.99)
    p.add_argument("--learning-rate", type=_POSITIVE, default=1e-3)
    p.add_argument("--commitment-weight", type=_NON_NEGATIVE, default=0.25)
    p.add_argument("--codebook-weight", type=_NON_NEGATIVE, default=1.0)
    p.add_argument("--restart-period", type=_INT_1, default=100)
    p.add_argument("--init", choices=["kmeans", "random"], default="kmeans")
    p.add_argument("--steps", type=_INT_1, default=500)
    p.add_argument("--batch-size", type=_INT_1, default=64)
    p.add_argument("--seed", type=_INT_0, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("encode", help="encode a vector file into token streams")
    p.add_argument("--codebook", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--token-rate", type=_POSITIVE, default=50.0)
    p.add_argument("--id", default="corpus")
    p.add_argument("--threads", type=_INT_1, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("decode", help="decode token streams back to vectors")
    p.add_argument("--codebook", required=True)
    p.add_argument("--tokens", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("analyze", help="code utilization and rank-frequency statistics")
    p.add_argument("--tokens", nargs="+", required=True)
    p.add_argument("--layer", type=_INT_1, default=1, help="1-based layer index")
    p.add_argument("--format", choices=["text", "json-lines"], default="text")
    p.set_defaults(handler=cmd_analyze)

    sim = argparse.ArgumentParser(add_help=False)  # the flags both simulators take
    sim.add_argument("--codebook-size", type=_INT_1, default=1024)
    sim.add_argument("--temperature", type=_POSITIVE, default=1.0)
    sim.add_argument("--seed", type=_INT_0, default=0)
    sim.add_argument("--prompt-frames", type=_INT_0, default=0)
    sim.add_argument("--token-rate", type=_POSITIVE, default=50.0)
    sim.add_argument("--margin", type=_FINITE, default=50.0)
    sim.add_argument("--out", required=True)

    p = sub.add_parser(
        "mlm-sim", parents=[sim], help="masked parallel generation against a toy score model"
    )
    p.add_argument("--layers", type=_INT_1, default=8)
    p.add_argument("--model", choices=["oracle", "uniform"], default="oracle")
    p.add_argument("--frames", type=_INT_1, default=60)
    p.add_argument("--iterations", type=_INT_1, default=5)
    p.add_argument("--cfg", type=_CFG, default="0:2",
                   help="guidance coefficients START:END; join a negative START with '=', "
                        "as in --cfg=-2:0.5")
    p.add_argument("--noise-seed", type=_INT_0, default=None)
    p.add_argument("--truth-out", default=None, help="also dump the hidden reference grid")
    p.set_defaults(handler=cmd_mlm_sim)

    p = sub.add_parser("arnar-sim", parents=[sim], help="AR + NAR generation against toy models")
    p.add_argument("--layers", type=_INT_2, default=8)
    p.add_argument("--ar", choices=["oracle", "ngram", "cycling"], default="oracle")
    p.add_argument("--max-frames", type=_INT_1, default=60)
    p.add_argument("--ngram-order", type=_INT_1, default=2)
    p.add_argument("--ngram-smoothing", type=_POSITIVE, default=0.1)
    p.add_argument("--train-tokens", default=None)
    p.add_argument("--support", default=None, help="token file whose layer-1 codes define support")
    p.set_defaults(handler=cmd_arnar_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # Overflow and invalid operations make inf and NaN, which the checks
        # after them report as one error line; numpy's warning would only
        # repeat it as a source line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
