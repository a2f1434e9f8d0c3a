"""Two-stage AR + NAR generation and the temperature / hallucination trade.

Trains a bigram model on token streams that use only part of the code
vocabulary, then samples at several temperatures. Smoothing leaks probability
onto codes the model never saw; hotter sampling emits those out-of-support
codes more often, colder sampling less. The NAR stage then fills the
remaining layers greedily in one pass per layer.

Run:  python3 demos/05_ar_nar_generation.py
"""

import numpy as np

from rvqkit import (
    GenConfig,
    OracleNarModel,
    TokenStream,
    generate_ar,
    generate_text_to_tokens,
    sequence_perplexity,
    train_ngram_ar,
)

K, SUPPORT = 256, 160
rng = np.random.default_rng(4)

streams = []
for i in range(6):
    codes = np.concatenate([rng.permutation(SUPPORT), rng.integers(0, SUPPORT, size=4000)])
    streams.append(
        TokenStream(
            frames=codes.reshape(-1, 1).astype(np.int32),
            token_rate_hz=50.0,
            codebook_size=K,
            source_id=f"train-{i}",
        )
    )

model = train_ngram_ar(streams, order=2, smoothing=0.1)
print(f"bigram model over {K + 1} classes (codes + end-of-sequence), "
      f"trained on streams covering {SUPPORT} codes")

head = TokenStream(frames=streams[0].frames[:500], token_rate_hz=50.0, codebook_size=K)
ppl = sequence_perplexity(model, np.arange(1), head)
print(f"perplexity on its own training data: {ppl:7.1f} (uniform would be {K + 1})\n")

# Both stages read the prompt's codebook size; an empty one starts from nothing.
N = 4
prompt = TokenStream(
    frames=np.empty((0, N), dtype=np.int32),
    token_rate_hz=50.0,
    codebook_size=K,
    source_id="demo",
)

print("temperature sweep, 20k sampled tokens each:")
print("  temp | out-of-support rate")
for temp in (1.0, 0.9, 0.8):
    outside = total = 0
    seed = int(temp * 1000)
    while total < 20_000:
        chunk = generate_ar(
            model, np.arange(1), prompt, GenConfig(temperature=temp, max_frames=1000, rng_seed=seed)
        )
        seed += 1
        total += len(chunk)
        outside += int((chunk >= SUPPORT).sum())
    print(f"  {temp:>4} | {outside / total:.4f}")
print("lower temperature sharpens the distribution and suppresses codes the\n"
      "model never observed, at the cost of less diverse output.\n")

# --- Full two-stage generation -------------------------------------------------
truth = rng.integers(0, K, size=(30, N), dtype=np.int32)
nar = OracleNarModel(truth, codebook_size=K)
stream, stats = generate_text_to_tokens(
    model, nar, np.arange(1), prompt, GenConfig(temperature=0.9, max_frames=30, rng_seed=11)
)
print(f"two-stage generation: {stats.ar_steps} AR steps for layer 1, "
      f"then {stats.nar_passes} parallel passes for layers 2..{N}")
print(f"generated {stream.num_frames} frames x {stream.layers} layers")
print("first five frames:")
for frame in stream.frames[:5]:
    print(f"  {frame.tolist()}")
