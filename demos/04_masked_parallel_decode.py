"""Masked parallel generation, round by round.

Decodes a token grid from an oracle score model and narrates the schedule:
the annealed guidance coefficient, how many layer-1 positions each iteration
commits, and the single greedy pass per deeper layer. With 5 iterations on
the first layer and 8 layers total the whole grid costs 12 forward passes.

Run:  python3 demos/04_masked_parallel_decode.py
"""

import numpy as np

from rvqkit import (
    DecodeSchedule,
    OracleScoreModel,
    TokenStream,
    anneal_coeff,
    cosine_unmask_fractions,
    generate_parallel,
)

T, N, K = 50, 8, 64
truth = np.random.default_rng(3).integers(0, K, size=(T, N), dtype=np.int32)
model = OracleScoreModel(truth, K, noise_seed=3)

prompt = TokenStream(
    frames=truth[:10],
    token_rate_hz=50.0,
    codebook_size=K,
    source_id="demo",
)
schedule = DecodeSchedule(iterations_layer1=5, cfg_start=0.0, cfg_end=2.0, rng_seed=3)

fractions = cosine_unmask_fractions(schedule.iterations_layer1)
print("cosine commit schedule (fraction of masked tokens per iteration):")
print("  " + ", ".join(f"{f:.3f}" for f in fractions))
print()

stream, stats = generate_parallel(model, np.arange(T), prompt, T, schedule)

print("guidance coefficient by iteration (progress = committed fraction):")
committed = 0
total = T - prompt.num_frames
for i, count in enumerate(stats.commit_counts, start=1):
    coeff = anneal_coeff(committed / total, schedule.cfg_start, schedule.cfg_end)
    print(f"  iteration {i}: coeff {coeff:.3f}, committed {count:>2} positions")
    committed += count
print()

print(f"forward passes: {stats.forward_passes} conditional "
      f"(+{stats.unconditional_passes} unconditional for guidance)")
print(f"  = {schedule.iterations_layer1} layer-1 iterations + {N - 1} greedy layer passes")
exact = np.array_equal(stream.frames, truth)
print(f"oracle recovery: generated grid equals the hidden ground truth: {exact}")
print(f"prompt passthrough: first 10 frames untouched: "
      f"{np.array_equal(stream.frames[:10], prompt.frames)}")
