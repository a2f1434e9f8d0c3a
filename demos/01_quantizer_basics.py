"""Single-layer vector quantization, step by step.

Walks through nearest-code lookup under both distance metrics, watches the
EMA update pull a code vector toward the data assigned to it, and revives
dead codes from a batch.

Run:  python3 demos/01_quantizer_basics.py
"""

import numpy as np

from rvqkit import (
    Codebook,
    ema_update,
    nearest_codes,
    restart_dead_codes,
)

rng = np.random.default_rng(0)

# --- Nearest-code lookup ----------------------------------------------------
entries = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
cb = Codebook.from_entries(entries)
query = np.array([0.9, 0.1])
idx, dist = nearest_codes(query, cb)
print(f"euclidean lookup: query {query} -> code {idx[0]}, distance {dist[0]:.4f}")

cb_cos = Codebook.from_entries(np.array([[1.0, 0.0], [0.0, 1.0]]), metric="cosine")
for scale in (1.0, 5.0, 0.01):
    idx, dist = nearest_codes(scale * np.array([2.0, 0.3]), cb_cos)
    print(f"cosine lookup at scale {scale:>5}: code {idx[0]}, distance {dist[0]:.6f}")
print("cosine distance ignores vector length; only the direction matters.\n")

# --- EMA codebook updates ---------------------------------------------------
# Feed a constant cluster to code 0 and watch its entry converge.
cb = Codebook(
    entries=np.full((4, 2), 3.0),
    ema_cluster_size=np.zeros(4),
    ema_embed_sum=np.zeros((4, 2)),
)
used = np.zeros(4, dtype=bool)
target = np.array([-1.0, 2.0])
print("EMA pull toward a constant batch assigned to code 0:")
for step in range(1, 101):
    batch = target + 0.05 * rng.standard_normal((16, 2))
    indices = np.zeros(16, dtype=int)
    cb = ema_update(cb, batch, indices, decay=0.99)
    used[indices] = True
    if step in (1, 5, 25, 100):
        print(f"  step {step:>3}: entries[0] = {np.round(cb.entries[0], 4)}")
print(f"  target was {target}\n")

# --- Dead-code restart ------------------------------------------------------
# A code is dead if no update has assigned it; the caller tracks that.
print(f"codes assigned during the EMA run: {used}")
batch = target + 0.05 * rng.standard_normal((32, 2))
cb2, revived = restart_dead_codes(cb, batch, used, rng=7)
print(f"restart revived {revived} dead codes; their entries are now batch members:")
for i in (1, 2, 3):
    print(f"  code {i}: {np.round(cb2.entries[i], 4)}")
