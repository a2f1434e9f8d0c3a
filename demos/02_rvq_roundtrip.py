"""Residual quantization round trips and bitrate arithmetic.

Builds a small residual stack, encodes latents layer by layer, shows how the
residual norm falls as layers accumulate, compares the plain and projected
schemes, and prints the bitrate table implied by layer count and token rate.

Run:  python3 demos/02_rvq_roundtrip.py
"""

import numpy as np

from rvqkit import (
    Codebook,
    ProjectionPair,
    RvqQuantizer,
    bitrate_bps,
    rvq_decode,
    rvq_encode,
)

rng = np.random.default_rng(1)
dim, k, layers = 8, 64, 4

# Codebooks with shrinking scales: each layer mops up what the previous left.
stack = [
    Codebook.from_entries(rng.normal(size=(k, dim)) * (2.0 ** -i)) for i in range(layers)
]
qz = RvqQuantizer(layers=stack, latent_dim=dim)

latent = rng.normal(size=dim) * 2.0
codes, norms = rvq_encode(latent, qz)
print(f"latent norm {np.linalg.norm(latent):.4f}")
print(f"codes per layer: {codes.tolist()}")
print("residual norm after each layer:", np.round(norms, 4))

recon = rvq_decode(codes, qz)
print(f"reconstruction error: {np.linalg.norm(latent - recon):.4f}")
for m in range(1, layers + 1):
    partial = rvq_decode(codes, qz, num_layers=m)
    print(f"  decoding first {m} layer(s): error {np.linalg.norm(latent - partial):.4f}")
print()

# --- Projected scheme ---------------------------------------------------------
d, q = 16, 4
pair = ProjectionPair(
    proj_in=rng.normal(size=(d, q)) / np.sqrt(d),
    proj_out=rng.normal(size=(q, d)) / np.sqrt(q),
)
proj_stack = [Codebook.from_entries(rng.normal(size=(k, q)), metric="cosine") for _ in range(2)]
proj_qz = RvqQuantizer(
    layers=proj_stack, latent_dim=d, scheme="projected", projections=[pair, pair]
)
x = rng.normal(size=d)
codes, norms = rvq_encode(x, proj_qz)
print(f"projected scheme: {d}-dim latent quantized in a {q}-dim lookup space")
print(f"codes {codes.tolist()}, q-space residual norms {np.round(norms, 4)}")
print()

# --- Bitrate table -------------------------------------------------------------
print("bitrate (kbps) by layer count and token rate, 1024-entry codebooks:")
print("layers |   50 Hz |   75 Hz")
for n in (2, 4, 8, 12):
    qz_n = RvqQuantizer(
        layers=[Codebook.from_entries(rng.normal(size=(1024, 4))) for _ in range(n)],
        latent_dim=4,
    )
    r50 = bitrate_bps(qz_n, 50.0) / 1000
    r75 = bitrate_bps(qz_n, 75.0) / 1000
    print(f"  {n:>4} | {r50:>6.2f}  | {r75:>6.2f}")
print("8 layers at 50 Hz is the 4 kbps operating point.")
