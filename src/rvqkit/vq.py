"""Single-layer vector quantization.

Codebooks hold raw (unnormalized) code vectors together with the EMA
statistics that drive training-time updates. Lookups are exhaustive over the
codebook under either squared-Euclidean or cosine distance; updates cover the
EMA rule with Laplace-smoothed normalization and the dead-code restart that
resamples unused entries from a batch.

Lookups are pure functions of an immutable codebook and can run from any
number of threads; `ema_update` and `restart_dead_codes` return new codebooks
and never mutate their input, so the caller owns write ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import as_generator
from .errors import DegenerateInputError

EUCLIDEAN = "euclidean"
COSINE = "cosine"
METRICS = (EUCLIDEAN, COSINE)

MAX_CODES = 65536  # exhaustive lookup only; no approximate indexing
DEFAULT_DECAY = 0.99
DEFAULT_EPSILON = 1e-5

# Memory cap for the (rows, K, q) temporary used by the exact lookup path.
_LOOKUP_CHUNK_ELEMENTS = 1 << 23


@dataclass
class Codebook:
    """One quantization layer: K code vectors plus their update statistics.

    entries:          (K, q) code vectors in quantization space
    ema_cluster_size: (K,) moving average of per-code assignment counts
    ema_embed_sum:    (K, q) moving average of per-code assigned-vector sums
    usage_counts:     (K,) integer assignments since the last counter reset
    metric:           "euclidean" or "cosine"
    """

    entries: np.ndarray
    ema_cluster_size: np.ndarray
    ema_embed_sum: np.ndarray
    usage_counts: np.ndarray
    metric: str = EUCLIDEAN

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        self.ema_cluster_size = np.asarray(self.ema_cluster_size, dtype=np.float64)
        self.ema_embed_sum = np.asarray(self.ema_embed_sum, dtype=np.float64)
        self.usage_counts = np.asarray(self.usage_counts, dtype=np.int64)
        self.validate()

    @classmethod
    def from_entries(cls, entries, metric: str = EUCLIDEAN) -> "Codebook":
        """Build a codebook around fixed entries, with neutral EMA statistics."""
        entries = np.array(entries, dtype=np.float64)
        if entries.ndim != 2:
            raise ValueError("entries must be a (K, q) matrix")
        k = entries.shape[0]
        return cls(
            entries=entries,
            ema_cluster_size=np.ones(k),
            ema_embed_sum=entries.copy(),
            usage_counts=np.zeros(k, dtype=np.int64),
            metric=metric,
        )

    @property
    def num_codes(self) -> int:
        return self.entries.shape[0]

    @property
    def code_dim(self) -> int:
        return self.entries.shape[1]

    def validate(self) -> None:
        if self.entries.ndim != 2:
            raise ValueError("entries must be a (K, q) matrix")
        k, q = self.entries.shape
        if k < 1 or q < 1:
            raise ValueError(f"codebook needs K >= 1 and q >= 1, got K={k}, q={q}")
        if k > MAX_CODES:
            raise ValueError(f"K={k} exceeds the exhaustive-lookup cap of {MAX_CODES}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("codebook entries must be finite")
        if self.ema_cluster_size.shape != (k,):
            raise ValueError("ema_cluster_size must have shape (K,)")
        if np.any(self.ema_cluster_size < 0):
            raise ValueError("ema_cluster_size entries must be non-negative")
        if self.ema_embed_sum.shape != (k, q):
            raise ValueError("ema_embed_sum must have shape (K, q)")
        if self.usage_counts.shape != (k,) or np.any(self.usage_counts < 0):
            raise ValueError("usage_counts must be non-negative with shape (K,)")


@dataclass
class VqAssignment:
    """Result of one nearest-code lookup."""

    index: int
    quantized: np.ndarray
    distance: float


@dataclass
class ProjectionPair:
    """Linear maps between the latent space (d) and the quantization space (q).

    proj_in is (d, q) and is applied as `x @ proj_in`; proj_out is (q, d) and
    is applied as `y @ proj_out`. The quantization space is never wider than
    the latent space (d >= q).
    """

    proj_in: np.ndarray
    proj_out: np.ndarray

    def __post_init__(self):
        self.proj_in = np.asarray(self.proj_in, dtype=np.float64)
        self.proj_out = np.asarray(self.proj_out, dtype=np.float64)
        if self.proj_in.ndim != 2 or self.proj_out.ndim != 2:
            raise ValueError("projection matrices must be 2-D")
        d, q = self.proj_in.shape
        if self.proj_out.shape != (q, d):
            raise ValueError(
                f"proj_out shape {self.proj_out.shape} does not invert proj_in shape {(d, q)}"
            )
        if d < q:
            raise ValueError(f"latent dim {d} must be >= quantization dim {q}")
        if not (np.all(np.isfinite(self.proj_in)) and np.all(np.isfinite(self.proj_out))):
            raise ValueError("projection matrices must be finite")

    @property
    def latent_dim(self) -> int:
        return self.proj_in.shape[0]

    @property
    def quant_dim(self) -> int:
        return self.proj_in.shape[1]

    @classmethod
    def identity(cls, dim: int) -> "ProjectionPair":
        eye = np.eye(dim)
        return cls(proj_in=eye, proj_out=eye.copy())


def _normalize_rows(matrix: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0):
        raise DegenerateInputError(f"zero-norm {what} is undefined under the cosine metric")
    return matrix / norms[:, None]


def nearest_codes(queries, codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive nearest-entry lookup for a batch of query rows.

    Returns (indices, distances). Euclidean distances are true L2 norms
    (not squared); cosine distance is 1 - cos(query, entry). Ties break
    toward the lowest code index. Non-finite queries are rejected with
    ValueError, since no entry is nearest to them.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != codebook.code_dim:
        raise ValueError(
            f"query dim {queries.shape[1]} does not match codebook dim {codebook.code_dim}"
        )
    if not np.isfinite(queries).all():
        raise ValueError("queries must be finite")

    if codebook.metric == COSINE:
        qn = _normalize_rows(queries, "query")
        en = _normalize_rows(codebook.entries, "codebook entry")
        dists = 1.0 - qn @ en.T
        idx = np.argmin(dists, axis=1)
        return idx, dists[np.arange(len(queries)), idx]

    # Euclidean path: exact differences, chunked to bound the (rows, K, q)
    # temporary. Exactness (zero distance on exact matches, stable ties)
    # is part of the lookup contract, so the faster expanded form is not
    # used here.
    k, q = codebook.entries.shape
    n = queries.shape[0]
    idx = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    chunk = max(1, _LOOKUP_CHUNK_ELEMENTS // (k * q))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diff = queries[lo:hi, None, :] - codebook.entries[None, :, :]
        d2 = np.einsum("nkq,nkq->nk", diff, diff)
        best = np.argmin(d2, axis=1)
        idx[lo:hi] = best
        dist[lo:hi] = np.sqrt(d2[np.arange(hi - lo), best])
    return idx, dist


def nearest_code(query, codebook: Codebook) -> VqAssignment:
    """Find the codebook entry closest to a single query vector."""
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1:
        raise ValueError("nearest_code expects a 1-D query; use nearest_codes for batches")
    idx, dist = nearest_codes(query[None, :], codebook)
    i = int(idx[0])
    return VqAssignment(index=i, quantized=codebook.entries[i].copy(), distance=float(dist[0]))


def _guarded_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    return matrix / np.maximum(norms, 1e-12)[:, None]


def assign_batch(queries: np.ndarray, entries: np.ndarray, metric: str) -> np.ndarray:
    """Training-path nearest-entry indices over a (K, q) entry matrix.

    Euclidean uses the expanded |x|^2 - 2xc + |c|^2 form: one GEMM, much
    faster than the exact lookup, but it may resolve exact ties differently
    due to floating-point cancellation, so it serves training and k-means,
    where only self-consistency matters. Unlike the public lookup, zero-norm
    rows under the cosine metric are tolerated (normalized with an epsilon
    guard): a fully reconstructed residual is a benign degeneracy inside a
    training loop, not an input error.
    """
    if metric == COSINE:
        qn = _guarded_normalize_rows(queries)
        en = _guarded_normalize_rows(entries)
        return np.argmax(qn @ en.T, axis=1)
    if metric != EUCLIDEAN:
        raise ValueError(f"unknown metric {metric!r}")
    d2 = (
        (queries * queries).sum(axis=1)[:, None]
        - 2.0 * (queries @ entries.T)
        + (entries * entries).sum(axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def ema_update(
    codebook: Codebook,
    vectors,
    indices,
    *,
    decay: float = DEFAULT_DECAY,
    epsilon: float = DEFAULT_EPSILON,
) -> Codebook:
    """Fold one batch of (vector, assigned index) pairs into the codebook.

    Cluster sizes and embedding sums are blended with weight `decay`; entries
    are then recomputed as ema_embed_sum / smoothed cluster size, where the
    smoothing is Laplace over sizes: (size_i + eps) / (N + K*eps) * N with
    N the total EMA mass. Returns a new codebook; usage counters accumulate.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    indices = np.asarray(indices, dtype=np.int64).ravel()
    if len(vectors) == 0:
        raise ValueError("ema_update requires a non-empty batch")
    if len(vectors) != len(indices):
        raise ValueError("vectors and indices must have matching lengths")
    if vectors.shape[1] != codebook.code_dim:
        raise ValueError(
            f"batch dim {vectors.shape[1]} does not match codebook dim {codebook.code_dim}"
        )
    k = codebook.num_codes
    if np.any(indices < 0) or np.any(indices >= k):
        raise ValueError(f"assigned index out of range [0, {k})")
    if not 0.0 <= decay < 1.0:
        raise ValueError("decay must lie in [0, 1)")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    counts = np.bincount(indices, minlength=k).astype(np.float64)
    sums = np.zeros_like(codebook.ema_embed_sum)
    np.add.at(sums, indices, vectors)

    new_size = decay * codebook.ema_cluster_size + (1.0 - decay) * counts
    new_sum = decay * codebook.ema_embed_sum + (1.0 - decay) * sums
    total = new_size.sum()
    smoothed = (new_size + epsilon) / (total + k * epsilon) * total
    entries = new_sum / smoothed[:, None]

    return Codebook(
        entries=entries,
        ema_cluster_size=new_size,
        ema_embed_sum=new_sum,
        usage_counts=codebook.usage_counts + counts.astype(np.int64),
        metric=codebook.metric,
    )


def restart_dead_codes(
    codebook: Codebook,
    batch,
    threshold: int = 1,
    rng=0,
) -> tuple[Codebook, int]:
    """Replace codes used fewer than `threshold` times since the last reset.

    Replacement entries are drawn uniformly from `batch` (without replacement
    while the batch lasts). Each restarted code gets EMA statistics (1, entry)
    and a cleared usage counter; untouched codes keep theirs. Returns the new
    codebook and the number of restarts.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if len(batch) == 0:
        raise ValueError("restart_dead_codes requires a non-empty batch")
    if batch.shape[1] != codebook.code_dim:
        raise ValueError(
            f"batch dim {batch.shape[1]} does not match codebook dim {codebook.code_dim}"
        )
    if threshold < 0:
        raise ValueError("threshold must be non-negative")

    dead = np.flatnonzero(codebook.usage_counts < threshold)
    if dead.size == 0:
        return codebook, 0

    rng = as_generator(rng)
    picks = rng.choice(len(batch), size=dead.size, replace=dead.size > len(batch))
    replacements = batch[picks]

    entries = codebook.entries.copy()
    sizes = codebook.ema_cluster_size.copy()
    sums = codebook.ema_embed_sum.copy()
    usage = codebook.usage_counts.copy()
    entries[dead] = replacements
    sizes[dead] = 1.0
    sums[dead] = replacements
    usage[dead] = 0

    restarted = Codebook(
        entries=entries,
        ema_cluster_size=sizes,
        ema_embed_sum=sums,
        usage_counts=usage,
        metric=codebook.metric,
    )
    return restarted, int(dead.size)


def project_in(x, pair: ProjectionPair) -> np.ndarray:
    """Map latent-space rows (or a single vector) into quantization space."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != pair.latent_dim:
        raise ValueError(f"input dim {x.shape[-1]} does not match proj_in dim {pair.latent_dim}")
    return x @ pair.proj_in


def project_out(y, pair: ProjectionPair) -> np.ndarray:
    """Map quantization-space rows (or a single vector) back to latent space."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != pair.quant_dim:
        raise ValueError(f"input dim {y.shape[-1]} does not match proj_out dim {pair.quant_dim}")
    return y @ pair.proj_out


def codebook_loss(z, q) -> float:
    """Squared Euclidean distance ||q - z||^2, attributed to the codebook side."""
    z = np.asarray(z, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if z.shape != q.shape:
        raise ValueError(f"shape mismatch {z.shape} vs {q.shape}")
    diff = q - z
    return float((diff * diff).sum())


def commitment_loss(z, q) -> float:
    """Same value as `codebook_loss`; the encoder-side attribution differs only in gradient routing."""
    return codebook_loss(z, q)


def snake(x, alpha: float = 1.0):
    """Snake activation x + sin^2(alpha * x) / alpha, elementwise."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    arr = np.asarray(x, dtype=np.float64)
    s = np.sin(alpha * arr)
    out = arr + s * s / alpha
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _kmeans_plus_plus(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(data)
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[j] = data[pick]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans_init(
    data,
    num_codes: int,
    iterations: int = 10,
    rng=0,
    metric: str = EUCLIDEAN,
) -> Codebook:
    """Build a codebook with seeded k-means++ plus Lloyd refinement.

    EMA statistics are primed from the final clustering (per-cluster size and
    vector sum), so a subsequent EMA update continues smoothly from the
    k-means solution. Empty clusters keep their centroid.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if num_codes < 1:
        raise ValueError("num_codes must be >= 1")
    if len(data) < num_codes:
        raise ValueError(f"k-means needs at least {num_codes} vectors, got {len(data)}")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")

    rng = as_generator(rng)
    centers = _kmeans_plus_plus(data, num_codes, rng)
    # Lloyd iterations, then one last pass that primes the EMA statistics.
    for i in range(iterations + 1):
        idx = assign_batch(data, centers, EUCLIDEAN)
        counts = np.bincount(idx, minlength=num_codes).astype(np.float64)
        sums = np.zeros_like(centers)
        np.add.at(sums, idx, data)
        if i == iterations:
            break
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]

    return Codebook(
        entries=centers,
        ema_cluster_size=counts,
        ema_embed_sum=sums,
        usage_counts=np.zeros(num_codes, dtype=np.int64),
        metric=metric,
    )
