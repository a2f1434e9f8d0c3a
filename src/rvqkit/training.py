"""Quantizer training on vector corpora, and every rule that changes entries.

K-means initialization, the EMA rule and the dead-code restart take and
return arrays and never mutate their inputs; EMA training keeps the EMA
statistics and the used-code mask. Every lookup runs through `assign_batch`.

Two regimes are covered: EMA codebook tracking (optionally with periodic
dead-code restarts) and the gradient-trained projected scheme, where a shared
linear projection pair and the code entries are optimized jointly by plain
gradient descent on

    total = reconstruction MSE + codebook_weight * codebook + commitment_weight * commitment

with the usual stop-gradient routing: the reconstruction term reaches the
projections through the straight-through composite, the codebook term moves
entries toward the (frozen) projected inputs, and the commitment term moves
the projected inputs toward the (frozen) quantized vectors. The routing is
implemented by snapshotting the detached quantities once per step, which
makes every loss term an ordinary smooth function of the parameters; see
`projected_loss` / `projected_grads`.

K-means++ seeding computes one GEMV per new centre and recomputes the exact
D^2 only of the rows a rounding bound cannot rule out. On the 2,048-row init
sample of an 8-layer, K=1024, d=32 quantizer that is a median of 2 rows a
centre (9 at the 90th percentile); with BLAS on one thread a first-layer
centre costs 56-84 us, against 195-265 us for the exact update of every row
and `rng.choice`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import as_generator, checked_seed, integer_at_least, positive_finite
from .analytics import UtilizationReport
from .errors import NumericalError
from .rvq import PLAIN, PROJECTED, RvqQuantizer, entry_sum, residual_codes
from .vq import (
    _SUBNORMAL,
    _UNIT_ROUNDOFF,
    COSINE,
    EUCLIDEAN,
    METRICS,
    Codebook,
    ProjectionPair,
    assign_batch,
)

SCHEME_EMA = "ema"
SCHEME_EMA_RESTART = "ema_restart"
SCHEME_PROJECTED = "projected"
TRAIN_SCHEMES = (SCHEME_EMA, SCHEME_EMA_RESTART, SCHEME_PROJECTED)

DEFAULT_DECAY = 0.99
EMA_EPSILON = 1e-5  # Laplace smoothing of the EMA cluster sizes in `ema_update`


@dataclass
class TrainConfig:
    scheme: str = SCHEME_EMA
    num_layers: int = 1
    codebook_size: int = 64
    latent_dim: int = 16
    quant_dim: int | None = None  # required by the projected scheme; None: latent_dim
    metric: str | None = None  # None: euclidean for EMA schemes, cosine for projected
    decay: float = DEFAULT_DECAY
    commitment_weight: float = 0.25
    codebook_weight: float = 1.0
    learning_rate: float = 1e-3
    steps: int = 1000
    batch_size: int = 64
    seed: int = 0
    restart_period: int = 100
    init: str = "kmeans"  # or "random": moment-matched noise, no data placement

    def __post_init__(self):
        if self.scheme not in TRAIN_SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.init not in ("kmeans", "random"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.metric not in (None, *METRICS):
            raise ValueError(f"unknown metric {self.metric!r}")
        for name in (
            "num_layers", "codebook_size", "latent_dim", "steps", "batch_size", "restart_period"
        ):
            setattr(self, name, integer_at_least(getattr(self, name), name))
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("decay must lie in [0, 1)")
        self.learning_rate = positive_finite(self.learning_rate, "learning_rate")
        self.seed = checked_seed(self.seed, "seed")
        if not (0 <= self.commitment_weight < math.inf and 0 <= self.codebook_weight < math.inf):
            raise ValueError("loss weights must be non-negative and finite")
        if self.quant_dim is not None:
            self.quant_dim = integer_at_least(self.quant_dim, "quant_dim")
        if self.scheme == SCHEME_PROJECTED:
            if self.quant_dim is None:
                raise ValueError("projected scheme requires quant_dim")
            if self.quant_dim > self.latent_dim:
                raise ValueError("quant_dim must be <= latent_dim")
        elif self.quant_dim is not None and self.quant_dim != self.latent_dim:
            raise ValueError("quant_dim only applies to the projected scheme")
        if self.quant_dim is None:
            self.quant_dim = self.latent_dim
        if self.metric is None:
            self.metric = COSINE if self.scheme == SCHEME_PROJECTED else EUCLIDEAN


@dataclass
class CorpusSpec:
    """A synthetic Gaussian-mixture corpus; see `make_corpus`."""

    num_components: int = 8
    dims: int = 16
    separation: float = 4.0
    count: int = 1024
    seed: int = 0

    def __post_init__(self):
        for name in ("num_components", "dims", "count"):
            setattr(self, name, integer_at_least(getattr(self, name), name))
        self.separation = positive_finite(self.separation, "separation")
        self.seed = checked_seed(self.seed, "seed")


@dataclass
class TrainReport:
    """Per-step loss series, one entry per step, plus final utilization.

    `codebook` is also the commitment term's value: with stop-gradients both
    are |quantized - projected input|^2 and differ only in which parameters
    they move. In the EMA schemes both equal the quantization MSE.
    """

    mse: np.ndarray
    codebook: np.ndarray
    utilization: np.ndarray  # per-layer used-code fraction over the corpus


def make_corpus(spec: CorpusSpec) -> np.ndarray:
    """Materialize a corpus as a (count, dims) float64 array.

    Component means are drawn uniformly in the centered hypercube
    [-separation/2, separation/2]^dims, with unit-variance isotropic
    components and i.i.d. uniform component choice per vector.
    """
    rng = as_generator(spec.seed)
    half = spec.separation / 2.0
    means = rng.uniform(-half, half, size=(spec.num_components, spec.dims))
    which = rng.integers(0, spec.num_components, size=spec.count)
    return means[which] + rng.standard_normal((spec.count, spec.dims))


@dataclass
class ProjectedParams:
    """Trainable parameters of the projected scheme: one shared pair + per-layer entries."""

    proj_in: np.ndarray  # (d, q)
    proj_out: np.ndarray  # (q, d)
    entries: list[np.ndarray]  # per layer, (K, q)


def _assign_codes(residual: np.ndarray, entries: list[np.ndarray], metric: str) -> np.ndarray:
    """(rows, N) codes of the residual recursion under the training lookup."""
    return residual_codes(residual, entries, lambda r, n: assign_batch(r, entries[n], metric))[0]


def projected_assign(params: ProjectedParams, batch: np.ndarray, metric: str) -> np.ndarray:
    """Residual-recursion code assignment in quantization space; returns (B, N) codes."""
    if not all(np.isfinite(e).all() for e in params.entries):
        raise ValueError("codebook entries must be finite")
    return _assign_codes(batch @ params.proj_in, params.entries, metric)


def projected_loss(
    params: ProjectedParams,
    batch: np.ndarray,
    codes: np.ndarray,
    z_ref: np.ndarray,
    q_ref: np.ndarray,
    *,
    codebook_weight: float,
    commitment_weight: float,
) -> float:
    """Total step loss with assignments and detached snapshots held fixed.

    z_ref and q_ref are the projected inputs and quantized sums captured at
    the step's base point; they implement the stop-gradients, so this is a
    smooth function of `params` and finite differences of it match
    `projected_grads` exactly.
    """
    b = batch.shape[0]
    z = batch @ params.proj_in
    q = entry_sum(params.entries, codes)
    recon = (z + (q_ref - z_ref)) @ params.proj_out
    l_rec = float(((recon - batch) ** 2).sum()) / b
    l_cb = float(((q - z_ref) ** 2).sum()) / b
    l_cm = float(((q_ref - z) ** 2).sum()) / b
    return l_rec + codebook_weight * l_cb + commitment_weight * l_cm


def projected_grads(
    params: ProjectedParams,
    batch: np.ndarray,
    codes: np.ndarray,
    z_ref: np.ndarray,
    q_ref: np.ndarray,
    *,
    codebook_weight: float,
    commitment_weight: float,
) -> ProjectedParams:
    """Analytic gradients of `projected_loss` at the step's base point.

    At the base point the projected inputs and quantized sums are the
    snapshots z_ref and q_ref themselves, so they are not recomputed.
    """
    b = batch.shape[0]
    st = z_ref + (q_ref - z_ref)  # straight-through composite in quantization space
    resid = st @ params.proj_out - batch
    g_recon = (2.0 / b) * resid
    g_proj_out = st.T @ g_recon
    g_proj_in = batch.T @ (g_recon @ params.proj_out.T)
    g_proj_in += batch.T @ ((2.0 * commitment_weight / b) * (z_ref - q_ref))

    g_q = (2.0 * codebook_weight / b) * (q_ref - z_ref)
    g_entries = []
    for n, entries in enumerate(params.entries):
        g = np.zeros_like(entries)
        np.add.at(g, codes[:, n], g_q)
        g_entries.append(g)

    return ProjectedParams(proj_in=g_proj_in, proj_out=g_proj_out, entries=g_entries)


def _cluster_stats(vectors: np.ndarray, indices: np.ndarray, k: int) -> tuple:
    """Each of k codes' assignment count (float64) and the sum of the vectors
    assigned to it: the (counts, sums) of Lloyd's update, the EMA priming
    and `ema_update`."""
    counts = np.bincount(indices, minlength=k).astype(np.float64)
    sums = np.zeros((k, vectors.shape[1]))
    np.add.at(sums, indices, vectors)
    return counts, sums


def ema_update(
    cluster_size, embed_sum, vectors, indices, *, decay: float = DEFAULT_DECAY
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold one batch of (vector, assigned index) pairs into a layer's EMA
    statistics: `cluster_size`, the (K,) moving average of each code's
    assignment count, and `embed_sum`, the (K, q) one of the vectors
    assigned to it.

    Sizes and sums are blended with weight `decay`; entries are then
    recomputed as embed_sum / smoothed cluster size, where the smoothing is
    Laplace over sizes: (size_i + eps) / (N + K*eps) * N with eps the fixed
    constant `EMA_EPSILON` (1e-5) and N the total EMA mass. Returns new
    (entries, cluster_size, embed_sum) arrays and leaves the inputs as they
    are. Entries that are not finite raise ValueError.
    """
    cluster_size = np.asarray(cluster_size, dtype=np.float64)
    embed_sum = np.asarray(embed_sum, dtype=np.float64)
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    indices = np.asarray(indices, dtype=np.int64).ravel()
    if embed_sum.ndim != 2 or cluster_size.shape != embed_sum.shape[:1]:
        raise ValueError("cluster_size and embed_sum must have shapes (K,) and (K, q)")
    if np.any(cluster_size < 0):
        raise ValueError("cluster sizes must be non-negative")
    if len(vectors) == 0:
        raise ValueError("ema_update requires a non-empty batch")
    if len(vectors) != len(indices):
        raise ValueError("vectors and indices must have matching lengths")
    k, q = embed_sum.shape
    if vectors.shape[1] != q:
        raise ValueError(f"batch dim {vectors.shape[1]} does not match codebook dim {q}")
    if np.any(indices < 0) or np.any(indices >= k):
        raise ValueError(f"assigned index out of range [0, {k})")
    if not 0.0 <= decay < 1.0:
        raise ValueError("decay must lie in [0, 1)")

    counts, sums = _cluster_stats(vectors, indices, k)
    new_size = decay * cluster_size + (1.0 - decay) * counts
    new_sum = decay * embed_sum + (1.0 - decay) * sums
    total = new_size.sum()
    smoothed = (new_size + EMA_EPSILON) / (total + k * EMA_EPSILON) * total
    entries = new_sum / smoothed[:, None]
    if not np.isfinite(entries).all():
        raise ValueError("codebook entries must be finite")
    return entries, new_size, new_sum


def restart_dead_codes(entries, batch, used, rng=0) -> tuple[np.ndarray, int]:
    """Replace the dead codes of a (K, q) entry matrix, those whose entry in
    the (K,) boolean mask `used` is False, with rows drawn uniformly from
    `batch` (without replacement while it lasts). Training marks every code
    its steps have assigned since the codebook was built. Returns the new
    entries (`entries` itself when none is dead) and the number of restarts,
    and leaves the inputs as they are; a batch that is not finite raises
    ValueError.
    """
    entries = np.asarray(entries, dtype=np.float64)
    if entries.ndim != 2:
        raise ValueError("entries must be a (K, q) matrix")
    k, q = entries.shape
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if len(batch) == 0:
        raise ValueError("restart_dead_codes requires a non-empty batch")
    if batch.shape[1] != q:
        raise ValueError(f"batch dim {batch.shape[1]} does not match codebook dim {q}")
    if not np.isfinite(batch).all():
        raise ValueError("batch rows must be finite")
    used = np.asarray(used)
    if used.dtype != np.bool_ or used.shape != (k,):
        raise ValueError(f"used must be a boolean mask of shape ({k},)")

    dead = np.flatnonzero(~used)
    if dead.size == 0:
        return entries, 0

    rng = as_generator(rng)
    picks = rng.choice(len(batch), size=dead.size, replace=dead.size > len(batch))
    entries = entries.copy()
    entries[dead] = batch[picks]
    return entries, int(dead.size)


def _kmeans_plus_plus(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n, q = data.shape
    centers = np.empty((k, q), dtype=np.float64)
    centers[0] = data[int(rng.integers(n))]
    # Rows whose bound says a new centre cannot move them are skipped (see
    # `kmeans_init`). tol = 8(q+2)u M + 10q eta with M = |x|^2 + |c|^2, as
    # (q+2)u (8|x|^2 + 8|c|^2): a term is +inf, and so is the bar, wherever
    # M may exceed a quarter of the float range.
    slack = (q + 2) * _UNIT_ROUNDOFF
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = ((data - centers[0]) ** 2).sum(axis=1)
        sq_norms = np.einsum("nq,nq->n", data, data)
        row_tol = slack * (8.0 * sq_norms) + 10 * q * _SUBNORMAL
        for j in range(1, k):
            total = d2.sum()
            if not math.isfinite(total):
                raise ValueError("k-means++ squared distances overflow: the data are too large")
            if total <= 0.0:
                # The D^2 weights are spent, and a minimum with 0 stays 0.
                # The remaining centres are uniform draws, one `integers`
                # call each, so the generator's stream is the one a full
                # loop would leave.
                for rest in range(j, k):
                    centers[rest] = data[int(rng.integers(n))]
                break
            # What `rng.choice(n, p=d2 / total)` runs, without its checks.
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            c = centers[j] = data[int(cdf.searchsorted(rng.random(), side="right"))]
            c_sq = c @ c
            approx = data @ (-2.0 * c)
            approx += sq_norms
            approx += c_sq  # |x|^2 - 2x.c + |c|^2
            bar = d2 + row_tol
            bar += slack * (8.0 * c_sq)
            rows = np.flatnonzero(~(approx > bar))  # NaN is never above
            d2[rows] = np.minimum(d2[rows], ((data[rows] - c) ** 2).sum(axis=1))
    return centers


def kmeans_init(data, num_codes: int, iterations: int = 10, rng=0) -> np.ndarray:
    """The (num_codes, q) centres of seeded k-means++ plus Lloyd refinement,
    under Euclidean distance. Empty clusters keep their centroid. Non-finite
    data, and data so large that its squared distances overflow, raise
    ValueError.

    `iterations` is an upper bound on the Lloyd passes. The loop stops at
    the first pass whose assignments equal the previous pass's, and that is
    exact: the centres are a function of the assignments (empty clusters
    keep their centroid), so every later pass would repeat them bit for
    bit. K-means++ likewise stops its D^2 updates once the
    weights sum to 0, drawing each remaining centre as before.

    Each new centre c rescores only the rows it might move. One GEMV gives
    every row's expanded distance |x|^2 - 2x.c + |c|^2, within (2q+4)uM +
    4q eta of |x - c|^2 (M = |x|^2 + |c|^2, u the unit roundoff, eta the
    smallest subnormal), and the exact D^2 `sum((x - c)^2)` is within
    (q+2)u(2M) + q eta of it, as in `vq._euclidean_block`. A row whose
    expanded distance exceeds its current D^2 by more than twice the sum of
    the two has an exact D^2 above its current one, so the minimum keeps
    it; every other row, and every row whose M may overflow or whose
    expanded distance is NaN, gets the exact D^2 as before (summing a
    subset of rows gives each row the same bits). The draw runs the steps
    `Generator.choice(n, p=d2 / total)` runs: cumulative sum of the
    weights, scaled to end at 1, then `searchsorted` of one `random()`
    draw, which leaves the generator's stream as `choice` does. So the
    entries and the state `rng` is left in are those of the full loops.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    num_codes = integer_at_least(num_codes, "num_codes")
    iterations = integer_at_least(iterations, "iterations", 0)
    if len(data) < num_codes:
        raise ValueError(f"k-means needs at least {num_codes} vectors, got {len(data)}")
    if not np.isfinite(data).all():
        raise ValueError("k-means data must be finite")

    rng = as_generator(rng)
    centers = _kmeans_plus_plus(data, num_codes, rng)
    idx = None
    for _ in range(iterations):
        previous, idx = idx, assign_batch(data, centers, EUCLIDEAN)
        if previous is not None and np.array_equal(idx, previous):
            break  # a fixed point: the centres stand
        counts, sums = _cluster_stats(data, idx, num_codes)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
    return centers


def _init_sample_size(corpus_len: int, config: TrainConfig) -> int:
    """Leading corpus slice used for k-means initialization.

    At least 2*K vectors (when the corpus has them); a sample of exactly K
    points would be memorized by the first layer. 2*K does not keep deeper
    layers' residuals from degenerating either: every layer is fitted on the
    same rows, so with 8 layers of K=1024 at d=32 the first three leave each
    of the 2,048 rows an exactly zero residual, and layers 4-8 fit an
    all-zero one.
    """
    return min(corpus_len, max(2 * config.codebook_size, config.batch_size))


def _init_layer_codebooks(
    sample: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per-layer entry matrices over the init sample, with the EMA cluster
    sizes and vector sums each layer starts from.

    Each layer is built from what the previous layers left of the sample,
    under its Euclidean assignment. kmeans: k-means over that residual,
    whose statistics are each cluster's size and vector sum in that
    assignment (the clusters of Lloyd's last centres). random:
    per-dimension moment-matched Gaussian noise at the residual's scale,
    with sizes 1 and sums the entries; codes start with no relation to
    individual data points, as when a codebook is trained from scratch
    alongside an encoder.
    """
    layers, sizes, sums = [], [], []
    residual = sample
    for _ in range(config.num_layers):
        if config.init == "random":
            std = residual.std(axis=0) + 1e-12
            noise = rng.standard_normal((config.codebook_size, residual.shape[1]))
            # A codebook's checks: noise at an overflowing scale is not finite.
            entries = Codebook(residual.mean(axis=0) + std * noise).entries
        else:
            entries = kmeans_init(residual, config.codebook_size, rng=rng)
        idx = assign_batch(residual, entries, EUCLIDEAN)
        if config.init == "random":
            layer_sizes, layer_sums = np.ones(config.codebook_size), entries.copy()
        else:
            layer_sizes, layer_sums = _cluster_stats(residual, idx, config.codebook_size)
        sizes.append(layer_sizes)
        sums.append(layer_sums)
        residual = residual - entries[idx]
        layers.append(entries)
    return layers, sizes, sums


def _layer_utilization(corpus: np.ndarray, quantizer: RvqQuantizer) -> np.ndarray:
    if quantizer.scheme == PROJECTED:
        corpus = corpus @ quantizer.projections[0].proj_in
    codes = _assign_codes(corpus, [layer.entries for layer in quantizer.layers], quantizer.metric)
    k = quantizer.codebook_size
    return np.array(
        [
            UtilizationReport(n, np.bincount(codes[:, n], minlength=k)).utilization_fraction
            for n in range(quantizer.num_layers)
        ]
    )


def _check_finite(step: int, what: str, *values) -> None:
    if not all(np.isfinite(value).all() for value in values):
        raise NumericalError(f"{what} became non-finite at step {step}; aborting training")


def _train_ema(corpus: np.ndarray, config: TrainConfig, rng: np.random.Generator):
    metric = config.metric
    init_n = _init_sample_size(len(corpus), config)
    entries, sizes, sums = _init_layer_codebooks(corpus[:init_n], config, rng)

    mse = np.empty(config.steps)
    with_restart = config.scheme == SCHEME_EMA_RESTART
    # Dead at a check: no step has assigned the code since the codebook was built.
    used = np.zeros((config.num_layers, config.codebook_size), dtype=bool)
    for step in range(config.steps):
        picks = rng.choice(len(corpus), size=config.batch_size, replace=False)
        batch = corpus[picks]
        layer_inputs = []

        def nearest(residual, n):
            layer_inputs.append(residual)
            return assign_batch(residual, entries[n], metric)

        # No lookup reads an updated codebook (layer n+1 never sees layer n's
        # update), so updating every layer after the recursion is exact.
        codes, residual = residual_codes(batch, entries, nearest)
        used[np.arange(config.num_layers), codes] = True
        for n in range(config.num_layers):
            entries[n], sizes[n], sums[n] = ema_update(
                sizes[n], sums[n], layer_inputs[n], codes[:, n], decay=config.decay
            )
        mse[step] = float((residual**2).sum()) / config.batch_size
        _check_finite(step, "quantization MSE", mse[step])

        if with_restart and (step + 1) % config.restart_period == 0:
            for n in range(config.num_layers):
                entries[n], _ = restart_dead_codes(entries[n], layer_inputs[n], used[n], rng=rng)
                # A restarted code starts over at size 1, summing its new entry.
                dead = ~used[n]
                sizes[n][dead], sums[n][dead] = 1.0, entries[n][dead]

    layers = [Codebook(e, metric) for e in entries]
    quantizer = RvqQuantizer(layers=layers, latent_dim=config.latent_dim, scheme=PLAIN)
    # For the plain scheme the codebook term's value coincides with the MSE.
    return quantizer, mse, mse.copy()


def _train_projected(corpus: np.ndarray, config: TrainConfig, rng: np.random.Generator):
    metric = config.metric
    d, q = config.latent_dim, config.quant_dim
    proj_in = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, q))
    proj_out = rng.normal(0.0, 1.0 / np.sqrt(q), size=(q, d))

    init_n = _init_sample_size(len(corpus), config)
    entries, _, _ = _init_layer_codebooks(corpus[:init_n] @ proj_in, config, rng)
    params = ProjectedParams(proj_in=proj_in, proj_out=proj_out, entries=entries)

    mse = np.empty(config.steps)
    cb_series = np.empty(config.steps)
    lr = config.learning_rate
    for step in range(config.steps):
        picks = rng.choice(len(corpus), size=config.batch_size, replace=False)
        batch = corpus[picks]
        codes = projected_assign(params, batch, metric)
        z = batch @ params.proj_in
        quant = entry_sum(params.entries, codes)

        recon = quant @ params.proj_out
        mse[step] = float(((recon - batch) ** 2).sum()) / config.batch_size
        cb_series[step] = float(((quant - z) ** 2).sum()) / config.batch_size
        # The commitment term has the codebook term's value.
        total = (
            mse[step]
            + config.codebook_weight * cb_series[step]
            + config.commitment_weight * cb_series[step]
        )
        _check_finite(step, "total loss", total)

        grads = projected_grads(
            params,
            batch,
            codes,
            z_ref=z,
            q_ref=quant,
            codebook_weight=config.codebook_weight,
            commitment_weight=config.commitment_weight,
        )
        params.proj_in -= lr * grads.proj_in
        params.proj_out -= lr * grads.proj_out
        for n in range(config.num_layers):
            params.entries[n] -= lr * grads.entries[n]
        _check_finite(step, "parameters", params.proj_in, params.proj_out, *params.entries)

    pair = ProjectionPair(proj_in=params.proj_in, proj_out=params.proj_out)
    layers = [Codebook(e, metric) for e in params.entries]
    quantizer = RvqQuantizer(
        layers=layers,
        latent_dim=d,
        scheme=PROJECTED,
        projections=[pair] * config.num_layers,
    )
    return quantizer, mse, cb_series


def train_quantizer(corpus, config: TrainConfig) -> tuple[RvqQuantizer, TrainReport]:
    """Train a residual quantizer on a corpus under the configured scheme.

    Codebooks are initialized (`config.init`) layer by layer on the residuals
    of the leading max(2 * codebook_size, batch_size) corpus vectors.
    Identical corpus, config and seed reproduce bit-identical quantizers.
    """
    corpus = np.atleast_2d(np.asarray(corpus, dtype=np.float64))
    if corpus.shape[1] != config.latent_dim:
        raise ValueError(
            f"corpus dim {corpus.shape[1]} does not match latent_dim {config.latent_dim}"
        )
    if not np.isfinite(corpus).all():
        raise ValueError("corpus vectors must be finite")
    if len(corpus) < config.codebook_size:
        raise ValueError(
            f"corpus has {len(corpus)} vectors but initialization needs at least "
            f"{config.codebook_size}"
        )
    if len(corpus) < config.batch_size:
        raise ValueError("corpus smaller than batch_size")

    rng = as_generator(config.seed)
    train = _train_projected if config.scheme == SCHEME_PROJECTED else _train_ema
    quantizer, mse, codebook = train(corpus, config, rng)
    report = TrainReport(mse=mse, codebook=codebook, utilization=_layer_utilization(corpus, quantizer))
    return quantizer, report
