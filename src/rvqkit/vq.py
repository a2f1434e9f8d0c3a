"""Single-layer vector quantization.

A codebook is its raw (unnormalized) code vectors and the metric they are
looked up under. Lookups are exhaustive over the codebook under either
squared-Euclidean or cosine distance; updates cover the EMA rule with
Laplace-smoothed normalization (constant `EMA_EPSILON`) and the dead-code
restart that resamples from a batch the entries a caller's boolean mask
marks unused. The EMA statistics (cluster sizes and vector sums) and the
mask of assigned codes are not part of a codebook: EMA training in
`training` keeps them, primes them, passes them through `ema_update` and
resets them at each restart.

Lookups (`nearest_codes`, each layer of `rvq` encoding, and training's
`assign_batch`) run one lookup per metric, in one loop over row blocks of at
most 512 KB of scores (128 float32 rows under Euclidean, 64 float64 rows
under cosine, at K=1024 distinct entries), which stay well inside one core's
L2 cache; a lookup that fits one block returns the kernel's arrays as they
are. Euclidean (`_euclidean_block`): one float32 GEMM of -2x with a column
of ones against a (q+1, K') table, the K' distinct entries transposed over
their squared norms, all scaled by one power of two, so the GEMM adds the
norms itself; then two passes over the scores, for each row's best entry
and its runner-up, and one vectorized exact rescoring of every (row,
candidate) pair within the derived float32 rounding bound. This
screen-then-rescore follows FAISS (Johnson, Douze & Jegou,
arXiv:1702.08734); the bound follows Higham, Accuracy and Stability of
Numerical Algorithms, ch. 3. The kernel finds non-finite queries through the
scale |x|^2 it computes for the bound, with no scan of its own. The table
holds only the first copy of each block of identical entries, so copies cost
neither GEMM columns nor rescoring. With BLAS on one thread, on random
normal entries and queries at K=1024, q=32, the lookup costs about 0.92 us a
row over 8,192 rows (1.5 us with a float64 GEMM). In a bench-shaped
EMA-restart `train` (8 layers, K=1024, q=32, 60 steps of 256 rows), where
deep layers hold hundreds of copies, the steps' lookups on tables with
copies cost about 1.3 us a row (copy-free tables: 1.6-1.8 us), and lookups
on an all-zero layer 0.08 us a row. A one-frame `rvq_encode` through 8
layers, which runs `_lookup` on each layer's cached tables, costs about
183 us a frame. Cosine
(`_cosine_block`): the loop normalizes every query once, then each block is
one GEMM of unit queries against a contiguous (q, K) table of unit entries,
then the largest similarity, mapped to the first copy of its unit entry
(BLAS may round equal columns differently). At q=8 that GEMM is bound by
writing its scores: with BLAS on one thread it costs 0.50 us a row in 64-row
blocks, against 0.98 us in 256-row blocks, and 0.77 us in 64-row blocks on a
transposed view of the unit entries. A zero vector has no direction: it
normalizes to zero, so its cosine with every vector is 0 (the `F.normalize`
convention of DAC).

K-means++ seeding (`kmeans_init`) computes one GEMV per new centre and
recomputes the exact D^2 only of the rows a rounding bound cannot rule out.
On the 2,048-row init sample of an 8-layer, K=1024, d=32 quantizer that is
a median of 2 rows a centre (9 at the 90th percentile); with BLAS on one
thread a first-layer centre costs 56-84 us, against 195-265 us for the
exact update of every row and `rng.choice`.

Lookups are pure functions of an immutable codebook and can run from any
number of threads (the first computes the codebook's lookup tables and makes
its entries read-only); `ema_update` and `restart_dead_codes` return new
arrays and codebooks and never mutate their input, so the caller owns write
ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import BLOCK_BYTES, as_generator

EUCLIDEAN = "euclidean"
COSINE = "cosine"
METRICS = (EUCLIDEAN, COSINE)

MAX_CODES = 65536  # exhaustive lookup only; no approximate indexing
DEFAULT_DECAY = 0.99
EMA_EPSILON = 1e-5  # Laplace smoothing of the EMA cluster sizes in `ema_update`

# Unit roundoff and the smallest subnormal of float64 and of float32, for the
# rounding bound of the Euclidean lookup (see `_euclidean_block`).
_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL = 2.0**-1074
_F32_UNIT_ROUNDOFF = 2.0**-24
_F32_SUBNORMAL = 2.0**-149
_FLOAT_MAX = float(np.finfo(np.float64).max)
# Rows whose scale |x|^2 + max|c|^2 exceeds this may overflow in float64.
_SCALE_LIMIT = _FLOAT_MAX / 4
# Rows whose M, |x|^2 + max|c|^2 in the table's scaled units (see
# `_euclidean_block`), exceeds this may overflow in the float32 GEMM, whose
# largest finite value is just below 2^128.
_F32_SCALE_LIMIT = 2.0**120


@dataclass
class Codebook:
    """One quantization layer: K code vectors and the metric they are looked
    up under. EMA training keeps its statistics itself (see `ema_update`).

    entries: (K, q) code vectors in quantization space
    metric:  "euclidean" or "cosine"
    """

    entries: np.ndarray
    metric: str = EUCLIDEAN
    _tables: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        self.validate()

    @classmethod
    def from_entries(cls, entries, metric: str = EUCLIDEAN) -> "Codebook":
        """Build a codebook around a writeable copy of `entries`."""
        return cls(np.array(entries, dtype=np.float64), metric)

    @property
    def num_codes(self) -> int:
        return self.entries.shape[0]

    @property
    def code_dim(self) -> int:
        return self.entries.shape[1]

    def _lookup_tables(self) -> tuple:
        """What every lookup reads, computed at the first one.

        `_euclidean_tables` or `_cosine_tables`, which training builds per
        call on its entry matrices. The entries are made read-only here, so
        a later in-place write raises instead of leaving the tables stale. A
        replaced or writeable entry array gets new tables. Concurrent first
        lookups compute the same tables, so the race is harmless.
        """
        tables = self._tables
        if tables is None or tables[0] is not self.entries or self.entries.flags.writeable:
            self.entries.flags.writeable = False
            tables = self._tables = _build_tables(self.entries, self.metric)
        return tables

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


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm. A row of zeros has no direction and stays
    zero, so its cosine with every vector is 0; a row that is not finite
    raises ValueError."""
    # Below this peak no sum of squares overflows (NaN fails the test too).
    # The ufuncs are called directly: one-frame encoding runs this per layer,
    # and the reduce is the sum `np.linalg.norm` takes, bit for bit.
    peak = np.maximum.reduce(np.abs(matrix), axis=None, initial=0.0)
    if peak < math.sqrt(_FLOAT_MAX / matrix.shape[1]):
        norms = np.sqrt(np.add.reduce(matrix * matrix, axis=1))
        if norms.all():
            return matrix / norms[:, None]
        zero = norms == 0
        if not matrix[zero].any():  # no norm underflowed: only zero rows
            return matrix / np.where(zero, 1.0, norms)[:, None]
    elif not np.isfinite(matrix).all():
        raise ValueError("queries must be finite")  # entries are checked finite
    # The squares of tiny components underflow to a zero norm, and those of
    # huge ones overflow to an infinite one: rescale those rows by their
    # largest component first. Zero rows stay zero: they are divided by 1,
    # and a rescaled row that is not zero has norm >= 1, so the floor of 1
    # below changes no other row.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    odd = (norms == 0) | (norms == np.inf)
    peaks = np.abs(matrix[odd]).max(axis=1)
    peaks[peaks == 0] = 1.0
    out = matrix / np.where(odd, 1.0, norms)[:, None]
    scaled = matrix[odd] / peaks[:, None]
    out[odd] = scaled / np.maximum(np.linalg.norm(scaled, axis=1), 1.0)[:, None]
    return out


def _exact_sq_distances(x: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Squared distances of one row, or of rows paired with entries, as
    explicit differences: the reference every Euclidean result equals."""
    diff = x - entries
    return np.einsum("nq,nq->n", diff, diff)


def _same_where(rows: np.ndarray, order: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """Whether `rows[order]` equals the next row, compared only where `tied`
    (False elsewhere)."""
    same = np.zeros_like(tied)
    at = np.flatnonzero(tied)
    same[at] = (rows[order[at + 1]] == rows[order[at]]).all(axis=1)
    return same


def _first_copies(rows: np.ndarray, key: np.ndarray) -> np.ndarray | None:
    """The index of the first row equal to each row, or None when no two
    rows are equal; `key` holds one value per row that equal rows share.

    Rows need comparing only where keys tie, and one sort of the keys tells
    whether any do. A stable sort by key then puts each block of copies side
    by side, lowest index first. Distinct rows of one key could split a
    block: then the last component breaks the ties, which tells a row x
    from -x (the two residuals of a 2-point k-means cluster share their
    squared norm), and only where rows of one key and one last component
    still differ do all the components. At K=1024, q=32 that two-key sort
    costs about 85 us, against 1.8 ms for the sort on every component. Only
    the adjacent rows whose sort keys tie are gathered and compared.
    """
    ranked = np.sort(key)
    key_tied = ranked[1:] == ranked[:-1]
    if not key_tied.any():
        return None
    order = np.argsort(key, kind="stable")
    tied, same = key_tied, _same_where(rows, order, key_tied)
    for sort_keys in ((rows[:, -1], key), (*rows.T[::-1], key)):
        if not (tied & ~same).any():
            break
        order = np.lexsort(sort_keys)
        last = rows[order, -1]
        tied = key_tied & (last[1:] == last[:-1])
        same = _same_where(rows, order, tied)
    if not same.any():
        return None
    starts = np.concatenate(([True], ~same))
    first = np.empty(len(rows), dtype=np.int64)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _euclidean_tables(entries: np.ndarray) -> tuple:
    """What the Euclidean kernel reads: (entries, the (q+1, K') float32 GEMM
    table of the K' distinct entries, its power-of-two scale p, the largest
    query scale |x|^2 that the GEMM takes, the slope and floor of the
    rounding bound, and `keep`, the code of each table column, or None when
    no two entries are equal).

    The GEMM table is one C-contiguous float32 matrix: the transposed entries
    times p, over their squared norms times p^2, so that the kernel's GEMM
    adds the norms itself. p = 2^-e, with 2^e just above the largest entry
    component, puts every scaled component below 1 and the largest squared
    norm within [1/4, q): float32 keeps its precision whatever the codebook's
    scale, and p exists even where squared norms overflow. e is at least
    -511, so that p^2 stays a normal float64; a smaller codebook is scaled
    less, and the bound's underflow terms cover it. Scaling by a power of two
    is exact, so the float32 table is the cast of the scaled float64 one.

    Only the first copy of each block of identical entries gets a column, and
    `keep` lists those codes in ascending order, so copies cost neither GEMM
    columns nor rescoring. This is exact: copies have the same exact
    distance, and the lowest column is the lowest code, so ties still go to
    the lowest index.
    """
    k, q = entries.shape
    sq_norms = np.einsum("kq,kq->k", entries, entries)
    max_sq_norm = float(sq_norms.max())
    first = _first_copies(entries, sq_norms)  # equal entries have equal norms
    keep, columns = None, entries
    if first is not None:
        keep = np.flatnonzero(first == np.arange(k))
        columns, sq_norms = entries[keep], sq_norms[keep]
    p = 2.0 ** -max(math.frexp(max(entries.max(), -entries.min()))[1], -511)
    table = np.empty((q + 1, len(columns)), dtype=np.float32)
    np.multiply(columns.T, p, out=table[:q])
    np.multiply(sq_norms * p, p, out=table[q])
    # Where p^2 is subnormal or 0, the squared norms exceed _SCALE_LIMIT, so
    # every row is wide and the bound below is not used.
    limit = min(_F32_SCALE_LIMIT / p / p, _SCALE_LIMIT) - max_sq_norm
    slope = 8 * (q + 4) * _F32_UNIT_ROUNDOFF * (p * p)
    floor = slope * max_sq_norm + 8 * (q + 1) * _F32_SUBNORMAL + 8 * q * _SUBNORMAL * (p * p)
    return entries, table, p, limit, slope, floor, keep


def _euclidean_block(x: np.ndarray, tables: tuple) -> tuple[np.ndarray, None]:
    """Exact nearest-entry indices of a row block, through one float32 GEMM;
    the second item, the cosine kernel's similarities, is None.

    The score s_k = |c_k|^2 - 2 x.c_k is |x - c_k|^2 - |x|^2. The GEMM
    computes p^2 s_k in float32 (p the table's power of two, see
    `_euclidean_tables`), as one row of q+1 terms: the products of the float32
    casts of -2p x_i and of p c_ik, and 1 times the cast of the scaled norm.
    In scaled units x' = p x, c' = p c, M = |x'|^2 + max_k |c'_k|^2, with u
    and eta the unit roundoff and smallest subnormal of float32 (U and H of
    float64), the error E of a score has four parts:
    - casts: each cast is within u|v| + eta/2 of its value v, so the products
      are within 2u(2|x'||c'_k|) and the norm within u|c'_k|^2 (plus (q+2)U
      from its float64 sum), at most 3uM over all;
    - summation: any order (GEMM, pairwise, FMA) of the q+1 terms is within
      gamma_(q+1) = (q+1)u / (1 - (q+1)u) times their magnitudes, 2|x'||c'_k|
      + |c'_k|^2 <= 2M;
    - underflow: the casts of components below float32's normal range and
      products that fall into it add (1.5q+1)eta, the tiny components of -2x'
      (eta/2)|x'|^2, and the float64 norm qH p^2, which is not tiny where a
      codebook below 2^-511 is scaled less than its size;
    - overflow: none, as long as M stays below 2^120; larger rows are wide.
    So E <= (2q+5)uM + (1.5q+1)eta + qHp^2, up to terms of order u^2 (the
    (eta/2)|x'|^2 joins the uM term). The exact-difference reference D_k =
    sum((x - c_k)^2) is within E_D = (q+2)U(2M) + qHp^2 of p^2|x - c_k|^2,
    so the reference minimum has a score at most 2(E + E_D) above the best
    one. `tol` = 8(q+4)uM + 8(q+1)eta + 8qHp^2 is about twice that in each
    term: 8(q+1)uM for the summation, 24uM for the casts and the float64
    terms, and the underflow terms. The spare covers the rounding of M (from
    the float64 |x|^2, within qU|x|^2 + qH) and of `tol` and the bar, which
    are float64; a float32 score compares with the bar exactly.

    Rows whose scale |x|^2 is over `limit`, where M or the float64
    rescoring may overflow, are wide: they are rescored over every distinct
    entry, and their GEMM rows are zeroed. A scale that is NaN or +inf is
    wide too, and that is how non-finite queries are found: they raise
    ValueError.

    After the GEMM, two passes over the block find the candidates: `argmin`
    gives the lowest-column minimum `best` and the bar min s + tol, and with
    `best`'s score set to +inf, `min` gives the runner-up. A row whose
    runner-up is above the bar has one candidate, `best`, and its answer. The
    other rows take `best` and every column at or under the bar (every
    column, if wide), and all their (row, candidate) pairs are rescored with
    exact differences at once; each row gets its first minimum, the lowest
    column. Columns hold the distinct entries in ascending code order (see
    `_euclidean_tables`), so mapping the answers through `keep` gives the
    lowest code at the exact minimum distance.
    """
    entries, table, p, limit, slope, floor, keep = tables
    n, q = x.shape
    scale = np.einsum("nq,nq->n", x, x)
    gemm_rows, wide = x, None
    if not scale.max(initial=0.0) <= limit:  # NaN is never under it
        wide = ~(scale <= limit)
        if not np.isfinite(x[wide]).all():
            raise ValueError("queries must be finite")
        gemm_rows = np.where(wide[:, None], 0.0, x)
        scale = np.where(wide, 0.0, scale)
    lhs = np.empty((n, q + 1), dtype=np.float32)
    np.multiply(gemm_rows, -2.0 * p, out=lhs[:, :q])
    lhs[:, q] = 1.0
    scores = lhs @ table
    best = scores.argmin(axis=1)
    rows = np.arange(n)
    bar = scores[rows, best] + (scale * slope + floor)
    scores[rows, best] = np.inf  # what is left is the runner-up
    flagged = scores.min(axis=1) <= bar
    if wide is not None:
        flagged |= wide
    redo = np.flatnonzero(flagged)
    if len(redo):
        near = scores[redo] <= bar[redo, None]
        near[np.arange(len(redo)), best[redo]] = True
        if wide is not None:
            near[wide[redo]] = True
        pair_rows, cands = np.nonzero(near)
        codes = cands if keep is None else keep[cands]
        dists = _exact_sq_distances(x[redo[pair_rows]], entries[codes])
        starts = np.flatnonzero(np.diff(pair_rows, prepend=-1))
        at_min = dists == np.minimum.reduceat(dists, starts)[pair_rows]
        best[redo] = np.minimum.reduceat(np.where(at_min, cands, table.shape[1]), starts)
    return (best if keep is None else keep[best]), None


def _cosine_tables(entries: np.ndarray) -> tuple:
    """What the cosine kernel reads: (entries, the unit entries as one
    C-contiguous (q, K) matrix, the first copy of each unit entry or None).

    The GEMM reads the table in its own layout: on a transposed (K, q) view
    OpenBLAS takes a slower path, 0.77 against 0.50 us a row in 64-row
    blocks at K=1024, q=8 (BLAS on one thread). In either layout BLAS may
    round two equal columns differently (seen with one query row), so the
    kernel maps each answer to the first copy of its unit entry: copies
    have the same exact cosine, and ties go to the lowest index.
    """
    units = _normalize_rows(entries)
    return entries, np.ascontiguousarray(units.T), _first_copies(units, units[:, 0])


def _cosine_block(units: np.ndarray, tables: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-entry indices of a block of unit (or zero) query rows under
    cosine, with the cosine similarity of each answer: one GEMM against the
    unit table, then the largest similarity, ties to the lowest index. At
    q=8 the GEMM is bound by writing its (rows, K) scores, so `_lookup`
    keeps blocks small."""
    _, table, first = tables
    sims = units @ table
    best = np.argmax(sims, axis=1)
    best_sims = sims[np.arange(len(best)), best]
    return (best if first is None else first[best]), best_sims


def _build_tables(entries: np.ndarray, metric: str) -> tuple:
    if metric == COSINE:
        return _cosine_tables(entries)
    if metric != EUCLIDEAN:
        raise ValueError(f"unknown metric {metric!r}")
    return _euclidean_tables(entries)


def _lookup(queries: np.ndarray, tables: tuple, metric: str) -> tuple:
    """The one row-block loop of both metrics: nearest-entry indices, in
    blocks of at most `BLOCK_BYTES` of scores (128 float32 rows at
    K=1024 distinct entries under Euclidean, 64 float64 rows at K=1024 under
    cosine), and under cosine
    the similarity of each answer (None under Euclidean). A lookup that fits
    one block returns the kernel's own arrays.

    Non-finite queries raise ValueError under both metrics: under Euclidean
    from the kernel's scale, under cosine here. Under cosine the queries are
    normalized here, all at once: `_normalize_rows` works row by row, so that
    is bit for bit what normalizing each block would give, and the blocks
    run only the GEMM, whose scores stay in the L2 cache.
    """
    if metric == COSINE:
        queries = _normalize_rows(queries)  # rejects non-finite queries
    block = _cosine_block if metric == COSINE else _euclidean_block
    table = tables[1]
    rows = max(1, BLOCK_BYTES // (table.shape[1] * table.itemsize))
    if len(queries) <= rows:
        return block(queries, tables)
    idx = np.empty(len(queries), dtype=np.int64)
    sims = np.empty(len(queries)) if metric == COSINE else None
    for lo in range(0, len(queries), rows):
        part = slice(lo, lo + rows)
        if sims is None:
            idx[part] = block(queries[part], tables)[0]
        else:
            idx[part], sims[part] = block(queries[part], tables)
    return idx, sims


def nearest_codes(queries, codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive nearest-entry lookup for a batch of query rows.

    Returns (indices, distances). Euclidean distances are true L2 norms
    (not squared), equal bit for bit to the square root of the summed
    squared differences to every entry, with ties to the lowest code index:
    a float32 GEMM screens the entries, and every entry its rounding bound
    cannot rule out is rescored with exact differences (see
    `_euclidean_block`). Cosine distance is 1 - cos(query, entry), clamped
    at 0 (rounding can put an exact match just below it), from one float64
    GEMM: ties go to the lowest index only among entries whose unit vectors
    are bitwise equal, and other near-ties follow the GEMM's rounding, so a
    one-row and a batched lookup can disagree. A zero query or entry has
    cosine 0 with every vector, so a zero query gets code 0 at distance 1,
    and a zero entry wins only when no entry has a positive cosine.
    Non-finite queries are rejected with ValueError, since no entry is
    nearest to them. The first lookup makes the codebook's entries
    read-only (see `Codebook._lookup_tables`).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[1] != codebook.code_dim:
        raise ValueError(
            f"query dim {queries.shape[1]} does not match codebook dim {codebook.code_dim}"
        )
    if codebook.metric == COSINE:
        idx, sims = _lookup(queries, codebook._lookup_tables(), COSINE)
        return idx, np.maximum(1.0 - sims, 0.0)

    idx, _ = _lookup(queries, codebook._lookup_tables(), EUCLIDEAN)
    return idx, np.sqrt(_exact_sq_distances(queries, codebook.entries[idx]))


def assign_batch(queries: np.ndarray, entries: np.ndarray, metric: str) -> np.ndarray:
    """Training-path nearest-entry indices over a (K, q) entry matrix.

    The lookup of `nearest_codes`, on tables built for this call, so
    k-means, the EMA steps, projected training and the reported utilization
    get the codes that encoding gives. Non-finite queries raise ValueError
    under both metrics, as they do in `nearest_codes`.
    """
    return _lookup(queries, _build_tables(entries, metric), metric)[0]


def ema_update(
    cluster_size,
    embed_sum,
    vectors,
    indices,
    *,
    decay: float = DEFAULT_DECAY,
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

    counts = np.bincount(indices, minlength=k).astype(np.float64)
    sums = np.zeros_like(embed_sum)
    np.add.at(sums, indices, vectors)

    new_size = decay * cluster_size + (1.0 - decay) * counts
    new_sum = decay * embed_sum + (1.0 - decay) * sums
    total = new_size.sum()
    smoothed = (new_size + EMA_EPSILON) / (total + k * EMA_EPSILON) * total
    entries = new_sum / smoothed[:, None]
    if not np.isfinite(entries).all():
        raise ValueError("codebook entries must be finite")
    return entries, new_size, new_sum


def restart_dead_codes(
    codebook: Codebook,
    batch,
    used,
    rng=0,
) -> tuple[Codebook, int]:
    """Replace the dead codes: those whose entry in the (K,) boolean mask
    `used` is False. The caller decides what counts as used; training marks
    every code its steps have assigned since the codebook was built.

    Replacement entries are drawn uniformly from `batch` (without replacement
    while the batch lasts); the other codes keep theirs. Returns the new
    codebook and the number of restarts. EMA training then resets each
    restarted code's statistics to (1, its new entry).
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if len(batch) == 0:
        raise ValueError("restart_dead_codes requires a non-empty batch")
    if batch.shape[1] != codebook.code_dim:
        raise ValueError(
            f"batch dim {batch.shape[1]} does not match codebook dim {codebook.code_dim}"
        )
    used = np.asarray(used)
    if used.dtype != np.bool_ or used.shape != (codebook.num_codes,):
        raise ValueError(f"used must be a boolean mask of shape ({codebook.num_codes},)")

    dead = np.flatnonzero(~used)
    if dead.size == 0:
        return codebook, 0

    rng = as_generator(rng)
    picks = rng.choice(len(batch), size=dead.size, replace=dead.size > len(batch))
    entries = codebook.entries.copy()
    entries[dead] = batch[picks]
    return Codebook(entries, codebook.metric), int(dead.size)


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


def kmeans_init(
    data,
    num_codes: int,
    iterations: int = 10,
    rng=0,
) -> Codebook:
    """Build a Euclidean codebook with seeded k-means++ plus Lloyd
    refinement. Empty clusters keep their centroid. Non-finite data, and
    data so large that its squared distances overflow, raise ValueError.

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
    (q+2)u(2M) + q eta of it, as in `_euclidean_block`. A row whose
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
    if num_codes < 1:
        raise ValueError("num_codes must be >= 1")
    if len(data) < num_codes:
        raise ValueError(f"k-means needs at least {num_codes} vectors, got {len(data)}")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if not np.isfinite(data).all():
        raise ValueError("k-means data must be finite")

    rng = as_generator(rng)
    centers = _kmeans_plus_plus(data, num_codes, rng)
    idx = None
    for _ in range(iterations):
        previous, idx = idx, assign_batch(data, centers, EUCLIDEAN)
        if previous is not None and np.array_equal(idx, previous):
            break  # a fixed point: the centres stand
        counts = np.bincount(idx, minlength=num_codes).astype(np.float64)
        sums = np.zeros_like(centers)
        np.add.at(sums, idx, data)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
    return Codebook(centers)
