"""Single-layer quantization: lookups, EMA updates, restarts, projections, k-means."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqkit import (
    Codebook,
    ProjectionPair,
    RvqQuantizer,
    ema_update,
    kmeans_init,
    nearest_codes,
    restart_dead_codes,
    rvq_encode_batch,
)
from rvqkit import training, vq
from rvqkit.vq import assign_batch


def brute_force_nearest(query, entries, metric="euclidean"):
    """Independent reference lookup: plain loop, no shared code with the library."""
    best_i, best_d = -1, None
    for i, entry in enumerate(entries):
        if metric == "euclidean":
            d = np.sqrt(((np.asarray(query) - entry) ** 2).sum())
        else:
            # A zero vector has no direction: its cosine with anything is 0.
            qn, en = np.linalg.norm(query), np.linalg.norm(entry)
            cos = 0.0 if qn == 0 or en == 0 else float(np.asarray(query) / qn @ (entry / en))
            d = 1.0 - cos
        if best_d is None or d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


class TestNearestCode:
    def test_three_entry_example(self):
        cb = Codebook.from_entries([[0, 0], [1, 0], [0, 1]])
        idx, dist = nearest_codes([0.9, 0.1], cb)
        assert idx[0] == 1
        assert dist[0] == pytest.approx(np.sqrt(0.01 + 0.01), abs=1e-12)
        oracle_i, oracle_d = brute_force_nearest([0.9, 0.1], cb.entries)
        assert idx[0] == oracle_i
        assert dist[0] == pytest.approx(oracle_d)

    def test_exact_match_zero_distance(self):
        cb = Codebook.from_entries([[1, 0], [0, 1]])
        idx, dist = nearest_codes([1.0, 0.0], cb)
        assert idx[0] == 0
        assert dist[0] == 0.0

    def test_cosine_scale_invariance_example(self):
        cb = Codebook.from_entries([[1, 0], [0, 1]], metric="cosine")
        idx, dist = nearest_codes([5.0, 0.0], cb)
        assert idx[0] == 0
        assert dist[0] == pytest.approx(0.0, abs=1e-12)

    def test_quantized_is_exact_entry(self):
        # The reported distance is the distance to the returned entry itself.
        cb = Codebook.from_entries([[0.3, -0.7], [2.2, 0.1]])
        q = np.array([2.0, 0.0])
        idx, dist = nearest_codes(q, cb)
        assert dist[0] == np.sqrt(((q - cb.entries[idx[0]]) ** 2).sum())

    def test_tie_breaks_to_lowest_index(self):
        cb = Codebook.from_entries([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        idx, _ = nearest_codes([[1.0, 0.0], [0.5, 0.0]], cb)
        assert idx.tolist() == [0, 0]

    def test_lookup_optimality_exhaustive(self):
        rng = np.random.default_rng(7)
        for metric in ("euclidean", "cosine"):
            entries = rng.normal(size=(257, 6))
            cb = Codebook.from_entries(entries, metric=metric)
            queries = rng.normal(size=(100, 6))
            idx, dist = nearest_codes(queries, cb)
            for i, q in enumerate(queries):
                for entry in entries:
                    if metric == "euclidean":
                        other = np.sqrt(((q - entry) ** 2).sum())
                    else:
                        other = 1.0 - (q / np.linalg.norm(q)) @ (entry / np.linalg.norm(entry))
                    assert dist[i] <= other + 1e-12

    def test_lookup_optimality_large_codebook(self):
        rng = np.random.default_rng(11)
        entries = rng.normal(size=(4096, 4))
        cb = Codebook.from_entries(entries)
        q = rng.normal(size=4)
        idx, dist = nearest_codes(q, cb)
        all_d = np.sqrt(((entries - q) ** 2).sum(axis=1))
        assert dist[0] <= all_d.min() + 1e-12
        assert idx[0] == int(np.argmin(all_d))

    def test_cosine_scale_invariance_random(self):
        rng = np.random.default_rng(3)
        entries = rng.normal(size=(50, 8))
        cb = Codebook.from_entries(entries, metric="cosine")
        for _ in range(50):
            q = rng.normal(size=8)
            base = nearest_codes(q, cb)[0]
            for scale in (0.01, 3.0, 1e4):
                assert nearest_codes(scale * q, cb)[0] == base

    def test_dimension_mismatch_raises(self):
        cb = Codebook.from_entries([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            nearest_codes([1.0, 0.0, 0.0], cb)

    def test_non_finite_query_raises(self):
        for metric in ("euclidean", "cosine"):
            cb = Codebook.from_entries([[1, 0], [0, 1]], metric=metric)
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="finite"):
                    nearest_codes([[1.0, 0.0], [bad, 0.0]], cb)
                with pytest.raises(ValueError, match="finite"):
                    nearest_codes([0.0, bad], cb)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_non_finite_query_in_a_late_block_raises(self, metric):
        # The bad row sits past the first lookup blocks of the training path,
        # under the float32 Euclidean cap (the larger one) too.
        rng = np.random.default_rng(1100)
        entries, queries = rng.normal(size=(1024, 8)), rng.normal(size=(1200, 8))
        queries[1100, 3] = np.nan
        assert 1100 >= vq.BLOCK_BYTES // (4 * 1024)
        with pytest.raises(ValueError, match="queries must be finite"):
            assign_batch(queries, entries, metric)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_no_queries(self, metric):
        entries = np.random.default_rng(2).normal(size=(300, 8))
        idx, dist = nearest_codes(np.empty((0, 8)), Codebook.from_entries(entries, metric=metric))
        assert idx.shape == dist.shape == (0,) and idx.dtype == np.int64
        idx = assign_batch(np.empty((0, 8)), entries, metric)
        assert idx.shape == (0,) and idx.dtype == np.int64

    def test_cosine_tiny_query(self):
        # The squares of 1.2e-241 underflow; the query still has a direction.
        cb = Codebook.from_entries([[1.0], [-1.0]], metric="cosine")
        idx, dist = nearest_codes([[1.2e-241], [-1.2e-241]], cb)
        assert idx.tolist() == [0, 1]
        np.testing.assert_allclose(dist, 0.0, atol=1e-15)
        idx, _ = nearest_codes([3e-200, -4e-200], Codebook.from_entries(
            [[3.0, 4.0], [3.0, -4.0]], metric="cosine"))
        assert idx.tolist() == [1]

    def test_cosine_tiny_entry(self):
        cb = Codebook.from_entries([[1.0, 0.0], [1e-200, 1e-200]], metric="cosine")
        idx, dist = nearest_codes([[2.0, 2.0], [1.0, 0.1]], cb)
        assert idx.tolist() == [1, 0]
        assert dist[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_cosine_huge_vectors(self, scale):
        # Squared norms overflow above about 1.3e154; such rows still have a
        # direction, so they get the codes of their unscaled copies.
        rng = np.random.default_rng(17)
        entries, queries = rng.normal(size=(256, 8)), rng.normal(size=(64, 8))
        base_idx, base_dist = nearest_codes(queries, Codebook.from_entries(entries, metric="cosine"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e, q in ((scale * entries, queries), (entries, scale * queries),
                         (scale * entries, scale * queries)):
                idx, dist = nearest_codes(q, Codebook.from_entries(e, metric="cosine"))
                np.testing.assert_array_equal(idx, base_idx)
                np.testing.assert_allclose(dist, base_dist, atol=1e-12)

    def test_cosine_zero_vectors_have_no_direction(self):
        # A zero query has cosine 0 with every entry: code 0 at distance 1.
        cb = Codebook.from_entries([[1, 0], [0, 1]], metric="cosine")
        idx, dist = nearest_codes([[0.0, 0.0], [-0.0, 0.0]], cb)
        assert idx.tolist() == [0, 0]
        assert dist.tolist() == [1.0, 1.0]
        # A zero entry has cosine 0 with every query, so it wins only when
        # no entry has a positive cosine.
        zero = Codebook.from_entries([[1, 0], [0, 0], [0, 1]], metric="cosine")
        idx, dist = nearest_codes([[1.0, 1.0], [-1.0, 2.0], [-1.0, -1.0], [-1.0, 0.0]], zero)
        assert idx.tolist() == [0, 2, 1, 1]
        assert dist[2:].tolist() == [1.0, 1.0]
        assert nearest_codes([0.0, 0.0], zero)[0].tolist() == [0]

    def test_cosine_exact_matches_are_at_zero(self):
        # Rounding puts 1 - cos of an exact match within an ulp or two of 0,
        # on either side; distances are clamped at 0.
        rng = np.random.default_rng(31)
        entries = rng.normal(size=(64, 8))
        idx, dist = nearest_codes(entries, Codebook.from_entries(entries, metric="cosine"))
        np.testing.assert_array_equal(idx, np.arange(64))
        assert (dist >= 0.0).all() and (dist <= 1e-15).all()

    def test_cosine_training_lookup_matches_encoding(self):
        # Training and encoding share one cosine lookup, on entries and
        # queries that are zero, tiny (squares underflow) or huge (squares
        # overflow) alike.
        rng = np.random.default_rng(41)
        for _ in range(4):
            entries = rng.normal(size=(300, 8))
            queries = np.concatenate([entries[:20], rng.normal(size=(60, 8))])
            for rows, scale in ((entries, 0.0), (entries, 1e-200), (entries, 1e200),
                                (queries, 0.0), (queries, 1e-200), (queries, 1e200)):
                rows[rng.choice(len(rows), size=10, replace=False)] *= scale
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                idx, _ = nearest_codes(queries, Codebook.from_entries(entries, metric="cosine"))
                np.testing.assert_array_equal(assign_batch(queries, entries, "cosine"), idx)

    @given(st.data(), st.sampled_from(["euclidean", "cosine"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_with_duplicates(self, data, metric):
        # A coarse grid makes duplicate entries common; inserted copies make
        # them certain. Half the queries are exact copies of an entry.
        dim = data.draw(st.integers(1, 4))
        row = st.lists(st.integers(-2, 2).map(float), min_size=dim, max_size=dim)
        rows = data.draw(st.lists(row, min_size=1, max_size=10))
        for _ in range(data.draw(st.integers(1, 4))):
            copy = rows[data.draw(st.integers(0, len(rows) - 1))]
            rows.insert(data.draw(st.integers(0, len(rows))), copy)
        entries = np.array(rows)
        cb = Codebook.from_entries(entries, metric=metric)

        exact = data.draw(st.booleans())
        if exact:
            query = entries[data.draw(st.integers(0, len(rows) - 1))]
        else:
            # Tiny components are zeroed: their squares underflow the norm.
            coord = st.floats(-3, 3).map(lambda x: x if abs(x) > 1e-3 else 0.0)
            query = np.array(data.draw(st.lists(coord, min_size=dim, max_size=dim)))

        idx, dist = nearest_codes(query, cb)
        i, d = int(idx[0]), float(dist[0])
        _, oracle_d = brute_force_nearest(query, entries, metric)
        # Ties go to the lowest index among identical entries.
        assert i == next(j for j, e in enumerate(entries) if np.array_equal(e, entries[i]))
        assert d == pytest.approx(oracle_d, rel=1e-12, abs=1e-12)
        if exact and metric == "euclidean":
            assert d == 0.0
            assert i == next(j for j, e in enumerate(entries) if np.array_equal(e, query))
        elif exact and query.any():
            assert d == pytest.approx(0.0, abs=1e-12)


def exact_reference(queries, entries):
    """The exact-difference lookup the kernel must equal bit for bit."""
    diff = queries[:, None, :] - entries[None, :, :]
    d2 = np.einsum("nkq,nkq->nk", diff, diff)
    idx = np.argmin(d2, axis=1)
    return idx, np.sqrt(d2[np.arange(len(queries)), idx])


def assert_matches_reference(queries, entries):
    """Encoding and training lookups both equal the reference."""
    idx, dist = nearest_codes(queries, Codebook.from_entries(entries))
    ref_idx, ref_dist = exact_reference(queries, entries)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(dist.view(np.int64), ref_dist.view(np.int64))
    np.testing.assert_array_equal(assign_batch(queries, entries, "euclidean"), ref_idx)
    return idx, dist


class TestExactKernel:
    """The GEMM kernel against the exact-difference reference, at sizes where
    its rounding bound decides the answer."""

    @pytest.mark.parametrize("q", [8, 32])
    def test_entries_one_ulp_apart(self, q):
        # Rows of a constant codebook nudged by one ulp: expanded scores of
        # these entries differ only by rounding, so only the bound and the
        # rescoring keep the ties at the lowest index and exact matches at 0.
        rng = np.random.default_rng(q)
        entries = np.full((1024, q), 0.7)
        for row in rng.choice(1024, size=600, replace=False):
            col = rng.integers(q)
            entries[row, col] = np.nextafter(entries[row, col], rng.choice([-np.inf, np.inf]))
        queries = entries[[0, 5, 700, 1023, *rng.integers(0, 1024, size=60)]]
        idx, dist = assert_matches_reference(queries, entries)
        for i, query in zip(idx, queries):
            assert i == np.flatnonzero((entries == query).all(axis=1))[0]
        assert not dist.any()

    @pytest.mark.parametrize("q", [8, 32])
    def test_duplicate_blocks_and_exact_matches(self, q):
        rng = np.random.default_rng(100 + q)
        base = rng.normal(size=(48, q))
        entries = base[rng.integers(0, 48, size=512)]
        entries[100:164] = entries[0]
        queries = np.concatenate(
            [entries[rng.integers(0, 512, size=80)], rng.normal(size=(80, q)),
             base[rng.integers(0, 48, size=40)] + 1e-9 * rng.normal(size=(40, q))]
        )
        idx, dist = assert_matches_reference(queries, entries)
        assert not dist[:80].any()

    @pytest.mark.parametrize("q", [8, 32])
    @pytest.mark.parametrize(
        "scale",
        [1e-160, 1e-155, 1e-150, 1e-100, 1e-46, 1e-40, 1e-19, 1.0, 1e19, 1e39, 1e100, 1e150,
         1e154, 1e155, 1e160, 1e200],
    )
    def test_scales(self, q, scale):
        # Squares underflow below about 1e-154 and overflow above 1e154 in
        # float64, and below about 1e-19 and above 1e19 in float32, whose
        # components are subnormal below 1.2e-38 and overflow above 3.4e38;
        # every side must still return the exact-difference answer, with
        # exact matches at distance 0.
        rng = np.random.default_rng(7 * q)
        entries = scale * np.round(rng.normal(size=(300, q)), 2)
        queries = np.concatenate([entries[:40], scale * rng.normal(size=(40, q))])
        idx, dist = assert_matches_reference(queries, entries)
        np.testing.assert_array_equal(idx[:40], np.arange(40))
        assert not dist[:40].any()

    @pytest.mark.parametrize("q", [8, 32])
    @pytest.mark.parametrize("scale", [1.0, 1e-20, 1e-40, 1e18, 1e20, 1e30])
    def test_entries_within_float32_rounding(self, q, scale):
        # Clusters of entries 3e-8 apart, about half a float32 ulp: float32
        # scores rank a cluster by their rounding, so only the bound and the
        # exact rescoring give the exact-difference answer. Unscaled float32
        # would flush these squares to zero (1e-20), the components too
        # (1e-40), or overflow (1e20, 1e30).
        rng = np.random.default_rng(300 + q)
        base = rng.normal(size=(12, q))
        entries = base[rng.integers(0, 12, size=1024)] + 3e-8 * rng.normal(size=(1024, q))
        queries = np.concatenate([
            entries[rng.integers(0, 1024, size=100)],
            base[rng.integers(0, 12, size=100)] + 3e-8 * rng.normal(size=(100, q)),
        ])
        _, dist = assert_matches_reference(scale * queries, scale * entries)
        assert not dist[:100].any()

    @pytest.mark.parametrize("q", [8, 32])
    @pytest.mark.parametrize("scale", [1e-162, 1e-165, 1e-170])
    def test_reference_squares_underflow(self, q, scale):
        # Here the reference's squared differences are a few subnormal units
        # or 0, so its minimum is decided by their underflow; the scaled
        # float32 scores do not see it (the table's power of two stops at
        # 2^511), and only the bound's underflow term sends these rows to
        # the exact rescoring.
        rng = np.random.default_rng(7 * q)
        assert_matches_reference(scale * rng.normal(size=(80, q)), scale * rng.normal(size=(300, q)))

    def test_tables_collapse_every_copy(self):
        # Distinct entries of one norm sit between copies in a sort by norm.
        entries = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                            [1.0, 0.0], [0.0, 3.0]])
        _, table, p, _, _, _, keep = vq._euclidean_tables(entries)
        assert p == 0.25  # the largest component, 3, is below 2^2
        assert keep.tolist() == [0, 1, 4, 6]  # the first copy of each entry
        assert table[2].tolist() == [p**2, p**2, p**2, 9 * p**2]
        np.testing.assert_array_equal(table[:2], entries[keep].T * p)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_tables_match_brute_force(self, data):
        # Entries on a coarse grid, so that norms tie between copies and
        # between distinct entries alike; signed permuted unit vectors are
        # distinct entries of one norm; normal draws tie no norms, so the
        # tables skip the comparison. The copy-heavy kinds are what training
        # leaves: one entry copied everywhere, all zeros, pairs x and -x,
        # copies interleaved with distinct entries of their norm, and copies
        # of one entry around a single other one.
        dim = data.draw(st.integers(1, 5))
        kind = data.draw(st.sampled_from(["grid", "units", "normal", "copies", "zeros",
                                          "pairs", "interleaved", "one-other"]))
        k = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "grid":
            entries = rng.integers(-1, 2, size=(k, dim)).astype(float)
        elif kind == "units":
            signs = rng.choice([-2.5, 2.5], size=(k, 1))
            entries = np.eye(dim)[rng.integers(0, dim, size=k)] * signs
        elif kind == "normal":
            entries = rng.normal(size=(k, dim))
        elif kind == "copies":
            entries = np.repeat(rng.normal(size=(1, dim)), k, axis=0)
        elif kind == "zeros":
            entries = np.zeros((k, dim))
        elif kind == "pairs":
            half = rng.normal(size=((k + 1) // 2, dim))
            entries = np.concatenate([half, -half])[rng.permutation(2 * len(half))][:k]
        elif kind == "interleaved":
            # Sign flips and permutations of one vector share its norm.
            base = rng.normal(size=dim)
            flips = rng.choice([-1.0, 1.0], size=(4, dim)) * base
            entries = np.concatenate([flips, [np.roll(base, 1)]])[rng.integers(0, 5, size=k)]
        else:
            entries = np.repeat(rng.normal(size=(1, dim)), k, axis=0)
            entries[rng.integers(0, k)] = rng.normal(size=dim)
        _, table, p, _, _, _, keep = vq._euclidean_tables(entries)

        copy = np.array([any(np.array_equal(entries[j], entries[i]) for j in range(i))
                         for i in range(k)])
        # One column per distinct entry: its first copy, in code order.
        np.testing.assert_array_equal(np.arange(k) if keep is None else keep,
                                      np.flatnonzero(~copy))
        assert (keep is None) == (not copy.any())
        distinct = entries[~copy]
        sq_norms = table[dim].astype(np.float64) / p**2
        np.testing.assert_allclose(sq_norms, (distinct**2).sum(axis=1), rtol=2**-23)
        # p is the power of two just above the largest component.
        assert 0.5 <= np.abs(entries).max() * p < 1.0 or not entries.any() and p == 1.0
        # One C-contiguous float32 GEMM table: the cast of the transposed
        # distinct entries over their norms, scaled by p and p^2.
        assert table.shape == (dim + 1, len(distinct)) and table.flags.c_contiguous
        assert table.dtype == np.float32
        exact_norms = np.einsum("kq,kq->k", distinct, distinct)
        scaled = np.vstack([distinct.T * p, exact_norms * p * p])
        np.testing.assert_array_equal(table, scaled.astype(np.float32))
        if kind == "normal":
            assert not copy.any()

        # Lookups still equal the exact-difference reference: exact matches,
        # their negations and draws between them.
        queries = np.concatenate([entries, -entries, rng.normal(size=(8, dim))])
        assert_matches_reference(queries, entries)

        # The cosine tables map each entry to the first copy of its unit entry.
        _, _, first = vq._cosine_tables(entries)
        units = vq._normalize_rows(entries)
        expected = [next(j for j in range(k) if np.array_equal(units[j], units[i]))
                    for i in range(k)]
        np.testing.assert_array_equal(np.arange(k) if first is None else first, expected)

    def test_opposite_pairs_skip_the_full_row_sort(self, monkeypatch):
        # A 2-point k-means cluster leaves residuals x and -x, which share a
        # squared norm: their last components tell them apart, so the tables
        # sort on two keys and never on all q+1.
        rng = np.random.default_rng(30)
        half = rng.normal(size=(400, 32))
        entries = np.concatenate([half, -half, np.zeros((100, 32)), half[:124]])
        entries = entries[rng.permutation(1024)]
        calls, lexsort = [], np.lexsort

        def spy(keys, *args, **kwargs):
            calls.append(len(keys))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", spy)
        _, table, _, _, _, _, keep = vq._euclidean_tables(entries)
        assert calls == [2]
        assert table.shape == (33, 801)
        expected = [i for i in range(1024)
                    if not (entries[:i] == entries[i]).all(axis=1).any()]
        assert keep.tolist() == expected
        queries = np.concatenate([entries[rng.integers(0, 1024, size=100)],
                                  rng.normal(size=(100, 32))])
        assert_matches_reference(queries, entries)

    @pytest.mark.parametrize("q", [8, 32])
    def test_lookup_across_blocks(self, q, monkeypatch):
        # More queries than one block holds, with exact matches, copied
        # entries, and runs of one query across rows 64, 128, ..., 1024,
        # where blocks of a power-of-two size end. Every block stays under
        # the cap; q=8 is the projected codec's shape.
        rng = np.random.default_rng(1200)
        k = 1024
        entries = rng.normal(size=(k, q))
        entries[700:] = entries[rng.integers(0, 700, size=k - 700)]
        queries = np.concatenate([entries[rng.integers(0, k, size=500)],
                                  rng.normal(size=(700, q))])[rng.permutation(1200)]
        for edge in (64, 128, 256, 512, 1024):
            queries[edge - 4 : edge + 4] = entries[700 + edge % 300]  # a copied entry
        # 512 KB of scores: float32 under Euclidean, over the 700 distinct
        # entries, and float64 under cosine, over all 1,024 unit entries.
        caps = {"_euclidean_block": vq.BLOCK_BYTES // (4 * 700),
                "_cosine_block": vq.BLOCK_BYTES // (8 * k)}
        assert caps == {"_euclidean_block": 187, "_cosine_block": 64}
        assert vq._euclidean_tables(entries)[1].shape == (q + 1, 700)

        _, table, _ = vq._cosine_tables(entries)
        assert table.shape == (q, k) and table.flags.c_contiguous
        np.testing.assert_array_equal(table, vq._normalize_rows(entries).T)

        blocks, cosine_norms = {"_euclidean_block": [], "_cosine_block": []}, []
        for name in blocks:
            def spy(x, tables, block=getattr(vq, name), name=name):
                blocks[name].append(len(x))
                if name == "_cosine_block":
                    cosine_norms.append(np.linalg.norm(x, axis=1))
                return block(x, tables)

            monkeypatch.setattr(vq, name, spy)

        idx, _ = assert_matches_reference(queries, entries)
        first = [np.flatnonzero((entries == e).all(axis=1))[0] for e in entries]
        np.testing.assert_array_equal(idx, np.take(first, idx))

        units = entries / np.linalg.norm(entries, axis=1)[:, None]
        sims = np.einsum("nq,kq->nk", queries / np.linalg.norm(queries, axis=1)[:, None], units)
        ref_idx = np.argmax(sims, axis=1)
        cos_idx, cos_dist = nearest_codes(queries, Codebook.from_entries(entries, "cosine"))
        np.testing.assert_array_equal(cos_idx, ref_idx)
        np.testing.assert_allclose(cos_dist, np.maximum(1.0 - sims.max(axis=1), 0.0),
                                   atol=1e-14)
        np.testing.assert_array_equal(assign_batch(queries, entries, "cosine"), ref_idx)

        for name, cap in caps.items():
            # Two lookups per metric, in blocks of the cap and one last one.
            assert blocks[name] == 2 * ([cap] * (len(queries) // cap) + [len(queries) % cap])
        # The cosine blocks get queries the lookup has already normalized.
        norms = np.concatenate(cosine_norms)
        assert len(norms) == 2 * len(queries)
        assert np.all((np.abs(norms - 1.0) <= 1e-15) | (norms == 0.0))

    def test_copies_of_an_entry_are_not_rescored(self, monkeypatch):
        # 900 copies of one entry collapse to the first: queries on it have
        # one candidate, so neither lookup enters the exact rescoring.
        rng = np.random.default_rng(23)
        entries = rng.normal(size=(1024, 16))
        entries[100:1000] = entries[100]
        queries = np.concatenate([np.repeat(entries[100:101], 8, axis=0), entries[1000:]])
        rescored, exact = [], vq._exact_sq_distances

        def spy(x, cands):
            rescored.append(len(cands))
            return exact(x, cands)

        monkeypatch.setattr(vq, "_exact_sq_distances", spy)
        idx = assign_batch(queries, entries, "euclidean")
        assert rescored == []
        np.testing.assert_array_equal(idx, [100] * 8 + list(range(1000, 1024)))
        assert nearest_codes(queries, Codebook.from_entries(entries))[0].tolist() == idx.tolist()
        assert rescored == [len(queries)]  # only the distances of the answers

    def test_cosine_copies_tie_to_the_first(self):
        # BLAS may round equal columns of the unit table differently (seen
        # with one query row, as one-frame encoding and a one-row last block
        # run); copies have the same exact cosine, so the answer is still
        # the first copy.
        rng = np.random.default_rng(1)
        for _ in range(600):
            q, k = int(rng.integers(1, 12)), int(rng.integers(2, 40))
            base = rng.integers(-2, 3, size=(max(1, k // 3), q)).astype(float)
            entries = base[rng.integers(0, len(base), size=k)]
            queries = rng.normal(size=(1, q))
            first = [next(j for j, e in enumerate(entries) if np.array_equal(e, row))
                     for row in entries]
            idx = assign_batch(queries, entries, "cosine")
            np.testing.assert_array_equal(np.take(first, idx), idx)
            cb = Codebook.from_entries(entries, metric="cosine")
            np.testing.assert_array_equal(nearest_codes(queries, cb)[0], idx)

    def test_concurrent_first_lookups(self):
        # `encode --threads` shares one quantizer, so first lookups race to
        # build the tables; every thread must still get the exact answer.
        rng = np.random.default_rng(5)
        entries, queries = rng.normal(size=(512, 8)), rng.normal(size=(64, 8))
        ref_idx, ref_dist = exact_reference(queries, entries)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for metric in ("euclidean", "cosine") * 10:
                cb = Codebook.from_entries(entries, metric=metric)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = list(pool.map(lambda _: nearest_codes(queries, cb), range(16),
                                            timeout=60))
                first_idx, first_dist = results[0]
                for idx, dist in results:
                    np.testing.assert_array_equal(idx, first_idx)
                    np.testing.assert_array_equal(dist, first_dist)
                if metric == "euclidean":
                    np.testing.assert_array_equal(first_idx, ref_idx)
                    np.testing.assert_array_equal(first_dist, ref_dist)
        finally:
            sys.setswitchinterval(interval)

    def test_entries_are_read_only_after_a_lookup(self):
        cb = Codebook.from_entries(np.eye(3), metric="cosine")
        nearest_codes([1.0, 0.0, 0.0], cb)
        with pytest.raises(ValueError):
            cb.entries[0] = 1.0

    def test_write_before_first_lookup_is_seen(self):
        # bench/selftest.py's pattern: build, write an entry, then encode.
        for metric in ("euclidean", "cosine"):
            cb = Codebook.from_entries(np.eye(3) + 0.25, metric=metric)
            cb.entries[2] = cb.entries[0]  # a tie, made before any lookup
            quantizer = RvqQuantizer(layers=[cb], latent_dim=3)
            codes, _ = rvq_encode_batch([[1.25, 0.25, 0.25], [0.0, 0.0, 1.0]], quantizer)
            assert codes[:, 0].tolist() == [0, 0]


def neutral_stats(entries):
    """Cluster sizes 1 and sums equal to the entries: the statistics EMA
    training starts a randomly initialized codebook from."""
    entries = np.array(entries, dtype=np.float64)
    return np.ones(len(entries)), entries


class TestEmaUpdate:
    @pytest.mark.parametrize(
        "stats, vectors, indices, kwargs, message",
        [
            (neutral_stats(np.eye(3)), np.eye(3), [0, 1, 2], {"decay": 1.0},
             r"decay must lie in \[0, 1\)"),
            (neutral_stats(np.eye(3)), np.eye(3), [0, 1, 2], {"decay": -0.1},
             r"decay must lie in \[0, 1\)"),
            (neutral_stats(np.eye(3)), np.eye(3), [0, 1], {},
             "vectors and indices must have matching lengths"),
            ((np.ones(2), np.eye(3)), np.eye(3), [0, 1, 2], {}, r"shapes \(K,\) and \(K, q\)"),
            ((np.ones(3), np.ones(3)), np.eye(3), [0, 1, 2], {}, r"shapes \(K,\) and \(K, q\)"),
            ((np.array([1.0, -1.0, 1.0]), np.eye(3)), np.eye(3), [0, 1, 2], {},
             "cluster sizes must be non-negative"),
            (neutral_stats(np.eye(3)), np.eye(2), [0, 1], {}, "batch dim 2 does not match"),
            ((np.ones(2), np.full((2, 1), 1e308)), np.full((2, 1), 1e308), [0, 0],
             {"decay": 0.5}, "codebook entries must be finite"),
        ],
        ids=["decay-one", "decay-negative", "length-mismatch", "sizes-shape", "sums-1d",
             "negative-size", "dim-mismatch", "non-finite-entries"],
    )
    def test_rejects_bad_arguments(self, stats, vectors, indices, kwargs, message):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                ema_update(*stats, vectors, indices, **kwargs)

    def test_converges_to_constant_batch(self):
        # Fixed point of the recurrence: with every vector equal to v and
        # assigned to code 0, entries[0] must approach v. Statistics start
        # at zero (nothing accumulated yet); primed statistics would retain
        # the old entry with weight decay^t.
        v = np.array([2.0, -1.0, 0.5])
        sizes, sums = np.zeros(4), np.zeros((4, 3))
        batch = np.tile(v, (8, 1))
        idx = np.zeros(8, dtype=int)
        for _ in range(200):
            entries, sizes, sums = ema_update(sizes, sums, batch, idx, decay=0.99)
        assert np.abs(entries[0] - v).max() < 1e-4

    def test_matches_hand_rolled_recurrence(self):
        # Oracle: iterate the stated update rule directly on raw arrays.
        rng = np.random.default_rng(5)
        k, q, decay, eps = 3, 2, 0.9, 1e-5
        entries = rng.normal(size=(k, q))
        got_size, got_sum = neutral_stats(entries)
        size = np.ones(k)
        esum = entries.copy()
        for step in range(10):
            batch = rng.normal(size=(6, q))
            idx = rng.integers(0, k, size=6)
            got, got_size, got_sum = ema_update(got_size, got_sum, batch, idx, decay=decay)

            counts = np.bincount(idx, minlength=k).astype(float)
            sums = np.zeros((k, q))
            for vec, i in zip(batch, idx):
                sums[i] += vec
            size = decay * size + (1 - decay) * counts
            esum = decay * esum + (1 - decay) * sums
            total = size.sum()
            smoothed = (size + eps) / (total + k * eps) * total
            expected = esum / smoothed[:, None]
            np.testing.assert_allclose(got, expected, rtol=1e-12)
            np.testing.assert_allclose(got_size, size, rtol=1e-12)
            np.testing.assert_allclose(got_sum, esum, rtol=1e-12)

    def test_untouched_code_drift_bounded_by_smoothing(self):
        before = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
        batch = np.array([[1.1, 0.0], [0.9, 0.1]])
        entries, _, _ = ema_update(*neutral_stats(before), batch, [0, 0], decay=0.99)
        # No new mass for code 2: sum and size decay together, so the entry
        # moves only by the Laplace-smoothing correction factor.
        drift = np.abs(entries[2] - before[2]).max()
        assert drift < 1e-3 * np.abs(before[2]).max()

    def test_decay_zero_gives_batch_mean(self):
        batch = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
        idx = [0, 0, 1]
        entries, _, _ = ema_update(*neutral_stats(np.zeros((2, 2)) + 5.0), batch, idx, decay=0.0)
        np.testing.assert_allclose(entries[0], [2.0, 3.0], rtol=1e-4)
        np.testing.assert_allclose(entries[1], [0.0, 0.0], atol=1e-4)

    def test_mass_conservation(self):
        rng = np.random.default_rng(0)
        sizes, sums = neutral_stats(rng.normal(size=(5, 3)))
        before = (sizes.copy(), sums.copy())
        batch = rng.normal(size=(17, 3))
        idx = rng.integers(0, 5, size=17)
        decay = 0.97
        _, new_sizes, _ = ema_update(sizes, sums, batch, idx, decay=decay)
        expected_total = decay * sizes.sum() + (1 - decay) * 17
        assert new_sizes.sum() == pytest.approx(expected_total)
        np.testing.assert_array_equal(sizes, before[0])
        np.testing.assert_array_equal(sums, before[1])

    def test_index_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ema_update(*neutral_stats(np.eye(2)), np.eye(2), [0, 5])

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            ema_update(*neutral_stats(np.eye(2)), np.empty((0, 2)), [])


class TestRestartDeadCodes:
    @pytest.mark.parametrize(
        "batch, used, message",
        [
            (np.empty((0, 3)), np.ones(3, dtype=bool), "requires a non-empty batch"),
            (np.eye(3), np.ones(4, dtype=bool), "boolean mask of shape"),
            (np.eye(3), np.ones((1, 3), dtype=bool), "boolean mask of shape"),
            (np.eye(3), np.array([1, 0, 1]), "boolean mask of shape"),
            (np.eye(3), np.array([1.0, 0.0, 1.0]), "boolean mask of shape"),
        ],
        ids=["empty-batch", "mask-too-long", "mask-2d", "mask-int", "mask-float"],
    )
    def test_rejects_bad_arguments(self, batch, used, message):
        with pytest.raises(ValueError, match=message):
            restart_dead_codes(Codebook.from_entries(np.eye(3)), batch, used)

    def test_no_dead_codes_unchanged(self):
        cb = Codebook.from_entries(np.eye(3))
        out, n = restart_dead_codes(cb, np.eye(3), np.ones(3, dtype=bool), rng=0)
        assert n == 0
        assert out is cb

    def test_dead_codes_resampled_from_batch(self):
        rng = np.random.default_rng(4)
        cb = Codebook.from_entries(rng.normal(size=(4, 2)))
        batch = rng.normal(size=(10, 2))
        out, n = restart_dead_codes(cb, batch, np.array([True, True, False, False]), rng=9)
        assert n == 2
        batch_rows = {tuple(row) for row in batch}
        assert tuple(out.entries[2]) in batch_rows
        assert tuple(out.entries[3]) in batch_rows

    def test_live_codes_untouched(self):
        # Whatever the EMA statistics say, the mask alone decides: code 1,
        # whose cluster size has decayed to nothing, is kept, and code 2,
        # the heaviest, is restarted.
        entries, sizes, _ = ema_update(
            *neutral_stats(np.eye(4)), np.tile(np.eye(4)[2], (8, 1)), np.full(8, 2), decay=0.0
        )
        assert sizes[1] == 0.0
        cb = Codebook(entries)
        used = np.array([True, True, False, False])
        out, n = restart_dead_codes(cb, np.ones((3, 4)), used, rng=0)
        assert n == 2
        np.testing.assert_array_equal(out.entries[used], cb.entries[used])
        np.testing.assert_array_equal(out.entries[~used], np.ones((2, 4)))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(1)
        cb = Codebook.from_entries(rng.normal(size=(6, 3)))
        batch = rng.normal(size=(20, 3))
        used = np.array([True, False, False, True, False, False])
        a, na = restart_dead_codes(cb, batch, used, rng=42)
        b, nb = restart_dead_codes(cb, batch, used, rng=42)
        assert na == nb == 4
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_preserves_shape_and_metric(self):
        cb = Codebook.from_entries(np.eye(4), metric="cosine")
        out, n = restart_dead_codes(cb, np.ones((3, 4)), np.zeros(4, dtype=bool), rng=0)
        assert n == 4
        assert out.num_codes == 4 and out.code_dim == 4 and out.metric == "cosine"

    def test_does_not_mutate_input(self):
        cb = Codebook.from_entries(np.eye(3) * 2.0)
        before = cb.entries.copy()
        used = np.array([True, False, False])
        restart_dead_codes(cb, np.ones((2, 3)), used, rng=0)
        np.testing.assert_array_equal(cb.entries, before)
        assert used.tolist() == [True, False, False]


class TestProjections:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            ProjectionPair(proj_in=np.ones((2, 4)), proj_out=np.ones((4, 2)))  # d < q


def reference_kmeans_init(data, num_codes, iterations=10, rng=0):
    """K-means++ with a D^2 update after every centre, then all
    `iterations` Lloyd passes: `kmeans_init` with no early stop."""
    data = np.asarray(data, dtype=np.float64)
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = len(data)
    centers = np.empty((num_codes, data.shape[1]))
    centers[0] = data[int(rng.integers(n))]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for j in range(1, num_codes):
        total = d2.sum()
        if total <= 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers[j] = data[pick]
        d2 = np.minimum(d2, ((data - centers[j]) ** 2).sum(axis=1))
    for _ in range(iterations):
        idx = assign_batch(data, centers, "euclidean")
        counts = np.bincount(idx, minlength=num_codes).astype(np.float64)
        sums = np.zeros_like(centers)
        np.add.at(sums, idx, data)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
    return Codebook(centers)


def _few_distinct_rows():
    rng = np.random.default_rng(16)
    base = rng.normal(size=(12, 3))
    return np.concatenate([base, base[rng.integers(0, 12, size=48)]])


# name -> (data, num_codes, iterations, whether Lloyd reaches its fixed point).
# K-means++ rescores only the rows its rounding bound cannot rule out: on the
# lattice at 1e8 the expanded distances err by more than the unit gaps
# between exact ones, at 3e-162 the squares are a few subnormal units (so
# only the bound's subnormal term covers the rounding), and at 1e155 every
# |x|^2 overflows, so the expanded distances are NaN.
KMEANS_CASES = {
    "random": (np.random.default_rng(15).normal(size=(200, 4)), 16, 10, True),
    "all-zero": (np.zeros((40, 3)), 8, 10, True),
    "fewer-distinct-rows-than-k": (_few_distinct_rows(), 20, 10, True),
    "no-repeat-within-iterations": (np.random.default_rng(17).normal(size=(300, 2)), 30, 3, False),
    "iterations-0": (np.random.default_rng(18).normal(size=(100, 3)), 10, 0, False),
    "iterations-1": (np.random.default_rng(18).normal(size=(100, 3)), 10, 1, False),
    "offset-lattice": (
        1e8 + np.random.default_rng(19).integers(0, 5, size=(200, 3)).astype(float), 24, 10, True
    ),
    "tiny": (3e-162 * np.random.default_rng(22).normal(size=(150, 3)), 16, 10, False),
    "few-distinct-rows-at-offset": (1e155 + 1e150 * _few_distinct_rows(), 20, 10, True),
}


class TestKmeansInit:
    @pytest.mark.parametrize(
        "num_codes, iterations, message",
        [(0, 10, "num_codes must be >= 1"), (4, -1, "iterations must be non-negative")],
        ids=["no-codes", "negative-iterations"],
    )
    def test_rejects_bad_arguments(self, num_codes, iterations, message):
        data = np.random.default_rng(7).normal(size=(8, 2))
        with pytest.raises(ValueError, match=message):
            kmeans_init(data, num_codes, iterations=iterations)

    def test_k_points_recovered(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(5, 3)) * 10
        cb = kmeans_init(points, num_codes=5, iterations=3, rng=0)
        found = {tuple(np.round(row, 9)) for row in cb.entries}
        expected = {tuple(np.round(row, 9)) for row in points}
        assert found == expected

    def test_two_blobs(self):
        rng = np.random.default_rng(12)
        n = 400
        blob_a = rng.normal(size=(n, 4)) + np.array([10.0, 0, 0, 0])
        blob_b = rng.normal(size=(n, 4)) - np.array([10.0, 0, 0, 0])
        data = np.concatenate([blob_a, blob_b])
        cb = kmeans_init(data, num_codes=2, iterations=20, rng=1)
        centers = cb.entries[np.argsort(cb.entries[:, 0])]
        tol = 3.0 / np.sqrt(n)
        assert np.abs(centers[1] - blob_a.mean(axis=0)).max() < tol
        assert np.abs(centers[0] - blob_b.mean(axis=0)).max() < tol

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(64, 5))
        a = kmeans_init(data, 8, iterations=5, rng=77)
        b = kmeans_init(data, 8, iterations=5, rng=77)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            kmeans_init(np.ones((3, 2)), num_codes=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, bad):
        data = np.random.default_rng(3).normal(size=(20, 2))
        data[7, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                kmeans_init(data, 4)

    def test_rejects_overflowing_distances(self):
        # Finite data whose squared distances overflow float64: RVQV files
        # are float32, so only library callers can get here.
        data = 1e160 * np.random.default_rng(4).normal(size=(20, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                kmeans_init(data, 4)

    @pytest.mark.parametrize("case", sorted(KMEANS_CASES))
    def test_equals_the_full_loops(self, case, monkeypatch):
        """Entries and the generator's state are bit-equal to those of the
        loops without early stops."""
        data, k, iterations, converges = KMEANS_CASES[case]
        want_rng = np.random.default_rng(21)
        want = reference_kmeans_init(data, k, iterations, rng=want_rng)
        passes = []

        def counting(*args):
            passes.append(assign_batch(*args))
            return passes[-1]

        monkeypatch.setattr(vq, "assign_batch", counting)
        got_rng = np.random.default_rng(21)
        got = kmeans_init(data, k, iterations=iterations, rng=got_rng)
        np.testing.assert_array_equal(got.entries, want.entries)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        # At most one lookup a Lloyd pass, and the cases cover both ends of
        # the loop: a fixed point, where the last two passes agree, and the
        # iteration cap.
        assert len(passes) <= iterations
        fixed_point = len(passes) > 1 and np.array_equal(passes[-1], passes[-2])
        assert fixed_point == converges

    def test_layer_init_leaves_the_generator_as_the_full_loops(self, monkeypatch):
        """Six layers over 32 rows: the deepest layers fit an all-zero residual."""
        config = training.TrainConfig(num_layers=6, codebook_size=16, latent_dim=8, batch_size=8)
        sample = np.random.default_rng(5).normal(size=(32, 8))
        got_rng = np.random.default_rng(1)
        got = training._init_layer_codebooks(sample, config, got_rng)
        def reference(data, k, rng):
            return reference_kmeans_init(data, k, rng=rng)

        monkeypatch.setattr(training, "kmeans_init", reference)
        want_rng = np.random.default_rng(1)
        want = training._init_layer_codebooks(sample, config, want_rng)
        for got_arrays, want_arrays in zip(got, want):  # entries, sizes, sums
            for layer, reference_layer in zip(got_arrays, want_arrays):
                np.testing.assert_array_equal(layer, reference_layer)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        entries = got[0]
        assert not entries[-1].any() and not entries[-2].any()


class TestCodebookValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Codebook.from_entries([[np.inf, 0.0]])

    def test_rejects_bad_metric(self):
        with pytest.raises(ValueError):
            Codebook.from_entries(np.eye(2), metric="manhattan")

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            Codebook.from_entries(np.zeros((65537, 1)))
