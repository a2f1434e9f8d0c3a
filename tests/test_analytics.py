"""Utilization counting, entropy, and rank-frequency ordering."""

import dataclasses

import numpy as np
import pytest

from rvqkit import TokenStream, UtilizationReport, rank_frequency, utilization


def stream_from_codes(codes, k=4, layers=1, rate=50.0, source="s"):
    frames = np.asarray(codes, dtype=np.int32).reshape(-1, layers)
    return TokenStream(frames=frames, token_rate_hz=rate, codebook_size=k, source_id=source)


class TestUtilization:
    @pytest.mark.parametrize(
        "streams, message",
        [
            ([], "utilization requires at least one stream"),
            (
                [stream_from_codes([0, 1]), stream_from_codes([0, 1, 2, 3], layers=2)],
                "mixed layer counts across streams: 1 vs 2",
            ),
        ],
        ids=["no-streams", "mixed-layers"],
    )
    def test_rejects_bad_streams(self, streams, message):
        with pytest.raises(ValueError, match=message):
            utilization(streams, layer=0)

    def test_hand_counted_example(self):
        report = utilization([stream_from_codes([0, 1, 1, 3])], layer=0)
        assert report.counts.tolist() == [1, 2, 0, 1]
        assert report.used_codes == 3
        assert report.utilization_fraction == pytest.approx(0.75)
        assert report.total_frames == 4

    def test_report_is_its_counts(self):
        # Only the layer and the counts are stored; every statistic is
        # derived from the counts, as the Python number the CLI prints.
        report = UtilizationReport(0, np.array([1, 2, 0, 1], dtype=np.int64))
        assert [f.name for f in dataclasses.fields(report)] == ["layer", "counts"]
        stats = (report.total_frames, report.used_codes, report.utilization_fraction,
                 report.entropy_bits, report.perplexity)
        assert stats == (4, 3, 0.75, 1.5, 2.0**1.5)
        assert [type(v) for v in stats] == [int, int, float, float, float]

    def test_uniform_entropy_approaches_log2k(self):
        k = 64
        rng = np.random.default_rng(60)
        codes = rng.integers(0, k, size=50_000)
        report = utilization([stream_from_codes(codes, k=k)], layer=0)
        assert abs(report.entropy_bits - np.log2(k)) < 0.05
        assert report.perplexity == pytest.approx(2.0**report.entropy_bits)

    def test_single_code_degenerate(self):
        report = utilization([stream_from_codes([2] * 10, k=8)], layer=0)
        assert report.entropy_bits == 0.0
        assert report.perplexity == 1.0
        assert report.used_codes == 1

    def test_counts_sum_to_total_frames(self):
        rng = np.random.default_rng(61)
        streams = [
            stream_from_codes(rng.integers(0, 16, size=n), k=16) for n in (10, 0, 33)
        ]
        report = utilization(streams, layer=0)
        assert report.counts.sum() == report.total_frames == 43

    def test_permutation_invariance(self):
        rng = np.random.default_rng(62)
        streams = [stream_from_codes(rng.integers(0, 8, size=20), k=8) for _ in range(4)]
        a = utilization(streams, layer=0)
        b = utilization(streams[::-1], layer=0)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(63)
        group1 = [stream_from_codes(rng.integers(0, 8, size=15), k=8)]
        group2 = [stream_from_codes(rng.integers(0, 8, size=25), k=8)]
        merged = utilization(group1 + group2, layer=0)
        np.testing.assert_array_equal(
            merged.counts,
            utilization(group1, layer=0).counts + utilization(group2, layer=0).counts,
        )

    def test_layer_slicing(self):
        frames = np.array([[0, 3], [1, 3], [0, 2]], dtype=np.int32)
        stream = TokenStream(frames=frames, token_rate_hz=50.0, codebook_size=4)
        assert utilization([stream], layer=0).counts.tolist() == [2, 1, 0, 0]
        assert utilization([stream], layer=1).counts.tolist() == [0, 0, 1, 2]

    def test_mixed_codebook_sizes_rejected(self):
        with pytest.raises(ValueError):
            utilization(
                [stream_from_codes([0], k=4), stream_from_codes([0], k=8)], layer=0
            )

    def test_bad_layer_rejected(self):
        with pytest.raises(ValueError):
            utilization([stream_from_codes([0])], layer=1)

    def test_empty_streams_allowed(self):
        report = utilization([stream_from_codes([], k=4)], layer=0)
        assert report.total_frames == 0
        assert report.entropy_bits == 0.0
        assert report.perplexity == 1.0


class TestRankFrequency:
    def test_sort_example(self):
        report = utilization([stream_from_codes([0, 1, 1, 3])], layer=0)
        assert rank_frequency(report) == [(1, 2), (2, 1), (3, 1), (4, 0)]

    def test_nonzero_ranks_equal_used_codes(self):
        rng = np.random.default_rng(64)
        report = utilization([stream_from_codes(rng.integers(0, 12, size=40), k=16)], layer=0)
        table = rank_frequency(report)
        nonzero = sum(1 for _, count in table if count > 0)
        assert nonzero == report.used_codes

    def test_ties_break_by_code_index(self):
        # Codes 1 and 3 tie; code 1 must come first.
        report = utilization([stream_from_codes([1, 3, 2, 2])], layer=0)
        assert rank_frequency(report) == [(1, 2), (2, 1), (3, 1), (4, 0)]
        order = np.lexsort((np.arange(4), -report.counts))
        assert order.tolist() == [2, 1, 3, 0]

    def test_counts_descending_with_zero_tail(self):
        rng = np.random.default_rng(65)
        report = utilization([stream_from_codes(rng.integers(0, 5, size=30), k=10)], layer=0)
        table = rank_frequency(report)
        counts = [c for _, c in table]
        assert counts == sorted(counts, reverse=True)
        assert len(table) == 10
        assert [r for r, _ in table] == list(range(1, 11))
