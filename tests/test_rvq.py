"""Residual quantization: encode/decode recursion, traces, bitrate arithmetic."""

import numpy as np
import pytest

from rvqkit import (
    Codebook,
    CorpusSpec,
    ProjectionPair,
    RvqQuantizer,
    TokenStream,
    TrainConfig,
    bitrate_bps,
    code_bits,
    make_corpus,
    rvq_decode,
    rvq_decode_batch,
    rvq_encode,
    rvq_encode_batch,
    train_quantizer,
)
from rvqkit import rvq, vq


def reference_encode(latent, entries_per_layer):
    """Independent recursion: scan entries, subtract the nearest, repeat."""
    residual = np.asarray(latent, dtype=float).copy()
    codes = []
    norms = []
    for entries in entries_per_layer:
        dists = ((entries - residual) ** 2).sum(axis=1)
        i = int(np.argmin(dists))
        codes.append(i)
        residual = residual - entries[i]
        norms.append(float(np.linalg.norm(residual)))
    return codes, residual, norms


def residual_chain(start, codes, entries_per_layer):
    """`np.linalg.norm` of the residual after each layer, and the final
    residual, when `codes` are subtracted from `start` layer by layer."""
    residual = start
    norms = []
    for code, entries in zip(codes, entries_per_layer):
        residual = residual - entries[code]
        norms.append(float(np.linalg.norm(residual)))
    return norms, residual


def quantization_input(latents, qz):
    """(T, d) latents as the recursion's (T, q) starting residuals."""
    return latents @ qz.projections[0].proj_in if qz.scheme == "projected" else latents


def random_plain_quantizer(rng, num_layers=3, k=16, dim=6, scale=1.0, metric="euclidean"):
    layers = [
        Codebook.from_entries(rng.normal(size=(k, dim)) * scale, metric=metric)
        for _ in range(num_layers)
    ]
    return RvqQuantizer(layers=layers, latent_dim=dim)


def random_projected_cosine_quantizer(rng, num_layers=3, k=16, dim=6, quant_dim=3):
    pair = ProjectionPair(
        proj_in=rng.normal(size=(dim, quant_dim)), proj_out=rng.normal(size=(quant_dim, dim))
    )
    layers = [
        Codebook.from_entries(rng.normal(size=(k, quant_dim)), metric="cosine")
        for _ in range(num_layers)
    ]
    return RvqQuantizer(
        layers=layers, latent_dim=dim, scheme="projected", projections=[pair] * num_layers
    )


def duplicates_quantizer(rng):
    """What a collapsed k-means init leaves, as in the `duplicates` codebook
    of tools/fingerprint.py: 8 layers at K=1024, q=32, whose first three
    draw their entries from 48 rows (layer 3 has 800 copies of its first
    entry) and whose last five are all zero."""
    layers = []
    for n in range(8):
        base = rng.normal(size=(48, 32)) * 3.0 / (n + 1)
        entries = base[rng.integers(0, 48, size=1024)] if n < 3 else np.zeros((1024, 32))
        if n == 2:
            entries[100:900] = entries[0]
        layers.append(Codebook.from_entries(entries))
    return RvqQuantizer(layers=layers, latent_dim=32)


class TestEncode:
    def test_single_layer_exact_match(self):
        entries = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]])
        qz = RvqQuantizer(layers=[Codebook.from_entries(entries)], latent_dim=2)
        codes, norms = rvq_encode([-3.0, 0.5], qz)
        assert codes.tolist() == [1]
        assert norms[0] == 0.0

    def test_forced_two_layer_sum(self):
        # Codebooks arranged so the nearest-neighbor choices are forced:
        # layer 1 must pick e_a, layer 2 must pick e_b, and the sum is exact.
        e_a = np.array([10.0, 0.0])
        e_b = np.array([0.0, 1.0])
        layer1 = Codebook.from_entries(np.stack([e_a, [-10.0, 0.0]]))
        layer2 = Codebook.from_entries(np.stack([e_b, [0.0, -1.0]]))
        qz = RvqQuantizer(layers=[layer1, layer2], latent_dim=2)
        latent = e_a + e_b

        ref_codes, ref_residual, _ = reference_encode(latent, [layer1.entries, layer2.entries])
        assert ref_codes == [0, 0]

        codes, norms = rvq_encode(latent, qz)
        assert codes.tolist() == ref_codes
        assert norms[-1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(rvq_decode(codes, qz), latent, atol=1e-12)

    def test_trace_matches_reference_recursion(self):
        rng = np.random.default_rng(21)
        qz = random_plain_quantizer(rng, num_layers=4, k=32, dim=5)
        entries = [layer.entries for layer in qz.layers]
        for _ in range(25):
            latent = rng.normal(size=5) * 2
            codes, norms = rvq_encode(latent, qz)
            ref_codes, ref_residual, ref_norms = reference_encode(latent, entries)
            assert codes.tolist() == ref_codes
            assert norms.tolist() == ref_norms

    def test_batch_matches_single(self):
        # Both schemes: plain Euclidean and projected cosine. A one-frame
        # encode returns `np.linalg.norm` of the residual after every layer,
        # bit for bit; the batch's final residuals are those of its own
        # (T, q) starting rows, which the projection may round differently
        # from a single row.
        rng = np.random.default_rng(22)
        for make_quantizer in (random_plain_quantizer, random_projected_cosine_quantizer):
            qz = make_quantizer(rng)
            entries = [layer.entries for layer in qz.layers]
            latents = rng.normal(size=(40, 6))
            batch_codes, batch_residuals = rvq_encode_batch(latents, qz)
            starts = quantization_input(latents, qz)
            for i, latent in enumerate(latents):
                codes, norms = rvq_encode(latent, qz)
                assert batch_codes[i].tolist() == codes.tolist()
                start = quantization_input(latent[None, :], qz)[0]
                ref_norms, _ = residual_chain(start, codes, entries)
                assert norms.tolist() == ref_norms
                _, residual = residual_chain(starts[i], codes, entries)
                np.testing.assert_array_equal(batch_residuals[i], residual)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        qz = random_plain_quantizer(rng)
        with pytest.raises(ValueError):
            rvq_encode(np.ones(7), qz)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_latent_raises(self, bad):
        # Only the first layer's input can be non-finite (entries are
        # finite). The Euclidean lookup finds it through its own scale, the
        # cosine one when it normalizes the queries, and the projected
        # scheme before it projects.
        rng = np.random.default_rng(23)
        for make_quantizer in (random_plain_quantizer, random_projected_cosine_quantizer,
                               lambda rng: random_plain_quantizer(rng, metric="cosine")):
            qz = make_quantizer(rng)
            latent = rng.normal(size=6)
            latent[4] = bad
            with pytest.raises(ValueError, match="finite"):
                rvq_encode(latent, qz)
            latents = rng.normal(size=(300, 6))
            latents[250, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                rvq_encode_batch(latents, qz)

    @pytest.mark.parametrize("metric, block, rows", [("euclidean", "_euclidean_block", 128),
                                                     ("cosine", "_cosine_block", 64)])
    def test_encode_runs_the_kernel_on_cached_tables(self, monkeypatch, metric, block, rows):
        # At K=1024 a block holds 128 Euclidean or 64 cosine rows. Each layer
        # calls the kernel once per block; `nearest_codes` is never called,
        # and only the first encode builds the layers' tables.
        rng = np.random.default_rng(26)
        qz = random_plain_quantizer(rng, num_layers=3, k=1024, dim=8, metric=metric)
        latents = rng.normal(size=(300, 8))
        blocks, builds = [], []
        kernel, build = getattr(vq, block), vq._build_tables

        def spy_block(x, tables):
            blocks.append(len(x))
            return kernel(x, tables)

        def spy_build(entries, metric):
            builds.append(len(entries))
            return build(entries, metric)

        def unreachable(*_):
            raise AssertionError("encode called nearest_codes")

        monkeypatch.setattr(vq, block, spy_block)
        monkeypatch.setattr(vq, "_build_tables", spy_build)
        monkeypatch.setattr(vq, "nearest_codes", unreachable)
        monkeypatch.setattr(rvq, "nearest_codes", unreachable)

        codes, _ = rvq_encode(latents[0], qz)
        assert (blocks, builds) == ([1] * 3, [1024] * 3)
        blocks.clear()
        batch_codes, _ = rvq_encode_batch(latents, qz)
        assert blocks == 3 * ([rows] * (300 // rows) + [300 % rows])
        np.testing.assert_array_equal(batch_codes[0], codes)
        blocks.clear()
        assert rvq_encode(latents[0], qz)[0].tolist() == codes.tolist()
        assert (blocks, builds) == ([1] * 3, [1024] * 3)

    def test_one_frame_matches_batch_on_copied_entries(self):
        # Blocks of copies and all-zero layers: ties everywhere, which both
        # paths must break to the same lowest index.
        rng = np.random.default_rng(27)
        qz = duplicates_quantizer(rng)
        entries = [layer.entries for layer in qz.layers]
        latents = np.concatenate([
            make_corpus(CorpusSpec(dims=32, count=300, seed=8)),
            entries[0][rng.integers(0, 1024, size=20)] + entries[2][rng.integers(0, 1024, size=20)],
        ])
        batch_codes, batch_residuals = rvq_encode_batch(latents, qz)
        for latent, row, final in zip(latents, batch_codes, batch_residuals):
            codes, norms = rvq_encode(latent, qz)
            assert codes.tolist() == row.tolist()
            ref_norms, residual = residual_chain(latent, codes, entries)
            assert norms.tolist() == ref_norms
            np.testing.assert_array_equal(final, residual)

    def test_copy_heavy_layers_match_the_brute_force_recursion(self):
        # The layers a bench-shaped `train` leaves: deep codebooks of a few
        # distinct entries, their negations (the residuals of 2-point
        # k-means clusters), zeros, and copies of all of them (restarts
        # draw from a small batch with replacement). The lookup tables keep
        # one column per distinct entry; encoding one frame at a time, in a
        # batch, and the brute-force recursion over every entry agree.
        rng = np.random.default_rng(30)
        layers = [rng.normal(size=(1024, 32)) * 3.0]
        for n in range(1, 8):
            distinct = rng.normal(size=(400 // n, 32)) * 3.0 / (n + 1)
            pool = np.concatenate([distinct, -distinct, np.zeros((1, 32))])
            entries = pool[rng.integers(0, len(pool), size=1024)]
            entries[: len(pool)] = pool[rng.permutation(len(pool))]
            layers.append(entries[rng.permutation(1024)])
        qz = RvqQuantizer(layers=[Codebook.from_entries(e) for e in layers], latent_dim=32)
        widths = [layer._lookup_tables()[1].shape[1] for layer in qz.layers]
        assert widths == [1024] + [2 * (400 // n) + 1 for n in range(1, 8)]

        latents = np.concatenate([
            make_corpus(CorpusSpec(dims=32, count=200, seed=8)) * 3.0,
            layers[0][rng.integers(0, 1024, size=30)] + layers[3][rng.integers(0, 1024, size=30)],
        ])
        batch_codes, batch_residuals = rvq_encode_batch(latents, qz)
        inputs = [[] for _ in layers]
        for latent, row, final in zip(latents, batch_codes, batch_residuals):
            residual, ref_codes = latent, []
            for n, entries in enumerate(layers):
                inputs[n].append(residual)
                diff = residual - entries
                d2 = np.einsum("kq,kq->k", diff, diff)
                ref_codes.append(int(np.flatnonzero(d2 == d2.min())[0]))
                residual = residual - entries[ref_codes[-1]]
            assert rvq_encode(latent, qz)[0].tolist() == ref_codes
            assert row.tolist() == ref_codes
            np.testing.assert_array_equal(final, residual)
        for n, layer in enumerate(qz.layers):
            residuals = np.array(inputs[n])
            idx, dist = vq.nearest_codes(residuals, layer)
            np.testing.assert_array_equal(idx, batch_codes[:, n])
            diff = residuals - layer.entries[idx]
            np.testing.assert_array_equal(dist, np.sqrt(np.einsum("nq,nq->n", diff, diff)))

    @pytest.mark.parametrize("entry_scale", [1.0, 1e29])
    def test_latent_at_1e30_encodes_exactly(self, entry_scale):
        # Squares of 1e30 are past float32's range. Against entries near 1
        # the rows leave it even scaled, and are rescored over every entry;
        # against entries near 1e29 the scaled float32 scores rank them.
        rng = np.random.default_rng(24)
        qz = random_plain_quantizer(rng, num_layers=4, k=32, dim=6, scale=entry_scale)
        entries = [layer.entries for layer in qz.layers]
        latents = 1e30 * rng.normal(size=(20, 6))
        batch_codes, _ = rvq_encode_batch(latents, qz)
        for latent, row in zip(latents, batch_codes):
            ref_codes = reference_encode(latent, entries)[0]
            assert rvq_encode(latent, qz)[0].tolist() == ref_codes
            assert row.tolist() == ref_codes


class TestDecode:
    def test_plain_sum_of_entries(self):
        rng = np.random.default_rng(23)
        qz = random_plain_quantizer(rng, num_layers=2, k=8, dim=4)
        frame = np.array([3, 5])
        expected = qz.layers[0].entries[3] + qz.layers[1].entries[5]
        np.testing.assert_array_equal(rvq_decode(frame, qz), expected)

    def test_code_out_of_range(self):
        rng = np.random.default_rng(24)
        qz = random_plain_quantizer(rng, k=8)
        with pytest.raises(ValueError):
            rvq_decode([0, 8, 0], qz)

    @pytest.mark.parametrize(
        "codes", [[[1.7, 0.2]], [[1.0, 0.0]], [[True, False]]], ids=["fraction", "whole", "bool"]
    )
    def test_non_integer_codes_are_rejected(self, codes):
        # Cast to int64, these would decode as codes [1, 0].
        qz = random_plain_quantizer(np.random.default_rng(26), num_layers=2, k=8)
        with pytest.raises(ValueError, match="codes must be integers"):
            rvq_decode_batch(codes, qz)
        with pytest.raises(ValueError, match="codes must be integers"):
            rvq_decode(codes[0], qz)
        for dtype in (np.int32, np.uint8, np.int64):
            np.testing.assert_array_equal(
                rvq_decode_batch(np.array([[1, 0]], dtype=dtype), qz),
                rvq_decode_batch([[1, 0]], qz),
            )

    @pytest.mark.parametrize("num_layers", [0, 4])
    def test_batch_layer_count_out_of_range(self, num_layers):
        qz = random_plain_quantizer(np.random.default_rng(25), num_layers=3, k=8)
        with pytest.raises(ValueError, match=r"num_layers must lie in \[1, 3\]"):
            rvq_decode_batch(np.zeros((2, 3), dtype=np.int64), qz, num_layers=num_layers)

    def test_identity_projection_reduces_to_plain(self):
        rng = np.random.default_rng(25)
        k, dim, n = 16, 5, 3
        entries = [rng.normal(size=(k, dim)) for _ in range(n)]
        plain = RvqQuantizer(
            layers=[Codebook.from_entries(e) for e in entries], latent_dim=dim
        )
        pairs = [ProjectionPair(np.eye(dim), np.eye(dim)) for _ in range(n)]
        projected = RvqQuantizer(
            layers=[Codebook.from_entries(e) for e in entries],
            latent_dim=dim,
            scheme="projected",
            projections=pairs,
        )
        for _ in range(10):
            latent = rng.normal(size=dim)
            pc, _ = rvq_encode(latent, projected)
            cc, _ = rvq_encode(latent, plain)
            assert pc.tolist() == cc.tolist()
            np.testing.assert_allclose(
                rvq_decode(pc, projected), rvq_decode(cc, plain), atol=1e-12
            )

    def test_projected_decode_uses_out_projection(self):
        rng = np.random.default_rng(26)
        d, q, k = 6, 2, 4
        pair = ProjectionPair(proj_in=rng.normal(size=(d, q)), proj_out=rng.normal(size=(q, d)))
        layers = [Codebook.from_entries(rng.normal(size=(k, q))) for _ in range(2)]
        qz = RvqQuantizer(layers=layers, latent_dim=d, scheme="projected", projections=[pair, pair])
        frame = np.array([1, 3])
        expected = (layers[0].entries[1] + layers[1].entries[3]) @ pair.proj_out
        np.testing.assert_allclose(rvq_decode(frame, qz), expected, rtol=1e-12)

    def test_projected_prefix_decode(self):
        # Every prefix sums its entries, then maps the sum out once; the
        # per-layer form, each entry mapped out and then summed, agrees
        # to rounding.
        rng = np.random.default_rng(36)
        qz = random_projected_cosine_quantizer(rng, num_layers=4, k=8, dim=6, quant_dim=3)
        proj_out = qz.projections[0].proj_out
        entries = [layer.entries for layer in qz.layers]
        codes = rng.integers(0, 8, size=(30, 4))
        for m in range(1, 5):
            decoded = rvq_decode_batch(codes, qz, m)
            summed = sum(entries[i][codes[:, i]] for i in range(m))
            np.testing.assert_array_equal(decoded, summed @ proj_out)
            per_layer = sum(entries[i][codes[:, i]] @ proj_out for i in range(m))
            np.testing.assert_allclose(decoded, per_layer, rtol=1e-12)

    def test_decode_batch_matches_single(self):
        rng = np.random.default_rng(27)
        qz = random_plain_quantizer(rng, num_layers=3, k=8, dim=4)
        codes = rng.integers(0, 8, size=(20, 3))
        batch = rvq_decode_batch(codes, qz)
        for i in range(20):
            np.testing.assert_allclose(batch[i], rvq_decode(codes[i], qz), rtol=1e-12)


class TestRoundTripProperties:
    def test_telescoping_identity(self):
        rng = np.random.default_rng(28)
        qz = random_plain_quantizer(rng, num_layers=4, k=24, dim=8)
        for _ in range(50):
            latent = rng.normal(size=8) * 3
            codes, norms = rvq_encode(latent, qz)
            recon = rvq_decode(codes, qz)
            gap = np.linalg.norm(latent - recon)
            assert gap == pytest.approx(norms[-1], rel=1e-6, abs=1e-9)

    def test_zero_entry_gives_nonincreasing_norms(self):
        rng = np.random.default_rng(29)
        layers = []
        for _ in range(4):
            entries = np.vstack([rng.normal(size=(10, 6)), np.zeros(6)])
            layers.append(Codebook.from_entries(entries))
        qz = RvqQuantizer(layers=layers, latent_dim=6)
        for _ in range(30):
            latent = rng.normal(size=6) * 2
            _, norms = rvq_encode(latent, qz)
            norms = np.concatenate([[np.linalg.norm(latent)], norms])
            assert np.all(np.diff(norms) <= 1e-12)

    def test_layer_count_monotonicity_on_trained_quantizer(self):
        corpus = make_corpus(CorpusSpec(num_components=12, dims=8, separation=6.0, count=600, seed=31))
        config = TrainConfig(
            scheme="ema", num_layers=3, codebook_size=16, latent_dim=8, steps=150,
            batch_size=64, seed=31,
        )
        qz, _ = train_quantizer(corpus, config)
        held_out = make_corpus(CorpusSpec(num_components=12, dims=8, separation=6.0, count=400, seed=32))
        codes, _ = rvq_encode_batch(held_out, qz)
        mean_err = []
        for m in range(1, 4):
            recon = np.stack([rvq_decode(frame, qz, num_layers=m) for frame in codes])
            mean_err.append(((held_out - recon) ** 2).sum(axis=1).mean())
        assert mean_err[0] >= mean_err[1] >= mean_err[2]

    def test_round_trip_determinism(self):
        rng = np.random.default_rng(30)
        qz = random_plain_quantizer(rng)
        latent = rng.normal(size=6)
        a, _ = rvq_encode(latent, qz)
        b, _ = rvq_encode(latent.copy(), qz)
        assert a.tolist() == b.tolist()


class TestBitrate:
    def test_paper_configuration(self):
        rng = np.random.default_rng(33)
        layers = [Codebook.from_entries(rng.normal(size=(1024, 4))) for _ in range(8)]
        qz = RvqQuantizer(layers=layers, latent_dim=4)
        assert bitrate_bps(qz, 50.0) == 4000.0

    def test_unit_case(self):
        qz = RvqQuantizer(layers=[Codebook.from_entries(np.zeros((2, 1)))], latent_dim=1)
        assert bitrate_bps(qz, 1.0) == 1.0

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0])
    def test_rate_must_be_positive_and_finite(self, rate):
        qz = RvqQuantizer(layers=[Codebook.from_entries(np.zeros((2, 1)))], latent_dim=1)
        with pytest.raises(ValueError, match="token_rate_hz must be positive and finite"):
            bitrate_bps(qz, rate)

    def test_layers_for_target_rate(self):
        # 1.5 kbps at 75 Hz with 10-bit codes needs 1500 / (75 * 10) = 2 layers.
        layers_needed = 1500 / (75 * code_bits(1024))
        assert layers_needed == 2.0
        rng = np.random.default_rng(34)
        qz = RvqQuantizer(
            layers=[Codebook.from_entries(rng.normal(size=(1024, 2))) for _ in range(2)],
            latent_dim=2,
        )
        assert bitrate_bps(qz, 75.0) == 1500.0

    def test_non_power_of_two_uses_ceil(self):
        assert code_bits(1000) == 10
        assert code_bits(3) == 2
        assert code_bits(1) == 0


class TestQuantizerValidation:
    @pytest.mark.parametrize(
        "metrics, kwargs, message",
        [
            (["euclidean", "cosine"], {"latent_dim": 2}, "layer 1 metric differs from layer 0"),
            (["euclidean"], {"latent_dim": 2, "scheme": "bogus"}, "unknown scheme 'bogus'"),
            (
                ["euclidean"],
                {"latent_dim": 2, "projections": [ProjectionPair(np.eye(2), np.eye(2))]},
                "plain scheme does not take projections",
            ),
            (
                ["euclidean"],
                {
                    "latent_dim": 4,
                    "scheme": "projected",
                    "projections": [ProjectionPair(proj_in=np.eye(4, 3), proj_out=np.eye(3, 4))],
                },
                "projection pair dims do not match the quantizer",
            ),
        ],
        ids=["mixed-metrics", "unknown-scheme", "plain-with-projections", "pair-dims"],
    )
    def test_rejects_inconsistent_quantizers(self, metrics, kwargs, message):
        rng = np.random.default_rng(36)
        layers = [Codebook.from_entries(rng.normal(size=(4, 2)), metric=m) for m in metrics]
        with pytest.raises(ValueError, match=message):
            RvqQuantizer(layers=layers, **kwargs)

    def test_mixed_layer_shapes_rejected(self):
        a = Codebook.from_entries(np.zeros((4, 2)))
        b = Codebook.from_entries(np.zeros((8, 2)))
        with pytest.raises(ValueError):
            RvqQuantizer(layers=[a, b], latent_dim=2)

    def test_plain_requires_matching_dims(self):
        a = Codebook.from_entries(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            RvqQuantizer(layers=[a], latent_dim=3)

    def test_projected_requires_pairs(self):
        a = Codebook.from_entries(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            RvqQuantizer(layers=[a], latent_dim=4, scheme="projected", projections=None)

    def test_projected_pairs_must_be_equal(self):
        rng = np.random.default_rng(35)
        layers = [Codebook.from_entries(rng.normal(size=(4, 2))) for _ in range(2)]
        pair = ProjectionPair(proj_in=rng.normal(size=(4, 2)), proj_out=rng.normal(size=(2, 4)))
        other = ProjectionPair(proj_in=rng.normal(size=(4, 2)), proj_out=pair.proj_out)
        zero = pair.proj_out.copy()
        zero[0, 0] = 0.0
        negative_zero = zero.copy()
        negative_zero[0, 0] = -0.0
        signed_zeros = [ProjectionPair(pair.proj_in, out) for out in (zero, negative_zero)]
        for pairs in ([pair, other], signed_zeros):
            with pytest.raises(ValueError, match="pair 1 differs from pair 0"):
                RvqQuantizer(layers=layers, latent_dim=4, scheme="projected", projections=pairs)
        # Equal values in separate arrays are one pair.
        copy = ProjectionPair(proj_in=pair.proj_in.copy(), proj_out=pair.proj_out.copy())
        RvqQuantizer(layers=layers, latent_dim=4, scheme="projected", projections=[pair, copy])


class TestTokenStream:
    def test_validates_ranges(self):
        # 2**32 + 1 would wrap to 1 and 1.9 truncate to 1 in an int32 cast.
        for frames in ([[0, 9]], [[2**32 + 1, 3]], [[-1, 3]], [[1.9, 3.2]], [[True, False]]):
            with pytest.raises(ValueError, match="codes must"):
                TokenStream(frames=np.array(frames), token_rate_hz=50.0, codebook_size=8)

    def test_frames_are_int32(self):
        for dtype in (np.uint8, np.int32, np.int64, np.uint64):
            s = TokenStream(
                frames=np.array([[0, 7]], dtype=dtype), token_rate_hz=50.0, codebook_size=8
            )
            assert s.frames.dtype == np.int32 and s.frames.tolist() == [[0, 7]]

    def test_empty_stream_allowed(self):
        s = TokenStream(
            frames=np.empty((0, 3), dtype=np.int32),
            token_rate_hz=50.0,
            codebook_size=16,
        )
        assert s.num_frames == 0

    def test_layers_is_the_frame_width(self):
        s = TokenStream(np.zeros((4, 3), dtype=np.int32), 50.0, 8)
        assert s.layers == 3
        with pytest.raises(ValueError, match="layers must be >= 1"):
            TokenStream(np.zeros((4, 0), dtype=np.int32), 50.0, 8)
        # There is no `layers` to give: a keyword or a stale positional call fails.
        with pytest.raises(TypeError):
            TokenStream(frames=np.zeros((4, 3), dtype=np.int32), token_rate_hz=50.0,
                        layers=3, codebook_size=8)
        with pytest.raises(TypeError):
            TokenStream(np.zeros((4, 3), dtype=np.int32), 50.0, 3, 8, "t")

    def test_frames_must_be_two_dimensional(self):
        # No regrouping: flat or 3-D frames are rejected, not reshaped.
        for frames in ([0, 1, 2, 3], [[[0, 1]], [[2, 3]]], 5):
            with pytest.raises(ValueError, match="frames must be"):
                TokenStream(frames=frames, token_rate_hz=50.0, codebook_size=8)
