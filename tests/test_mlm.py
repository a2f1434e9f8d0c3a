"""Masked parallel decoding: masking, guidance, confidence commits, oracle recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqkit import (
    MASKED,
    DecodeSchedule,
    NumericalError,
    OracleScoreModel,
    TokenStream,
    UniformScoreModel,
    anneal_coeff,
    cfg_combine,
    confidence_select,
    cosine_unmask_fractions,
    generate_parallel,
    span_mask,
)


def empty_prompt(layers, k, rate=50.0):
    return TokenStream(
        frames=np.empty((0, layers), dtype=np.int32),
        token_rate_hz=rate,
        layers=layers,
        codebook_size=k,
        source_id="test",
    )


class TestSpanMask:
    def test_full_rate(self):
        mask = span_mask(17, block_size=5, mask_rate=1.0, rng=0)
        assert mask.all()

    def test_zero_rate(self):
        mask = span_mask(17, block_size=5, mask_rate=0.0, rng=0)
        assert not mask.any()

    def test_half_rate_two_blocks(self):
        # 20 frames, 4 blocks of 5: exactly two blocks must be chosen.
        mask = span_mask(20, block_size=5, mask_rate=0.5, rng=0)
        assert mask.sum() == 10
        blocks = mask.reshape(4, 5)
        per_block = blocks.sum(axis=1)
        assert sorted(per_block.tolist()) == [0, 0, 5, 5]
        # With this seed the chosen blocks are non-adjacent: two runs of 5.
        runs = np.diff(np.flatnonzero(np.diff(np.concatenate([[0], mask.view(np.int8), [0]]))))
        assert runs[::2].tolist() == [5, 5]

    def test_deterministic(self):
        a = span_mask(33, 4, 0.4, rng=11)
        b = span_mask(33, 4, 0.4, rng=11)
        np.testing.assert_array_equal(a, b)

    @given(
        st.integers(1, 80),
        st.integers(1, 9),
        st.floats(0.0, 1.0),
        st.integers(0, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_structure_property(self, t, b, rate, seed):
        mask = span_mask(t, b, rate, rng=seed)
        masked = int(mask.sum())
        assert masked >= rate * t or masked == t
        # Every masked position belongs to a fully masked aligned block.
        for start in range(0, t, b):
            block = mask[start : min(start + b, t)]
            assert block.all() or not block.any()
        # Minimality: the last-added block crossed the threshold, so removing
        # the largest chosen block must fall below the rate again.
        if masked > 0:
            sizes = [
                mask[s : min(s + b, t)].sum()
                for s in range(0, t, b)
                if mask[s : min(s + b, t)].any()
            ]
            assert masked - max(sizes) < rate * t


class TestAnnealCoeff:
    def test_start(self):
        assert anneal_coeff(0.0, 0.0, 2.0) == 0.0

    def test_end(self):
        assert anneal_coeff(1.0, 0.0, 2.0) == 2.0

    def test_midpoint(self):
        assert anneal_coeff(0.5, 0.0, 2.0) == 1.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            anneal_coeff(1.5, 0.0, 2.0)


class TestCfgCombine:
    def test_zero_coeff_is_conditional(self):
        rng = np.random.default_rng(70)
        cond = rng.normal(size=(4, 6))
        uncond = rng.normal(size=(4, 6))
        np.testing.assert_array_equal(cfg_combine(cond, uncond, 0.0), cond)

    def test_equal_inputs_fixed_point(self):
        rng = np.random.default_rng(71)
        cond = rng.normal(size=(3, 5))
        for coeff in (0.0, 0.7, 2.0, 5.0):
            np.testing.assert_allclose(cfg_combine(cond, cond, coeff), cond, rtol=1e-12)

    def test_hand_value(self):
        out = cfg_combine(np.array([[2.0]]), np.array([[0.5]]), 1.0)
        assert out[0, 0] == pytest.approx(3.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cfg_combine(np.zeros((2, 3)), np.zeros((3, 2)), 1.0)


class TestConfidenceSelect:
    def test_argmax(self):
        assert confidence_select([0.9, 0.2, 0.5], 1).tolist() == [0]

    def test_full_commit(self):
        assert confidence_select([0.1, 0.4, 0.3], 3).tolist() == [0, 1, 2]

    def test_tie_lower_index(self):
        assert confidence_select([0.5, 0.5, 0.1], 1).tolist() == [0]

    def test_bounds(self):
        with pytest.raises(ValueError):
            confidence_select([0.5, 0.5], 3)
        with pytest.raises(ValueError):
            confidence_select([0.5, 0.5], 0)


class TestUnmaskFractions:
    def test_cosine_schedule_sums_to_one(self):
        for n in (1, 3, 5, 12):
            f = cosine_unmask_fractions(n)
            assert f.shape == (n,)
            assert np.all(f > 0)
            assert f.sum() == pytest.approx(1.0)
            assert np.all(np.diff(f) > 0)  # commits grow toward the end

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            DecodeSchedule(iterations_layer1=0)
        with pytest.raises(ValueError):
            DecodeSchedule(temperature=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                DecodeSchedule(temperature=bad)
            with pytest.raises(ValueError):
                DecodeSchedule(cfg_start=bad)
            with pytest.raises(ValueError):
                DecodeSchedule(cfg_end=bad)
        with pytest.raises(ValueError):
            DecodeSchedule(iterations_layer1=2, unmask_fractions=[0.5, 0.4])
        with pytest.raises(ValueError):
            DecodeSchedule(iterations_layer1=2, unmask_fractions=[1.2, -0.2])


class RecordingModel:
    """Wraps a model, recording every score() call for causality checks."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def score(self, grid, target_layer, condition, mode):
        self.calls.append((grid.copy(), target_layer, mode))
        return self.inner.score(grid, target_layer, condition, mode)


class TestGenerateParallel:
    def test_forward_pass_accounting(self):
        model = OracleScoreModel.random(20, 8, 16, rng=1)
        stream, stats = generate_parallel(
            model, np.arange(20), empty_prompt(8, 16), 20, DecodeSchedule(rng_seed=1)
        )
        assert stats.forward_passes == 12  # 5 iterations + 7 greedy layers
        assert stats.unconditional_passes == 5

    def test_oracle_recovery(self):
        for seed in range(5):
            model = OracleScoreModel.random(30, 4, 12, rng=seed)
            stream, _ = generate_parallel(
                model,
                np.arange(30),
                empty_prompt(4, 12),
                30,
                DecodeSchedule(rng_seed=seed),
            )
            np.testing.assert_array_equal(stream.frames, model.truth)

    def test_prompt_passthrough(self):
        model = OracleScoreModel.random(24, 3, 10, rng=7)
        prompt = TokenStream(
            frames=model.truth[:6],
            token_rate_hz=50.0,
            layers=3,
            codebook_size=10,
            source_id="p",
        )
        stream, _ = generate_parallel(model, np.arange(24), prompt, 24, DecodeSchedule(rng_seed=7))
        np.testing.assert_array_equal(stream.frames[:6], model.truth[:6])

    def test_monotone_commitment(self):
        model = UniformScoreModel(40, 8)
        stream, stats = generate_parallel(
            model, np.arange(40), empty_prompt(2, 8), 40, DecodeSchedule(rng_seed=3)
        )
        assert all(c >= 1 for c in stats.commit_counts)
        assert sum(stats.commit_counts) == 40
        assert not (stream.frames == MASKED).any()

    def test_determinism(self):
        model = UniformScoreModel(25, 6)
        runs = [
            generate_parallel(
                model, np.arange(25), empty_prompt(3, 6), 25, DecodeSchedule(rng_seed=9)
            )[0].frames
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_layer_causality(self):
        inner = OracleScoreModel.random(15, 4, 8, rng=5)
        model = RecordingModel(inner)
        prompt = TokenStream(
            frames=inner.truth[:4], token_rate_hz=50.0, layers=4, codebook_size=8, source_id="p"
        )
        generate_parallel(model, np.arange(15), prompt, 15, DecodeSchedule(rng_seed=5))
        for grid, target_layer, mode in model.calls:
            # Everything deeper than the target layer is hidden, prompt included.
            assert (grid[:, target_layer + 1 :] == MASKED).all()
        # Layer 0 is scored conditionally and unconditionally; others only conditionally.
        layer0 = [(l, m) for _, l, m in model.calls if l == 0]
        assert len([m for _, m in layer0 if m == "conditional"]) == 5
        assert len([m for _, m in layer0 if m == "unconditional"]) == 5
        deeper = [(l, m) for _, l, m in model.calls if l > 0]
        assert all(m == "conditional" for _, m in deeper)
        assert [l for l, _ in deeper] == [1, 2, 3]

    def test_zero_guidance_ignores_unconditional_branch(self):
        class SpikedUncond(UniformScoreModel):
            def score(self, grid, target_layer, condition, mode):
                out = super().score(grid, target_layer, condition, mode)
                if mode == "unconditional":
                    out = out + np.arange(self.codebook_size)  # garbage, must not matter
                return out

        schedule = DecodeSchedule(cfg_start=0.0, cfg_end=0.0, rng_seed=13)
        a, _ = generate_parallel(
            UniformScoreModel(18, 7), np.arange(18), empty_prompt(2, 7), 18, schedule
        )
        b, _ = generate_parallel(
            SpikedUncond(18, 7), np.arange(18), empty_prompt(2, 7), 18, schedule
        )
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_guidance_sharpens_toward_conditional(self):
        # cond prefers code 2, uncond prefers code 0: positive guidance must
        # recover the conditional choice even when uncond is strong.
        class Biased:
            def score(self, grid, target_layer, condition, mode):
                t = grid.shape[0]
                out = np.zeros((t, 4))
                if mode == "conditional":
                    out[:, 2] = 2.0
                    out[:, 0] = 1.5
                else:
                    out[:, 0] = 3.0
                return out

        schedule = DecodeSchedule(
            cfg_start=4.0, cfg_end=4.0, temperature=1e-4, rng_seed=0, iterations_layer1=2
        )
        stream, _ = generate_parallel(Biased(), np.arange(6), empty_prompt(1, 4), 6, schedule)
        assert (stream.frames[:, 0] == 2).all()

    def test_prompt_too_long_rejected(self):
        model = OracleScoreModel.random(10, 2, 4, rng=0)
        prompt = TokenStream(
            frames=model.truth, token_rate_hz=50.0, layers=2, codebook_size=4, source_id="p"
        )
        with pytest.raises(ValueError):
            generate_parallel(model, np.arange(10), prompt, 10, DecodeSchedule())

    def test_nonfinite_logits_abort(self):
        class BadModel:
            def score(self, grid, target_layer, condition, mode):
                out = np.zeros((12, 5))
                out[0, 0] = np.nan
                return out

        with pytest.raises(NumericalError):
            generate_parallel(BadModel(), np.arange(12), empty_prompt(2, 5), 12, DecodeSchedule())

    def test_non_finite_margin_rejected(self):
        # A non-finite margin is bad input (ValueError), unlike logits a
        # model computes as NaN (NumericalError above).
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                OracleScoreModel(np.zeros((3, 2), dtype=np.int32), margin=bad)

    def test_short_grid_commits_everything(self):
        # Fewer maskable frames than iterations: later rounds may commit zero.
        model = UniformScoreModel(3, 4)
        stream, stats = generate_parallel(
            model, np.arange(3), empty_prompt(1, 4), 3, DecodeSchedule(rng_seed=2)
        )
        assert sum(stats.commit_counts) == 3
        assert not (stream.frames == MASKED).any()
