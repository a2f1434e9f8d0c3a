"""Masked parallel decoding: schedules, guidance, confidence commits, oracle recovery."""

import tracemalloc

import numpy as np
import pytest

from rvqkit import (
    MASKED,
    DecodeSchedule,
    GenerationStats,
    NumericalError,
    OracleNarModel,
    OracleScoreModel,
    TokenStream,
    anneal_coeff,
    cfg_combine,
    confidence_select,
    cosine_unmask_fractions,
    generate_nar,
    generate_parallel,
    mlm,
)
from rvqkit._rng import BLOCK_BYTES, checked_logits, greedy_layers, sample_rows


def uniform_model(frames, layers, k):
    """An oracle with margin 0 and no noise: flat scores in both modes."""
    return OracleScoreModel(np.zeros((frames, layers), dtype=np.int32), margin=0.0, codebook_size=k)


def random_oracle(frames, layers, k, seed):
    """An oracle on a uniformly drawn (frames, layers) truth grid."""
    rng = np.random.default_rng(seed)
    return OracleScoreModel(rng.integers(0, k, size=(frames, layers), dtype=np.int32), k)


def reference_generate_parallel(model, condition, prompt, num_frames, schedule):
    """The whole-grid layer-1 loop: every round combines the two full score
    grids with `cfg_combine`, samples all masked rows in one `sample_rows`
    call, then commits; deeper layers are the shared greedy pass."""
    k, p = prompt.codebook_size, prompt.num_frames
    shape = (num_frames, k)
    rng = np.random.default_rng(schedule.rng_seed)
    grid = np.full((num_frames, prompt.layers), MASKED, dtype=np.int32)
    grid[:p] = prompt.frames
    masked = np.ones(num_frames, dtype=bool)
    masked[:p] = False
    total = num_frames - p
    targets = mlm._commit_targets(total, cosine_unmask_fractions(schedule.iterations_layer1))
    commit_counts, committed = [], 0
    for target in targets:
        coeff = anneal_coeff(committed / total, schedule.cfg_start, schedule.cfg_end)
        view = mlm._scoring_view(grid, 0)
        cond = checked_logits(model.score(view, 0, condition, "conditional"), shape, "conditional")
        uncond = checked_logits(
            model.score(view, 0, condition, "unconditional"), shape, "unconditional"
        )
        combined = cfg_combine(cond, uncond, coeff)
        masked_pos = np.flatnonzero(masked)
        draws, probs = sample_rows(combined[masked_pos], schedule.temperature, rng)
        conf = probs[np.arange(len(masked_pos)), draws]
        count = target - committed
        if count > 0:
            chosen = confidence_select(conf, count)
            pos = masked_pos[chosen]
            grid[pos, 0] = draws[chosen]
            masked[pos] = False
            committed = target
        commit_counts.append(count)
    greedy_layers(
        grid,
        slice(p, None),
        lambda layer: model.score(mlm._scoring_view(grid, layer), layer, condition, "conditional"),
        shape,
        "conditional",
    )
    stats = GenerationStats(
        schedule.iterations_layer1 + prompt.layers - 1, schedule.iterations_layer1, commit_counts
    )
    return grid, stats


class RandomScores:
    """Fixed random normal logits per layer and mode, shifted by the codes
    already committed on layer 0, so each round sees new scores."""

    def __init__(self, frames, layers, k, seed, scale=3.0):
        rng = np.random.default_rng(seed)
        self.tables = {
            mode: scale * rng.normal(size=(layers, frames, k))
            for mode in ("conditional", "unconditional")
        }

    def score(self, grid, target_layer, condition, mode):
        out = self.tables[mode][target_layer].copy()
        committed = grid[:, 0] >= 0
        out[committed, grid[committed, 0]] += 1.0
        return out


def empty_prompt(layers, k, rate=50.0):
    return TokenStream(
        frames=np.empty((0, layers), dtype=np.int32),
        token_rate_hz=rate,
        codebook_size=k,
        source_id="test",
    )


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
        model = random_oracle(20, 8, 16, 1)
        stream, stats = generate_parallel(
            model, np.arange(20), empty_prompt(8, 16), 20, DecodeSchedule(rng_seed=1)
        )
        assert stats.forward_passes == 12  # 5 iterations + 7 greedy layers
        assert stats.unconditional_passes == 5

    def test_oracle_recovery(self):
        for seed in range(5):
            model = random_oracle(30, 4, 12, seed)
            stream, _ = generate_parallel(
                model,
                np.arange(30),
                empty_prompt(4, 12),
                30,
                DecodeSchedule(rng_seed=seed),
            )
            np.testing.assert_array_equal(stream.frames, model.truth)

    def test_prompt_passthrough(self):
        model = random_oracle(24, 3, 10, 7)
        prompt = TokenStream(
            frames=model.truth[:6],
            token_rate_hz=50.0,
            codebook_size=10,
            source_id="p",
        )
        stream, _ = generate_parallel(model, np.arange(24), prompt, 24, DecodeSchedule(rng_seed=7))
        np.testing.assert_array_equal(stream.frames[:6], model.truth[:6])

    def test_monotone_commitment(self):
        model = uniform_model(40, 2, 8)
        stream, stats = generate_parallel(
            model, np.arange(40), empty_prompt(2, 8), 40, DecodeSchedule(rng_seed=3)
        )
        assert all(c >= 1 for c in stats.commit_counts)
        assert sum(stats.commit_counts) == 40
        assert not (stream.frames == MASKED).any()

    def test_determinism(self):
        model = uniform_model(25, 3, 6)
        runs = [
            generate_parallel(
                model, np.arange(25), empty_prompt(3, 6), 25, DecodeSchedule(rng_seed=9)
            )[0].frames
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_layer_causality(self):
        inner = random_oracle(15, 4, 8, 5)
        model = RecordingModel(inner)
        prompt = TokenStream(
            frames=inner.truth[:4], token_rate_hz=50.0, codebook_size=8, source_id="p"
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
        class SpikedUncond(OracleScoreModel):
            def score(self, grid, target_layer, condition, mode):
                out = super().score(grid, target_layer, condition, mode)
                if mode == "unconditional":
                    out = out + np.arange(self.codebook_size)  # garbage, must not matter
                return out

        schedule = DecodeSchedule(cfg_start=0.0, cfg_end=0.0, rng_seed=13)
        a, _ = generate_parallel(
            uniform_model(18, 2, 7), np.arange(18), empty_prompt(2, 7), 18, schedule
        )
        b, _ = generate_parallel(
            SpikedUncond(np.zeros((18, 2), dtype=np.int32), margin=0.0, codebook_size=7),
            np.arange(18),
            empty_prompt(2, 7),
            18,
            schedule,
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
        model = random_oracle(10, 2, 4, 0)
        prompt = TokenStream(
            frames=model.truth, token_rate_hz=50.0, codebook_size=4, source_id="p"
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
                OracleScoreModel(np.zeros((3, 2), dtype=np.int32), 4, margin=bad)

    def test_short_grid_commits_everything(self):
        # Fewer maskable frames than iterations: later rounds may commit zero.
        model = uniform_model(3, 1, 4)
        stream, stats = generate_parallel(
            model, np.arange(3), empty_prompt(1, 4), 3, DecodeSchedule(rng_seed=2)
        )
        assert sum(stats.commit_counts) == 3
        assert not (stream.frames == MASKED).any()


class TestDeeperLayerPass:
    def test_both_schedulers_share_one_greedy_pass(self):
        # Fixed per-layer logits with many ties: both schedulers must write
        # the same layer 2..N codes, each the lowest index of a row's maximum.
        frames, layers, k, p = 9, 4, 5, 2
        table = np.random.default_rng(31).integers(0, 3, size=(layers, frames, k)).astype(float)
        expected = np.array(
            [[np.flatnonzero(row == row.max())[0] for row in table[layer]] for layer in range(layers)]
        ).T

        class FixedScores:
            def score(self, grid, target_layer, condition, mode):
                return table[target_layer]

        class FixedNar:
            def layer_logits(self, condition, prompt, decoded_layers, target_layer):
                return table[target_layer, p:]

        prompt = TokenStream(
            frames=expected[:p], token_rate_hz=50.0, codebook_size=k, source_id="p"
        )
        parallel, _ = generate_parallel(
            FixedScores(), np.arange(frames), prompt, frames, DecodeSchedule(rng_seed=4)
        )
        nar = generate_nar(FixedNar(), np.arange(frames), prompt, parallel.frames[p:, 0])
        assert (table == table.max(axis=2, keepdims=True)).sum(axis=2).max() > 1  # ties exist
        np.testing.assert_array_equal(parallel.frames[:, 1:], expected[:, 1:])
        np.testing.assert_array_equal(nar.frames[:, 1:], expected[p:, 1:])


class TestBlockedLayerOne:
    """The layer-1 pass combines and samples the masked rows in blocks of at
    most `BLOCK_BYTES` of float64 logits (64 rows at K=1024). At K=1024 and
    300 frames the first round's masked rows span at least 3 blocks, so these
    cases split every early round; the smaller grids above fit one block."""

    K, FRAMES, LAYERS = 1024, 300, 3

    @pytest.mark.parametrize("prompt_frames", [0, 37])
    @pytest.mark.parametrize("iterations", [1, 5, 12])
    @pytest.mark.parametrize("temperature", [1.0, 0.3])
    @pytest.mark.parametrize("cfg", [(0.0, 2.0), (-2.0, 0.5)])
    def test_matches_whole_grid_reference(
        self, monkeypatch, prompt_frames, iterations, temperature, cfg
    ):
        block_rows = BLOCK_BYTES // (8 * self.K)
        assert self.FRAMES - prompt_frames > 3 * block_rows
        model = RandomScores(self.FRAMES, self.LAYERS, self.K, seed=iterations + prompt_frames)
        truth = np.random.default_rng(8).integers(0, self.K, size=(prompt_frames, self.LAYERS))
        prompt = TokenStream(
            frames=truth.astype(np.int32), token_rate_hz=50.0, codebook_size=self.K, source_id="p"
        )
        schedule = DecodeSchedule(
            iterations_layer1=iterations,
            cfg_start=cfg[0],
            cfg_end=cfg[1],
            temperature=temperature,
            rng_seed=17,
        )
        condition = np.arange(self.FRAMES)
        expected_grid, expected_stats = reference_generate_parallel(
            model, condition, prompt, self.FRAMES, schedule
        )

        block_sizes = []

        def recording_sample_rows(logits, temperature, rng):
            block_sizes.append(len(logits))
            return sample_rows(logits, temperature, rng)

        monkeypatch.setattr(mlm, "sample_rows", recording_sample_rows)
        stream, stats = generate_parallel(model, condition, prompt, self.FRAMES, schedule)
        np.testing.assert_array_equal(stream.frames, expected_grid)
        assert stats == expected_stats
        assert block_sizes[:3] == [block_rows] * 3 and max(block_sizes) == block_rows

    def test_overflow_in_third_block_raises_as_reference(self):
        # Both score grids are finite, so `checked_logits` passes them; the
        # guided logits 3 * 1e308 overflow in one row of the third block only.
        frames, k = self.FRAMES, self.K
        bad_row = 2 * (BLOCK_BYTES // (8 * k)) + 5

        class OverflowInOneRow:
            def score(self, grid, target_layer, condition, mode):
                out = np.zeros((frames, k))
                if mode == "conditional":
                    out[bad_row, 3] = 1e308
                return out

        schedule = DecodeSchedule(cfg_start=2.0, cfg_end=2.0, rng_seed=4)
        prompt = empty_prompt(self.LAYERS, k)
        errors = []
        with np.errstate(over="ignore"):
            for run in (reference_generate_parallel, generate_parallel):
                with pytest.raises(NumericalError) as caught:
                    run(OverflowInOneRow(), np.arange(frames), prompt, frames, schedule)
                errors.append(str(caught.value))
        assert errors[0] == errors[1]


class TestWorkingMemory:
    @staticmethod
    def _peak_bytes(run):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_parallel_holds_two_score_grids_and_one_block(self):
        """1,024 frames, K=1024, 3 layers on the oracle: one (frames, K)
        float64 score grid is 8 MiB. The whole-grid layer-1 loop peaked at
        57.6 MB, 6.9 grids (cond, uncond, `cfg_combine`'s result and two
        temporaries, and the masked rows' copy); the blocked pass holds the
        two score grids plus blocks of 512 KB."""
        frames, layers, k = 1024, 3, 1024
        model = random_oracle(frames, layers, k, 3)
        prompt = empty_prompt(layers, k)
        peak = self._peak_bytes(
            lambda: generate_parallel(
                model, np.arange(frames), prompt, frames, DecodeSchedule(rng_seed=1)
            )
        )
        assert peak < 2.5 * frames * k * 8

    def test_nar_holds_one_score_grid(self):
        """2,500 frames, K=1024, 8 layers: one (frames, K) float64 grid is
        19.5 MiB. When the greedy pass kept the previous layer's logits while
        it scored the next, `generate_nar` peaked at 43.6 MB, 2.1 grids."""
        frames, layers, k = 2500, 8, 1024
        truth = np.random.default_rng(5).integers(0, k, size=(frames, layers), dtype=np.int32)
        model = OracleNarModel(truth, k)
        prompt = empty_prompt(layers, k)
        peak = self._peak_bytes(
            lambda: generate_nar(model, np.arange(frames), prompt, truth[:, 0])
        )
        assert peak < 1.3 * frames * k * 8
