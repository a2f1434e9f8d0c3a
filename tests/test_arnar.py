"""AR + NAR generation: temperature sampling, toy models, n-gram training."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from rvqkit import (
    EmptyGenerationError,
    GenConfig,
    NgramArModel,
    NumericalError,
    OracleArModel,
    OracleNarModel,
    OracleScoreModel,
    TokenStream,
    generate_ar,
    generate_nar,
    generate_text_to_tokens,
    sample_with_temperature,
    sequence_perplexity,
    train_ngram_ar,
)
from rvqkit._rng import sample_rows


def eos_model(k, margin=50.0):
    """An AR oracle with empty truth: EOS from the first step."""
    return OracleArModel(np.empty(0, dtype=np.int64), k, margin=margin)


def cycling_model(k, steps, margin=50.0):
    """An AR oracle peaked at code t % k at step t, for `steps` steps."""
    return OracleArModel(np.arange(steps) % k, k, margin=margin)


def make_stream(codes, k, layers=1, rate=50.0, source="s"):
    frames = np.asarray(codes, dtype=np.int32).reshape(-1, layers)
    return TokenStream(frames=frames, token_rate_hz=rate, codebook_size=k, source_id=source)


def reference_train_ngram_ar(streams, order):
    """The counts of `train_ngram_ar`, one token at a time: context tuple ->
    float64 vector over K codes plus EOS."""
    k = streams[0].codebook_size
    width = order - 1
    counts = {}
    for s in streams:
        seq = [int(c) for c in s.frames[:, 0]] + [k]
        for i, tok in enumerate(seq):
            ctx = tuple(seq[max(0, i - width) : i])
            vec = counts.get(ctx)
            if vec is None:
                vec = np.zeros(k + 1)
                counts[ctx] = vec
            vec[tok] += 1
    return counts


def empty_prompt(layers, k):
    """A zero-frame prompt: it gives a generator only its layers and K."""
    return make_stream(np.empty(0), k, layers=layers)


class TestSampleWithTemperature:
    def test_near_zero_temperature_is_argmax(self):
        logits = np.array([0.1, 2.0, -1.0, 1.9])
        rng = np.random.default_rng(80)
        draws = [sample_with_temperature(logits, 1e-4, rng) for _ in range(10_000)]
        freq = np.bincount(draws, minlength=4) / len(draws)
        assert freq[1] > 0.999

    def test_uniform_logits_chi_square(self):
        logits = np.zeros(6)
        rng = np.random.default_rng(81)
        draws = [sample_with_temperature(logits, 1.3, rng) for _ in range(10_000)]
        counts = np.bincount(draws, minlength=6)
        result = scipy_stats.chisquare(counts)
        assert result.pvalue > 0.01

    def test_analytic_two_class_frequency(self):
        logits = np.array([2.0, 0.0])
        rng = np.random.default_rng(82)
        draws = [sample_with_temperature(logits, 1.0, rng) for _ in range(10_000)]
        freq0 = np.mean(np.asarray(draws) == 0)
        expected = np.exp(2.0) / (np.exp(2.0) + 1.0)  # 0.8808
        assert abs(freq0 - expected) < 0.01

    def test_rejects_bad_inputs(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(NumericalError):
                sample_with_temperature(np.array([0.0, bad]), 1.0, 0)
        with pytest.raises(ValueError):
            sample_with_temperature(np.zeros(3), 0.0, 0)
        for temperature in (np.nan, np.inf):
            with pytest.raises(ValueError):
                sample_with_temperature(np.zeros(3), temperature, 0)
            with pytest.raises(ValueError):
                GenConfig(temperature=temperature)

    def test_never_draws_minus_inf_and_matches_sample_rows(self):
        logits = np.random.default_rng(91).normal(size=40) * 3.0
        logits[::3] = -np.inf
        for temperature in (0.3, 1.0, 4.0):
            rng = np.random.default_rng(92)
            draws = [sample_with_temperature(logits, temperature, rng) for _ in range(2_000)]
            assert np.all(np.isfinite(logits[draws]))
            reference = np.random.default_rng(92)
            expected = [
                int(sample_rows(logits[None, :].copy(), temperature, reference)[0][0])
                for _ in range(2_000)
            ]
            assert draws == expected

    def test_temperature_entropy_monotonicity(self):
        logits = np.array([2.0, 0.0, -1.0])
        temps = [0.5, 0.8, 0.9, 1.0, 1.5]
        entropies = []
        for i, t in enumerate(temps):
            rng = np.random.default_rng(90 + i)
            draws = np.array([sample_with_temperature(logits, t, rng) for _ in range(10_000)])
            p = np.bincount(draws, minlength=3) / len(draws)
            p = p[p > 0]
            entropies.append(float(-(p * np.log2(p)).sum()))
        for lo, hi in zip(entropies, entropies[1:]):
            assert hi >= lo - 0.02

    def test_argmax_invariant_under_temperature(self):
        logits = np.array([0.3, 1.7, -0.4, 1.1])
        for t in (0.05, 0.5, 1.0, 3.0, 50.0):
            z = logits / t
            z -= z.max()
            p = np.exp(z)
            assert int(np.argmax(p)) == int(np.argmax(logits))


class TestSampleRows:
    @staticmethod
    def assert_matches_choice(logits, temperature, seed):
        """sample_rows draws what one Generator.choice(K, p=softmax) per row draws,
        and leaves the generator in the same state."""
        rng = np.random.default_rng(seed)
        draws, probs = sample_rows(logits.copy(), temperature, rng)
        reference = np.random.default_rng(seed)
        expected = []
        for row in logits:
            z = row / temperature
            z -= z.max()
            p = np.exp(z)
            p /= p.sum()
            expected.append(int(reference.choice(len(p), p=p)))
        assert draws.tolist() == expected
        assert rng.random() == reference.random()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        return draws, probs

    def test_draws_match_generator_choice(self):
        logits = np.random.default_rng(84).normal(size=(300, 40)) * 3.0
        for temperature in (0.2, 0.7, 1.0, 2.5):
            self.assert_matches_choice(logits, temperature, 85)

    def test_rows_with_minus_inf_match_generator_choice(self):
        # Rows carry -inf outside a few classes: those get probability 0.
        logits = np.random.default_rng(86).normal(size=(300, 40)) * 3.0
        logits[logits < np.sort(logits, axis=1)[:, [-5]]] = -np.inf
        draws, probs = self.assert_matches_choice(logits, 1.3, 87)
        assert np.all(np.isfinite(logits[np.arange(300), draws]))
        assert np.all(probs[~np.isfinite(logits)] == 0.0)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_rows_raise(self):
        # 1e308 / 0.5 is inf: without the check, inf - inf gives NaN and
        # every row draws code 0.
        logits = np.zeros((3, 4))
        logits[1, 2] = 1e308
        with pytest.raises(NumericalError):
            sample_rows(logits, 0.5, np.random.default_rng(0))
        with pytest.raises(NumericalError):
            sample_rows(np.full((2, 3), -np.inf), 1.0, np.random.default_rng(0))


class TestGenerateAr:
    def test_immediate_eos(self):
        model = eos_model(8)
        config = GenConfig(rng_seed=0, max_frames=10)
        out = generate_ar(model, np.arange(3), empty_prompt(1, 8), config)
        assert out.shape == (0,)

    def test_cycling_trace(self):
        model = cycling_model(16, steps=6)
        out = generate_ar(
            model,
            np.arange(3),
            empty_prompt(1, 16),
            GenConfig(temperature=1e-4, max_frames=6, rng_seed=1),
        )
        assert out.tolist() == [0, 1, 2, 3, 4, 5]

    def test_length_bound(self):
        model = cycling_model(4, steps=7)
        for seed in range(5):
            out = generate_ar(
                model,
                np.arange(2),
                empty_prompt(1, 4),
                GenConfig(temperature=1.0, max_frames=7, rng_seed=seed),
            )
            assert out.shape[0] <= 7

    def test_oracle_reproduces_sequence(self):
        truth = np.array([3, 1, 4, 1, 5])
        model = OracleArModel(truth, codebook_size=8)
        config = GenConfig(temperature=1e-4, max_frames=20, rng_seed=2)
        out = generate_ar(model, np.arange(2), empty_prompt(1, 8), config)
        assert out.tolist() == truth.tolist()

    def test_model_sees_exactly_the_codes_drawn_so_far(self):
        seen = []

        class Recorder:
            def next_logits(self, condition, prompt_codes, generated_prefix):
                seen.append(np.array(generated_prefix))
                logits = np.zeros(7)
                logits[6] = -4.0  # EOS is rare, so most runs fill the budget
                return logits

        for seed in range(4):
            seen.clear()
            out = generate_ar(
                Recorder(),
                np.arange(2),
                empty_prompt(1, 6),
                GenConfig(temperature=1.0, max_frames=50, rng_seed=seed),
            )
            assert len(out) > 1
            assert len(seen) == len(out) + (len(out) < 50)
            for t, prefix in enumerate(seen):
                assert prefix.dtype == np.int64
                assert prefix.tolist() == out[:t].tolist()

    def test_causality_never_sees_future(self):
        seen = []

        class Spy:
            def next_logits(self, condition, prompt_codes, generated_prefix):
                seen.append(len(generated_prefix))
                logits = np.zeros(5)
                logits[len(generated_prefix) % 4] = 50.0
                return logits

        config = GenConfig(temperature=1e-4, max_frames=6, rng_seed=0)
        generate_ar(Spy(), np.arange(2), empty_prompt(1, 4), config)
        assert seen == list(range(6))

    def test_non_finite_logits_are_numerical_errors(self):
        # A NaN the model computes is a numerical failure, unlike bad input.
        for bad in (np.nan, np.inf):

            class Broken:
                def next_logits(self, condition, prompt_codes, generated_prefix):
                    logits = np.zeros(5)
                    logits[2 if len(generated_prefix) == 3 else 0] = bad
                    return logits

            config = GenConfig(max_frames=6, rng_seed=0)
            with pytest.raises(NumericalError):
                generate_ar(Broken(), np.arange(2), empty_prompt(1, 4), config)

    @pytest.mark.parametrize("classes", [4, 6], ids=["no-eos-class", "one-extra-class"])
    def test_logits_must_have_k_plus_one_classes(self, classes):
        # K=4 codes plus EOS is 5 classes; with 4, code 3 would pass for EOS.
        class Wrong:
            def next_logits(self, condition, prompt_codes, generated_prefix):
                logits = np.zeros(classes)
                logits[classes - 1] = 50.0
                return logits

        config = GenConfig(temperature=1e-4, max_frames=6, rng_seed=0)
        expected = rf"AR logits have shape \({classes},\), expected \(5,\)"
        with pytest.raises(ValueError, match=expected):
            generate_ar(Wrong(), np.arange(2), empty_prompt(1, 4), config)
        nar = OracleNarModel(np.zeros((6, 2), dtype=np.int32), codebook_size=4)
        with pytest.raises(ValueError, match="AR logits have shape"):
            generate_text_to_tokens(Wrong(), nar, np.arange(2), empty_prompt(2, 4), config)

    def test_model_sees_the_prompts_first_layer(self):
        seen = []

        class Recorder:
            def next_logits(self, condition, prompt_codes, generated_prefix):
                seen.append(prompt_codes)
                logits = np.zeros(6)
                logits[5] = 50.0  # EOS at once
                return logits

        config = GenConfig(max_frames=3, rng_seed=0)
        generate_ar(Recorder(), np.arange(2), make_stream([[1, 2], [3, 0]], k=5, layers=2), config)
        generate_ar(Recorder(), np.arange(2), empty_prompt(2, 5), config)
        assert [p.dtype for p in seen] == [np.int64, np.int64]
        assert [p.tolist() for p in seen] == [[1, 3], []]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_scaled_logits_are_numerical_errors(self):
        model = cycling_model(4, steps=6, margin=1e308)
        config = GenConfig(temperature=0.5, max_frames=6)
        with pytest.raises(NumericalError):
            generate_ar(model, np.arange(2), empty_prompt(1, 4), config)


class TestGenerateNar:
    def test_oracle_recovery(self):
        rng = np.random.default_rng(83)
        truth = rng.integers(0, 12, size=(14, 4)).astype(np.int32)
        model = OracleNarModel(truth, codebook_size=12)
        stream = generate_nar(model, np.arange(3), empty_prompt(4, 12), truth[:, 0])
        np.testing.assert_array_equal(stream.frames, truth)

    def test_oracle_rejects_more_frames_than_truth(self):
        model = OracleNarModel(np.zeros((3, 2), dtype=np.int32), codebook_size=4)
        with pytest.raises(ValueError, match="more frames requested than the oracle's ground truth"):
            model.layer_logits(None, None, np.zeros((4, 1), dtype=np.int32), 1)

    def test_one_layer_prompt_is_a_value_error(self):
        # The NAR stage needs a second layer to fill; `arnar-sim` rejects
        # `--layers 1` in its parser, library callers get this error.
        model = OracleNarModel(np.zeros((3, 1), dtype=np.int32), codebook_size=4)
        with pytest.raises(ValueError, match="needs num_layers >= 2"):
            generate_nar(model, np.arange(3), empty_prompt(1, 4), [0, 1, 2])

    def test_single_call_for_two_layers(self):
        calls = []

        class Spy:
            def layer_logits(self, condition, prompt, decoded, target_layer):
                calls.append((target_layer, decoded.shape))
                return np.zeros((decoded.shape[0], 6))

        generate_nar(Spy(), np.arange(2), empty_prompt(2, 6), [1, 2, 3])
        assert calls == [(1, (3, 1))]

    def test_layer_order_and_single_visit(self):
        calls = []

        class Spy:
            def layer_logits(self, condition, prompt, decoded, target_layer):
                calls.append((target_layer, decoded.shape[1]))
                return np.zeros((decoded.shape[0], 6))

        generate_nar(Spy(), np.arange(2), empty_prompt(5, 6), [0, 1])
        assert calls == [(1, 1), (2, 2), (3, 3), (4, 4)]

    def test_argmax_matches_reference(self):
        rng = np.random.default_rng(84)
        tables = {}

        class Fixed:
            def layer_logits(self, condition, prompt, decoded, target_layer):
                if target_layer not in tables:
                    tables[target_layer] = rng.normal(size=(decoded.shape[0], 9))
                return tables[target_layer]

        stream = generate_nar(Fixed(), np.arange(2), empty_prompt(3, 9), [0, 1, 2, 3])
        for layer, table in tables.items():
            np.testing.assert_array_equal(stream.frames[:, layer], np.argmax(table, axis=1))

    def test_ties_break_to_lowest_code(self):
        class Tied:
            def layer_logits(self, condition, prompt, decoded, target_layer):
                return np.zeros((decoded.shape[0], 7))

        stream = generate_nar(Tied(), np.arange(1), empty_prompt(2, 7), [5, 6])
        assert stream.frames[:, 1].tolist() == [0, 0]

    def test_non_finite_logits_are_numerical_errors(self):
        class Broken:
            def layer_logits(self, condition, prompt, decoded, target_layer):
                logits = np.zeros((decoded.shape[0], 7))
                logits[1, 3] = np.nan if target_layer == 2 else 0.0
                return logits

        with pytest.raises(NumericalError):
            generate_nar(Broken(), np.arange(1), empty_prompt(3, 7), [5, 6])

    def test_wrong_logits_shape_is_a_value_error(self):
        class Narrow:
            def layer_logits(self, condition, prompt, decoded, target_layer):
                return np.zeros((decoded.shape[0], 6))

        with pytest.raises(ValueError, match="shape"):
            generate_nar(Narrow(), np.arange(1), empty_prompt(2, 7), [5, 6])


class TestComposition:
    def _oracle_pair(self, rng, t=12, n=4, k=10):
        truth = rng.integers(0, k, size=(t, n)).astype(np.int32)
        ar = OracleArModel(truth[:, 0], codebook_size=k)
        nar = OracleNarModel(truth, codebook_size=k)
        return truth, ar, nar

    def test_oracle_composition_recovers_grid(self):
        rng = np.random.default_rng(85)
        truth, ar, nar = self._oracle_pair(rng)
        prompt = TokenStream(
            frames=np.empty((0, 4), dtype=np.int32),
            token_rate_hz=50.0,
            codebook_size=10,
            source_id="t",
        )
        stream, stats = generate_text_to_tokens(
            ar, nar, np.arange(3), prompt, GenConfig(temperature=1e-4, max_frames=30, rng_seed=3)
        )
        np.testing.assert_array_equal(stream.frames, truth)
        assert stats.ar_steps == 13  # 12 codes + the EOS draw
        assert stats.nar_passes == 3

    def test_nar_passes_for_eight_layers(self):
        rng = np.random.default_rng(86)
        truth, ar, nar = self._oracle_pair(rng, t=6, n=8, k=9)
        prompt = TokenStream(
            frames=np.empty((0, 8), dtype=np.int32),
            token_rate_hz=50.0,
            codebook_size=9,
            source_id="t",
        )
        _, stats = generate_text_to_tokens(
            ar, nar, np.arange(2), prompt, GenConfig(temperature=1e-4, max_frames=20, rng_seed=4)
        )
        assert stats.nar_passes == 7

    def test_empty_generation_raises(self):
        prompt = TokenStream(
            frames=np.empty((0, 2), dtype=np.int32),
            token_rate_hz=50.0,
            codebook_size=8,
            source_id="t",
        )
        with pytest.raises(EmptyGenerationError):
            generate_text_to_tokens(
                eos_model(8),
                OracleNarModel(np.zeros((4, 2), dtype=int), codebook_size=8),
                np.arange(2),
                prompt,
                GenConfig(rng_seed=0),
            )

    def test_deterministic(self):
        k = 32
        rng = np.random.default_rng(87)
        streams = [make_stream(rng.integers(0, k, size=200), k=k)]
        ar = train_ngram_ar(streams, order=2, smoothing=0.2)
        truth = rng.integers(0, k, size=(40, 3)).astype(np.int32)
        nar = OracleNarModel(truth, codebook_size=k)
        prompt = TokenStream(
            frames=np.empty((0, 3), dtype=np.int32),
            token_rate_hz=50.0,
            codebook_size=k,
            source_id="t",
        )
        cfg = GenConfig(temperature=1.0, max_frames=40, rng_seed=11)
        out = [generate_text_to_tokens(ar, nar, np.arange(2), prompt, cfg)[0].frames for _ in range(2)]
        np.testing.assert_array_equal(out[0], out[1])


class TestNgram:
    # Orders 6 to 33 rank their contexts in several doubling steps, on
    # streams of up to 40 frames (orders 1 to 4 keep their 30). At orders 4
    # and 6, and wherever the longest stream caps the context width below
    # order - 1, the last step pairs two overlapping halves.
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 9, 17, 33])
    def test_counts_match_reference(self, order):
        rng = np.random.default_rng(90 + order)
        cases = [[make_stream([], k=3)], [make_stream([], k=1), make_stream([0], k=1)]]
        longest = 30 if order <= 4 else 40
        for _ in range(40):
            k = int(rng.integers(1, 13))
            lengths = rng.integers(0, longest + 1, size=rng.integers(1, 4))
            cases.append([make_stream(rng.integers(0, k, size=n), k=k) for n in lengths])
        for streams in cases:
            self._assert_reference_counts(streams, order)

    def test_huge_order_counts_match_reference(self):
        codes = np.random.default_rng(95).integers(0, 3, size=10)
        self._assert_reference_counts([make_stream(codes, k=3)], 10**12)

    def test_working_memory_flat_in_order(self):
        # 64 laps of one 1024-code cycle: the order-256 contexts repeat, so
        # counting them needs O(tokens) memory, not O(tokens * order).
        stream = make_stream(np.arange(65536) % 1024, k=1024)
        tracemalloc.start()
        try:
            model = train_ngram_ar([stream], order=256)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model._counts) == 1024 + 255
        assert peak - held <= 8 * 2**20

    @staticmethod
    def _assert_reference_counts(streams, order):
        counts = train_ngram_ar(streams, order=order)._counts
        expected = reference_train_ngram_ar(streams, order)
        # Keys come in the lexicographic order of the contexts left-padded with -1.
        longest = max(map(len, expected))
        assert list(counts) == sorted(expected, key=lambda ctx: (-1,) * (longest - len(ctx)) + ctx)
        for ctx, vec in expected.items():
            assert counts[ctx].dtype == np.float64
            np.testing.assert_array_equal(counts[ctx], vec)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_prompt_and_prefix_form_one_context(self, order):
        rng = np.random.default_rng(96)
        model = train_ngram_ar([make_stream(rng.integers(0, 3, size=60), k=3)], order=order)
        for p in range(5):
            for g in range(5):
                prompt, prefix = rng.integers(0, 3, size=p), rng.integers(0, 3, size=g)
                np.testing.assert_array_equal(
                    model.next_logits(None, prompt, prefix),
                    model.next_logits(None, [], np.concatenate([prompt, prefix])),
                )

    def test_mixed_codebook_sizes_rejected(self):
        with pytest.raises(ValueError, match="streams must share codebook_size"):
            train_ngram_ar([make_stream([0, 1], k=3), make_stream([0, 1], k=4)])

    @pytest.mark.parametrize("prompt, prefix", [([], []), ([2, 0], [1])], ids=["bare", "prompted"])
    def test_unigram_logits_ignore_context(self, prompt, prefix):
        # Order 1 has the one empty context: codes 0, 1, 1, 2 and EOS, smoothed by 0.5.
        model = train_ngram_ar([make_stream([0, 1, 1, 2], k=3)], order=1, smoothing=0.5)
        expected = np.log(np.array([1.5, 2.5, 1.5, 1.5]) / 7.0)
        np.testing.assert_allclose(model.next_logits(None, prompt, prefix), expected, rtol=1e-15)

    def test_alternating_sequence_peaks(self):
        codes = np.array([0, 1] * 50)
        model = train_ngram_ar([make_stream(codes, k=4)], order=2, smoothing=1e-9)
        logits = model.next_logits(np.arange(1), [], np.array([0, 1, 0]))
        assert int(np.argmax(logits)) == 1
        logits = model.next_logits(np.arange(1), [], np.array([1, 0, 1]))
        assert int(np.argmax(logits)) == 0

    def test_smoothing_gives_full_support(self):
        model = train_ngram_ar([make_stream([0, 0, 0], k=8)], order=2, smoothing=0.5)
        probs = model.probabilities(np.arange(1), [], np.array([0]))
        assert probs.shape == (9,)  # 8 codes + EOS
        assert np.all(probs > 0)
        assert probs.sum() == pytest.approx(1.0)

    def test_training_perplexity_beats_uniform(self):
        rng = np.random.default_rng(88)
        k = 16
        # Markov-ish data: strong successor structure for the model to learn.
        codes = [0]
        for _ in range(500):
            codes.append((codes[-1] + rng.integers(0, 2)) % k)
        stream = make_stream(codes, k=k)
        model = train_ngram_ar([stream], order=2, smoothing=0.01)

        class UniformAr:
            def next_logits(self, condition, prompt_codes, generated_prefix):
                return np.zeros(k + 1)

        ppl_model = sequence_perplexity(model, np.arange(1), stream)
        ppl_uniform = sequence_perplexity(UniformAr(), np.arange(1), stream)
        assert ppl_uniform == pytest.approx(k + 1, rel=1e-6)
        assert ppl_model <= ppl_uniform

    @pytest.mark.parametrize("bad", [-1, 16, 99], ids=["negative", "eos-index", "past-eos"])
    def test_perplexity_rejects_codes_outside_codebook(self, bad):
        # K=16: EOS is index 16 of the logits, never a code, and -1 is not one
        # either. A stream holding one cannot be built, so none is ever scored.
        model = train_ngram_ar([make_stream(np.arange(64) % 16, k=16)], order=2)
        for codes in ([bad, bad, bad], [3, 4, bad]):
            with pytest.raises(ValueError, match=r"\[0, codebook_size\)"):
                make_stream(codes, k=16)
        assert sequence_perplexity(model, np.arange(1), make_stream([3, 4, 15], k=16)) > 1.0

    def test_perplexity_checks_every_model_output(self):
        stream = make_stream([3, 1, 2], k=4)

        class Model:
            def __init__(self, classes, bad_step=None):
                self.classes, self.bad_step = classes, bad_step

            def next_logits(self, condition, prompt_codes, generated_prefix):
                logits = np.zeros(self.classes)
                if len(generated_prefix) == self.bad_step:
                    logits[1] = np.nan
                return logits

        assert sequence_perplexity(Model(5), np.arange(1), stream) == pytest.approx(5.0)
        for classes in (1, 4, 6):
            with pytest.raises(ValueError, match=r"AR logits have shape"):
                sequence_perplexity(Model(classes), np.arange(1), stream)
        for step in (0, 3):
            with pytest.raises(NumericalError):
                sequence_perplexity(Model(5, bad_step=step), np.arange(1), stream)

    def test_prompt_extends_context(self):
        codes = np.array([2, 3] * 30)
        model = train_ngram_ar([make_stream(codes, k=6)], order=2, smoothing=1e-9)
        logits = model.next_logits(np.arange(1), np.array([2, 3, 2]), np.array([], dtype=int))
        assert int(np.argmax(logits)) == 3

    def test_requires_streams_and_positive_smoothing(self):
        with pytest.raises(ValueError):
            train_ngram_ar([], order=2)
        with pytest.raises(ValueError):
            NgramArModel(order=2, smoothing=0.0, codebook_size=4, counts={})
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                NgramArModel(order=2, smoothing=bad, codebook_size=4, counts={})

    def test_toy_models_reject_non_finite_margin(self):
        truth = np.zeros((3, 2), dtype=np.int64)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                OracleArModel(truth[:, 0], 4, margin=bad)
            with pytest.raises(ValueError):
                eos_model(4, margin=bad)
            with pytest.raises(ValueError):
                cycling_model(4, steps=3, margin=bad)
            with pytest.raises(ValueError):
                OracleNarModel(truth, 4, margin=bad)

    @pytest.mark.parametrize("code", [4, -1])
    @pytest.mark.parametrize(
        "build",
        [
            lambda truth: OracleArModel(truth[:, 0], 4),
            lambda truth: OracleNarModel(truth, 4),
            lambda truth: OracleScoreModel(truth, 4),
        ],
        ids=["ar", "nar", "score"],
    )
    def test_oracles_reject_truth_codes_outside_the_codebook(self, build, code):
        truth = np.zeros((3, 2), dtype=np.int64)
        truth[1, 0] = code
        with pytest.raises(ValueError, match=r"truth codes must lie in \[0, 4\)"):
            build(truth)
        # Empty truth with K given still builds: for the AR oracle it is the
        # always-EOS model of `eos_model`.
        build(np.empty((0, 2), dtype=np.int64))


class TestHallucinationAnalog:
    def test_out_of_support_rate_orders_with_temperature(self):
        # Streams cover only part of the vocabulary; smoothing leaks
        # probability onto unseen codes, and a colder temperature leaks less.
        rng = np.random.default_rng(89)
        k, support = 64, 20
        codes = np.concatenate([np.arange(support), rng.integers(0, support, size=5000)])
        model = train_ngram_ar([make_stream(codes, k=k)], order=2, smoothing=0.2)

        def sample_rate(temperature, n_tokens, seed):
            out_of_support = 0
            total = 0
            cfg = GenConfig(temperature=temperature, max_frames=500, rng_seed=seed)
            while total < n_tokens:
                chunk = generate_ar(model, np.arange(1), empty_prompt(1, k), cfg)
                cfg = GenConfig(temperature=temperature, max_frames=500, rng_seed=cfg.rng_seed + 1)
                total += len(chunk)
                out_of_support += int((chunk >= support).sum())
            return out_of_support / total

        rate_hot = sample_rate(1.0, 20_000, 1000)
        rate_cold = sample_rate(0.8, 20_000, 2000)
        assert rate_hot > 0
        assert rate_cold < rate_hot
