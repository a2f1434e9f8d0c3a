"""Training loops: corpus generation, EMA and projected regimes, gradients."""

import numpy as np
import pytest

from rvqkit import (
    CorpusSpec,
    NumericalError,
    ProjectedParams,
    TrainConfig,
    make_corpus,
    projected_assign,
    projected_grads,
    projected_loss,
    rvq_encode_batch,
    train_quantizer,
)


class TestMakeCorpus:
    def test_deterministic(self):
        spec = CorpusSpec(num_components=4, dims=16, separation=3.0, count=1000, seed=9)
        a = make_corpus(spec)
        b = make_corpus(spec)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1000, 16)

    def test_single_component_mean(self):
        spec = CorpusSpec(num_components=1, dims=8, separation=2.0, count=1000, seed=10)
        corpus = make_corpus(spec)
        # Recover the drawn mean the same way make_corpus draws it.
        rng = np.random.default_rng(10)
        mean = rng.uniform(-1.0, 1.0, size=(1, 8))[0]
        bound = 4.0 / np.sqrt(1000)
        assert np.abs(corpus.mean(axis=0) - mean).max() < bound

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            CorpusSpec(num_components=0)
        with pytest.raises(ValueError):
            CorpusSpec(separation=0.0)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="dims"):
                CorpusSpec(dims=bad)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                CorpusSpec(separation=bad)


@pytest.mark.parametrize("scheme", ["ema", "ema_restart", "projected"])
@pytest.mark.parametrize("init", ["kmeans", "random"])
def test_non_finite_corpus_rejected_up_front(scheme, init):
    corpus = make_corpus(CorpusSpec(num_components=4, dims=8, count=300, seed=12))
    corpus[299, 3] = np.nan
    config = TrainConfig(
        scheme=scheme, init=init, num_layers=2, codebook_size=16, latent_dim=8,
        quant_dim=4 if scheme == "projected" else None, steps=30, batch_size=32,
    )
    with pytest.raises(ValueError, match="finite"):
        train_quantizer(corpus, config)


class TestEmaTraining:
    def test_exact_corpus_of_k_points(self):
        rng = np.random.default_rng(40)
        points = rng.normal(size=(8, 4)) * 5
        corpus = np.tile(points, (16, 1))
        config = TrainConfig(
            scheme="ema", num_layers=1, codebook_size=8, latent_dim=4, steps=50,
            batch_size=32, seed=40,
        )
        _, report = train_quantizer(corpus, config)
        assert report.mse[-1] < 1e-6

    def test_two_blob_utilization_bounds(self):
        corpus = make_corpus(CorpusSpec(num_components=2, dims=6, separation=8.0, count=400, seed=41))
        config = TrainConfig(
            scheme="ema", num_layers=1, codebook_size=4, latent_dim=6, steps=100,
            batch_size=50, seed=41,
        )
        _, report = train_quantizer(corpus, config)
        assert 0.0 < report.utilization[0] <= 1.0

    def test_reproducible(self):
        corpus = make_corpus(CorpusSpec(num_components=4, dims=6, count=300, seed=42))
        config = TrainConfig(
            scheme="ema_restart", num_layers=2, codebook_size=8, latent_dim=6, steps=120,
            batch_size=40, seed=42,
        )
        qa, ra = train_quantizer(corpus, config)
        qb, rb = train_quantizer(corpus, config)
        for la, lb in zip(qa.layers, qb.layers):
            np.testing.assert_array_equal(la.entries, lb.entries)
        np.testing.assert_array_equal(ra.mse, rb.mse)

    def test_no_nonfinite_over_many_steps(self):
        for seed in (0, 1):
            corpus = make_corpus(
                CorpusSpec(num_components=6, dims=4, separation=5.0, count=256, seed=seed)
            )
            config = TrainConfig(
                scheme="ema", num_layers=2, codebook_size=16, latent_dim=4, steps=10_000,
                batch_size=32, seed=seed,
            )
            qz, report = train_quantizer(corpus, config)
            for layer in qz.layers:
                assert np.all(np.isfinite(layer.entries))
            assert np.all(np.isfinite(report.mse))

    def test_restart_utilization_at_least_plain(self):
        corpus = make_corpus(
            CorpusSpec(num_components=48, dims=8, separation=14.0, count=512, seed=43)
        )
        base = dict(
            num_layers=1, codebook_size=32, latent_dim=8, steps=300, batch_size=64, seed=43,
        )
        _, plain = train_quantizer(corpus, TrainConfig(scheme="ema", **base))
        _, restart = train_quantizer(corpus, TrainConfig(scheme="ema_restart", **base))
        assert restart.utilization[0] >= plain.utilization[0]

    def test_restart_checks_see_every_code_assigned_so_far(self, monkeypatch):
        # Dead means no step has assigned the code since the codebook was
        # built: each check's `used` is the union of every code that the
        # layer's EMA updates up to that step were given, so a code assigned
        # once stays alive, and a restarted code stays dead until assigned.
        import rvqkit.training as training

        real_ema, real_restart = training.ema_update, training.restart_dead_codes
        num_layers, k = 2, 64
        assigned = [np.zeros(k, dtype=bool) for _ in range(num_layers)]
        calls = {"ema": 0}
        checks = []

        def ema_spy(codebook, vectors, indices, **kwargs):
            assigned[calls["ema"] % num_layers][indices] = True
            calls["ema"] += 1
            return real_ema(codebook, vectors, indices, **kwargs)

        def restart_spy(codebook, batch, used, rng=0):
            layer = len(checks) % num_layers
            checks.append((layer, used.copy(), assigned[layer].copy()))
            return real_restart(codebook, batch, used, rng=rng)

        monkeypatch.setattr(training, "ema_update", ema_spy)
        monkeypatch.setattr(training, "restart_dead_codes", restart_spy)
        corpus = make_corpus(
            CorpusSpec(num_components=6, dims=4, separation=8.0, count=512, seed=45)
        )
        config = TrainConfig(
            scheme="ema_restart", num_layers=num_layers, codebook_size=k, latent_dim=4,
            steps=60, batch_size=32, restart_period=10, seed=45,
        )
        train_quantizer(corpus, config)

        assert len(checks) == 6 * num_layers
        for _, used, expected in checks:
            assert used.dtype == bool and used.shape == (k,)
            np.testing.assert_array_equal(used, expected)
        # Some checks find dead codes, and some codes come alive between
        # checks, so the masks exercise both outcomes.
        assert any(not used.all() for _, used, _ in checks)
        assert not np.array_equal(checks[0][1], checks[-2][1])

    def test_reported_utilization_is_that_of_encode(self):
        # Training looks codes up with the encoder's kernel, so the utilization
        # it reports is that of the codes `rvq_encode_batch` gives.
        corpus = make_corpus(
            CorpusSpec(num_components=12, dims=8, separation=6.0, count=1024, seed=44)
        )
        config = TrainConfig(
            scheme="ema_restart", num_layers=4, codebook_size=256, latent_dim=8, steps=60,
            batch_size=64, restart_period=20, seed=44,
        )
        quantizer, report = train_quantizer(corpus, config)
        codes, _ = rvq_encode_batch(corpus, quantizer)
        used = [len(np.unique(column)) / 256 for column in codes.T]
        np.testing.assert_array_equal(report.utilization, used)
        assert min(used) < 1.0

    def test_corpus_too_small_raises(self):
        corpus = np.zeros((4, 2))
        with pytest.raises(ValueError):
            train_quantizer(
                corpus,
                TrainConfig(scheme="ema", codebook_size=8, latent_dim=2, batch_size=2),
            )


class TestProjectedTraining:
    def _random_instance(self, rng, batch=8, d=10, q=4, n_layers=3, k=12):
        params = ProjectedParams(
            proj_in=rng.normal(size=(d, q)) / np.sqrt(d),
            proj_out=rng.normal(size=(q, d)) / np.sqrt(q),
            entries=[rng.normal(size=(k, q)) for _ in range(n_layers)],
        )
        batch_x = rng.normal(size=(batch, d)) * 2.0
        return params, batch_x

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_assign_matches_per_layer_brute_force(self, metric):
        rng = np.random.default_rng(52)
        for _ in range(5):
            params, batch = self._random_instance(rng, batch=40)
            codes = projected_assign(params, batch, metric)
            residual = batch @ params.proj_in
            for n, entries in enumerate(params.entries):
                if metric == "euclidean":
                    diff = residual[:, None, :] - entries[None, :, :]
                    expected = np.argmin((diff**2).sum(axis=2), axis=1)
                else:
                    rn = residual / np.linalg.norm(residual, axis=1, keepdims=True)
                    en = entries / np.linalg.norm(entries, axis=1, keepdims=True)
                    expected = np.argmax(rn @ en.T, axis=1)
                np.testing.assert_array_equal(codes[:, n], expected)
                residual = residual - entries[expected]

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_assign_rejects_non_finite_batches(self, metric, bad):
        # No entry is nearest to a non-finite query under either metric.
        params, batch = self._random_instance(np.random.default_rng(3), batch=5)
        batch[3, 1] = bad
        with pytest.raises(ValueError, match="queries must be finite"):
            projected_assign(params, batch, metric)

    def test_gradients_match_central_differences(self):
        # Finite-difference oracle over every parameter coordinate, with the
        # code assignments and detached snapshots frozen at the base point.
        rng = np.random.default_rng(50)
        w_cb, w_cm = 1.0, 0.25
        step = 1e-4
        for _ in range(5):
            params, batch = self._random_instance(rng)
            codes = projected_assign(params, batch, metric="euclidean")
            z_ref = batch @ params.proj_in
            q_ref = np.sum(
                [e[codes[:, i]] for i, e in enumerate(params.entries)], axis=0
            )
            grads = projected_grads(
                params, batch, codes, z_ref, q_ref,
                codebook_weight=w_cb, commitment_weight=w_cm,
            )

            def loss_at(p):
                return projected_loss(
                    p, batch, codes, z_ref, q_ref,
                    codebook_weight=w_cb, commitment_weight=w_cm,
                )

            def check_block(array, grad_block):
                fd = np.zeros_like(array)
                flat = array.ravel()
                fd_flat = fd.ravel()
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + step
                    up = loss_at(params)
                    flat[j] = orig - step
                    down = loss_at(params)
                    flat[j] = orig
                    fd_flat[j] = (up - down) / (2 * step)
                denom = max(np.linalg.norm(fd), 1e-10)
                assert np.linalg.norm(grad_block - fd) / denom < 1e-3

            check_block(params.proj_in, grads.proj_in)
            check_block(params.proj_out, grads.proj_out)
            for e, g in zip(params.entries, grads.entries):
                check_block(e, g)

    def test_loss_decreases_smoothed(self):
        corpus = make_corpus(
            CorpusSpec(num_components=32, dims=16, separation=6.0, count=1024, seed=51)
        )
        config = TrainConfig(
            scheme="projected", num_layers=2, codebook_size=64, latent_dim=16, quant_dim=4,
            steps=600, batch_size=64, seed=51, learning_rate=1e-3,
        )
        _, report = train_quantizer(corpus, config)
        total = report.mse + config.codebook_weight * report.codebook + (
            config.commitment_weight * report.codebook
        )
        smoothed = np.convolve(total, np.ones(100) / 100, mode="valid")
        assert smoothed[-1] < smoothed[0]

    def test_reproducible(self):
        corpus = make_corpus(CorpusSpec(num_components=8, dims=8, count=256, seed=52))
        config = TrainConfig(
            scheme="projected", num_layers=2, codebook_size=16, latent_dim=8, quant_dim=3,
            steps=100, batch_size=32, seed=52,
        )
        qa, _ = train_quantizer(corpus, config)
        qb, _ = train_quantizer(corpus, config)
        for la, lb in zip(qa.layers, qb.layers):
            np.testing.assert_array_equal(la.entries, lb.entries)
        np.testing.assert_array_equal(
            qa.projections[0].proj_in, qb.projections[0].proj_in
        )

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_diagnostic(self):
        corpus = make_corpus(CorpusSpec(num_components=4, dims=8, count=128, seed=53))
        config = TrainConfig(
            scheme="projected", num_layers=1, codebook_size=16, latent_dim=8, quant_dim=4,
            steps=200, batch_size=32, seed=53, learning_rate=1e9,
        )
        with pytest.raises(NumericalError):
            train_quantizer(corpus, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(scheme="projected", latent_dim=8, quant_dim=None)
        with pytest.raises(ValueError):
            TrainConfig(scheme="projected", latent_dim=4, quant_dim=8)
        with pytest.raises(ValueError):
            TrainConfig(scheme="ema", latent_dim=8, quant_dim=4)
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        for name in ("num_layers", "codebook_size", "latent_dim"):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                TrainConfig(**{name: 0})
        for bad in (0, -2):
            with pytest.raises(ValueError, match="quant_dim must be >= 1"):
                TrainConfig(scheme="projected", latent_dim=8, quant_dim=bad)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=bad)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="loss weights"):
                TrainConfig(commitment_weight=bad)
            with pytest.raises(ValueError, match="loss weights"):
                TrainConfig(codebook_weight=bad)

    @pytest.mark.parametrize("scheme", ["ema", "ema_restart", "projected"])
    def test_unknown_metric_rejected_at_construction(self, scheme):
        dims = {"latent_dim": 8, "quant_dim": 4 if scheme == "projected" else None}
        with pytest.raises(ValueError, match="unknown metric 'manhattan'"):
            TrainConfig(scheme=scheme, metric="manhattan", **dims)
        for metric in ("euclidean", "cosine"):
            assert TrainConfig(scheme=scheme, metric=metric, **dims).metric == metric
