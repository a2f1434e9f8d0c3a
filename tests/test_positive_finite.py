"""One rule for every rate, temperature, learning rate, separation and
smoothing value: a real number that is not a bool, in (0, inf), kept as a
float. One for every count: an integer that is not a bool, at least 1, kept
as an int (k-means' `iterations` at least 0). And one for every seed: an
integer that is not a bool, at least 0, kept as an int, or a Generator.
Each is checked when its object is built or its function is called."""

from fractions import Fraction

import numpy as np
import pytest

from rvqkit import (
    Codebook,
    CorpusSpec,
    DecodeSchedule,
    GenConfig,
    NgramArModel,
    OracleArModel,
    OracleNarModel,
    OracleScoreModel,
    RvqQuantizer,
    TokenStream,
    TrainConfig,
    bitrate_bps,
    kmeans_init,
    restart_dead_codes,
    rvq_decode,
    sample_with_temperature,
    train_ngram_ar,
)

QUANTIZER = RvqQuantizer(layers=[Codebook.from_entries(np.eye(2))], latent_dim=2)

SITES = {
    "token_rate_hz": lambda v: TokenStream(np.zeros((1, 1), dtype=np.int32), v, 4).token_rate_hz,
    "bitrate_bps": lambda v: bitrate_bps(QUANTIZER, v),
    "DecodeSchedule": lambda v: DecodeSchedule(temperature=v).temperature,
    "GenConfig": lambda v: GenConfig(temperature=v).temperature,
    "sample_with_temperature": lambda v: sample_with_temperature([0.0, 1.0], v, 0),
    "TrainConfig": lambda v: TrainConfig(learning_rate=v).learning_rate,
    "CorpusSpec": lambda v: CorpusSpec(separation=v).separation,
    "NgramArModel": lambda v: NgramArModel(2, v, 4, {}).smoothing,
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("value", ["50", None, True], ids=["str", "none", "bool"])
def test_non_number_is_rejected(site, value):
    with pytest.raises(ValueError, match="must be a number"):
        SITES[site](value)


@pytest.mark.parametrize(
    "site", [site for site in SITES if site not in ("bitrate_bps", "sample_with_temperature")]
)
@pytest.mark.parametrize("value", [2, np.float32(0.5), np.int64(3), Fraction(1, 3)])
def test_value_is_kept_as_a_float(site, value):
    kept = SITES[site](value)
    assert type(kept) is float and kept == float(value)


THREE_LAYERS = RvqQuantizer(layers=[Codebook.from_entries(np.eye(2))] * 3, latent_dim=2)
STREAM = TokenStream(np.zeros((3, 1), dtype=np.int32), 50.0, 4)
GRID = np.zeros((2, 2), dtype=np.int64)

COUNT_SITES = {
    **{
        f"TrainConfig.{name}": (lambda name: lambda v: getattr(TrainConfig(**{name: v}), name))(name)
        for name in (
            "num_layers", "codebook_size", "latent_dim", "steps", "batch_size", "restart_period"
        )
    },
    "TrainConfig.quant_dim": lambda v: TrainConfig(
        scheme="projected", latent_dim=16, quant_dim=v
    ).quant_dim,
    **{
        f"CorpusSpec.{name}": (lambda name: lambda v: getattr(CorpusSpec(**{name: v}), name))(name)
        for name in ("num_components", "dims", "count")
    },
    "GenConfig.max_frames": lambda v: GenConfig(max_frames=v).max_frames,
    "DecodeSchedule.iterations_layer1": lambda v: DecodeSchedule(
        iterations_layer1=v
    ).iterations_layer1,
    "rvq_decode.num_layers": lambda v: rvq_decode(np.zeros(3, dtype=int), THREE_LAYERS, v),
    "RvqQuantizer.latent_dim": lambda v: RvqQuantizer(
        layers=[Codebook.from_entries(np.eye(2))], latent_dim=v
    ).latent_dim,
    "NgramArModel.order": lambda v: NgramArModel(v, 0.1, 4, {}).order,
    "NgramArModel.codebook_size": lambda v: NgramArModel(2, 0.1, v, {}).codebook_size,
    "train_ngram_ar.order": lambda v: train_ngram_ar([STREAM], order=v).order,
    "OracleArModel.codebook_size": lambda v: OracleArModel([0], v).codebook_size,
    "OracleNarModel.codebook_size": lambda v: OracleNarModel(GRID, v).codebook_size,
    "OracleScoreModel.codebook_size": lambda v: OracleScoreModel(GRID, v).codebook_size,
    "kmeans_init.num_codes": lambda v: kmeans_init(np.eye(4), v),
}


NON_INTEGERS = {"fraction": 2.5, "whole-float": 4.0, "numpy-float": np.float64(2.0),
                "bool": True, "str": "3", "none": None}


@pytest.mark.parametrize("site, kind", [
    (site, kind) for site in COUNT_SITES for kind in NON_INTEGERS
    # None is their default
    if not (kind == "none" and site in ("TrainConfig.quant_dim", "rvq_decode.num_layers"))
])
def test_non_integer_count_is_rejected(site, kind):
    with pytest.raises(ValueError, match="must be an integer"):
        COUNT_SITES[site](NON_INTEGERS[kind])


@pytest.mark.parametrize("site", COUNT_SITES)
@pytest.mark.parametrize("value", [0, -3, np.int64(0)], ids=["zero", "negative", "numpy-zero"])
def test_count_below_one_is_rejected(site, value):
    with pytest.raises(ValueError, match="must be >= 1"):
        COUNT_SITES[site](value)


# Sites that return something other than the count: a decoded vector, a
# codebook's centres, or a quantizer whose codebook fixes latent_dim at 2.
NOT_RETURNED = ("rvq_decode.num_layers", "kmeans_init.num_codes", "RvqQuantizer.latent_dim")


@pytest.mark.parametrize("site", [site for site in COUNT_SITES if site not in NOT_RETURNED])
@pytest.mark.parametrize("value", [2, np.int64(3), np.uint8(2)])
def test_count_is_kept_as_an_int(site, value):
    kept = COUNT_SITES[site](value)
    assert type(kept) is int and kept == value


def test_numpy_layer_count_decodes_like_an_int():
    frame = np.array([1, 0, 1])
    np.testing.assert_array_equal(
        rvq_decode(frame, THREE_LAYERS, np.int64(2)), rvq_decode(frame, THREE_LAYERS, 2)
    )


@pytest.mark.parametrize("value, message", [
    (1.0, "iterations must be an integer"), (True, "iterations must be an integer"),
    (-1, "iterations must be >= 0"),
])
def test_kmeans_iterations_is_an_integer_at_least_zero(value, message):
    with pytest.raises(ValueError, match=message):
        kmeans_init(np.eye(4), 2, iterations=value)
    assert kmeans_init(np.eye(4), 4, iterations=0).shape == (4, 4)


CONFIG_SEED_SITES = {
    "TrainConfig.seed": lambda v: TrainConfig(seed=v).seed,
    "CorpusSpec.seed": lambda v: CorpusSpec(seed=v).seed,
    "GenConfig.rng_seed": lambda v: GenConfig(rng_seed=v).rng_seed,
    "DecodeSchedule.rng_seed": lambda v: DecodeSchedule(rng_seed=v).rng_seed,
}
SEED_SITES = {
    **CONFIG_SEED_SITES,
    # Functions that take a seed check it when they turn it into a generator.
    "kmeans_init.rng": lambda v: kmeans_init(np.eye(4), 2, rng=v),
    "restart_dead_codes.rng": lambda v: restart_dead_codes(
        np.eye(2), np.eye(2), np.zeros(2, dtype=bool), rng=v
    ),
    "OracleScoreModel.noise_seed": lambda v: OracleScoreModel(GRID, 2, noise_seed=v),
}


@pytest.mark.parametrize("site, kind", [
    (site, kind) for site in SEED_SITES for kind in NON_INTEGERS
    if not (kind == "none" and site == "OracleScoreModel.noise_seed")  # None: no noise
])
def test_non_integer_seed_is_rejected(site, kind):
    with pytest.raises(ValueError, match="must be an integer"):
        SEED_SITES[site](NON_INTEGERS[kind])


@pytest.mark.parametrize("site", SEED_SITES)
@pytest.mark.parametrize("value", [-1, np.int64(-3)], ids=["negative", "numpy-negative"])
def test_negative_seed_is_rejected(site, value):
    with pytest.raises(ValueError, match="must be >= 0"):
        SEED_SITES[site](value)


@pytest.mark.parametrize("site", CONFIG_SEED_SITES)
def test_seed_is_kept_as_an_int_or_a_generator(site):
    kept = SEED_SITES[site](np.int64(7))
    assert type(kept) is int and kept == 7
    assert SEED_SITES[site](0) == 0
    generator = np.random.default_rng(7)
    assert SEED_SITES[site](generator) is generator
