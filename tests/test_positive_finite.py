"""One rule for every rate, temperature, learning rate, separation and
smoothing value: a real number that is not a bool, in (0, inf), kept as a
float. And one for every count of a config, and `rvq_decode`'s layer count:
an integer that is not a bool, at least 1, kept as an int."""

from fractions import Fraction

import numpy as np
import pytest

from rvqkit import (
    Codebook,
    CorpusSpec,
    DecodeSchedule,
    GenConfig,
    NgramArModel,
    RvqQuantizer,
    TokenStream,
    TrainConfig,
    bitrate_bps,
    rvq_decode,
    sample_with_temperature,
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


@pytest.mark.parametrize("site", [site for site in COUNT_SITES if not site.startswith("rvq")])
@pytest.mark.parametrize("value", [2, np.int64(3), np.uint8(2)])
def test_count_is_kept_as_an_int(site, value):
    kept = COUNT_SITES[site](value)
    assert type(kept) is int and kept == value


def test_numpy_layer_count_decodes_like_an_int():
    frame = np.array([1, 0, 1])
    np.testing.assert_array_equal(
        rvq_decode(frame, THREE_LAYERS, np.int64(2)), rvq_decode(frame, THREE_LAYERS, 2)
    )
