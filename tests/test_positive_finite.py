"""One rule for every rate, temperature, learning rate, separation and
smoothing value: a real number that is not a bool, in (0, inf), kept as a
float."""

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
