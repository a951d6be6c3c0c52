import json
import zipfile

import numpy as np
import pytest

from sew.autodiff import array_ops
from sew.errors import ConfigError
from sew.networks import BLOCKS, DEPLOYED, assemble_sew, load_model, save_model
from sew.presets import MODALITIES, desk_config, desk_spec, latent_dim_for, pair_config
from sew.training import with_variant


def test_modality_dimensions():
    assert MODALITIES["audio"].dim == 88
    assert MODALITIES["video_geo"].dim == 632
    assert MODALITIES["video_app"].dim == 168


def test_latent_rule():
    assert latent_dim_for("video_geo", "audio") == 128
    assert latent_dim_for("audio", "video_app") == 168
    assert latent_dim_for("video_app", "audio") == 168


def test_geometric_video_supervising_audio():
    cfg = pair_config("video_geo", "audio")
    assert (cfg.d1, cfg.d2, cfg.latent_dim) == (632, 88, 128)
    assert cfg.w_encoder.layer_sizes == (108, 128)
    assert cfg.s_encoder.layer_sizes == (512, 256, 128)
    assert cfg.s_decoder1.layer_sizes == (256, 512, 632)
    assert cfg.s_decoder1 == cfg.s_decoder2
    assert (cfg.k, cfg.lr, cfg.momentum, cfg.batch_size) == (10, 0.001, 0.7, 32)
    assert (cfg.alpha, cfg.beta, cfg.gamma) == (1.0, 1.0, 1.0)
    assert cfg.regressor.num_layers == 4
    assert cfg.regressor.hidden == 120


def test_appearance_pairs_retarget_encoders():
    # any pairing with the appearance stream moves the latent to 168, so
    # the other side's encoder must end there too
    cfg = pair_config("video_app", "audio")
    assert cfg.latent_dim == 168
    assert cfg.w_encoder.layer_sizes == (108, 168)
    assert cfg.s_encoder.layer_sizes == (168,)
    cfg = pair_config("audio", "video_app")
    assert cfg.w_encoder.layer_sizes == (168,)
    assert cfg.s_encoder.layer_sizes == (108, 168)
    assert cfg.s_decoder1.layer_sizes == (108, 88)


def test_pair_validation():
    with pytest.raises(ConfigError):
        pair_config("audio", "audio")
    with pytest.raises(ConfigError) as exc:
        pair_config("audio", "video")
    assert "video" in str(exc.value)


def test_pair_overrides():
    cfg = pair_config("video_geo", "audio", epochs=3, gamma=0.0)
    assert cfg.epochs == 3
    assert cfg.gamma == 0.0
    assert cfg.blocks == {"w_encoder", "s_decoder1", "regressor"}


def test_desk_spec_matches_desk_config_dims():
    spec = desk_spec()
    cfg = desk_config()
    assert (spec.d1, spec.d2) == (cfg.d1, cfg.d2)
    assert spec.noise_weak >= spec.noise_strong
    assert desk_spec(seed=9).seed == 9


def test_desk_config_all_ablations_valid():
    for ablation in ("full", "no_sd2", "no_cca", "no_sd1", "no_cca_sd1", "unimodal"):
        cfg = with_variant(desk_config(), ablation)
        assert cfg.k <= cfg.latent_dim
        assert {"w_encoder", "regressor"} <= cfg.blocks


PUBLISHED = {f"{p}->{q}": (p, q) for p in MODALITIES for q in MODALITIES if p != q}


@pytest.mark.parametrize("pairing", [*PUBLISHED, "desk"])
def test_assembled_blocks_follow_the_block_table(pairing):
    """Each built block is of the class `BLOCKS` gives it and reads and
    ends at the config widths it names (R at its one label row), and
    parameters come in `BLOCKS` order."""
    cfg = desk_config() if pairing == "desk" else pair_config(*PUBLISHED[pairing])
    model = assemble_sew(cfg, cfg.d1, cfg.d2, cfg.seed)
    for name, block in model.blocks():
        _, source, target, cls = BLOCKS[name]
        assert type(block) is cls
        out = block.forward(np.zeros((block.input_dim, 2)), ops=array_ops)
        assert (block.input_dim, out.shape[0]) == (getattr(cfg, source), getattr(cfg, target) if target else 1)
    owners = [pname.split(".")[0] for pname, _ in model.named_parameters()]
    assert list(dict.fromkeys(owners)) == [name for name, _ in model.blocks()] == list(BLOCKS)


def test_deployment_export_holds_exactly_the_deployed_blocks(tmp_path):
    cfg = desk_config()
    save_model(assemble_sew(cfg, cfg.d1, cfg.d2, cfg.seed), tmp_path / "deploy.npz", deployment=True)
    with zipfile.ZipFile(tmp_path / "deploy.npz") as zf:
        assert set(json.loads(zf.read("meta.json"))["blocks"]) == set(DEPLOYED)
        owners = [member.split(".")[0] for member in zf.namelist()]
    assert list(dict.fromkeys(owners)) == ["meta", *DEPLOYED]
    assert [name for name, _ in load_model(tmp_path / "deploy.npz").blocks()] == list(DEPLOYED)
