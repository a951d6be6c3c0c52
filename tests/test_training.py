import dataclasses
import functools
import gc
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import fd_gradients, intermediate_refs, rel_errors
from sew import autodiff, training
from sew.autodiff import Node, backward, make_rng
from sew.data import Dataset, generate_synthetic, standardize_dataset
from sew.errors import ConditioningError, ConfigError, DataError, ExportError, NumericError
from sew.metrics import evaluate
from sew.networks import GruRegressorSpec, Mlp, MlpSpec, SewModel, assemble_sew, load_model
from sew.presets import desk_config, desk_spec
from sew.training import (
    ABLATIONS,
    HISTORY_COLUMNS,
    SewConfig,
    active_terms,
    config_from_dict,
    export_deployment,
    format_ablation_table,
    load_config,
    run_ablation_suite,
    sew_loss,
    train,
    with_variant,
    write_ablation_csv,
    write_history,
)


def tiny_config(ablation="full", **kw):
    """A small config; `ablation` names a variant applied by `with_variant`."""
    base = dict(
        latent_dim=2,
        d1=4,
        d2=3,
        w_encoder=MlpSpec((2,)),
        s_decoder1=MlpSpec((4,)),
        s_encoder=MlpSpec((2,)),
        s_decoder2=MlpSpec((4,)),
        regressor=GruRegressorSpec(num_layers=1, hidden=3),
        k=2,
        batch_size=8,
        epochs=2,
        seed=0,
    )
    base.update(kw)
    return with_variant(SewConfig(**base), ablation)


def tiny_batch(p=8, seed=0):
    rng = make_rng(seed, 90)
    return Dataset(
        rng.standard_normal((4, p)),
        rng.standard_normal((3, p)),
        rng.uniform(-1, 1, (1, p)),
    )


def tiny_dataset(n=24, seed=0):
    rng = make_rng(seed, 91)
    return Dataset(
        rng.standard_normal((4, n)),
        rng.standard_normal((3, n)),
        rng.uniform(-1, 1, (1, n)),
    )


class TestConfig:
    def test_weight_and_schedule_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(alpha=-1.0)
        with pytest.raises(ConfigError):
            tiny_config(k=3)  # latent_dim is 2
        with pytest.raises(ConfigError):
            tiny_config(batch_size=1)
        with pytest.raises(ConfigError):
            tiny_config(patience=0)
        with pytest.raises(ConfigError):
            tiny_config(cca_batch_size=1)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            tiny_config(seed=-1)

    def test_variant_needs_its_specs(self):
        with pytest.raises(ConfigError) as exc:
            tiny_config(s_decoder2=None)  # full needs the autoencoder decoder
        assert "s_decoder2" in str(exc.value)
        # but weights that never build it accept the same config
        cfg = tiny_config(s_decoder2=None, s_decoder1=None, s_encoder=None, alpha=0.0, beta=0.0, gamma=0.0)
        assert cfg.blocks == {"w_encoder", "regressor"}

    def test_width_cross_checks(self):
        # the one place block widths are checked: assemble_sew trusts them
        for block, spec in (("w_encoder", MlpSpec((3,))), ("s_decoder1", MlpSpec((5,))),
                            ("s_encoder", MlpSpec((3,))), ("s_decoder2", MlpSpec((5,)))):
            with pytest.raises(ConfigError) as exc:
                tiny_config(**{block: spec})
            assert block in str(exc.value)

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(alpha=0.5, cca_batch_size=16)
        path = tmp_path / "config.json"
        cfg.save(path)
        assert load_config(path) == cfg

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"latent_dim": 2, "learning_rate": 0.1})
        assert "learning_rate" in str(exc.value)

    def test_malformed_spec_named(self):
        raw = tiny_config().to_dict()
        raw["w_encoder"] = 7
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert "w_encoder" in str(exc.value)

    def test_json_types_that_fit(self):
        raw = tiny_config().to_dict()
        raw.update(alpha=1, cca_batch_size=None, s_decoder2=None, ablation="no_sd2",
                   regressor={"hidden": 3, "num_layers": 1})
        assert config_from_dict(raw) == tiny_config(alpha=1.0, beta=0.0, s_decoder2=None)

    def test_zero_weighted_term_needs_no_spec(self, tmp_path):
        raw = tiny_config().to_dict()
        raw.update(alpha=0, s_decoder1=None)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        assert cfg.s_decoder1 is None
        assert cfg.blocks == {"w_encoder", "s_encoder", "s_decoder2", "regressor"}

    def test_incomplete_config(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"d1": 4})
        assert "incomplete" in str(exc.value)

    def test_overrides_apply_and_none_is_ignored(self, tmp_path):
        path = tmp_path / "config.json"
        tiny_config().save(path)
        cfg = load_config(path, {"seed": 9, "ablation": None})
        assert cfg == dataclasses.replace(tiny_config(), seed=9)

    @pytest.mark.parametrize("name", ABLATIONS)
    def test_legacy_ablation_key_is_a_variant(self, tmp_path, name):
        """Configs written before variants became zero weights name one in
        an "ablation" key; it loads as that variant of the rest."""
        raw = tiny_config().to_dict()
        assert "ablation" not in raw
        raw["ablation"] = name
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert load_config(path) == with_variant(tiny_config(), name)
        # the variant's zeros do not hide a mistyped weight
        raw["alpha"] = "x"
        with pytest.raises(ConfigError, match="config key 'alpha' must be a finite number"):
            config_from_dict(raw)

    @pytest.mark.parametrize("build, message", [
        (lambda: desk_config(latent_dim=8.0), "config key 'latent_dim' must be an integer, got 8.0"),
        (lambda: desk_config(k=8.0), "config key 'k' must be an integer, got 8.0"),
        (lambda: desk_config(batch_size=32.0), "config key 'batch_size' must be an integer, got 32.0"),
        (lambda: desk_config(epochs=True), "config key 'epochs' must be an integer, got true"),
        (lambda: desk_config(seed=np.int64(3)), f"config key 'seed' must be an integer, got {np.int64(3)!r}"),
        (lambda: desk_config(lr="0.1"), "config key 'lr' must be a finite number, got \"0.1\""),
        (lambda: desk_config(w_encoder=(16, 8)), "config key 'w_encoder' must be a list of integers, got [16, 8]"),
        (lambda: MlpSpec((16.9, 8)), "layer_sizes must be a list of integers, got [16.9, 8]"),
        (lambda: GruRegressorSpec(hidden=16.5), "regressor key 'hidden' must be an integer, got 16.5"),
    ], ids=["latent-dim-float", "k-float", "batch-size-float", "epochs-bool", "seed-numpy-int", "lr-string",
            "w-encoder-tuple", "mlp-width-fraction", "gru-hidden-fraction"])
    def test_python_built_values_follow_the_file_rule(self, build, message):
        """A config built in Python is checked in the form it saves: no
        truncation, and no value that its own file would be refused for."""
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("key, value", [
        ("latent_dim", 8.0), ("epochs", True), ("lr", "0.1"), ("regressor", {"num_layers": 2, "hidden": 16.5}),
        ("w_encoder", [16.9, 8]), ("cca_batch_size", 2.5), ("sample_variance_ccc", 0),
    ])
    def test_python_message_is_the_files(self, tmp_path, key, value):
        with pytest.raises(ConfigError) as built:
            desk_config(**{key: value})
        raw = desk_config().to_dict()
        raw[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as loaded:
            load_config(path)
        assert str(loaded.value) == f"{path}: {built.value}"

    def test_numpy_float_rates_round_trip(self, tmp_path):
        cfg = desk_config(lr=np.float64(0.01), momentum=np.float64(0.5))
        path = tmp_path / "config.json"
        cfg.save(path)
        assert load_config(path) == cfg

    def test_block_in_its_saved_form(self):
        """A block spec may be given as its config-file form: it builds the spec."""
        cfg = desk_config(w_encoder=[16, 8], regressor={"num_layers": 2, "hidden": 16})
        assert cfg == desk_config()
        assert cfg.w_encoder == MlpSpec((16, 8)) and cfg.regressor == GruRegressorSpec(num_layers=2, hidden=16)

    def test_active_terms_drop_zero_weights(self):
        assert active_terms(tiny_config()) == {"l1", "l2", "l3", "l4"}
        assert active_terms(tiny_config(beta=0.0)) == {"l1", "l3", "l4"}
        assert active_terms(tiny_config(alpha=0.0, beta=0.0, gamma=0.0)) == {"l4"}
        assert active_terms(tiny_config(ablation="unimodal")) == {"l4"}
        assert active_terms(tiny_config(ablation="no_sd2")) == {"l1", "l3", "l4"}
        assert active_terms(tiny_config(ablation="no_sd1")) == {"l2", "l3", "l4"}

    def test_autoencoding_needs_alignment(self):
        """l2 reaches W_E only through l3: without l3, whether by variant
        or by a zero gamma, it is not trained."""
        assert active_terms(tiny_config(gamma=0.0)) == {"l1", "l4"}
        assert active_terms(tiny_config(ablation="no_cca")) == {"l1", "l4"}
        assert active_terms(tiny_config(ablation="no_cca_sd1")) == {"l4"}
        assert active_terms(tiny_config(ablation="no_sd1", gamma=0.0)) == {"l4"}


class TestSewLoss:
    def test_unimodal_total_is_prediction_loss(self):
        cfg = tiny_config(ablation="unimodal")
        model = assemble_sew(cfg, 4, 3, seed=0)
        total, comps = sew_loss(model, tiny_batch(), cfg)
        assert set(comps) == {"e4"}
        assert total.value[0, 0] == comps["e4"]

    def test_component_decomposition(self):
        cfg = tiny_config(alpha=0.5, beta=2.0, gamma=0.3, r1=1e-2, r2=1e-2)
        model = assemble_sew(cfg, 4, 3, seed=1)
        total, comps = sew_loss(model, tiny_batch(), cfg)
        recomposed = (
            0.5 * comps["e1"] + 2.0 * comps["e2"] + 0.3 * comps["e3"] + comps["e4"])
        assert total.value[0, 0] == pytest.approx(recomposed, abs=1e-12)

    def test_zero_weights_touch_only_deployment_blocks(self):
        cfg = tiny_config(alpha=0.0, beta=0.0, gamma=0.0)
        model = assemble_sew(cfg, 4, 3, seed=2)
        assert [name for name, _ in model.blocks()] == ["w_encoder", "regressor"]
        total, comps = sew_loss(model, tiny_batch(), cfg)
        backward(total)
        assert set(comps) == {"e4"}
        touched = [p.grad.any() for n, p in model.named_parameters() if n.startswith("w_encoder")]
        assert any(touched)

    def test_active_term_requires_block(self):
        cfg = tiny_config()
        model = assemble_sew(tiny_config(ablation="unimodal"), 4, 3, seed=0)
        with pytest.raises(ConfigError, match="^loss term l1 is active but the model has no s_decoder1$"):
            sew_loss(model, tiny_batch(), cfg)

    def test_gradients_vs_finite_differences(self):
        cfg = tiny_config(r1=1e-2, r2=1e-2)
        model = assemble_sew(cfg, 4, 3, seed=3)
        batch = tiny_batch(p=8, seed=3)
        params = [p for _, p in model.named_parameters()]

        def build():
            return sew_loss(model, batch, cfg)[0]

        for p in params:
            p.zero_grad()
        backward(build())
        bad = 0
        for p, g in zip(params, fd_gradients(build, params, h=1e-5)):
            bad += int((rel_errors(p.grad, g) >= 1e-4).sum())
        assert bad == 0

    def test_dedicated_pool_changes_alignment_estimate(self):
        cfg = tiny_config(r1=1e-2, r2=1e-2)
        model = assemble_sew(cfg, 4, 3, seed=4)
        batch = tiny_batch(p=8, seed=4)
        pool = tiny_batch(p=16, seed=5)
        _, on_batch = sew_loss(model, batch, cfg)
        _, on_pool = sew_loss(model, batch, cfg, cca_batch=pool)
        assert on_pool["e3"] != on_batch["e3"]
        assert on_pool["e4"] == on_batch["e4"]

    def test_singular_alignment_raises_unless_placed(self, caplog):
        # latent 4 from 4 frames and no ridge: the covariances are singular
        cfg = tiny_config(latent_dim=4, w_encoder=MlpSpec((4,)), s_encoder=MlpSpec((4,)), k=2, r1=0.0, r2=0.0)
        model = assemble_sew(cfg, 4, 3, seed=0)
        with pytest.raises(ConditioningError):
            sew_loss(model, tiny_batch(p=4), cfg)
        with caplog.at_level(logging.WARNING, logger="sew.training"):
            total, comps = sew_loss(model, tiny_batch(p=4), cfg, at=(2, 5))
        assert [rec.message.split(":")[0] for rec in caplog.records] == ["epoch 2 batch 5"]
        assert sorted(comps) == ["e1", "e2", "e4"]
        assert total.value[0, 0] == (comps["e4"] + comps["e1"]) + comps["e2"]

    @pytest.mark.parametrize("ablation, ops", [("full", 16), ("unimodal", 6)])
    def test_one_graph_node_per_layer(self, ablation, ops):
        """A desk loss graph holds one op node per layer and per loss term,
        and one sum over the terms: `full` has 11 layers (W_E 2, R 3, S_E 2,
        S_D1 2, S_D2 2), four terms and the sum; `unimodal` has W_E, R and
        the prediction term alone."""
        cfg = with_variant(desk_config(), ablation)
        model = assemble_sew(cfg, cfg.d1, cfg.d2, seed=0)
        rng = make_rng(0, 92)
        batch = Dataset(rng.standard_normal((32, 32)), rng.standard_normal((16, 32)), rng.uniform(-1, 1, (1, 32)))
        total, _ = sew_loss(model, batch, cfg)
        assert sum(r().parents != () for r in intermediate_refs(total)) == ops

    def test_graph_freed_without_cyclic_collector(self):
        cfg = tiny_config(r1=1e-2, r2=1e-2)
        model = assemble_sew(cfg, 4, 3, seed=6)
        gc.disable()
        try:
            total, comps = sew_loss(model, tiny_batch(seed=6), cfg, cca_batch=tiny_batch(p=16, seed=7))
            backward(total)
            refs = intermediate_refs(total, keep=[p for _, p in model.named_parameters()])
            assert len(refs) > 12  # all four terms and the pooled CCA views
            del total, comps
            assert [r for r in refs if r() is not None] == []
        finally:
            gc.enable()


    def test_data_stay_out_of_the_graph(self):
        """Batches enter as constants: every node the loss reaches carries a
        grad, and no node holds a batch's features."""
        cfg = tiny_config(r1=1e-2, r2=1e-2)
        model = assemble_sew(cfg, 4, 3, seed=6)
        batch, pool = tiny_batch(seed=6), tiny_batch(p=16, seed=7)
        total, _ = sew_loss(model, batch, cfg, cca_batch=pool)
        nodes = [r() for r in intermediate_refs(total)]
        assert all(isinstance(n.grad, np.ndarray) for n in nodes)
        data = (batch.m_s, batch.m_w, pool.m_s, pool.m_w)
        assert not any(n.value is d or np.array_equal(n.value, d) for n in nodes for d in data)

@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), ablation=st.sampled_from(ABLATIONS),
       zeroed=st.sets(st.sampled_from(("alpha", "beta", "gamma"))))
def test_every_built_block_trains(seed, ablation, zeroed):
    """The blocks a config builds are exactly `config.blocks`, and one
    step's gradient reaches each of them: nothing is built that the run
    would not train."""
    cfg = tiny_config(ablation=ablation, r1=1e-2, r2=1e-2, **{w: 0.0 for w in zeroed})
    model = assemble_sew(cfg, 4, 3, seed=seed)
    assert {name for name, _ in model.blocks()} == cfg.blocks
    total, _ = sew_loss(model, tiny_batch(seed=seed % 7), cfg)
    backward(total)
    for name, block in model.blocks():
        assert any(p.grad.any() for _, p in block.named_parameters(name)), name


_ZERO_PATTERNS = [frozenset(w for i, w in enumerate(("alpha", "beta", "gamma")) if mask >> i & 1)
                  for mask in range(8)]


@functools.cache
def _one_epoch_run(ablation, zeroed):
    cfg = tiny_config(ablation=ablation, epochs=1, r1=1e-2, r2=1e-2, **{w: 0.0 for w in zeroed})
    model, history = train(cfg, tiny_dataset(), tiny_dataset(seed=1))
    deployed = [p.value.tobytes() for name, p in model.named_parameters()
                if name.startswith(("w_encoder.", "regressor."))]
    return cfg, model, history, deployed


@pytest.mark.parametrize("zeroed", _ZERO_PATTERNS, ids=lambda z: "+".join(sorted(z)) or "none")
@pytest.mark.parametrize("ablation", ABLATIONS)
def test_equal_terms_train_identically(ablation, zeroed):
    """What `run_ablation_suite` relies on to train each term set once: l2
    is active only with l3, the model holds exactly `config.blocks`, and
    configs with equal active terms give the same history and W_E + R bytes
    (compared with `full` zero-weighted down to the same terms)."""
    cfg, model, history, deployed = _one_epoch_run(ablation, zeroed)
    terms = active_terms(cfg)
    assert "l2" not in terms or "l3" in terms
    assert {name for name, _ in model.blocks()} == cfg.blocks
    weights = {"l1": "alpha", "l2": "beta", "l3": "gamma"}
    canonical = frozenset(w for t, w in weights.items() if t not in terms)
    ref_cfg, _, ref_history, ref_deployed = _one_epoch_run("full", canonical)
    assert active_terms(ref_cfg) == terms
    assert history == ref_history
    assert deployed == ref_deployed


class TestTrain:
    def test_one_frame_split_is_refused_before_training(self, monkeypatch):
        def no_standardizing(*args):
            raise AssertionError("standardized a split that is too small")
        monkeypatch.setattr(training, "standardize_dataset", no_standardizing)
        cfg, data, one = tiny_config(), tiny_dataset(), tiny_dataset(n=1)
        for split, sets in (("train", (one, data)), ("dev", (data, one))):
            with pytest.raises(DataError, match=f"^the {split} split has 1 frame\\(s\\); training needs at least 2$"):
                train(cfg, *sets)

    def test_dims_must_match_config(self):
        cfg = tiny_config()
        data = tiny_dataset()
        bad = Dataset(data.m_s[:3], data.m_w, data.labels)
        for split, sets in (("train", (bad, bad)), ("dev", (data, bad))):
            with pytest.raises(ConfigError, match=f"config declares d1=4 but the {split} split has d1=3"):
                train(cfg, *sets)

    def test_zero_epochs_returns_init(self):
        cfg = tiny_config(epochs=0)
        model, history = train(cfg, tiny_dataset(), tiny_dataset(seed=1))
        assert history == []
        fresh = assemble_sew(cfg, 4, 3, seed=cfg.seed)
        for (name, p), (_, q) in zip(model.named_parameters(), fresh.named_parameters()):
            np.testing.assert_array_equal(p.value, q.value, err_msg=name)
        assert model.scaler_weak is not None

    def test_deterministic_repeat(self):
        cfg = tiny_config(epochs=3)
        train_set, dev_set = tiny_dataset(), tiny_dataset(seed=1)
        model_a, hist_a = train(cfg, train_set, dev_set)
        model_b, hist_b = train(cfg, train_set, dev_set)
        assert hist_a == hist_b
        for (name, p), (_, q) in zip(model_a.named_parameters(), model_b.named_parameters()):
            np.testing.assert_array_equal(p.value, q.value, err_msg=name)

    def test_memory_layout_does_not_change_the_bits(self):
        """A CSV load yields transposed, Fortran-ordered arrays; they train
        to the same bits as the same frames in C order."""
        def fortran(ds):
            return Dataset(np.asfortranarray(ds.m_s), np.asfortranarray(ds.m_w), np.asfortranarray(ds.labels))

        cfg = tiny_config(epochs=3)
        train_set, dev_set = tiny_dataset(n=200), tiny_dataset(n=50, seed=1)
        model_a, hist_a = train(cfg, train_set, dev_set)
        model_b, hist_b = train(cfg, fortran(train_set), fortran(dev_set))
        assert hist_a == hist_b
        for (name, p), (_, q) in zip(model_a.named_parameters(), model_b.named_parameters()):
            np.testing.assert_array_equal(p.value, q.value, err_msg=name)

    def test_history_shape(self):
        cfg = tiny_config(epochs=3)
        _, history = train(cfg, tiny_dataset(), tiny_dataset(seed=1))
        assert [r.epoch for r in history] == [0, 1, 2]
        for r in history:
            assert r.e1 is not None and r.e2 is not None and r.e3 is not None
            assert np.isfinite(r.e4) and np.isfinite(r.dev_ccc)

    def test_unimodal_history_has_no_aux_components(self):
        cfg = tiny_config(ablation="unimodal", epochs=2)
        _, history = train(cfg, tiny_dataset(), tiny_dataset(seed=1))
        assert all(r.e1 is None and r.e2 is None and r.e3 is None for r in history)

    def test_zero_weighted_full_matches_unimodal(self):
        """Dropping terms by weight reproduces the structural ablation's
        trajectory exactly (shared init and batch streams)."""
        train_set, dev_set = tiny_dataset(), tiny_dataset(seed=1)
        frozen, hist_frozen = train(
            tiny_config(alpha=0.0, beta=0.0, gamma=0.0, epochs=3), train_set, dev_set)
        uni, hist_uni = train(tiny_config(ablation="unimodal", epochs=3), train_set, dev_set)
        assert [name for name, _ in frozen.blocks()] == [name for name, _ in uni.blocks()]
        assert [r.dev_ccc for r in hist_frozen] == [r.dev_ccc for r in hist_uni]
        assert [r.e4 for r in hist_frozen] == [r.e4 for r in hist_uni]
        uni_params = dict(uni.named_parameters())
        for name, p in frozen.named_parameters():
            if name in uni_params:
                np.testing.assert_array_equal(p.value, uni_params[name].value, err_msg=name)

    def test_autoencoder_terms_never_steer_deployment_blocks(self):
        # l2 flows through the strong side only, so no_cca_sd1 and unimodal
        # agree on the deployment path step for step
        train_set, dev_set = tiny_dataset(), tiny_dataset(seed=1)
        _, hist_a = train(tiny_config(ablation="no_cca_sd1", epochs=3), train_set, dev_set)
        _, hist_b = train(tiny_config(ablation="unimodal", epochs=3), train_set, dev_set)
        assert [r.dev_ccc for r in hist_a] == [r.dev_ccc for r in hist_b]

    def test_dev_eval_ignores_strong_modality(self):
        cfg = tiny_config(epochs=2)
        train_set = tiny_dataset()
        dev = tiny_dataset(seed=1)
        corrupted = Dataset(dev.m_s + 100.0, dev.m_w, dev.labels)
        _, hist_clean = train(cfg, train_set, dev)
        _, hist_corrupt = train(cfg, train_set, corrupted)
        assert [r.dev_ccc for r in hist_clean] == [r.dev_ccc for r in hist_corrupt]

    def test_singular_alignment_is_skipped_not_fatal(self, caplog):
        # latent 4 estimated from 4-sample batches: the covariance cannot
        # have full rank, so every alignment term fails at r = 0
        cfg = tiny_config(
            latent_dim=4,
            w_encoder=MlpSpec((4,)),
            s_encoder=MlpSpec((4,)),
            k=2,
            r1=0.0,
            r2=0.0,
            batch_size=4,
            epochs=1,
        )
        with caplog.at_level(logging.WARNING, logger="sew.training"):
            model, history = train(cfg, tiny_dataset(n=12), tiny_dataset(n=12, seed=1))
        assert any("skipped" in rec.message for rec in caplog.records)
        assert history[0].e3 is None
        # the other terms still trained, the autoencoder included
        assert history[0].e1 is not None and history[0].e2 is not None
        assert model.s_encoder is not None and model.s_decoder2 is not None

    def test_singular_trailing_batch_skips_alignment_there_only(self, caplog, monkeypatch):
        # 14 frames in batches of 4 end in a batch of 2, whose latent-2
        # covariance has rank 1; the batches of 4 align
        returned = []  # the components of each loss that trained a step
        original = training.sew_loss

        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            returned.append(sorted(out[1]))
            return out
        monkeypatch.setattr(training, "sew_loss", recording)
        cfg = tiny_config(r1=0.0, r2=0.0, batch_size=4, epochs=2)
        with caplog.at_level(logging.WARNING, logger="sew.training"):
            _, history = train(cfg, tiny_dataset(n=14), tiny_dataset(n=12, seed=1))
        skipped = [rec.message for rec in caplog.records if "alignment term skipped" in rec.message]
        assert [m.split(":")[0] for m in skipped] == ["epoch 0 batch 3", "epoch 1 batch 3"]
        assert all(r.e2 is not None and r.e3 is not None for r in history)
        # the trailing batch still trains the autoencoder
        epoch = [["e1", "e2", "e3", "e4"]] * 3 + [["e1", "e2", "e4"]]
        assert returned == epoch * 2

    def test_singular_alignment_runs_each_forward_once(self, caplog, monkeypatch):
        # latent 8 from batches of 8 and no ridge: every alignment term is
        # singular, and is dropped where it is built
        calls = []
        original = Mlp.forward

        def counting(block, x, **kwargs):
            calls.append(block)
            return original(block, x, **kwargs)
        monkeypatch.setattr(Mlp, "forward", counting)
        train_set, dev_set = generate_synthetic(desk_spec(n_samples=300, n_dev=100))[:2]
        cfg = desk_config(seed=0, r1=0.0, r2=0.0, batch_size=8, epochs=3)
        with caplog.at_level(logging.WARNING, logger="sew.training"):
            _, history = train(cfg, train_set, dev_set)
        assert sum("alignment term skipped" in rec.message for rec in caplog.records) == 3 * 38
        # W_E, S_E, S_D1 and S_D2 once a step, and W_E once a dev pass
        assert len(calls) == 3 * 38 * 4 + 3
        assert [r.e2 for r in history] == [1.0148028572685164, 1.0095070882586585, 1.0099624212518843]
        assert [r.dev_ccc for r in history] == [0.0003389333288382506, 0.0005949390058023706,
                                               0.000841304049123053]
        assert all(r.e3 is None for r in history)

    def test_divergence_reports_epoch_and_batch(self):
        cfg = tiny_config(lr=1e12, weight_decay=0.0, epochs=2)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError) as exc:
                train(cfg, tiny_dataset(), tiny_dataset(seed=1))
        assert "epoch" in str(exc.value)

    def test_overflowing_alignment_view_names_epoch_and_batch(self, monkeypatch):
        # S_E's bias puts 1e308 in every sample of latent row 0: each value
        # is finite, their sum is not, and the centred view is -Inf. No SVD
        # may see it, since one of such a view may never return.
        original = training.assemble_sew

        def assemble_with_huge_bias(*args):
            model = original(*args)
            model.s_encoder.layers[-1].bias.value[0, 0] = 1e308
            return model
        monkeypatch.setattr(training, "assemble_sew", assemble_with_huge_bias)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("svd called"))
        cfg = tiny_config(alpha=0.0, beta=0.0, epochs=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"^epoch 0 batch 0: centred m_ss contains NaN or Inf"):
                train(cfg, tiny_dataset(), tiny_dataset(seed=1))

    def test_inf_weight_behind_saturating_tanh_names_epoch_and_batch(self, monkeypatch):
        # tanh maps the infinite pre-activation to exactly +-1, so the loss
        # and every grad stay finite; the update then leaves the weight
        # non-finite, and the step says which one
        original = training.assemble_sew

        def assemble_with_inf(*args):
            model = original(*args)
            model.w_encoder.layers[0].weight.value[0, 0] = np.inf
            return model
        monkeypatch.setattr(training, "assemble_sew", assemble_with_inf)
        cfg = tiny_config(w_encoder=MlpSpec((5, 2)), epochs=1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match=r"^epoch 0 batch 0: sgd step: parameter 0 \(shape \(5, 3\)\)") as exc:
                train(cfg, tiny_dataset(), tiny_dataset(seed=1))
        assert "components {" in str(exc.value)

    def test_dev_eval_builds_no_graph_and_keeps_the_optimizer_views(self, monkeypatch):
        views, seen = [], []

        class RecordingSgd(training.Sgd):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                views.append([p.grad for p in self.params])
        original = SewModel.deployment_forward

        def recording(model, m_w):
            out = original(model, m_w)
            seen.append((out.parents, out.grad, [p.grad for _, p in model.named_parameters()]))
            return out
        monkeypatch.setattr(training, "Sgd", RecordingSgd)
        monkeypatch.setattr(SewModel, "deployment_forward", recording)
        _, history = train(tiny_config(epochs=3), tiny_dataset(), tiny_dataset(seed=1))
        assert len(seen) == len(history) == 3 and len(views) == 1
        for parents, grad, param_grads in seen:
            assert parents == () and grad is None
            assert len(param_grads) == len(views[0])
            assert all(g is view for g, view in zip(param_grads, views[0]))

    def test_dev_pass_and_predict_build_no_op_nodes(self, monkeypatch):
        ops = []  # one entry per op result node, in training and serving alike
        result = autodiff._result

        def counted_result(*args):
            ops.append(1)
            return result(*args)
        monkeypatch.setattr(autodiff, "_result", counted_result)
        served = []  # op nodes built inside each dev pass
        original = SewModel.deployment_forward

        def counting(model, m_w):
            before = len(ops)
            out = original(model, m_w)
            served.append(len(ops) - before)
            return out
        monkeypatch.setattr(SewModel, "deployment_forward", counting)
        model, history = train(tiny_config(epochs=2), tiny_dataset(), tiny_dataset(seed=1))
        assert ops and served == [0] * len(history)
        before = len(ops)
        model.predict(tiny_dataset(n=5, seed=2).m_w)
        assert len(ops) == before

    def test_dev_eval_matches_a_grad_carrying_forward(self):
        cfg = tiny_config(epochs=2)
        train_set, dev_set = tiny_dataset(), tiny_dataset(seed=1)
        model, history = train(cfg, train_set, dev_set)
        dev_std = standardize_dataset(train_set, dev_set)[1]
        assert all(p.grad is not None for _, p in model.named_parameters())
        preds = model.regressor.forward(model.w_encoder.forward(Node(dev_std.m_w))).value
        best = max(history, key=lambda r: r.dev_ccc)
        assert best.dev_ccc == evaluate(dev_std.labels, preds).ccc

    def test_non_finite_dev_prediction_names_the_epoch(self, monkeypatch):
        original = SewModel.deployment_forward
        calls = []

        def nan_on_second_pass(model, m_w):
            out = original(model, m_w)
            calls.append(1)
            if len(calls) == 2:
                out.value[0, -1] = np.nan
            return out
        monkeypatch.setattr(SewModel, "deployment_forward", nan_on_second_pass)
        with pytest.raises(NumericError, match="^epoch 1: dev predictions hold NaN or Inf"):
            train(tiny_config(epochs=3), tiny_dataset(), tiny_dataset(seed=1))

    def test_early_stopping_cuts_history(self):
        full_cfg = tiny_config(epochs=40, patience=2, lr=1e-5)
        _, history = train(full_cfg, tiny_dataset(), tiny_dataset(seed=1))
        assert len(history) < 40

    def test_best_epoch_model_restored(self):
        cfg = tiny_config(epochs=5)
        train_set, dev_set = tiny_dataset(), tiny_dataset(seed=1)
        model, history = train(cfg, train_set, dev_set)
        best = max(history, key=lambda r: r.dev_ccc)
        res = evaluate(dev_set.labels, model.predict(dev_set.m_w))
        assert res.ccc == pytest.approx(best.dev_ccc, abs=1e-12)

    def test_leaves_no_cyclic_garbage(self):
        cfg = tiny_config(epochs=2, cca_batch_size=16, r1=1e-2, r2=1e-2)
        gc.collect()
        gc.disable()
        try:
            train(cfg, tiny_dataset(), tiny_dataset(seed=1))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cca_pool_trains(self):
        cfg = tiny_config(epochs=2, cca_batch_size=16, r1=1e-2, r2=1e-2)
        _, history = train(cfg, tiny_dataset(), tiny_dataset(seed=1))
        assert all(r.e3 is not None for r in history)


class TestHistoryFiles:
    def test_write_history_round_trips(self, tmp_path):
        cfg = tiny_config(epochs=2)
        _, history = train(cfg, tiny_dataset(), tiny_dataset(seed=1))
        path = tmp_path / "metrics.csv"
        write_history(path, history, manifest_hash="abc123")
        lines = path.read_text().splitlines()
        assert lines[0] == "# manifest: abc123"
        assert lines[1] == ",".join(HISTORY_COLUMNS)
        assert len(lines) == 2 + len(history)
        first = lines[2].split(",")
        assert int(first[0]) == 0
        assert float(first[5]) == history[0].dev_ccc

    def test_blank_cells_for_missing_terms(self, tmp_path):
        cfg = tiny_config(ablation="unimodal", epochs=1)
        _, history = train(cfg, tiny_dataset(), tiny_dataset(seed=1))
        path = tmp_path / "metrics.csv"
        write_history(path, history)
        row = path.read_text().splitlines()[1].split(",")
        assert row[1] == "" and row[2] == "" and row[3] == ""


class TestAblationSuite:
    def test_all_variants_reported(self, tmp_path, monkeypatch):
        calls = []

        def counted_train(config, *sets):
            calls.append((config.alpha, config.beta, config.gamma))
            return train(config, *sets)
        monkeypatch.setattr(training, "train", counted_train)
        cfg = tiny_config(epochs=2)
        rows = run_ablation_suite(cfg, tiny_dataset(), tiny_dataset(seed=1))
        assert [r.ablation for r in rows] == list(ABLATIONS)
        assert [r.label for r in rows] == ["full", "-S_D2", "-CCA", "-S_D1", "-(CCA&S_D1)", "unimodal"]
        assert [r.terms for r in rows] == [
            "l1+l2+l3+l4", "l1+l3+l4", "l1+l4", "l2+l3+l4", "l4", "l4"]
        # each variant zeroes its weights; -(CCA&S_D1) trains what unimodal
        # trains: one run for both
        assert calls == [(1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (0.0, 1.0, 0.0)]
        by_name = {r.ablation: r for r in rows}
        assert by_name["unimodal"].history is by_name["no_cca_sd1"].history
        table = format_ablation_table(rows)
        assert "-(CCA&S_D1)" in table and "unimodal" in table
        assert table.splitlines()[0].endswith("terms")
        assert table.splitlines()[-1].endswith("  l4")
        csv_path = tmp_path / "ablation.csv"
        write_ablation_csv(csv_path, rows, manifest_hash="ffff")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# manifest: ffff"
        assert lines[1] == "ablation,label,dev_ccc,dev_acc,terms"
        assert len(lines) == 2 + len(ABLATIONS)
        assert lines[2].endswith(",l1+l2+l3+l4")


class TestExport:
    def test_deployment_round_trip(self, tmp_path):
        cfg = tiny_config(epochs=2)
        model, _ = train(cfg, tiny_dataset(), tiny_dataset(seed=1))
        path = tmp_path / "deploy.npz"
        export_deployment(model, path)
        loaded = load_model(path)
        x = make_rng(6, 90).standard_normal((3, 50))
        np.testing.assert_allclose(loaded.predict(x), model.predict(x), atol=1e-12)

    def test_export_requires_deployment_blocks(self, tmp_path):
        cfg = tiny_config(epochs=0)
        model, _ = train(cfg, tiny_dataset(), tiny_dataset(seed=1))
        model.w_encoder = None
        with pytest.raises(ExportError):
            export_deployment(model, tmp_path / "deploy.npz")
