import io
import json
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import fd_gradients, rel_errors
from sew.autodiff import Node, Sgd, backward, constant, make_rng, sum_all, uniform_init
from sew.data import Standardizer
from sew.errors import ConfigError, DimensionError, ExportError, NumericError
from sew.networks import (
    GatedLayer,
    GruRegressor,
    GruRegressorSpec,
    Mlp,
    MlpSpec,
    SewModel,
    assemble_sew,
    load_model,
    save_model,
)
from sew.presets import pair_config
from sew.training import ABLATIONS, SewConfig, with_variant


FIXTURES = Path(__file__).parent / "fixtures"


def tiny_config(ablation="full", latent=2):
    """Smallest legal full model: d1=4, d2=3, latent 2; `ablation` names a
    variant applied by `with_variant`."""
    return with_variant(SewConfig(
        latent_dim=latent,
        d1=4,
        d2=3,
        k=latent,
        w_encoder=MlpSpec((latent,)),
        s_encoder=MlpSpec((latent,)),
        s_decoder1=MlpSpec((4,)),
        s_decoder2=MlpSpec((4,)),
        regressor=GruRegressorSpec(num_layers=1, hidden=3),
    ), ablation)


def zero_params(block):
    for _, p in block.named_parameters("b"):
        p.value[:] = 0.0


def np_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


class TestMlp:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            MlpSpec(())
        with pytest.raises(ConfigError):
            MlpSpec((8, 0))

    def test_single_layer_shape(self):
        mlp = Mlp(MlpSpec((168,)), 168, make_rng(0))
        out = mlp.forward(Node(np.zeros((168, 4))))
        assert out.value.shape == (168, 4)

    def test_two_layer_shape(self):
        mlp = Mlp(MlpSpec((108, 128)), 88, make_rng(0))
        out = mlp.forward(Node(make_rng(0, 80).standard_normal((88, 4))))
        assert out.value.shape == (128, 4)

    def test_zero_params_give_zero_output(self):
        mlp = Mlp(MlpSpec((5, 3)), 4, make_rng(0))
        zero_params(mlp)
        out = mlp.forward(Node(make_rng(1, 80).standard_normal((4, 6))))
        np.testing.assert_array_equal(out.value, np.zeros((3, 6)))

    def test_matches_numpy_reference(self):
        """tanh between layers, affine final layer."""
        mlp = Mlp(MlpSpec((5, 4, 3)), 6, make_rng(3))
        x = make_rng(2, 80).standard_normal((6, 7))
        h = x
        for layer in mlp.layers[:-1]:
            h = np.tanh(layer.weight.value @ h + layer.bias.value)
        expected = mlp.layers[-1].weight.value @ h + mlp.layers[-1].bias.value
        np.testing.assert_allclose(mlp.forward(Node(x)).value, expected, atol=1e-12)

    def test_final_layer_is_affine(self):
        # f(x) + f(-x) = 2b for a single layer; fails if tanh wraps the output
        mlp = Mlp(MlpSpec((3,)), 3, make_rng(1))
        x = 10.0 * make_rng(3, 80).standard_normal((3, 5))
        left = mlp.forward(Node(x)).value + mlp.forward(Node(-x)).value
        np.testing.assert_allclose(left, 2.0 * mlp.layers[0].bias.value @ np.ones((1, 5)), atol=1e-10)
        assert np.abs(mlp.forward(Node(x)).value).max() > 1.0  # unbounded output

    def test_input_dim_checked(self):
        mlp = Mlp(MlpSpec((3,)), 4, make_rng(0))
        with pytest.raises(DimensionError):
            mlp.forward(Node(np.zeros((5, 2))))

    def test_gradients_vs_finite_differences(self):
        mlp = Mlp(MlpSpec((4, 2)), 3, make_rng(5))
        x = make_rng(4, 80).standard_normal((3, 6))
        params = [p for _, p in mlp.named_parameters("m")]

        def build():
            return sum_all(mlp.forward(Node(x)))

        backward(build())
        for p, g in zip(params, fd_gradients(build, params, h=1e-6)):
            assert rel_errors(p.grad, g).max() < 1e-4


class TestGruCell:
    """GatedLayer: one GRU step from a zero hidden state."""

    def test_zero_everything_is_zero(self):
        cell = GatedLayer(2, 3, make_rng(0, 81))
        zero_params(cell)
        out = cell.forward(Node(np.zeros((2, 4))))
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))

    def test_hand_computed_single_unit(self):
        cell = GatedLayer(1, 1, make_rng(0, 81))
        zero_params(cell)
        cell.w_z.value[:] = 2.0
        cell.w_h.value[:] = 1.0
        out = cell.forward(Node([[1.0]]))
        # z = sigmoid(2), cand = tanh(1): h = z * cand
        expected = np_sigmoid(2.0) * np.tanh(1.0)
        assert out.value[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_matches_numpy_reference(self):
        rng = make_rng(5, 81)
        cell = GatedLayer(4, 3, rng)
        cell.b_z.value[:] = rng.standard_normal((3, 1))
        cell.b_h.value[:] = rng.standard_normal((3, 1))
        x = rng.standard_normal((4, 6))
        expected = (np_sigmoid(cell.w_z.value @ x + cell.b_z.value)
                    * np.tanh(cell.w_h.value @ x + cell.b_h.value))
        np.testing.assert_allclose(cell.forward(Node(x)).value, expected, atol=1e-12)

    def test_live_weights_keep_the_gru_draw_order(self):
        """W_z and W_h are the 1st and 5th draws of a full GRU cell's
        (W_z, U_z, W_r, U_r, W_h, U_h), and the stream ends where it did."""
        rng = make_rng(6, 81)
        cell = GatedLayer(4, 3, rng)
        ref = make_rng(6, 81)
        draws = [uniform_init(3, d, d, ref) for d in (4, 3, 4, 3, 4, 3)]
        np.testing.assert_array_equal(cell.w_z.value, draws[0])
        np.testing.assert_array_equal(cell.w_h.value, draws[4])
        np.testing.assert_array_equal(rng.uniform(size=5), ref.uniform(size=5))
        assert [n for n, _ in cell.named_parameters("c")] == ["c.w_z", "c.b_z", "c.w_h", "c.b_h"]

    def test_shape_checks(self):
        cell = GatedLayer(2, 3, make_rng(0, 81))
        with pytest.raises(DimensionError):
            cell.forward(Node(np.zeros((3, 4))))


class TestGruRegressor:
    def test_output_shape(self):
        reg = GruRegressor(GruRegressorSpec(num_layers=4, hidden=120), input_dim=8, rng=make_rng(0, 82))
        out = reg.forward(Node(make_rng(1, 82).standard_normal((8, 32))))
        assert out.value.shape == (1, 32)

    def test_zero_params_give_zero_output(self):
        reg = GruRegressor(GruRegressorSpec(num_layers=2, hidden=3), input_dim=2, rng=make_rng(0, 82))
        zero_params(reg)
        out = reg.forward(Node(make_rng(2, 82).standard_normal((2, 5))))
        np.testing.assert_array_equal(out.value, np.zeros((1, 5)))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            GruRegressorSpec(num_layers=0)
        with pytest.raises(ConfigError):
            GruRegressorSpec(hidden=0)
        for output in (0, 2):
            with pytest.raises(ConfigError, match=f"regressor.output must be 1 .*, got {output}"):
                GruRegressorSpec(output=output)

    def test_gradients_vs_finite_differences(self):
        reg = GruRegressor(GruRegressorSpec(num_layers=2, hidden=3), input_dim=2, rng=make_rng(3, 82))
        x = make_rng(4, 82).standard_normal((2, 4))
        params = [p for _, p in reg.named_parameters("r")]

        def build():
            return sum_all(reg.forward(Node(x)))

        backward(build())
        for p, g in zip(params, fd_gradients(build, params, h=1e-6)):
            assert rel_errors(p.grad, g).max() < 1e-4


class TestAssembly:
    def test_block_sets_per_ablation(self):
        def blocks(ablation):
            return tiny_config(ablation).blocks

        always = {"w_encoder", "regressor"}
        assert blocks("full") == always | {"s_decoder1", "s_encoder", "s_decoder2"}
        assert blocks("no_sd2") == always | {"s_decoder1", "s_encoder"}
        # without the alignment term, the autoencoder blocks cannot reach W_E
        assert blocks("no_cca") == always | {"s_decoder1"}
        assert blocks("no_sd1") == always | {"s_encoder", "s_decoder2"}
        assert blocks("no_cca_sd1") == always
        assert blocks("unimodal") == always
        with pytest.raises(ConfigError, match='^ablation must be one of full, .*, got "fully"$'):
            tiny_config("fully")

    def test_full_model_block_instances(self):
        model = assemble_sew(tiny_config(), d1=4, d2=3, seed=0)
        names = [n for n, _ in model.blocks()]
        assert names == ["w_encoder", "s_decoder1", "s_encoder", "s_decoder2", "regressor"]

    def test_unimodal_drops_aux_blocks(self):
        model = assemble_sew(tiny_config("unimodal"), d1=4, d2=3, seed=0)
        assert model.s_decoder1 is None
        assert model.s_encoder is None
        assert model.s_decoder2 is None

    def test_same_seed_same_params(self):
        a = assemble_sew(tiny_config(), d1=4, d2=3, seed=7)
        b = assemble_sew(tiny_config(), d1=4, d2=3, seed=7)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.value, pb.value)
        c = assemble_sew(tiny_config(), d1=4, d2=3, seed=8)
        assert any(
            not np.array_equal(pa.value, pc.value)
            for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters())
        )

    def test_shared_blocks_identical_across_ablations(self):
        """Per-block init streams: dropping a block never shifts the others."""
        full = assemble_sew(tiny_config("full"), d1=4, d2=3, seed=3)
        for ablation in ABLATIONS[1:]:
            variant = assemble_sew(tiny_config(ablation), d1=4, d2=3, seed=3)
            kept = dict(variant.blocks())
            for name, block in full.blocks():
                if name not in kept:
                    continue
                for (pn, pv), (_, qv) in zip(
                        block.named_parameters(name), kept[name].named_parameters(name)):
                    np.testing.assert_array_equal(pv.value, qv.value, err_msg=f"{ablation} {pn}")

    def test_deployment_path_ignores_aux_blocks(self):
        x = make_rng(9, 83).standard_normal((3, 10))
        outputs = []
        for ablation in ABLATIONS:
            model = assemble_sew(tiny_config(ablation), d1=4, d2=3, seed=3)
            outputs.append(model.deployment_forward(Node(x)).value)
        for out in outputs[1:]:
            np.testing.assert_array_equal(out, outputs[0])


class TestPredict:
    def test_rejects_wrong_width(self):
        model = assemble_sew(tiny_config("unimodal"), d1=4, d2=3, seed=0)
        with pytest.raises(DimensionError):
            model.predict(np.zeros((4, 5)))
        with pytest.raises(DimensionError, match="expected 3-d weaker features, got 4 rows"):
            model.deployment_forward(Node(np.zeros((4, 5))))

    def test_applies_weak_scaler(self):
        model = assemble_sew(tiny_config("unimodal"), d1=4, d2=3, seed=0)
        x = make_rng(10, 83).standard_normal((3, 6)) * 4.0 + 1.0
        raw = model.predict(x)
        scaler = Standardizer.fit(x)
        model.scaler_weak = scaler
        np.testing.assert_array_equal(
            model.predict(x), model.deployment_forward(Node(scaler.apply(x))).value)
        assert not np.array_equal(model.predict(x), raw)

    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    def test_rejects_a_non_finite_frame(self, fill):
        model = assemble_sew(tiny_config("unimodal"), d1=4, d2=3, seed=0)
        model.scaler_weak = Standardizer(np.zeros((3, 1)), np.ones((3, 1)))
        frame = np.ones((3, 2))
        frame[1, 1] = fill
        with pytest.raises(NumericError, match="m_w contains NaN or Inf"):
            model.predict(frame)

    def test_nan_producing_frame_raises(self):
        model = assemble_sew(tiny_config("unimodal"), d1=4, d2=3, seed=0)
        w = model.w_encoder.layers[0].weight.value
        w[0, :2] = np.inf, -np.inf
        # a finite frame that meets both weights makes inf - inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="output holds NaN or Inf"):
                model.predict(np.ones((3, 1)))

    def test_saturated_overflow_serves_the_limit(self):
        model = assemble_sew(tiny_config("unimodal"), d1=4, d2=3, seed=0)
        w = model.w_encoder.layers[0].weight.value
        w[0, 0] = 1e308
        with np.errstate(over="ignore"):
            latent = model.w_encoder.forward(constant(np.array([[10.0], [0.5], [0.5]]))).value
            assert latent[0, 0] == np.inf
            out = model.predict(np.array([[10.0], [0.5], [0.5]]))
        assert np.isfinite(out).all()

    def test_calls_deployment_forward_once_for_a_parentless_node(self, monkeypatch):
        # perfbench's tracer wraps SewModel.deployment_forward and counts
        # the nodes behind its result inside predict
        model = assemble_sew(tiny_config("unimodal"), d1=4, d2=3, seed=0)
        results = []
        original = SewModel.deployment_forward

        def recording(model, m_w):
            results.append(original(model, m_w))
            return results[-1]
        monkeypatch.setattr(SewModel, "deployment_forward", recording)
        x = make_rng(16, 83).standard_normal((3, 4))
        for frames in (1, 4):
            results.clear()
            out = model.predict(x[:, :frames])
            assert len(results) == 1 and isinstance(results[0], Node)
            assert results[0].parents == () and results[0].grad is None
            assert out.tobytes() == results[0].value.tobytes()


# weights that overflow w @ x: tanh and sigmoid saturate to their exact
# limits, and an infinity meeting one of the other sign makes a NaN
_HUGE = st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(encoder=st.lists(st.integers(1, 4), min_size=1, max_size=3), layers=st.integers(1, 3),
       hidden=st.integers(1, 5), d2=st.integers(1, 4), seed=st.integers(0, 2**16), frames=st.integers(1, 9),
       huge=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40), _HUGE), max_size=6))
# one overflowing latent coordinate: every gate saturates, the output is finite
@example(encoder=[2], layers=1, hidden=2, d2=1, seed=0, frames=9, huge=[(0, 0, 1.7e308)])
# every latent coordinate +-inf with one sign: R's first layer makes inf - inf
@example(encoder=[2, 2], layers=1, hidden=3, d2=1, seed=0, frames=9,
         huge=[(0, 0, 1.7e308), (0, 1, 1.7e308)] + [(2, j, 1.7e308) for j in range(4)])
def test_deployment_forward_matches_the_graph_bytewise(encoder, layers, hidden, d2, seed, frames, huge):
    rng = make_rng(seed, 84)
    model = SewModel(encoder[-1], 1, d2, Mlp(MlpSpec(tuple(encoder)), d2, rng),
                     GruRegressor(GruRegressorSpec(layers, hidden), encoder[-1], rng))
    params = [p for _, p in model.named_parameters()]
    for i, j, value in huge:
        param = params[i % len(params)]
        param.value.flat[j % param.value.size] = value
    x = 3.0 * rng.standard_normal((d2, frames))
    with np.errstate(over="ignore", invalid="ignore"):
        graph = model.regressor.forward(model.w_encoder.forward(Node(x))).value
        served = model.deployment_forward(Node(x))
        assert served.parents == () and served.grad is None
        assert served.value.shape == graph.shape == (1, frames)
        assert served.value.tobytes() == graph.tobytes()
        if np.isfinite(graph).all():
            assert model.predict(x).tobytes() == graph.tobytes()
        else:
            with pytest.raises(NumericError, match="output holds NaN or Inf"):
                model.predict(x)


@pytest.mark.parametrize("frames", [1, 500])
def test_deployment_forward_matches_the_graph_bytewise_at_the_published_widths(frames):
    """W_E + R of the video_geo -> audio pairing, on a served frame (a
    column of the stream's array, as a serving loop slices it) and on a
    dev pass."""
    config = pair_config("video_geo", "audio")
    rng = make_rng(frames, 85)
    model = SewModel(config.latent_dim, config.d1, config.d2,
                     Mlp(config.w_encoder, config.d2, rng), GruRegressor(config.regressor, config.latent_dim, rng))
    stream = 3.0 * rng.standard_normal((config.d2, 2 * frames))
    x = stream[:, 1:2] if frames == 1 else stream[:, :frames]
    graph = model.regressor.forward(model.w_encoder.forward(Node(x))).value
    assert model.deployment_forward(Node(x)).value.tobytes() == graph.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), ablation=st.sampled_from(ABLATIONS), latent=st.integers(1, 3),
       deployment=st.booleans(), frames=st.integers(1, 9))
def test_save_load_round_trip_predicts_byte_equal(seed, ablation, latent, deployment, frames):
    model = assemble_sew(tiny_config(ablation, latent), d1=4, d2=3, seed=seed)
    rng = make_rng(seed, 84)
    model.scaler_weak = Standardizer.fit(rng.standard_normal((3, 20)) * 3.0 + 1.0)
    buf = io.BytesIO()
    save_model(model, buf, deployment=deployment)
    loaded = load_model(io.BytesIO(buf.getvalue()))
    x = rng.standard_normal((3, frames)) * 5.0
    assert loaded.predict(x).tobytes() == model.predict(x).tobytes()


def _npy_with_header(text: str):
    """A .npy member edit: the same data under the header `text`."""
    def edit(raw: bytes) -> bytes:
        header = text.encode() + b"\n"
        data = raw[10 + int.from_bytes(raw[8:10], "little"):]
        return raw[:8] + len(header).to_bytes(2, "little") + header + data
    return edit


class TestSerialization:
    def build(self, ablation="full"):
        model = assemble_sew(tiny_config(ablation), d1=4, d2=3, seed=11)
        rng = make_rng(12, 83)
        model.scaler_strong = Standardizer.fit(rng.standard_normal((4, 20)))
        model.scaler_weak = Standardizer.fit(rng.standard_normal((3, 20)))
        return model

    def test_round_trip(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert [n for n, _ in loaded.blocks()] == [n for n, _ in model.blocks()]
        assert (loaded.latent_dim, loaded.d1, loaded.d2) == (2, 4, 3)
        for (pn, pv), (_, qv) in zip(model.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(pv.value, qv.value, err_msg=pn)
        x = make_rng(13, 83).standard_normal((3, 8))
        np.testing.assert_array_equal(model.predict(x), loaded.predict(x))

    def test_save_is_byte_deterministic(self, tmp_path):
        model = self.build()
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_deployment_export_drops_aux_blocks(self, tmp_path):
        model = self.build()
        path = tmp_path / "deploy.npz"
        save_model(model, path, deployment=True)
        with zipfile.ZipFile(path) as zf:
            names = zf.namelist()
        assert not any(n.startswith(("s_decoder1", "s_encoder", "s_decoder2")) for n in names)
        assert not any(n.startswith("scaler_strong") for n in names)
        loaded = load_model(path)
        assert loaded.s_encoder is None and loaded.s_decoder1 is None and loaded.s_decoder2 is None
        x = make_rng(14, 83).standard_normal((3, 8))
        np.testing.assert_array_equal(model.predict(x), loaded.predict(x))

    def test_file_holds_only_live_regressor_weights(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(self.build(), path)
        with zipfile.ZipFile(path) as zf:
            names = zf.namelist()
            meta = json.loads(zf.read("meta.json"))
        assert meta["format_version"] == 2
        cells = sorted(n for n in names if n.startswith("regressor.cells."))
        assert cells == ["regressor.cells.0.b_h.npy", "regressor.cells.0.b_z.npy",
                         "regressor.cells.0.w_h.npy", "regressor.cells.0.w_z.npy"]

    def test_reads_format_1_file(self):
        """model_v1.npz was written at format 1, whose regressor layers also
        stored U_z, U_r, U_h, W_r and b_r (set non-zero in this file), by
        the code of that format; model_v1_io.npz holds an input and the
        predictions that code made from it."""
        with zipfile.ZipFile(FIXTURES / "model_v1.npz") as zf:
            assert json.loads(zf.read("meta.json"))["format_version"] == 1
            assert "regressor.cells.1.u_h.npy" in zf.namelist()
        io = np.load(FIXTURES / "model_v1_io.npz")
        model = load_model(FIXTURES / "model_v1.npz")
        assert model.predict(io["x"]).tobytes() == io["pred"].tobytes()

    def test_ignores_legacy_ablation_key(self, tmp_path):
        """Files written while models carried their variant's name hold an
        "ablation" key in meta.json; it is read past."""
        model = self.build()
        path = tmp_path / "model.npz"
        save_model(model, path)
        with zipfile.ZipFile(path) as zf:
            assert "ablation" not in json.loads(zf.read("meta.json"))
        self.rewrite_meta(path, lambda meta: meta.update(ablation="no_sd2"))
        x = make_rng(15, 83).standard_normal((3, 8))
        assert load_model(path).predict(x).tobytes() == model.predict(x).tobytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(self.build(), path)
        self.rewrite_meta(path, lambda meta: meta.update(format_version=3))
        with pytest.raises(ExportError) as exc:
            load_model(path)
        assert str(path) in str(exc.value) and "format 3" in str(exc.value)

    def test_deployment_needs_weak_path(self, tmp_path):
        model = self.build()
        model.regressor = None
        with pytest.raises(ExportError):
            save_model(model, tmp_path / "deploy.npz", deployment=True)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("something.txt", "hello")
        with pytest.raises(ExportError):
            load_model(path)

    def test_non_zip_file_named(self, tmp_path):
        path = tmp_path / "m.npz"
        path.write_bytes(b"not a zip")
        with pytest.raises(ExportError) as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    def rewrite_meta(self, path, edit):
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        meta = json.loads(members["meta.json"])
        edit(meta)
        members["meta.json"] = json.dumps(meta).encode()
        with zipfile.ZipFile(path, "w") as zf:
            for n, payload in members.items():
                zf.writestr(n, payload)

    def replace_member(self, path, name, array):
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        buf = io.BytesIO()
        np.lib.format.write_array(buf, array, allow_pickle=False)
        members[name] = buf.getvalue()
        with zipfile.ZipFile(path, "w") as zf:
            for n, payload in members.items():
                zf.writestr(n, payload)

    def test_loaded_model_serves_on_constants(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.npz"
        save_model(model, path, deployment=True)
        loaded = load_model(path)
        assert all(p.grad is None for _, p in loaded.named_parameters())
        x = make_rng(15, 83).standard_normal((3, 8))
        out = loaded.deployment_forward(constant(loaded.scaler_weak.apply(x)))
        assert out.parents == () and out.grad is None
        assert loaded.predict(x).tobytes() == model.predict(x).tobytes()
        assert out.value.tobytes() == loaded.predict(x).tobytes()
        with pytest.raises(ConfigError, match="parameter 0 "):
            Sgd((p for _, p in loaded.named_parameters()), lr=0.1)

    @pytest.mark.parametrize("member, bad", [
        ("w_encoder.layers.0.weight.npy", np.inf),
        ("regressor.cells.0.b_z.npy", -np.inf),
        ("scaler_weak.scale.npy", np.nan),
        ("scaler_weak.scale.npy", 0.0),
    ])
    def test_unusable_member_value_rejected(self, tmp_path, member, bad):
        path = tmp_path / "model.npz"
        save_model(self.build(), path)
        with zipfile.ZipFile(path) as zf:
            array = np.lib.format.read_array(io.BytesIO(zf.read(member)))
        array[0, 0] = bad
        self.replace_member(path, member, array)
        with pytest.raises(ExportError) as exc:
            load_model(path)
        assert str(path) in str(exc.value) and member in str(exc.value)

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.update(blocks=[]),
        lambda meta: meta["blocks"].update(w_encoder=[1, 2]),
        lambda meta: meta["blocks"].update(s_encoder="mlp"),
        lambda meta: meta["blocks"]["regressor"].update(type="lstm"),
        lambda meta: meta["blocks"]["w_encoder"].update(layer_sizes=7),
        lambda meta: meta.update(scalers=["scaler_weak", "__class__"]),
    ])
    def test_malformed_meta_named(self, tmp_path, edit):
        path = tmp_path / "model.npz"
        save_model(self.build(), path)
        self.rewrite_meta(path, edit)
        with pytest.raises(ExportError) as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("edit, key", [
        (lambda meta: meta.pop("d2"), "d2"),
        (lambda meta: meta.pop("scalers"), "scalers"),
        (lambda meta: meta["blocks"].pop("regressor"), "regressor"),
        (lambda meta: meta["blocks"]["w_encoder"].pop("input_dim"), "input_dim"),
    ])
    def test_missing_meta_key_named(self, tmp_path, edit, key):
        path = tmp_path / "model.npz"
        save_model(self.build(), path)
        self.rewrite_meta(path, edit)
        with pytest.raises(ExportError) as exc:
            load_model(path)
        assert str(path) in str(exc.value) and repr(key) in str(exc.value)

    def test_missing_member_named(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(self.build(), path)
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist() if n != "scaler_weak.mean.npy"}
        with zipfile.ZipFile(path, "w") as zf:
            for n, payload in members.items():
                zf.writestr(n, payload)
        with pytest.raises(ExportError) as exc:
            load_model(path)
        assert "scaler_weak.mean.npy" in str(exc.value)

    def test_corrupt_member_named(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(self.build(), path)
        raw = bytearray(path.read_bytes())
        raw[raw.find(b"w_encoder.layers.0.weight.npy") + 200] ^= 0xFF  # inside the member's data
        path.write_bytes(bytes(raw))
        with pytest.raises(ExportError) as exc:
            load_model(path)
        assert "w_encoder.layers.0.weight.npy" in str(exc.value)

    @pytest.mark.parametrize("edit", [
        # byte 11 opens the header's first string; "(" leaves a bracket
        # open, which numpy's header parser meets with tokenize's error
        lambda raw: raw[:11] + b"(" + raw[12:],
        _npy_with_header("{'descr': '<f8', 'fortran_order': False, 'shape': (99999999999,), }"),
        _npy_with_header("{'descr': '<f8', 'fortran_order': False, 'shape': (" + "9" * 30 + ",), }"),
        _npy_with_header("{'descr': '<f8', 'fortran_order': False, 'shape': (True, 1), }"),
    ])
    def test_damaged_npy_header_named(self, tmp_path, edit):
        path = tmp_path / "model.npz"
        save_model(self.build(), path)
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        name = "regressor.cells.0.b_h.npy"
        members[name] = edit(members[name])
        with zipfile.ZipFile(path, "w") as zf:
            for n, payload in members.items():
                zf.writestr(n, payload)
        with pytest.raises(ExportError, match=rf"member {re.escape(name)} is unreadable"):
            load_model(path)

    @pytest.mark.parametrize("dtype", ["<c16", "<M8[s]", "<U8"])
    def test_member_of_no_real_dtype_named(self, tmp_path, dtype):
        path = tmp_path / "model.npz"
        save_model(self.build(), path)
        name = "w_encoder.layers.0.bias.npy"
        with zipfile.ZipFile(path) as zf:
            array = np.lib.format.read_array(io.BytesIO(zf.read(name)))
        self.replace_member(path, name, array.astype(dtype))
        with pytest.raises(ExportError, match=rf"member {re.escape(name)} holds .* values, not real numbers"):
            load_model(path)

    def test_shape_mismatch_detected(self, tmp_path):
        model = self.build("unimodal")
        path = tmp_path / "model.npz"
        save_model(model, path)
        # corrupt one parameter member with a wrong-shaped array
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        target = next(n for n in members if n.endswith("w_z.npy"))
        buf = io.BytesIO()
        np.lib.format.write_array(buf, np.zeros((1, 1)), allow_pickle=False)
        members[target] = buf.getvalue()
        with zipfile.ZipFile(path, "w") as zf:
            for n, payload in members.items():
                zf.writestr(n, payload)
        with pytest.raises(ExportError) as exc:
            load_model(path)
        assert "shape" in str(exc.value)
