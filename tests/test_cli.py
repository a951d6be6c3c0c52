"""End-to-end command tests, run in-process against tiny datasets."""

import dataclasses
import hashlib
import io
import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sew import training
from sew.cli import main
from sew.data import SyntheticSpec, load_features, load_labels, write_csv
from sew.errors import ConfigError
from sew.networks import GruRegressorSpec, MlpSpec, assemble_sew, save_model
from sew.presets import desk_config
from sew.training import SewConfig, load_config, train


def run(*argv):
    return main([str(a) for a in argv])


def small_dataset(tmp_path, name="data", **kw):
    out = tmp_path / name
    args = ["gen-data", "--out", out, "--latent-dim", 3, "--d1", 6, "--d2", 5,
            "--n-train", 120, "--n-dev", 40]
    for flag, value in kw.items():
        args.extend([f"--{flag.replace('_', '-')}", value])
    assert run(*args) == 0
    return out


def small_config(tmp_path, **kw):
    base = dict(
        latent_dim=3,
        d1=6,
        d2=5,
        w_encoder=MlpSpec((3,)),
        s_decoder1=MlpSpec((6,)),
        s_encoder=MlpSpec((3,)),
        s_decoder2=MlpSpec((6,)),
        regressor=GruRegressorSpec(num_layers=1, hidden=4),
        k=2,
        batch_size=16,
        epochs=2,
        shift_seconds=0.0,
    )
    base.update(kw)
    path = tmp_path / "config.json"
    SewConfig(**base).save(path)
    return path


def untrained_model(tmp_path):
    config = load_config(small_config(tmp_path))
    path = tmp_path / "model.npz"
    save_model(assemble_sew(config, config.d1, config.d2, config.seed), path)
    return path


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGenData:
    def test_writes_declared_layout(self, tmp_path):
        data = small_dataset(tmp_path)
        strong = load_features(data / "train_strong.csv")
        weak = load_features(data / "train_weak.csv")
        labels = load_labels(data / "train_labels.csv")
        assert strong.shape == (6, 120)
        assert weak.shape == (5, 120)
        assert labels.shape == (1, 120)
        assert load_features(data / "dev_strong.csv").shape == (6, 40)
        meta = json.loads((data / "dataset.json").read_text())
        assert meta["shift_pending"] is False
        assert meta["spec"]["latent_dim"] == 3
        assert len(meta["fingerprints"]) == 2

    def test_same_seed_same_bytes(self, tmp_path):
        a = small_dataset(tmp_path, "a")
        b = small_dataset(tmp_path, "b")
        for name in ("train_strong.csv", "train_weak.csv", "train_labels.csv",
                     "dev_weak.csv", "dataset.json"):
            assert file_hash(a / name) == file_hash(b / name), name

    def test_seed_flag_changes_data(self, tmp_path):
        a = small_dataset(tmp_path, "a")
        b = small_dataset(tmp_path, "b", seed=5)
        assert file_hash(a / "train_weak.csv") != file_hash(b / "train_weak.csv")

    def test_invalid_spec_exits_nonzero(self, tmp_path, capsys):
        code = run("gen-data", "--out", tmp_path / "bad", "--n-train", 10)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text('{"n_sample": 200}')
        assert run("gen-data", "--out", tmp_path / "d", "--config", cfg) == 1
        assert "n_sample" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text('[{"n_samples": 200}]')
        assert run("gen-data", "--out", tmp_path / "d", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "spec.json" in err

    def test_mistyped_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text('{"n_samples": "many"}')
        assert run("gen-data", "--out", tmp_path / "d", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "spec.json" in err and "n_samples" in err


    def test_range_error_from_config_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "spec.json"
        cfg.write_text('{"n_samples": 50}')
        assert run("gen-data", "--out", tmp_path / "d", "--config", cfg) == 1
        assert capsys.readouterr().err == f"error: {cfg}: n_samples must be >= 100, got 50\n"
        # a flag that overrides the bad value makes the file's spec valid
        assert run("gen-data", "--out", tmp_path / "d", "--config", cfg, "--n-train", 100, "--n-dev", 10) == 0
        # a bad flag value is not blamed on the file
        cfg.write_text('{"n_dev": 10}')
        assert run("gen-data", "--out", tmp_path / "e", "--config", cfg, "--n-train", 50) == 1
        assert capsys.readouterr().err.endswith("error: n_samples must be >= 100, got 50\n")

    def test_file_is_blamed_only_for_its_own_values(self, tmp_path, capsys):
        """Flags go on top of the file, and an error names the file only when
        the file's own values fail; `train` follows the same rule."""
        cfg = tmp_path / "spec.json"
        cfg.write_text('{"seed": -1, "n_samples": 100, "n_dev": 10}')
        assert run("gen-data", "--out", tmp_path / "a", "--config", cfg, "--seed", 0) == 0
        capsys.readouterr()
        assert run("gen-data", "--out", tmp_path / "b", "--config", cfg, "--n-dev", 5) == 1
        assert capsys.readouterr().err == f"error: {cfg}: seed must be >= 0, got -1\n"
        # each alone is valid, but the flag's noise_weak undercuts the file's
        # noise_strong: the flag is at fault
        cfg.write_text('{"noise_strong": 0.5}')
        assert run("gen-data", "--out", tmp_path / "c", "--config", cfg, "--noise-weak", 0.2) == 1
        assert capsys.readouterr().err == "error: noise_weak (0.2) must be >= noise_strong (0.5)\n"


# field values of mixed Python types: JSON's own, numpy scalars, tuples,
# non-finite floats and strings
MIXED_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 64), st.floats(), st.text(max_size=2),
    st.builds(np.int64, st.integers(0, 64)), st.builds(np.float64, st.floats(0, 2)),
    st.builds(np.bool_, st.booleans()),
    st.lists(st.one_of(st.integers(-1, 40), st.floats(0, 40)), max_size=3),
    st.lists(st.integers(1, 40), min_size=1, max_size=3).map(tuple),
    st.dictionaries(st.sampled_from(["num_layers", "hidden", "output", "width"]),
                    st.one_of(st.integers(0, 20), st.floats(0, 20)), max_size=3),
)


def forms_of(saved):
    """A saved field value as Python may give it: itself and other types
    holding the same value."""
    if type(saved) is bool:
        return [saved, int(saved), np.bool_(saved)]
    if type(saved) is int:
        return [saved, float(saved), np.int64(saved), saved == 1]
    if type(saved) is float:
        return [saved, np.float64(saved), str(saved)]
    if type(saved) is list:
        return [saved, tuple(saved), MlpSpec(tuple(saved)), [float(s) for s in saved]]
    if type(saved) is dict:
        return [saved, GruRegressorSpec(**saved), {**saved, "hidden": float(saved["hidden"])}]
    return [saved]


DESK_FIELDS = desk_config().to_dict()
SMALL_SPEC = dataclasses.asdict(SyntheticSpec(latent_dim=3, d1=6, d2=5, n_samples=100, n_dev=10))


def mixed_overrides(data, saved, retyped, mixed):
    """Fields of `saved` given as other types of their value, then
    `mixed` on top."""
    overrides = {key: data.draw(st.sampled_from(forms_of(saved[key])), key) for key in sorted(retyped)}
    return {**overrides, **mixed}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), retyped=st.sets(st.sampled_from(sorted(DESK_FIELDS)), max_size=4),
       mixed=st.dictionaries(st.sampled_from(sorted(DESK_FIELDS)), MIXED_VALUES, max_size=2))
def test_config_builds_only_what_loads_back(tmp_path_factory, data, retyped, mixed):
    """A config built in Python from values of any type is refused with a
    ConfigError, or saves to a file that loads back equal."""
    try:
        cfg = desk_config(**mixed_overrides(data, DESK_FIELDS, retyped, mixed))
    except ConfigError:
        return
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    cfg.save(path)
    assert load_config(path) == cfg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), retyped=st.sets(st.sampled_from(sorted(SMALL_SPEC)), max_size=4),
       mixed=st.dictionaries(st.sampled_from(sorted(SMALL_SPEC)), MIXED_VALUES, max_size=2))
def test_spec_builds_only_what_gen_data_reads_back(tmp_path_factory, data, retyped, mixed):
    """Likewise a dataset spec: what builds, `gen-data --config` reads back
    as the same spec."""
    try:
        spec = SyntheticSpec(**{**SMALL_SPEC, **mixed_overrides(data, SMALL_SPEC, retyped, mixed)})
    except ConfigError:
        return
    out = tmp_path_factory.mktemp("spec")
    (out / "spec.json").write_text(json.dumps(dataclasses.asdict(spec)))
    assert run("gen-data", "--out", out / "data", "--config", out / "spec.json") == 0
    assert SyntheticSpec(**json.loads((out / "data" / "dataset.json").read_text())["spec"]) == spec


class TestTrainCommand:
    def test_produces_run_artifacts(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        assert run("train", "--data", data, "--out", out, "--config", cfg) == 0
        assert (out / "model.npz").exists()
        assert (out / "config.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == f"# manifest: {manifest['hash']}"
        assert len(metrics) == 2 + 2  # comment, header, one row per epoch
        assert "best epoch" in capsys.readouterr().out

    def test_reruns_are_identical_except_timestamp(self, tmp_path):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--data", data, "--out", out_a, "--config", cfg) == 0
        assert run("train", "--data", data, "--out", out_b, "--config", cfg) == 0
        assert file_hash(out_a / "metrics.csv") == file_hash(out_b / "metrics.csv")
        assert file_hash(out_a / "model.npz") == file_hash(out_b / "model.npz")
        assert file_hash(out_a / "config.json") == file_hash(out_b / "config.json")
        ma = json.loads((out_a / "manifest.json").read_text())
        mb = json.loads((out_b / "manifest.json").read_text())
        assert ma["hash"] == mb["hash"]
        assert ma["dataset_fingerprint"] == mb["dataset_fingerprint"]

    def test_seed_override_changes_run(self, tmp_path):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--data", data, "--out", out_a, "--config", cfg) == 0
        assert run("train", "--data", data, "--out", out_b, "--config", cfg, "--seed", 3) == 0
        assert file_hash(out_a / "metrics.csv") != file_hash(out_b / "metrics.csv")

    def test_file_is_blamed_only_for_its_own_values(self, tmp_path, capsys):
        """Flags go on top of the file, and an error names the file only when
        the file's own values fail; `gen-data` follows the same rule."""
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**raw, "seed": -1}))
        assert run("train", "--data", data, "--out", tmp_path / "a", "--config", bad, "--seed", 0) == 0
        bad.write_text(json.dumps({**raw, "lr": -1}))
        capsys.readouterr()
        assert run("train", "--data", data, "--out", tmp_path / "b", "--config", bad, "--seed", 0) == 1
        assert capsys.readouterr().err == f"error: {bad}: lr must be > 0, got -1\n"
        assert run("train", "--data", data, "--out", tmp_path / "c", "--config", cfg, "--seed", -1) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_ablation_override(self, tmp_path):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        out = tmp_path / "uni"
        assert run("train", "--data", data, "--out", out, "--config", cfg,
                   "--ablation", "unimodal") == 0
        row = (out / "metrics.csv").read_text().splitlines()[2]
        assert row.split(",")[1] == ""  # no translation loss in a unimodal run
        saved = json.loads((out / "config.json").read_text())
        assert "ablation" not in saved
        assert (saved["alpha"], saved["beta"], saved["gamma"]) == (0.0, 0.0, 0.0)

    def test_missing_data_dir(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run("train", "--data", tmp_path / "nowhere", "--out", tmp_path / "o",
                   "--config", cfg) == 1
        assert "missing" in capsys.readouterr().err

    def test_dim_mismatch_reported(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path, d1=7, s_decoder1=MlpSpec((7,)), s_decoder2=MlpSpec((7,)))
        assert run("train", "--data", data, "--out", tmp_path / "o", "--config", cfg) == 1
        assert "d1" in capsys.readouterr().err

    def test_malformed_dataset_json(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        (data / "dataset.json").write_text("{bad")
        assert run("train", "--data", data, "--out", tmp_path / "r",
                   "--config", small_config(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dataset.json" in err

    def test_one_frame_dev_split_refused_before_training(self, tmp_path, capsys):
        data = small_dataset(tmp_path, n_dev=1)
        capsys.readouterr()
        assert run("train", "--data", data, "--out", tmp_path / "r", "--config", small_config(tmp_path)) == 1
        assert capsys.readouterr().err == "error: the dev split has 1 frame(s); training needs at least 2\n"
        assert not (tmp_path / "r" / "metrics.csv").exists()

    @pytest.mark.parametrize("shift", [0.0, 0.4])
    def test_frame_count_mismatch_rejected(self, tmp_path, capsys, shift):
        """A weak file longer than its labels is an error, shift or no shift."""
        data = small_dataset(tmp_path)
        meta = json.loads((data / "dataset.json").read_text())
        meta["shift_pending"] = True
        (data / "dataset.json").write_text(json.dumps(meta))
        weak = load_features(data / "train_weak.csv")
        write_csv(data / "train_weak.csv", np.hstack([weak, weak[:, :10]]))
        cfg = small_config(tmp_path, shift_seconds=shift)
        assert run("train", "--data", data, "--out", tmp_path / "r", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "130" in err and "120" in err
        assert "train_weak.csv" in err and "train split" in err and str(data) in err


class TestAblateCommand:
    def test_writes_full_table(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path, epochs=1)
        out = tmp_path / "ablate"
        assert run("ablate", "--data", data, "--out", out, "--config", cfg) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[1] == "ablation,label,dev_ccc,dev_acc,terms"
        body = [line.split(",") for line in lines[2:]]
        assert [row[0] for row in body] == [
            "full", "no_sd2", "no_cca", "no_sd1", "no_cca_sd1", "unimodal"]
        assert [row[1] for row in body] == [
            "full", "-S_D2", "-CCA", "-S_D1", "-(CCA&S_D1)", "unimodal"]
        for variant in ("full", "unimodal"):
            assert (out / variant / "metrics.csv").exists()
        assert [row[4] for row in body] == [
            "l1+l2+l3+l4", "l1+l3+l4", "l1+l4", "l2+l3+l4", "l4", "l4"]
        table = capsys.readouterr().out
        assert "-(CCA&S_D1)" in table
        assert (out / "ablation.txt").read_text().strip() in table

    def test_zero_weight_variants_share_runs(self, tmp_path, monkeypatch):
        """With alpha = 0, variants that differ only in l1 train the same
        terms: each distinct set trains once, and its rows say so."""
        calls = []

        def counted_train(config, *sets):
            calls.append((config.alpha, config.beta, config.gamma))
            return train(config, *sets)
        monkeypatch.setattr(training, "train", counted_train)
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path, alpha=0.0)
        out = tmp_path / "ablate"
        assert run("ablate", "--data", data, "--out", out, "--config", cfg) == 0
        assert calls == [(0.0, 1.0, 1.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)]  # full, no_sd2, no_cca
        body = [line.split(",") for line in (out / "ablation.csv").read_text().splitlines()[2:]]
        terms = {row[1]: row[4] for row in body}
        assert terms == {"full": "l2+l3+l4", "-S_D2": "l3+l4", "-CCA": "l4",
                         "-S_D1": "l2+l3+l4", "-(CCA&S_D1)": "l4", "unimodal": "l4"}
        assert body[3][2:4] == body[0][2:4]  # -S_D1 reports full's run
        for shared, trained in (("no_sd1", "full"), ("no_cca_sd1", "no_cca"), ("unimodal", "no_cca")):
            assert (out / shared / "metrics.csv").read_bytes() == (out / trained / "metrics.csv").read_bytes()
        assert "  l2+l3+l4" in (out / "ablation.txt").read_text()

    def test_legacy_variant_key_zeroes_on_top(self, tmp_path, monkeypatch):
        """A config that names a variant in the legacy "ablation" key is that
        variant's zero weights; every variant then drops terms from those."""
        calls = []

        def counted_train(config, *sets):
            calls.append((config.alpha, config.beta, config.gamma))
            return train(config, *sets)
        monkeypatch.setattr(training, "train", counted_train)
        cfg = small_config(tmp_path, epochs=1)
        raw = json.loads(cfg.read_text())
        raw["ablation"] = "unimodal"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "ablate"
        assert run("ablate", "--data", small_dataset(tmp_path), "--out", out, "--config", cfg) == 0
        assert calls == [(0.0, 0.0, 0.0)]
        body = [line.split(",") for line in (out / "ablation.csv").read_text().splitlines()[2:]]
        assert [row[4] for row in body] == ["l4"] * 6
        saved = json.loads((out / "config.json").read_text())
        assert "ablation" not in saved and saved["alpha"] == 0.0


class TestEvalCommand:
    def test_truth_pred_mode(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        pred = tmp_path / "pred.csv"
        write_csv(truth, np.array([[0.1, -0.2, 0.4, 0.5]]))
        write_csv(pred, np.array([[0.1, -0.2, 0.4, 0.5]]))
        assert run("eval", "--truth", truth, "--pred", pred) == 0
        out = capsys.readouterr().out
        assert "ccc=1.000000" in out
        assert "acc=100.0000" in out

    def test_truth_pred_length_mismatch_names_both_files(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        pred = tmp_path / "pred.csv"
        write_csv(truth, np.zeros((1, 10)))
        write_csv(pred, np.zeros((1, 12)))
        assert run("eval", "--truth", truth, "--pred", pred) == 1
        assert capsys.readouterr().err == f"error: {truth} has 10 rows but {pred} has 12\n"

    def test_model_on_dataset_dir(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        run("train", "--data", data, "--out", out, "--config", cfg)
        assert run("eval", "--model", out / "model.npz", "--data", data, "--split", "dev") == 0
        assert "n=40" in capsys.readouterr().out

    def test_exported_model_scores_weak_only_csv(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        run("train", "--data", data, "--out", out, "--config", cfg)
        deploy = tmp_path / "deploy.npz"
        assert run("export", "--model", out / "model.npz", "--out", deploy) == 0
        pred_out = tmp_path / "preds.csv"
        assert run("eval", "--model", deploy, "--features", data / "dev_weak.csv",
                   "--labels", data / "dev_labels.csv", "--pred-out", pred_out) == 0
        assert "n=40" in capsys.readouterr().out
        assert load_labels(pred_out).shape == (1, 40)

    def test_deployment_predictions_match_training_model(self, tmp_path):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        run("train", "--data", data, "--out", out, "--config", cfg)
        deploy = tmp_path / "deploy.npz"
        run("export", "--model", out / "model.npz", "--out", deploy)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("eval", "--model", out / "model.npz", "--features", data / "dev_weak.csv",
            "--labels", data / "dev_labels.csv", "--pred-out", a)
        run("eval", "--model", deploy, "--features", data / "dev_weak.csv",
            "--labels", data / "dev_labels.csv", "--pred-out", b)
        np.testing.assert_array_equal(load_labels(a), load_labels(b))

    def test_non_zip_model_file(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        model = tmp_path / "m.npz"
        model.write_bytes(b"not a zip")
        assert run("eval", "--model", model, "--data", data) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(model) in err

    def test_mode_flags_validated(self, tmp_path, capsys):
        assert run("eval") == 1
        assert "mode" in capsys.readouterr().err
        assert run("eval", "--truth", tmp_path / "t.csv") == 1
        data = small_dataset(tmp_path)
        assert run("eval", "--data", data) == 1  # model missing

    def test_shift_applies_to_manual_pair(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        run("train", "--data", data, "--out", out, "--config", cfg)
        assert run("eval", "--model", out / "model.npz",
                   "--features", data / "dev_weak.csv", "--labels", data / "dev_labels.csv",
                   "--shift-seconds", 0.4, "--frame-step-seconds", 0.04) == 0
        assert "n=30" in capsys.readouterr().out  # 40 frames minus a 10-frame shift

    def test_pending_shift_needs_the_flag(self, tmp_path, capsys):
        """On a shift_pending dataset, --data mode scores the pairs training
        scored, and only when told the shift training applied."""
        data = small_dataset(tmp_path, n_dev=100)
        meta = json.loads((data / "dataset.json").read_text())
        meta["shift_pending"] = True
        (data / "dataset.json").write_text(json.dumps(meta))
        out = tmp_path / "run"
        assert run("train", "--data", data, "--out", out, "--config", small_config(tmp_path, shift_seconds=2.4)) == 0
        best = max(float(line.split(",")[5]) for line in (out / "metrics.csv").read_text().splitlines()[2:])
        capsys.readouterr()
        assert run("eval", "--model", out / "model.npz", "--data", data) == 1
        assert capsys.readouterr().err == (f"error: {data / 'dataset.json'} sets shift_pending: "
                                           "give --shift-seconds, the shift training applied\n")
        assert run("eval", "--model", out / "model.npz", "--data", data, "--shift-seconds", 2.4) == 0
        assert capsys.readouterr().out.startswith(f"n=40 ccc={best:.6f} ")  # 100 frames less a 60-frame shift

    @pytest.mark.parametrize("mode", ["data", "features", "truth-pred"])
    def test_one_frame_input_is_named(self, tmp_path, capsys, mode):
        data = small_dataset(tmp_path, n_dev=1)
        weak, labels = data / "dev_weak.csv", data / "dev_labels.csv"
        args, source = {
            "data": (("--model", untrained_model(tmp_path), "--data", data, "--split", "dev"), f"{data} (dev split)"),
            "features": (("--model", untrained_model(tmp_path), "--features", weak, "--labels", labels),
                         f"{weak}, {labels}"),
            "truth-pred": (("--truth", labels, "--pred", labels), f"{labels}, {labels}"),
        }[mode]
        capsys.readouterr()
        assert run("eval", *args) == 1
        assert capsys.readouterr().err == f"error: {source}: 1 frame(s); evaluation needs at least 2\n"

    @pytest.mark.parametrize("shift", [0.0, 2.4])
    def test_frame_count_mismatch_rejected(self, tmp_path, capsys, shift):
        """200 feature frames against 150 labels never pair up, shift or no shift."""
        feats, labels = tmp_path / "f.csv", tmp_path / "l.csv"
        write_csv(feats, np.zeros((5, 200)))
        write_csv(labels, np.zeros((1, 150)))
        assert run("eval", "--model", untrained_model(tmp_path), "--features", feats, "--labels", labels,
                   "--shift-seconds", shift, "--frame-step-seconds", 0.04) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "200" in err and "150" in err
        assert str(feats) in err and str(labels) in err


class TestExportCommand:
    def test_strips_aux_blocks(self, tmp_path):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        run("train", "--data", data, "--out", out, "--config", cfg)
        deploy = tmp_path / "deploy.npz"
        assert run("export", "--model", out / "model.npz", "--out", deploy) == 0
        with zipfile.ZipFile(out / "model.npz") as zf:
            assert any(n.startswith("s_encoder") for n in zf.namelist())
        with zipfile.ZipFile(deploy) as zf:
            names = zf.namelist()
        assert not any(n.startswith(("s_encoder", "s_decoder1", "s_decoder2")) for n in names)
        assert deploy.stat().st_size < (out / "model.npz").stat().st_size

    def test_missing_model_file(self, tmp_path, capsys):
        assert run("export", "--model", tmp_path / "absent.npz", "--out", tmp_path / "d.npz") == 1
        assert "i/o error" in capsys.readouterr().err


def _truncate(path):
    path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])


def _rewrite_member(path, name, rewrite):
    """Replace member `name` of a model file by rewrite(its bytes)."""
    with zipfile.ZipFile(path) as zf:
        members = {n: zf.read(n) for n in zf.namelist()}
    members[name] = rewrite(members[name])
    with zipfile.ZipFile(path, "w") as zf:
        for name, payload in members.items():
            zf.writestr(name, payload)


def _wrong_shape_member(path):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.zeros((2, 2)), allow_pickle=False)
    _rewrite_member(path, "w_encoder.layers.0.weight.npy", lambda _: buf.getvalue())


def _scaler_of_width(width):
    """A damage that adds a `width`-row scaler_weak to a model file."""
    def damage(path):
        members = {"scaler_weak.mean.npy": np.zeros((width, 1)), "scaler_weak.scale.npy": np.ones((width, 1))}
        with zipfile.ZipFile(path, "a") as zf:
            for name, value in members.items():
                buf = io.BytesIO()
                np.lib.format.write_array(buf, value, allow_pickle=False)
                zf.writestr(name, buf.getvalue())
        _edit_meta(lambda m: m.update(scalers=["scaler_weak"]))(path)

    return damage


def _edit_meta(edit):
    """A damage that applies edit(meta) to a model file's meta.json."""
    def rewrite(payload):
        meta = json.loads(payload)
        edit(meta)
        return json.dumps(meta).encode()

    return lambda path: _rewrite_member(path, "meta.json", rewrite)


def _replace_line(path, lineno, text):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")


def _nan_cell(path):
    cells = path.read_text().splitlines()[2].split(",")
    cells[1] = "nan"
    _replace_line(path, 3, ",".join(cells))


def _ragged_row(path):
    _replace_line(path, 5, path.read_text().splitlines()[4].rsplit(",", 1)[0])


class TestBadInputs:
    """Every bad input file ends as exit 1 and one `error:` line naming it."""

    @staticmethod
    def one_error_line(capsys, path, *fragments):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: ") and str(path) in err, err
        for fragment in fragments:
            assert fragment in err, err

    @pytest.mark.parametrize("damage, fragment", [
        (_truncate, "not a zip archive"),
        (_wrong_shape_member, "w_encoder.layers.0.weight has shape (2, 2)"),
        (_edit_meta(lambda m: m.update(d2=20)), "meta.json d2 is 20, but blocks.w_encoder.input_dim is 5"),
        (_edit_meta(lambda m: m["blocks"]["regressor"].update(input_dim=4)),
         "meta.json latent_dim is 3, but blocks.regressor.input_dim is 4"),
        (_edit_meta(lambda m: m["blocks"]["regressor"].update(output=2)), "regressor.output must be 1"),
        (_edit_meta(lambda m: m.update(d1=7)), "meta.json d1 is 7, but blocks.s_decoder1 ends at 6"),
        (_scaler_of_width(4), "meta.json d2 is 5, but the scaler_weak members have shapes (4, 1) and (4, 1)"),
        (_edit_meta(lambda m: m.update(scalers=5)), "meta.json is malformed"),
        (_edit_meta(lambda m: m.update(scalers=[["x"]])), "unknown scaler ['x']"),
        (_edit_meta(lambda m: m["blocks"].update(w_encoder=dict(m["blocks"]["regressor"], input_dim=5))),
         'meta.json blocks.w_encoder.type must be "mlp", got "gru_regressor"'),
        (_edit_meta(lambda m: m["blocks"]["regressor"].update(type="mlp")),
         'meta.json blocks.regressor.type must be "gru_regressor", got "mlp"'),
        (_edit_meta(lambda m: m.update(d2=5.9)), "meta.json d2 must be an integer, got 5.9"),
        (_edit_meta(lambda m: m["blocks"]["w_encoder"].update(layer_sizes=[3.7])),
         "meta.json blocks.w_encoder.layer_sizes[0] must be an integer, got 3.7"),
        (_edit_meta(lambda m: m.update(latent_dim=True)), "meta.json latent_dim must be an integer, got true"),
        (_edit_meta(lambda m: m.update(format_version=2.0)), "unsupported model format 2.0"),
    ], ids=["truncated-zip", "wrong-shape-npy", "meta-d2", "meta-regressor-input", "meta-regressor-output",
            "meta-d1", "scaler-weak-width", "meta-scalers-not-a-list", "meta-scaler-not-a-name",
            "w-encoder-typed-gru", "regressor-typed-mlp", "meta-d2-fraction", "layer-size-fraction",
            "meta-latent-dim-bool", "format-version-float"])
    def test_model_file(self, tmp_path, capsys, damage, fragment):
        model = untrained_model(tmp_path)
        damage(model)
        assert run("export", "--model", model, "--out", tmp_path / "o.npz") == 1
        self.one_error_line(capsys, model, fragment)
        assert not (tmp_path / "o.npz").exists()

    @pytest.mark.parametrize("value", ["no", "false", 0, 1], ids=["string-no", "string-false", "int-0", "int-1"])
    def test_shift_pending_must_be_true_or_false(self, tmp_path, capsys, value):
        data = small_dataset(tmp_path)
        meta = json.loads((data / "dataset.json").read_text())
        meta["shift_pending"] = value
        (data / "dataset.json").write_text(json.dumps(meta))
        model = untrained_model(tmp_path)
        capsys.readouterr()
        assert run("eval", "--model", model, "--data", data, "--split", "dev",
                   "--shift-seconds", 0.4, "--frame-step-seconds", 0.04) == 1
        self.one_error_line(capsys, data / "dataset.json",
                            f"shift_pending must be true or false, got {json.dumps(value)}")

    @pytest.mark.parametrize("name, damage, fragment", [
        ("train_weak.csv", _nan_cell, ":3: non-finite feature cell nan in column 2"),
        ("train_labels.csv", lambda p: p.write_text(""), "no numeric label rows"),
        ("dev_strong.csv", _ragged_row, ":5: ragged row"),
    ], ids=["nan-cell", "empty-csv", "ragged-csv"])
    def test_dataset_csv(self, tmp_path, capsys, name, damage, fragment):
        data = small_dataset(tmp_path)
        capsys.readouterr()
        damage(data / name)
        assert run("train", "--data", data, "--out", tmp_path / "run",
                   "--config", small_config(tmp_path)) == 1
        self.one_error_line(capsys, data / name, fragment)

    @pytest.mark.parametrize("shift, damage, fragment", [
        (0.0, lambda p: _replace_line(p, 3, "1.5"), "labels must lie in [-1, 1], found 1.5"),
        (2.0, lambda p: None, "shift of 50 frames leaves no pairs (only 40 frames)"),
    ], ids=["label-out-of-range", "shift-leaves-no-pairs"])
    def test_split_assembly_names_the_split(self, tmp_path, capsys, shift, damage, fragment):
        data = small_dataset(tmp_path)
        meta = json.loads((data / "dataset.json").read_text())
        meta["shift_pending"] = True
        (data / "dataset.json").write_text(json.dumps(meta))
        damage(data / "dev_labels.csv")
        capsys.readouterr()
        assert run("train", "--data", data, "--out", tmp_path / "run",
                   "--config", small_config(tmp_path, shift_seconds=shift)) == 1
        self.one_error_line(capsys, data, f"{data} (dev split): dev_labels.csv: {fragment}")

    @pytest.mark.parametrize("key, value, fragment", [
        ("epochs", 1.5, "config key 'epochs' must be an integer, got 1.5"),
        ("batch_size", 32.5, "config key 'batch_size' must be an integer, got 32.5"),
        ("k", 2.0, "config key 'k' must be an integer, got 2.0"),
        ("seed", "x", "config key 'seed' must be an integer, got \"x\""),
        ("regressor", {"num_layers": 2.5, "hidden": 4, "output": 1},
         "regressor key 'num_layers' must be an integer, got 2.5"),
        ("w_encoder", [16.7, 8], "config key 'w_encoder' must be a list of integers, got [16.7, 8]"),
        ("sample_variance_ccc", "no", "config key 'sample_variance_ccc' must be true or false, got \"no\""),
        ("lr", "0.1", "config key 'lr' must be a finite number, got \"0.1\""),
        ("lr", float("nan"), "config key 'lr' must be a finite number, got NaN"),
        ("foo", 1, "unknown config key(s): foo"),
        ("k", 99, "k must be in [1, latent_dim=3], got 99"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("regressor", {"num_layers": 1, "hidden": 4, "output": 2}, "regressor.output must be 1"),
        ("epochs", True, "config key 'epochs' must be an integer, got true"),
        ("alpha", False, "config key 'alpha' must be a finite number, got false"),
        ("cca_batch_size", 16.0, "config key 'cca_batch_size' must be an integer or null, got 16.0"),
        ("s_decoder2", [6, True], "config key 's_decoder2' must be a list of integers or null, got [6, true]"),
        ("regressor", [1, 4], "config key 'regressor' must be an object, got [1, 4]"),
        ("regressor", {"layers": 1}, "unknown regressor key(s): layers"),
        ("regressor", {"hidden": None}, "regressor key 'hidden' must be an integer, got null"),
        ("ablation", 3, "ablation must be one of full, no_sd2, no_cca, no_sd1, no_cca_sd1, "
                        "unimodal, got 3"),
        ("ablation", "fully", "ablation must be one of full, no_sd2, no_cca, no_sd1, "
                              "no_cca_sd1, unimodal, got \"fully\""),
    ], ids=["float-epochs", "float-batch", "float-k", "string-seed", "float-regressor-layers",
            "float-width", "string-bool", "string-lr", "nan-lr", "unknown-key", "k-range", "negative-seed",
            "regressor-output", "bool-as-int", "bool-as-float", "float-as-optional-int", "bool-in-widths",
            "list-as-regressor", "unknown-regressor-key", "null-in-regressor", "int-as-string",
            "unknown-variant"])
    def test_config_file(self, tmp_path, capsys, key, value, fragment):
        cfg = small_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw[key] = value
        cfg.write_text(json.dumps(raw))
        assert run("train", "--data", tmp_path / "unread", "--out", tmp_path / "run", "--config", cfg) == 1
        self.one_error_line(capsys, cfg, fragment)

    def test_flag_values_are_not_blamed_on_the_config_file(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run("train", "--data", tmp_path / "unread", "--out", tmp_path / "run",
                   "--config", cfg, "--seed", -1) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        with pytest.raises(SystemExit) as exc:
            run("train", "--data", tmp_path / "unread", "--out", tmp_path / "run",
                "--config", cfg, "--ablation", "bogus")
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        data = ["--data", tmp_path / "unread"] if command == "train" else []
        assert run(command, *data, "--out", tmp_path / "out", "--seed", -1) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_csv_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1.0,2.0\n3.0,\xff4.0\n")
        assert run("eval", "--truth", path, "--pred", path) == 1
        self.one_error_line(capsys, path, ":2: not UTF-8 text (byte 0xff")
