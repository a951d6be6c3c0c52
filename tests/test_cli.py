"""End-to-end command tests, run in-process against tiny datasets."""

import hashlib
import json
import zipfile

import numpy as np
import pytest

from sew.cli import main
from sew.data import load_features, load_labels, write_csv
from sew.networks import GruRegressorSpec, MlpSpec, assemble_sew, save_model
from sew.training import SewConfig, load_config


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

    def test_ablation_override(self, tmp_path):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path)
        out = tmp_path / "uni"
        assert run("train", "--data", data, "--out", out, "--config", cfg,
                   "--ablation", "unimodal") == 0
        row = (out / "metrics.csv").read_text().splitlines()[2]
        assert row.split(",")[1] == ""  # no translation loss in a unimodal run
        saved = json.loads((out / "config.json").read_text())
        assert saved["ablation"] == "unimodal"

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


class TestAblateCommand:
    def test_writes_full_table(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        cfg = small_config(tmp_path, epochs=1)
        out = tmp_path / "ablate"
        assert run("ablate", "--data", data, "--out", out, "--config", cfg,
                   "--plot-data") == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[1] == "ablation,label,dev_ccc,dev_acc"
        body = [line.split(",") for line in lines[2:]]
        assert [row[0] for row in body] == [
            "full", "no_sd2", "no_cca", "no_sd1", "no_cca_sd1", "unimodal"]
        assert [row[1] for row in body] == [
            "full", "-S_D2", "-CCA", "-S_D1", "-(CCA&S_D1)", "unimodal"]
        for variant in ("full", "unimodal"):
            assert (out / variant / "metrics.csv").exists()
            assert (out / "plots" / f"{variant}.dat").exists()
        table = capsys.readouterr().out
        assert "-(CCA&S_D1)" in table
        assert (out / "ablation.txt").read_text().strip() in table


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
