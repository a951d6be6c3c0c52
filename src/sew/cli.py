"""Command line interface: synthetic data generation, training, the
ablation sweep, evaluation, and deployment export.

Dataset directories use a fixed layout (written by gen-data, or assembled
by hand for real feature dumps):

    train_strong.csv  train_weak.csv  train_labels.csv
    dev_strong.csv    dev_weak.csv    dev_labels.csv
    dataset.json      (metadata; set "shift_pending": true to have the
                       configured label shift applied at load time)
    .sew-cache/       (written by the loaders: each CSV's parsed table,
                       keyed by its content; see sew.data)
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .data import (
    Dataset,
    SyntheticSpec,
    apply_shift,
    check_json_fields,
    generate_synthetic,
    load_csv,
    load_features,
    load_labels,
    write_csv,
)
from .errors import ConfigError, DataError, SewError
from .metrics import evaluate
from .networks import load_model, save_model
from .presets import desk_config
from .training import (
    ABLATIONS,
    _read_json_object,
    build_from_file,
    export_deployment,
    format_ablation_table,
    load_config,
    run_ablation_suite,
    train,
    with_variant,
    write_ablation_csv,
    write_history,
)

log = logging.getLogger("sew.cli")

_SPLIT_FILES = {
    "train": ("train_strong.csv", "train_weak.csv", "train_labels.csv"),
    "dev": ("dev_strong.csv", "dev_weak.csv", "dev_labels.csv"),
}


def _load_split(data_dir: Path, split: str, shift_seconds: float | None, frame_step_seconds: float) -> Dataset:
    strong_f, weak_f, labels_f = (data_dir / name for name in _SPLIT_FILES[split])
    for path in (strong_f, weak_f, labels_f):
        if not path.exists():
            raise DataError(f"{data_dir} is missing {path.name}")
    meta_path = data_dir / "dataset.json"
    meta = _read_json_object(meta_path, DataError) if meta_path.exists() else {}
    pending = meta.get("shift_pending", False)
    if not isinstance(pending, bool):
        raise DataError(f"{meta_path}: shift_pending must be true or false, got {json.dumps(pending)}")
    if pending and shift_seconds is None:
        raise ConfigError(f"{meta_path} sets shift_pending: give --shift-seconds, the shift training applied")
    strong = load_features(strong_f)
    weak = load_features(weak_f)
    labels = load_labels(labels_f)
    for path, frames in ((strong_f, strong), (weak_f, weak)):
        if frames.shape[1] != labels.shape[1]:
            raise DataError(f"{data_dir} ({split} split): {path.name} has {frames.shape[1]} frames "
                            f"but {labels_f.name} has {labels.shape[1]}")
    try:
        if pending and shift_seconds > 0:
            strong, _ = apply_shift(strong, labels, shift_seconds, frame_step_seconds)
            weak, labels = apply_shift(weak, labels, shift_seconds, frame_step_seconds)
            log.info("%s/%s: applied %g s label shift, %d pairs", data_dir, split, shift_seconds, labels.shape[1])
        return Dataset(strong, weak, labels)
    except DataError as err:
        raise DataError(f"{data_dir} ({split} split): {labels_f.name}: {err}") from None


def _resolve_config(args):
    seed = {"seed": args.seed} if args.seed is not None else {}
    config = load_config(args.config, seed) if args.config else desk_config(**seed)
    # the variant zeroes its loss weights on top of the config's
    return with_variant(config, getattr(args, "ablation", "full")), args.config or None


def _write_manifest(out_dir: Path, config, config_path, fingerprint: str) -> str:
    """Record what a run is about to do; the hash covers config and data
    but not the timestamp, so reruns of the same job agree on it."""
    resolved = config.to_dict()
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    run_hash = hashlib.sha256((canonical + fingerprint).encode()).hexdigest()
    manifest = {
        "hash": run_hash,
        "config": resolved,
        "config_path": config_path,
        "dataset_fingerprint": fingerprint,
        "out_dir": str(out_dir),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return run_hash


def _spec_from_dict(raw: dict) -> SyntheticSpec:
    check_json_fields(SyntheticSpec, raw, "dataset")
    return SyntheticSpec(**raw)


def cmd_gen_data(args) -> int:
    flags = {
        "latent_dim": args.latent_dim, "d1": args.d1, "d2": args.d2,
        "noise_strong": args.noise_strong, "noise_weak": args.noise_weak,
        "weak_info_loss": args.weak_info_loss, "nonlinearity": args.depth,
        "n_samples": args.n_train, "n_dev": args.n_dev, "seed": args.seed,
    }
    spec = build_from_file(_spec_from_dict, args.config, flags)
    train_set, dev_set, truth = generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for split, ds in (("train", train_set), ("dev", dev_set)):
        strong_f, weak_f, labels_f = _SPLIT_FILES[split]
        write_csv(out / strong_f, ds.m_s)
        write_csv(out / weak_f, ds.m_w)
        write_csv(out / labels_f, ds.labels)
    meta = {
        "format": 1,
        "spec": dataclasses.asdict(spec),
        "shift_pending": False,
        "masked_latent_coords": truth["masked_coords"],
        "fingerprints": {"train": train_set.fingerprint(), "dev": dev_set.fingerprint()},
    }
    with open(out / "dataset.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}: train {train_set.n} x (d1={train_set.d1}, d2={train_set.d2}), dev {dev_set.n}")
    return 0


def _prepare_run(args):
    config, config_path = _resolve_config(args)
    data_dir = Path(args.data)
    train_set = _load_split(data_dir, "train", config.shift_seconds, config.frame_step_seconds)
    dev_set = _load_split(data_dir, "dev", config.shift_seconds, config.frame_step_seconds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fingerprint = hashlib.sha256((train_set.fingerprint() + dev_set.fingerprint()).encode()).hexdigest()
    run_hash = _write_manifest(out, config, config_path, fingerprint)
    config.save(out / "config.json")
    return config, train_set, dev_set, out, run_hash


def cmd_train(args) -> int:
    config, train_set, dev_set, out, run_hash = _prepare_run(args)
    model, history = train(config, train_set, dev_set)
    write_history(out / "metrics.csv", history, run_hash)
    save_model(model, out / "model.npz")
    if not history:
        print(f"wrote {out}/model.npz (0 epochs trained)")
        return 0
    best = max(history, key=lambda r: r.dev_ccc)
    print(f"best epoch {best.epoch}: dev ccc {best.dev_ccc:.4f}, acc {best.dev_acc:.2f}% "
          f"({len(history)} epochs; model at {out}/model.npz)")
    return 0


def cmd_ablate(args) -> int:
    config, train_set, dev_set, out, run_hash = _prepare_run(args)
    rows = run_ablation_suite(config, train_set, dev_set)
    write_ablation_csv(out / "ablation.csv", rows, run_hash)
    table = format_ablation_table(rows)
    (out / "ablation.txt").write_text(table + "\n")
    for row in rows:
        variant_dir = out / row.ablation
        variant_dir.mkdir(exist_ok=True)
        write_history(variant_dir / "metrics.csv", row.history, run_hash)
    print(table)
    return 0


def _check_frames(source: str, truth) -> None:
    """The concordance metric needs two frames; name the input that has fewer."""
    if truth.shape[1] < 2:
        raise DataError(f"{source}: {truth.shape[1]} frame(s); evaluation needs at least 2")


def cmd_eval(args) -> int:
    modes = [bool(args.truth or args.pred), bool(args.features or args.labels), bool(args.data)]
    if sum(modes) != 1:
        raise ConfigError("eval needs exactly one input mode: --truth/--pred, "
                          "--model with --features/--labels, or --model with --data")
    if args.truth or args.pred:
        if not (args.truth and args.pred):
            raise ConfigError("--truth and --pred go together")
        truth = load_labels(args.truth)
        preds = load_labels(args.pred)
        if truth.shape[1] != preds.shape[1]:
            raise DataError(f"{args.truth} has {truth.shape[1]} rows but {args.pred} has {preds.shape[1]}")
        _check_frames(f"{args.truth}, {args.pred}", truth)
    else:
        if not args.model:
            raise ConfigError("--model is required when evaluating from features")
        model = load_model(args.model)
        if args.data:
            ds = _load_split(Path(args.data), args.split, args.shift_seconds, args.frame_step_seconds)
            feats, truth = ds.m_w, ds.labels
            _check_frames(f"{args.data} ({args.split} split)", truth)
        else:
            if not (args.features and args.labels):
                raise ConfigError("--features and --labels go together")
            feats, truth = apply_shift(*load_csv(args.features, args.labels),
                                       args.shift_seconds or 0.0, args.frame_step_seconds)
            _check_frames(f"{args.features}, {args.labels}", truth)
        preds = model.predict(feats)
        if args.pred_out:
            write_csv(args.pred_out, preds)
    result = evaluate(truth, preds, args.sample_variance)
    print(result.row())
    return 0


def cmd_export(args) -> int:
    model = load_model(args.model)
    export_deployment(model, args.out)
    print(f"wrote deployment model (weak encoder + regressor) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sew",
        description="Train a weaker-modality regressor with stronger-modality "
                    "supervision; deploy it uni-modally.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic two-modality dataset directory")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--config", help="JSON file of dataset spec fields")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--latent-dim", type=int, default=None)
    p.add_argument("--d1", type=int, default=None, help="stronger-modality dimension")
    p.add_argument("--d2", type=int, default=None, help="weaker-modality dimension")
    p.add_argument("--noise-strong", type=float, default=None)
    p.add_argument("--noise-weak", type=float, default=None)
    p.add_argument("--weak-info-loss", type=float, default=None)
    p.add_argument("--depth", type=int, default=None, help="tanh mixing depth")
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--n-dev", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    for name, fn in (("train", cmd_train), ("ablate", cmd_ablate)):
        p = sub.add_parser(name, help=f"{name} on a dataset directory")
        p.add_argument("--data", required=True, help="dataset directory (gen-data layout)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file (defaults: desk-scale synthetic config)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "train":
            p.add_argument("--ablation", default="full", choices=ABLATIONS,
                           help="variant to train: the config with that variant's loss weights at 0")
        p.set_defaults(func=fn)

    p = sub.add_parser("eval", help="score predictions or run a model over features")
    p.add_argument("--model", help="model file (training or deployment)")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--split", choices=("train", "dev"), default="dev")
    p.add_argument("--features", help="weaker-modality feature CSV")
    p.add_argument("--labels", help="label CSV")
    p.add_argument("--truth", help="truth CSV (with --pred: score without a model)")
    p.add_argument("--pred", help="prediction CSV")
    p.add_argument("--pred-out", help="write model predictions to this CSV")
    p.add_argument("--shift-seconds", type=float, help="required with --data on a shift_pending dataset")
    p.add_argument("--frame-step-seconds", type=float, default=0.04)
    p.add_argument("--sample-variance", action="store_true",
                   help="use n-1 estimators inside the concordance metric")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="strip a trained model to its deployment blocks")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SEW_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SewError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
