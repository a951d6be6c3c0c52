"""Acceptance gate: the eight checks this package must pass before a release.

Each test prints one PASS/FAIL line (visible under pytest -s) and enforces
its own runtime budget. Criteria 4 and 5 share one set of training runs.
"""

import time

import numpy as np
import pytest

from _oracles import classical_cca_oracle, fd_gradients, rel_errors
from sew import autodiff as ad
from sew.autodiff import Node, backward, make_rng
from sew.data import Dataset, apply_shift
from sew.dcca import cca_correlation
from sew.errors import ConditioningError
from sew.metrics import ccc, evaluate
from sew.networks import GruRegressorSpec, MlpSpec, assemble_sew, load_model, save_model
from sew.presets import desk_config, desk_spec
from sew.data import generate_synthetic
from sew.training import SewConfig, export_deployment, sew_loss, train, write_history

MARGIN = 0.03  # frozen after calibration of the shipped synthetic dataset
SEEDS = (0, 1, 2, 3, 4)

_cache = {}


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def budget(num, name, started, limit_s):
    elapsed = time.monotonic() - started
    report(num, f"{name} runtime", elapsed < limit_s, f"{elapsed:.1f}s of {limit_s:.0f}s budget")


def grad_check_config(seed):
    return SewConfig(
        latent_dim=2,
        d1=4,
        d2=3,
        w_encoder=MlpSpec((2,)),
        s_decoder1=MlpSpec((4,)),
        s_encoder=MlpSpec((2,)),
        s_decoder2=MlpSpec((4,)),
        regressor=GruRegressorSpec(num_layers=1, hidden=3),
        k=2,
        r1=1e-2,
        r2=1e-2,
        seed=seed,
    )


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    counts = {}  # loss name -> [params ok, params total]

    for seed in range(10):
        cfg = grad_check_config(seed)
        model = assemble_sew(cfg, cfg.d1, cfg.d2, seed)
        rng = make_rng(seed, 100)
        m_s = rng.standard_normal((4, 8))
        m_w = rng.standard_normal((3, 8))
        labels = rng.uniform(-1, 1, (1, 8))

        batch = Dataset(m_s, m_w, labels)

        def translation():
            return ad.mse_loss(model.s_decoder1.forward(model.w_encoder.forward(Node(m_w))), m_s)

        def autoencoding():
            return ad.mse_loss(model.s_decoder2.forward(model.s_encoder.forward(Node(m_s))), m_s)

        def alignment():
            rho = cca_correlation(
                model.s_encoder.forward(Node(m_s)), model.w_encoder.forward(Node(m_w)),
                cfg.k, cfg.r1, cfg.r2)
            return ad.scalar_mul(rho, -1.0)

        def prediction():
            return ad.mse_loss(model.regressor.forward(model.w_encoder.forward(Node(m_w))), labels)

        def combined():
            return sew_loss(model, batch, cfg)[0]

        cases = {
            "translation": (translation, ("w_encoder", "s_decoder1")),
            "autoencoding": (autoencoding, ("s_encoder", "s_decoder2")),
            "alignment": (alignment, ("s_encoder", "w_encoder")),
            "prediction": (prediction, ("w_encoder", "regressor")),
            "combined": (combined, ("w_encoder", "s_decoder1", "s_encoder", "s_decoder2", "regressor")),
        }
        for name, (build, block_names) in cases.items():
            params = [p for pn, p in model.named_parameters() if pn.startswith(block_names)]
            for p in model.named_parameters():
                p[1].zero_grad()
            backward(build())
            ok_here = total_here = 0
            for p, g in zip(params, fd_gradients(build, params, h=1e-5)):
                errs = rel_errors(p.grad, g)
                ok_here += int((errs < 1e-4).sum())
                total_here += errs.size
            ok, total = counts.get(name, (0, 0))
            counts[name] = (ok + ok_here, total + total_here)

    for name, (ok, total) in counts.items():
        frac = ok / total
        report(1, f"gradient correctness [{name}]", frac >= 0.99,
               f"{ok}/{total} params within 1e-4 rel error over 10 seeds")
    budget(1, "gradient correctness", started, 30.0)


def test_criterion_2_cca_oracle_equivalence():
    started = time.monotonic()
    worst = 0.0
    for i in range(20):
        rng = make_rng(i, 101)
        d = int(rng.integers(2, 7))
        p = 500
        z = rng.standard_normal((d, p))
        x = rng.standard_normal((d, d)) @ z + 0.5 * rng.standard_normal((d, p))
        y = rng.standard_normal((d, d)) @ z + 0.5 * rng.standard_normal((d, p))
        k = int(rng.integers(1, d + 1))
        fwd = cca_correlation(Node(x), Node(y), k, r1=0.0, r2=0.0).value[0, 0]
        oracle = classical_cca_oracle(x, y, k).sum()
        worst = max(worst, abs(fwd - oracle))
    report(2, "forward equals eigen-oracle", worst <= 1e-8,
           f"worst |difference| {worst:.2e} over 20 instances")

    x = make_rng(99, 101).standard_normal((4, 500))
    sat = cca_correlation(Node(x), Node(x.copy()), k=4, r1=0.0, r2=0.0).value[0, 0]
    report(2, "identical views saturate", abs(sat - 4.0) <= 1e-8, f"rho {sat:.12f} for k=4")

    rng = make_rng(100, 101)
    a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    y = rng.standard_normal((4, 500))
    base = cca_correlation(Node(x), Node(y), k=3, r1=0.0, r2=0.0).value[0, 0]
    mapped = cca_correlation(Node(a @ x), Node(y), k=3, r1=0.0, r2=0.0).value[0, 0]
    report(2, "invariance under invertible transforms", abs(base - mapped) <= 1e-8,
           f"|difference| {abs(base - mapped):.2e}")
    budget(2, "cca oracle equivalence", started, 10.0)


def test_criterion_3_ccc_suite():
    started = time.monotonic()
    x = make_rng(0, 102).standard_normal(100)
    checks = [
        ("ccc(x, x) = 1", abs(ccc(x, x) - 1.0) <= 1e-12),
        ("ccc([1,2,3], [3,2,1]) = -1", abs(ccc([1, 2, 3], [3, 2, 1]) + 1.0) <= 1e-12),
        ("constant vs shifted constant = 0", ccc([0.0, 0.0], [1.0, 1.0]) == 0.0),
    ]
    rng = make_rng(1, 102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 200))
        xs = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
        c = rng.uniform(-5.0, 5.0)
        v = xs.var()
        worst = max(worst, abs(ccc(xs, xs + c) - 2.0 * v / (2.0 * v + c * c)))
    checks.append((f"ccc(x, x+c) closed form (worst err {worst:.2e})", worst <= 1e-12))
    for name, ok in checks:
        report(3, name, ok)
    budget(3, "ccc suite", started, 1.0)


def desk_sets():
    if "data" not in _cache:
        train_set, dev_set, _ = generate_synthetic(desk_spec())
        _cache["data"] = (train_set, dev_set)
    return _cache["data"]


def variant_cccs(ablation):
    """Best dev CCC for each training seed, memoized across criteria."""
    key = ("ccc", ablation)
    if key not in _cache:
        train_set, dev_set = desk_sets()
        values = []
        for seed in SEEDS:
            cfg = desk_config(seed=seed, ablation=ablation)
            _, history = train(cfg, train_set, dev_set)
            values.append(max(r.dev_ccc for r in history))
        _cache[key] = values
    return _cache[key]


def test_criterion_4_transfer_beats_unimodal():
    started = time.monotonic()
    full = variant_cccs("full")
    uni = variant_cccs("unimodal")
    stripped = variant_cccs("no_cca_sd1")
    med_full, med_uni, med_stripped = (float(np.median(v)) for v in (full, uni, stripped))
    report(4, "median dev CCC, full transfer vs unimodal",
           med_full > med_uni + MARGIN,
           f"full {med_full:.4f} vs unimodal {med_uni:.4f}, frozen margin {MARGIN}")
    report(4, "median dev CCC, full transfer vs stripped variant",
           med_full >= med_stripped,
           f"full {med_full:.4f} vs -(CCA&S_D1) {med_stripped:.4f}")
    budget(4, "transfer advantage", started, 600.0)


def test_criterion_5_stripped_variant_matches_unimodal():
    uni = variant_cccs("unimodal")
    stripped = variant_cccs("no_cca_sd1")
    med = float(np.median(stripped))
    lo, hi = min(uni), max(uni)
    report(5, "-(CCA&S_D1) sits in the unimodal 5-seed range",
           lo <= med <= hi, f"{med:.4f} in [{lo:.4f}, {hi:.4f}]")


def test_criterion_6_deployment_export_fidelity(tmp_path):
    started = time.monotonic()
    train_set, dev_set = desk_sets()
    cfg = desk_config(epochs=2)
    model, _ = train(cfg, train_set, dev_set)

    full_path = tmp_path / "model.npz"
    save_model(model, full_path)
    deploy_path = tmp_path / "deploy.npz"
    export_deployment(load_model(full_path), deploy_path)
    deployed = load_model(deploy_path)

    weak_only = dev_set.m_w  # 1000 raw weaker-modality samples, no strong side
    assert weak_only.shape[1] == 1000
    reference = model.predict(weak_only)
    roundtrip = deployed.predict(weak_only)
    worst = float(np.abs(reference - roundtrip).max())
    report(6, "export reproduces the training model", worst <= 1e-12,
           f"max |difference| {worst:.2e} on 1000 samples")
    result = evaluate(dev_set.labels, roundtrip)
    report(6, "weak-only evaluation succeeds", np.isfinite(result.ccc),
           f"dev ccc {result.ccc:.4f} with no stronger-modality input")
    budget(6, "deployment export fidelity", started, 5.0)


def test_criterion_7_label_shift_arithmetic():
    started = time.monotonic()
    n = 100
    frames = np.arange(n, dtype=float).reshape(1, n)
    labels = frames / n
    paired, shifted = apply_shift(frames, labels, shift_seconds=2.4, frame_step_seconds=0.04)
    offset = n - shifted.shape[1]
    report(7, "2.4 s shift at 40 ms frames is 60 frames", offset == 60, f"offset {offset}")
    report(7, "pair count is n - 60", shifted.shape == (1, n - 60), f"shape {shifted.shape}")
    aligned = all(paired[0, t] == t and shifted[0, t] == labels[0, t + 60] for t in range(n - 60))
    report(7, "feature frame t pairs with label frame t+60", aligned)
    budget(7, "label shift arithmetic", started, 1.0)


def test_criterion_8_training_determinism(tmp_path):
    started = time.monotonic()
    train_set, dev_set = desk_sets()
    cfg = desk_config(seed=0, ablation="full")
    paths = []
    for name in ("a", "b"):
        _, history = train(cfg, train_set, dev_set)
        path = tmp_path / f"metrics_{name}.csv"
        write_history(path, history)
        paths.append(path)
    same = paths[0].read_bytes() == paths[1].read_bytes()
    report(8, "identical runs produce identical epoch-metric CSVs", same,
           f"{len(paths[0].read_bytes())} bytes each")
    budget(8, "training determinism", started, 120.0)
