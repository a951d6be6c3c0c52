"""The benchmark's workloads: two training runs and one uni-modal serving
loop, each driven through sew's public functions.

A workload prepares its inputs from the seed, then repeats whole rounds of
operations: a `train()` call (SGD steps) for the training workloads, one
pass over the frame stream (`predict` calls) for the serving workload.
Every workload checks sew's outputs against `oracles` afterwards.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import zipfile
from pathlib import Path

import numpy as np
from sew import autodiff, dcca, networks, training
from sew import data as sew_data
from sew.autodiff import Node
from sew.data import Dataset, ModalityBatch, SyntheticSpec
from sew.presets import desk_config, desk_spec, pair_config

import oracles
from tracing import FirstStep, LogCounter, StepClock, Tracer, median

SPLIT_FILES = {
    "train": ("train_strong.csv", "train_weak.csv", "train_labels.csv"),
    "dev": ("dev_strong.csv", "dev_weak.csv", "dev_labels.csv"),
}
BLOCKS = ("w_encoder", "s_encoder", "s_decoder1", "s_decoder2", "regressor")
STREAM_FRAMES = 4000     # frames in the serving workload's stream
FD_ENTRIES = 2           # parameter entries per block checked by central differences
FD_EPS = 1e-5
FD_MIN_GRAD = 1e-4       # below this the difference quotient's rounding exceeds 1e-4 relative
ISOLATED_SECONDS = 0.25  # time budget of each isolated forward+backward timing

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "call_ms.p50": "ms",
}
PER_LAYER = {
    "autodiff.backward_ms": "ms",
    "autodiff.zero_grad_ms": "ms",
    "autodiff.sgd_step_ms": "ms",
    "autodiff.nodes_per_step": "count",
    "autodiff.grad_mb_per_step": "MB",
    "autodiff.nodes_per_call": "count",
    **{f"networks.{b}.fwd_ms": "ms" for b in BLOCKS},
    **{f"networks.{b}.fwd_bwd_ms": "ms" for b in BLOCKS},
    "networks.params": "count",
    "networks.live_param_share": "1",
    "networks.load_model_ms": "ms",
    "networks.save_model_ms": "ms",
    "dcca.cca_fwd_ms": "ms",
    "dcca.cca_fwd_bwd_ms": "ms",
    "dcca.skipped_batches": "count",
    "dcca.tie_warnings": "count",
    "data.load_csv_ms": "ms",
    "data.batch_ms": "ms",
    "data.standardize_ms": "ms",
    "training.step_ms.p50": "ms",
    "training.step_ms.p99": "ms",
    "training.sew_loss_self_ms": "ms",
    "training.dev_eval_ms": "ms",
    "training.best_dev_ccc": "1",
    "metrics.evaluate_ms": "ms",
    "trace.overhead_share": "1",
}


def write_dataset_dir(path: Path, train_set: Dataset, dev_set: Dataset) -> None:
    """The six CSVs of the `sew gen-data` layout. dataset.json is optional
    there and is left out: the benchmark has no pending label shift."""
    path.mkdir(parents=True, exist_ok=True)
    for split, ds in (("train", train_set), ("dev", dev_set)):
        for name, matrix in zip(SPLIT_FILES[split], (ds.m_s, ds.m_w, ds.labels)):
            sew_data.write_csv(path / name, matrix)


def load_dataset_dir(path: Path) -> tuple[Dataset, Dataset]:
    """What `sew train --data` reads, through sew's public loaders."""
    splits = []
    for split in ("train", "dev"):
        strong, weak, labels = (path / name for name in SPLIT_FILES[split])
        splits.append(Dataset(sew_data.load_features(strong), sew_data.load_features(weak),
                              sew_data.load_labels(labels)))
    return splits[0], splits[1]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


@dataclasses.dataclass
class Measurement:
    setup_s: list[float] = dataclasses.field(default_factory=list)
    rates: list[float] = dataclasses.field(default_factory=list)  # samples/s, one per round
    call_ms: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)  # why operations failed


class Workload:
    """Prepare once; then start up and run whole rounds for a time budget.

    Every round starts as a fresh `sew` process would: it reads its inputs
    and builds its model, and the time until its first operation is one
    `setup_s` sample. A start-up-only round stops there."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.model = None

    def measure(self, seconds: float, start_ups: int = 0) -> Measurement:
        """Whole rounds for `seconds`, with `start_ups` start-up-only rounds
        split between before and after them: the box's speed shifts over
        seconds, and set-up samples taken in one burst would all see one
        speed, where the rounds' figures see the run's whole length."""
        m = Measurement()
        for _ in range(start_ups // 2):
            self.run_round(m, start_only=True)
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            self.run_round(m)
            took = time.perf_counter() - round_start
            # never start a round that would end past the budget
            if time.perf_counter() - start + took > seconds:
                break
        for _ in range(start_ups - start_ups // 2):
            self.run_round(m, start_only=True)
        return m

    def run_round(self, m: Measurement, start_only: bool = False) -> None:
        raise NotImplementedError

    def probe(self, m: Measurement) -> None:
        """Extra calls for the traced phase's per-layer figures; none by default."""


# --- training --------------------------------------------------------------

class TrainingWorkload(Workload):
    """Load a CSV dataset directory, train, write metrics.csv and model.npz:
    what `sew train --data` does."""

    def config(self):
        raise NotImplementedError

    def datasets(self) -> tuple[Dataset, Dataset]:
        raise NotImplementedError

    def prepare(self, traced: bool = False) -> None:
        self.cfg = self.config()
        self.data_dir = self.workdir / "data"
        self.run_dir = self.workdir / "run"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        write_dataset_dir(self.data_dir, *self.datasets())
        self.history_hashes: set[str] = set()
        self.history = None

    def samples(self, steps: int, n: int) -> int:
        """Frames that `steps` SGD steps of `train()` go through."""
        bs = self.cfg.batch_size
        dropped = 1 if n % bs == 1 else 0  # the batcher drops a batch of one
        per_epoch = -(-n // bs) - dropped
        return steps // per_epoch * (n - dropped) + steps % per_epoch * bs

    def run_round(self, m: Measurement, start_only: bool = False) -> None:
        if not start_only:
            self.model = None  # the last round's model need not stay resident
        # the last round's autodiff graphs are reference cycles: free them
        # before the clock starts, as a fresh process would have none
        gc.collect()
        begin = time.perf_counter()
        self.data = train_set, dev_set = load_dataset_dir(self.data_dir)
        clock = StepClock(stop_at_first_step=start_only)
        clock.install()
        failed = 0
        train_begin = time.perf_counter()
        try:
            model, history = training.train(self.cfg, train_set, dev_set)
        except FirstStep:
            pass
        except Exception as err:  # the step that raised is a failed operation
            failed = 1
            m.errors.append(f"train() raised {err!r}")
        finally:
            clock.uninstall()
        took = time.perf_counter() - train_begin
        if clock.starts:
            m.setup_s.append(clock.starts[0] - begin)
        if start_only:
            return
        steps = len(clock.ends)
        m.attempted += steps + failed
        m.failed += failed
        m.rates.append(self.samples(steps, train_set.n) / took)
        m.call_ms.extend(np.diff(clock.ends) * 1e3)
        if failed:
            return
        training.write_history(self.run_dir / "metrics.csv", history)
        networks.save_model(model, self.run_dir / "model.npz")
        self.history_hashes.add(hashlib.sha256((self.run_dir / "metrics.csv").read_bytes()).hexdigest())
        self.model, self.history = model, history

    def probe(self, m: Measurement) -> None:
        """Reload the saved model and predict the dev frames one by one."""
        frames = self.data[1].m_w
        model = networks.load_model(self.run_dir / "model.npz")
        for j in range(frames.shape[1]):
            model.predict(frames[:, j:j + 1])
        m.attempted += frames.shape[1]

    def check(self) -> list[str]:
        """Compare sew against the oracles; returns the failures."""
        train_set, dev_set = self.data
        cfg = self.cfg
        errors = []
        if len(self.history_hashes) > 1:
            errors.append(f"rounds wrote {len(self.history_hashes)} different metrics.csv files")
        train_std = training.standardize_dataset(train_set, dev_set)[0]
        head = slice(0, cfg.batch_size)
        batch = ModalityBatch(train_std.m_s[:, head], train_std.m_w[:, head], train_std.labels[:, head])
        init = networks.assemble_sew(cfg, cfg.d1, cfg.d2, cfg.seed)

        def loss(model, batch=batch) -> float:
            return training.sew_loss(model, batch, cfg)[0].value[0, 0]

        total, comps = training.sew_loss(init, batch, cfg)
        latents = (init.s_encoder.forward(Node(batch.m_s)).value, init.w_encoder.forward(Node(batch.m_w)).value)
        rho = oracles.canonical_correlations(*latents, cfg.k, cfg.r1, cfg.r2).sum()
        if abs(comps["e3"] + rho) > 1e-8:
            errors.append(f"alignment term {comps['e3']!r} != -canonical correlation {rho!r}")

        autodiff.backward(total)
        rng = np.random.default_rng(self.seed)
        for name, block in init.blocks():
            params = [p for _, p in block.named_parameters(name)]
            live = [np.flatnonzero(np.abs(p.grad) > FD_MIN_GRAD) for p in params]
            offsets = np.cumsum([0] + [ix.size for ix in live])
            for pick in rng.choice(offsets[-1], size=FD_ENTRIES, replace=False):
                j = int(np.searchsorted(offsets, pick, side="right")) - 1
                p = params[j]
                idx = np.unravel_index(live[j][pick - offsets[j]], p.value.shape)
                numeric = oracles.central_difference(lambda: loss(init), p.value, idx, FD_EPS)
                rel = abs(p.grad[idx] - numeric) / abs(p.grad[idx])
                if rel > 1e-4:
                    errors.append(f"{name} grad at {idx}: backward {p.grad[idx]!r}, "
                                  f"central difference {numeric!r} (rel {rel:.2e})")

        if self.model is None:
            return errors  # no round finished; its failure is counted in `failed`
        best = max(r.dev_ccc for r in self.history)
        expected = oracles.ccc(dev_set.labels, self.model.predict(dev_set.m_w))
        if abs(best - expected) > 1e-12:
            errors.append(f"best dev ccc {best!r} != ccc of restored predictions {expected!r}")
        # the whole training set as the fixed batch: on a 32-frame batch the
        # label term of a short run on signal-free data can rise while the
        # training loss falls (pair-geo-audio, seeds 403 and 408)
        whole = ModalityBatch(train_std.m_s, train_std.m_w, train_std.labels)
        before, after = loss(init, whole), loss(self.model, whole)
        if not after < before:
            errors.append(f"loss on the training set {after!r} after training, {before!r} before")
        return errors


class DeskFull(TrainingWorkload):
    """The shipped desk dataset; the training seed is the benchmark seed."""

    def config(self):
        return desk_config(self.seed)

    def datasets(self):
        return sew_data.generate_synthetic(desk_spec())[:2]


PAIR = ("video_geo", "audio")


def pair_data(seed: int, n_train: int, n_dev: int):
    cfg = pair_config(*PAIR)
    spec = SyntheticSpec(d1=cfg.d1, d2=cfg.d2, n_samples=n_train, n_dev=n_dev, seed=seed)
    return sew_data.generate_synthetic(spec)[:2]


class PairGeoAudio(TrainingWorkload):
    """Published video_geo -> audio layers on synthetic data of those widths."""

    epochs, n_train, n_dev = 2, 2000, 500

    def config(self):
        return pair_config(*PAIR, epochs=self.epochs, seed=self.seed)

    def datasets(self):
        return pair_data(self.seed, self.n_train, self.n_dev)


class DeployTraining(PairGeoAudio):
    """The short training run that produces the served model; its dev draw
    also yields the frame stream."""

    epochs, n_train, n_dev = 1, 1024, 256

    def datasets(self):
        train_set, dev_set = pair_data(self.seed, self.n_train, self.n_dev + STREAM_FRAMES)
        dev, stream = slice(0, self.n_dev), slice(self.n_dev, None)
        self.stream = dev_set.m_w[:, stream], dev_set.labels[:, stream]
        return train_set, Dataset(dev_set.m_s[:, dev], dev_set.m_w[:, dev], dev_set.labels[:, dev])


def prepare_deployment(workdir: Path, seed: int, traced: bool) -> None:
    """Train the pairing briefly, export W_E + R, write the frame stream.

    Runs in a process of its own. Traced, it also writes the per-layer
    figures of its training to layers.json, for the layers serving never
    runs."""
    wl = DeployTraining(seed, workdir)
    wl.prepare()
    counter = LogCounter()
    tracer = Tracer()
    counter.attach()
    if traced:
        tracer.install()
    try:
        m = wl.measure(0.0)
        training.export_deployment(wl.model, workdir / "deploy.npz")
    finally:
        tracer.uninstall()
        counter.detach()
    sew_data.write_csv(workdir / "stream_weak.csv", wl.stream[0])
    sew_data.write_csv(workdir / "stream_labels.csv", wl.stream[1])
    if traced:
        (workdir / "layers.json").write_text(json.dumps(layer_metrics(wl, tracer, counter, m)))


# --- serving ---------------------------------------------------------------

class DeployStream(Workload):
    """One caller feeds a weak-feature stream, one frame per predict call, to
    the exported W_E + R model of the video_geo -> audio pairing.

    The model is trained and exported by a separate process, so this
    process's memory holds only what serving needs."""

    def prepare(self, traced: bool) -> None:
        self.cfg = pair_config(*PAIR, seed=self.seed)
        self.model_path = self.workdir / "deploy.npz"
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", "deploy-stream",
               "--seed", str(self.seed), "--trace", str(int(traced)), "--prepare-into", str(self.workdir),
               "--blas-threads", os.environ.get("OPENBLAS_NUM_THREADS", "default")]
        subprocess.run(cmd, check=True, timeout=170)
        self.passes: list[np.ndarray] = []

    def run_round(self, m: Measurement, start_only: bool = False) -> None:
        self.model = None  # a fresh serving process holds one model
        gc.collect()
        begin = time.perf_counter()
        self.model = networks.load_model(self.model_path)
        self.frames, _ = sew_data.load_csv(self.workdir / "stream_weak.csv", self.workdir / "stream_labels.csv")
        m.setup_s.append(time.perf_counter() - begin)
        if start_only:
            return
        n = self.frames.shape[1]
        out = np.full(n, np.nan)
        latencies = []
        pass_start = time.perf_counter()
        for i in range(n):
            col = self.frames[:, i:i + 1]
            start = time.perf_counter()
            try:
                y = self.model.predict(col)
            except Exception as err:  # a failed call is counted, and the stream goes on
                m.failed += 1
                m.errors.append(f"predict of frame {i} raised {err!r}")
                continue
            latencies.append((time.perf_counter() - start) * 1e3)
            out[i] = y[0, 0]
        m.rates.append(len(latencies) / (time.perf_counter() - pass_start))
        m.call_ms.extend(latencies)
        m.attempted += n
        self.passes.append(out)

    def check(self) -> list[str]:
        frames = self.frames
        errors = []
        with zipfile.ZipFile(self.model_path) as zf:
            members = zf.namelist()
        meta, arrays = oracles.read_model_file(self.model_path)
        strong = [n for n in members if n.startswith(("s_encoder", "s_decoder", "scaler_strong"))]
        if strong or set(meta["blocks"]) != {"w_encoder", "regressor"} or meta["scalers"] != ["scaler_weak"]:
            errors.append(f"deployment file holds strong-side parts: {strong or meta}")
        expected = oracles.deployment_forward(arrays, frames)[0]
        batched = self.model.predict(frames)[0]
        for k, out in enumerate(self.passes):
            ok = ~np.isnan(out)  # frames whose predict failed are counted in `failed`
            worst = float(np.abs(out - expected)[ok].max(initial=0.0))
            if worst > 1e-12:
                errors.append(f"pass {k}: predictions differ from the deployment equations by {worst:.3e}")
            worst = float(np.abs(out - batched)[ok].max(initial=0.0))
            if worst > 1e-12:
                errors.append(f"pass {k}: per-frame predictions differ from one batched call by {worst:.3e}")
        return errors


# --- per-layer figures -----------------------------------------------------

def isolated_timings(cfg, seed: int) -> dict[str, float]:
    """Forward+backward of each block and of the alignment term on fixed
    random batches at the config's scale, in ms (median of repeats)."""
    model = networks.assemble_sew(cfg, cfg.d1, cfg.d2, seed)
    rng = np.random.default_rng(seed)

    def timed(build) -> float:
        times = []
        budget = time.perf_counter() + ISOLATED_SECONDS
        while len(times) < 5 or time.perf_counter() < budget:
            start = time.perf_counter()
            autodiff.backward(build())
            times.append((time.perf_counter() - start) * 1e3)
        return median(times)

    out = {}
    for name, block in model.blocks():
        x = rng.standard_normal((block.input_dim, cfg.batch_size))
        out[f"networks.{name}.fwd_bwd_ms"] = timed(lambda: autodiff.sum_all(block.forward(Node(x))))
    a, b = (rng.standard_normal((cfg.latent_dim, cfg.batch_size)) for _ in range(2))
    out["dcca.cca_fwd_bwd_ms"] = timed(lambda: dcca.cca_correlation(Node(a), Node(b), cfg.k, cfg.r1, cfg.r2))
    return out


def layer_metrics(wl: Workload, tracer: Tracer, counter: LogCounter, m: Measurement) -> dict[str, float]:
    """Per-layer figures from the spans of one traced phase. A figure the
    phase gives no sample of is left out."""
    op_parent = "networks.deployment_forward" if isinstance(wl, DeployStream) else "training.sew_loss"
    samples = {
        "autodiff.backward_ms": tracer.durations("autodiff.backward"),
        "autodiff.zero_grad_ms": tracer.durations("autodiff.zero_grad"),
        "autodiff.sgd_step_ms": tracer.durations("autodiff.sgd_step"),
        "autodiff.nodes_per_step": tracer.nodes_per_step,
        "autodiff.grad_mb_per_step": [b / 1e6 for b in tracer.grad_bytes_per_step],
        "autodiff.nodes_per_call": tracer.nodes_per_call,
        "networks.load_model_ms": tracer.durations("networks.load_model"),
        "networks.save_model_ms": tracer.durations("networks.save_model"),
        "dcca.cca_fwd_ms": tracer.durations("dcca.cca_correlation"),
        "data.batch_ms": tracer.durations("data.batch"),
        "data.standardize_ms": tracer.durations("data.standardize"),
        "training.sew_loss_self_ms": tracer.self_durations("training.sew_loss"),
        "metrics.evaluate_ms": tracer.durations("metrics.evaluate"),
        **{f"networks.{b}.fwd_ms": tracer.durations(f"networks.{b}.fwd", op_parent) for b in BLOCKS},
    }
    out = {name: median(v) for name, v in samples.items() if v}
    loads = tracer.durations("data.load_csv")
    if loads:
        out["data.load_csv_ms"] = sum(loads) / len(m.setup_s)
    steps = tracer.durations("training.step")
    if steps:
        out["training.step_ms.p50"] = percentile(steps, 50)
        out["training.step_ms.p99"] = percentile(steps, 99)
    evals = tracer.durations("metrics.evaluate", "training.train")
    if evals:
        forwards = tracer.durations("networks.deployment_forward", "training.train")
        out["training.dev_eval_ms"] = (sum(forwards) + sum(evals)) / len(evals)
    if tracer.live:
        out["networks.live_param_share"] = tracer.live_param_share()
    if wl.model is not None:
        out["networks.params"] = sum(p.value.size for _, p in wl.model.named_parameters())
    if isinstance(wl, TrainingWorkload):
        out["training.best_dev_ccc"] = max(r.dev_ccc for r in wl.history)
        out["dcca.skipped_batches"] = counter.counts["dcca.skipped_batches"]
        out["dcca.tie_warnings"] = counter.counts["dcca.tie_warnings"]
    return out


WORKLOADS = {"desk-full": DeskFull, "pair-geo-audio": PairGeoAudio, "deploy-stream": DeployStream}
# start-up-only rounds per run, so that setup_s is a median of enough start-ups
START_UPS = {"desk-full": 10, "pair-geo-audio": 4, "deploy-stream": 10}


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path,
                 out_dir: Path) -> tuple[dict, dict]:
    """One run: prepare, measure, check. Returns the result object and notes
    for the run's record (failed operations, check failures, the metrics.csv
    hash)."""
    wl = WORKLOADS[name](seed, workdir)
    wl.prepare(traced)
    notes = {}
    counter = LogCounter()
    counter.attach()
    try:
        if traced:
            metrics, phases = traced_run(wl, seconds, counter, out_dir / f"{name}-seed{seed}-spans.json")
            units = PER_LAYER
        else:
            m = wl.measure(seconds, START_UPS[name])
            metrics = {
                "setup_s": median(m.setup_s),
                "samples_per_s": median(m.rates),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "call_ms.p50": percentile(m.call_ms, 50),
            }
            phases, units = [m], END_TO_END
            notes["samples"] = {"setup_s": m.setup_s, "samples_per_s": m.rates}
            # too unsteady on a shared box to carry a bound; kept in the run record
            notes["tail"] = {"call_ms.p99": percentile(m.call_ms, 99), "calls": len(m.call_ms)}
        notes["errors"] = errors = wl.check()
    finally:
        counter.detach()
    if set(metrics) != set(units):
        raise RuntimeError(f"{name}: metrics {sorted(set(units) ^ set(metrics))} missing or undeclared")
    notes["failures"] = failures = [e for m in phases for e in m.errors]
    for err in failures:
        print(f"FAILED [{name}]: {err}", file=sys.stderr)
    for err in errors:
        print(f"CHECK FAILED [{name}]: {err}", file=sys.stderr)
    result = {"correct": not errors, "attempted": sum(m.attempted for m in phases),
              "failed": sum(m.failed for m in phases),
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in sorted(metrics.items())}}
    if isinstance(wl, TrainingWorkload):
        notes["metrics_csv_sha256"] = sorted(wl.history_hashes)
    return result, notes


def traced_run(wl: Workload, seconds: float, counter: LogCounter,
               spans_path: Path) -> tuple[dict, list[Measurement]]:
    """Half the budget untraced, half traced; the rate ratio is the overhead."""
    base = wl.measure(seconds / 2)
    counter.counts.clear()
    tracer = Tracer()
    tracer.install()
    try:
        m = wl.measure(seconds / 2)
        wl.probe(m)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    layers = layer_metrics(wl, tracer, counter, m)
    if isinstance(wl, DeployStream):
        # training-side layers come from the run that trained the served model
        for k, v in json.loads((wl.workdir / "layers.json").read_text()).items():
            layers.setdefault(k, v)
    layers.update(isolated_timings(wl.cfg, wl.seed))
    layers["trace.overhead_share"] = 1.0 - median(m.rates) / median(base.rates)
    return layers, [base, m]
