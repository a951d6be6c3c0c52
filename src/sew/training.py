"""The training loop: loss composition over the four terms, minibatch SGD
with dev-set model selection, the ablation suite, and deployment export."""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Sgd, make_rng
from .data import Dataset, batcher, check_json_fields, keys_checked, standardize_dataset
from .dcca import cca_correlation
from .errors import ConditioningError, ConfigError, DataError, NumericError
from .networks import BLOCKS, GruRegressorSpec, MlpSpec, SewModel, assemble_sew, save_model

log = logging.getLogger("sew.training")

_STREAM_BATCHES = 21
_STREAM_CCA_POOL = 22

# variant -> (report label, loss weights it sets to zero); a variant is the
# config's own run with those terms dropped
_VARIANTS = {
    "full": ("full", ()),
    "no_sd2": ("-S_D2", ("beta",)),
    "no_cca": ("-CCA", ("gamma",)),
    "no_sd1": ("-S_D1", ("alpha",)),
    "no_cca_sd1": ("-(CCA&S_D1)", ("alpha", "gamma")),
    "unimodal": ("unimodal", ("alpha", "beta", "gamma")),
}
ABLATIONS = tuple(_VARIANTS)

# blocks each loss term trains (l1 and l3 also run W_E, which comes with l4)
_TERM_BLOCKS = {
    "l1": ("s_decoder1",),
    "l2": ("s_encoder", "s_decoder2"),
    "l3": ("s_encoder",),
    "l4": ("w_encoder", "regressor"),
}


@keys_checked("config")
@dataclass(frozen=True)
class SewConfig:
    """Everything one training run depends on besides the data itself."""

    latent_dim: int
    d1: int
    d2: int
    w_encoder: MlpSpec
    s_decoder1: MlpSpec | None = None
    s_encoder: MlpSpec | None = None
    s_decoder2: MlpSpec | None = None
    regressor: GruRegressorSpec = GruRegressorSpec()
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    k: int = 10
    r1: float = 1e-4
    r2: float = 1e-4
    lr: float = 0.001
    momentum: float = 0.7
    weight_decay: float = 1e-4
    batch_size: int = 32
    cca_batch_size: int | None = None
    epochs: int = 50
    patience: int = 10
    seed: int = 0
    sample_variance_ccc: bool = False
    frame_step_seconds: float = 0.04
    shift_seconds: float = 2.4

    def __post_init__(self):
        saved = self.to_dict()
        check_json_fields(SewConfig, saved, "config")
        # a block spec given in its saved form, as a config file holds it
        for key, value in saved.items():
            if type(getattr(self, key)) in (list, dict):
                object.__setattr__(self, key, MlpSpec(value) if type(value) is list else GruRegressorSpec(**value))
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigError("loss weights alpha, beta, gamma must be >= 0")
        if not 1 <= self.k <= self.latent_dim:
            raise ConfigError(f"k must be in [1, latent_dim={self.latent_dim}], got {self.k}")
        if self.r1 < 0 or self.r2 < 0:
            raise ConfigError(f"r1, r2 must be >= 0, got {self.r1}, {self.r2}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.cca_batch_size is not None and self.cca_batch_size < 2:
            raise ConfigError(f"cca_batch_size must be >= 2, got {self.cca_batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.frame_step_seconds <= 0:
            raise ConfigError(f"frame_step_seconds must be > 0, got {self.frame_step_seconds}")
        if self.shift_seconds < 0:
            raise ConfigError(f"shift_seconds must be >= 0, got {self.shift_seconds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in sorted(self.blocks):
            spec, target = getattr(self, name), BLOCKS[name][2]
            if spec is None:
                raise ConfigError(f"the active loss terms need a spec for {name}")
            if target and spec.output_dim != getattr(self, target):
                raise ConfigError(f"{name} ends at {spec.output_dim}, {target} is {getattr(self, target)}")

    @property
    def blocks(self) -> frozenset[str]:
        """The blocks this run builds: those its active terms train."""
        return frozenset(b for term in active_terms(self) for b in _TERM_BLOCKS[term])

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, MlpSpec):
                v = list(v.layer_sizes)
            elif isinstance(v, GruRegressorSpec):
                v = dataclasses.asdict(v)
            out[f.name] = v
        return out

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _zeroed_weights(variant) -> dict:
    if variant not in ABLATIONS:  # a tuple: any JSON value may be tested
        raise ConfigError(f"ablation must be one of {', '.join(ABLATIONS)}, got {json.dumps(variant)}")
    return dict.fromkeys(_VARIANTS[variant][1], 0.0)


def with_variant(config: SewConfig, name: str) -> SewConfig:
    """`config` with the loss weights of ablation variant `name` set to 0."""
    return dataclasses.replace(config, **_zeroed_weights(name))


def config_from_dict(raw: dict) -> SewConfig:
    """A config from parsed JSON, checked by `check_json_fields`. An older
    config's "ablation" key zeroes its variant's weights before the build."""
    merged = dict(raw)
    variant = merged.pop("ablation", "full")
    check_json_fields(SewConfig, merged, "config")
    merged.update(_zeroed_weights(variant))
    try:
        return SewConfig(**merged)
    except TypeError as err:
        raise ConfigError(f"config is incomplete: {err}") from None


def _read_json_object(path, error=ConfigError) -> dict:
    """The JSON object stored at `path`; anything else raises `error`
    naming the file."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as err:
            raise error(f"{path}: not valid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise error(f"{path}: must be a JSON object")
    return raw


def build_from_file(build, path, overrides: dict):
    """`build` of the JSON object at `path` (`{}` when there is no path)
    with the non-None `overrides` on top. A ConfigError that the file's own
    values cause names the file; one that only the overrides cause does not."""
    raw = _read_json_object(path) if path else {}
    try:
        return build({**raw, **{k: v for k, v in overrides.items() if v is not None}})
    except ConfigError:
        if path:
            try:
                build(raw)
            except ConfigError as err:
                raise ConfigError(f"{path}: {err}") from None
        raise


def load_config(path, overrides: dict | None = None) -> SewConfig:
    """The config stored at `path`, `overrides` on top (`build_from_file`)."""
    return build_from_file(config_from_dict, path, overrides or {})


def active_terms(config: SewConfig) -> frozenset[str]:
    """Terms trained by this run, read from the loss weights: the prediction
    term l4 always, translation l1 if alpha, alignment l3 if gamma, and
    autoencoding l2 if beta and gamma. They alone decide which blocks the
    run builds (`SewConfig.blocks`).

    l2 trains only S_E and S_D2, and those reach the shipped W_E + R only
    through l3, which couples S_E to W_E; without l3, l2 cannot move the
    deployed model. Skipping (rather than multiplying by zero) keeps the
    parameter trajectory of the surviving blocks bit-identical to a run
    that never had the term, so runs with equal term sets are equal.
    """
    terms = {"l4"}
    if config.alpha:
        terms.add("l1")
    if config.gamma:
        terms.add("l3")
        if config.beta:
            terms.add("l2")
    return frozenset(terms)


@dataclass
class EpochReport:
    epoch: int
    e1: float | None
    e2: float | None
    e3: float | None
    e4: float
    dev_ccc: float
    dev_acc: float


def sew_loss(model: SewModel, batch: Dataset, config: SewConfig, cca_batch: Dataset | None = None,
             *, at: tuple[int, int] | None = None):
    """Total weighted loss for one batch plus its component values, a dict
    keyed e1..e4 in which inactive terms are absent.

    total = alpha * mse(M_S, S_D1(W_E(M_W)))        translation
          + beta  * mse(M_S, S_D2(S_E(M_S)))        autoencoding
          + gamma * (-corr(S_E(M_S), W_E(M_W)))     alignment
          +         mse(T_l, R(W_E(M_W)))           prediction

    The terms are built in the order prediction, translation, autoencoding,
    alignment, and summed by one node in that order (the prediction term
    alone is the loss itself). The alignment correlation is estimated on
    `cca_batch` when given (a larger dedicated pool), otherwise on the
    training batch itself. When its covariances are singular the
    ConditioningError propagates, unless `at` gives the (epoch, batch)
    this batch trains at: then a warning naming them is logged and the
    term is left out of this batch's loss, the others standing as built.
    """
    active = active_terms(config)
    # the caller's model may not be the one this config assembles
    for term, blocks in _TERM_BLOCKS.items():
        for block in blocks:
            if term in active and getattr(model, block) is None:
                raise ConfigError(f"loss term {term} is active but the model has no {block}")

    # a Dataset's arrays are finite by construction
    m_w = ad.unchecked_constant(batch.m_w)
    m_sw = model.w_encoder.forward(m_w)
    p_l = model.regressor.forward(m_sw)
    l4 = ad.mse_loss(p_l, batch.labels)
    components = {"e4": float(l4.value[0, 0])}
    terms, weights = [l4], [1.0]

    m_ss = None
    if "l2" in active or ("l3" in active and cca_batch is None):
        m_ss = model.s_encoder.forward(ad.unchecked_constant(batch.m_s))
    if "l1" in active:
        l1 = ad.mse_loss(model.s_decoder1.forward(m_sw), batch.m_s)
        components["e1"] = float(l1.value[0, 0])
        terms.append(l1)
        weights.append(config.alpha)
    if "l2" in active:
        l2 = ad.mse_loss(model.s_decoder2.forward(m_ss), batch.m_s)
        components["e2"] = float(l2.value[0, 0])
        terms.append(l2)
        weights.append(config.beta)
    if "l3" in active:
        if cca_batch is None:
            ss_view, sw_view = m_ss, m_sw
        else:
            ss_view = model.s_encoder.forward(ad.unchecked_constant(cca_batch.m_s))
            sw_view = model.w_encoder.forward(ad.unchecked_constant(cca_batch.m_w))
        try:
            rho = cca_correlation(ss_view, sw_view, config.k, config.r1, config.r2)
        except ConditioningError as err:
            if at is None:
                raise
            log.warning("epoch %d batch %d: alignment term skipped (%s)", *at, err)
        else:
            components["e3"] = -float(rho.value[0, 0])
            terms.append(rho)
            weights.append(-config.gamma)
    total = terms[0] if len(terms) == 1 else ad.weighted_sum(terms, weights)
    return total, components


def _dev_eval(model: SewModel, dev_std: Dataset, config: SewConfig, epoch: int) -> metrics.EvalResult:
    # deployment path only: the stronger modality must never leak into
    # model selection. It runs on the trained arrays and builds no graph.
    preds = model.deployment_forward(ad.unchecked_constant(dev_std.m_w)).value
    if not np.isfinite(preds).all():
        raise NumericError(f"epoch {epoch}: dev predictions hold NaN or Inf")
    return metrics.evaluate(dev_std.labels, preds, config.sample_variance_ccc)


def train(config: SewConfig, train_set: Dataset, dev_set: Dataset):
    """Minibatch SGD over the composed loss; returns the best-dev-CCC model
    and the per-epoch history."""
    for split, data in (("train", train_set), ("dev", dev_set)):
        for name, want, have in (("d1", config.d1, data.d1), ("d2", config.d2, data.d2)):
            if have != want:
                raise ConfigError(f"config declares {name}={want} but the {split} split has {name}={have}")
        if data.n < 2:
            raise DataError(f"the {split} split has {data.n} frame(s); training needs at least 2")
    train_std, dev_std, scaler_s, scaler_w = standardize_dataset(train_set, dev_set)
    model = assemble_sew(config, config.d1, config.d2, config.seed)
    model.scaler_strong = scaler_s
    model.scaler_weak = scaler_w

    opt = Sgd((p for _, p in model.named_parameters()), lr=config.lr,
              momentum=config.momentum, weight_decay=config.weight_decay)
    batch_rng = make_rng(config.seed, _STREAM_BATCHES)
    # a separate stream keeps the main batch schedule identical whether or
    # not a dedicated correlation pool is in use
    pool_rng = make_rng(config.seed, _STREAM_CCA_POOL)
    pool_size = None
    if config.cca_batch_size is not None and "l3" in active_terms(config):
        pool_size = min(config.cca_batch_size, train_std.n)
    history: list[EpochReport] = []
    best_ccc = -np.inf
    best_epoch = -1
    # the parameters' arrays are views into this one buffer
    best_values = opt._values.copy()

    for epoch in range(config.epochs):
        sums = {"e1": 0.0, "e2": 0.0, "e3": 0.0, "e4": 0.0}
        counts = {"e1": 0, "e2": 0, "e3": 0, "e4": 0}
        for i, batch in enumerate(batcher(train_std, config.batch_size, batch_rng, shuffle=True)):
            opt.zero_grad()
            cca_batch = None
            if pool_size is not None:
                cca_batch = train_std.take(pool_rng.choice(train_std.n, size=pool_size, replace=False))
            try:
                # a singular alignment term is skipped on this batch only
                total, comps = sew_loss(model, batch, config, cca_batch, at=(epoch, i))
            except NumericError as err:
                raise NumericError(f"epoch {epoch} batch {i}: {err}") from err
            try:
                ad.backward(total)
                opt.step()
            except NumericError as err:
                raise NumericError(
                    f"epoch {epoch} batch {i}: {err}; components {comps}") from err
            for key, value in comps.items():
                sums[key] += value
                counts[key] += 1
        result = _dev_eval(model, dev_std, config, epoch)
        report = EpochReport(
            epoch,
            # every epoch has a batch, and every batch reports e4
            *(sums[k] / counts[k] if counts[k] else None for k in ("e1", "e2", "e3", "e4")),
            result.ccc,
            result.binary_accuracy,
        )
        history.append(report)
        if result.ccc > best_ccc:
            best_ccc = result.ccc
            best_epoch = epoch
            best_values = opt._values.copy()
        elif epoch - best_epoch >= config.patience:
            log.info("early stop at epoch %d (best dev ccc %.4f at epoch %d)",
                     epoch, best_ccc, best_epoch)
            break
    opt._values[...] = best_values
    opt._grads.fill(0.0)  # not opt.zero_grad(), which begins a step
    return model, history


HISTORY_COLUMNS = tuple(f.name for f in dataclasses.fields(EpochReport))


def write_history(path, history, manifest_hash: str | None = None) -> None:
    """Epoch metrics as CSV; floats via repr so reruns are byte-identical."""
    def cell(v):
        if v is None:
            return ""
        # builtin float only: repr(np.float64) would change the text
        return repr(float(v)) if isinstance(v, float) else str(v)

    with open(path, "w") as fh:
        if manifest_hash:
            fh.write(f"# manifest: {manifest_hash}\n")
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for r in history:
            fh.write(",".join(cell(getattr(r, c)) for c in HISTORY_COLUMNS) + "\n")


@dataclass
class AblationRow:
    ablation: str
    label: str
    dev_ccc: float
    dev_acc: float
    terms: str  # the active terms, e.g. "l1+l4"; rows with equal terms share one run
    history: list[EpochReport] = field(repr=False, default_factory=list)


def run_ablation_suite(config: SewConfig, train_set: Dataset, dev_set: Dataset) -> list[AblationRow]:
    """Train every variant under the same seed and data; one table row each.
    Variants with equal active terms train alike: each set trains once."""
    histories = {}
    rows = []
    for variant in ABLATIONS:
        vconf = with_variant(config, variant)
        terms = active_terms(vconf)
        if terms not in histories:
            histories[terms] = train(vconf, train_set, dev_set)[1]
        history = histories[terms]
        best = max(history, key=lambda r: r.dev_ccc) if history else None
        rows.append(AblationRow(
            variant,
            _VARIANTS[variant][0],
            best.dev_ccc if best else float("nan"),
            best.dev_acc if best else float("nan"),
            "+".join(sorted(terms)),
            history,
        ))
        log.info("variant %-12s dev ccc %.4f acc %.2f", variant,
                 rows[-1].dev_ccc, rows[-1].dev_acc)
    return rows


def write_ablation_csv(path, rows: list[AblationRow], manifest_hash: str | None = None) -> None:
    with open(path, "w") as fh:
        if manifest_hash:
            fh.write(f"# manifest: {manifest_hash}\n")
        fh.write("ablation,label,dev_ccc,dev_acc,terms\n")
        for r in rows:
            fh.write(f"{r.ablation},{r.label},{repr(float(r.dev_ccc))},{repr(float(r.dev_acc))},{r.terms}\n")


def format_ablation_table(rows: list[AblationRow]) -> str:
    """Aligned text rendering of the ablation table."""
    width = max(len(r.label) for r in rows)
    lines = [f"{'model':<{width}}  {'CCC':>8}  {'Acc':>7}  terms"]
    for r in rows:
        lines.append(f"{r.label:<{width}}  {r.dev_ccc:>8.4f}  {r.dev_acc:>6.2f}%  {r.terms}")
    return "\n".join(lines)


def export_deployment(model: SewModel, path) -> None:
    """Write the weak-encoder + regressor artifact used at test time."""
    save_model(model, path, deployment=True)
