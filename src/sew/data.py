"""Data plumbing: synthetic correlated two-modality generation, CSV
ingestion, label time-shift alignment, standardization, and minibatching.

All feature matrices are dims x samples; labels are 1 x samples in [-1, 1].
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Matrix, as_matrix, make_rng
from .errors import ConfigError, DataError, DimensionError

# rng streams inside one dataset seed
_STREAM_GROUND_TRUTH = 11
_STREAM_TRAIN = 12
_STREAM_DEV = 13

LABEL_TOL = 1e-9


class ModalityBatch:
    """One aligned minibatch: stronger features, weaker features, labels."""

    __slots__ = ("m_s", "m_w", "labels")

    def __init__(self, m_s, m_w, labels):
        self.m_s = as_matrix(m_s, "m_s")
        self.m_w = as_matrix(m_w, "m_w")
        self.labels = as_matrix(labels, "labels")
        widths = (self.m_s.shape[1], self.m_w.shape[1], self.labels.shape[1])
        if len(set(widths)) != 1:
            raise DimensionError(f"modalities and labels disagree on batch width: {widths}")
        if self.labels.shape[0] != 1:
            raise DimensionError(f"labels must be 1 x batch, got {self.labels.shape}")
        if np.abs(self.labels).max(initial=0.0) > 1.0 + LABEL_TOL:
            raise DataError(f"labels must lie in [-1, 1], found {self.labels[np.abs(self.labels) > 1 + LABEL_TOL].flat[0]}")

    @property
    def width(self) -> int:
        return self.m_s.shape[1]


class Dataset:
    """A full split with the same alignment guarantees as a batch."""

    def __init__(self, m_s, m_w, labels):
        batch = ModalityBatch(m_s, m_w, labels)
        self.m_s = batch.m_s
        self.m_w = batch.m_w
        self.labels = batch.labels

    @property
    def n(self) -> int:
        return self.m_s.shape[1]

    @property
    def d1(self) -> int:
        return self.m_s.shape[0]

    @property
    def d2(self) -> int:
        return self.m_w.shape[0]

    def fingerprint(self) -> str:
        """Content hash; identifies the data in run manifests."""
        h = hashlib.sha256()
        for arr in (self.m_s, self.m_w, self.labels):
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a desk-scale correlated two-modality dataset.

    Both modalities are tanh-mixings of a shared latent draw; the weaker one
    sees a masked latent (weak_info_loss of the coordinates zeroed, mask
    fixed per dataset) and carries at least as much observation noise.
    """

    latent_dim: int = 8
    d1: int = 32
    d2: int = 16
    noise_strong: float = 0.1
    noise_weak: float = 1.0
    weak_info_loss: float = 0.5
    nonlinearity: int = 1
    n_samples: int = 4000
    n_dev: int = 1000
    seed: int = 0

    def __post_init__(self):
        if min(self.latent_dim, self.d1, self.d2) < 1:
            raise ConfigError("latent_dim, d1, d2 must all be >= 1")
        if self.noise_strong < 0 or self.noise_weak < 0:
            raise ConfigError("noise levels must be >= 0")
        if self.noise_weak < self.noise_strong:
            raise ConfigError(
                f"noise_weak ({self.noise_weak}) must be >= noise_strong ({self.noise_strong})")
        if not 0.0 <= self.weak_info_loss <= 1.0:
            raise ConfigError(f"weak_info_loss must be in [0, 1], got {self.weak_info_loss}")
        if self.nonlinearity < 0:
            raise ConfigError(f"nonlinearity depth must be >= 0, got {self.nonlinearity}")
        if self.n_samples < 100:
            raise ConfigError(f"n_samples must be >= 100, got {self.n_samples}")
        if self.n_dev < 1:
            raise ConfigError(f"n_dev must be >= 1, got {self.n_dev}")


def _mixing_stack(rng, in_dim: int, out_dim: int, depth: int):
    """Random maps for one modality: `depth` tanh layers then the projection
    into the modality's dimension (projection itself tanh when depth > 0)."""
    widths = [in_dim] + [in_dim] * max(depth - 1, 0) + [out_dim]
    mats = [rng.normal(0.0, 1.0 / np.sqrt(widths[i]), size=(widths[i + 1], widths[i]))
            for i in range(len(widths) - 1)]
    return mats


def _mix(mats, z: Matrix, depth: int) -> Matrix:
    x = z
    for m in mats:
        x = m @ x
        if depth > 0:
            x = np.tanh(x)
    return x


def generate_synthetic(spec: SyntheticSpec):
    """Draw (train, dev, ground_truth) under the spec's seed.

    Per sample: latent z ~ N(0, I); label = tanh(w . z); stronger features =
    mix(z) + noise_strong * eps; weaker features = mix'(masked z) +
    noise_weak * eps. Bit-identical for equal specs.
    """
    rng_truth = make_rng(spec.seed, _STREAM_GROUND_TRUTH)
    w_label = rng_truth.normal(0.0, 1.0 / np.sqrt(spec.latent_dim), size=(1, spec.latent_dim))
    mats_strong = _mixing_stack(rng_truth, spec.latent_dim, spec.d1, spec.nonlinearity)
    mats_weak = _mixing_stack(rng_truth, spec.latent_dim, spec.d2, spec.nonlinearity)
    n_masked = int(round(spec.weak_info_loss * spec.latent_dim))
    masked = rng_truth.permutation(spec.latent_dim)[:n_masked]
    mask = np.ones((spec.latent_dim, 1))
    mask[masked] = 0.0

    def draw(rng, n):
        z = rng.normal(size=(spec.latent_dim, n))
        labels = np.tanh(w_label @ z)
        m_s = _mix(mats_strong, z, spec.nonlinearity) + spec.noise_strong * rng.normal(size=(spec.d1, n))
        m_w = _mix(mats_weak, z * mask, spec.nonlinearity) + spec.noise_weak * rng.normal(size=(spec.d2, n))
        return Dataset(m_s, m_w, labels)

    train = draw(make_rng(spec.seed, _STREAM_TRAIN), spec.n_samples)
    dev = draw(make_rng(spec.seed, _STREAM_DEV), spec.n_dev)
    truth = {
        "label_weights": w_label,
        "masked_coords": sorted(int(i) for i in masked),
        "visible_coords": sorted(int(i) for i in range(spec.latent_dim) if i not in set(masked)),
    }
    return train, dev, truth


# --- CSV ingestion ----------------------------------------------------------

def _read_numeric_csv(path, what: str) -> Matrix:
    """Rows of floats -> n x d array. Header skipped when non-numeric."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if not cells:
                continue
            try:
                values = [float(c) for c in cells]
            except ValueError as err:
                if lineno == 1 and width is None:
                    continue
                raise DataError(f"{path}:{lineno}: non-numeric {what} cell ({err})") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise DataError(f"{path}:{lineno}: ragged row, expected {width} columns, got {len(values)}")
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no numeric {what} rows")
    return np.array(rows)


def load_features(path) -> Matrix:
    """Feature CSV (one frame per row) -> d x n matrix."""
    return _read_numeric_csv(path, "feature").T


def load_labels(path) -> Matrix:
    """Single-column label CSV -> 1 x n matrix."""
    table = _read_numeric_csv(path, "label")
    if table.shape[1] != 1:
        raise DataError(f"{path}: label file must have one column, got {table.shape[1]}")
    return table.T


def load_csv(features_path, labels_path):
    """Load a frame-aligned (features, labels) pair; lengths must agree."""
    feats = load_features(features_path)
    labels = load_labels(labels_path)
    if feats.shape[1] != labels.shape[1]:
        raise DataError(
            f"{features_path} has {feats.shape[1]} frames but {labels_path} has {labels.shape[1]}")
    return feats, labels


def write_csv(path, matrix, header=None) -> None:
    """One frame per row; repr() formatting for lossless deterministic files."""
    matrix = as_matrix(matrix, "csv matrix")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for col in matrix.T:
            writer.writerow([repr(float(v)) for v in col])


def shift_offset(shift_seconds: float, frame_step_seconds: float) -> int:
    if frame_step_seconds <= 0:
        raise ConfigError(f"frame step must be > 0, got {frame_step_seconds}")
    ratio = shift_seconds / frame_step_seconds
    offset = round(ratio)
    if abs(ratio - offset) > 1e-9:
        raise ConfigError(
            f"shift {shift_seconds}s is not a whole number of {frame_step_seconds}s frames")
    if offset < 0:
        raise ConfigError(f"shift must be >= 0, got {shift_seconds}s")
    return int(offset)


def shift_labels(labels, shift_seconds: float, frame_step_seconds: float):
    """Pair feature frame t with label frame t + offset.

    Returns (shifted labels 1 x (n - offset), offset). The caller drops the
    same number of trailing feature frames.
    """
    labels = as_matrix(labels, "labels")
    offset = shift_offset(shift_seconds, frame_step_seconds)
    if offset >= labels.shape[1]:
        raise DataError(f"shift of {offset} frames leaves no pairs (only {labels.shape[1]} frames)")
    return labels[:, offset:], offset


def apply_shift(features, labels, shift_seconds: float, frame_step_seconds: float):
    """Trim both sides of the pairing: returns (features, labels) with
    exactly n - offset aligned columns."""
    features = as_matrix(features, "features")
    labels = as_matrix(labels, "labels")
    if features.shape[1] != labels.shape[1]:
        raise DataError(f"features have {features.shape[1]} frames, labels {labels.shape[1]}")
    shifted, offset = shift_labels(labels, shift_seconds, frame_step_seconds)
    n_pairs = features.shape[1] - offset
    return features[:, :n_pairs], shifted


# --- standardization and batching -------------------------------------------

@dataclass
class Standardizer:
    """Per-dimension zero-mean unit-variance transform, fit on training data.

    Dimensions with (near) zero spread get scale 1 so constants pass through
    centered instead of exploding.
    """

    mean: Matrix
    scale: Matrix

    @classmethod
    def fit(cls, x) -> "Standardizer":
        x = as_matrix(x, "standardizer input")
        if x.shape[1] < 2:
            raise DataError(f"need >= 2 samples to fit a standardizer, got {x.shape[1]}")
        mean = x.mean(axis=1, keepdims=True)
        std = x.std(axis=1, keepdims=True)
        scale = np.where(std < 1e-8, 1.0, std)
        return cls(mean, scale)

    def apply(self, x) -> Matrix:
        x = as_matrix(x, "standardizer input")
        if x.shape[0] != self.mean.shape[0]:
            raise DimensionError(f"standardizer fit on {self.mean.shape[0]} dims, got {x.shape[0]}")
        return (x - self.mean) / self.scale


def standardize_dataset(train: Dataset, dev: Dataset):
    """Fit per-modality scalers on train, apply to both. Labels untouched."""
    scaler_s = Standardizer.fit(train.m_s)
    scaler_w = Standardizer.fit(train.m_w)
    train_std = Dataset(scaler_s.apply(train.m_s), scaler_w.apply(train.m_w), train.labels)
    dev_std = Dataset(scaler_s.apply(dev.m_s), scaler_w.apply(dev.m_w), dev.labels)
    return train_std, dev_std, scaler_s, scaler_w


def batcher(dataset: Dataset, batch_size: int, rng, shuffle: bool = True):
    """Yield ModalityBatch covers of the dataset; a trailing batch smaller
    than 2 is dropped (covariance needs at least 2 samples).

    Shuffling draws from the Generator `rng`, so successive epochs differ.
    """
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
    if dataset.n == 0:
        raise DataError("cannot batch an empty dataset")
    order = rng.permutation(dataset.n) if shuffle else np.arange(dataset.n)
    for start in range(0, dataset.n, batch_size):
        idx = order[start:start + batch_size]
        if idx.size < 2:
            break
        yield ModalityBatch(dataset.m_s[:, idx], dataset.m_w[:, idx], dataset.labels[:, idx])
