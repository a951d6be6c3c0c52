"""Data plumbing: synthetic correlated two-modality generation, CSV
ingestion, label time-shift alignment, standardization, and minibatching.

All feature matrices are dims x samples; labels are 1 x samples in [-1, 1].

Input CSVs are UTF-8 text, with or without a byte-order mark. Line 1 is a
header, and skipped, when float() refuses one of its cells. Blank lines are
skipped; there are no comment lines, so a `#` line is a non-numeric row.
Cells are comma-separated numbers in ASCII digits, optionally quoted
("1.5") and padded with whitespace; every row has the same width and every
value is finite. numpy's loadtxt parses a file; only a file it refuses, or
one holding a NaN or Inf, is walked again row by row, to name the first bad
`path:line` and column. Lines are physical lines: a row whose quoted cell
holds a newline is named by the line it ends on. A file that is not UTF-8
is refused with the first line that does not decode.
"""

from __future__ import annotations

import csv
import hashlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Matrix, as_2d, as_matrix, make_rng
from .errors import ConfigError, DataError, DimensionError

# rng streams inside one dataset seed
_STREAM_GROUND_TRUTH = 11
_STREAM_TRAIN = 12
_STREAM_DEV = 13

LABEL_TOL = 1e-9


class Dataset:
    """Frame-aligned stronger features, weaker features and labels: a
    whole split, or one minibatch of it."""

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

    def take(self, idx) -> Dataset:
        """The frames at columns `idx` (an index array), copied out of
        arrays this Dataset has already checked, so not checked again."""
        out = Dataset.__new__(Dataset)
        out.m_s, out.m_w, out.labels = self.m_s[:, idx], self.m_w[:, idx], self.labels[:, idx]
        return out

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


ModalityBatch = Dataset  # kept because perfbench/workloads.py imports this name


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a desk-scale correlated two-modality dataset.

    Both modalities are tanh-mixings of a shared latent draw; the weaker one
    sees a masked latent (weak_info_loss of the coordinates zeroed, mask
    fixed per dataset) and carries at least as much observation noise.

    The defaults are the desk recipe of the acceptance gate (`desk_spec`
    draws them at seed 4): changing one moves the gate.
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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

def _first_line_is_header(path) -> bool:
    """Line 1 is a header when float() refuses one of its cells, as numpy's
    tokenizer splits them."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            line = fh.readline()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not line.strip("\r\n"):
        return False
    cells = np.loadtxt([line], dtype=object, delimiter=",", comments=None, quotechar='"', ndmin=1)
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        return True
    return False


def _read_numeric_csv(path, what: str) -> Matrix:
    """Rows of floats -> n x d array, parsed by numpy's C reader."""
    header = _first_line_is_header(path)
    try:
        with warnings.catch_warnings():
            # an empty or header-only file warns and yields no rows; refused below
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, delimiter=",", comments=None, quotechar='"', ndmin=2,
                               encoding="utf-8-sig", skiprows=int(header))
    except ValueError as err:
        _raise_located(path, what, header, str(err))
    if not table.size:
        raise DataError(f"{path}: no numeric {what} rows")
    if not np.isfinite(table).all():
        _raise_located(path, what, header, "non-finite cell")
    return table


def _cell_value(cell: str) -> float:
    """float() narrowed to what loadtxt reads: no '_' digit separators, ASCII only."""
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def _raise_located(path, what: str, header: bool, reason: str):
    """Walk a file the fast reader refused, row by row, and raise a
    DataError naming the first bad line (and column): the physical line on
    which the row ends, so a quoted cell holding a newline counts as two."""
    width = None
    non_finite = None
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            if header:
                fh.readline()
            reader = csv.reader(fh)
            for cells in reader:
                if not cells:
                    continue
                lineno = reader.line_num + header
                try:
                    values = [_cell_value(c) for c in cells]
                except ValueError as err:
                    raise DataError(f"{path}:{lineno}: non-numeric {what} cell ({err})") from None
                if width is None:
                    width = len(values)
                elif len(values) != width:
                    raise DataError(f"{path}:{lineno}: ragged row, expected {width} columns, got {len(values)}")
                bad = [col for col, v in enumerate(values) if not math.isfinite(v)]
                if bad and non_finite is None:
                    non_finite = f"{path}:{lineno}: non-finite {what} cell {values[bad[0]]!r} in column {bad[0] + 1}"
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    raise DataError(non_finite or f"{path}: unreadable {what} CSV ({reason})")


def _not_utf8(path) -> DataError:
    """A DataError naming the first line of `path` that is not UTF-8."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as err:
                return DataError(f"{path}:{lineno}: not UTF-8 text (byte {raw[err.start]:#04x}: {err.reason})")
    return DataError(f"{path}: not UTF-8 text")


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


def write_csv(path, matrix) -> None:
    """One frame per row; repr() formatting for lossless deterministic files."""
    matrix = as_matrix(matrix, "csv matrix")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for col in matrix.T:
            writer.writerow([repr(float(v)) for v in col])


def apply_shift(features, labels, shift_seconds: float, frame_step_seconds: float):
    """Pair feature frame t with label frame t + offset, where offset is the
    shift in whole frames: returns (features, labels) with exactly
    n - offset aligned columns."""
    features = as_matrix(features, "features")
    labels = as_matrix(labels, "labels")
    if features.shape[1] != labels.shape[1]:
        raise DataError(f"features have {features.shape[1]} frames, labels {labels.shape[1]}")
    if frame_step_seconds <= 0:
        raise ConfigError(f"frame step must be > 0, got {frame_step_seconds}")
    ratio = shift_seconds / frame_step_seconds
    offset = round(ratio)
    if abs(ratio - offset) > 1e-9:
        raise ConfigError(
            f"shift {shift_seconds}s is not a whole number of {frame_step_seconds}s frames")
    if offset < 0:
        raise ConfigError(f"shift must be >= 0, got {shift_seconds}s")
    n = labels.shape[1]
    if offset >= n:
        raise DataError(f"shift of {offset} frames leaves no pairs (only {n} frames)")
    return features[:, :n - offset], labels[:, offset:]


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
        # C order: the row reductions sum in memory order, so a transposed
        # CSV table and the same frames built in memory fit the same scaler
        x = np.ascontiguousarray(as_matrix(x, "standardizer input"))
        if x.shape[1] < 2:
            raise DataError(f"need >= 2 samples to fit a standardizer, got {x.shape[1]}")
        mean = x.mean(axis=1, keepdims=True)
        std = x.std(axis=1, keepdims=True)
        scale = np.where(std < 1e-8, 1.0, std)
        return cls(mean, scale)

    def apply(self, x, order: str = "C") -> Matrix:
        """(x - mean) / scale per dimension, written once into a new array
        of memory order `order` ("C" or "F"); the entries are not inspected,
        so a NaN or Inf passes through to the caller's check."""
        x = as_2d(x, "standardizer input")
        if x.shape[0] != self.mean.shape[0]:
            raise DimensionError(f"standardizer fit on {self.mean.shape[0]} dims, got {x.shape[0]}")
        out = np.subtract(x, self.mean, order=order)
        out /= self.scale
        return out


def standardize_dataset(train: Dataset, dev: Dataset):
    """Fit per-modality scalers on train, apply to both. Labels untouched.

    The train split's features are stored column-major, so the minibatch
    and correlation-pool gathers copy contiguous frames; a gather gives a
    column-major batch from either layout, so the bytes do not change. The
    dev split stays row-major, as predict's input is."""
    scaler_s = Standardizer.fit(train.m_s)
    scaler_w = Standardizer.fit(train.m_w)
    train_std = Dataset(scaler_s.apply(train.m_s, "F"), scaler_w.apply(train.m_w, "F"), train.labels)
    dev_std = Dataset(scaler_s.apply(dev.m_s), scaler_w.apply(dev.m_w), dev.labels)
    return train_std, dev_std, scaler_s, scaler_w


def batcher(dataset: Dataset, batch_size: int, rng, shuffle: bool = True):
    """Yield minibatch Datasets covering the dataset; a trailing batch smaller
    than 2 is dropped (covariance needs at least 2 samples). Each is taken
    from the already-checked `dataset` and not checked again.

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
        yield dataset.take(idx)
