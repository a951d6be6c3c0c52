"""Evaluation: concordance correlation coefficient and binary accuracy
over continuous annotations in [-1, 1]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["EvalResult", "ccc", "binary_accuracy", "evaluate"]


@dataclass
class EvalResult:
    ccc: float
    binary_accuracy: float
    n: int
    degenerate: bool = False

    def row(self) -> str:
        return f"n={self.n} ccc={self.ccc:.6f} acc={self.binary_accuracy:.4f}" + (
            " (degenerate inputs)" if self.degenerate else "")


def _as_series(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite values")
    return arr


def _ccc_parts(x, y, sample_variance: bool):
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if x.size != y.size:
        raise DataError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise DataError(f"need at least 2 samples, got {x.size}")
    ddof = 1 if sample_variance else 0
    mx, my = x.mean(), y.mean()
    vx, vy = x.var(ddof=ddof), y.var(ddof=ddof)
    cov = ((x - mx) * (y - my)).sum() / (x.size - ddof)
    den = vx + vy + (mx - my) ** 2
    if den == 0.0:
        # both constant with equal means; defined as 0 so eval loops survive
        return 0.0, True
    # |2 cov| <= den holds exactly (Cauchy-Schwarz), but rounding can carry
    # a near-perfect agreement past 1 when one value dwarfs the rest
    return min(1.0, max(-1.0, float(2.0 * cov / den))), False


def ccc(x, y, sample_variance: bool = False) -> float:
    """2*cov / (var_x + var_y + (mean_x - mean_y)^2).

    Population variance convention by default (divide by n);
    sample_variance=True switches every estimator to n-1.
    """
    value, _ = _ccc_parts(x, y, sample_variance)
    return value


def binary_accuracy(x, y) -> float:
    """Percent agreement after thresholding both at zero (v <= 0 is the
    negative class, matching the [-1, 0] / (0, 1] annotation split)."""
    x = _as_series(x, "x")
    y = _as_series(y, "y")
    if x.size != y.size:
        raise DataError(f"length mismatch: {x.size} vs {y.size}")
    if x.size == 0:
        raise DataError("need at least 1 sample")
    return 100.0 * float(np.mean((x > 0) == (y > 0)))


def evaluate(labels, predictions, sample_variance: bool = False) -> EvalResult:
    value, degenerate = _ccc_parts(labels, predictions, sample_variance)
    acc = binary_accuracy(labels, predictions)
    return EvalResult(value, acc, int(np.asarray(labels).size), degenerate)
