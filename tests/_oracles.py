"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (loops,
central differences) so that a bug in the library cannot hide in a
shared code path.
"""

import csv
import weakref

import numpy as np

from sew.autodiff import Node, _result, sigmoid_value
from sew.errors import ConditioningError, ConfigError, DataError, DimensionError, NumericError


def fd_gradients(build_loss, params, h=1e-5):
    """Central finite differences of a scalar loss w.r.t. each parameter.

    build_loss() must rebuild the graph from the params' current values
    and return the 1x1 loss node. params are mutated in place and restored.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        for i in range(p.value.size):
            idx = np.unravel_index(i, p.value.shape)
            orig = p.value[idx]
            p.value[idx] = orig + h
            up = build_loss().value[0, 0]
            p.value[idx] = orig - h
            down = build_loss().value[0, 0]
            p.value[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def rel_errors(analytic, numeric, floor=1e-6):
    """Elementwise relative error with an absolute floor on the denominator."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def masked_sigmoid(v):
    """The logistic function, split by sign so exp never overflows: a mask
    picks 1 / (1 + exp(-v)) where v >= 0 and exp(v) / (1 + exp(v)) elsewhere."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


# --- elementary autodiff ops ----------------------------------------------
# The reference each fused op in sew.autodiff (`tanh_affine`, `gated`,
# `weighted_sum`) is held to byte for byte: one graph node per elementwise
# step, built through the library's own `_result` so constants stay
# constants.


def elementwise_add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"add: shapes differ, {a.value.shape} vs {b.value.shape}")

    def backward(grad):
        if a.grad is not None:
            a.grad += grad
        if b.grad is not None:
            b.grad += grad

    return _result(a.value + b.value, (a, b), backward)


def elementwise_mul(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"mul: shapes differ, {a.value.shape} vs {b.value.shape}")

    def backward(grad):
        if a.grad is not None:
            a.grad += grad * b.value
        if b.grad is not None:
            b.grad += grad * a.value

    return _result(a.value * b.value, (a, b), backward)


# the unary ops below need no check on their input's grad: an output that
# has a backward has its one parent, and that parent carries a grad


def scalar_mul(x: Node, c: float) -> Node:
    c = float(c)
    if not np.isfinite(c):
        raise NumericError("scalar_mul: scalar is not finite")

    def backward(grad):
        x.grad += c * grad

    return _result(c * x.value, (x,), backward)


def tanh(x: Node) -> Node:
    value = np.tanh(x.value)

    def backward(grad):
        x.grad += grad * (1.0 - value * value)

    return _result(value, (x,), backward)


def sigmoid(x: Node) -> Node:
    value = sigmoid_value(x.value)

    def backward(grad):
        x.grad += grad * value * (1.0 - value)

    return _result(value, (x,), backward)


def classical_cca_oracle(x, y, k: int, r1: float = 0.0, r2: float = 0.0) -> np.ndarray:
    """Top-k canonical correlations via the generalized eigenproblem.

    Independent route from the library's inverse-sqrt/SVD path: the
    eigenvalues of sigma_x^{-1} sigma_xy sigma_y^{-1} sigma_yx are the
    squared canonical correlations. Views may have different feature
    counts here.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[1] != y.shape[1]:
        raise DimensionError(f"views must share sample count, got {x.shape} vs {y.shape}")
    p = x.shape[1]
    if p < 2:
        raise DataError(f"insufficient samples: need p >= 2, got p={p}")
    if not 1 <= k <= min(x.shape[0], y.shape[0]):
        raise ConfigError(f"k must be in [1, {min(x.shape[0], y.shape[0])}], got {k}")
    hx = x - x.mean(axis=1, keepdims=True)
    hy = y - y.mean(axis=1, keepdims=True)
    sxx = hx @ hx.T / (p - 1) + r1 * np.eye(x.shape[0])
    syy = hy @ hy.T / (p - 1) + r2 * np.eye(y.shape[0])
    sxy = hx @ hy.T / (p - 1)
    try:
        m = np.linalg.solve(sxx, sxy) @ np.linalg.solve(syy, sxy.T)
    except np.linalg.LinAlgError as err:
        raise ConditioningError(f"singular covariance in classical CCA: {err}") from err
    eigvals = np.linalg.eigvals(m)
    eigvals = np.where(np.abs(eigvals.imag) < 1e-8, eigvals.real, np.nan)
    if np.any(np.isnan(eigvals)):
        raise ConditioningError("complex eigenvalues in classical CCA; covariance too ill-conditioned")
    corr = np.sqrt(np.clip(np.sort(eigvals)[::-1], 0.0, None))
    return corr[:k]


def intermediate_refs(root, keep=()):
    """Weak references to every node reachable from root except those in
    `keep` (e.g. parameters, which their model keeps alive)."""
    keep_ids = {id(k) for k in keep}
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return [weakref.ref(n) for i, n in seen.items() if i not in keep_ids]


def row_by_row_csv(path, what: str) -> np.ndarray:
    """The reader sew used before it parsed with np.loadtxt: csv.reader and
    float() per cell, line 1 skipped when non-numeric, nested lists. The
    reference for the rules and the `path:line` messages of the fast one.
    Unlike that reader, `line` is the physical line a row ends on
    (csv.reader's line_num), not the row's count."""
    rows = []
    linenos = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for cells in reader:
            if not cells:
                continue
            lineno = reader.line_num
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
            linenos.append(lineno)
    if not rows:
        raise DataError(f"{path}: no numeric {what} rows")
    table = np.array(rows)
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataError(f"{path}:{linenos[row]}: non-finite {what} cell {float(table[row, col])!r} "
                        f"in column {col + 1}")
    return table
