"""Reference computations the benchmark checks sew against.

Nothing here imports sew. Each routine is written from the paper's
equations by a different route than the library takes, so a fault in a
shared code path cannot hide.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np


def canonical_correlations(x, y, k: int, r1: float = 0.0, r2: float = 0.0) -> np.ndarray:
    """Top-k canonical correlations of the row variables of x and y.

    Solves the symmetric generalized eigenproblem

        [0    Sxy] v = rho [Sxx  0 ] v
        [Syx  0  ]         [0   Syy]

    by a Cholesky reduction of the right-hand side. Its eigenvalues come in
    +-rho pairs, and the positive ones are the canonical correlations.
    Ridges r1, r2 are added to the self covariances.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx, p = x.shape
    dy = y.shape[0]
    hx = x - x.mean(axis=1, keepdims=True)
    hy = y - y.mean(axis=1, keepdims=True)
    a = np.zeros((dx + dy, dx + dy))
    b = np.zeros((dx + dy, dx + dy))
    sxy = hx @ hy.T / (p - 1)
    a[:dx, dx:] = sxy
    a[dx:, :dx] = sxy.T
    b[:dx, :dx] = hx @ hx.T / (p - 1) + r1 * np.eye(dx)
    b[dx:, dx:] = hy @ hy.T / (p - 1) + r2 * np.eye(dy)
    chol = np.linalg.cholesky(b)
    inner = np.linalg.solve(chol, np.linalg.solve(chol, a).T)
    rho = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    return np.sort(rho)[::-1][:k]


def ccc(x, y) -> float:
    """Concordance correlation, population variances:
    2 cov / (var_x + var_y + (mean_x - mean_y)^2)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    mx, my = x.mean(), y.mean()
    cov = np.mean((x - mx) * (y - my))
    return float(2.0 * cov / (np.mean((x - mx) ** 2) + np.mean((y - my) ** 2) + (mx - my) ** 2))


def central_difference(f, x: np.ndarray, index, eps: float = 1e-6) -> float:
    """(f(x + eps e_i) - f(x - eps e_i)) / (2 eps), perturbing x in place
    and restoring it."""
    orig = x[index]
    x[index] = orig + eps
    up = f()
    x[index] = orig - eps
    down = f()
    x[index] = orig
    return (up - down) / (2.0 * eps)


def read_model_file(path) -> tuple[dict, dict]:
    """(meta, arrays) of a model file, read as the zip of .npy members it is."""
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files if name != "meta.json"}
    return meta, arrays


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def deployment_forward(arrays: dict, m_w) -> np.ndarray:
    """Labels from raw weak features (d2 x n) by the deployment equations:

        x   = (m_w - mean) / scale                     weak scaler
        x   = tanh(W_i x + b_i) for all but the last W_E layer, then W x + b
        per GRU cell, from h = 0:
          z = sigmoid(W_z x + U_z h + b_z)
          r = sigmoid(W_r x + U_r h + b_r)
          c = tanh(W_h x + U_h (r * h) + b_h)
          h = (1 - z) * h + z * c,  and x = h
        y   = W_out x + b_out

    A weight the file does not hold counts as zero.
    """
    x = (np.asarray(m_w, dtype=np.float64) - arrays["scaler_weak.mean"]) / arrays["scaler_weak.scale"]
    n_layers = sum(1 for name in arrays if name.startswith("w_encoder.layers.") and name.endswith(".weight"))
    for i in range(n_layers):
        x = arrays[f"w_encoder.layers.{i}.weight"] @ x + arrays[f"w_encoder.layers.{i}.bias"]
        if i < n_layers - 1:
            x = np.tanh(x)
    cell = 0
    while f"regressor.cells.{cell}.w_z" in arrays:
        pre = f"regressor.cells.{cell}."

        def term(name, inp):
            w = arrays.get(pre + name)
            return 0.0 if w is None else w @ inp

        h = np.zeros((arrays[pre + "w_z"].shape[0], x.shape[1]))
        z = _sigmoid(term("w_z", x) + term("u_z", h) + arrays.get(pre + "b_z", 0.0))
        r = _sigmoid(term("w_r", x) + term("u_r", h) + arrays.get(pre + "b_r", 0.0))
        c = np.tanh(term("w_h", x) + term("u_h", r * h) + arrays.get(pre + "b_h", 0.0))
        x = (1.0 - z) * h + z * c
        cell += 1
    return arrays["regressor.out.weight"] @ x + arrays["regressor.out.bias"]
