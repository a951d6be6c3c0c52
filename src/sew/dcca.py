"""Canonical correlation: the differentiable correlation objective used for
latent alignment (the deep CCA objective of Andrew et al., ICML 2013).

Both views are d x p (features in rows, samples in columns). The objective
is the sum of the top-k singular values of

    T = sigma_s^{-1/2} @ sigma_sw @ sigma_w^{-1/2}

built from row-centered views with ridge terms r1, r2 on the self
covariances. Negating the returned node gives the alignment loss.
"""

from __future__ import annotations

import logging

import numpy as np

from .autodiff import Matrix, Node, as_matrix, _result
from .errors import ConditioningError, ConfigError, DataError, DimensionError

log = logging.getLogger("sew.dcca")

# below this gap between singular values k and k+1 the top-k gradient is
# ill-defined; training crosses such points transiently, so only warn
TIE_GAP = 1e-9


def matrix_inv_sqrt(a) -> Matrix:
    """Inverse square root of a symmetric positive definite matrix.

    Via the symmetric eigendecomposition a = Q diag(lam) Q^T, returns
    Q diag(lam^-1/2) Q^T.
    """
    a = as_matrix(a, "matrix_inv_sqrt input")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix_inv_sqrt needs a square matrix, got {a.shape}")
    asym = float(np.abs(a - a.T).max()) if a.size else 0.0
    if asym > 1e-10:
        raise ConditioningError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    lam, q = np.linalg.eigh(a)
    if lam[0] <= 0.0:
        raise ConditioningError(f"matrix is not positive definite (smallest eigenvalue {lam[0]:.6e})")
    return (q / np.sqrt(lam)) @ q.T


def _cca_forward(m_ss, m_sw, k: int, r1: float, r2: float):
    """Centre the views, build sigma_s, sigma_w, sigma_sw and decompose T.

    sigma_sw = hs @ hw.T / (p-1); sigma_s = hs @ hs.T / (p-1) + r1*I and
    analogously for sigma_w with r2. Returns the centered views, the two
    inverse square roots and the SVD of T: what the backward needs.
    """
    m_ss = as_matrix(m_ss, "m_ss")
    m_sw = as_matrix(m_sw, "m_sw")
    if m_ss.shape != m_sw.shape:
        raise DimensionError(f"views must share shape d x p, got {m_ss.shape} vs {m_sw.shape}")
    d, p = m_ss.shape
    if p < 2:
        raise DataError(f"insufficient samples for covariance: need p >= 2, got p={p}")
    if r1 < 0 or r2 < 0:
        raise ConfigError(f"regularizers must be >= 0, got r1={r1}, r2={r2}")
    if not 1 <= k <= d:
        raise ConfigError(f"k must be in [1, {d}], got {k}")
    hs = m_ss - m_ss.mean(axis=1, keepdims=True)
    hw = m_sw - m_sw.mean(axis=1, keepdims=True)
    sigma_s = hs @ hs.T / (p - 1) + r1 * np.eye(d)
    sigma_w = hw @ hw.T / (p - 1) + r2 * np.eye(d)
    sigma_sw = hs @ hw.T / (p - 1)
    try:
        inv_s = matrix_inv_sqrt(sigma_s)
        inv_w = matrix_inv_sqrt(sigma_w)
    except ConditioningError as err:
        if r1 == 0.0 or r2 == 0.0:
            raise ConditioningError(f"{err}; set r1, r2 > 0 to regularize the covariances") from err
        raise
    u, svals, vt = np.linalg.svd(inv_s @ sigma_sw @ inv_w)
    return hs, hw, inv_s, inv_w, u, svals, vt


def cca_correlation(m_ss: Node, m_sw: Node, k: int, r1: float, r2: float) -> Node:
    """Total correlation of the top-k components as a differentiable scalar.

    Forward value is sum(svals[:k]) of T. Backward uses the analytic form:
    with T = U diag(svals) V^T truncated to the top k components,

        d rho / d hs = (2 * delta_ss @ hs + delta_sw @ hw) / (p - 1)
        d rho / d hw = (2 * delta_ww @ hw + delta_sw.T @ hs) / (p - 1)

    where delta_sw = inv_s @ Uk @ Vk^T @ inv_w and
    delta_ss = -1/2 inv_s @ Uk diag(svals_k) Uk^T @ inv_s (delta_ww with
    Vk, inv_w). Rows of both expressions are combinations of zero-mean rows,
    so they equal the gradients w.r.t. the uncentered inputs as well.
    """
    hs, hw, inv_s, inv_w, u, svals, vt = _cca_forward(m_ss.value, m_sw.value, k, r1, r2)
    d, p = hs.shape
    rho = float(svals[:k].sum())
    if k < d and svals[k - 1] - svals[k] < TIE_GAP:
        log.warning(
            "singular values %d and %d nearly tied (gap %.3e); top-k gradient is unreliable here",
            k, k + 1, float(svals[k - 1] - svals[k]),
        )

    def backward(grad):
        uk = u[:, :k]
        vk = vt[:k].T
        delta_sw = inv_s @ uk @ vk.T @ inv_w
        g = grad[0, 0]
        if m_ss.grad is not None:
            delta_ss = -0.5 * inv_s @ (uk * svals[:k]) @ uk.T @ inv_s
            m_ss.grad += g * (2.0 * delta_ss @ hs + delta_sw @ hw) / (p - 1)
        if m_sw.grad is not None:
            delta_ww = -0.5 * inv_w @ (vk * svals[:k]) @ vk.T @ inv_w
            m_sw.grad += g * (2.0 * delta_ww @ hw + delta_sw.T @ hs) / (p - 1)

    return _result(np.array([[rho]]), (m_ss, m_sw), backward)
