"""Canonical correlation: the differentiable correlation objective used for
latent alignment (the deep CCA objective of Andrew et al., ICML 2013).

Both views are d x p (features in rows, samples in columns). The objective
is the sum of the top-k singular values of

    T = sigma_s^{-1/2} @ sigma_sw @ sigma_w^{-1/2}

built from row-centered views with ridge terms r1, r2 on the self
covariances. Negating the returned node gives the alignment loss.

Everything is computed in the sample space of the views, so no d x d
matrix is ever formed. A thin SVD of each centred view, h = Q diag(s) W^T
with r = min(d, p) columns, gives sigma = Q diag(lam) Q^T + ridge (I - Q Q^T)
with lam = s^2 / (p-1) + ridge. Because sigma^{-1/2} Q = Q diag(lam^{-1/2}),

    T = Q_s C Q_w^T,    C = Z_s Z_w^T / (p-1),    Z = diag(lam^{-1/2} s) W^T

where Z (r x p) holds the whitened sample coordinates. The SVD of the
r x r core C gives T's nonzero singular values and its top-k directions;
the ridge's null-space term cancels out of the value and of both
gradients. Cost per call: two thin SVDs and the backward's matmuls,
O(d p r), plus an O(r^3) SVD of C. At latent 128 and batch 32 a forward
and backward take about 1 ms against 10.7 ms for two eigh of 128 x 128
covariances and a 128 x 128 SVD (one BLAS thread, 2-vCPU x86_64). At
p >> d the thin SVDs cost more than eigh of the d x d covariances would
(about 30 against 16 ms at 128 x 512); no shipped config runs there.
"""

from __future__ import annotations

import logging

import numpy as np

from .autodiff import Node, as_2d, as_matrix, _result
from .errors import ConditioningError, ConfigError, DataError, DimensionError

log = logging.getLogger("sew.dcca")

# below this gap between singular values k and k+1 the top-k gradient is
# ill-defined; training crosses such points transiently, so only warn
TIE_GAP = 1e-9


def _whiten(m, ridge: float, view: str, name: str):
    """Centre one view and factor it: returns Q (d x r), the whitened sample
    coordinates Z (r x p) and lam^{-1/2} (r), as in the module docstring.
    Raises NumericError, naming `view`, when the centred view holds NaN or
    Inf: a finite row whose sum overflows centres to -Inf, and the SVD of
    such a view may never return. Raises ConditioningError when sigma =
    h h^T / (p-1) + ridge I is singular: always when ridge = 0 and d >= p,
    since p centred samples span at most p - 1 dimensions."""
    d, p = m.shape
    h = as_matrix(m - m.mean(axis=1, keepdims=True), f"centred {view}")
    if ridge == 0.0 and d >= p:
        raise _singular(name, f"{p} centred samples span at most {p - 1} of {d} dimensions")
    q, s, wt = np.linalg.svd(h, full_matrices=False)
    lam = s * s / (p - 1) + ridge
    if lam[-1] <= 0.0:
        raise _singular(name, f"smallest eigenvalue {lam[-1]:.6e}")
    inv_sqrt = 1.0 / np.sqrt(lam)
    return q, (inv_sqrt * s)[:, None] * wt, inv_sqrt


def _singular(name: str, why: str) -> ConditioningError:
    return ConditioningError(f"{name} is not positive definite ({why}); "
                             f"set r1, r2 > 0 to regularize the covariances")


def _cca_forward(m_ss, m_sw, k: int, r1: float, r2: float):
    """Whiten both views and take the SVD of the core C.

    Returns each view's (Q, Z, lam^{-1/2}), the SVD factors of C and T's d
    singular values (those of C, zero-padded beyond r): what the backward
    needs.
    """
    m_ss = as_2d(m_ss, "m_ss")
    m_sw = as_2d(m_sw, "m_sw")
    if m_ss.shape != m_sw.shape:
        raise DimensionError(f"views must share shape d x p, got {m_ss.shape} vs {m_sw.shape}")
    d, p = m_ss.shape
    if p < 2:
        raise DataError(f"insufficient samples for covariance: need p >= 2, got p={p}")
    if r1 < 0 or r2 < 0:
        raise ConfigError(f"regularizers must be >= 0, got r1={r1}, r2={r2}")
    if not 1 <= k <= d:
        raise ConfigError(f"k must be in [1, {d}], got {k}")
    view_s = _whiten(m_ss, r1, "m_ss", "sigma_s")
    view_w = _whiten(m_sw, r2, "m_sw", "sigma_w")
    a, core_svals, bt = np.linalg.svd(view_s[1] @ view_w[1].T / (p - 1))
    svals = np.zeros(d)
    svals[:core_svals.size] = core_svals
    return view_s, view_w, a, bt, svals


def cca_correlation(m_ss: Node, m_sw: Node, k: int, r1: float, r2: float) -> Node:
    """Total correlation of the top-k components as a differentiable scalar.

    Forward value is sum(svals[:k]) of T. Backward uses the analytic form
    of Andrew et al.: with T = U diag(svals) V^T truncated to the top k
    components,

        d rho / d hs = (2 * delta_ss @ hs + delta_sw @ hw) / (p - 1)
        d rho / d hw = (2 * delta_ww @ hw + delta_sw.T @ hs) / (p - 1)

    where delta_sw = inv_s @ Uk @ Vk^T @ inv_w and
    delta_ss = -1/2 inv_s @ Uk diag(svals_k) Uk^T @ inv_s (delta_ww with
    Vk, inv_w). With C = A diag(svals) B^T, Uk = Q_s A_k and Vk = Q_w B_k,
    so in the factors of the module docstring, with the canonical variates
    Y_s = A_k^T Z_s and Y_w = B_k^T Z_w,

        d rho / d hs = Q_s diag(lam_s^{-1/2}) A_k (Y_w - diag(svals_k) Y_s) / (p - 1)

    and symmetrically for hw. Components beyond r = min(d, p) carry a zero
    singular value and add nothing. Rows of Z are combinations of zero-mean
    rows, so these equal the gradients w.r.t. the uncentered inputs as well.
    """
    (qs, zs, inv_s), (qw, zw, inv_w), a, bt, svals = _cca_forward(m_ss.value, m_sw.value, k, r1, r2)
    d, p = m_ss.value.shape
    rho = float(svals[:k].sum())
    if k < d and svals[k - 1] - svals[k] < TIE_GAP:
        log.warning(
            "singular values %d and %d nearly tied (gap %.3e); top-k gradient is unreliable here",
            k, k + 1, float(svals[k - 1] - svals[k]),
        )

    def backward(grad):
        kk = min(k, a.shape[0])
        ak, bk, sk = a[:, :kk], bt[:kk].T, svals[:kk, None]
        ys = ak.T @ zs
        yw = bk.T @ zw
        g = grad[0, 0] / (p - 1)
        if m_ss.grad is not None:
            m_ss.grad += g * (qs @ (inv_s[:, None] * (ak @ (yw - sk * ys))))
        if m_sw.grad is not None:
            m_sw.grad += g * (qw @ (inv_w[:, None] * (bk @ (ys - sk * yw))))

    return _result(np.array([[rho]]), (m_ss, m_sw), backward)
