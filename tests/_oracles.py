"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (loops,
central differences) so that a bug in the library cannot hide in a
shared code path.
"""

import weakref

import numpy as np


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


def naive_cov(a, b, r=0.0):
    """Double-loop cross-covariance of row variables, 1/(p-1) normalizer."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = a.shape[1]
    am = a - a.mean(axis=1, keepdims=True)
    bm = b - b.mean(axis=1, keepdims=True)
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            acc = 0.0
            for t in range(p):
                acc += am[i, t] * bm[j, t]
            out[i, j] = acc / (p - 1)
    if a.shape[0] == b.shape[0]:
        out += r * np.eye(a.shape[0])
    elif r != 0.0:
        raise ValueError("ridge only applies to square covariances")
    return out


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
