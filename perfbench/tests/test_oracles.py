"""Closed-form checks of the benchmark's reference computations.

Run with: python -m pytest perfbench/tests
"""

import io
import json
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402


def _views(seed, d=4, p=200):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, p))
    y = 0.6 * x[::-1] + rng.normal(size=(d, p))
    return rng, x, y


def test_identical_views_correlate_fully():
    _, x, _ = _views(0)
    np.testing.assert_allclose(oracles.canonical_correlations(x, x, 4), np.ones(4), atol=1e-10)
    assert abs(oracles.canonical_correlations(x, x, 3).sum() - 3.0) < 1e-10


def test_correlations_are_invariant_under_invertible_maps():
    rng, x, y = _views(1)
    a = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    b = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    before = oracles.canonical_correlations(x, y, 4)
    after = oracles.canonical_correlations(a @ x + 3.0, b @ y - 1.0, 4)
    np.testing.assert_allclose(after, before, atol=1e-10)
    assert np.all(before > 0) and np.all(before < 1)


def test_single_pair_matches_pearson():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 500))
    y = 0.3 * x + rng.normal(size=(1, 500))
    pearson = np.corrcoef(x[0], y[0])[0, 1]
    assert abs(oracles.canonical_correlations(x, y, 1)[0] - abs(pearson)) < 1e-12


@pytest.mark.parametrize("c", [0.0, 0.5, -2.0])
def test_ccc_of_a_shifted_copy(c):
    x = np.random.default_rng(3).normal(size=1000)
    var = x.var()
    assert abs(oracles.ccc(x, x + c) - 2 * var / (2 * var + c * c)) < 1e-12


def test_central_difference_of_a_cubic():
    x = np.array([0.3, -1.2, 2.0])
    f = lambda: float((x ** 3).sum() + x[0] * x[1])  # noqa: E731
    assert abs(oracles.central_difference(f, x, 1) - (3 * 1.2 ** 2 + 0.3)) < 1e-8
    np.testing.assert_array_equal(x, [0.3, -1.2, 2.0])


def _npy(arr):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr, dtype=np.float64))
    return buf.getvalue()


def _model_file(path, arrays):
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("meta.json", json.dumps({"kind": "deployment"}))
        for name, arr in arrays.items():
            zf.writestr(name + ".npy", _npy(arr))


def test_deployment_forward_in_closed_form(tmp_path):
    # scaler, one linear W_E layer, one GRU cell with only the candidate
    # weight and the z bias held, then the output layer:
    # z = sigmoid(b_z), h = z * tanh(a * x_std), y = w * h + c
    a, w, c, bz = 0.7, -1.5, 0.25, 0.4
    arrays = {
        "scaler_weak.mean": [[1.0]], "scaler_weak.scale": [[2.0]],
        "w_encoder.layers.0.weight": [[1.0]], "w_encoder.layers.0.bias": [[0.0]],
        "regressor.cells.0.w_z": [[0.0]], "regressor.cells.0.b_z": [[bz]],
        "regressor.cells.0.w_h": [[a]],
        "regressor.out.weight": [[w]], "regressor.out.bias": [[c]],
    }
    _model_file(tmp_path / "m.npz", arrays)
    meta, held = oracles.read_model_file(tmp_path / "m.npz")
    assert meta == {"kind": "deployment"}
    m_w = np.array([[-3.0, 1.0, 4.0]])
    x_std = (m_w - 1.0) / 2.0
    expected = w * (1 / (1 + np.exp(-bz))) * np.tanh(a * x_std) + c
    np.testing.assert_allclose(oracles.deployment_forward(held, m_w), expected, rtol=0, atol=1e-15)


def test_missing_gru_weights_count_as_zero(tmp_path):
    rng = np.random.default_rng(4)
    full = {
        "scaler_weak.mean": rng.normal(size=(3, 1)), "scaler_weak.scale": rng.uniform(1, 2, (3, 1)),
        "w_encoder.layers.0.weight": rng.normal(size=(5, 3)), "w_encoder.layers.0.bias": rng.normal(size=(5, 1)),
        "w_encoder.layers.1.weight": rng.normal(size=(4, 5)), "w_encoder.layers.1.bias": rng.normal(size=(4, 1)),
        "regressor.out.weight": rng.normal(size=(1, 6)), "regressor.out.bias": rng.normal(size=(1, 1)),
    }
    for cell, d_in in ((0, 4), (1, 6)):
        for gate in "zrh":
            full[f"regressor.cells.{cell}.w_{gate}"] = rng.normal(size=(6, d_in))
            full[f"regressor.cells.{cell}.u_{gate}"] = rng.normal(size=(6, 6))
            full[f"regressor.cells.{cell}.b_{gate}"] = rng.normal(size=(6, 1))
    lean = {k: v for k, v in full.items() if not (".u_" in k or k.endswith(("w_r", "b_r")))}
    m_w = rng.normal(size=(3, 7))
    np.testing.assert_array_equal(oracles.deployment_forward(lean, m_w), oracles.deployment_forward(full, m_w))
