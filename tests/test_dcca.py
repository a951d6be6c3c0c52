import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import classical_cca_oracle, fd_gradients, rel_errors
from sew.autodiff import Node, backward, make_rng
from sew.dcca import cca_correlation
from sew.errors import ConditioningError, ConfigError, DataError, DimensionError, NumericError


def rho_of(x, y, k, r1=0.0, r2=0.0) -> float:
    return cca_correlation(Node(x), Node(y), k, r1, r2).value[0, 0]


def test_covariance_validation():
    with pytest.raises(DimensionError):
        rho_of(np.zeros((2, 5)), np.zeros((3, 5)), 1)
    with pytest.raises(DataError):
        rho_of(np.zeros((2, 1)), np.zeros((2, 1)), 1)
    with pytest.raises(ConfigError):
        rho_of(np.zeros((2, 5)), np.zeros((2, 5)), 1, -0.1, 0.0)


def test_identical_views_saturate():
    """rho of a full-rank view against itself is exactly k."""
    x = make_rng(2, 50).standard_normal((3, 100))
    rho = cca_correlation(Node(x), Node(x.copy()), k=3, r1=0.0, r2=0.0)
    assert abs(rho.value[0, 0] - 3.0) < 1e-8


def test_linear_image_saturates():
    # y = A x with invertible A shares all canonical directions with x
    rng = make_rng(3, 50)
    x = rng.standard_normal((4, 200))
    a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    rho = cca_correlation(Node(x), Node(a @ x), k=4, r1=0.0, r2=0.0)
    assert abs(rho.value[0, 0] - 4.0) < 1e-8


def test_independent_views_near_zero():
    rng = make_rng(4, 50)
    p = 10000
    x = rng.standard_normal((2, p))
    y = rng.standard_normal((2, p))
    rho = cca_correlation(Node(x), Node(y), k=2, r1=0.0, r2=0.0).value[0, 0]
    oracle = classical_cca_oracle(x, y, k=2).sum()
    assert abs(rho - oracle) < 1e-9
    assert rho < 2 * 3.0 / np.sqrt(p)  # two components, each O(1/sqrt(p))


def test_forward_matches_oracle_on_random_instances():
    for seed in range(10):
        rng = make_rng(seed, 51)
        d = int(rng.integers(2, 7))
        p = 500
        z = rng.standard_normal((d, p))
        x = rng.standard_normal((d, d)) @ z + 0.5 * rng.standard_normal((d, p))
        y = rng.standard_normal((d, d)) @ z + 0.5 * rng.standard_normal((d, p))
        k = int(rng.integers(1, d + 1))
        rho = cca_correlation(Node(x), Node(y), k=k, r1=0.0, r2=0.0).value[0, 0]
        oracle = classical_cca_oracle(x, y, k=k).sum()
        assert abs(rho - oracle) < 1e-8, (seed, d, k)


def test_transform_invariance():
    """CCA is invariant under invertible linear maps of either view."""
    rng = make_rng(5, 50)
    x = rng.standard_normal((3, 300))
    y = rng.standard_normal((3, 300))
    a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    base = cca_correlation(Node(x), Node(y), k=2, r1=0.0, r2=0.0).value[0, 0]
    mapped = cca_correlation(Node(a @ x), Node(y), k=2, r1=0.0, r2=0.0).value[0, 0]
    assert abs(base - mapped) < 1e-8


def test_symmetry_in_views():
    rng = make_rng(6, 50)
    x = rng.standard_normal((3, 80))
    y = rng.standard_normal((3, 80))
    fwd = cca_correlation(Node(x), Node(y), k=2, r1=1e-3, r2=1e-4).value[0, 0]
    rev = cca_correlation(Node(y), Node(x), k=2, r1=1e-4, r2=1e-3).value[0, 0]
    assert abs(fwd - rev) < 1e-10


def test_singular_values_bounded():
    """The k-th singular value of T, rho(k) - rho(k-1), lies in [0, 1]
    and does not grow with k."""
    for seed in range(5):
        rng = make_rng(seed, 52)
        x = rng.standard_normal((4, 60))
        y = 0.8 * x + 0.2 * rng.standard_normal((4, 60))
        svals = np.diff([0.0] + [rho_of(x, y, k) for k in range(1, 5)])
        assert np.all(svals >= -1e-12)
        assert np.all(svals <= 1.0 + 1e-8)
        assert np.all(np.diff(svals) <= 1e-12)  # descending


def test_gradient_against_finite_differences():
    rng = make_rng(7, 50)
    x = Node(rng.standard_normal((3, 20)))
    y = Node(rng.standard_normal((3, 20)))

    def build():
        return cca_correlation(x, y, k=2, r1=1e-2, r2=1e-2)

    backward(build())
    fd = fd_gradients(build, [x, y], h=1e-5)
    assert rel_errors(x.grad, fd[0]).max() < 1e-4
    assert rel_errors(y.grad, fd[1]).max() < 1e-4


def test_gradient_full_k_against_finite_differences():
    # k = d exercises the branch with no discarded components
    rng = make_rng(8, 50)
    x = Node(rng.standard_normal((2, 30)))
    y = Node(rng.standard_normal((2, 30)))

    def build():
        return cca_correlation(x, y, k=2, r1=5e-2, r2=5e-2)

    backward(build())
    fd = fd_gradients(build, [x, y], h=1e-5)
    assert rel_errors(x.grad, fd[0]).max() < 1e-4
    assert rel_errors(y.grad, fd[1]).max() < 1e-4


def test_gradient_ascent_increases_rho():
    """A few steps along +grad must increase the correlation."""
    rng = make_rng(9, 50)
    xv = rng.standard_normal((3, 40))
    yv = rng.standard_normal((3, 40))
    before = cca_correlation(Node(xv), Node(yv), k=1, r1=1e-3, r2=1e-3).value[0, 0]
    for _ in range(20):
        x, y = Node(xv), Node(yv)
        rho = cca_correlation(x, y, k=1, r1=1e-3, r2=1e-3)
        backward(rho)
        xv = xv + 0.5 * x.grad
        yv = yv + 0.5 * y.grad
    after = cca_correlation(Node(xv), Node(yv), k=1, r1=1e-3, r2=1e-3).value[0, 0]
    assert after > before + 0.01


def test_rank_deficient_needs_ridge():
    # 5 features from 3 samples: singular covariance at r = 0
    x = make_rng(10, 50).standard_normal((5, 3))
    with pytest.raises(ConditioningError) as exc:
        cca_correlation(Node(x), Node(x.copy()), k=1, r1=0.0, r2=0.0)
    assert "r1" in str(exc.value)
    # same data passes once regularized
    rho = cca_correlation(Node(x), Node(x.copy()), k=1, r1=1e-3, r2=1e-3)
    assert np.isfinite(rho.value[0, 0])


@pytest.mark.parametrize("d", [2, 5, 32])
def test_square_views_without_ridge_always_raise(d):
    """d = p centred samples span d - 1 dimensions, so sigma is singular at
    r = 0 whatever the rounding of its smallest eigenvalue."""
    x, y = make_rng(d, 55).standard_normal((2, d, d))
    for r1, r2 in ((0.0, 1e-4), (1e-4, 0.0), (0.0, 0.0)):
        with pytest.raises(ConditioningError) as exc:
            rho_of(x, y, 1, r1, r2)
        assert "r1" in str(exc.value) and "r2" in str(exc.value)
    assert np.isfinite(rho_of(x, y, 1, 1e-4, 1e-4))


def test_zero_covariance_without_ridge_raises():
    """A constant view has sigma = 0: not positive definite at r = 0,
    even with more samples than features."""
    x = make_rng(12, 55).standard_normal((3, 20))
    with pytest.raises(ConditioningError) as exc:
        rho_of(np.ones((3, 20)), x, 1)
    assert "smallest eigenvalue" in str(exc.value) and "r1" in str(exc.value)
    assert np.isfinite(rho_of(np.ones((3, 20)), x, 1, 1e-4, 0.0))


def rank_deficient_views(rng, d, p, scale):
    """Two correlated d x p views with p <= d, at `scale`."""
    z = rng.standard_normal((d, p))
    return (scale * (z + 0.5 * rng.standard_normal((d, p))) for _ in range(2))


def check_against_oracles(x, y, k, r, rows=None):
    """The forward against the classical oracle at 1e-8 and the gradient of
    the listed rows (all by default) against central differences at 1e-4."""
    rows = np.arange(x.shape[0]) if rows is None else rows
    xn, yn = Node(x), Node(y)
    rho = cca_correlation(xn, yn, k, r, r)
    assert abs(rho.value[0, 0] - classical_cca_oracle(x, y, k, r, r).sum()) < 1e-8
    backward(rho)
    # central differences over the chosen rows only: each view's other rows
    # are held fixed in the rebuilt graph
    xs, ys = Node(x[rows]), Node(y[rows])

    def build():
        xv, yv = x.copy(), y.copy()
        xv[rows], yv[rows] = xs.value, ys.value
        return cca_correlation(Node(xv), Node(yv), k, r, r)

    fd = fd_gradients(build, [xs, ys], h=1e-5)
    assert rel_errors(xn.grad[rows], fd[0]).max() < 1e-4
    assert rel_errors(yn.grad[rows], fd[1]).max() < 1e-4


@settings(max_examples=25, deadline=None, derandomize=True)
@given(d=st.integers(3, 10), data=st.data())
def test_rank_deficient_matches_oracles(d, data):
    """Every pair_config trains with p <= d: the forward and the gradient
    hold there too. Views are drawn at the ridge's scale: at unit scale the
    top correlations sit at 1 and the gradient falls below what central
    differences resolve. k stops at p - 1, the rank of a centred view: past
    it the correlations are 0, where the oracle's square root of a
    rounding-level eigenvalue reads up to 1e-8 (test_k_beyond_the_rank
    covers those k)."""
    p = data.draw(st.integers(2, d), label="p")
    k = data.draw(st.integers(1, p - 1), label="k")
    r = data.draw(st.sampled_from((1e-4, 1e-2, 0.5)), label="r")
    rng = make_rng(data.draw(st.integers(0, 2**16), label="seed"), 56)
    check_against_oracles(*rank_deficient_views(rng, d, p, np.sqrt(r)), k, r)


def test_published_width_matches_oracles():
    """Latent 128, batch 32, k = 10, r = 1e-4 as in every pair_config; central
    differences on eight rows of each view (all 128 take about 20 s)."""
    rng = make_rng(13, 56)
    x, y = rank_deficient_views(rng, 128, 32, 1e-2)
    check_against_oracles(x, y, 10, 1e-4, rows=np.sort(rng.choice(128, 8, replace=False)))


@pytest.mark.parametrize("k", [6, 8, 12])
def test_k_beyond_the_rank(caplog, k):
    """With k >= p the components past the rank carry singular value 0: the
    gradient stays finite, equals that of k = p, and the tie warning fires."""
    x, y = rank_deficient_views(make_rng(14, 56), 12, 6, 1.0)
    grads = []
    for kk in (k, 6):
        xn, yn = Node(x), Node(y)
        with caplog.at_level(logging.WARNING, logger="sew.dcca"):
            backward(cca_correlation(xn, yn, kk, 1e-4, 1e-4))
        grads.append((xn.grad, yn.grad))
    assert all(np.isfinite(g).all() for g in grads[0])
    np.testing.assert_array_equal(grads[0][0], grads[1][0])
    np.testing.assert_array_equal(grads[0][1], grads[1][1])
    assert any("tied" in rec.message for rec in caplog.records)


def test_tied_singular_values_warn(caplog):
    x = make_rng(11, 50).standard_normal((3, 100))
    with caplog.at_level(logging.WARNING, logger="sew.dcca"):
        cca_correlation(Node(x), Node(x.copy()), k=1, r1=0.0, r2=0.0)
    assert any("tied" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("view, bad", [("m_ss", "overflowing row"), ("m_sw", "inf entry")])
def test_non_finite_centred_view_raises_before_any_svd(monkeypatch, view, bad):
    """A finite row whose sum passes the float64 maximum centres to -Inf,
    and the SVD of such a view may never return: both it and an Inf entry
    end in NumericError naming the view, and no SVD sees them."""
    real_svd = np.linalg.svd

    def finite_only_svd(a, *args, **kwargs):
        if not np.isfinite(a).all():
            pytest.fail("svd called on a non-finite matrix")
        return real_svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", finite_only_svd)
    # a leaf refuses non-finite values; a graph value is set unchecked
    views = [Node(v) for v in make_rng(14, 50).standard_normal((2, 8, 32))]
    value = views[("m_ss", "m_sw").index(view)].value
    if bad == "overflowing row":
        value[0] = 1e307
    else:
        value[3, 5] = np.inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match=f"centred {view}"):
        cca_correlation(*views, 8, 1e-4, 1e-4)


def test_k_out_of_range():
    x = np.zeros((3, 10))
    with pytest.raises(ConfigError):
        rho_of(x, x, 4, 0.1, 0.1)
    with pytest.raises(ConfigError):
        rho_of(x, x, 0, 0.1, 0.1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 6), data=st.data())
def test_forward_matches_oracle_and_is_map_invariant(d, data):
    """For any k, p >= 4d and ridges r >= 0 the forward equals the classical
    oracle, and an invertible linear map of either view changes nothing
    (with r = 0: a ridge is not invariant under a change of basis)."""
    k = data.draw(st.integers(1, d), label="k")
    p = data.draw(st.integers(4 * d, 12 * d), label="p")
    r1, r2 = (data.draw(st.sampled_from((0.0, 1e-4, 1e-2, 0.5)), label=f"r{i}") for i in (1, 2))
    rng = make_rng(data.draw(st.integers(0, 2**16), label="seed"), 53)
    z = rng.standard_normal((d, p))
    x = rng.standard_normal((d, d)) @ z + 0.5 * rng.standard_normal((d, p))
    y = rng.standard_normal((d, d)) @ z + 0.5 * rng.standard_normal((d, p))
    rho = rho_of(x, y, k, r1, r2)
    assert abs(rho - classical_cca_oracle(x, y, k, r1, r2).sum()) < 1e-8

    a, b = (rng.standard_normal((d, d)) + d * np.eye(d) for _ in range(2))
    base = rho_of(x, y, k)
    assert abs(rho_of(a @ x, y, k) - base) < 1e-8
    assert abs(rho_of(x, b @ y, k) - base) < 1e-8


class TestClassicalOracle:
    def test_perfect_correlation(self):
        rng = make_rng(12, 50)
        x = rng.standard_normal((3, 500))
        a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        corr = classical_cca_oracle(x, a @ x, k=3)
        np.testing.assert_allclose(corr, np.ones(3), atol=1e-8)

    def test_rectangular_views(self):
        rng = make_rng(13, 50)
        x = rng.standard_normal((5, 400))
        y = rng.standard_normal((2, 400))
        corr = classical_cca_oracle(x, y, k=2)
        assert corr.shape == (2,)
        assert np.all(corr < 0.5)

    def test_validation(self):
        with pytest.raises(DimensionError):
            classical_cca_oracle(np.zeros((2, 5)), np.zeros((2, 6)), k=1)
        with pytest.raises(DataError):
            classical_cca_oracle(np.zeros((2, 1)), np.zeros((2, 1)), k=1)
        with pytest.raises(ConfigError):
            classical_cca_oracle(np.zeros((2, 5)), np.zeros((2, 5)), k=3)
