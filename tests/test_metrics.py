import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sew.autodiff import make_rng
from sew.errors import DataError
from sew.metrics import binary_accuracy, ccc, evaluate


def test_ccc_of_identical_series_is_one():
    x = make_rng(0, 60).standard_normal(50)
    assert ccc(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ccc_reversed_is_minus_one():
    assert ccc([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-15)


def test_ccc_constant_vs_shifted_constant():
    # variances vanish, mean gap carries the denominator: 0 / (0 + 0 + 1)
    assert ccc([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) == 0.0


def test_ccc_degenerate_equal_constants():
    res = evaluate([2.0, 2.0], [2.0, 2.0])
    assert res.ccc == 0.0
    assert res.degenerate
    assert "degenerate" in res.row()


def test_ccc_additive_offset_closed_form():
    """ccc(x, x + c) = 2 var(x) / (2 var(x) + c^2), population convention."""
    rng = make_rng(1, 60)
    for _ in range(100):
        n = int(rng.integers(5, 200))
        x = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
        c = rng.uniform(-5.0, 5.0)
        v = x.var()
        expected = 2.0 * v / (2.0 * v + c * c)
        assert ccc(x, x + c) == pytest.approx(expected, abs=1e-12)


def test_ccc_symmetry():
    rng = make_rng(2, 60)
    for _ in range(20):
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        assert ccc(x, y) == ccc(y, x)


def test_ccc_bounded():
    rng = make_rng(3, 60)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        x = rng.standard_normal(n)
        y = 0.5 * x + rng.standard_normal(n)
        assert abs(ccc(x, y)) <= 1.0 + 1e-12


def test_ccc_penalizes_scale_mismatch():
    # unlike Pearson r, CCC drops below 1 when the fit is y = a*x, a != 1
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])  # exact zero mean, var 2
    assert ccc(x, 2.0 * x) == pytest.approx(2.0 * 2.0 * 2.0 / (2.0 + 8.0), abs=1e-12)
    noisy = make_rng(4, 60).standard_normal(100)
    assert ccc(noisy, 2.0 * noisy) < 1.0


def test_ccc_sample_variance_convention():
    rng = make_rng(5, 60)
    x = rng.standard_normal(20)
    y = 0.7 * x + 0.3 * rng.standard_normal(20)
    mx, my = x.mean(), y.mean()
    cov = ((x - mx) * (y - my)).sum() / 19
    expected = 2 * cov / (x.var(ddof=1) + y.var(ddof=1) + (mx - my) ** 2)
    assert ccc(x, y, sample_variance=True) == pytest.approx(expected, abs=1e-15)
    assert ccc(x, y, sample_variance=True) != ccc(x, y)


def test_ccc_accepts_row_matrices():
    x = np.array([[0.1, 0.2, 0.3]])
    assert ccc(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ccc_validation():
    with pytest.raises(DataError):
        ccc([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        ccc([1.0], [1.0])
    with pytest.raises(DataError):
        ccc([1.0, np.nan], [1.0, 2.0])


def test_binary_accuracy_perfect_and_inverted():
    x = [-0.5, 0.5, -0.1, 0.9]
    assert binary_accuracy(x, x) == 100.0
    assert binary_accuracy(x, [0.5, -0.5, 0.1, -0.9]) == 0.0


def test_binary_accuracy_zero_is_negative_class():
    # the annotation split puts 0 with the negative half
    assert binary_accuracy([0.0], [-0.3]) == 100.0
    assert binary_accuracy([0.0], [0.3]) == 0.0


def test_binary_accuracy_scale_invariant():
    rng = make_rng(6, 60)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    assert binary_accuracy(x, y) == binary_accuracy(x, 3.7 * y)


def test_binary_accuracy_validation():
    with pytest.raises(DataError):
        binary_accuracy([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        binary_accuracy([], [])


def test_evaluate_bundles_both_metrics():
    rng = make_rng(7, 60)
    x = rng.uniform(-1, 1, 60)
    y = np.clip(x + 0.1 * rng.standard_normal(60), -1, 1)
    res = evaluate(x, y)
    assert res.ccc == pytest.approx(ccc(x, y), abs=0)
    assert res.binary_accuracy == pytest.approx(binary_accuracy(x, y), abs=0)
    assert res.n == 60
    assert not res.degenerate
    assert f"n=60" in res.row()


def test_ccc_returns_builtin_float():
    # repr() of the value lands in CSVs; numpy scalars would change the text
    assert type(ccc([1.0, 2.0], [2.0, 1.0])) is float
    assert type(binary_accuracy([1.0], [1.0])) is float


_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 40), sample_variance=st.booleans())
def test_ccc_is_bounded_and_symmetric(data, n, sample_variance):
    x = data.draw(st.lists(_VALUES, min_size=n, max_size=n))
    y = data.draw(st.lists(_VALUES, min_size=n, max_size=n))
    value = ccc(x, y, sample_variance)
    assert -1.0 <= value <= 1.0
    assert value == ccc(y, x, sample_variance)


@pytest.mark.parametrize("sample_variance", [False, True])
def test_ccc_stays_bounded_when_rounding_overshoots(sample_variance):
    # one value dwarfs the rest and the series differ in one small value:
    # 2 cov / den rounds to 1 + 2 ulp without the clamp
    x = np.zeros(25)
    x[[1, 5, 21, 24]] = 565428.0, 1.0, 2.0, 0.015625
    y = x.copy()
    y[24] = 0.0078125
    assert ccc(x, y, sample_variance) == 1.0
