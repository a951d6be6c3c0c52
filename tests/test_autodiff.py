import gc
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    elementwise_add,
    elementwise_mul,
    fd_gradients,
    intermediate_refs,
    masked_sigmoid,
    rel_errors,
    scalar_mul,
    sigmoid,
    tanh,
)
from sew.autodiff import (
    _CHUNK,
    Node,
    Sgd,
    affine,
    array_ops,
    as_matrix,
    backward,
    constant,
    gated,
    make_rng,
    mse_loss,
    sigmoid_value,
    sum_all,
    tanh_affine,
    unchecked_constant,
    uniform_init,
    weighted_sum,
)
from sew.dcca import cca_correlation
from sew.errors import ConfigError, DimensionError, GraphError, NumericError


def test_as_matrix_rejects_non_2d():
    with pytest.raises(DimensionError):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(NumericError):
        as_matrix([[np.nan]])
    with pytest.raises(NumericError):
        as_matrix([[np.inf, 0.0]])


def test_make_rng_streams():
    a = make_rng(7, 1).standard_normal(5)
    b = make_rng(7, 1).standard_normal(5)
    c = make_rng(7, 2).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_init_bound():
    rng = make_rng(0, 1)
    w = uniform_init(50, 40, fan_in=40, rng=rng)
    bound = 1.0 / np.sqrt(40.0)
    assert np.all(np.abs(w) <= bound)
    assert w.shape == (50, 40)
    # not degenerate: values actually spread over the interval
    assert w.max() > 0.5 * bound and w.min() < -0.5 * bound


def test_affine_value():
    out = affine(Node([[1.0, 2.0]]), Node([[3.0], [4.0]]), Node([[0.5]]))
    np.testing.assert_array_equal(out.value, [[11.5]])


def test_affine_identity():
    rng = make_rng(1)
    x = rng.standard_normal((4, 4))
    out = affine(Node(np.eye(4)), Node(x), Node(np.zeros((4, 1))))
    np.testing.assert_array_equal(out.value, x)


def test_affine_shape_error_names_shapes():
    with pytest.raises(DimensionError) as exc:
        affine(Node(np.zeros((2, 3))), Node(np.zeros((2, 3))), Node(np.zeros((2, 1))))
    assert "(2, 3)" in str(exc.value)


def test_affine_grad_of_sum():
    # d(sum(A @ B + c))/dA_ij = sum_k B_jk; for B of ones that is 2
    # everywhere, and each entry of c is added to 2 columns
    a = Node(np.ones((2, 2)))
    b = Node(np.ones((2, 2)))
    c = Node(np.ones((2, 1)))
    loss = sum_all(affine(a, b, c))
    backward(loss)
    np.testing.assert_allclose(a.grad, [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)
    np.testing.assert_allclose(b.grad, [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)
    np.testing.assert_allclose(c.grad, [[2.0], [2.0]], atol=1e-12)
    fd = fd_gradients(lambda: sum_all(affine(a, b, c)), [a, b, c], h=1e-6)
    np.testing.assert_allclose(a.grad, fd[0], rtol=1e-6)
    np.testing.assert_allclose(b.grad, fd[1], rtol=1e-6)
    np.testing.assert_allclose(c.grad, fd[2], rtol=1e-6)


def test_affine_matches_numpy_and_central_differences():
    for seed in range(3):
        rng = make_rng(seed, 41)
        w, x, b = (Node(rng.standard_normal(shape)) for shape in ((3, 5), (5, 4), (3, 1)))
        y = rng.standard_normal((3, 4))
        out = affine(w, x, b)
        assert out.value.tobytes() == (w.value @ x.value + b.value).tobytes()
        assert out.parents == (w, x, b)

        def build():
            return mse_loss(tanh(affine(w, x, b)), y)

        backward(build())
        for p, g in zip((w, x, b), fd_gradients(build, [w, x, b], h=1e-6)):
            assert rel_errors(p.grad, g).max() < 1e-6


# --- fused ops against the elementary ops they stand for --------------------


def _elementary(kind, params, x):
    """What a fused layer stands for, built from the elementary ops."""
    if kind == "tanh_affine":
        w, b = params
        return tanh(affine(w, x, b))
    w_z, b_z, w_h, b_h = params
    return elementwise_mul(sigmoid(affine(w_z, x, b_z)), tanh(affine(w_h, x, b_h)))


def _fused(kind, params, x):
    if kind == "tanh_affine":
        w, b = params
        return tanh_affine(w, x, b)
    return gated(*params, x)


# weights that overflow w @ x: tanh and sigmoid saturate to their exact
# limits and pass back exact zeros; opposite infinities make a NaN
_HUGE = st.sampled_from([1e308, -1e308])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kinds=st.lists(st.sampled_from(["tanh_affine", "gated"]), min_size=1, max_size=3),
       widths=st.lists(st.integers(1, 5), min_size=4, max_size=4), frames=st.integers(1, 9),
       seed=st.integers(0, 2**16), input_grad=st.booleans(),
       huge=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40), _HUGE), max_size=5),
       weights=st.lists(st.floats(-3.0, 3.0), max_size=3))
# every unit of both layers saturated
@example(kinds=["gated", "tanh_affine"], widths=[1, 2, 2, 1], frames=9, seed=0, input_grad=True,
         huge=[(0, 0, 1e308), (0, 1, -1e308), (2, 0, 1e308), (2, 1, 1e308), (4, 0, -1e308), (4, 1, 1e308)],
         weights=[0.5, -2.0])
def test_fused_ops_match_the_elementary_composition_bytewise(kinds, widths, frames, seed, input_grad,
                                                             huge, weights):
    """A stack of 1-3 fused layers under a weighted sum of loss terms gives
    the value, and the grad of the input and of every parameter, of the same
    stack built from the elementary ops, byte for byte."""
    rng = make_rng(seed, 85)
    layers = []
    for kind, (rows, cols) in zip(kinds, zip(widths[1:], widths)):
        shapes = [(rows, cols), (rows, 1)] * (1 if kind == "tanh_affine" else 2)
        layers.append((kind, [rng.standard_normal(shape) for shape in shapes]))
    arrays = [a for _, group in layers for a in group]
    for i, j, value in huge:
        array = arrays[i % len(arrays)]
        array.flat[j % array.size] = value
    x = 3.0 * rng.standard_normal((widths[0], frames))
    targets = [rng.standard_normal((widths[len(kinds)], frames)) for _ in range(len(weights) + 1)]
    # grads already held (as by a parameter that a graph uses twice): the
    # order in which a backward adds into them then shows in the bytes
    held = [rng.standard_normal(a.shape) for a in [x] + arrays]

    def run(layer):
        params = [[Node(a) for a in group] for _, group in layers]
        h = inp = Node(x) if input_grad else constant(x)
        leaves = [inp] + [p for group in params for p in group]
        for node, grad in zip(leaves, held):
            if node.grad is not None:
                node.grad[...] = grad
        for (kind, _), group in zip(layers, params):
            h = layer(kind, group, h)
        terms = [mse_loss(h, t) for t in targets]
        if layer is _fused:
            loss = weighted_sum(terms, [1.0] + weights) if weights else terms[0]
        else:
            loss = terms[0]
            for c, term in zip(weights, terms[1:]):
                loss = elementwise_add(loss, scalar_mul(term, c))
        if np.isfinite(loss.value).all():
            backward(loss)
        return [h.value, loss.value] + [n.grad for n in leaves if n.grad is not None]

    with np.errstate(over="ignore", invalid="ignore"):
        fused, elementary = run(_fused), run(_elementary)
    assert len(fused) == len(elementary) == 2 + input_grad + len(arrays)
    assert [a.tobytes() for a in fused] == [a.tobytes() for a in elementary]


def test_fused_ops_check_their_inputs():
    w, x, b = Node(np.zeros((2, 3))), Node(np.zeros((3, 4))), Node(np.zeros((2, 1)))
    with pytest.raises(DimensionError, match="inner dims"):
        tanh_affine(w, Node(np.zeros((2, 4))), b)
    with pytest.raises(DimensionError, match="bias"):
        gated(w, b, w, Node(np.zeros((3, 1))), x)
    one = Node([[1.0]])
    with pytest.raises(DimensionError, match="1x1"):
        weighted_sum([one, w], [1.0, 1.0])
    with pytest.raises(GraphError, match="2 term"):
        weighted_sum([one, one], [1.0])
    with pytest.raises(NumericError, match="not finite"):
        weighted_sum([one], [np.inf])


def test_elementwise_values():
    x = Node([[1.0, -2.0], [0.5, 3.0]])
    y = Node([[2.0, 2.0], [2.0, 2.0]])
    np.testing.assert_array_equal(elementwise_add(x, y).value, x.value + 2.0)
    np.testing.assert_array_equal(elementwise_mul(x, y).value, x.value * 2.0)
    np.testing.assert_array_equal(scalar_mul(x, -1.5).value, x.value * -1.5)


def test_elementwise_shape_mismatch():
    with pytest.raises(DimensionError):
        elementwise_add(Node(np.zeros((2, 2))), Node(np.zeros((2, 3))))
    with pytest.raises(DimensionError):
        elementwise_mul(Node(np.zeros((1, 2))), Node(np.zeros((2, 1))))


def test_activation_fixed_points():
    z = Node(np.zeros((2, 3)))
    np.testing.assert_array_equal(tanh(z).value, np.zeros((2, 3)))
    np.testing.assert_array_equal(sigmoid(z).value, np.full((2, 3), 0.5))


def test_affine_bias_broadcast():
    w = Node(np.zeros((2, 4)))
    x = Node(np.ones((4, 3)))
    b = Node([[1.0], [-2.0]])
    out = affine(w, x, b)
    np.testing.assert_array_equal(out.value, [[1.0, 1.0, 1.0], [-2.0, -2.0, -2.0]])
    with pytest.raises(DimensionError):
        affine(w, x, Node([[1.0, 2.0]]))


def test_mse_value_and_grad():
    pred = Node([[1.0, 2.0]])
    loss = mse_loss(pred, [[0.0, 0.0]])
    assert loss.value[0, 0] == pytest.approx(2.5, abs=0)
    backward(loss)
    np.testing.assert_allclose(pred.grad, [[1.0, 2.0]], atol=1e-15)


def test_mse_equal_inputs_is_zero():
    x = make_rng(3).standard_normal((3, 5))
    assert mse_loss(Node(x), x).value[0, 0] == 0.0


def test_mse_shape_mismatch():
    with pytest.raises(DimensionError):
        mse_loss(Node(np.zeros((1, 2))), np.zeros((2, 1)))


def test_backward_sum_gives_ones():
    x = Node(make_rng(4).standard_normal((3, 4)))
    backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_disconnected_param_stays_zero():
    x = Node(np.ones((2, 2)))
    other = Node(np.ones((2, 2)))
    backward(sum_all(x))
    np.testing.assert_array_equal(other.grad, np.zeros((2, 2)))


def test_backward_requires_scalar():
    x = Node(np.ones((2, 2)))
    with pytest.raises(GraphError):
        backward(tanh(x))


def test_backward_accumulates():
    """Grads add across backward calls; the optimizer owns the zeroing."""
    x = Node(np.ones((1, 2)))
    backward(sum_all(x))
    backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, 2.0 * np.ones((1, 2)))
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, np.zeros((1, 2)))


def test_diamond_graph_reuse():
    # x feeds the loss twice; its grad must combine both paths
    x = Node([[2.0]])
    y = elementwise_mul(x, x)  # x^2, dy/dx = 2x = 4
    loss = sum_all(elementwise_add(y, x))  # x^2 + x, d/dx = 2x + 1 = 5
    backward(loss)
    np.testing.assert_allclose(x.grad, [[5.0]], atol=1e-12)


def test_backward_linearity():
    """backward(a*l1 + b*l2) equals a*grad(l1) + b*grad(l2)."""
    rng = make_rng(11)
    w = rng.standard_normal((3, 4))
    x = rng.standard_normal((4, 6))
    t1 = rng.standard_normal((3, 6))
    t2 = rng.standard_normal((3, 6))

    def grad_of(builder):
        wn = Node(w.copy())
        backward(builder(wn))
        return wn.grad

    bias = Node(np.zeros((3, 1)))
    g1 = grad_of(lambda wn: mse_loss(affine(wn, constant(x), bias), t1))
    g2 = grad_of(lambda wn: mse_loss(tanh(affine(wn, constant(x), bias)), t2))

    def combined(wn):
        l1 = mse_loss(affine(wn, constant(x), bias), t1)
        l2 = mse_loss(tanh(affine(wn, constant(x), bias)), t2)
        return elementwise_add(scalar_mul(l1, 0.3), scalar_mul(l2, -1.7))

    g = grad_of(combined)
    np.testing.assert_allclose(g, 0.3 * g1 - 1.7 * g2, atol=1e-12)


def test_fd_composite_network():
    """Gradient of mse(tanh(W2 @ tanh(W1 @ x + b1) + b2), y) vs central differences."""
    for seed in range(5):
        rng = make_rng(seed, 99)
        x = rng.standard_normal((4, 7))
        y = rng.standard_normal((2, 7))
        w1 = Node(rng.standard_normal((3, 4)) * 0.5)
        b1 = Node(rng.standard_normal((3, 1)) * 0.5)
        w2 = Node(rng.standard_normal((2, 3)) * 0.5)
        b2 = Node(rng.standard_normal((2, 1)) * 0.5)
        params = [w1, b1, w2, b2]

        def build():
            h = tanh(affine(w1, constant(x), b1))
            out = affine(w2, h, b2)
            return mse_loss(out, y)

        backward(build())
        fd = fd_gradients(build, params, h=1e-6)
        for p, g in zip(params, fd):
            assert rel_errors(p.grad, g).max() < 1e-4


def test_fd_sigmoid_and_centering():
    rng = make_rng(21)
    w = Node(rng.standard_normal((3, 3)))
    b = constant(np.zeros((3, 1)))
    x = rng.standard_normal((3, 8))
    y = rng.standard_normal((3, 8))
    row_mean = constant(np.full((8, 8), 1.0 / 8))  # s @ row_mean repeats each row's mean

    def build():
        s = sigmoid(affine(w, constant(x), b))
        centered = elementwise_add(s, scalar_mul(affine(s, row_mean, b), -1.0))
        return mse_loss(centered, y)

    backward(build())
    fd = fd_gradients(build, [w], h=1e-6)
    assert rel_errors(w.grad, fd[0]).max() < 1e-4


def test_graph_freed_by_refcount():
    """No op's backward closure holds its own node: once the loss is
    dropped, every node but the parameters dies without the cyclic collector."""
    rng = make_rng(22)
    w = Node(rng.standard_normal((3, 4)))
    b = Node(rng.standard_normal((3, 1)))
    gc.disable()
    try:
        x = Node(rng.standard_normal((4, 5)))
        h = affine(w, x, b)
        mixed = elementwise_mul(tanh(h), sigmoid(elementwise_add(h, Node(np.full((3, 5), -1.0)))))
        squashed = tanh(elementwise_add(mixed, scalar_mul(h, 0.5)))
        loss = elementwise_add(mse_loss(squashed, np.zeros((3, 5))), sum_all(h))
        backward(loss)
        refs = intermediate_refs(loss, keep=(w, b))
        assert len(refs) == 13
        del x, h, mixed, squashed, loss
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_overflow_raises_numeric_error():
    # ops do not inspect values: the overflow surfaces at the loss
    big = Node(np.full((1, 1), 1e308))
    with np.errstate(over="ignore"):
        out = affine(big, big, Node(np.zeros((1, 1))))
        assert out.value[0, 0] == np.inf
        with pytest.raises(NumericError, match="loss is not finite"):
            backward(sum_all(out))
    assert big.grad[0, 0] == 0.0  # no closure ran


class TestFiniteBoundaries:
    @pytest.mark.parametrize("fill", [np.inf, -np.inf, np.nan])
    def test_backward_refuses_a_non_finite_loss_before_any_closure(self, fill):
        x = Node(np.ones((2, 2)))
        target = np.full((2, 2), fill)  # data are not inspected by mse_loss
        loss = elementwise_add(mse_loss(x, target), sum_all(x))
        with pytest.raises(NumericError, match="loss is not finite"):
            backward(loss)
        assert not x.grad.any() and not loss.grad.any()

    def test_saturation_gives_the_exact_limit_and_a_zero_gradient(self):
        x = Node(np.array([[1e308, -1e308]]))
        with np.errstate(over="ignore"):
            big = scalar_mul(x, 10.0)
            assert np.isinf(big.value).all()
            t, s = tanh(big), sigmoid(big)
            loss = sum_all(elementwise_add(t, s))
            backward(loss)
        np.testing.assert_array_equal(t.value, [[1.0, -1.0]])
        np.testing.assert_array_equal(s.value, [[1.0, 0.0]])
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])

    def test_nan_inside_the_graph_reaches_the_output(self):
        x = Node(np.array([[1e308, 1.0]]))
        with np.errstate(over="ignore", invalid="ignore"):
            inf = scalar_mul(x, 10.0)
            out = sigmoid(tanh(elementwise_add(inf, scalar_mul(inf, -1.0))))
        assert np.isnan(out.value[0, 0]) and out.value[0, 1] == 0.5

    @pytest.mark.parametrize("first", [(2, 2), (1, _CHUNK + 7)], ids=["one-chunk", "across-chunks"])
    def test_update_that_overflows_names_the_parameter(self, first):
        p, q, r = Node(np.ones(first)), Node(np.ones((3, 1))), Node(np.ones((1, 1)))
        opt = Sgd([p, q, r], lr=10.0, momentum=0.5)
        q.grad[2, 0] = 1e308  # finite, but lr * grad is not
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match=r"parameter 1 \(shape \(3, 1\)\) is not finite after"):
                opt.step()


class TestConstants:
    def test_constant_leaf_takes_no_grad(self):
        c = constant([[1.0, 2.0]], "data")
        assert c.grad is None and c.parents == () and c._backward is None
        with pytest.raises(NumericError, match="data"):
            constant([[np.nan]], "data")

    def test_constant_parents_are_dropped(self):
        rng = make_rng(23)
        w, b = Node(rng.standard_normal((2, 3))), Node(rng.standard_normal((2, 1)))
        x = constant(rng.standard_normal((3, 4)))
        h = affine(w, x, b)
        assert h.parents == (w, b)
        out = elementwise_mul(h, constant(np.full((2, 4), 2.0)))
        assert out.parents == (h,)
        backward(sum_all(out))
        np.testing.assert_array_equal(w.grad, 2.0 * np.ones((2, 4)) @ x.value.T)
        np.testing.assert_array_equal(b.grad, np.full((2, 1), 8.0))
        assert x.grad is None

    @pytest.mark.parametrize("op", [
        lambda a, b: affine(a, b, constant(np.ones((3, 1)))),
        elementwise_add,
        elementwise_mul,
        lambda a, b: scalar_mul(a, 2.0),
        lambda a, b: tanh(a),
        lambda a, b: sigmoid(a),
        lambda a, b: sum_all(a),
        lambda a, b: mse_loss(a, b.value),
        lambda a, b: cca_correlation(a, b, 2, 1e-2, 1e-2),
    ])
    def test_op_over_constants_is_a_constant(self, op):
        rng = make_rng(24)
        a, b = constant(rng.standard_normal((3, 3))), constant(rng.standard_normal((3, 3)))
        out = op(a, b)
        assert out.grad is None and out.parents == () and out._backward is None

    def test_backward_on_parameter_free_loss_raises(self):
        loss = sum_all(tanh(constant(np.ones((2, 2)))))
        with pytest.raises(GraphError, match="constant"):
            backward(loss)

    def test_sgd_rejects_a_constant_by_position(self):
        with pytest.raises(ConfigError, match="parameter 1 "):
            Sgd([Node(np.ones((1, 1))), constant(np.ones((2, 2)))], lr=0.1)


# +-0, the edges of exp's range (exp(-745) is the smallest subnormal) and
# far past them, and subnormal inputs
_SIGMOID_EDGES = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e300, -1e300, 5e-324, -5e-324, 2.2e-308, -1e-310]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_SIGMOID_EDGES),
                min_size=1, max_size=40))
@example(_SIGMOID_EDGES)
def test_sigmoid_matches_masked_two_branch_formula(values):
    v = np.array([values])
    assert sigmoid(Node(v)).value.tobytes() == masked_sigmoid(v).tobytes()


# --- the array ops, pinned bitwise ------------------------------------------
# Each reference is the plain numpy expression, written out here, that an
# array op must equal byte for byte however it reuses its temporaries.


def _ref_sigmoid(v):
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def _ref_affine(w, x, b):
    return w @ x + b


def _ref_tanh_affine(w, x, b):
    return np.tanh(w @ x + b)


def _ref_gated(w_z, b_z, w_h, b_h, x):
    return _ref_sigmoid(w_z @ x + b_z) * np.tanh(w_h @ x + b_h)


def _assert_same_bytes(got, want):
    """Equal bytes entry by entry, except that a NaN need only be a NaN."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


# +-0, subnormals, the edge of exp's range and past it, infinities and NaN
_ARRAY_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0,
                750.5, -750.5, 800.0, -800.0, np.inf, -np.inf, np.nan]
# (rows, inputs, frames): one served frame through R, a desk minibatch, a
# dev pass through R
_ARRAY_SHAPES = [(120, 120, 1), (16, 32, 32), (120, 120, 500)]


@pytest.mark.parametrize("rows, frames", [(r, n) for r, _, n in _ARRAY_SHAPES])
def test_sigmoid_value_matches_its_reference_bitwise(rows, frames):
    rng = make_rng(rows * frames, 90)
    for scale in (1.0, 30.0, 1e300):
        v = scale * rng.standard_normal((rows, frames))
        v.flat[:len(_ARRAY_EDGES)] = _ARRAY_EDGES
        before = v.copy()
        with np.errstate(invalid="ignore"):
            _assert_same_bytes(sigmoid_value(v), _ref_sigmoid(v))
        assert v.tobytes() == before.tobytes()


@pytest.mark.parametrize("rows, inputs, frames", _ARRAY_SHAPES)
@pytest.mark.parametrize("layout", ["C", "F", "column of a wider array"])
def test_array_ops_match_their_references_bitwise(rows, inputs, frames, layout):
    rng = make_rng(rows * frames, 91)
    wide = 3.0 * rng.standard_normal((inputs, 3 * frames))
    x = {"C": np.ascontiguousarray(wide[:, :frames]), "F": np.asfortranarray(wide[:, :frames]),
         "column of a wider array": wide[:, 1::3]}[layout]
    arrays = []
    for _ in range(2):
        w = rng.standard_normal((rows, inputs)) / np.sqrt(inputs)
        w[1, :2] = 1e308, -1e308  # an overflowing product, and inf - inf
        w[2, 0] = 1e308
        b = rng.standard_normal((rows, 1))
        b[3:3 + len(_ARRAY_EDGES), 0] = _ARRAY_EDGES[:rows - 3]
        arrays += [w, b]
    w_z, b_z, w_h, b_h = map(unchecked_constant, arrays)
    inputs_before = [a.copy() for a in (x, w_z.value, b_z.value, w_h.value, b_h.value)]
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_same_bytes(array_ops.affine(w_z, x, b_z), _ref_affine(w_z.value, x, b_z.value))
        _assert_same_bytes(array_ops.tanh_affine(w_z, x, b_z), _ref_tanh_affine(w_z.value, x, b_z.value))
        _assert_same_bytes(array_ops.gated(w_z, b_z, w_h, b_h, x),
                           _ref_gated(w_z.value, b_z.value, w_h.value, b_h.value, x))
    for after, before in zip((x, w_z.value, b_z.value, w_h.value, b_h.value), inputs_before):
        assert after.tobytes() == before.tobytes()


class TestSgd:
    def test_plain_step(self):
        p = Node([[1.0]])
        opt = Sgd([p], lr=0.1)
        p.grad[:] = 2.0
        opt.step()
        np.testing.assert_allclose(p.value, [[0.8]], atol=1e-15)

    def test_momentum_two_steps(self):
        # constant unit gradient: deltas are lr, then lr*(1 + momentum)
        p = Node([[1.0]])
        opt = Sgd([p], lr=0.001, momentum=0.7)
        p.grad[:] = 1.0
        opt.step()
        assert p.value[0, 0] == pytest.approx(1.0 - 0.001, abs=1e-15)
        p.zero_grad()
        p.grad[:] = 1.0
        opt.step()
        assert p.value[0, 0] == pytest.approx(1.0 - 0.001 - 0.0017, abs=1e-15)

    def test_momentum_zero_matches_plain_sgd(self):
        rng = make_rng(5)
        vals = rng.standard_normal((2, 3))
        grads = [rng.standard_normal((2, 3)) for _ in range(4)]
        a = Node(vals.copy())
        b = Node(vals.copy())
        opt = Sgd([a], lr=0.05, momentum=0.0)
        for g in grads:
            a.zero_grad()
            a.grad += g
            opt.step()
            b.value -= 0.05 * g
        np.testing.assert_array_equal(a.value, b.value)

    def test_zero_grad_means_no_move(self):
        p = Node([[3.0, -1.0]])
        opt = Sgd([p], lr=0.5)
        opt.step()
        np.testing.assert_array_equal(p.value, [[3.0, -1.0]])

    def test_weight_decay(self):
        p = Node([[2.0]])
        opt = Sgd([p], lr=0.1, weight_decay=0.01)
        opt.step()  # grad 0, decay pulls toward 0: 2 - 0.1*0.01*2
        assert p.value[0, 0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0, abs=1e-15)

    def test_zero_grad_helper(self):
        p, q = Node(np.ones((1, 1))), Node(np.ones((2, 2)))
        opt = Sgd([p, q], lr=0.1)
        p.grad += 5.0
        q.grad += 5.0
        opt.zero_grad()
        assert p.grad.sum() == 0.0 and q.grad.sum() == 0.0

    def test_non_finite_gradient_aborts(self):
        p = Node([[1.0]])
        opt = Sgd([p], lr=0.1)
        p.grad[:] = np.nan
        with pytest.raises(NumericError):
            opt.step()

    def test_bad_hyperparameters(self):
        p = Node([[1.0]])
        with pytest.raises(ConfigError):
            Sgd([p], lr=0.0)
        with pytest.raises(ConfigError):
            Sgd([p], lr=0.1, momentum=1.0)
        with pytest.raises(ConfigError):
            Sgd([p], lr=0.1, weight_decay=-0.1)


def reference_sgd(values, grad_steps, lr, momentum, weight_decay):
    """The update written per parameter, as the docstring states it."""
    values = [v.copy() for v in values]
    velocity = [np.zeros_like(v) for v in values]
    for grads in grad_steps:
        for p, g, v in zip(values, grads, velocity):
            v *= momentum
            v += g + weight_decay * p
            p -= lr * v
    return values, velocity


class TestFlatSgd:
    SHAPES = [(1, 1), (3, 7), (190, 190), (5, 1), (2, 2)]

    def draw(self, seed=0):
        assert max(r * c for r, c in self.SHAPES) > _CHUNK  # one array spans chunks
        rng = make_rng(seed, 31)
        values = [rng.standard_normal(shape) for shape in self.SHAPES]
        grad_steps = [[rng.standard_normal(shape) * 0.01 * k for shape in self.SHAPES] for k in range(1, 5)]
        return values, grad_steps

    @pytest.mark.parametrize("momentum, weight_decay", [
        (0.0, 0.0),
        (0.7, 1e-4),
        (0.9, 0.0),
        (0.7, 1e-2),
    ])
    def test_matches_per_parameter_formula_bitwise(self, momentum, weight_decay):
        values, grad_steps = self.draw()
        expected, expected_v = reference_sgd(values, grad_steps, 0.05, momentum, weight_decay)
        params = [Node(v) for v in values]
        opt = Sgd(params, lr=0.05, momentum=momentum, weight_decay=weight_decay)
        for grads in grad_steps:
            opt.zero_grad()
            for p, g in zip(params, grads):
                p.grad += g
            opt.step()
        for p, e, v, ev in zip(params, expected, opt.velocity, expected_v):
            assert p.value.tobytes() == e.tobytes()
            assert v.tobytes() == ev.tobytes()

    def test_nan_in_last_grad_moves_nothing(self):
        values, grad_steps = self.draw(1)
        params = [Node(v) for v in values]
        opt = Sgd(params, lr=0.05, momentum=0.7, weight_decay=1e-4)
        for p, g in zip(params, grad_steps[0]):
            p.grad += g
        opt.step()
        before = [p.value.copy() for p in params], [v.copy() for v in opt.velocity]
        params[-1].grad[-1, -1] = np.nan
        last = f"parameter {len(params) - 1} (shape {params[-1].value.shape})"
        with pytest.raises(NumericError, match=f"non-finite gradient of {re.escape(last)}"):
            opt.step()
        for p, v, pb, vb in zip(params, opt.velocity, *before):
            np.testing.assert_array_equal(p.value, pb)
            np.testing.assert_array_equal(v, vb)

    def test_duplicate_parameter_rejected(self):
        p, q = Node(np.ones((2, 2))), Node(np.ones((1, 1)))
        with pytest.raises(ConfigError):
            Sgd([p, q, p], lr=0.1)

    @pytest.mark.parametrize("attr", ["value", "grad"])
    def test_rebound_parameter_raises(self, attr):
        p, q = Node(np.ones((2, 2))), Node(np.ones((1, 1)))
        opt = Sgd([p, q], lr=0.1)
        setattr(q, attr, np.zeros((1, 1)))
        with pytest.raises(GraphError):
            opt.step()

    def test_parameters_are_views_of_one_buffer(self):
        p, q = Node(np.ones((2, 3))), Node(np.full((1, 1), 2.0))
        opt = Sgd([p, q], lr=0.1)
        assert p.value.base is q.value.base and p.grad.base is q.grad.base
        p.grad += 1.0
        q.grad += 1.0
        opt.zero_grad()
        assert not p.grad.any() and not q.grad.any()
        np.testing.assert_array_equal(p.value, np.ones((2, 3)))
        assert q.value[0, 0] == 2.0
