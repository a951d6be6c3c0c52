"""Dense-matrix reverse-mode automatic differentiation and SGD with momentum.

Every value in the graph is a 2-D float64 numpy array ("Matrix"). A Node
wraps one matrix plus a gradient accumulator of the same shape; ops build a
dynamic per-batch graph that is discarded after each optimizer step.

Gradient bookkeeping exists only where a gradient can flow. `Node(value)`
is a leaf that takes a gradient (a parameter, or an input to differentiate
by); `constant(value)` is a leaf whose `grad` is None. An op keeps as
parents only the inputs that carry a grad: data fed in as constants never
gets a zero buffer or a backward pass, and an op over constants alone
returns a constant, with no grad, no parents and no backward closure.

A layer is one node: `affine(w, x, b)` is a linear layer's `w @ x + b`,
`tanh_affine` a hidden layer, `gated` one GRU step from a zero state, and
`weighted_sum` adds a loss's 1x1 terms. Each gives the value and grads,
byte for byte, of the chain of elementary ops it stands for, which the
tests keep as the reference (tests/_oracles.py). `backward` sorts the op
nodes only: a leaf has no closure to run, so it is never pushed or ordered.

A forward pass that needs no gradient (serving, the dev pass) builds no
graph at all: a block's `forward` takes the ops it calls as an argument,
and `array_ops` holds its three layer ops on plain arrays. Each computes
its value with the `*_value` function its graph op uses (`affine_value`,
`tanh_affine_value`, `gated_value`), so one forward code gives the same
bytes either way. A `*_value` function writes only into arrays it made
itself, never into its inputs: the affine result takes its bias and then
its tanh in place, the candidate takes the gate, and the sigmoid reuses
its exp(-|v|) and makes its one divide in place, so a gated layer
allocates 4 arrays, not the 12 of one new array per numpy call.

Finiteness is checked where a value enters or leaves the graph, not after
each op. A leaf (`Node`, `constant`) refuses NaN and Inf; `backward`
refuses a loss that is not finite before any closure runs; `Sgd.step`
refuses a non-finite grad before it moves anything and checks every value
after the update. Ops check shapes only (and `weighted_sum` its weights). A
NaN made inside the graph, or inside a pass on arrays, propagates to
whatever it outputs, so it always reaches the loss, or the output that
`SewModel.predict` checks. An overflow that a saturating tanh or
sigmoid maps back into range is not an error: the result is the exact
limit (tanh gives +-1, sigmoid 0 or 1), and the gradient through it is 0.

Graph links run only from a node to its parents, never back, so a graph is
freed by reference counting as soon as its loss node is dropped; the
cyclic garbage collector is never needed. Once an Sgd is built over them,
the parameters' values and grads are views into the optimizer's contiguous
buffers. The engine keeps no global state, so independent training runs
are safe to execute on separate threads.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, GraphError, NumericError

Matrix = np.ndarray  # 2-D float64, row-major


def as_2d(values, name: str = "matrix") -> Matrix:
    """Coerce to a 2-D float64 array or raise; the entries are not inspected."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def as_matrix(values, name: str = "matrix") -> Matrix:
    """Coerce to a finite 2-D float64 array or raise."""
    m = as_2d(values, name)
    if not np.isfinite(m).all():
        raise NumericError(f"{name} contains NaN or Inf")
    return m


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for one purpose (block init, batching, data).

    Separate streams keep e.g. encoder initialization identical across
    ablation variants that build different block sets from the same seed.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream)))


def uniform_init(rows: int, cols: int, fan_in: int, rng: np.random.Generator) -> Matrix:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=(rows, cols))


class Node:
    """One graph node: a value, its gradient accumulator (None for a
    constant), and links to the parents that carry a gradient."""

    __slots__ = ("value", "grad", "parents", "_backward", "__weakref__")

    def __init__(self, value, name: str = "node value"):
        """A leaf that takes a gradient."""
        self.value = as_matrix(value, name)
        self.grad = np.zeros_like(self.value)
        self.parents = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Node(shape={self.value.shape}, leaf={self._backward is None})"


def constant(values, name: str = "constant") -> Node:
    """A leaf that takes no gradient: its `grad` is None and `backward`
    never reaches it."""
    return unchecked_constant(as_matrix(values, name))


def unchecked_constant(value: Matrix) -> Node:
    """A constant holding the 2-D float64 array `value` itself, neither
    copied nor inspected: how a pass on plain arrays returns its output
    where a Node is expected. The caller checks its finiteness."""
    out = Node.__new__(Node)
    out.value = value
    out.grad = None
    out.parents = ()
    out._backward = None
    return out


def _result(value: Matrix, parents: Sequence[Node], backward: Callable[[Matrix], None]) -> Node:
    """The output node of one op; its value is not inspected.

    Only the parents that carry a grad are kept; if none does, the output
    is a constant and `backward` is dropped. Otherwise `backward(grad)` is
    called with the output's grad array once every consumer of the output
    has run, and adds into the grads of those parents whose grad is not
    None. Taking the grad as an argument, the closure never needs the
    output node: node -> closure -> node would make every graph a reference
    cycle that only the cyclic collector frees.
    """
    out = Node.__new__(Node)
    out.value = value
    out.parents = tuple([p for p in parents if p.grad is not None])
    if out.parents:
        # C order whatever the value's layout: a grad's layout can change
        # the bytes only where it is reduced or multiplied (affine's
        # backward), and an affine value is C-ordered already
        out.grad = np.zeros(value.shape)
        out._backward = backward
    else:
        out.grad = None
        out._backward = None
    return out


def _check_affine(w: Node, x: Node, b: Node) -> None:
    if w.value.shape[1] != x.value.shape[0]:
        raise DimensionError(f"affine: inner dims differ, {w.value.shape} x {x.value.shape}")
    if b.value.shape != (w.value.shape[0], 1):
        raise DimensionError(f"affine: bias {b.value.shape} does not fit rows of {w.value.shape}")


def _affine_backward(w: Node, x: Node, b: Node, grad: Matrix) -> None:
    """What affine's backward adds, given the grad of its output."""
    if w.grad is not None:
        w.grad += grad @ x.value.T
    if x.grad is not None:
        x.grad += w.value.T @ grad
    if b.grad is not None:
        b.grad += grad.sum(axis=1, keepdims=True)


def affine_value(w: Node, x: Matrix, b: Node) -> Matrix:
    """w @ x + b as a new array, from the values of the weight and bias
    Nodes and the array x, whose shapes the caller has checked. np.dot
    gives w @ x's bytes on 2-D operands, with less call overhead."""
    value = np.dot(w.value, x)
    value += b.value
    return value


def affine(w: Node, x: Node, b: Node) -> Node:
    """w @ x + b, the column vector b (rows x 1) added to every column."""
    _check_affine(w, x, b)
    return _result(affine_value(w, x.value, b), (w, x, b), functools.partial(_affine_backward, w, x, b))


def sigmoid_value(v: Matrix) -> Matrix:
    """1 / (1 + exp(-v)) for v >= 0 and exp(v) / (1 + exp(v)) below, so
    that exp never overflows. With e = exp(-|v|) both forms are n / (1 + e),
    one divide, where n = max(sign(v), e) is 1.0 for v >= 0 (e <= 1 there,
    and e == 1 at v == 0) and e below; a NaN stays NaN. v is not written."""
    e = np.abs(v)
    np.negative(e, out=e)
    np.exp(e, out=e)
    n = np.sign(v)
    np.maximum(n, e, out=n)
    e += 1.0
    n /= e
    return n


# --- fused ops -------------------------------------------------------------
# Each is one node for a chain of elementary ops, with the same arithmetic
# in the same order: its value is the chain's value, and its backward adds
# into each input the bytes the chain's closures would. (An intermediate
# grad of the chain is a zeroed buffer plus one product, which turns a -0.0
# into +0.0; every grad that leaves a fused op lands in such a buffer too,
# so the results match.)


def tanh_affine_value(w: Node, x: Matrix, b: Node) -> Matrix:
    """tanh(w @ x + b), computed as tanh(affine(w, x, b)) computes it."""
    value = affine_value(w, x, b)
    return np.tanh(value, out=value)


def tanh_affine(w: Node, x: Node, b: Node) -> Node:
    """tanh(w @ x + b): a hidden layer as one node."""
    _check_affine(w, x, b)
    value = tanh_affine_value(w, x.value, b)

    def backward(grad):
        _affine_backward(w, x, b, grad * (1.0 - value * value))

    return _result(value, (w, x, b), backward)


def _gate_and_candidate(w_z: Node, b_z: Node, w_h: Node, b_h: Node, x: Matrix) -> tuple[Matrix, Matrix]:
    return sigmoid_value(affine_value(w_z, x, b_z)), tanh_affine_value(w_h, x, b_h)


def gated_value(w_z: Node, b_z: Node, w_h: Node, b_h: Node, x: Matrix) -> Matrix:
    """sigmoid(w_z @ x + b_z) * tanh(w_h @ x + b_h)."""
    z, cand = _gate_and_candidate(w_z, b_z, w_h, b_h, x)
    cand *= z
    return cand


def gated(w_z: Node, b_z: Node, w_h: Node, b_h: Node, x: Node) -> Node:
    """sigmoid(w_z @ x + b_z) * tanh(w_h @ x + b_h), one GRU step from a
    zero state, as one node. Its backward runs the gate path before the
    candidate path, as the composition's does."""
    _check_affine(w_z, x, b_z)
    _check_affine(w_h, x, b_h)
    z, cand = _gate_and_candidate(w_z, b_z, w_h, b_h, x.value)

    def backward(grad):
        _affine_backward(w_z, x, b_z, ((grad * cand) * z) * (1.0 - z))
        _affine_backward(w_h, x, b_h, (grad * z) * (1.0 - cand * cand))

    return _result(z * cand, (w_z, b_z, w_h, b_h, x), backward)


def weighted_sum(terms: Sequence[Node], weights: Sequence[float]) -> Node:
    """sum_i weights[i] * terms[i] over 1x1 terms, added left to right: the
    value and grads of elementwise_add over scalar_mul nodes in that order
    (a weight of 1.0 multiplies exactly, as a term added bare would)."""
    weights = [float(c) for c in weights]
    if not terms or len(terms) != len(weights):
        raise GraphError(f"weighted_sum: {len(terms)} term(s) but {len(weights)} weight(s)")
    if not all(math.isfinite(c) for c in weights):
        raise NumericError("weighted_sum: a weight is not finite")
    for t in terms:
        if t.value.shape != (1, 1):
            raise DimensionError(f"weighted_sum: terms must be 1x1, got {t.value.shape}")
    value = weights[0] * terms[0].value
    for c, t in zip(weights[1:], terms[1:]):
        value = value + c * t.value

    def backward(grad):
        for c, t in zip(weights, terms):
            if t.grad is not None:
                t.grad += c * grad

    return _result(value, terms, backward)


# the forward ops a block calls, for a pass that builds no graph: each
# takes and gives plain arrays (reading its weight and bias Nodes' values
# in place) and computes what the graph op of its name computes
array_ops = SimpleNamespace(affine=affine_value, tanh_affine=tanh_affine_value, gated=gated_value)


# the unary ops below need no check on their input's grad: an output that
# has a backward has its one parent, and that parent carries a grad


def sum_all(x: Node) -> Node:
    def backward(grad):
        x.grad += grad[0, 0]

    return _result(np.array([[x.value.sum()]]), (x,), backward)


def mse_loss(pred: Node, target) -> Node:
    """Mean over all entries of (pred - target)^2, as a 1x1 node."""
    target = as_2d(target, "mse target")
    if pred.value.shape != target.shape:
        raise DimensionError(f"mse_loss: shapes differ, {pred.value.shape} vs {target.shape}")
    diff = pred.value - target
    n = diff.size

    def backward(grad):
        pred.grad += grad[0, 0] * (2.0 / n) * diff

    return _result(np.array([[(diff * diff).sum() / n]]), (pred,), backward)


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) into .grad for every node reachable from loss.

    Visits each node exactly once, in reverse topological order. Grads are
    accumulated, not overwritten: zero parameter grads before each step.
    A loss that is NaN or Inf raises NumericError before any closure runs.
    """
    if loss.value.shape != (1, 1):
        raise GraphError(f"backward needs a scalar (1x1) loss, got shape {loss.value.shape}")
    if loss.grad is None:
        raise GraphError("backward needs a loss that depends on a node with a gradient; "
                         "this one was computed from constants only")
    if not np.isfinite(loss.value[0, 0]):
        raise NumericError(f"loss is not finite ({float(loss.value[0, 0])!r})")
    # a depth-first sort of the op nodes; a leaf has no closure to order,
    # so it is never pushed
    order: list[Node] = []
    visited: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if parent._backward is not None and parent not in visited:
                stack.append((parent, False))
    loss.grad += 1.0
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


# elements per slice of the SGD update: the scratch rows stay in cache
_CHUNK = 1 << 15


class Sgd:
    """SGD with momentum and L2 weight decay over a fixed parameter list.

    Update per parameter: g = grad + weight_decay * param;
    v = momentum * v + g; param -= lr * v.

    `step` refuses a NaN or Inf grad before it moves anything, and checks
    every value after the update; either failure names the parameter by
    its position in the list and its shape.

    The optimizer owns three contiguous buffers (values, grads, velocity).
    On construction every parameter's `value` and `grad`, and each entry of
    `velocity`, becomes a view into them, so zeroing is one fill and the
    update runs over a few large slices instead of per array. Write into
    those arrays in place: a parameter whose `value` or `grad` has been
    rebound makes `step` raise GraphError.
    """

    def __init__(
        self,
        params: Iterable[Node],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ConfigError(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ConfigError("a parameter is listed more than once")
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ConfigError(f"parameter {i} (shape {p.value.shape}) is a constant and takes no "
                                  "gradient; a model from load_model serves, it does not train")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        size = sum(p.value.size for p in self.params)
        self._values = np.empty(size)
        self._grads = np.empty(size)
        self._velocity = np.zeros(size)
        self._scratch = np.empty(min(size, _CHUNK))
        self.velocity = []
        self._stops = []
        start = 0
        for p in self.params:
            shape, stop = p.value.shape, start + p.value.size
            self._values[start:stop] = p.value.ravel()
            self._grads[start:stop] = p.grad.ravel()
            p.value = self._values[start:stop].reshape(shape)
            p.grad = self._grads[start:stop].reshape(shape)
            self.velocity.append(self._velocity[start:stop].reshape(shape))
            self._stops.append(stop)
            start = stop
        self._views = [(p.value, p.grad) for p in self.params]

    def _first_non_finite(self, flat: Matrix, offset: int = 0) -> str:
        """Names the parameter holding the first NaN or Inf of `flat`, a
        slice of a buffer starting at entry `offset`."""
        at = offset + int(np.argmin(np.isfinite(flat)))
        i = int(np.searchsorted(self._stops, at, side="right"))
        return f"parameter {i} (shape {self.params[i].value.shape})"

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

    def step(self) -> None:
        for i, (p, (value, grad)) in enumerate(zip(self.params, self._views)):
            if p.value is not value or p.grad is not grad:
                raise GraphError(f"parameter {i} (shape {value.shape}) had its value or grad "
                                 "rebound after the optimizer was built; write into it in place")
        if not np.isfinite(self._grads).all():
            raise NumericError(f"sgd step aborted: non-finite gradient of {self._first_non_finite(self._grads)}")
        # g = grad + wd * value, summed in the other order (IEEE addition
        # commutes exactly), so every entry matches the formula above
        for start in range(0, self._values.size, _CHUNK):
            value = self._values[start:start + _CHUNK]
            grad = self._grads[start:start + _CHUNK]
            v = self._velocity[start:start + _CHUNK]
            buf = self._scratch[:value.size]
            np.multiply(value, self.weight_decay, out=buf)
            buf += grad
            v *= self.momentum
            v += buf
            np.multiply(v, self.lr, out=buf)
            value -= buf
            # checked while the slice is still in cache
            if not np.isfinite(value).all():
                raise NumericError(f"sgd step: {self._first_non_finite(value, start)} "
                                   "is not finite after the update")
