"""Dense-matrix reverse-mode automatic differentiation and SGD with momentum.

Every value in the graph is a 2-D float64 numpy array ("Matrix"). A Node
wraps one matrix plus a gradient accumulator of the same shape; ops build a
dynamic per-batch graph that is discarded after each optimizer step.

Gradient bookkeeping exists only where a gradient can flow. `Node(value)`
is a leaf that takes a gradient (a parameter, or an input to differentiate
by); `constant(value)` is a leaf whose `grad` is None. An op keeps as
parents only the inputs that carry a grad: data fed in as constants never
gets a zero buffer or a backward pass, and an op over constants alone
returns a constant, with no grad, no parents and no backward closure. So
the same forward code trains a model and serves one whose parameters are
constants (as `networks.load_model` returns them) at the cost of numpy
alone; `no_grad(nodes)` lends a trained model's parameters to such a pass.
`affine(w, x, b)` computes a layer's `w @ x + b` as one node.

Finiteness is checked where a value enters or leaves the graph, not after
each op. A leaf (`Node`, `constant`) refuses NaN and Inf; `backward`
refuses a loss that is not finite before any closure runs; `Sgd.step`
refuses a non-finite grad before it moves anything and checks every value
after the update. Ops check shapes only (and `scalar_mul` its scalar). A
NaN made inside the graph propagates to whatever the graph outputs, so it
always reaches the loss, or the output that `SewModel.predict` checks. An
overflow that a saturating `tanh` or `sigmoid` maps back into range is not
an error: the result is the exact limit (tanh gives +-1, sigmoid 0 or 1),
and the gradient through it is 0.

Graph links run only from a node to its parents, never back, so a graph is
freed by reference counting as soon as its loss node is dropped; the
cyclic garbage collector is never needed. Once an Sgd is built over them,
the parameters' values and grads are views into the optimizer's contiguous
buffers. The engine keeps no global state, so independent training runs
are safe to execute on separate threads.
"""

from __future__ import annotations

from contextlib import contextmanager
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
    out = Node.__new__(Node)
    out.value = as_matrix(values, name)
    out.grad = None
    out.parents = ()
    out._backward = None
    return out


@contextmanager
def no_grad(nodes: Iterable[Node]):
    """Within the block, `nodes` act as constants: their grads are set
    aside (None) and the same arrays put back on exit. Ops over them then
    record no graph, and their values are used in place, never copied."""
    saved = [(node, node.grad) for node in nodes]
    for node, _ in saved:
        node.grad = None
    try:
        yield
    finally:
        for node, grad in saved:
            node.grad = grad


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
    out.parents = tuple(p for p in parents if p.grad is not None)
    if out.parents:
        out.grad = np.zeros_like(value)
        out._backward = backward
    else:
        out.grad = None
        out._backward = None
    return out


def affine(w: Node, x: Node, b: Node) -> Node:
    """w @ x + b, the column vector b (rows x 1) added to every column."""
    if w.value.shape[1] != x.value.shape[0]:
        raise DimensionError(f"affine: inner dims differ, {w.value.shape} x {x.value.shape}")
    if b.value.shape != (w.value.shape[0], 1):
        raise DimensionError(f"affine: bias {b.value.shape} does not fit rows of {w.value.shape}")
    value = w.value @ x.value
    value += b.value

    def backward(grad):
        if w.grad is not None:
            w.grad += grad @ x.value.T
        if x.grad is not None:
            x.grad += w.value.T @ grad
        if b.grad is not None:
            b.grad += grad.sum(axis=1, keepdims=True)

    return _result(value, (w, x, b), backward)


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
    """1 / (1 + exp(-v)) for v >= 0 and exp(v) / (1 + exp(v)) below, so
    that exp never overflows; both forms are computed from exp(-|v|)."""
    v = x.value
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    value = np.where(v >= 0, 1.0 / d, e / d)

    def backward(grad):
        x.grad += grad * value * (1.0 - value)

    return _result(value, (x,), backward)


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
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
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
