"""Span tracing of sew's layers, installed from outside the library.

`Tracer.install()` replaces public functions and methods of sew's modules
with wrappers that record a span per call: a name, a start, an end and the
index of the enclosing span. Spans stay in memory; `Tracer.write` puts
them on disk when the run ends. `Tracer.uninstall()` puts the originals
back, so an untraced process or phase runs sew's own code unchanged.
`StepClock` is the one wrapper an untraced run keeps: a clock read at the
start and at the end of every SGD step.
"""

from __future__ import annotations

import functools
import json
import logging
import statistics
import time
import weakref
from collections import Counter, defaultdict

import numpy as np
from sew import autodiff, metrics, networks, training
from sew import data as sew_data

_LOG_COUNTS = {
    "alignment term skipped": "dcca.skipped_batches",
    "nearly tied": "dcca.tie_warnings",
}


def graph_nodes(root) -> list:
    """Every node reachable from `root` through `parents`."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


class LogCounter(logging.Handler):
    """Counts sew's degraded-batch warnings by kind."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        message = record.getMessage()
        for needle, name in _LOG_COUNTS.items():
            if needle in message:
                self.counts[name] += 1

    def attach(self):
        for name in ("sew.training", "sew.dcca"):
            logging.getLogger(name).addHandler(self)

    def detach(self):
        for name in ("sew.training", "sew.dcca"):
            logging.getLogger(name).removeHandler(self)


class Patches:
    """Replaces attributes of sew's modules and classes and puts the
    originals back, last replaced first, on `uninstall`."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


class FirstStep(Exception):
    """Raised by a StepClock that stops training at its first SGD step."""


class StepClock(Patches):
    """Notes when each SGD step starts (`Sgd.zero_grad`) and ends (the end
    of `Sgd.step`): one clock read each. With `stop_at_first_step` it raises
    FirstStep when the first step would start, which ends a start-up."""

    def __init__(self, stop_at_first_step: bool = False):
        super().__init__()
        self.stop_at_first_step = stop_at_first_step
        self.starts: list[float] = []
        self.ends: list[float] = []

    def install(self) -> None:
        zero_grad, step = autodiff.Sgd.zero_grad, autodiff.Sgd.step

        def clocked_zero_grad(opt):
            self.starts.append(time.perf_counter())
            if self.stop_at_first_step:
                raise FirstStep
            zero_grad(opt)

        def clocked_step(opt):
            step(opt)
            self.ends.append(time.perf_counter())
        self._patch(autodiff.Sgd, "zero_grad", clocked_zero_grad)
        self._patch(autodiff.Sgd, "step", clocked_step)


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.block_names = weakref.WeakKeyDictionary()
        self.nodes_per_step: list[int] = []
        self.grad_bytes_per_step: list[int] = []
        self.nodes_per_call: list[int] = []
        self.live: dict[int, np.ndarray] = {}  # by position in the optimizer's list
        self.partly_dead: set[int] = set()  # positions whose mask is not yet all True
        self._pending_loss = None
        self._grouped = None

    # --- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def _span(self, name, fn, after=None):
        """`fn` inside a span. `name` is a string or a function of the call's
        arguments; `after(result, *args)` runs once the span has closed, so
        its bookkeeping is not timed."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name if isinstance(name, str) else name(*args))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out, *args)
            return out
        return wrapper

    # --- installation -----------------------------------------------------

    def _register(self, model):
        for name, block in model.blocks():
            self.block_names[block] = name
        return model

    def install(self) -> None:
        span = self._span

        self._patch(autodiff, "backward", span("autodiff.backward", autodiff.backward, self._after_backward))
        # one SGD step runs from zero_grad to the end of Sgd.step
        zero_grad = span("autodiff.zero_grad", autodiff.Sgd.zero_grad)

        def step_zero_grad(opt):
            self.open("training.step")
            zero_grad(opt)
        self._patch(autodiff.Sgd, "zero_grad", step_zero_grad)
        self._patch(autodiff.Sgd, "step", span("autodiff.sgd_step", autodiff.Sgd.step, self._after_step))

        def block_name(block, x):
            return f"networks.{self.block_names.get(block, 'unnamed')}.fwd"
        for cls in (networks.Mlp, networks.GruRegressor):
            self._patch(cls, "forward", span(block_name, cls.forward))
        self._patch(networks.SewModel, "deployment_forward",
                    span("networks.deployment_forward", networks.SewModel.deployment_forward,
                         self._after_deployment_forward))
        self._patch(networks.SewModel, "predict", span("networks.predict", networks.SewModel.predict))

        assemble = span("networks.assemble", networks.assemble_sew)
        load = span("networks.load_model", networks.load_model)
        save = span("networks.save_model", networks.save_model)
        self._patch(training, "assemble_sew", lambda *a, **k: self._register(assemble(*a, **k)))
        self._patch(networks, "load_model", lambda *a, **k: self._register(load(*a, **k)))
        self._patch(networks, "save_model", save)
        self._patch(training, "save_model", save)

        self._patch(training, "train", span("training.train", training.train))
        self._patch(training, "sew_loss", span("training.sew_loss", training.sew_loss))
        self._patch(training, "cca_correlation", span("dcca.cca_correlation", training.cca_correlation))
        self._patch(training, "standardize_dataset", span("data.standardize", training.standardize_dataset))
        self._patch(training, "batcher", self._traced_batcher(training.batcher))
        self._patch(metrics, "evaluate", span("metrics.evaluate", metrics.evaluate))
        self._patch(sew_data, "load_features", span("data.load_csv", sew_data.load_features))
        self._patch(sew_data, "load_labels", span("data.load_csv", sew_data.load_labels))

    def uninstall(self) -> None:
        super().uninstall()
        self.stack.clear()  # spans an exception left open stay unclosed

    def _after_backward(self, out, loss) -> None:
        self._pending_loss = loss

    def _after_deployment_forward(self, out, model, m_w) -> None:
        if self.stack and self.spans[self.stack[-1]][0] == "networks.predict":
            self.nodes_per_call.append(len(graph_nodes(out)))

    def _after_step(self, out, opt) -> None:
        self.close(self.stack[-1])  # the training.step span
        loss, self._pending_loss = self._pending_loss, None
        if loss is not None:
            nodes = graph_nodes(loss)
            self.nodes_per_step.append(len(nodes))
            self.grad_bytes_per_step.append(sum(n.grad.nbytes for n in nodes))
        for i, p in enumerate(opt.params):
            live = self.live.get(i)
            if live is None or live.shape != p.grad.shape:
                live = self.live[i] = np.zeros(p.grad.shape, dtype=bool)
                self.partly_dead.add(i)
            if i in self.partly_dead:
                live |= p.grad != 0.0
                if live.all():
                    self.partly_dead.discard(i)

    def _traced_batcher(self, original):
        def batcher(*args, **kwargs):
            batches = original(*args, **kwargs)
            while True:
                idx = self.open("data.batch")
                try:
                    batch = next(batches, None)
                finally:
                    self.close(idx)
                if batch is None:
                    return
                yield batch
        return batcher

    # --- analysis ---------------------------------------------------------

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations in ms of closed spans called `name`, optionally only
        those whose enclosing span is called `parent`."""
        if self._grouped is None:
            self._grouped = defaultdict(list)
            for span_name, start, end, par in self.spans:
                if end is not None:
                    par_name = self.spans[par][0] if par >= 0 else None
                    self._grouped[(span_name, par_name)].append((end - start) * 1e3)
        return [d for (n, p), ds in self._grouped.items()
                if n == name and (parent is None or p == parent) for d in ds]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children, in ms."""
        full = [(end - start) * 1e3 if end is not None else 0.0 for _, start, end, _ in self.spans]
        own = list(full)
        for (_, _, _, par), duration in zip(self.spans, full):
            if par >= 0:
                own[par] -= duration
        return own

    def self_durations(self, name: str) -> list[float]:
        return [own for (span_name, *_), own in zip(self.spans, self.self_times()) if span_name == name]

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms."""
        own = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for (name, start, end, _), self_ms in zip(self.spans, own):
            if end is None:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += self_ms
        return dict(out)

    def live_param_share(self) -> float:
        live = sum(int(m.sum()) for m in self.live.values())
        total = sum(m.size for m in self.live.values())
        return live / total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"summary": self.summary(),
                       "spans": [[n, round(s, 7), round(e, 7) if e is not None else None, p]
                                 for n, s, e, p in self.spans]}, fh)


def median(values) -> float:
    return float(statistics.median(values))
