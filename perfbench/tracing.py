"""Spans and exact tape counts for the traced benchmark run.

The tracer wraps the public functions of the storyvae modules, and the
public methods of their main classes, by replacing module and class
attributes from this file; no file of the program changes.  Every call
made through a wrapped name records one span (name, start, end, parent,
op id).  Spans live in flat in-memory arrays and are written out once,
when the run ends.

Calls through a name bound with ``from module import name`` before the
tracer was installed bypass it; storyvae reaches its own layers through
module attributes (``ag.matmul``, ``tf.stack_forward``), so the layers
below are all seen.  ``Tensor`` and ``ParameterSet`` methods stay bare:
they run inside every op and every backward step, and wrapping them
would time the wrapper more than the work.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("autograd", "corpus", "transformer", "latent", "model", "training", "sampling", "evaluation", "cli")
CLASSES = {"corpus": ("Vocabulary",), "model": ("StoryVAE",), "training": ("Trainer", "Adam")}

# Span names the benchmark itself opens around its units of work.
OP_SPAN = "bench.op"


def _public_functions(module):
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Records spans while installed; counts tape nodes while ``counting``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.counting = False
        self.node_kinds: Counter = Counter()
        self.grad_nodes = 0
        self.decoder_rows = 0

    # -- spans -------------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)

    def reset_counts(self) -> None:
        self.node_kinds.clear()
        self.grad_nodes = 0
        self.decoder_rows = 0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer, nid = self, self.intern(name)

        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_op(self, fn, kind: str, tensor_type):
        """An autograd op: a span, plus one node of ``kind`` per new tensor it returns."""
        tracer, nid = self, self.intern(f"autograd.{kind}")

        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if tracer.counting and isinstance(out, tensor_type):
                for a in args:
                    if a is out:  # e.g. dropout at rate 0 hands back its input
                        break
                else:
                    tracer.node_kinds[kind] += 1
                    if out.requires_grad:
                        tracer.grad_nodes += 1
            return out

        return traced

    def _wrap_stack_forward(self, fn):
        tracer = self
        ids = {role: self.intern(f"transformer.stack_forward.{role}") for role in ("encoder", "decoder")}

        def traced(tokens, *args, **kwargs):
            role = kwargs.get("role", args[2] if len(args) > 2 else None)
            idx = tracer.open(ids.get(role, ids["decoder"]))
            try:
                return fn(tokens, *args, **kwargs)
            finally:
                tracer.close(idx)
                if tracer.counting and role == "decoder":
                    tracer.decoder_rows += int(np.size(tokens))

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package: dict) -> None:
        """Wrap every public function of the named modules; ``package`` maps short name to module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        tensor_type = package["autograd"].Tensor
        for short in MODULES:
            module = package[short]
            for name, fn in list(_public_functions(module)):
                if short == "autograd" and name not in ("backward", "grad_check", "rescale_for_grad_check"):
                    wrapped = self._wrap_op(fn, name, tensor_type)
                elif short == "transformer" and name == "stack_forward":
                    wrapped = self._wrap_stack_forward(fn)
                else:
                    wrapped = self._wrap(fn, f"{short}.{name}")
                self._patch(module, name, wrapped)
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(module, cls_name)
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_"):
                        continue
                    span_name = f"{short}.{cls_name}.{name}"
                    if isinstance(attr, classmethod):
                        self._patch(cls, name, classmethod(self._wrap(attr.__func__, span_name)))
                    elif isinstance(attr, staticmethod):
                        self._patch(cls, name, staticmethod(self._wrap(attr.__func__, span_name)))
                    elif inspect.isfunction(attr):
                        self._patch(cls, name, self._wrap(attr, span_name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "names": np.array(self.names),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())


class SpanTable:
    """Durations and self times of recorded spans, for aggregation by name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(a["names"])
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.op = a["op"]
        self.duration = a["end"] - a["start"]
        child = np.zeros_like(self.duration)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child
        self.module = np.array([n.split(".", 1)[0] for n in self.names])[self.name_id] if self.names else np.array([])

    def total(self, name: str, where: np.ndarray, self_only: bool = False) -> float:
        """Seconds spent in spans called ``name`` among the rows ``where`` selects."""
        if name not in self.names:
            return 0.0
        rows = where & (self.name_id == self.names.index(name))
        return float((self.self_time if self_only else self.duration)[rows].sum())

    def module_self(self, module: str, where: np.ndarray) -> float:
        """Seconds spent in ``module``'s own code, excluding the wrapped calls it makes."""
        return float(self.self_time[where & (self.module == module)].sum())

    def module_total(self, module: str, where: np.ndarray) -> float:
        """Seconds inside ``module``, counting nested calls within the module once."""
        inside = self.module == module
        parent_inside = np.zeros_like(inside)
        has_parent = self.parent >= 0
        parent_inside[has_parent] = inside[self.parent[has_parent]]
        return float(self.duration[where & inside & ~parent_inside].sum())
