"""Dense tensors with reverse-mode automatic differentiation.

A tape is recorded dynamically: every operation returns a new ``Tensor``
holding its inputs and a backward closure, and ``backward`` replays the
tape in reverse topological order.  Arrays are row-major ``float32`` by
default; ``float64`` exists solely so finite-difference gradient checks
are not drowned by rounding.  Every forward operation verifies its output
is finite and raises ``NumericsError`` otherwise instead of letting NaN
or Inf propagate silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GELU_TANH_COEFF = math.sqrt(2.0 / math.pi)  # 0.7978845608028654
GELU_CUBIC_COEFF = 0.044715

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NumericsError(ArithmeticError):
    """A forward operation produced NaN or Inf from finite inputs."""


class GraphError(RuntimeError):
    """The recorded graph cannot support the requested operation."""


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return np.ascontiguousarray(arr, dtype=dtype)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float32)
    return np.ascontiguousarray(arr)


class Tensor:
    """A numpy array plus the tape bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def grad_or_zeros(self) -> np.ndarray:
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # Operator sugar; all real work lives in the module-level ops.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"{op} produced non-finite values")


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], backward) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    needs = any(p.requires_grad for p in parents)
    out.requires_grad = needs
    if needs:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _reduce_row_broadcast(g: np.ndarray, target_shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == target_shape:
        return g
    # b was a 1-D row broadcast over the leading axis of a 2-D a.
    return g.sum(axis=0)


def _binary_shapes_ok(a: Tensor, b: Tensor) -> bool:
    if a.shape == b.shape:
        return True
    return a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]


def add(a: Tensor, b: Tensor) -> Tensor:
    if not _binary_shapes_ok(a, b):
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(_reduce_row_broadcast(g, b.shape))

    return _make(data, "add", (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)

    return _make(data, "sub", (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _binary_shapes_ok(a, b):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(_reduce_row_broadcast(g * a.data, b.shape))

    return _make(data, "mul", (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(-g)

    return _make(-a.data, "neg", (a,), backward)


def add_scalar(a: Tensor, s: float) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)

    return _make(a.data + float(s), "add_scalar", (a,), backward)


def mul_scalar(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return _make(a.data * s, "mul_scalar", (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of vectors and matrices, or of two equal-size stacks of matrices."""
    an, bn = a.data.ndim, b.data.ndim
    batched = an == bn == 3
    if not batched and (an not in (1, 2) or bn not in (1, 2) or (an == 1 and bn == 1)):
        raise ShapeError(f"matmul: unsupported ranks for shapes {a.shape} and {b.shape}")
    if batched and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul: batch sizes differ for shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2 if bn > 1 else 0]:
        raise ShapeError(f"matmul: inner extents differ for shapes {a.shape} and {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            if bn > 1:
                ga = g @ np.swapaxes(b.data, -1, -2) if an > 1 else b.data @ g
            else:  # b is a vector, a is 2-D
                ga = np.outer(g, b.data)
            a.accumulate_grad(ga)
        if b.requires_grad:
            if an > 1:
                gb = np.swapaxes(a.data, -1, -2) @ g
            else:  # a is a vector, b is 2-D
                gb = np.outer(a.data, g)
            b.accumulate_grad(gb)

    return _make(data, "matmul", (a, b), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes; with no ``axes`` a matrix is transposed."""
    if axes is None:
        if a.data.ndim != 2:
            raise ShapeError(f"transpose: expected a matrix, got shape {a.shape}")
        axes = (1, 0)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of the axes of shape {a.shape}")
    inverse = tuple(np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.ascontiguousarray(g.transpose(inverse)))

    return _make(np.ascontiguousarray(a.data.transpose(axes)), "transpose", (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return _make(np.ascontiguousarray(a.data.reshape(shape)), "reshape", (a,), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_rows: no operands")
    widths = {p.shape[1] for p in parts if p.data.ndim == 2}
    if any(p.data.ndim != 2 for p in parts) or len(widths) != 1:
        raise ShapeError(f"concat_rows: operands must be matrices of equal width, got {[p.shape for p in parts]}")
    data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate_grad(g[lo:hi])

    return _make(data, "concat_rows", tuple(parts), backward)


def take_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    indices = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows: expected a matrix, got shape {a.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= a.shape[0]):
        raise IndexError(f"take_rows: index out of range for {a.shape[0]} rows")
    data = a.data[indices]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, indices, g)
            a.accumulate_grad(full)

    return _make(data, "take_rows", (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, g))

    return _make(data, "sum_all", (a,), backward)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * data)

    return _make(data, "exp", (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation (GPT-2 flavour)."""
    x = a.data
    inner = GELU_TANH_COEFF * (x + GELU_CUBIC_COEFF * x**3)
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(g):
        if a.requires_grad:
            dinner = GELU_TANH_COEFF * (1.0 + 3.0 * GELU_CUBIC_COEFF * x**2)
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
            a.accumulate_grad(g * local)

    return _make(data, "gelu", (a,), backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * inside)

    return _make(data, "clamp", (a,), backward)


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, computed with max subtraction.

    ``mask`` is a boolean array that broadcasts to the input's shape; False
    entries are excluded from the distribution and receive exactly zero
    probability.  Masking happens inside the op so no -inf score is ever
    materialized.
    """
    x = a.data
    if mask is not None:
        try:
            mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        except ValueError:
            raise ShapeError(f"softmax: mask shape {np.shape(mask)} does not broadcast to {x.shape}") from None
        if not mask.any(axis=-1).all():
            raise ShapeError("softmax: a row has no unmasked entries")
        shifted = np.where(mask, x, -np.inf)
        shifted = shifted - shifted.max(axis=-1, keepdims=True)
        e = np.where(mask, np.exp(shifted), 0.0)
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=-1, keepdims=True)
            a.accumulate_grad(data * (g - dot))

    return _make(data, "softmax", (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g - np.exp(data) * g.sum(axis=-1, keepdims=True))

    return _make(data, "log_softmax", (a,), backward)


def pick(a: Tensor, column_ids: np.ndarray) -> Tensor:
    """Select a[i, column_ids[i]] for each row i."""
    ids = np.asarray(column_ids, dtype=np.int64)
    if a.data.ndim != 2 or ids.ndim != 1 or ids.shape[0] != a.shape[0]:
        raise ShapeError(f"pick: need one column id per row, got {a.shape} and {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= a.shape[1]):
        raise IndexError(f"pick: column id out of range for width {a.shape[1]}")
    rows = np.arange(a.shape[0])
    data = a.data[rows, ids]

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[rows, ids] = g
            a.accumulate_grad(full)

    return _make(data, "pick", (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({d},)")
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = x.data.mean(axis=-1, keepdims=True)
        centered = x.data - mu
        var = (centered**2).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = centered * inv
        data = gain.data * xhat + bias.data

    def backward(g):
        if gain.requires_grad:
            gg = (g * xhat).reshape(-1, d).sum(axis=0)
            gain.accumulate_grad(gg)
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx_hat = g * gain.data
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad(inv * (gx_hat - m1 - xhat * m2))

    return _make(data, "layer_norm", (x, gain, bias), backward)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with an explicit generator so forwards stay pure."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)
    keep = keep.astype(a.data.dtype)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * keep)

    return _make(a.data * keep, "dropout", (a,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Summed negative log-likelihood in nats over unmasked positions.

    Returns the scalar loss (on the tape) together with a detached copy of
    the per-position losses. Raises if every position is masked or any
    target id falls outside the vocabulary.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be positions x vocabulary, got {logits.shape}")
    t, v = logits.shape
    if targets.shape != (t,) or mask.shape != (t,):
        raise ShapeError(f"cross_entropy: targets/mask must have shape ({t},)")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError(f"cross_entropy: target id out of range for vocabulary size {v}")
    if not mask.any():
        raise ValueError("cross_entropy: every position is masked, loss is empty")
    per_position = neg(pick(log_softmax(logits), targets))
    total = sum_all(mul(per_position, Tensor(mask.astype(logits.data.dtype))))
    return total, per_position.data.copy()


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor that ``loss`` depends on."""
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise GraphError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class ParameterSet:
    """Named trainable tensors plus the set of currently frozen names."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.frozen: set[str] = set()

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def freeze(self, names) -> None:
        for name in names:
            if name not in self._params:
                raise KeyError(f"unknown parameter: {name}")
            self.frozen.add(name)

    def unfreeze_all(self) -> None:
        self.frozen.clear()

    def size(self) -> int:
        return sum(p.data.size for p in self._params.values())

    def astype(self, dtype) -> "ParameterSet":
        out = ParameterSet()
        for name, p in self._params.items():
            out.add(name, Tensor(p.data.astype(dtype)))
        out.frozen = set(self.frozen)
        return out


def rescale_for_grad_check(params: "ParameterSet", rng: np.random.Generator, scale: float = 0.4) -> None:
    """Redraw parameter values at unit-ish scale before a finite-difference check.

    Tiny production inits (std 0.02) leave deep parameters with gradients
    near 1e-10, where central differences measure only rounding noise.
    Normalization gains are drawn around one so no layer degenerates, and
    log-sigma heads stay small so no KL blow-up inflates the loss (the
    difference noise scales with the loss magnitude).
    """
    for name, p in params.items():
        if name.endswith(".g"):
            p.data[...] = 1.0 + scale * 0.5 * rng.standard_normal(p.shape)
        elif ".ls." in name:
            p.data[...] = scale * 0.125 * rng.standard_normal(p.shape)
        else:
            p.data[...] = scale * rng.standard_normal(p.shape)


@dataclass
class GradCheckReport:
    """Outcome of comparing tape gradients with central finite differences."""

    max_rel_error: float
    worst_parameter: str
    per_parameter: dict[str, float]
    deterministic: bool
    tolerance: float
    checked_elements: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.deterministic and self.max_rel_error < self.tolerance


def grad_check(fn, params, eps: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` takes no arguments, reads the tensors in ``params`` and returns
    a scalar ``Tensor``; it must be deterministic (two forward passes are
    compared bit-for-bit and any disagreement fails the check).  All
    parameters must be float64.  The relative error per element is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if not 1e-6 <= eps <= 1e-3:
        raise ValueError(f"grad_check: eps must lie in [1e-6, 1e-3], got {eps}")
    items = list(params.items())
    for name, p in items:
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check: parameter {name} is {p.data.dtype}, needs float64")

    first = fn()
    second = fn()
    if not np.array_equal(first.data, second.data):
        return GradCheckReport(
            max_rel_error=np.inf,
            worst_parameter="<non-deterministic>",
            per_parameter={},
            deterministic=False,
            tolerance=tolerance,
            notes=["two forward passes disagreed"],
        )

    for _, p in items:
        p.grad = None
    out = fn()
    backward(out)
    analytic = {name: p.grad_or_zeros().copy() for name, p in items}

    per_parameter: dict[str, float] = {}
    worst = ("", 0.0)
    checked = 0
    for name, p in items:
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        worst_here = 0.0
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = float(fn().data)
            flat[i] = keep - eps
            down = float(fn().data)
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > worst_here:
                worst_here = rel
            checked += 1
        per_parameter[name] = worst_here
        if worst_here > worst[1]:
            worst = (name, worst_here)

    return GradCheckReport(
        max_rel_error=worst[1],
        worst_parameter=worst[0],
        per_parameter=per_parameter,
        deterministic=True,
        tolerance=tolerance,
        checked_elements=checked,
    )
