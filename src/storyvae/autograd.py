"""Dense tensors with reverse-mode automatic differentiation.

A tape is recorded dynamically: an operation on at least one tensor with
``requires_grad`` returns a new ``Tensor`` holding its inputs and a
backward closure, and ``backward`` replays the tape in reverse
topological order, dropping each interior node's gradient once its
backward has run.  An operation whose inputs all lack ``requires_grad``
records nothing, so ``requires_grad`` is the one switch for what trains:
parameters start without it, and only a train step or a gradient check
sets it, for its own backward only.  A ``ParameterSet`` lays its
parameters out once over one flat buffer; once an optimizer tracks its
gradients, ``backward`` writes each parameter's gradient into its view
of a flat gradient buffer, which lets the optimizer work on whole
slices.  Arrays are ``float32`` by default, and every op hands back a
row-major array; ``float64`` exists solely so finite-difference gradient
checks are not drowned by rounding.  Every
forward operation verifies its output is finite and raises
``NumericsError`` otherwise instead of letting NaN or Inf propagate
silently.  That check, in ``_make``, is the one numerics
gate: no op silences numpy's warnings, so an overflow may warn before it
raises, and one whose output is finite (the cube inside
``mlp_sublayer``'s GELU) is no error.  A sink pass (``sink_pass``), such
as a decoder call, skips that check and checks only the places every
non-finite value of the pass reaches; when one fails, the pass runs
again with every op's check on, which raises the same error.  Inside a
pass, an op none of whose inputs requires grad (``embedding``, the two
sublayers, ``pool_gaussian``, ``tied_head``) skips its tape bookkeeping
too: it returns through ``_make(data, op, (), None)``, with no backward
closure, no parent tuple and no stage tuples, so the op's name still
reaches ``_make`` once per call.  The checks an op makes inside itself
build their stage tuples only when they fail.

Every op is a whole job of the model and one tape node, since per-op
Python overhead, not arithmetic, bounds small models.  Ops on rows also
take leading batch axes, and each batch entry is computed exactly as it
would be alone.  A transformer block is ``attention_sublayer`` (layer
norm; query, key and value products; the new rows written into per-head
stacks, plain arrays, so a tape through them spans one call; masked
attention; the output product with the residual) and ``mlp_sublayer``
(layer norm, two products around a GELU, the residual).  ``embedding``
(word, position and injection rows) and ``tied_head`` (final layer norm,
the transposed word table, an injection bias) bound a stack.  The latent
side is ``pool_gaussian`` (the encoder's final layer norm, its attention
by a learned query, and a Gaussian's mean and clamped log-sigma, two
outputs), ``gaussian_sample``, ``inject`` (all of a decoder's injection
rows, several outputs), and the objective's ``cross_entropy``,
``gaussian_kl`` and ``elbo_loss``.  Each runs the arithmetic of the
chain of small ops it replaced in the chain's order, forward and
backward, so it gives the chain's bits, and a ``NumericsError`` names
the op and the step of the chain that went non-finite.  For the same
reason the per-op code calls ufunc reductions (``np.add.reduce`` and the
like) rather than the array methods that wrap them.

Scalar operands follow one rule: an op's arithmetic takes each of its
scalars (a layer norm's width, epsilon and one, the GELU coefficients,
an attention scale) as a 0-d array of the dtype of the array it meets,
from ``SCALARS``; the sampler's filter and the optimizer take theirs from
there too.  Under NumPy 2's promotion rules a Python float or int meets
an array as a value of the array's dtype, so ``x * 0.5`` and ``x *
SCALARS[x.dtype][0.5]`` give the same bytes, but the Python scalar is
converted on every call: on a (1, 64) float32 row each such call took
about 0.3-0.6 us longer, 35-45% of the op (NumPy 2.4, a 2-core Xeon VM),
and a cached decode step at the CLI default config makes over fifty of
them.  A 0-d array of another dtype would promote, not convert, so the
entry's dtype is the met array's: an attention scale takes the scores'
dtype, which is float64 when a float64 latent fills the key/value blocks
of float32 parameters.  A lookup is two dict subscripts and no Python
call.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

GELU_TANH_COEFF = math.sqrt(2.0 / math.pi)  # 0.7978845608028654
GELU_CUBIC_COEFF = 0.044715
LN_EPS = 1e-5  # added to each row's variance in every layer norm

_FLOAT_DTYPES = (np.float32, np.float64)
# The additive attention mask's bias where a key is seen, and where it is masked, per dtype of the scores.
_MASK_BIAS = {np.dtype(t): (t(0.0), t(-np.inf)) for t in _FLOAT_DTYPES}


class _Scalars(dict):
    """One float dtype's scalar operands: read-only 0-d arrays keyed by the number each holds, made on first use."""

    def __init__(self, dtype):
        super().__init__()
        self.dtype = np.dtype(dtype)

    def __missing__(self, value):
        arr = self[value] = np.array(value, self.dtype)
        arr.flags.writeable = False
        return arr


# The scalar operands of the ops' arithmetic (and the sampler's and the optimizer's), per dtype of the array each
# meets: ``SCALARS[x.dtype][0.5]`` is ``x.dtype.type(0.5)`` as a 0-d array.
SCALARS = {np.dtype(t): _Scalars(t) for t in _FLOAT_DTYPES}


def flat_buffer(size: int, dtype) -> np.ndarray:
    """A zero-filled 1-D array in an anonymous memory map of its own.

    Parameter, gradient and moment buffers live apart from the heap that
    every op's temporaries churn: a large heap block cannot reuse the
    small chunks those temporaries free, and on the train_overfit
    workload heap-allocated buffers measured 2-3 MB more peak memory.
    A page costs memory once written, and goes back to the system with
    the array.
    """
    dtype = np.dtype(dtype)
    if size == 0:
        return np.zeros(0, dtype)
    return np.frombuffer(mmap.mmap(-1, size * dtype.itemsize), dtype)


def _fix_heap_thresholds() -> None:
    """Fix glibc's mmap threshold at its dynamic ceiling and turn heap trimming off, once; a no-op off glibc.

    Under glibc's dynamic thresholds a train step hands the heap its tape
    frees back to the system, and the next step faults it in again: in a
    fresh process on a 2-core Xeon VM, a warm step at the CLI's default
    train config (batch 8, 256 positions, vocabulary 512) took 11500-14700
    minor faults in float32 and 12100-12900 in float64, and one at the
    acceptance overfit config 460 in float64.  Fixed, they took 100-130,
    80 and 0.1.

    The mmap threshold is the ceiling the dynamic one rises to (4 MiB times
    the size of a C long: 32 MiB on 64-bit), so no allocation is mapped
    that the dynamic rule would keep on the heap.  At the default train
    config the largest temporary, a layer's (8, 4, 256, 256) attention
    weights, is 8 MiB in float32 and 16 MiB in float64; a config whose
    temporaries pass the ceiling has them mapped and unmapped on each use,
    as under the dynamic rule.  Trimming is off because a step frees far
    more at once than a fixed trim threshold below its peak holds: at the
    dynamic rule's own ceiling (64 MiB) the default config still took 8000
    faults a step.  The process keeps its heap at its peak until it exits;
    the peak itself did not rise (maxrss 189-192 against 193 MB in float32,
    343 against 348 MB in float64).  Both hold for the whole process that
    imports storyvae.  Setting either threshold turns the dynamic ones off,
    so trimming goes off only once the mmap threshold has taken.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or a C library that does not know the name
        glibc = None
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        if mallopt(-3, 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)):  # M_MMAP_THRESHOLD
            mallopt(-1, -1)  # M_TRIM_THRESHOLD: never trim


_fix_heap_thresholds()


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_view")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        # A parameter's slot in its set's gradient buffer; the first gradient lands there.
        self._grad_view: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is not None:
            self.grad += g
        elif self._grad_view is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self._grad_view[...] = g
            self.grad = self._grad_view

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


# While True, ``_make`` checks every op's output; a sink pass (``sink_pass``) turns it off while it runs.
_node_checks = True


def _check_finite(arr: np.ndarray, op: str, stages=()) -> None:
    """Raise ``NumericsError`` if ``arr`` holds NaN or Inf.

    A fused op passes its ``stages``, the (sub-op, array) pairs of the chain
    it replaces in the chain's order, where a non-finite value always
    reaches ``arr``; the error then names the first stage that holds one.
    ``_make`` calls it on an op's output only while the per-node checks
    are on.  The checks that ops make inside themselves (the attention
    scores, ``pool_gaussian``'s, ``inject``'s) run inside a sink pass too:
    there they are sinks, and a failure makes the pass run again.  The
    sublayers and ``pool_gaussian`` test their arrays first and call this
    only on a failure, so they build their stages only then.
    """
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        for sub, part in stages:
            if not np.logical_and.reduce(np.isfinite(part), axis=None):
                raise NumericsError(f"{op}: {sub} produced non-finite values")
        raise NumericsError(f"{op} produced non-finite values")


def sink_pass(fn):
    """``fn`` as a sink pass: run without the check of each op's output, and checked at its sinks.

    The sinks of a pass are the checks every non-finite value it makes
    reaches: the checks ops make inside themselves, which stay on (every
    attention's scores, ``pool_gaussian``'s), and the arrays ``fn``
    checks with ``check_sink`` (a decoder call's logits, a train step's
    loss).  The scores stay a sink because a finite query and key whose
    product overflows to -inf get zero weight and leave no other trace.
    If a sink fails, or ``fn`` raises anything else, ``fn`` runs again
    with the per-node checks on, so what it raises is what they raise:
    the first non-finite node's error, as if no pass had run.  ``fn``
    must leave nothing behind that would change its second run.  A pass
    called inside another runs as part of it, and a failure in it runs
    the outermost pass again.  ``__wrapped__`` is ``fn`` itself.
    """

    @functools.wraps(fn)
    def run(*args, **kwargs):
        global _node_checks
        if not _node_checks:
            return fn(*args, **kwargs)
        _node_checks = False
        try:
            return fn(*args, **kwargs)
        except Exception:  # whatever failed, the run with the per-node checks decides what is raised
            pass
        finally:
            _node_checks = True
        return fn(*args, **kwargs)

    return run


def check_sink(arr: np.ndarray) -> None:
    """Inside a sink pass, raise ``NumericsError`` if ``arr``, one of its sinks, holds NaN or Inf.

    The pass then runs again with the per-node checks on, which name the
    node.  Outside a pass, and in that second run, the per-node checks
    cover every sink, so this checks nothing.
    """
    if not _node_checks and not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NumericsError("a sink of the pass holds non-finite values")


def _make(data, op: str, parents: tuple[Tensor, ...], backward, stages=()):
    """An op's output, checked while the per-node checks are on, and on the tape if a parent requires grad.

    Inside a sink pass the check is left to the pass's sinks, and an op
    with no input on the tape passes no parents, backward or stages.  A
    tuple of arrays makes a node of several outputs, a tuple of tensors:
    ``backward`` runs once, after theirs, on the list of their gradients
    (None for an output that got none), which it then empties.
    """
    if type(data) is not tuple:
        if _node_checks:
            _check_finite(data, op, stages)
        return _node(data, parents, backward)
    if data and _node_checks:
        _check_finite(np.concatenate([part.reshape(-1) for part in data]), op, stages)
    hub = _node(None, parents, None)
    if not hub.requires_grad:
        return tuple(_node(part, (), None) for part in data)
    grads = hub.grad = [None] * len(data)

    def hub_backward(kept):
        backward(kept)
        kept[:] = [None] * len(kept)

    hub._backward = hub_backward
    return tuple(_node(part, (hub,), lambda g, i=i: grads.__setitem__(i, g)) for i, part in enumerate(data))


def _node(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._grad_view = None
    needs = False
    for p in parents:
        if p.requires_grad:
            needs = True
            break
    out.requires_grad = needs
    if needs:
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the axes along which an operand of ``shape`` was broadcast to ``g``'s shape."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    kept = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=kept, keepdims=True) if kept else g


def _product_grads(g: np.ndarray, xd: np.ndarray, w: Tensor, b: Tensor | None) -> None:
    """The weight's and then the bias's gradient of ``xd @ w + b``, given the output's gradient ``g``."""
    m, n = w.data.shape
    if w.requires_grad:
        w.accumulate_grad(xd.reshape(-1, m).T @ g.reshape(-1, n))
    if b is not None and b.requires_grad:
        b.accumulate_grad(g.reshape(-1, n).sum(axis=0))


def _products_grads(xd: np.ndarray, terms, want_x: bool):
    """Backward of products ``xd @ w + b`` of one input: each ``(g, w, b)`` with a gradient ``g`` hands its weight
    and bias theirs, and the input's, the sum of ``g @ w.T`` in the order of ``terms``, is returned if ``want_x``."""
    g_x = None
    for g, w, b in terms:
        if g is not None:
            if want_x:
                g_x = g @ w.data.T if g_x is None else g_x + g @ w.data.T
            _product_grads(g, xd, w, b)
    return g_x


def embedding(word: Tensor, pos: Tensor, tokens, start: int, row: Tensor | None = None) -> Tensor:
    """A stack's input rows, ``word[tokens] + pos[start:start + T]`` and then ``+ row``, as one node.

    ``tokens`` is (..., T) ids into the (V, d) ``word`` table, and the T
    positions are rows ``start`` onward of the (P, d) ``pos`` table, read
    as a slice.  An optional ``row``, (1, d) or (..., 1, d), is added to
    every position last.  Forward and backward run the arithmetic of the
    chain ``take_rows``, ``take_rows``, ``add``, ``add`` in the chain's
    order, so they give its bits: backward hands ``row`` its gradient,
    then ``pos`` and then ``word``.  A non-finite value at any step
    reaches the output, so the output is the one finiteness check, and
    the error names the first step that held one.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    wd, pd = word.data, pos.data
    if wd.ndim != 2 or pd.ndim != 2 or pd.shape[1] != wd.shape[1] or tokens.ndim < 1:
        raise ShapeError(f"embedding: tables {wd.shape} and {pd.shape} do not fit tokens of shape {tokens.shape}")
    t, d = tokens.shape[-1], wd.shape[1]
    if row is not None and row.data.shape not in ((1, d), tokens.shape[:-1] + (1, d)):
        raise ShapeError(f"embedding: row shape {row.shape} does not fit tokens of shape {tokens.shape}")
    if tokens.size and (np.minimum.reduce(tokens, axis=None) < 0
                        or np.maximum.reduce(tokens, axis=None) >= wd.shape[0]):
        raise IndexError(f"embedding: token id out of range for {wd.shape[0]} rows")
    if start < 0 or start + t > pd.shape[0]:
        raise IndexError(f"embedding: positions {start} to {start + t - 1} out of range for {pd.shape[0]} rows")
    words = wd[tokens]
    positions = pd[start:start + t]
    x = words + positions
    data = x if row is None else x + row.data
    if not (_node_checks or word.requires_grad or pos.requires_grad or row is not None and row.requires_grad):
        return _make(data, "embedding", (), None)

    def backward(g):
        if row is not None and row.requires_grad:
            row.accumulate_grad(_unbroadcast(g, row.shape))
        if pos.requires_grad:
            full = np.zeros_like(pd)
            full[start:start + t] += _unbroadcast(g, positions.shape)
            pos.accumulate_grad(full)
        if word.requires_grad:
            full = np.zeros_like(wd)
            np.add.at(full, tokens, g)
            word.accumulate_grad(full)

    stages = (("take_rows word", words), ("take_rows pos", positions), ("add", x), ("add row", data))
    parents = (word, pos) if row is None else (word, pos, row)
    return _make(data, "embedding", parents, backward, stages)


def _scores(qd: np.ndarray, keys_t: np.ndarray, values: np.ndarray):
    """Per-head queries (..., H, Lq, d/H), their scaled scores against ``keys_t``, and the scale, 0-d in their dtype."""
    h, dh, n = keys_t.shape[-3:]
    if qd.ndim < 2 or h * dh != qd.shape[-1] or values.shape[-3:] != (h, n, dh):
        raise ShapeError(f"attention: queries {qd.shape} do not fit keys {keys_t.shape} and values {values.shape}")
    qh = qd.reshape(qd.shape[:-1] + (h, dh)).swapaxes(-3, -2)
    try:
        scores = qh @ keys_t
    except ValueError:
        raise ShapeError(f"attention: query batch {qd.shape} does not broadcast to keys {keys_t.shape}") from None
    scale = SCALARS[scores.dtype][1.0 / math.sqrt(dh)]
    scores *= scale
    return qh, scores, scale


def _mix(scores: np.ndarray, values: np.ndarray, mask, d: int):
    """The masked softmax of the scores, and its weighted sum of the values with the heads side by side, (..., Lq, d).

    The mask adds a bias of 0 where it is True and -inf where it is False,
    in the scores' dtype, and the softmax runs unmasked: a score plus 0 is
    the score, and exp(-inf) is exactly 0.  So a masked key gets exactly
    zero weight, and a NaN or +inf score there makes the row NaN.
    """
    lq, n = scores.shape[-2:]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        try:
            biased = scores + np.where(mask, *_MASK_BIAS[scores.dtype])
            if biased.shape != scores.shape:  # the mask broadcast the scores
                raise ValueError
        except ValueError:
            raise ShapeError(f"attention: mask shape {mask.shape} does not broadcast to {(lq, n)}") from None
        if not np.logical_and.reduce(np.logical_or.reduce(mask, axis=-1) if mask.ndim else mask, axis=None):
            raise ShapeError("attention: a query has no unmasked key")
        scores = biased
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    probs = e / np.add.reduce(e, axis=-1, keepdims=True)
    return probs, (probs @ values).swapaxes(-3, -2).reshape(probs.shape[:-3] + (lq, d))


def _mix_grads(g: np.ndarray, qh: np.ndarray, keys_t: np.ndarray, values: np.ndarray, probs: np.ndarray,
               scale: np.ndarray, want_q: bool):
    """Backward of the scores and the mix: per-head output gradients, score gradients, and the queries' if ``want_q``."""
    batch, (h, lq, dh) = probs.shape[:-3], qh.shape[-3:]
    gh = g.reshape(batch + (lq, h, dh)).swapaxes(-3, -2)
    gp = gh @ values.swapaxes(-1, -2)
    gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * scale
    gq = (gs @ keys_t.swapaxes(-1, -2)).swapaxes(-3, -2).reshape(batch + (lq, h * dh)) if want_q else None
    return gh, gs, gq


def _row_grads(gh: np.ndarray, gs: np.ndarray, qh: np.ndarray, probs: np.ndarray):
    """The function of ``(lo, hi)`` that gives the (..., hi - lo, d) key and value gradients of rows ``lo:hi``."""
    batch, d = probs.shape[:-3], qh.shape[-3] * qh.shape[-1]
    gk_t = qh.swapaxes(-1, -2) @ gs
    gv = probs.swapaxes(-1, -2) @ gh
    nb = len(batch)
    rows_first = (*range(nb), nb + 2, nb, nb + 1)  # (..., H, d/H, l) -> (..., l, H, d/H)

    def rows(lo, hi):
        return (gk_t[..., lo:hi].transpose(rows_first).reshape(batch + (hi - lo, d)),
                gv[..., lo:hi, :].swapaxes(-3, -2).reshape(batch + (hi - lo, d)))

    return rows


def _norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of the rows of ``x`` (``LN_EPS`` added to each variance): the output, and the normalized rows and
    inverse deviations that backward reads."""
    c = SCALARS[x.dtype]
    d = c[x.shape[-1]]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = c[1.0] / np.sqrt(var + c[LN_EPS])
    xhat = centered * inv
    return gain * xhat + bias, xhat, inv


def _norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, x: Tensor, gain: Tensor, bias: Tensor) -> None:
    """``_norm``'s backward: the gain's gradient, then the bias's, then the input's."""
    d = xhat.shape[-1]
    if gain.requires_grad:
        gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
    if bias.requires_grad:
        bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
    if x.requires_grad:
        gx_hat = g * gain.data
        width = SCALARS[gx_hat.dtype][d]  # exact in any float dtype, and no wider than either sum
        m1 = gx_hat.sum(axis=-1, keepdims=True) / width
        m2 = (gx_hat * xhat).sum(axis=-1, keepdims=True) / width
        x.accumulate_grad(inv * (gx_hat - m1 - xhat * m2))


def mlp_sublayer(x: Tensor, ln_g: Tensor, ln_b: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A block's MLP with its residual, ``x + gelu(layer_norm(x) @ w1 + b1) @ w2 + b2``, as one node.

    ``x`` is (..., n, d) rows, ``w1`` (d, m) and ``w2`` (m, d).  GELU is
    the tanh approximation (GPT-2 flavour).  Forward and backward run the
    arithmetic of the chain ``layer_norm``, ``linear``, GELU, ``linear``
    with the residual, in the chain's order, so they give its bits;
    backward hands ``x`` its residual gradient first.  A non-finite value
    at any step always reaches the output, so the output is the one
    finiteness check, and the error names the first step that held one.
    A cube that overflows inside a GELU whose output is finite is no
    error, and so is a ``pre**2`` that overflows in the backward of such
    a saturated unit: its slope term is taken as exactly 0.
    """
    xd = x.data
    d, m = xd.shape[-1], w1.data.shape[-1]
    if xd.ndim < 2 or ln_g.data.shape != (d,) or ln_b.data.shape != (d,) or w1.data.shape != (d, m) \
            or b1.data.shape != (m,) or w2.data.shape != (m, d) or b2.data.shape != (d,):
        raise ShapeError(f"mlp_sublayer: weights {w1.shape} and {w2.shape} and their gains and biases "
                         f"do not fit rows of shape {xd.shape}")
    h, xhat, inv = _norm(xd, ln_g.data, ln_b.data)
    pre = h @ w1.data + b1.data
    c = SCALARS[pre.dtype]
    t = np.tanh(c[GELU_TANH_COEFF] * (pre + c[GELU_CUBIC_COEFF] * (pre * pre * pre)))
    act = c[0.5] * pre * (c[1.0] + t)
    data = xd + (act @ w2.data + b2.data)
    h_grad = x.requires_grad or ln_g.requires_grad or ln_b.requires_grad
    act_grad = h_grad or w1.requires_grad or b1.requires_grad
    if not (_node_checks or act_grad or w2.requires_grad or b2.requires_grad):
        return _make(data, "mlp_sublayer", (), None)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if act_grad:
            g_act = g @ w2.data.T
        _product_grads(g, act, w2, b2)
        if not act_grad:
            return
        dinner = c[GELU_TANH_COEFF] * (c[1.0] + c[3.0 * GELU_CUBIC_COEFF] * (pre * pre))
        slope = c[1.0] - t * t
        dinner[slope == c[0.0]] = 0.0  # a saturated unit's term is 0, not 0 * inf where its pre**2 overflowed
        g_pre = g_act * (c[0.5] * (c[1.0] + t) + c[0.5] * pre * slope * dinner)
        if h_grad:
            g_h = g_pre @ w1.data.T
        _product_grads(g_pre, h, w1, b1)
        if h_grad:
            _norm_grads(g_h, xhat, inv, x, ln_g, ln_b)

    stages = (("layer_norm", h), ("linear w1", pre), ("gelu", act), ("linear w2", data))
    return _make(data, "mlp_sublayer", (ln_g, ln_b, w1, b1, w2, b2, x), backward, stages)


def attention_sublayer(x: Tensor, ln_g: Tensor, ln_b: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, wv: Tensor,
                       bv: Tensor, wo: Tensor, bo: Tensor, keys_t: np.ndarray, values: np.ndarray, filled: int,
                       latent: tuple[Tensor, Tensor] | None, mask=None, return_weights: bool = False):
    """A block's attention with its residual, ``x + attention(layer_norm(x)) @ wo + bo``, as one node.

    With ``h = layer_norm(x)``, the queries are ``h @ wq + bq``, and the
    rows ``h @ wk`` and ``h @ wv + bv`` are written into the per-head
    stacks at rows ``filled`` onward: ``keys_t`` (..., H, d/H, capacity)
    and ``values`` (..., H, capacity, d/H), with room for the (..., l, d)
    rows of ``x``.  Every head's queries then attend over the stacks'
    first ``filled + l`` rows, with scores scaled by 1/sqrt(d/H) and a
    softmax that gives exactly zero weight where ``mask``, broadcast to the
    (l, filled + l) scores, is False.  ``latent`` holds the (..., 1, d) key
    and value tensors of row 0, a latent row's, while they are on the
    tape; backward hands them their gradients after the queries'.  Any
    other earlier row is a constant, so a tape through these stacks spans
    one call: the rows' own key and value gradients come from this op's
    backward, after the latent row's and before the layer norm's.  Forward
    and backward run the arithmetic of the chain layer norm, three
    products, attention, and the output product with the residual, in the
    chain's order, so they give its bits.

    A non-finite layer norm, query or key reaches the scores, and a
    non-finite value or attention output reaches the output; those two
    are checked, and the error names the first step that held one.  A
    key row overflows every score against it, masked or not.  The scores
    are checked inside a sink pass too, where they are a sink: a score
    that overflows to -inf gets zero weight, and would leave no other
    trace.  The output is checked only while the per-node checks are on
    (``_make``).  With ``return_weights`` the (..., H, l, filled + l)
    probabilities follow the output.
    """
    xd = x.data
    if xd.ndim < 2 or keys_t.shape[:-3] != xd.shape[:-2] or keys_t.shape[-3] * keys_t.shape[-2] != xd.shape[-1] \
            or filled + xd.shape[-2] > keys_t.shape[-1]:
        raise ShapeError(f"attention_sublayer: rows {xd.shape} do not fit after row {filled} of stacks {keys_t.shape}")
    *batch, l, d = xd.shape
    n_heads, hi = keys_t.shape[-3], filled + l
    if ln_g.data.shape != (d,) or ln_b.data.shape != (d,) or wq.data.shape != (d, d) or bq.data.shape != (d,) \
            or wk.data.shape != (d, d) or wv.data.shape != (d, d) or bv.data.shape != (d,) \
            or wo.data.shape != (d, d) or bo.data.shape != (d,):
        raise ShapeError(f"attention_sublayer: weights, gains and biases do not fit rows of width {d}")
    h, xhat, inv = _norm(xd, ln_g.data, ln_b.data)
    q = h @ wq.data + bq.data
    k = h @ wk.data
    v = h @ wv.data + bv.data
    split, nb = (*batch, l, n_heads, d // n_heads), len(batch)
    keys_t[..., filled:hi] = k.reshape(split).transpose(*range(nb), nb + 1, nb + 2, nb)
    values[..., filled:hi, :] = v.reshape(split).swapaxes(-3, -2)
    keys_t, values = keys_t[..., :hi], values[..., :hi, :]
    qh, scores, scale = _scores(q, keys_t, values)
    if not np.logical_and.reduce(np.isfinite(scores), axis=None):
        _check_finite(scores, "attention_sublayer", (("layer_norm", h), ("linear wq", q), ("linear wk", k),
                                                     ("linear wv", v), ("attention", scores)))
    probs, a = _mix(scores, values, mask, d)
    data = xd + (a @ wo.data + bo.data)

    h_grad = x.requires_grad or ln_g.requires_grad or ln_b.requires_grad
    q_grad = h_grad or wq.requires_grad or bq.requires_grad
    kv_grad = h_grad or wk.requires_grad or wv.requires_grad or bv.requires_grad
    if not (_node_checks or q_grad or kv_grad or wo.requires_grad or bo.requires_grad
            or latent is not None and (latent[0].requires_grad or latent[1].requires_grad)):
        out = _make(data, "attention_sublayer", (), None)
        return (out, probs.copy()) if return_weights else out

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        a_grad = q_grad or kv_grad or latent is not None
        if a_grad:
            g_a = g @ wo.data.T
        _product_grads(g, a, wo, bo)
        if not a_grad:
            return
        gh, gs, gq = _mix_grads(g_a, qh, keys_t, values, probs, scale, q_grad)
        rows = _row_grads(gh, gs, qh, probs)
        for t, g_t in zip(latent or (), rows(0, 1) if latent else ()):
            if t.requires_grad:
                t.accumulate_grad(_unbroadcast(g_t, t.shape))
        g_k, g_v = rows(filled, hi) if kv_grad else (None, None)
        g_h = _products_grads(h, [(gq, wq, bq), (g_k, wk, None), (g_v, wv, bv)], h_grad)
        if h_grad:
            _norm_grads(g_h, xhat, inv, x, ln_g, ln_b)

    parents = (wq, bq) + (latent or ()) + (ln_g, ln_b, wk, wv, bv, wo, bo, x)
    stages = (("layer_norm", h), ("linear wq", q), ("linear wk", k), ("linear wv", v), ("attention", a),
              ("linear wo", data))
    out = _make(data, "attention_sublayer", parents, backward, stages)
    return (out, probs.copy()) if return_weights else out


def pool_gaussian(x: Tensor, ln_g: Tensor, ln_b: Tensor, q: Tensor, wk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor,
                  bo: Tensor, mu_w: Tensor, mu_b: Tensor, ls_w: Tensor, ls_b: Tensor, n_heads: int, lo: float,
                  hi: float, mask=None, return_weights: bool = False):
    """Encoder rows to a diagonal Gaussian: pooled by a learned query, then two products and a clamp, as one node.

    ``x`` is one (T, d) sequence, which gives a (d',) mean and log-sigma,
    or a (B, T, d) batch, which gives (B, d') ones.  With ``h =
    layer_norm(x)``, the (d,) query ``q``, shared by every sequence, attends
    in ``n_heads`` heads over the keys ``h @ wk`` and values ``h @ wv +
    bv``, as ``attention_sublayer``'s queries do, under a ``mask`` that
    broadcasts to the (1, T) scores, and the pooled row is the attention's
    output ``@ wo + bo``.  The mean is ``pooled @ mu_w + mu_b`` and the
    log-sigma ``pooled @ ls_w + ls_b`` clamped to [lo, hi].  Forward and
    backward run the arithmetic of the chain (layer norm, two products,
    attention, the output product, the two head products, the clamp and
    two reshapes) in the chain's order, so they give its bits.  The
    scores, the pooled row and the log-sigma product are checked before
    the outputs, the last since the clamp would hide an infinite
    log-sigma, and the error names the first step that held a non-finite
    value.  With ``return_weights`` the (..., H, 1, T) probabilities
    follow the two outputs.
    """
    xd, wd = x.data, mu_w.data
    d = xd.shape[-1] if xd.ndim in (2, 3) else 0
    if not d or xd.shape[-2] < 1 or d % n_heads or any(t.data.shape != (d,) for t in (ln_g, ln_b, q, bv, bo)) \
            or any(w.data.shape != (d, d) for w in (wk, wv, wo)) or wd.ndim != 2 or wd.shape[0] != d \
            or ls_w.data.shape != wd.shape or not mu_b.data.shape == ls_b.data.shape == wd.shape[1:]:
        raise ShapeError(f"pool_gaussian: rows of shape {xd.shape}, the pooling tensors and heads {wd.shape} and "
                         f"{ls_w.shape} do not fit {n_heads} heads")
    *batch, l, d = xd.shape
    h, xhat, inv = _norm(xd, ln_g.data, ln_b.data)
    k = h @ wk.data
    v = h @ wv.data + bv.data
    split, nb = (*batch, l, n_heads, d // n_heads), len(batch)
    keys_t = np.ascontiguousarray(k.reshape(split).transpose(*range(nb), nb + 1, nb + 2, nb))
    values = np.ascontiguousarray(v.reshape(split).swapaxes(-3, -2))
    qh, scores, scale = _scores(q.data.reshape(1, d), keys_t, values)
    finite = np.logical_and.reduce
    if not finite(np.isfinite(scores), axis=None):
        _check_finite(scores, "pool_gaussian", (("layer_norm", h), ("linear wk", k), ("linear wv", v),
                                                ("attention", scores)))
    probs, a = _mix(scores, values, mask, d)
    pooled = a @ wo.data + bo.data
    if not finite(np.isfinite(pooled), axis=None):
        _check_finite(pooled, "pool_gaussian", (("layer_norm", h), ("linear wk", k), ("linear wv", v),
                                                ("attention", a), ("linear wo", pooled)))
    m = pooled @ wd + mu_b.data
    s = pooled @ ls_w.data + ls_b.data
    if not (finite(np.isfinite(m), axis=None) and finite(np.isfinite(s), axis=None)):
        for part in (m, s):  # before the clamp, which would hide an infinite log-sigma
            _check_finite(part, "pool_gaussian", (("linear mu", m), ("linear ls", s)))
    shape = xd.shape[:-2] + wd.shape[1:]
    out = (m.reshape(shape), np.clip(s, lo, hi).reshape(shape))

    h_grad = x.requires_grad or ln_g.requires_grad or ln_b.requires_grad
    kv_grad = h_grad or wk.requires_grad or wv.requires_grad or bv.requires_grad
    a_grad = q.requires_grad or kv_grad
    pooled_grad = a_grad or wo.requires_grad or bo.requires_grad
    if not (_node_checks or pooled_grad or mu_w.requires_grad or mu_b.requires_grad or ls_w.requires_grad
            or ls_b.requires_grad):
        out = _make(out, "pool_gaussian", (), None)
        return (*out, probs.copy()) if return_weights else out
    inside = (s > lo) & (s < hi)

    def backward(grads):
        g_mu, g_ls = grads
        g = _products_grads(pooled, [(None if g_mu is None else g_mu.reshape(m.shape), mu_w, mu_b),
                                     (None if g_ls is None else g_ls.reshape(s.shape) * inside, ls_w, ls_b)],
                            pooled_grad)
        if g is None:
            return
        if a_grad:
            g_a = g @ wo.data.T
        _product_grads(g, a, wo, bo)
        if not a_grad:
            return
        gh, gs, gq = _mix_grads(g_a, qh, keys_t, values, probs, scale, q.requires_grad)
        if q.requires_grad:
            q.accumulate_grad(_unbroadcast(gq, (1, d)).reshape(d))
        if kv_grad:
            g_k, g_v = _row_grads(gh, gs, qh, probs)(0, l)
            g_h = _products_grads(h, [(g_k, wk, None), (g_v, wv, bv)], h_grad)
            if h_grad:
                _norm_grads(g_h, xhat, inv, x, ln_g, ln_b)

    out = _make(out, "pool_gaussian", (x, ln_g, ln_b, q, wk, wv, bv, wo, bo, mu_w, mu_b, ls_w, ls_b), backward,
                (("linear mu", m), ("linear ls", s)))
    return (*out, probs.copy()) if return_weights else out


def tied_head(x: Tensor, ln_g: Tensor, ln_b: Tensor, word: Tensor, bias: Tensor | None = None) -> Tensor:
    """A stack's logits through its tied word table, ``layer_norm(x) @ word.T + bias``, as one node.

    ``x`` is (..., T, d) rows and ``word`` the (V, d) table, which the
    product reads through a transposed view; an optional ``bias``, (1, V)
    or (..., 1, V), is added to every position last.  Forward and
    backward run the arithmetic of the chain ``layer_norm``, a transpose
    of ``word``, ``linear`` and ``add`` in the chain's order; backward
    sums the table's gradient, the transpose of ``h.T @ g``, into ``word``
    itself.  A non-finite value at any step reaches the output (a
    non-finite table entry makes its token's logit non-finite in every
    row, since even ``0 * inf`` is NaN), so the output is the one
    finiteness check, and the error names the first step that held one.
    """
    xd, wd = x.data, word.data
    d = xd.shape[-1]
    if xd.ndim < 2 or ln_g.data.shape != (d,) or ln_b.data.shape != (d,) or wd.ndim != 2 or wd.shape[1] != d:
        raise ShapeError(f"tied_head: table {wd.shape} and gain and bias do not fit rows of shape {xd.shape}")
    v = wd.shape[0]
    if bias is not None and bias.data.shape not in ((1, v), xd.shape[:-2] + (1, v)):
        raise ShapeError(f"tied_head: bias shape {bias.shape} does not fit logits of shape {xd.shape[:-1] + (v,)}")
    h, xhat, inv = _norm(xd, ln_g.data, ln_b.data)
    logits = h @ wd.T
    data = logits if bias is None else logits + bias.data
    h_grad = x.requires_grad or ln_g.requires_grad or ln_b.requires_grad
    if not (_node_checks or h_grad or word.requires_grad or bias is not None and bias.requires_grad):
        return _make(data, "tied_head", (), None)

    def backward(g):
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.shape))
        if h_grad:
            g_h = g @ wd
        if word.requires_grad:
            word.accumulate_grad((h.reshape(-1, d).T @ g.reshape(-1, v)).T)
        if h_grad:
            _norm_grads(g_h, xhat, inv, x, ln_g, ln_b)

    parents = (x, ln_g, ln_b, word) + (() if bias is None else (bias,))
    return _make(data, "tied_head", parents, backward, (("layer_norm", h), ("linear", logits), ("add", data)))


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Summed negative log-likelihood in nats over unmasked positions of (..., T, V) logits, as one node.

    Returns the scalar loss (on the tape) together with a plain array of
    the (..., T) per-position losses, each with the bits its row alone
    gives. Raises if every position is masked or any target id falls
    outside the vocabulary.  The log-softmax is max-shifted, and backward
    is its chain: ``-g * mask`` at each target, less the softmax times
    that row's sum.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if logits.data.ndim < 2:
        raise ShapeError(f"cross_entropy: logits must be positions x vocabulary, got {logits.shape}")
    v = logits.shape[-1]
    if targets.shape != logits.shape[:-1] or mask.shape != logits.shape[:-1]:
        raise ShapeError(f"cross_entropy: targets/mask must have shape {logits.shape[:-1]}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError(f"cross_entropy: target id out of range for vocabulary size {v}")
    if not mask.any():
        raise ValueError("cross_entropy: every position is masked, loss is empty")
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    ids = targets[..., None]
    per_position = -np.take_along_axis(log_probs, ids, axis=-1)[..., 0]
    weights = mask.astype(x.dtype)
    data = np.asarray((per_position * weights).sum(), dtype=x.dtype)

    def backward(g):
        if logits.requires_grad:
            full = np.zeros_like(x)
            np.put_along_axis(full, ids, -(np.full_like(per_position, g) * weights)[..., None], axis=-1)
            logits.accumulate_grad(full - np.exp(log_probs) * full.sum(axis=-1, keepdims=True))

    return _make(data, "cross_entropy", (logits,), backward), per_position


def gaussian_kl(mu_q: Tensor, ls_q: Tensor, mu_p: Tensor, ls_p: Tensor) -> Tensor:
    """Per-coordinate KL(q || p) of diagonal Gaussians given by means and log-sigmas, as one node.

    All four are (..., d') of one shape, and so is the result:
    (2(ls_p - ls_q) + (exp(2 ls_q) + (mu_q - mu_p)^2) exp(-2 ls_p) - 1) / 2
    per coordinate.
    Backward hands each log-sigma its log-ratio term and then its
    variance term as two accumulations, not as their sum: a log-sigma
    that also feeds the reparameterization then adds its three terms in
    one fixed order, and summing two of them first would round otherwise.
    """
    if not mu_q.shape == ls_q.shape == mu_p.shape == ls_p.shape:
        raise ShapeError(f"gaussian_kl: shapes differ: {[t.shape for t in (mu_q, ls_q, mu_p, ls_p)]}")
    var_q = np.exp(ls_q.data * 2.0)
    inv_var_p = np.exp(ls_p.data * -2.0)
    diff = mu_q.data - mu_p.data
    spread = var_q + diff * diff
    data = ((ls_p.data - ls_q.data) * 2.0 + spread * inv_var_p - 1.0) * 0.5

    def backward(g):
        half = g * 0.5
        g_spread = half * inv_var_p
        g_diff = g_spread * diff * 2.0
        if mu_q.requires_grad:
            mu_q.accumulate_grad(g_diff)
        if mu_p.requires_grad:
            mu_p.accumulate_grad(-g_diff)
        if ls_q.requires_grad:
            ls_q.accumulate_grad(-g)
            ls_q.accumulate_grad(g_spread * var_q * 2.0)
        if ls_p.requires_grad:
            ls_p.accumulate_grad(g)
            ls_p.accumulate_grad(half * spread * inv_var_p * -2.0)

    return _make(data, "gaussian_kl", (mu_q, ls_q, mu_p, ls_p), backward)


def gaussian_sample(mu: Tensor, log_sigma: Tensor, noise: np.ndarray) -> Tensor:
    """The reparameterized draw ``mu + exp(log_sigma) * noise`` as one node; ``noise`` is a constant array.

    All three have one shape, (..., d').  Forward is ``e = exp(log_sigma)``,
    then ``e * noise``, then ``mu`` plus that; backward hands ``mu`` its
    ``g`` first, then ``log_sigma`` its ``(g * noise) * e``.  A non-finite
    ``e`` makes the output inf, or NaN where the noise is 0.
    """
    if not mu.shape == log_sigma.shape == noise.shape:
        raise ShapeError(f"gaussian_sample: shapes differ: {mu.shape}, {log_sigma.shape} and {noise.shape}")
    e = np.exp(log_sigma.data)
    data = mu.data + e * noise

    def backward(g):
        if mu.requires_grad:
            mu.accumulate_grad(g)
        if log_sigma.requires_grad:
            log_sigma.accumulate_grad(g * noise * e)

    return _make(data, "gaussian_sample", (mu, log_sigma), backward)


def inject(z: Tensor, input_w: Tensor | None, psa_w: Tensor | None, softmax_w: Tensor | None, psa_kv=()):
    """A decoder's injection rows from its latent ``z``, (d') or (B, d'), as one node.

    ``z`` goes through the products as (1, d') rows.  Returns the ``input``
    row ``z @ input_w`` and the ``softmax`` bias ``z @ softmax_w`` (None
    without their weights), and per (wk, bk, wv, bv) of ``psa_kv`` layer
    i's latent key and value rows ``r @ wk + bk`` and ``r @ wv + bv``, where
    ``r`` is the i-th (1, d) row of ``z @ psa_w``; an exactly-zero ``r``
    injects nothing and gives None, and a batch must agree on that.
    Forward and backward run the arithmetic of the chain (products,
    reshapes, row picks) in its order, so they give its bits: ``z``'s
    gradient sums the ``psa`` rows', the ``input`` row's, then the
    ``softmax`` bias's.  Every product is checked.
    """
    zd = z.data
    if zd.ndim not in (1, 2) or any(w is not None and (w.data.ndim != 2 or w.data.shape[0] != zd.shape[-1])
                                    for w in (input_w, psa_w, softmax_w)):
        raise ShapeError(f"inject: projections do not fit a latent of shape {zd.shape}")
    zr = zd.reshape(zd.shape[:-1] + (1, zd.shape[-1]))
    outs, stages = [], []
    if input_w is not None:
        outs.append(zr @ input_w.data)
        stages.append(("linear input", outs[-1]))
    if (psa_w is None) != (not psa_kv) or psa_w is not None and psa_w.data.shape[1] % len(psa_kv):
        raise ShapeError(f"inject: the psa projection does not split into the rows of {len(psa_kv)} layers")
    if psa_w is not None:
        n = len(psa_kv)
        p = zr @ psa_w.data
        stages.append(("linear psa", p))
        _check_finite(p, "inject", stages)
        rows = p.reshape(zd.shape[:-1] + (n, psa_w.data.shape[1] // n))
        nonzero = np.logical_or.reduce(rows != 0.0, axis=-1).reshape(-1, n)
        some, every = np.logical_or.reduce(nonzero).tolist(), np.logical_and.reduce(nonzero).tolist()
    if softmax_w is not None:
        outs.append(zr @ softmax_w.data)
        stages.append(("linear softmax", outs[-1]))
    n_routes, layers = len(outs), []
    for i, (wk, bk, wv, bv) in enumerate(psa_kv):
        if not some[i]:
            continue
        if not every[i]:
            raise ShapeError(f"inject: a batch of latent rows mixes exactly-zero and nonzero rows at layer {i}")
        r = np.ascontiguousarray(rows[..., i:i + 1, :])
        outs += [r @ wk.data + bk.data, r @ wv.data + bv.data]
        stages += [(f"linear psa_wk {i}", outs[-2]), (f"linear psa_wv {i}", outs[-1])]
        layers.append((i, r, wk, bk, wv, bv))
    rows_grad = z.requires_grad or (psa_w is not None and psa_w.requires_grad)

    def backward(grads):
        g_rows = None
        for j, (i, r, wk, bk, wv, bv) in enumerate(layers):
            g_k, g_v = grads[n_routes + 2 * j:n_routes + 2 * j + 2]
            g_r = _products_grads(r, [(g_k, wk, bk), (g_v, wv, bv)], rows_grad)
            if g_r is not None:
                g_rows = np.zeros_like(rows) if g_rows is None else g_rows
                g_rows[..., i:i + 1, :] += g_r  # onto zeros, as the chain's row picks scatter it
        routes = iter(grads[:n_routes])
        g_input, g_softmax = (None if w is None else next(routes) for w in (input_w, softmax_w))
        g_z = _products_grads(zr, [(None if g_rows is None else g_rows.reshape(p.shape), psa_w, None),
                                   (g_input, input_w, None), (g_softmax, softmax_w, None)], z.requires_grad)
        if g_z is not None:
            z.accumulate_grad(g_z.reshape(zd.shape))

    parents = (z,) + tuple(w for w in (input_w, psa_w, softmax_w) if w is not None) \
        + tuple(t for i, r, *weights in layers for t in weights)
    made = iter(_make(tuple(outs), "inject", parents, backward, stages))
    input_row, softmax_bias = (None if w is None else next(made) for w in (input_w, softmax_w))
    kv = [None] * len(psa_kv)
    for i, *_ in layers:
        kv[i] = (next(made), next(made))
    return input_row, softmax_bias, kv


def elbo_loss(recon: Tensor | None, kl: Tensor, beta: float, batch: int) -> Tensor:
    """The objective of a batch, ``(recon + beta * sum(kl)) / batch``, as one node.

    ``recon`` is the scalar reconstruction sum, or None for none, and ``kl``
    the per-coordinate KL of any shape.  Forward and backward run the
    arithmetic of the chain of a sum, a scaling by ``beta``, an add and a
    scaling by ``1 / batch`` in the chain's order, so they give its bits.
    """
    if recon is not None and recon.data.ndim != 0:
        raise ShapeError(f"elbo_loss: the reconstruction term must be a scalar, got shape {recon.shape}")
    beta, scale = float(beta), 1.0 / batch
    total = np.asarray(np.add.reduce(kl.data, axis=None), dtype=kl.data.dtype) * beta
    data = (total if recon is None else recon.data + total) * scale

    def backward(g):
        g = g * scale
        if recon is not None and recon.requires_grad:
            recon.accumulate_grad(g)
        if kl.requires_grad:
            kl.accumulate_grad(np.full_like(kl.data, g * beta))

    return _make(data, "elbo_loss", (kl,) if recon is None else (recon, kl), backward)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor that ``loss`` depends on.

    An interior node's ``grad`` is dropped once its backward has run, so a second backward through a shared
    node sends only its own gradient; a node of several outputs keeps the list that its backward empties.
    """
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
            if node.data is not None:
                node.grad = None


class ParameterSet:
    """Named trainable tensors of one float dtype, laid out once, in order, over a flat buffer.

    The constructor lays out a whole listing of (name, array): every
    parameter's ``data`` is a view of ``data_buffer`` (a ``flat_buffer``),
    and ``span`` gives its offsets, so consecutive parameters are one
    slice.  The layout never changes, so ``memo`` keeps lookups of the
    set's tensors for the set's life.  Parameters start without
    ``requires_grad``; whoever calls ``backward`` marks the ones it wants
    gradients for.

    A set that trains gets, from ``track_gradients`` (the optimizer calls
    it), a ``grad_buffer`` at the same offsets, and from then on
    ``backward`` writes each parameter's first gradient of a step into
    its view of it; a set that only runs inference holds none.  A
    ``grad`` of None still means "no gradient this step", whatever the
    buffer holds.
    """

    def __init__(self, named_arrays=(), dtype=None):
        entries = [(name, np.asarray(values)) for name, values in named_arrays]
        if dtype is None:  # keep the one dtype all the values share
            dtypes = {values.dtype for _, values in entries} or {np.dtype(np.float32)}
            if len(dtypes) > 1:
                raise ValueError(f"parameters must share one dtype, got {sorted(d.name for d in dtypes)}")
            (dtype,) = dtypes
        dtype = np.dtype(dtype)
        if dtype not in _FLOAT_DTYPES:
            raise ValueError(f"parameters must be float32 or float64, got {dtype}")
        self.data_buffer = flat_buffer(sum(values.size for _, values in entries), dtype)
        self.grad_buffer = None
        self._params: dict[str, Tensor] = {}
        self._spans: dict[str, tuple[int, int]] = {}
        self._memo = {}
        lo = 0
        for name, values in entries:
            if name in self._params:
                raise ValueError(f"duplicate parameter name: {name}")
            view = self.data_buffer[lo:lo + values.size].reshape(values.shape)
            view[...] = values
            self._params[name], self._spans[name] = Tensor(view), (lo, lo + values.size)
            lo += values.size

    def track_gradients(self) -> None:
        """Give the set its gradient buffer, once; from then on backward writes into the buffer."""
        if self.grad_buffer is not None:
            return
        self.grad_buffer = flat_buffer(self.data_buffer.size, self.data_buffer.dtype)
        for name, p in self._params.items():
            lo, hi = self._spans[name]
            p._grad_view = self.grad_buffer[lo:hi].reshape(p.shape)

    def memo(self, key, build):
        """What ``build()`` returns, built once per set and kept under ``key``."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def span(self, name: str) -> tuple[int, int]:
        """The [lo, hi) offsets of a parameter in ``data_buffer`` and ``grad_buffer``."""
        return self._spans[name]

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def astype(self, dtype) -> "ParameterSet":
        """A copy in ``dtype``, laid out as this set is."""
        return ParameterSet(((name, p.data) for name, p in self._params.items()), dtype=dtype)


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
    deterministic: bool
    tolerance: float
    checked_elements: int = 0

    @property
    def passed(self) -> bool:
        return self.deterministic and self.max_rel_error < self.tolerance


def grad_check(fn, params, eps: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` takes no arguments, reads the tensors in ``params`` and returns
    a scalar ``Tensor``; it must be deterministic (two forward passes are
    compared bit-for-bit and any disagreement fails the check).  All
    parameters must be float64; each gets ``requires_grad`` set for the
    one backward and cleared after it, so the difference passes record
    no tape.  The relative error per element is
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
            deterministic=False,
            tolerance=tolerance,
        )

    for _, p in items:
        p.requires_grad = True
        p.grad = None
    try:
        backward(fn())
    finally:
        for _, p in items:
            p.requires_grad = False
    analytic = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for name, p in items}

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
        if worst_here > worst[1]:
            worst = (name, worst_here)

    return GradCheckReport(
        max_rel_error=worst[1],
        worst_parameter=worst[0],
        deterministic=True,
        tolerance=tolerance,
        checked_elements=checked,
    )
