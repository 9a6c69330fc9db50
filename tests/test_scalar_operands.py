"""Scalar operands as 0-d arrays give the bytes of the Python-scalar formulas they replace.

Under NumPy's promotion rules a Python float or int meets an array as a
value of the array's dtype, so ``x * 0.5`` and ``x * SCALARS[x.dtype][0.5]``
round alike; the 0-d array only skips the conversion.  Each reference
below is the earlier formula, with its Python scalars, kept as it was:
the layer norm, the MLP sublayer's forward and backward, the attention
scores, the sampling filter and one Adam step.  The cases cover float32,
float64, and float64 rows on float32 parameters, as a float64 latent
gives: its key/value blocks are float64, and with two heads of width 32
a float32-typed scale would round 1/sqrt(32).
"""

import math
import sys

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import sampling as sp
from storyvae.autograd import GELU_CUBIC_COEFF, GELU_TANH_COEFF, LN_EPS, SCALARS, Tensor
from storyvae.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Adam

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)
# (rows' dtype, parameters' dtype)
DTYPES = [(F32, F32), (F64, F64), (F64, F32)]


def earlier_norm(x, gain, bias):
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return gain * xhat + bias, xhat, inv


def accumulate(grads: dict, name: str, g, dtype) -> None:
    """``Tensor.accumulate_grad`` on a tensor with no gradient buffer: the first gradient is copied in ``dtype``."""
    if name in grads:
        grads[name] += g
    else:
        grads[name] = np.array(g, dtype=dtype, copy=True)


def earlier_mlp(xd, ln_g, ln_b, w1, b1, w2, b2, g):
    """The MLP sublayer's output, and every input's gradient given the output's ``g``, by the earlier formulas."""
    d, m = xd.shape[-1], w1.shape[-1]
    h, xhat, inv = earlier_norm(xd, ln_g, ln_b)
    pre = h @ w1 + b1
    t = np.tanh(GELU_TANH_COEFF * (pre + GELU_CUBIC_COEFF * (pre * pre * pre)))
    act = 0.5 * pre * (1.0 + t)
    data = xd + (act @ w2 + b2)
    grads = {}
    accumulate(grads, "x", g, xd.dtype)
    g_act = g @ w2.T
    accumulate(grads, "w2", act.reshape(-1, m).T @ g.reshape(-1, d), w2.dtype)
    accumulate(grads, "b2", g.reshape(-1, d).sum(axis=0), b2.dtype)
    dinner = GELU_TANH_COEFF * (1.0 + 3.0 * GELU_CUBIC_COEFF * pre**2)
    slope = 1.0 - t**2
    dinner[slope == 0.0] = 0.0
    g_pre = g_act * (0.5 * (1.0 + t) + 0.5 * pre * slope * dinner)
    g_h = g_pre @ w1.T
    accumulate(grads, "w1", h.reshape(-1, d).T @ g_pre.reshape(-1, m), w1.dtype)
    accumulate(grads, "b1", g_pre.reshape(-1, m).sum(axis=0), b1.dtype)
    accumulate(grads, "ln_g", (g_h * xhat).reshape(-1, d).sum(axis=0), ln_g.dtype)
    accumulate(grads, "ln_b", g_h.reshape(-1, d).sum(axis=0), ln_b.dtype)
    gx_hat = g_h * ln_g
    m1 = gx_hat.sum(axis=-1, keepdims=True) / d
    m2 = (gx_hat * xhat).sum(axis=-1, keepdims=True) / d
    accumulate(grads, "x", inv * (gx_hat - m1 - xhat * m2), xd.dtype)
    return data, grads


def earlier_scores(qd, keys_t):
    h, dh = keys_t.shape[-3:-1]
    qh = qd.reshape(qd.shape[:-1] + (h, dh)).swapaxes(-3, -2)
    return (qh @ keys_t) * (1.0 / math.sqrt(dh))


def earlier_filter_logits(logits, config):
    logits = np.asarray(logits)
    v = logits.shape[-1]
    scaled = np.divide(logits.reshape(-1, v), config.temperature, dtype=np.float64)
    assert np.isfinite(scaled).all()
    scaled -= np.maximum.reduce(scaled, axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    k = min(config.top_k, v)
    top = np.sort(np.partition(probs, v - k, axis=-1)[:, v - k:], axis=-1)[:, ::-1]
    cut = np.add.reduce(np.add.accumulate(top[:, :-1], axis=-1) < config.top_p, axis=-1)
    last = top[np.arange(top.shape[0]), cut][:, None]
    kept = probs >= last
    excess = np.add.reduce(kept, axis=-1, keepdims=True) - 1 - cut[:, None]
    if excess.any():
        tied = probs == last
        kept &= ~tied | (np.add.accumulate(tied, axis=-1) <= np.add.reduce(tied, axis=-1, keepdims=True) - excess)
    out = np.where(kept, probs, 0.0)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out.reshape(logits.shape)


def earlier_adam_step(opt: Adam, max_norm: float):
    """``Adam.step`` with Python-scalar operands, as it was."""
    params, counts, grads = opt.params, opt.t, opt.params.grad_buffer
    runs = opt._runs()
    total = 0.0
    for run in runs:
        lo, hi = run[0][1], run[-1][2]
        sq = grads[lo:hi].astype(np.float64)
        sq *= sq
        for name, a, b in run:
            total += float(sq[a - lo:b - lo].sum())
    norm = math.sqrt(total)
    scale = max_norm / norm if 0 < max_norm < norm else None
    for run in runs:
        for name, _, _ in run:
            counts[name] += 1
        t = counts[run[0][0]]
        lo, hi = run[0][1], run[-1][2]
        g, m, v = grads[lo:hi], opt.m[lo:hi], opt.v[lo:hi]
        if scale is not None:
            g *= scale
        update, denom = opt.scratch[0, :hi - lo], opt.scratch[1, :hi - lo]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=update)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=update)
        v += np.multiply(update, g, out=update)
        np.divide(m, 1.0 - ADAM_BETA1**t, out=update)
        update *= opt.lr
        np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        params.data_buffer[lo:hi] -= np.divide(update, denom, out=update)
    return norm


def rows(rng, shape, dtype, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(dtype)


def test_every_entry_is_its_value_in_its_dtype():
    """Each entry, once the ops, the sampler and the optimizer have filled the table, is ``dtype.type(value)``."""
    rng = np.random.default_rng(0)
    for dtype in (F32, F64):
        t = [Tensor(rows(rng, shape, dtype)) for shape in ((3, 8), 8, 8, (8, 4), 4, (4, 8), 8)]
        ag.mlp_sublayer(*t)
        ag._scores(rows(rng, (1, 64), dtype), rows(rng, (2, 32, 3), dtype), rows(rng, (2, 3, 32), dtype))
        params = ag.ParameterSet([("w", rows(rng, (4, 3), dtype))])
        params["w"].grad = rows(rng, (4, 3), dtype)
        Adam(params, lr=3e-3).step(1.0)
    sp.filter_logits(rows(rng, 40, F32), sp.SamplerConfig(top_k=10, top_p=0.8, temperature=0.7))
    expected = {0.5, 1.0, 8, LN_EPS, GELU_TANH_COEFF, GELU_CUBIC_COEFF, 1.0 / math.sqrt(32), ADAM_BETA1, ADAM_BETA2,
                1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2, ADAM_EPS, 3e-3}
    assert set(SCALARS) == {F32, F64}
    assert {0.7, 0.8, 0.0} <= SCALARS[F64].keys()
    for dtype, table in SCALARS.items():
        assert table.dtype == dtype and expected <= table.keys()
        for value, arr in table.items():
            assert arr.dtype == dtype and arr.shape == () and not arr.flags.writeable, (dtype, value)
            assert arr.tobytes() == dtype.type(value).tobytes(), (dtype, value)


def test_a_lookup_makes_no_python_call():
    SCALARS[F32][0.5]
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(event) if event == "call" else None)
    try:
        SCALARS[F32][0.5]
    finally:
        sys.setprofile(None)
    assert calls == []


def test_float32_rounds_the_two_head_scale():
    """Why the scale takes the scores' dtype: in float32, 1/sqrt(32) is another number."""
    assert float(np.float32(1.0 / math.sqrt(32))) != 1.0 / math.sqrt(32)


@pytest.mark.parametrize("xt, pt", DTYPES)
def test_layer_norm(xt, pt):
    rng = np.random.default_rng(1)
    for shape in ((1, 64), (5, 7), (2, 3, 8)):
        x, gain, bias = rows(rng, shape, xt, 3.0), rows(rng, shape[-1], pt), rows(rng, shape[-1], pt)
        for got, want in zip(ag._norm(x, gain, bias), earlier_norm(x, gain, bias), strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), shape


@pytest.mark.parametrize("xt, pt", DTYPES)
def test_mlp_sublayer_forward_and_backward(xt, pt):
    rng = np.random.default_rng(2)
    for shape, m in (((1, 64), 256), ((5, 7), 5), ((2, 3, 8), 6)):
        d = shape[-1]
        xd = rows(rng, shape, xt)
        # Large first-layer weights saturate some units, so the slope's zero branch runs too.
        weights = {"ln_g": rows(rng, d, pt), "ln_b": rows(rng, d, pt), "w1": rows(rng, (d, m), pt, 30.0),
                   "b1": rows(rng, m, pt), "w2": rows(rng, (m, d), pt), "b2": rows(rng, d, pt)}
        g = rows(rng, shape, np.result_type(xt, pt))
        want, want_grads = earlier_mlp(xd, *weights.values(), g)
        tensors = {"x": Tensor(xd, requires_grad=True)}
        tensors.update({name: Tensor(w, requires_grad=True) for name, w in weights.items()})
        with np.errstate(over="ignore"):
            out = ag.mlp_sublayer(*tensors.values())
            out._backward(g)
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()
        for name, t in tensors.items():
            assert t.grad.dtype == want_grads[name].dtype, name
            assert t.grad.tobytes() == want_grads[name].tobytes(), (shape, name)


@pytest.mark.parametrize("xt, pt", DTYPES)
def test_attention_scores(xt, pt):
    """Queries in the parameters' dtype against key blocks in the rows' dtype, at 2 and 4 heads of width 64."""
    rng = np.random.default_rng(3)
    for heads, lq, n, batch in ((2, 1, 9, ()), (4, 3, 5, ()), (2, 2, 4, (3,))):
        dh = 64 // heads
        q = rows(rng, batch + (lq, 64), pt)
        keys_t, values = rows(rng, batch + (heads, dh, n), xt), rows(rng, batch + (heads, n, dh), xt)
        qh, scores, scale = ag._scores(q, keys_t, values)
        want = earlier_scores(q, keys_t)
        assert scores.dtype == want.dtype == xt and scores.tobytes() == want.tobytes(), (heads, batch)
        assert scale.dtype == xt and scale == xt.type(1.0 / math.sqrt(dh))


@pytest.mark.parametrize("dtype", [F32, F64])
def test_filter_logits(dtype):
    rng = np.random.default_rng(4)
    configs = [sp.SamplerConfig(), sp.SamplerConfig(top_k=5, top_p=0.5, temperature=0.3),
               sp.SamplerConfig(top_k=1000, top_p=1.0, temperature=2.5), sp.SamplerConfig(top_k=3, top_p=0.99)]
    tied = np.zeros((2, 30), dtype=dtype)
    tied[:, :6] = 4.0  # six tied best tokens overflow every prefix
    for config in configs:
        for logits in (rows(rng, 512, dtype, 3.0), rows(rng, (4, 50), dtype, 2.0), tied):
            got, want = sp.filter_logits(logits, config), earlier_filter_logits(logits, config)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (config, logits.shape)


@pytest.mark.parametrize("dtype", [F32, F64])
@pytest.mark.parametrize("max_norm", [0.0, 0.5])
def test_adam_step(dtype, max_norm):
    """Three steps, so the bias corrections change; one parameter sits out the second, so runs split by count."""
    rng = np.random.default_rng(5)
    listing = [(name, rows(rng, shape, dtype)) for name, shape in (("a", (3, 4)), ("b", (4,)), ("c", (2, 5)))]
    sets = [ag.ParameterSet(listing), ag.ParameterSet(listing)]
    optimizers = [Adam(params, lr=2e-3) for params in sets]
    for step in range(3):
        grads = {name: rows(rng, values.shape, dtype) for name, values in listing}
        for params in sets:
            params.zero_grads()
            for name, g in grads.items():
                if not (step == 1 and name == "b"):
                    params[name].grad = g.copy()
        norm = optimizers[0].step(max_norm)[0]
        assert norm == earlier_adam_step(optimizers[1], max_norm)
        for buffer in ("m", "v"):
            assert getattr(optimizers[0], buffer).tobytes() == getattr(optimizers[1], buffer).tobytes(), step
        assert sets[0].data_buffer.tobytes() == sets[1].data_buffer.tobytes(), step
        assert optimizers[0].t == optimizers[1].t
