"""The small ops that the fused ops replaced, kept as the oracle of the tests that compare the two.

Each is one tape node built through ``ag._make``, with the arithmetic
the package ran before the fused ops took over, forward and backward:
``add``, ``mul_scalar``, ``linear``, ``reshape``, ``take_rows``,
``sum_all``, ``clamp``, ``layer_norm``, ``attention``, the GELU and the
transpose.  The chains of them that each fused op replaces live here
too, with the name of the step each chain is about to take recorded in
an optional ``stage`` list, so a numerics test can tell where a chain
raised.  No program code calls any of this.
"""

import numpy as np

from storyvae import autograd as ag
from storyvae import transformer as tf
from storyvae.autograd import ShapeError, Tensor, _make, _product_grads, _unbroadcast


def add(a: Tensor, b: Tensor) -> Tensor:
    """``a + b``, where ``b`` may broadcast to ``a``'s shape (a row, or one row per batch entry)."""
    lead = a.data.ndim - b.data.ndim
    if a.shape != b.shape and (lead < 0 or not all(n in (1, m) for n, m in zip(b.shape, a.shape[lead:]))):
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _make(data, "add", (a, b), backward)


def mul_scalar(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return _make(a.data * s, "mul_scalar", (a,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, residual: Tensor | None = None) -> Tensor:
    """``residual + (x @ w + b)``; backward hands the residual ``g`` first, then ``x``, then the weight and bias."""
    xd, wd = x.data, w.data
    data = xd @ wd if b is None else xd @ wd + b.data
    parents = (x, w) if b is None else (x, w, b)
    if residual is not None:
        data = residual.data + data
        parents += (residual,)

    def backward(g):
        if residual is not None and residual.requires_grad:
            residual.accumulate_grad(g)
        if x.requires_grad:
            x.accumulate_grad(g @ wd.T)
        _product_grads(g, xd, w, b)

    return _make(data, "linear", parents, backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return _make(np.ascontiguousarray(a.data.reshape(shape)), "reshape", (a,), backward)


def take_rows(a: Tensor, indices) -> Tensor:
    """Rows of the matrix ``a``, or of each matrix of a (..., n, d) batch, at ``indices`` of any shape."""
    where = (Ellipsis, np.asarray(indices, dtype=np.int64), slice(None))

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, where, g)
            a.accumulate_grad(full)

    return _make(a.data[where], "take_rows", (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, g))

    return _make(np.asarray(a.data.sum(), dtype=a.data.dtype), "sum_all", (a,), backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    inside = (a.data > lo) & (a.data < hi)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * inside)

    return _make(np.clip(a.data, lo, hi), "clamp", (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    data, xhat, inv = ag._norm(x.data, gain.data, bias.data)

    def backward(g):
        ag._norm_grads(g, xhat, inv, x, gain, bias)

    return _make(data, "layer_norm", (x, gain, bias), backward)


def attention(q: Tensor, keys_t: np.ndarray, values: np.ndarray, segments, mask=None, return_weights: bool = False):
    """Multi-head attention of ``q`` over per-head stacks, as one node.

    Each ``(lo, hi, k, v)`` of ``segments`` names the key and value tensors
    whose rows sit at ``lo:hi``; backward hands each its rows' gradients.
    """
    qh, scores, scale = ag._scores(q.data, keys_t, values)
    ag._check_finite(scores, "attention")
    probs, data = ag._mix(scores, values, mask, q.shape[-1])

    def backward(g):
        gh, gs, gq = ag._mix_grads(g, qh, keys_t, values, probs, scale, q.requires_grad)
        if q.requires_grad:
            q.accumulate_grad(_unbroadcast(gq, q.shape))
        rows = ag._row_grads(gh, gs, qh, probs)
        for lo, hi, k, v in segments:
            gk, gv = rows(lo, hi)
            if k.requires_grad:
                k.accumulate_grad(_unbroadcast(gk, k.shape))
            if v.requires_grad:
                v.accumulate_grad(_unbroadcast(gv, v.shape))

    parents = (q,) + tuple(t for seg in segments for t in seg[2:])
    out = _make(data, "attention", parents, backward)
    return (out, probs.copy()) if return_weights else out


def gelu(a: Tensor) -> Tensor:
    """The GELU node (tanh approximation)."""
    x = a.data
    t = np.tanh(ag.GELU_TANH_COEFF * (x + ag.GELU_CUBIC_COEFF * (x * x * x)))

    def backward(g):
        if a.requires_grad:
            dinner = ag.GELU_TANH_COEFF * (1.0 + 3.0 * ag.GELU_CUBIC_COEFF * x**2)
            slope = 1.0 - t**2
            dinner[slope == 0.0] = 0.0  # a saturated unit's term is 0, not 0 * inf where its x**2 overflowed
            a.accumulate_grad(g * (0.5 * (1.0 + t) + 0.5 * x * slope * dinner))

    return _make(0.5 * x * (1.0 + t), "gelu", (a,), backward)


def transpose(a: Tensor) -> Tensor:
    """A view of the matrix transposed."""

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.ascontiguousarray(g.T))

    return _make(a.data.T, "transpose", (a,), backward)


def namer(stage):
    """A function that records, in the list ``stage`` if there is one, the step a chain is about to take."""

    def name(step):
        if stage is not None:
            stage[:] = [step]

    return name


def append(keys_t: np.ndarray, values: np.ndarray, filled: int, latent, k: Tensor, v: Tensor) -> list:
    """Write the (..., l, d) rows ``k`` and ``v`` into the stacks from row ``filled``; the segments the attention reads.

    ``latent``, if not None, holds the key and value tensors of row 0.
    """
    *batch, l, d = k.shape
    h = keys_t.shape[-3]
    split, nb = (*batch, l, h, d // h), len(batch)
    keys_t[..., filled:filled + l] = k.data.reshape(split).transpose(*range(nb), nb + 1, nb + 2, nb)
    values[..., filled:filled + l, :] = v.data.reshape(split).swapaxes(-3, -2)
    segments = [] if latent is None else [(0, 1, *latent)]
    return segments + ([(filled, filled + l, k, v)] if k.requires_grad or v.requires_grad else [])


def embedding_chain(word, pos, tokens, start, row=None, stage=None):
    """Word rows, position rows, their sum and the injection row: three or four nodes."""
    name = namer(stage)
    name("take_rows word")
    words = take_rows(word, tokens)
    name("take_rows pos")
    positions = take_rows(pos, np.arange(start, start + np.shape(tokens)[-1]))
    name("add")
    x = add(words, positions)
    if row is None:
        return x
    name("add row")
    return add(x, row)


def head_chain(x, ln_g, ln_b, word, bias=None, stage=None):
    """Layer norm, the table's transpose, the product and the injection bias: three or four nodes."""
    name = namer(stage)
    name("layer_norm")
    h = layer_norm(x, ln_g, ln_b)
    name("transpose")
    table = transpose(word)
    name("linear")
    logits = linear(h, table)
    if bias is None:
        return logits
    name("add")
    return add(logits, bias)


def mlp_chain(x, ln_g, ln_b, w1, b1, w2, b2, stage=None):
    """Layer norm, product, GELU, product with the residual: four nodes."""
    steps = [("layer_norm", lambda: layer_norm(x, ln_g, ln_b)), ("linear w1", lambda: linear(h, w1, b1)),
             ("gelu", lambda: gelu(h)), ("linear w2", lambda: linear(h, w2, b2, residual=x))]
    for step, run in steps:
        namer(stage)(step)
        h = run()
    return h


def attention_chain(x, ln_g, ln_b, wq, bq, wk, wv, bv, wo, bo, keys_t, values, filled, latent, mask=None,
                    return_weights=False, stage=None):
    """Layer norm, three products, the rows' write, ``attention`` and the output product with the residual."""
    name = namer(stage)
    name("layer_norm")
    h = layer_norm(x, ln_g, ln_b)
    name("linear wq")
    q = linear(h, wq, bq)
    name("linear wk")
    k = linear(h, wk)
    name("linear wv")
    segments = append(keys_t, values, filled, latent, k, linear(h, wv, bv))
    name("attention")
    n = filled + x.shape[-2]
    out = attention(q, keys_t[..., :n], values[..., :n, :], segments, mask, return_weights)
    weights = None
    if return_weights:
        out, weights = out
    name("linear wo")
    out = linear(out, wo, bo, x)
    return (out, weights) if return_weights else out


def pool_chain(x, ln_g, ln_b, q, wk, wv, bv, wo, bo, n_heads, mask=None, return_weights=False, stage=None):
    """The encoder's final layer norm, two products, the rows' write, ``attention`` of the query and the output product."""
    name = namer(stage)
    name("layer_norm")
    h = layer_norm(x, ln_g, ln_b)
    name("linear wk")
    k = linear(h, wk)
    keys_t, values = tf.kv_stacks(k, n_heads, x.shape[-2])
    name("linear wv")
    segments = append(keys_t, values, 0, None, k, linear(h, wv, bv))
    name("attention")
    out = attention(reshape(q, (1, q.shape[0])), keys_t, values, segments, mask, return_weights)
    weights = None
    if return_weights:
        out, weights = out
    name("linear wo")
    out = linear(out, wo, bo)
    return (out, weights) if return_weights else out


def gaussian_head_chain(x, mu_w, mu_b, ls_w, ls_b, lo, hi, stage=None):
    """Two products, the clamp and two reshapes: five nodes."""
    name = namer(stage)
    shape = x.shape[:-2] + mu_w.shape[1:]
    name("linear mu")
    mu = linear(x, mu_w, mu_b)
    name("linear ls")
    log_sigma = linear(x, ls_w, ls_b)
    return reshape(mu, shape), reshape(clamp(log_sigma, lo, hi), shape)


def pool_gaussian_chain(x, ln_g, ln_b, q, wk, wv, bv, wo, bo, mu_w, mu_b, ls_w, ls_b, n_heads, lo, hi, mask=None,
                        return_weights=False, stage=None):
    """``pool_chain``, then ``gaussian_head_chain`` of its pooled rows."""
    pooled = pool_chain(x, ln_g, ln_b, q, wk, wv, bv, wo, bo, n_heads, mask, return_weights, stage)
    if return_weights:
        pooled, weights = pooled
        return (*gaussian_head_chain(pooled, mu_w, mu_b, ls_w, ls_b, lo, hi, stage), weights)
    return gaussian_head_chain(pooled, mu_w, mu_b, ls_w, ls_b, lo, hi, stage)


def inject_chain(z, input_w, psa_w, softmax_w, psa_kv=(), stage=None):
    """The latent as a row, its products, the per-layer rows picked from the ``psa`` product and their products."""
    name = namer(stage)
    batch, n = z.shape[:-1], len(psa_kv)
    zr = reshape(z, (*batch, 1, z.shape[-1]))
    input_row = softmax_bias = None
    if input_w is not None:
        name("linear input")
        input_row = linear(zr, input_w)
    if psa_w is not None:
        name("linear psa")
        rows = reshape(linear(zr, psa_w), (*batch, n, psa_w.shape[1] // n))
        picked = [take_rows(rows, [i]) for i in range(n)]
    if softmax_w is not None:
        name("linear softmax")
        softmax_bias = linear(zr, softmax_w)
    kv = []
    for i, (wk, bk, wv, bv) in enumerate(psa_kv):
        nonzero = np.any(picked[i].data != 0.0, axis=(-2, -1))
        if not nonzero.any():
            kv.append(None)
            continue
        if not nonzero.all():
            raise ShapeError("a batch of latent rows mixes exactly-zero and nonzero rows")
        name(f"linear psa_wk {i}")
        k = linear(picked[i], wk, bk)
        name(f"linear psa_wv {i}")
        kv.append((k, linear(picked[i], wv, bv)))
    return input_row, softmax_bias, kv


def elbo_chain(recon, kl, beta, batch):
    """The KL's sum, scaled by ``beta``, added to the reconstruction and scaled by ``1 / batch``: four nodes."""
    total = mul_scalar(sum_all(kl), beta)
    return mul_scalar(total if recon is None else add(recon, total), 1.0 / batch)


def chains(patch) -> None:
    """Make every fused op of the model its chain."""
    patch.setattr(ag, "attention_sublayer", attention_chain)
    patch.setattr(ag, "mlp_sublayer", mlp_chain)
    patch.setattr(ag, "embedding", embedding_chain)
    patch.setattr(ag, "tied_head", head_chain)
    patch.setattr(ag, "pool_gaussian", pool_gaussian_chain)
    patch.setattr(ag, "inject", inject_chain)
    patch.setattr(ag, "elbo_loss", elbo_chain)


def leaf(rng, shape, dtype, scale=1.0, grad=True):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=grad, dtype=dtype)


def same(a, b) -> bool:
    return (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))


def error_of(tensors, op):
    """The message of the ``NumericsError`` that ``op`` raises on these tensors, or None."""
    try:
        with np.errstate(all="ignore"):
            op(*tensors)
    except ag.NumericsError as e:
        return str(e)
    return None

