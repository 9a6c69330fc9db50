"""The fused ops of the latent side against the chains of ops they replace.

``ag.pool_gaussian`` (whose chain is the pooling chain followed by the
Gaussian head's), ``ag.inject`` (through a decoder forward) and
``ag.elbo_loss`` must give the chain's bits: the outputs, the attention
weights and every gradient, and a ``NumericsError`` in every case where the chain raised,
naming the step that raised.  The chains live in ``chain_ops``.
"""

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import latent as lt
from storyvae import transformer as tf
from storyvae.autograd import Tensor
from storyvae.selfcheck import inner
from storyvae.transformer import ModelConfig

from chain_ops import elbo_chain, error_of, inject_chain, leaf, pool_gaussian_chain, same

POOL_NAMES = ("ln_g", "ln_b", "q", "wk", "wv", "bv", "wo", "bo")
HEAD_NAMES = ("mu_w", "mu_b", "ls_w", "ls_b")
SHAPES = [(8,), (8,), (8,), (8, 8), (8, 8), (8,), (8, 8), (8,), (8, 6), (6,), (8, 6), (6,)]
BOUND = 5.0  # the log-sigma clamp of these cases, [-BOUND, BOUND]


def pool_case(rng, dtype, lead, frozen=(), scale=0.6):
    """Rows (5 per sequence, d=8), the pooling tensors and the heads (d'=6); those in ``frozen`` need no gradient."""
    x = leaf(rng, lead + (5, 8), dtype, grad="x" not in frozen)
    return x, {n: leaf(rng, s, dtype, scale, grad=n not in frozen) for n, s in zip(POOL_NAMES + HEAD_NAMES, SHAPES)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("masked", [False, True], ids=["all_keys", "key_mask"])
@pytest.mark.parametrize("frozen", [(), ("x", "ln_g", "ln_b"), ("q", "wo", "bo"),
                                    ("x", "ln_g", "ln_b", "wk", "wv", "bv"), HEAD_NAMES, ("x",) + POOL_NAMES],
                         ids=["all", "rows_frozen", "query_frozen", "only_query_output_heads", "heads_frozen",
                              "only_heads"])
@pytest.mark.parametrize("used", ["both", "mu", "log_sigma"])
def test_pool_gaussian_gives_the_chains_bits(dtype, lead, masked, frozen, used):
    """Both outputs, the weights and every gradient, with log-sigmas on both sides of each clamp bound.

    Batch entry b hides its last b % 3 keys.  Each ``used`` output is read
    out linearly, against its own random weights, in a backward of its own.
    """
    mask = None
    if masked:
        n = lead[0] if lead else 1
        mask = (np.arange(5) < 5 - np.arange(n)[:, None, None, None] % 3) if lead else np.arange(5) != 2

    def run(op):
        rng = np.random.default_rng(21)
        x, p = pool_case(rng, dtype, lead, frozen)
        mu, log_sigma, weights = op(x, *p.values(), 2, -BOUND, BOUND, mask, True)
        mu_w, ls_w = (Tensor(rng.standard_normal(out.data.size), dtype=dtype) for out in (mu, log_sigma))
        readouts = {"both": [(mu, mu_w), (log_sigma, ls_w)], "mu": [(mu, mu_w)], "log_sigma": [(log_sigma, ls_w)]}
        for out, w in readouts[used]:
            ag.backward(inner(out, w))
        return [mu.data, log_sigma.data, weights, x.grad] + [t.grad for t in p.values()]

    fused, chain = run(ag.pool_gaussian), run(pool_gaussian_chain)
    assert fused[0].shape == fused[1].shape == lead + (6,)
    assert 0 < (np.abs(fused[1]) == BOUND).sum() < fused[1].size
    assert all(same(a, b) for a, b in zip(fused, chain, strict=True))
    unused = {"both": (), "mu": ("ls_w", "ls_b"), "log_sigma": ("mu_w", "mu_b")}[used]
    assert sum(g is not None for g in fused[3:]) == len({"x", *POOL_NAMES, *HEAD_NAMES} - {*frozen, *unused})


def test_pool_gaussian_runs_its_backward_once_for_both_outputs():
    """One loss over both outputs: the pooled rows' gradient is the sum of the two products', as in the chain."""

    def run(op):
        rng = np.random.default_rng(23)
        x, p = pool_case(rng, np.float64, (3,))
        mu, log_sigma = op(x, *p.values(), 2, -BOUND, BOUND)
        zero = Tensor(np.zeros((3, 6)))
        ag.backward(ag.elbo_loss(None, ag.gaussian_kl(mu, log_sigma, zero, zero), 1.0, 1))
        return [x.grad] + [t.grad for t in p.values()]

    fused, chain = run(ag.pool_gaussian), run(pool_gaussian_chain)
    assert all(same(a, b) for a, b in zip(fused, chain, strict=True))


MODES = [("input",), ("psa",), ("softmax",), ("input", "softmax"), tf.INJECTION_MODES]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("modes", MODES, ids=lambda m: "+".join(m))
@pytest.mark.parametrize("zero_layer", [False, True], ids=["every_layer", "layer_1_zero"])
def test_inject_gives_the_chains_bits(monkeypatch, dtype, lead, modes, zero_layer):
    """A decoder forward and backward with ``ag.inject`` as it is and as its chain: logits and every gradient.

    With ``layer_1_zero`` the ``psa`` projection's columns for layer 1
    are zero, so that layer's latent row is exactly zero and injects
    nothing.  The decoder's consumers order the latent's gradient as a
    train step does: the ``psa`` rows', the ``input`` row's, then the
    ``softmax`` bias's.
    """
    cfg = ModelConfig(d=8, layers=3, encoder_layers=1, heads=2, latent_dim=4, vocab_size=11, max_seq_len=9,
                      injection_modes=modes)
    rng = np.random.default_rng(24)
    tokens = rng.integers(0, cfg.vocab_size, size=lead + (6,))
    targets = rng.integers(0, cfg.vocab_size, size=lead + (6,))

    def run(op):
        params = tf.init_parameters(cfg, np.random.default_rng(25), dtype=dtype)
        ag.rescale_for_grad_check(params, np.random.default_rng(26))
        if zero_layer and "psa" in modes:
            params["inject.psa.w"].data[:, cfg.d:2 * cfg.d] = 0.0
        z = Tensor(np.random.default_rng(27).standard_normal(lead + (cfg.latent_dim,)), requires_grad=True, dtype=dtype)
        for _, p in params.items():
            p.requires_grad = True
        with monkeypatch.context() as patch:
            patch.setattr(ag, "inject", op)
            cache = tf.DecoderCache(params, cfg, lt.LatentCode(z, lt.LatentSource.EXTERNAL), modes)
            logits = tf.decode_stack(cache, tokens)
        ag.backward(ag.cross_entropy(logits, targets, np.ones(tokens.shape, dtype=bool))[0])
        latents = [int(rows is not None) for rows in cache.latent_rows]
        return latents, [logits.data, z.grad] + [p.grad for _, p in params.items()]

    (fused_rows, fused), (chain_rows, chain) = run(ag.inject), run(inject_chain)
    want_rows = [int("psa" in modes and not (zero_layer and i == 1)) for i in range(cfg.layers)]
    assert fused_rows == chain_rows == want_rows
    assert all(same(a, b) for a, b in zip(fused, chain, strict=True))


def test_inject_refuses_a_batch_that_mixes_zero_and_nonzero_layer_rows():
    rng = np.random.default_rng(28)
    psa_w = Tensor(rng.standard_normal((4, 16)))
    z = Tensor(rng.standard_normal((2, 4)))
    z.data[1] = 0.0  # the second latent's rows are all exactly zero, the first's are not
    kv = [tuple(Tensor(rng.standard_normal(s)) for s in [(8, 8), (8,), (8, 8), (8,)]) for _ in range(2)]
    with pytest.raises(ag.ShapeError, match="mixes exactly-zero and nonzero rows at layer 0"):
        ag.inject(z, None, psa_w, None, kv)
    z.data[...] = 0.0
    assert ag.inject(z, None, psa_w, None, kv) == (None, None, [None, None])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("recon", [True, False], ids=["recon", "kl_only"])
def test_elbo_loss_gives_the_chains_bits(dtype, recon):
    def run(op):
        rng = np.random.default_rng(29)
        logits = leaf(rng, (3, 5, 7), dtype)
        kl = leaf(rng, (3, 6), dtype)
        nll = ag.cross_entropy(logits, rng.integers(0, 7, size=(3, 5)), rng.random((3, 5)) < 0.7)[0] if recon else None
        loss = op(nll, kl, 0.37, 3)
        ag.backward(loss)
        return [np.asarray(loss.data), kl.grad, logits.grad if recon else None]

    fused, chain = run(ag.elbo_loss), run(elbo_chain)
    assert all(same(a, b) for a, b in zip(fused, chain, strict=True))


class TestPoolGaussianNumerics:
    """Four checks stand in for the chain's seven: the scores (every key, masked or not), the pooled rows, the
    log-sigma product before its clamp, and the outputs."""

    @staticmethod
    def run(op, x, p, key_mask, stage=None):
        kwargs = {} if stage is None else {"stage": stage}
        try:
            with np.errstate(all="ignore"):
                op(x, *p.values(), 2, -20.0, 2.0, key_mask, **kwargs)
        except ag.NumericsError as e:
            return str(e)
        return None

    @pytest.mark.parametrize("name, index, value, step", [
        ("x", (0, 1, 2), np.nan, "layer_norm"), ("ln_b", (3,), np.inf, "layer_norm"),
        ("wk", (2, 5), np.inf, "linear wk"), ("wv", (1, 1), -np.inf, "linear wv"), ("bv", (4,), np.nan, "linear wv"),
        ("wo", (0, 0), np.inf, "linear wo"), ("bo", (7,), np.nan, "linear wo"),
        ("mu_w", (0, 0), np.nan, "linear mu"), ("mu_w", (1, 0), np.inf, "linear mu"),
        ("mu_b", (0,), np.nan, "linear mu"),
        ("ls_w", (0, 0), np.inf, "linear ls"), ("ls_b", (0,), -np.inf, "linear ls"),
    ])
    def test_a_non_finite_tensor_names_the_step(self, name, index, value, step):
        """An infinite log-sigma product is an error though the clamp would make it finite."""
        x, p = pool_case(np.random.default_rng(30), np.float32, (2,), frozen=("x",) + POOL_NAMES + HEAD_NAMES)
        (x if name == "x" else p[name]).data[index] = value
        stage = []
        assert self.run(pool_gaussian_chain, x, p, None, stage) is not None and stage == [step]
        assert self.run(ag.pool_gaussian, x, p, None) == f"pool_gaussian: {step} produced non-finite values"

    def test_a_score_overflow_is_named_at_the_attention(self):
        x, p = pool_case(np.random.default_rng(31), np.float32, (), frozen=("x",) + POOL_NAMES + HEAD_NAMES)
        p["q"].data[...] = 3e38
        stage = []
        assert self.run(pool_gaussian_chain, x, p, None, stage) is not None and stage == ["attention"]
        assert self.run(ag.pool_gaussian, x, p, None) == "pool_gaussian: attention produced non-finite values"

    def test_raises_exactly_where_the_chain_raises(self):
        """Extreme entries anywhere, with or without a key mask: the fused op raises whenever the chain does."""
        raised = set()
        for seed in range(400):
            rng = np.random.default_rng(seed)
            x, p = pool_case(rng, np.float32, (2,), frozen=("x",) + POOL_NAMES + HEAD_NAMES, scale=0.5)
            tensors = [x, *p.values()]
            for _ in range(rng.integers(1, 3)):
                t = tensors[rng.integers(len(tensors))].data
                t.flat[rng.integers(t.size)] = rng.choice([1e38, -1e38, 1e20, -3e19, 1e4, np.inf, -np.inf, np.nan])
            key_mask = None
            if seed % 2:
                key_mask = np.ones((2, 1, 1, 5), dtype=bool)
                key_mask[1, ..., 3:] = False
            stage = []
            want = self.run(pool_gaussian_chain, x, p, key_mask, stage)
            got = self.run(ag.pool_gaussian, x, p, key_mask)
            assert (got is None) == (want is None), seed
            if want is not None:
                assert got == f"pool_gaussian: {stage[0]} produced non-finite values", seed
                raised.add(stage[0])
        assert raised == {"layer_norm", "linear wk", "linear wv", "attention", "linear wo", "linear mu", "linear ls"}


class TestInjectNumerics:
    @staticmethod
    def tensors(rng):
        """A (2, 4) latent batch, the three route projections at d=8 over two layers, and each layer's four."""
        routes = [leaf(rng, shape, np.float32, grad=False) for shape in [(2, 4), (4, 8), (4, 16), (4, 11)]]
        return routes + [leaf(rng, shape, np.float32, grad=False) for _ in range(2) for shape in [(8, 8), (8,)] * 2]

    @staticmethod
    def call(op, tensors, stage=None):
        z, input_w, psa_w, softmax_w, *kv = tensors
        kwargs = {} if stage is None else {"stage": stage}
        return op(z, input_w, psa_w, softmax_w, [kv[:4], kv[4:]], **kwargs)

    @pytest.mark.parametrize("where, index, value, step", [
        (1, (0, 3), np.inf, "linear input"), (2, (1, 9), np.nan, "linear psa"), (3, (2, 10), -np.inf, "linear softmax"),
        (4, (5, 5), np.inf, "linear psa_wk 0"), (7, (2,), np.nan, "linear psa_wv 0"), (10, (0, 1), np.inf, "linear psa_wv 1"),
        (0, (1, 2), 3e38, "linear input"),
    ])
    def test_a_non_finite_tensor_names_the_step(self, where, index, value, step):
        tensors = self.tensors(np.random.default_rng(33))
        tensors[where].data[index] = value
        stage = []
        assert error_of(tensors, lambda *t: self.call(inject_chain, t, stage)) is not None and stage == [step]
        assert error_of(tensors, lambda *t: self.call(ag.inject, t)) == f"inject: {step} produced non-finite values"

    def test_raises_exactly_where_the_chain_raises(self):
        raised = set()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            tensors = self.tensors(rng)
            for _ in range(rng.integers(1, 3)):
                t = tensors[rng.integers(1, len(tensors))].data
                t.flat[rng.integers(t.size)] = rng.choice([3e38, -3e38, 1e20, -3e19, np.inf, -np.inf, np.nan])
            stage = []
            want = error_of(tensors, lambda *t: self.call(inject_chain, t, stage))
            got = error_of(tensors, lambda *t: self.call(ag.inject, t))
            assert (got is None) == (want is None), seed
            if want is not None:
                assert got == f"inject: {stage[0]} produced non-finite values", seed
                raised.add(stage[0])
        assert raised >= {"linear input", "linear psa", "linear softmax", "linear psa_wk 0", "linear psa_wv 1"}


def test_an_overflowing_objective_raises():
    kl = Tensor(np.full((2, 3), 3e38, dtype=np.float32))
    assert error_of([kl], lambda t: elbo_chain(None, t, 1.0, 1)) is not None
    assert error_of([kl], lambda t: ag.elbo_loss(None, t, 1.0, 1)) == "elbo_loss produced non-finite values"
