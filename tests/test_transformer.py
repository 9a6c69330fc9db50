import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import latent as lt
from storyvae import transformer as tf
from storyvae.autograd import ParameterSet, Tensor
from storyvae.model import StoryVAE
from storyvae.transformer import ContractError, ModelConfig


def small_config(**overrides):
    base = dict(d=8, layers=2, encoder_layers=1, heads=2, latent_dim=8,
                vocab_size=16, max_seq_len=10, injection_modes=("input", "psa", "softmax"))
    base.update(overrides)
    return ModelConfig(**base)


def make_params(cfg, seed=0, dtype=np.float32):
    return tf.init_parameters(cfg, np.random.default_rng(seed), dtype=dtype)


def decode(params, cfg, tokens, latent=None, modes=()):
    """The decoder's logits of ``tokens`` from position 0, through a cache built for them."""
    return tf.decode_stack(tf.DecoderCache(params, cfg, latent, modes), tokens)


def identity_attention_params(d, with_psa=False, dtype=np.float64):
    """Q/K/V/O projections set to the identity and a plain layer norm, so attention over ``norm(x)`` is inspectable."""
    eye = lambda: Tensor(np.eye(d, dtype=dtype))
    zero = lambda: Tensor(np.zeros(d, dtype=dtype))
    kwargs = {}
    if with_psa:
        kwargs = dict(psa_wk=eye(), psa_bk=zero(), psa_wv=eye(), psa_bv=zero())
    return tf.AttentionParams(ln_g=Tensor(np.ones(d, dtype=dtype)), ln_b=zero(), wq=eye(), bq=zero(), wk=eye(),
                              wv=eye(), bv=zero(), wo=eye(), bo=zero(), **kwargs)


def norm(x, gain=1.0, bias=0.0):
    """Layer norm of each row, in ``ag.layer_norm``'s arithmetic."""
    d = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / d + ag.LN_EPS)
    return gain * (centered * inv) + bias


def attend(x, p, n_heads, causal, latent=None, return_weights=False, rows=None):
    """``ag.attention_sublayer`` of ``x`` over fresh stacks of ``rows`` rows, after ``latent``'s row if it is not None.

    ``rows`` defaults to the latent row plus those of ``x``; ``latent``
    holds a latent row's key and value tensors, constants here.
    """
    filled, l = int(latent is not None), x.shape[-2]
    stacks = tf.kv_stacks(x, n_heads, filled + l if rows is None else rows, latent)
    return ag.attention_sublayer(x, p.ln_g, p.ln_b, p.wq, p.bq, p.wk, p.wv, p.bv, p.wo, p.bo, *stacks, filled, None,
                                 tf.causal_mask(l, filled) if causal else None, return_weights)


def pool_tensors(params):
    """The encoder's final norm and pooling tensors of ``params``, in ``ag.pool_gaussian``'s order."""
    return [params[name] for name in tf.POOL_NAMES]


def pool(x, tensors, n_heads, return_weights=False):
    """The pooled rows of ``x``, (d,) or (B, d), as the mean of ``ag.pool_gaussian`` through identity heads.

    An identity product and a zero bias leave every bit of the pooled row as it is.
    """
    d, dtype = x.shape[-1], x.dtype
    eye, zero = Tensor(np.eye(d, dtype=dtype)), Tensor(np.zeros(d, dtype=dtype))
    out = ag.pool_gaussian(x, *tensors, eye, zero, eye, zero, n_heads, -np.inf, np.inf, return_weights=return_weights)
    return (out[0], out[2]) if return_weights else out[0]


def two_way_softmax(a, b):
    m = max(a, b)
    ea, eb = np.exp(a - m), np.exp(b - m)
    return ea / (ea + eb), eb / (ea + eb)


class TestAttentionSublayer:
    def test_config_validation(self):
        with pytest.raises(ContractError):
            small_config(d=10, heads=4)
        with pytest.raises(ContractError):
            small_config(encoder_layers=5)
        with pytest.raises(ContractError):
            small_config(injection_modes=("warp",))

    def test_single_position_ignores_query(self):
        d = 4
        p = identity_attention_params(d)
        rng = np.random.default_rng(0)
        row = rng.standard_normal((1, d))
        out1 = attend(Tensor(row), p, n_heads=2, causal=True).data
        # changing only the query projection cannot matter for one position
        p.wq = Tensor(rng.standard_normal((d, d)))
        out2 = attend(Tensor(row), p, n_heads=2, causal=True).data
        assert np.allclose(out1, row + norm(row), atol=1e-6)  # the residual plus identity V then identity O
        assert np.allclose(out1, out2, atol=1e-6)

    def test_causal_row_zero_equals_length_one(self):
        cfg = small_config()
        params = make_params(cfg, seed=1)
        p = tf.attention_params(params, "dec.0")
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, cfg.d)).astype(np.float32)
        full = attend(Tensor(x), p, cfg.heads, causal=True).data
        first = attend(Tensor(x[:1]), p, cfg.heads, causal=True).data
        assert np.allclose(full[0], first[0], atol=1e-6)

    def test_identical_rows_average_values(self):
        d = 4
        p = identity_attention_params(d)
        row = np.array([0.3, -0.7, 1.1, 0.2])
        x = Tensor(np.stack([row, row]))
        out = attend(x, p, n_heads=1, causal=False).data
        # equal keys -> 0.5/0.5 attention -> mean of the two (equal) value rows, after the residual
        assert np.allclose(out, np.stack([row, row]) + norm(row), atol=1e-6)

    def test_two_distinct_values_equal_keys(self):
        d = 2
        p = identity_attention_params(d)
        p.wk = Tensor(np.zeros((d, d)))  # all keys project to zero -> equal scores
        v0, v1 = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        out = attend(Tensor(np.stack([v0, v1])), p, n_heads=1, causal=False).data
        mean = (norm(v0) + norm(v1)) / 2
        assert np.allclose(out[0], v0 + mean, atol=1e-7)
        assert np.allclose(out[1], v1 + mean, atol=1e-7)

    def test_sequence_length_cap(self):
        """The length limit reaches an attention as the room in its stacks, and the decoder as its cache's capacity."""
        p = identity_attention_params(4)
        with pytest.raises(ag.ShapeError, match="do not fit after row 0"):
            attend(Tensor(np.zeros((9, 4))), p, 2, causal=True, rows=8)
        cfg = small_config()
        params = make_params(cfg)
        cache = tf.DecoderCache(params, cfg, positions=8)
        with pytest.raises(ContractError, match="9 positions exceed the 8 the decoder cache holds"):
            tf.decode_stack(cache, np.zeros(9, dtype=int))


def psa_rows(p, z):
    """A layer's latent key and value rows, as ``ag.inject`` makes them of the (1, d) row ``z`` (None if it is zero).

    The identity as the ``psa`` projection hands ``z`` to the layer's latent products as it is.
    """
    eye = Tensor(np.eye(z.shape[-1], dtype=z.dtype))
    _, _, (kv,) = ag.inject(Tensor(z[0]), None, eye, None, [(p.psa_wk, p.psa_bk, p.psa_wv, p.psa_bv)])
    return kv


class TestPseudoSelfAttention:
    """Decoder self-attention with the per-layer latent row prefixed to keys and values as row 0 of its stacks."""

    def test_requires_psa_projections(self):
        """The ``psa`` projection and the layers' latent key/value projections come together or not at all."""
        p = identity_attention_params(4, with_psa=True)
        z, psa_w = Tensor(np.ones(4)), Tensor(np.eye(4))
        with pytest.raises(ag.ShapeError, match="does not split into the rows of 0 layers"):
            ag.inject(z, None, psa_w, None, ())
        with pytest.raises(ag.ShapeError, match="psa projection"):
            ag.inject(z, None, None, None, [(p.psa_wk, p.psa_bk, p.psa_wv, p.psa_bv)])

    def test_wrong_width_slice_rejected(self):
        p = identity_attention_params(4, with_psa=True)
        kv = [(p.psa_wk, p.psa_bk, p.psa_wv, p.psa_bv)]
        for z, psa_w, layers in [((3,), (4, 4), 1), ((1, 1, 4), (4, 4), 1), ((4,), (4, 6), 4)]:
            with pytest.raises(ag.ShapeError):
                ag.inject(Tensor(np.ones(z)), None, Tensor(np.ones(psa_w)), None, kv * layers)

    def test_augmented_row_counts(self):
        # key/value matrices gain exactly one latent row; output keeps l rows
        p = identity_attention_params(4, with_psa=True)
        x = Tensor(np.random.default_rng(3).standard_normal((5, 4)))
        out, weights = attend(
            x, p, n_heads=2, causal=True, latent=psa_rows(p, np.ones((1, 4))), return_weights=True
        )
        assert out.shape == (5, 4)
        for w in weights:
            assert w.shape == (5, 1 + 5)

    def test_equal_value_rows_make_latent_invisible(self):
        d = 2
        p = identity_attention_params(d, with_psa=True)
        row = np.array([0.4, -0.9])
        out_plain = attend(Tensor(np.stack([row, row, row])), p, 1, causal=False).data
        # latent projects to the same key and value row as every token's normalized row
        out_psa = attend(
            Tensor(np.stack([row, row, row])), p, 1, causal=False, latent=psa_rows(p, norm(row)[None, :])
        ).data
        assert np.allclose(out_psa, out_plain, atol=1e-6)

    def test_two_way_mean_with_equal_scores(self):
        d = 2
        p = identity_attention_params(d, with_psa=True)
        p.wq = Tensor(np.zeros((d, d)))  # zero queries -> all scores equal
        token = np.array([1.0, -2.0])
        z = np.array([3.0, -1.0])
        out = attend(Tensor(token[None, :]), p, 1, causal=True, latent=psa_rows(p, z[None, :])).data
        w_lat, w_tok = two_way_softmax(0.0, 0.0)
        assert np.allclose(out[0], token + w_lat * z + w_tok * norm(token), atol=1e-7)

    def test_causal_mask_never_blocks_latent_row(self):
        cfg = small_config()
        params = make_params(cfg, seed=6)
        p = tf.attention_params(params, "dec.0")
        x = np.random.default_rng(7).standard_normal((3, cfg.d)).astype(np.float32)
        _, weights = attend(
            Tensor(x), p, cfg.heads, causal=True,
            latent=psa_rows(p, np.ones((1, cfg.d), dtype=np.float32)), return_weights=True,
        )
        for w in weights:
            assert np.all(w[:, 0] > 0.0)

    def test_exactly_zero_slice_injects_nothing(self):
        cfg = small_config()
        params = make_params(cfg, seed=8)
        p = tf.attention_params(params, "dec.0")
        x = np.random.default_rng(9).standard_normal((4, cfg.d)).astype(np.float32)
        plain = attend(Tensor(x), p, cfg.heads, causal=True).data
        latent = psa_rows(p, np.zeros((1, cfg.d), dtype=np.float32))
        assert latent is None
        gated = attend(Tensor(x), p, cfg.heads, causal=True, latent=latent, rows=1 + 4).data
        assert np.array_equal(plain, gated)


def softmax_oracle(x, mask):
    if mask is None:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    else:
        shifted = np.where(mask, x, -np.inf)
        e = np.where(mask, np.exp(shifted - shifted.max(axis=-1, keepdims=True)), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def heads_oracle(q, k, v, n_heads, mask):
    """One head at a time: slice its columns, attend, then put the columns back side by side."""
    dh = q.shape[1] // n_heads
    outs, weights = [], []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = (np.ascontiguousarray(m[:, cols]) for m in (q, k, v))
        scores = (qh @ np.ascontiguousarray(kh.T)) * (1.0 / np.sqrt(dh))
        attn = softmax_oracle(scores, mask)
        outs.append(attn @ vh)
        weights.append(attn)
    return np.concatenate(outs, axis=1), weights


def attention_oracle(x, p, n_heads, causal, z=None):
    """The attention sublayer: ``x`` plus the output product of the per-head attention over ``norm(x)``."""
    h = norm(x, p.ln_g.data, p.ln_b.data)
    q = h @ p.wq.data + p.bq.data
    k = h @ p.wk.data
    v = h @ p.wv.data + p.bv.data
    n_prefix = 0
    if z is not None:
        k = np.concatenate([z @ p.psa_wk.data + p.psa_bk.data, k])
        v = np.concatenate([z @ p.psa_wv.data + p.psa_bv.data, v])
        n_prefix = 1
    l = x.shape[0]
    mask = None
    if causal:
        mask = np.ones((l, l + n_prefix), dtype=bool)
        mask[:, n_prefix:] = np.arange(l)[None, :] <= np.arange(l)[:, None]
    out, weights = heads_oracle(q, k, v, n_heads, mask)
    return x + (out @ p.wo.data + p.bo.data), weights


def pool_oracle(hseq, tensors, n_heads):
    """The final layer norm, then the learned query's per-head attention and the output product."""
    ln_g, ln_b, q, wk, wv, bv, wo, bo = (t.data for t in tensors)
    h = norm(hseq, ln_g, ln_b)
    out, weights = heads_oracle(q[None, :], h @ wk, h @ wv + bv, n_heads, None)
    return (out @ wo + bo).reshape(-1), weights


class TestFusedHeadsMatchPerHeadLoop:
    """All heads run as one (H, T, d/H) product; every bit must match the one-head-at-a-time loop."""

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("latent", ["none", "row"])
    def test_attention_sublayer(self, n_heads, causal, latent):
        cfg = small_config(heads=n_heads)
        params = make_params(cfg, seed=30, dtype=np.float64)
        ag.rescale_for_grad_check(params, np.random.default_rng(31))
        p = tf.attention_params(params, "dec.0")
        rng = np.random.default_rng(32)
        x = rng.standard_normal((5, cfg.d))
        z = None if latent == "none" else rng.standard_normal((1, cfg.d))
        rows = None if z is None else psa_rows(p, z)
        out, weights = attend(Tensor(x), p, n_heads, causal, latent=rows, return_weights=True)
        want, want_weights = attention_oracle(x, p, n_heads, causal, z)
        assert np.array_equal(out.data, want)
        assert len(weights) == n_heads
        for got_w, want_w in zip(weights, want_weights):
            assert np.array_equal(got_w, want_w)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("batched", [False, True])
    def test_pool(self, n_heads, batched):
        """A (T, d) sequence, pooled to one (1, d) row, or each sequence of a (B, T, d) batch, pools to the oracle's bits."""
        cfg = small_config(heads=n_heads)
        params = make_params(cfg, seed=33, dtype=np.float64)
        ag.rescale_for_grad_check(params, np.random.default_rng(34))
        tensors = pool_tensors(params)
        hseq = np.random.default_rng(35).standard_normal((3, 6, cfg.d))
        if not batched:
            hseq = hseq[0]
        out, weights = pool(Tensor(hseq), tensors, n_heads, return_weights=True)
        for b, seq in enumerate(hseq if batched else [hseq]):
            want, want_weights = pool_oracle(seq, tensors, n_heads)
            got, got_weights = (out.data[b], weights[b]) if batched else (out.data, weights)
            assert np.array_equal(got, want)
            for got_w, want_w in zip(got_weights, want_weights, strict=True):
                assert np.array_equal(got_w, want_w)


class TestPool:
    @staticmethod
    def make_pool(d, dtype=np.float64):
        """A plain final norm, a query of ones, and identity products with zero biases."""
        eye = lambda: Tensor(np.eye(d, dtype=dtype))
        zero = lambda: Tensor(np.zeros(d, dtype=dtype))
        return [Tensor(np.ones(d, dtype=dtype)), zero(), Tensor(np.ones(d, dtype=dtype)), eye(), eye(), zero(), eye(),
                zero()]

    def test_single_row(self):
        """One row pools to its layer norm: the final norm comes first, and a single key gets all the weight."""
        row = np.array([0.1, 0.2, -0.3, 0.4])
        out = pool(Tensor(row[None, :]), self.make_pool(4), n_heads=2).data
        assert np.allclose(out, norm(row), atol=1e-7)

    def test_identical_rows_collapse_to_single(self):
        tensors = self.make_pool(4)
        row = np.random.default_rng(10).standard_normal(4)
        single = pool(Tensor(row[None, :]), tensors, n_heads=2).data
        many = pool(Tensor(np.tile(row, (6, 1))), tensors, n_heads=2).data
        assert np.allclose(many, single, atol=1e-7)

    def test_equal_keys_average_values(self):
        d = 3
        tensors = self.make_pool(d)
        tensors[3] = Tensor(np.zeros((d, d)))  # wk
        rows = np.array([[2.0, 0.0, 1.0], [0.0, 4.0, 1.0]])
        out = pool(Tensor(rows), tensors, n_heads=1).data
        assert np.allclose(out, norm(rows).mean(axis=0), atol=1e-7)

    def test_empty_sequence_rejected(self):
        with pytest.raises((ContractError, ag.ShapeError, ValueError)):
            pool(Tensor(np.zeros((0, 2))), self.make_pool(2), n_heads=1)


class TestStacks:
    def test_encoder_output_shapes(self):
        cfg = small_config()
        params = make_params(cfg)
        for l in (1, 3, cfg.max_seq_len):
            tokens = np.arange(l) % cfg.vocab_size
            hidden = tf.encode_stack(tokens, params, cfg)
            assert hidden.shape == (l, cfg.d)

    def test_decoder_returns_logits(self):
        cfg = small_config()
        params = make_params(cfg)
        logits = decode(params, cfg, np.array([1, 2, 3]))
        assert logits.shape == (3, cfg.vocab_size)

    def test_token_range_checked(self):
        cfg = small_config()
        params = make_params(cfg)
        with pytest.raises(IndexError):
            tf.encode_stack(np.array([cfg.vocab_size]), params, cfg)

    def test_too_long_rejected(self):
        """Both stacks give the token check's message; a full-prefix decode's cache is capped to reach it."""
        cfg = small_config()
        params = make_params(cfg)
        too_long = np.zeros(cfg.max_seq_len + 1, dtype=int)
        message = f"^sequence of {cfg.max_seq_len + 1} tokens exceeds max_seq_len {cfg.max_seq_len}$"
        with pytest.raises(ContractError, match=message):
            tf.encode_stack(too_long, params, cfg)
        with pytest.raises(ContractError, match=message):
            StoryVAE(cfg, params).decode_logits(too_long, None)
        with pytest.raises(ContractError, match="^tokens must be a nonempty"):
            StoryVAE(cfg, params).decode_logits([], None)

    def test_unknown_mode_rejected(self):
        cfg = small_config()
        params = make_params(cfg)
        z = lt.LatentCode.external(np.zeros(cfg.latent_dim))
        with pytest.raises(ContractError):
            decode(params, cfg, np.array([1]), z, ("teleport",))

    def test_modes_require_latent(self):
        cfg = small_config()
        params = make_params(cfg)
        with pytest.raises(ContractError):
            decode(params, cfg, np.array([1]), None, ("input",))

    @pytest.mark.parametrize("route", tf.INJECTION_MODES)
    def test_route_the_model_lacks_rejected(self, route):
        """Decoding through a route the model was built without is a contract error, not a missing parameter."""
        others = tuple(m for m in tf.INJECTION_MODES if m != route)
        model = StoryVAE(small_config(injection_modes=others), make_params(small_config(injection_modes=others)))
        z = lt.LatentCode.external(np.ones(model.config.latent_dim))
        model.decode_logits([1, 2], z, modes=others)
        for modes in [(route,), (others[0], route)]:
            with pytest.raises(ContractError, match="not all among the model's"):
                model.decode_logits([1, 2], z, modes=modes)
            with pytest.raises(ContractError):
                model.decoder_cache(z, modes)

    def test_causality_suffix_edits(self):
        cfg = small_config()
        params = make_params(cfg, seed=13)
        rng = np.random.default_rng(14)
        tokens = rng.integers(0, cfg.vocab_size, size=7)
        logits = decode(params, cfg, tokens)
        for t in (0, 3, 5):
            edited = tokens.copy()
            edited[t + 1:] = rng.integers(0, cfg.vocab_size, size=6 - t)
            logits2 = decode(params, cfg, edited)
            assert np.array_equal(logits.data[: t + 1], logits2.data[: t + 1])

    def test_encoder_is_bidirectional(self):
        cfg = small_config()
        params = make_params(cfg, seed=15)
        tensors = pool_tensors(params)
        rng = np.random.default_rng(16)
        tokens = rng.integers(0, cfg.vocab_size, size=6)
        pooled = pool(tf.encode_stack(tokens, params, cfg), tensors, cfg.heads).data
        for t in range(6):
            edited = tokens.copy()
            edited[t] = (edited[t] + 1) % cfg.vocab_size
            pooled2 = pool(tf.encode_stack(edited, params, cfg), tensors, cfg.heads).data
            assert not np.allclose(pooled, pooled2)

    def test_zero_latent_zero_projections_is_identity(self):
        cfg = small_config()
        params = make_params(cfg, seed=17)
        for name in params.names():
            if name.startswith("inject.") or ".psa." in name:
                params[name].data[...] = 0.0
        tokens = np.array([1, 5, 9, 2])
        base = decode(params, cfg, tokens)
        z = lt.LatentCode.external(np.zeros(cfg.latent_dim, dtype=np.float32))
        for mode in tf.INJECTION_MODES:
            injected = decode(params, cfg, tokens, z, (mode,))
            assert np.array_equal(base.data, injected.data), mode
        all_modes = decode(params, cfg, tokens, z, tf.INJECTION_MODES)
        assert np.array_equal(base.data, all_modes.data)

    def test_each_mode_changes_logits(self):
        cfg = small_config()
        params = make_params(cfg, seed=18)
        tokens = np.array([3, 1, 4])
        base = decode(params, cfg, tokens)
        rng = np.random.default_rng(19)
        z = lt.LatentCode.external(rng.standard_normal(cfg.latent_dim).astype(np.float32))
        for mode in tf.INJECTION_MODES:
            injected = decode(params, cfg, tokens, z, (mode,))
            assert np.abs(injected.data - base.data).max() > 1e-6, mode

    def test_embeddings_shared_between_stacks(self):
        cfg = small_config()
        params = make_params(cfg, seed=20)
        tokens = np.array([2, 3])
        enc_before = tf.encode_stack(tokens, params, cfg).data.copy()
        dec_before = decode(params, cfg, tokens)
        params["embed.word"].data[2, 0] += 1.0  # one coordinate; a constant row shift is norm-invariant
        enc_after = tf.encode_stack(tokens, params, cfg).data
        dec_after = decode(params, cfg, tokens)
        assert not np.allclose(enc_before, enc_after)
        assert not np.allclose(dec_before.data, dec_after.data)

    def test_encoder_layers_start_as_decoder_copies(self):
        cfg = small_config()
        params = make_params(cfg, seed=21)
        assert np.array_equal(params["enc.0.attn.wq"].data, params["dec.0.attn.wq"].data)
        assert params["enc.0.attn.wq"] is not params["dec.0.attn.wq"]
        # training one must not move the other
        params["enc.0.attn.wq"].data += 0.5
        assert not np.array_equal(params["enc.0.attn.wq"].data, params["dec.0.attn.wq"].data)

    def test_psa_params_only_when_configured(self):
        cfg = small_config(injection_modes=("input",))
        params = make_params(cfg)
        assert "dec.0.psa.wk" not in params
        assert "inject.psa.w" not in params
        cfg2 = small_config(injection_modes=("psa",))
        params2 = make_params(cfg2)
        assert "dec.0.psa.wk" in params2


class TestCachedDecoding:
    """Incremental decoding through a ``DecoderCache`` against the full-prefix forward.

    A prompt of 5 tokens is prefilled, then 135 more go in one at a time;
    each cached step's last logit row must match the same row of one
    full-prefix ``decode_logits`` over all 140 tokens, within 1e-12 x
    max|logit| in float64 and 1e-4 x max|logit| in float32.  The two are
    not bit-identical: BLAS sums a one-row product and a many-row product
    in different orders.  Weights are redrawn at unit scale so every
    layer, latent route and position matters to the logits.
    """

    RTOL = {np.float32: 1e-4, np.float64: 1e-12}
    PROMPT, LENGTH = 5, 140

    def model(self, modes, dtype):
        cfg = ModelConfig(d=16, layers=2, encoder_layers=1, heads=2, latent_dim=8,
                          vocab_size=40, max_seq_len=self.LENGTH, injection_modes=modes)
        model = StoryVAE.create(cfg, seed=40, dtype=dtype)
        ag.rescale_for_grad_check(model.params, np.random.default_rng(41))
        return model

    def check(self, model, latent, dtype, chunk=1):
        tokens = np.random.default_rng(42).integers(0, model.config.vocab_size, size=self.LENGTH)
        full = model.decode_logits(tokens, latent).data
        cache = model.decoder_cache(latent)
        rows = [tf.decode_stack(cache, tokens[:self.PROMPT]).data]
        for i in range(self.PROMPT, self.LENGTH, chunk):
            step = tf.decode_stack(cache, tokens[i:i + chunk]).data
            assert step.shape == (min(chunk, self.LENGTH - i), model.config.vocab_size)
            rows.append(step)
        assert cache.length == self.LENGTH
        cached = np.concatenate(rows)
        assert cached.dtype == dtype
        scale = np.abs(full).max()
        assert np.abs(cached - full).max() <= self.RTOL[dtype] * scale

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("modes", [("input",), ("psa",), ("softmax",), tf.INJECTION_MODES])
    def test_matches_full_prefix(self, modes, dtype):
        model = self.model(modes, dtype)
        z = np.random.default_rng(43).standard_normal(model.config.latent_dim).astype(dtype)
        self.check(model, lt.LatentCode.external(z), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_latent_and_no_latent(self, dtype):
        model = self.model(tf.INJECTION_MODES, dtype)
        self.check(model, lt.LatentCode.external(np.zeros(model.config.latent_dim, dtype=dtype)), dtype)
        self.check(model, None, dtype)

    def test_several_new_tokens_per_call(self):
        # Rows fed together after a prefix see the whole cache and, causally, each other.
        model = self.model(tf.INJECTION_MODES, np.float64)
        z = np.random.default_rng(43).standard_normal(model.config.latent_dim)
        self.check(model, lt.LatentCode.external(z), np.float64, chunk=3)

    @pytest.mark.parametrize("batch", [(), (4,)])
    @pytest.mark.parametrize("modes", [("input",), ("psa",), tf.INJECTION_MODES])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_full_prefix_cache_holds_only_its_tokens(self, monkeypatch, dtype, modes, batch):
        """A full-prefix forward preallocates the latent row plus its T tokens, and gives the bits of a max_seq_len cache.

        Logits and every parameter gradient are compared, so the train
        step's decode, which runs this way, is covered as well.
        """
        model = self.model(modes, dtype)
        rng = np.random.default_rng(44)
        tokens = rng.integers(0, model.config.vocab_size, size=batch + (37,))
        latent = lt.LatentCode.external(rng.standard_normal(batch + (model.config.latent_dim,)), dtype)
        targets = rng.integers(0, model.config.vocab_size, size=tokens.shape)
        built, build = [], tf.DecoderCache
        monkeypatch.setattr(tf, "DecoderCache", lambda *args: built.append(build(*args)) or built[-1])

        def run(wide):
            for _, p in model.params.items():
                p.requires_grad = True
            model.params.zero_grads()
            if wide:
                logits = tf.decode_stack(model.decoder_cache(latent), tokens)
            else:
                logits = model.decode_logits(tokens, latent)
            ag.backward(ag.cross_entropy(logits, targets, np.ones(tokens.shape, dtype=bool))[0])
            for _, p in model.params.items():
                p.requires_grad = False
            return [logits.data] + [None if p.grad is None else p.grad.copy() for _, p in model.params.items()]

        full = run(False)
        assert [keys_t.shape[-1] for keys_t, _ in built[0].stacks] == [1 + 37] * model.config.layers
        wide = run(True)
        assert [keys_t.shape[-1] for keys_t, _ in built[1].stacks] == [1 + self.LENGTH] * model.config.layers
        assert all(np.array_equal(a, b) for a, b in zip(full, wide, strict=True))

    @pytest.mark.parametrize("prefill", ["untaped", "taped"])
    @pytest.mark.parametrize("modes", [("input",), ("psa",), tf.INJECTION_MODES], ids=lambda m: "+".join(m))
    def test_a_tape_spans_one_call(self, modes, prefill):
        """A taped call after a prefill raises, and leaves ``length`` as it was; an untaped one then decodes.

        The cache is built without a tape, so its latent rows are
        constants, and only the prefill may record one.
        """
        model = self.model(modes, np.float64)
        rng = np.random.default_rng(46)
        tokens = rng.integers(0, model.config.vocab_size, size=7)
        latent = lt.LatentCode.external(rng.standard_normal(model.config.latent_dim))
        full = model.decode_logits(tokens, latent).data

        def tape(on):
            for _, p in model.params.items():
                p.requires_grad = on

        cache = model.decoder_cache(latent)
        try:
            tape(prefill == "taped")
            logits = tf.decode_stack(cache, tokens[:5])
            assert logits.requires_grad == (prefill == "taped")
            tape(True)
            with pytest.raises(ContractError, match="first through its key/value rows"):
                tf.decode_stack(cache, tokens[5:6])
        finally:
            tape(False)
        assert cache.length == 5
        for i in (5, 6):
            step = tf.decode_stack(cache, tokens[i:i + 1]).data
            assert np.abs(step[-1] - full[i]).max() <= 1e-12 * np.abs(full).max()

    def test_latent_rows_are_the_first_cached_rows(self):
        """Each layer's latent key and value are row 0 of its stacks, and token t's rows are row 1 + t."""
        model = self.model(tf.INJECTION_MODES, np.float64)
        h = model.config.heads
        z = lt.LatentCode.external(np.ones(model.config.latent_dim))
        cache = model.decoder_cache(z)
        assert cache.stacks is None and all(rows is not None for rows in cache.latent_rows)
        tf.decode_stack(cache, [1, 2, 3])
        tf.decode_stack(cache, [4])
        assert cache.length == 4
        whole = model.decoder_cache(z)
        tf.decode_stack(whole, [1, 2, 3, 4])
        for (keys_t, values), (k, v), (keys_all, values_all) in zip(cache.stacks, cache.latent_rows, whole.stacks,
                                                                     strict=True):
            assert np.array_equal(keys_t[..., 0], k.data.reshape(h, -1))
            assert np.array_equal(values[..., 0, :], v.data.reshape(h, -1))
            assert np.allclose(keys_t[..., :5], keys_all[..., :5], rtol=1e-12, atol=0.0)
            assert np.allclose(values[..., :5, :], values_all[..., :5, :], rtol=1e-12, atol=0.0)
        assert model.decoder_cache(None).latent_rows == [None, None]

    def test_contract(self):
        model = self.model(tf.INJECTION_MODES, np.float64)
        z = lt.LatentCode.external(np.ones(model.config.latent_dim))
        cache = model.decoder_cache(z)
        tf.decode_stack(cache, np.zeros(self.LENGTH - 1, dtype=int))
        with pytest.raises(ContractError):  # past max_seq_len
            tf.decode_stack(cache, [1, 2])
        tf.decode_stack(cache, [1])
        assert cache.length == self.LENGTH

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("modes", [("input",), ("psa",), tf.INJECTION_MODES, ()], ids=lambda m: "+".join(m) or "none")
    def test_decode_steps_look_up_no_block_tensors(self, monkeypatch, modes, dtype):
        """A cache looks up each decoder block's tensors when it is built; a step through it looks up no parameter.

        The word and position tables and the final norm come from the cache too.
        """
        cfg = ModelConfig(injection_modes=modes)  # the CLI default config, but for the routes
        params = make_params(cfg, dtype=dtype)
        calls, lookup = [], tf.attention_params
        monkeypatch.setattr(tf, "attention_params", lambda params, prefix: calls.append(prefix) or lookup(params, prefix))

        def refuse(self, name):
            raise AssertionError(f"a cached step looked up {name}")

        rng = np.random.default_rng(45)
        for batch in [(), (4,)]:
            latent = lt.LatentCode.external(rng.standard_normal(batch + (cfg.latent_dim,)), dtype)
            cache = tf.DecoderCache(params, cfg, latent, modes)
            assert calls[-cfg.layers:] == [f"dec.{i}" for i in range(cfg.layers)]
            with monkeypatch.context() as patch:
                patch.setattr(ag.ParameterSet, "__getitem__", refuse)
                for _ in range(10):
                    tokens = rng.integers(0, cfg.vocab_size, size=batch + (1,))
                    tf.decode_stack(cache, tokens)
            assert cache.length == 10

    @pytest.mark.parametrize("poisoned, raiser", [("dec.1.attn.wq", "attention_sublayer"),
                                                  ("dec.final_norm.g", "tied_head")], ids=["layer_1", "head"])
    @pytest.mark.parametrize("batch", [(), (4,)], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("modes", [("input",), ("psa",), tf.INJECTION_MODES], ids=lambda m: "+".join(m))
    def test_a_failed_call_leaves_the_cache_usable(self, modes, batch, poisoned, raiser):
        """A call that raises in layer 1 or in the head, after layer 0 wrote its rows, leaves ``length`` as it was.

        The next calls write the same rows again, and give the logits of a
        cache that never saw the failure.
        """
        model = self.model(modes, np.float64)
        rng = np.random.default_rng(47)
        tokens = rng.integers(0, model.config.vocab_size, size=batch + (6,))
        z = lt.LatentCode.external(rng.standard_normal(batch + (model.config.latent_dim,)))
        clean, failed = model.decoder_cache(z), model.decoder_cache(z)
        for cache in (clean, failed):
            tf.decode_stack(cache, tokens[..., :2])
        weight = model.params[poisoned].data
        keep = weight.flat[0]
        weight.flat[0] = np.nan
        with pytest.raises(ag.NumericsError, match=raiser), np.errstate(all="ignore"):
            tf.decode_stack(failed, tokens[..., 2:5])
        weight.flat[0] = keep
        assert failed.length == 2
        for lo, hi in [(2, 3), (3, 6)]:
            want = tf.decode_stack(clean, tokens[..., lo:hi]).data
            assert np.array_equal(tf.decode_stack(failed, tokens[..., lo:hi]).data, want)
        assert failed.length == clean.length == 6

    def test_a_cache_refuses_a_call_past_its_positions(self):
        """A cache of p positions refuses a call that would reach position p + 1, and its ``length`` does not move."""
        model = self.model(tf.INJECTION_MODES, np.float64)
        z = lt.LatentCode.external(np.ones(model.config.latent_dim))
        cache = model.decoder_cache(z, positions=4)
        with pytest.raises(ContractError, match="5 positions exceed the 4 the decoder cache holds"):
            tf.decode_stack(cache, [1, 2, 3, 4, 5])
        assert cache.length == 0
        tf.decode_stack(cache, [1, 2, 3])
        with pytest.raises(ContractError, match="5 positions exceed the 4"):
            tf.decode_stack(cache, [4, 5])
        assert cache.length == 3
        tf.decode_stack(cache, [4])
        with pytest.raises(ContractError, match="5 positions exceed the 4"):
            tf.decode_stack(cache, [5])
        assert cache.length == 4

    @pytest.mark.parametrize("positions", [-5, 0, LENGTH + 1, 10**30])
    @pytest.mark.parametrize("modes", [(), ("psa",)], ids=["none", "psa"])
    def test_positions_outside_the_length_limit_are_refused(self, modes, positions):
        model = self.model(tf.INJECTION_MODES, np.float64)
        z = lt.LatentCode.external(np.ones(model.config.latent_dim)) if modes else None
        with pytest.raises(ContractError, match=f"holds 1 to max_seq_len {self.LENGTH} positions, got {positions}$"):
            model.decoder_cache(z, modes, positions=positions)
        for positions in (1, self.LENGTH):
            assert model.decoder_cache(z, modes, positions=positions).positions == positions


class TestBlockLookups:
    """Each stack's block tensors are looked up once per parameter set, and never served from another set."""

    def test_a_stack_looks_up_its_blocks_once_per_set(self, monkeypatch):
        cfg = small_config()
        params = make_params(cfg)
        calls, lookup = [], tf.attention_params
        monkeypatch.setattr(tf, "attention_params", lambda params, prefix: calls.append(prefix) or lookup(params, prefix))
        z = lt.LatentCode.external(np.ones(cfg.latent_dim, dtype=np.float32))
        for _ in range(3):
            tf.encode_stack([1, 2], params, cfg)
            tf.DecoderCache(params, cfg, z, cfg.injection_modes)
        assert calls == ["enc.0", "dec.0", "dec.1"]
        tf.encode_stack([1, 2], params.astype(np.float32), cfg)  # a new set looks its blocks up afresh
        assert calls[-1] == "enc.0" and len(calls) == 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forwards_read_the_current_tensors_of_an_astype_copy_and_a_wider_set(self, dtype):
        """On an ``astype`` copy and on a set with more tensors, forwards give the bits of a set built from its arrays."""
        cfg = small_config(injection_modes=("input", "softmax"))
        params = make_params(cfg, seed=3)
        tokens = np.array([3, 1, 4, 1, 5])
        z = lt.LatentCode.external(np.random.default_rng(4).standard_normal(cfg.latent_dim), dtype)

        def forward(p):
            hidden = tf.encode_stack(tokens, p, cfg).data
            return hidden, decode(p, cfg, tokens, z, cfg.injection_modes).data

        def fresh(p):
            return ParameterSet([(n, t.data.copy()) for n, t in p.items()], dtype=dtype)

        copy = params.astype(dtype)
        forward(params)
        assert all(np.array_equal(a, b) for a, b in zip(forward(copy), forward(fresh(copy)), strict=True))
        # A set with new tensors after the copy's: the psa projections the model lacked until now.
        wide = small_config(injection_modes=tf.INJECTION_MODES)
        drawn = tf.init_parameters(wide, np.random.default_rng(5), dtype=dtype)
        added = [(n, drawn[n].data) for n in drawn.names() if ".psa." in n or n == "inject.psa.w"]
        copy = ParameterSet([*((n, t.data) for n, t in copy.items()), *added])
        blocks = tf._stack_blocks(copy, "dec", cfg.layers)
        assert blocks[1].attn.psa_wv is copy["dec.1.psa.wv"] and blocks[0].attn.wq is copy["dec.0.attn.wq"]
        assert blocks[0].attn.wq.data.base is copy.data_buffer
        cfg = wide
        assert all(np.array_equal(a, b) for a, b in zip(forward(copy), forward(fresh(copy)), strict=True))
