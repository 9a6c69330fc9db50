import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import latent as lt
from storyvae import transformer as tf
from storyvae.autograd import Tensor
from storyvae.transformer import ContractError, ModelConfig


def small_config(**overrides):
    base = dict(d=8, layers=2, encoder_layers=1, heads=2, latent_dim=8,
                vocab_size=16, max_seq_len=10, injection_modes=("input", "psa", "softmax"))
    base.update(overrides)
    return ModelConfig(**base)


def make_params(cfg, seed=0, dtype=np.float32):
    return tf.init_parameters(cfg, np.random.default_rng(seed), dtype=dtype)


def identity_attention_params(d, with_psa=False, dtype=np.float64):
    """Q/K/V/O projections set to the identity so attention is directly inspectable."""
    eye = lambda: Tensor(np.eye(d, dtype=dtype))
    zero = lambda: Tensor(np.zeros(d, dtype=dtype))
    kwargs = {}
    if with_psa:
        kwargs = dict(psa_wk=eye(), psa_bk=zero(), psa_wv=eye(), psa_bv=zero())
    return tf.AttentionParams(wq=eye(), bq=zero(), wk=eye(), wv=eye(), bv=zero(),
                              wo=eye(), bo=zero(), **kwargs)


def two_way_softmax(a, b):
    m = max(a, b)
    ea, eb = np.exp(a - m), np.exp(b - m)
    return ea / (ea + eb), eb / (ea + eb)


class TestMultiHeadAttention:
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
        out1 = tf.multi_head_attention(Tensor(row), p, n_heads=2, causal=True).data
        # changing only the query projection cannot matter for one position
        p.wq = Tensor(rng.standard_normal((d, d)))
        out2 = tf.multi_head_attention(Tensor(row), p, n_heads=2, causal=True).data
        assert np.allclose(out1, row, atol=1e-6)  # identity V then identity O
        assert np.allclose(out1, out2, atol=1e-6)

    def test_causal_row_zero_equals_length_one(self):
        cfg = small_config()
        params = make_params(cfg, seed=1)
        p = tf.attention_params(params, "dec.0")
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, cfg.d)).astype(np.float32)
        full = tf.multi_head_attention(Tensor(x), p, cfg.heads, causal=True).data
        first = tf.multi_head_attention(Tensor(x[:1]), p, cfg.heads, causal=True).data
        assert np.allclose(full[0], first[0], atol=1e-6)

    def test_identical_rows_average_values(self):
        d = 4
        p = identity_attention_params(d)
        row = np.array([0.3, -0.7, 1.1, 0.2])
        x = Tensor(np.stack([row, row]))
        out = tf.multi_head_attention(x, p, n_heads=1, causal=False).data
        # equal keys -> 0.5/0.5 attention -> mean of the two (equal) value rows
        assert np.allclose(out, np.stack([row, row]), atol=1e-6)

    def test_two_distinct_values_equal_keys(self):
        d = 2
        p = identity_attention_params(d)
        p.wk = Tensor(np.zeros((d, d)))  # all keys project to zero -> equal scores
        v0, v1 = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        out = tf.multi_head_attention(Tensor(np.stack([v0, v1])), p, n_heads=1, causal=False).data
        expected = (v0 + v1) / 2
        assert np.allclose(out[0], expected, atol=1e-7)
        assert np.allclose(out[1], expected, atol=1e-7)

    def test_sequence_length_cap(self):
        p = identity_attention_params(4)
        with pytest.raises(ContractError):
            tf.multi_head_attention(Tensor(np.zeros((9, 4))), p, 2, causal=True, max_seq_len=8)


class TestPseudoSelfAttention:
    """Decoder self-attention with the per-layer latent row (``z_slice``) prefixed to keys and values."""

    def test_requires_psa_projections(self):
        p = identity_attention_params(4, with_psa=False)
        with pytest.raises(ContractError):
            tf.multi_head_attention(Tensor(np.zeros((2, 4))), p, n_heads=2, causal=True,
                                    z_slice=Tensor(np.ones((1, 4))))

    def test_wrong_width_slice_rejected(self):
        p = identity_attention_params(4, with_psa=True)
        for shape in ((4,), (1, 3), (2, 4)):
            with pytest.raises(ag.ShapeError):
                tf.multi_head_attention(Tensor(np.zeros((2, 4))), p, n_heads=2, causal=True,
                                        z_slice=Tensor(np.ones(shape)))

    def test_augmented_row_counts(self):
        # key/value matrices gain exactly one latent row; output keeps l rows
        p = identity_attention_params(4, with_psa=True)
        x = Tensor(np.random.default_rng(3).standard_normal((5, 4)))
        out, weights = tf.multi_head_attention(
            x, p, n_heads=2, causal=True, z_slice=Tensor(np.ones((1, 4))), return_weights=True
        )
        assert out.shape == (5, 4)
        for w in weights:
            assert w.shape == (5, 1 + 5)

    def test_equal_value_rows_make_latent_invisible(self):
        d = 2
        p = identity_attention_params(d, with_psa=True)
        row = np.array([0.4, -0.9])
        out_plain = tf.multi_head_attention(Tensor(np.stack([row, row, row])), p, 1, causal=False).data
        # latent projects to the same value row as every token
        out_psa = tf.multi_head_attention(
            Tensor(np.stack([row, row, row])), p, 1, causal=False, z_slice=Tensor(row[None, :])
        ).data
        assert np.allclose(out_psa, out_plain, atol=1e-6)

    def test_two_way_mean_with_equal_scores(self):
        d = 2
        p = identity_attention_params(d, with_psa=True)
        p.wq = Tensor(np.zeros((d, d)))  # zero queries -> all scores equal
        token = np.array([1.0, 1.0])
        z = np.array([3.0, -1.0])
        out = tf.multi_head_attention(Tensor(token[None, :]), p, 1, causal=True, z_slice=Tensor(z[None, :])).data
        w_lat, w_tok = two_way_softmax(0.0, 0.0)
        assert np.allclose(out[0], w_lat * z + w_tok * token, atol=1e-7)

    def test_suppressed_latent_recovers_plain_attention(self):
        cfg = small_config()
        params = make_params(cfg, seed=4)
        p = tf.attention_params(params, "dec.1")
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, cfg.d)).astype(np.float32)
        z = rng.standard_normal((1, cfg.d)).astype(np.float32)
        plain = tf.multi_head_attention(Tensor(x), p, cfg.heads, causal=True).data
        masked, weights = tf.multi_head_attention(
            Tensor(x), p, cfg.heads, causal=True, z_slice=Tensor(z),
            suppress_latent=True, return_weights=True,
        )
        assert np.array_equal(masked.data, plain)
        for w in weights:
            assert np.all(w[:, 0] == 0.0)

    def test_causal_mask_never_blocks_latent_row(self):
        cfg = small_config()
        params = make_params(cfg, seed=6)
        p = tf.attention_params(params, "dec.0")
        x = np.random.default_rng(7).standard_normal((3, cfg.d)).astype(np.float32)
        _, weights = tf.multi_head_attention(
            Tensor(x), p, cfg.heads, causal=True,
            z_slice=Tensor(np.ones((1, cfg.d), dtype=np.float32)), return_weights=True,
        )
        for w in weights:
            assert np.all(w[:, 0] > 0.0)

    def test_exactly_zero_slice_injects_nothing(self):
        cfg = small_config()
        params = make_params(cfg, seed=8)
        p = tf.attention_params(params, "dec.0")
        x = np.random.default_rng(9).standard_normal((4, cfg.d)).astype(np.float32)
        plain = tf.multi_head_attention(Tensor(x), p, cfg.heads, causal=True).data
        gated = tf.multi_head_attention(
            Tensor(x), p, cfg.heads, causal=True, z_slice=Tensor(np.zeros((1, cfg.d), dtype=np.float32))
        ).data
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


def attention_oracle(x, p, n_heads, causal, z=None, suppress_latent=False):
    q = x @ p.wq.data + p.bq.data
    k = x @ p.wk.data
    v = x @ p.wv.data + p.bv.data
    n_prefix = 0
    if z is not None:
        k = np.concatenate([z @ p.psa_wk.data + p.psa_bk.data, k])
        v = np.concatenate([z @ p.psa_wv.data + p.psa_bv.data, v])
        n_prefix = 1
    l = x.shape[0]
    mask = None
    if causal or (n_prefix and suppress_latent):
        mask = np.ones((l, l + n_prefix), dtype=bool)
        if causal:
            mask[:, n_prefix:] = np.arange(l)[None, :] <= np.arange(l)[:, None]
        if suppress_latent:
            mask[:, :n_prefix] = False
    out, weights = heads_oracle(q, k, v, n_heads, mask)
    return out @ p.wo.data + p.bo.data, weights


def pool_oracle(hseq, p, n_heads, valid=None):
    k = hseq @ p.wk.data
    v = hseq @ p.wv.data + p.bv.data
    mask = None if valid is None else valid[None, :]
    out, weights = heads_oracle(p.q.data[None, :], k, v, n_heads, mask)
    return (out @ p.wo.data + p.bo.data).reshape(-1), weights


class TestFusedHeadsMatchPerHeadLoop:
    """All heads run as one (H, T, d/H) product; every bit must match the one-head-at-a-time loop."""

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("latent", ["none", "row", "suppressed"])
    def test_multi_head_attention(self, n_heads, causal, latent):
        cfg = small_config(heads=n_heads)
        params = make_params(cfg, seed=30, dtype=np.float64)
        ag.rescale_for_grad_check(params, np.random.default_rng(31))
        p = tf.attention_params(params, "dec.0")
        rng = np.random.default_rng(32)
        x = rng.standard_normal((5, cfg.d))
        z = None if latent == "none" else rng.standard_normal((1, cfg.d))
        suppress = latent == "suppressed"
        out, weights = tf.multi_head_attention(
            Tensor(x), p, n_heads, causal, z_slice=None if z is None else Tensor(z),
            suppress_latent=suppress, return_weights=True,
        )
        want, want_weights = attention_oracle(x, p, n_heads, causal, z, suppress)
        assert np.array_equal(out.data, want)
        assert len(weights) == n_heads
        for got_w, want_w in zip(weights, want_weights):
            assert np.array_equal(got_w, want_w)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_average(self, n_heads, masked):
        cfg = small_config(heads=n_heads)
        params = make_params(cfg, seed=33, dtype=np.float64)
        ag.rescale_for_grad_check(params, np.random.default_rng(34))
        pool = tf.pooling_params(params)
        hseq = np.random.default_rng(35).standard_normal((6, cfg.d))
        valid = np.array([True, False, True, True, False, True]) if masked else None
        out, weights = tf.attention_average(Tensor(hseq), pool, n_heads, valid=valid, return_weights=True)
        want, want_weights = pool_oracle(hseq, pool, n_heads, valid)
        assert np.array_equal(out.data, want)
        for got_w, want_w in zip(weights, want_weights):
            assert np.array_equal(got_w, want_w)


class TestAttentionAverage:
    def make_pool(self, d, dtype=np.float64):
        eye = Tensor(np.eye(d, dtype=dtype))
        zero = Tensor(np.zeros(d, dtype=dtype))
        return tf.PoolingParams(q=Tensor(np.ones(d, dtype=dtype)), wk=eye,
                                wv=Tensor(np.eye(d, dtype=dtype)), bv=zero,
                                wo=Tensor(np.eye(d, dtype=dtype)), bo=zero)

    def test_single_row(self):
        d = 4
        pool = self.make_pool(d)
        row = np.array([0.1, 0.2, -0.3, 0.4])
        out = tf.attention_average(Tensor(row[None, :]), pool, n_heads=2).data
        assert np.allclose(out, row, atol=1e-7)

    def test_identical_rows_collapse_to_single(self):
        d = 4
        pool = self.make_pool(d)
        row = np.random.default_rng(10).standard_normal(d)
        single = tf.attention_average(Tensor(row[None, :]), pool, n_heads=2).data
        many = tf.attention_average(Tensor(np.tile(row, (6, 1))), pool, n_heads=2).data
        assert np.allclose(many, single, atol=1e-7)

    def test_equal_keys_average_values(self):
        d = 2
        pool = self.make_pool(d)
        pool.wk = Tensor(np.zeros((d, d)))
        rows = np.array([[2.0, 0.0], [0.0, 4.0]])
        out = tf.attention_average(Tensor(rows), pool, n_heads=1).data
        assert np.allclose(out, [1.0, 2.0], atol=1e-7)

    def test_empty_sequence_rejected(self):
        pool = self.make_pool(2)
        with pytest.raises((ContractError, ag.ShapeError, ValueError)):
            tf.attention_average(Tensor(np.zeros((0, 2))), pool, n_heads=1)

    def test_masked_padding_matches_removal(self):
        cfg = small_config()
        params = make_params(cfg, seed=11)
        pool = tf.pooling_params(params)
        rng = np.random.default_rng(12)
        real = rng.standard_normal((3, cfg.d)).astype(np.float32)
        padded = np.vstack([real, rng.standard_normal((2, cfg.d)).astype(np.float32)])
        valid = np.array([True, True, True, False, False])
        a = tf.attention_average(Tensor(real), pool, cfg.heads).data
        b = tf.attention_average(Tensor(padded), pool, cfg.heads, valid=valid).data
        assert np.allclose(a, b, atol=1e-6)


class TestStackForward:
    def test_encoder_output_shapes(self):
        cfg = small_config()
        params = make_params(cfg)
        for l in (1, 3, cfg.max_seq_len):
            tokens = np.arange(l) % cfg.vocab_size
            hidden = tf.stack_forward(tokens, params, cfg, role="encoder")
            assert hidden.shape == (l, cfg.d)

    def test_decoder_returns_logits(self):
        cfg = small_config()
        params = make_params(cfg)
        hidden, logits = tf.stack_forward(np.array([1, 2, 3]), params, cfg, role="decoder")
        assert hidden.shape == (3, cfg.d)
        assert logits.shape == (3, cfg.vocab_size)

    def test_token_range_checked(self):
        cfg = small_config()
        params = make_params(cfg)
        with pytest.raises(IndexError):
            tf.stack_forward(np.array([cfg.vocab_size]), params, cfg, role="encoder")

    def test_too_long_rejected(self):
        cfg = small_config()
        params = make_params(cfg)
        with pytest.raises(ContractError):
            tf.stack_forward(np.zeros(cfg.max_seq_len + 1, dtype=int), params, cfg, role="encoder")

    def test_unknown_mode_rejected(self):
        cfg = small_config()
        params = make_params(cfg)
        z = lt.LatentCode.external(np.zeros(cfg.latent_dim))
        with pytest.raises(ContractError):
            tf.stack_forward(np.array([1]), params, cfg, role="decoder", latent=z, modes=("teleport",))

    def test_modes_require_latent(self):
        cfg = small_config()
        params = make_params(cfg)
        with pytest.raises(ContractError):
            tf.stack_forward(np.array([1]), params, cfg, role="decoder", latent=None, modes=("input",))

    def test_causality_suffix_edits(self):
        cfg = small_config()
        params = make_params(cfg, seed=13)
        rng = np.random.default_rng(14)
        tokens = rng.integers(0, cfg.vocab_size, size=7)
        _, logits = tf.stack_forward(tokens, params, cfg, role="decoder")
        for t in (0, 3, 5):
            edited = tokens.copy()
            edited[t + 1:] = rng.integers(0, cfg.vocab_size, size=6 - t)
            _, logits2 = tf.stack_forward(edited, params, cfg, role="decoder")
            assert np.array_equal(logits.data[: t + 1], logits2.data[: t + 1])

    def test_encoder_is_bidirectional(self):
        cfg = small_config()
        params = make_params(cfg, seed=15)
        pool = tf.pooling_params(params)
        rng = np.random.default_rng(16)
        tokens = rng.integers(0, cfg.vocab_size, size=6)
        pooled = tf.attention_average(tf.stack_forward(tokens, params, cfg, role="encoder"), pool, cfg.heads).data
        for t in range(6):
            edited = tokens.copy()
            edited[t] = (edited[t] + 1) % cfg.vocab_size
            pooled2 = tf.attention_average(tf.stack_forward(edited, params, cfg, role="encoder"), pool, cfg.heads).data
            assert not np.allclose(pooled, pooled2)

    def test_zero_latent_zero_projections_is_identity(self):
        cfg = small_config()
        params = make_params(cfg, seed=17)
        for name in params.names():
            if name.startswith("inject.") or ".psa." in name:
                params[name].data[...] = 0.0
        tokens = np.array([1, 5, 9, 2])
        _, base = tf.stack_forward(tokens, params, cfg, role="decoder")
        z = lt.LatentCode.external(np.zeros(cfg.latent_dim, dtype=np.float32))
        for mode in tf.INJECTION_MODES:
            _, injected = tf.stack_forward(tokens, params, cfg, role="decoder", latent=z, modes=(mode,))
            assert np.array_equal(base.data, injected.data), mode
        _, all_modes = tf.stack_forward(tokens, params, cfg, role="decoder", latent=z, modes=tf.INJECTION_MODES)
        assert np.array_equal(base.data, all_modes.data)

    def test_each_mode_changes_logits(self):
        cfg = small_config()
        params = make_params(cfg, seed=18)
        tokens = np.array([3, 1, 4])
        _, base = tf.stack_forward(tokens, params, cfg, role="decoder")
        rng = np.random.default_rng(19)
        z = lt.LatentCode.external(rng.standard_normal(cfg.latent_dim).astype(np.float32))
        for mode in tf.INJECTION_MODES:
            _, injected = tf.stack_forward(tokens, params, cfg, role="decoder", latent=z, modes=(mode,))
            assert np.abs(injected.data - base.data).max() > 1e-6, mode

    def test_embeddings_shared_between_stacks(self):
        cfg = small_config()
        params = make_params(cfg, seed=20)
        tokens = np.array([2, 3])
        enc_before = tf.stack_forward(tokens, params, cfg, role="encoder").data.copy()
        _, dec_before = tf.stack_forward(tokens, params, cfg, role="decoder")
        params["embed.word"].data[2, 0] += 1.0  # one coordinate; a constant row shift is norm-invariant
        enc_after = tf.stack_forward(tokens, params, cfg, role="encoder").data
        _, dec_after = tf.stack_forward(tokens, params, cfg, role="decoder")
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


@pytest.mark.slow
def test_stack_gradients_match_finite_differences():
    cfg = ModelConfig(d=4, layers=1, encoder_layers=1, heads=2, latent_dim=4,
                      vocab_size=8, max_seq_len=6, injection_modes=("input", "psa", "softmax"))
    params = tf.init_parameters(cfg, np.random.default_rng(22), dtype=np.float64)
    ag.rescale_for_grad_check(params, np.random.default_rng(23))
    tokens = np.array([1, 5, 2])
    z = lt.LatentCode.external(np.random.default_rng(24).standard_normal(cfg.latent_dim))

    def fn():
        _, logits = tf.stack_forward(tokens, params, cfg, role="decoder", latent=z,
                                     modes=tf.INJECTION_MODES)
        total, _ = ag.cross_entropy(logits, np.array([5, 2, 7]), np.array([True, True, True]))
        return total

    report = ag.grad_check(fn, params, eps=1e-5)
    assert report.passed, f"max rel {report.max_rel_error:.2e} at {report.worst_parameter}"
