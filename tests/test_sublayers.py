"""The fused ops of a stack against the chains of ops they replace.

``ag.mlp_sublayer``, ``ag.attention_sublayer``, ``ag.embedding`` and
``ag.tied_head`` must
give the chain's bits: the output, the attention weights and every
gradient, and a ``NumericsError`` in every case where the chain raised,
naming the step that raised.  The chains live in ``chain_ops``, and
only there, as the oracle.  ``TestStacksGiveTheChainsBits`` swaps every
fused op of the model for its chain at once, the latent side's too.
"""

import gc

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import corpus as cp
from storyvae import latent as lt
from storyvae import transformer as tf
from storyvae.autograd import Tensor
from storyvae.model import StoryVAE
from storyvae.selfcheck import inner
from storyvae.training import Trainer, TrainingSchedule
from storyvae.transformer import ContractError, ModelConfig

from chain_ops import attention_chain, linear, chains, embedding_chain, error_of, head_chain, leaf, mlp_chain, same


MLP_NAMES = ("ln_g", "ln_b", "w1", "b1", "w2", "b2")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("frozen", [(), ("ln_g", "ln_b", "w1"), ("x", "ln_g", "ln_b", "w1", "b1")],
                         ids=["all", "w1_frozen", "only_w2"])
def test_mlp_sublayer_gives_the_chains_bits(dtype, lead, frozen):
    d, m = 8, 32

    def run(op):
        rng = np.random.default_rng(1)
        x = leaf(rng, lead + (5, d), dtype, grad="x" not in frozen)
        params = [leaf(rng, shape, dtype, 0.5, grad=name not in frozen)
                  for name, shape in zip(MLP_NAMES, [(d,), (d,), (d, m), (m,), (m, d), (d,)])]
        out = op(x, *params)
        weight = Tensor(rng.standard_normal(out.data.size), dtype=dtype)
        ag.backward(inner(out, weight))
        return [out.data] + [t.grad for t in [x, *params]]

    fused, chain = run(ag.mlp_sublayer), run(mlp_chain)
    assert all(same(a, b) for a, b in zip(fused, chain, strict=True))
    assert sum(g is not None for g in fused[1:]) == 7 - len(frozen)


ATTENTION_NAMES = ("ln_g", "ln_b", "wq", "bq", "wk", "wv", "bv", "wo", "bo", "psa_wk", "psa_bk", "psa_wv", "psa_bv")
UNTAPED = ATTENTION_NAMES + ("x", "z")


def sublayer_tensors(p):
    """The tensors of ``p`` that ``ag.attention_sublayer`` takes, in its order."""
    return [getattr(p, n) for n in ATTENTION_NAMES[:9]]


def attention_case(dtype, lead, latent, frozen=()):
    """Random attention tensors (d=8, 2 heads), stacks with room for 8 rows after an optional latent row, and rows.

    The tensors named in ``frozen`` (``x`` for the rows, ``z`` for the
    latent) need no gradient.  Returns the tensors, the latent, the latent
    rows while they are on the tape (else None), the stacks and three
    sets of rows.
    """
    rng = np.random.default_rng(2)
    d = 8
    shapes = [(d,), (d,), (d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,), (d, d), (d,), (d, d), (d,)]
    p = tf.AttentionParams(**{n: leaf(rng, s, dtype, 0.6, grad=n not in frozen) for n, s in zip(ATTENTION_NAMES, shapes)})
    z = leaf(rng, lead + (1, d), dtype, grad="z" not in frozen) if latent else None
    rows = None if z is None else (linear(z, p.psa_wk, p.psa_bk), linear(z, p.psa_wv, p.psa_bv))
    xs = [leaf(rng, lead + (l, d), dtype, grad="x" not in frozen) for l in (3, 1, 2)]
    stacks = tf.kv_stacks(xs[0], 2, 1 + 8 if latent else 8, rows)
    taped = rows if rows is not None and (rows[0].requires_grad or rows[1].requires_grad) else None
    return p, z, taped, stacks, xs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("mask", ["causal", "none", "key_mask"])
@pytest.mark.parametrize("latent", [False, True], ids=["no_latent", "latent"])
@pytest.mark.parametrize("calls", [1, 3])
def test_attention_sublayer_gives_the_chains_bits(dtype, lead, mask, latent, calls):
    """Output, weights and, over one call, every gradient; 3 calls through one pair of stacks run without a tape.

    A tape spans one call, so later calls, which attend over earlier rows
    too, compare their outputs and weights only.
    """

    def run(op):
        p, z, rows, stacks, xs = attention_case(dtype, lead, latent, () if calls == 1 else UNTAPED)
        rng = np.random.default_rng(3)
        seen, filled = [], int(latent)
        for x in xs[:calls]:
            l = x.shape[-2]
            key_mask = tf.causal_mask(l, filled) if mask == "causal" else None
            if mask == "key_mask":  # batch entry b hides its last 1 + b % 2 keys from every query
                keys = filled + l
                hide = np.arange(keys) >= keys - 1 - np.arange(lead[0] if lead else 1)[:, None, None, None] % 2
                key_mask = ~hide if lead else ~hide[0, 0, 0]
            out, weights = op(x, *sublayer_tensors(p), *stacks, filled, rows, key_mask, return_weights=True)
            seen += [out.data, *weights]
            filled += l
        if calls > 1:
            assert not out.requires_grad
            return seen
        ag.backward(inner(out, Tensor(rng.standard_normal(out.data.size), dtype=dtype)))
        return seen + [getattr(p, n).grad for n in ATTENTION_NAMES] + [xs[0].grad, None if z is None else z.grad]

    fused, chain = run(ag.attention_sublayer), run(attention_chain)
    assert all(same(a, b) for a, b in zip(fused, chain, strict=True))


@pytest.mark.parametrize("frozen", [("x", "ln_g", "ln_b"), ("x", "ln_g", "ln_b", "wk", "wv", "bv"),
                                    ("wq", "bq", "wo", "bo")])
def test_attention_sublayer_with_frozen_tensors_gives_the_chains_bits(frozen):
    def run(op):
        p, z, rows, stacks, xs = attention_case(np.float64, (), True, frozen)
        out = op(xs[0], *sublayer_tensors(p), *stacks, 1, rows, tf.causal_mask(3, 1))
        ag.backward(inner(out, Tensor(np.linspace(-1.0, 1.0, out.data.size))))
        return [getattr(p, n).grad for n in ATTENTION_NAMES] + [xs[0].grad, z.grad]

    fused, chain = run(ag.attention_sublayer), run(attention_chain)
    assert all(same(a, b) for a, b in zip(fused, chain, strict=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("start", [0, 4])
@pytest.mark.parametrize("row", [None, "shared", "own"])
def test_embedding_gives_the_chains_bits(dtype, lead, start, row):
    """Output and every gradient, with one injection row for every sequence, one per sequence, or none.

    Word 2 sits at two positions of every sequence, so its row of the
    table sums gradients.
    """

    def run(op):
        rng = np.random.default_rng(11)
        word, pos = leaf(rng, (7, 8), dtype), leaf(rng, (12, 8), dtype)
        tokens = rng.integers(0, 7, size=lead + (5,))
        tokens[..., [0, 3]] = 2
        r = None if row is None else leaf(rng, (lead if row == "own" else ()) + (1, 8), dtype)
        out = op(word, pos, tokens, start, r)
        ag.backward(inner(out, Tensor(rng.standard_normal(out.data.size), dtype=dtype)))
        return [out.data, word.grad, pos.grad, None if r is None else r.grad]

    fused, chain = run(ag.embedding), run(embedding_chain)
    assert all(same(a, b) for a, b in zip(fused, chain, strict=True))
    assert sum(g is not None for g in fused[1:]) == (2 if row is None else 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("bias", [None, "shared", "own"])
@pytest.mark.parametrize("frozen", [(), ("word",), ("x", "ln_g", "ln_b")], ids=["all", "word_frozen", "only_word"])
def test_tied_head_gives_the_chains_bits(dtype, lead, bias, frozen):
    """Output and every gradient, with one injection bias for every sequence, one per sequence, or none."""

    def run(op):
        rng = np.random.default_rng(12)
        x = leaf(rng, lead + (5, 8), dtype, grad="x" not in frozen)
        ln_g, ln_b = (leaf(rng, (8,), dtype, 0.5, grad=n not in frozen) for n in ("ln_g", "ln_b"))
        word = leaf(rng, (7, 8), dtype, grad="word" not in frozen)
        b = None if bias is None else leaf(rng, (lead if bias == "own" else ()) + (1, 7), dtype)
        out = op(x, ln_g, ln_b, word, b)
        ag.backward(inner(out, Tensor(rng.standard_normal(out.data.size), dtype=dtype)))
        return [out.data] + [None if t is None else t.grad for t in (x, ln_g, ln_b, word, b)]

    fused, chain = run(ag.tied_head), run(head_chain)
    assert all(same(a, b) for a, b in zip(fused, chain, strict=True))
    assert sum(g is not None for g in fused[1:]) == 4 - len(frozen) + (bias is not None)


class TestStacksGiveTheChainsBits:
    """Whole forwards and backwards through the stacks, with every fused op as it is or every one a chain."""

    @staticmethod
    def train(monkeypatch, dtype, mode, modes=tf.INJECTION_MODES, freeze_steps=0):
        """Three train steps with the fused ops and with the chains: parameters, gradients, moments and metrics."""
        pairs = cp.load_corpus(cp.toy_corpus_path())[:12]
        vocab = cp.fit_vocabulary([p.prompt_text for p in pairs] + [p.story_text for p in pairs], 300)
        examples = cp.prepare_corpus(pairs, vocab, 48)
        cfg = ModelConfig(d=16, layers=2, encoder_layers=1, heads=2, latent_dim=8, vocab_size=vocab.size,
                          max_seq_len=48, injection_modes=modes)

        def run():
            model = StoryVAE.create(cfg, seed=4, dtype=dtype, mode=mode)
            schedule = TrainingSchedule(total_steps=3, cycle_length=2, batch_size=3, seed=4, freeze_steps=freeze_steps)
            trainer = Trainer(model, examples, schedule, separator_id=vocab.separator_id)
            metrics = trainer.train()
            return [model.params.data_buffer.copy(), model.params.grad_buffer.copy(), trainer.optimizer.m.copy(),
                    trainer.optimizer.v.copy()], metrics

        fused, fused_metrics = run()
        with monkeypatch.context() as patch:
            chains(patch)
            chain, chain_metrics = run()
        assert all(np.array_equal(a, b) for a, b in zip(fused, chain, strict=True))
        assert fused_metrics == chain_metrics

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["cvae", "vae"])
    def test_train_steps(self, monkeypatch, dtype, mode):
        self.train(monkeypatch, dtype, mode)

    def test_train_steps_with_frozen_blocks(self, monkeypatch):
        """Two of three steps frozen, with ``psa`` the only route.

        During the freeze layer 0's attention sublayer differentiates only
        its latent rows: its input, layer norm and products need no gradient.
        """
        self.train(monkeypatch, np.float32, "cvae", modes=("psa",), freeze_steps=2)


def test_a_train_step_leaves_no_reference_cycle():
    """Reference counting alone frees a step's tape: no tensor or closure is in a cycle."""
    pairs = cp.load_corpus(cp.toy_corpus_path())[:8]
    vocab = cp.fit_vocabulary([p.prompt_text for p in pairs] + [p.story_text for p in pairs], 280)
    cfg = ModelConfig(d=16, layers=2, encoder_layers=1, heads=2, latent_dim=8, vocab_size=vocab.size,
                      max_seq_len=48, injection_modes=tf.INJECTION_MODES)
    trainer = Trainer(StoryVAE.create(cfg, seed=6), cp.prepare_corpus(pairs, vocab, 48),
                      TrainingSchedule(total_steps=3, batch_size=2, seed=6), separator_id=vocab.separator_id)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            trainer.train_step(trainer.draw_batch())
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestMlpSublayerNumerics:
    """The output check stands in for the chain's four: a non-finite step always reaches the output."""

    def tensors(self, rng, dtype=np.float32, grad=False):
        d, m = 8, 32
        return [leaf(rng, (5, d), dtype, grad=grad)] + [
            leaf(rng, shape, dtype, 0.5, grad=grad) for shape in [(d,), (d,), (d, m), (m,), (m, d), (d,)]]

    @pytest.mark.parametrize("where, value, step", [
        (1, np.inf, "layer_norm"), (2, np.nan, "layer_norm"), (3, np.inf, "linear w1"), (4, -np.inf, "linear w1"),
        (5, np.inf, "linear w2"), (6, np.nan, "linear w2"),
    ])
    def test_a_non_finite_tensor_names_the_step(self, where, value, step):
        tensors = self.tensors(np.random.default_rng(7))
        tensors[where].data.flat[0] = value
        stage = []
        assert error_of(tensors, lambda *t: mlp_chain(*t, stage=stage)) is not None and stage == [step]
        assert error_of(tensors, ag.mlp_sublayer) == f"mlp_sublayer: {step} produced non-finite values"

    def test_a_cube_overflow_inside_a_finite_gelu_is_no_error(self):
        """A saturated unit whose cube, or in backward whose ``pre**2``, overflows stays finite, with the chain's bits."""
        tensors = self.tensors(np.random.default_rng(8))
        tensors[4].data[...] = 1e13  # pre-activations of 1e13 cube past the float32 range; tanh saturates
        assert error_of(tensors, mlp_chain) is None
        assert error_of(tensors, ag.mlp_sublayer) is None

        def run(op):
            tensors = self.tensors(np.random.default_rng(8), grad=True)
            tensors[4].data[...] = np.where(np.arange(32) % 2, 3e19, -3e19)  # past 1.9e19, pre**2 overflows too
            with np.errstate(over="ignore"):  # the forward's cube and the backward's square; no NaN arises
                out = op(*tensors)
                ag.backward(inner(out, Tensor(np.random.default_rng(9).standard_normal(out.data.size), dtype=np.float32)))
            return [out.data] + [t.grad for t in tensors]

        fused, chain = run(ag.mlp_sublayer), run(mlp_chain)
        assert all(np.isfinite(a).all() for a in fused)
        assert all(same(a, b) for a, b in zip(fused, chain, strict=True))

    def test_raises_exactly_where_the_chain_raises(self):
        """Extreme entries anywhere: the fused op raises whenever the chain does, naming the chain's step."""
        raised = set()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            tensors = self.tensors(rng)
            for _ in range(rng.integers(1, 3)):
                t = tensors[rng.integers(len(tensors))].data
                t.flat[rng.integers(t.size)] = rng.choice([1e38, -1e38, 1e20, -3e19, np.inf, -np.inf, np.nan])
            stage = []
            want = error_of(tensors, lambda *t: mlp_chain(*t, stage=stage))
            got = error_of(tensors, ag.mlp_sublayer)
            assert (got is None) == (want is None), seed
            if want is not None:
                assert got == f"mlp_sublayer: {stage[0]} produced non-finite values", seed
                raised.add(stage[0])
        assert raised == {"layer_norm", "linear w1", "linear w2"}


class TestAttentionSublayerNumerics:
    """Two checks stand in for the chain's six: the scores (every key, masked or not) and the output."""

    @staticmethod
    def run(op, x, p, latent, key_mask, stage=None):
        """The message of the ``NumericsError`` that ``op`` raises, causal unless there is a key mask, or None."""
        kwargs = {} if stage is None else {"stage": stage}
        stacks = tf.kv_stacks(x, 2, 1 + x.shape[-2], latent)
        mask = tf.causal_mask(x.shape[-2], 1) if key_mask is None else key_mask
        taped = latent if latent[0].requires_grad or latent[1].requires_grad else None
        try:
            with np.errstate(all="ignore"):
                op(x, *sublayer_tensors(p), *stacks, 1, taped, mask, **kwargs)
        except ag.NumericsError as e:
            return str(e)
        return None

    @staticmethod
    def case(rng):
        """float32 tensors for two sequences of 4 rows (d=8) after a latent key/value row each."""
        d = 8
        names = ("ln_g", "ln_b", "wq", "bq", "wk", "wv", "bv", "wo", "bo")
        shapes = [(d,), (d,), (d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)]
        p = tf.AttentionParams(**{n: leaf(rng, s, np.float32, 0.5, grad=False) for n, s in zip(names, shapes)})
        latent = tuple(leaf(rng, (2, 1, d), np.float32, grad=False) for _ in range(2))
        return p, leaf(rng, (2, 4, d), np.float32, grad=False), latent

    @pytest.mark.parametrize("row", ["wk", "wv"])
    def test_an_overflowing_row_the_mask_hides_names_its_product(self, row):
        """Only the padding row of the second sequence overflows its key (or value) product, and no query attends it."""
        p, x, latent = self.case(np.random.default_rng(9))
        x.data[...] = np.random.default_rng(10).standard_normal(x.shape)
        x.data[..., 0] = x.data[..., 1:].mean(axis=-1)  # column 0 normalizes to about 0 in every row ...
        x.data[1, 3] = np.eye(8)[0]  # ... but the padding row's, which normalizes to sqrt(7)
        p.ln_g.data[...], p.ln_b.data[...] = 2.0, 0.0
        getattr(p, row).data[...] = 0.0
        getattr(p, row).data[0] = 1e38  # 2 sqrt(7) x 1e38 overflows float32, 2 x 1e-7 x 1e38 does not
        key_mask = np.ones((2, 1, 1, 5), dtype=bool)
        key_mask[1, ..., 4] = False
        stage = []
        assert self.run(attention_chain, x, p, latent, key_mask, stage) is not None and stage == [f"linear {row}"]
        assert self.run(ag.attention_sublayer, x, p, latent, key_mask) == \
            f"attention_sublayer: linear {row} produced non-finite values"

    def test_a_failed_call_leaves_its_rows_to_be_written_again(self):
        """A call that raised wrote rows after the filled ones; the next call writes its own there, and gives the
        bits of a call through stacks that never saw the failure."""
        outs = []
        for fail in (True, False):
            p, z, rows, stacks, xs = attention_case(np.float64, (), True, UNTAPED)
            ag.attention_sublayer(xs[0], *sublayer_tensors(p), *stacks, 1, rows, tf.causal_mask(3, 1))
            if fail:
                keep = p.wo.data[0, 0]
                p.wo.data[0, 0] = np.inf
                with pytest.raises(ag.NumericsError, match="linear wo"), np.errstate(all="ignore"):
                    ag.attention_sublayer(xs[2], *sublayer_tensors(p), *stacks, 4, rows, tf.causal_mask(2, 4))
                p.wo.data[0, 0] = keep
            outs.append(ag.attention_sublayer(xs[1], *sublayer_tensors(p), *stacks, 4, rows, None).data)
        assert np.array_equal(outs[0], outs[1])

    def test_raises_exactly_where_the_chain_raises(self):
        """Extreme entries anywhere, causal or under a key mask: the fused op raises whenever the chain does."""
        raised = set()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            p, x, latent = self.case(rng)
            tensors = [x, *latent] + [getattr(p, n) for n in ("ln_g", "ln_b", "wq", "bq", "wk", "wv", "bv", "wo", "bo")]
            for _ in range(rng.integers(1, 3)):
                t = tensors[rng.integers(len(tensors))].data
                t.flat[rng.integers(t.size)] = rng.choice([1e38, -1e38, 1e20, -3e19, 1e4, np.inf, -np.inf, np.nan])
            key_mask = None
            if seed % 2:
                key_mask = np.ones((2, 1, 1, 5), dtype=bool)
                key_mask[1, ..., 3:] = False
            stage = []
            want = self.run(attention_chain, x, p, latent, key_mask, stage)
            got = self.run(ag.attention_sublayer, x, p, latent, key_mask)
            assert (got is None) == (want is None), seed
            if want is not None:
                assert got == f"attention_sublayer: {stage[0]} produced non-finite values", seed
                raised.add(stage[0])
        assert raised >= {"layer_norm", "linear wq", "linear wk", "linear wv", "attention", "linear wo"}


class TestEmbeddingAndHeadNumerics:
    """One check on the output stands in for each chain's three or four."""

    @staticmethod
    def embedding_args(rng):
        """float32 word and position tables, four tokens from position 3, and an injection row."""
        return [leaf(rng, (7, 8), np.float32, grad=False), leaf(rng, (12, 8), np.float32, grad=False),
                np.array([2, 5, 2, 0]), 3, leaf(rng, (1, 8), np.float32, grad=False)]

    @staticmethod
    def head_args(rng):
        """float32 rows, the final norm's gain and bias, a word table and an injection bias."""
        return [leaf(rng, (5, 8), np.float32, grad=False)] + [
            leaf(rng, shape, np.float32, 0.5, grad=False) for shape in [(8,), (8,), (7, 8), (1, 7)]]

    @pytest.mark.parametrize("edits, step", [
        ([(0, (2, 1), np.inf)], "take_rows word"),
        ([(1, (4, 0), np.nan)], "take_rows pos"),
        ([(0, (5, 3), 3e38), (1, (4, 3), 3e38)], "add"),  # token 5 sits at position 4
        ([(4, (0, 2), -np.inf)], "add row"),
        ([(0, (5, 3), 3e38), (1, (4, 3), 0.0), (4, (0, 3), 3e38)], "add row"),
    ], ids=["word", "pos", "sum_overflow", "row", "row_overflow"])
    def test_a_non_finite_embedding_step_is_named(self, edits, step):
        args = self.embedding_args(np.random.default_rng(13))
        for where, index, value in edits:
            args[where].data[index] = value
        stage = []
        assert error_of(args, lambda *a: embedding_chain(*a, stage=stage)) is not None and stage == [step]
        assert error_of(args, ag.embedding) == f"embedding: {step} produced non-finite values"

    def test_a_non_finite_word_the_tokens_skip_is_no_error(self):
        args = self.embedding_args(np.random.default_rng(13))
        args[0].data[6] = np.nan
        assert error_of(args, embedding_chain) is None and error_of(args, ag.embedding) is None

    @pytest.mark.parametrize("edits, step, chain_step", [
        ([(0, (1, 2), np.nan)], "layer_norm", "layer_norm"),
        ([(2, (3,), np.inf)], "layer_norm", "layer_norm"),
        # The chain's transpose checked the whole table; here a bad entry reaches every row's logit for its token.
        ([(3, (4, 0), np.inf)], "linear", "transpose"),
        ([(1, Ellipsis, 1e20), (3, (4, Ellipsis), 1e20)], "linear", "linear"),
        ([(4, (0, 3), np.nan)], "add", "add"),
    ], ids=["x", "ln_b", "word", "product_overflow", "bias"])
    def test_a_non_finite_head_step_is_named(self, edits, step, chain_step):
        args = self.head_args(np.random.default_rng(14))
        for where, index, value in edits:
            args[where].data[index] = value
        stage = []
        assert error_of(args, lambda *a: head_chain(*a, stage=stage)) is not None and stage == [chain_step]
        assert error_of(args, ag.tied_head) == f"tied_head: {step} produced non-finite values"

    @pytest.mark.parametrize("op", ["embedding", "tied_head"])
    def test_raises_exactly_where_the_chain_raises(self, op):
        """Extreme entries anywhere: the fused op raises whenever the chain does, naming the chain's step.

        The head names a table entry at ``linear``, the chain's at its
        transpose.
        """
        make, chain = {"embedding": (self.embedding_args, embedding_chain), "tied_head": (self.head_args, head_chain)}[op]
        raised = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            args = make(rng)
            tensors = [a for a in args if isinstance(a, Tensor)]
            for _ in range(rng.integers(1, 3)):
                t = tensors[rng.integers(len(tensors))].data
                t.flat[rng.integers(t.size)] = rng.choice([3e38, -3e38, 1e20, -3e19, np.inf, -np.inf, np.nan])
            stage = []
            want = error_of(args, lambda *a: chain(*a, stage=stage))
            got = error_of(args, getattr(ag, op))
            assert (got is None) == (want is None), seed
            if want is not None:
                named = "linear" if stage[0] == "transpose" else stage[0]
                assert got == f"{op}: {named} produced non-finite values", seed
                raised.add(stage[0])
        assert raised >= {"embedding": {"take_rows word", "take_rows pos", "add row"},
                          "tied_head": {"layer_norm", "transpose", "linear", "add"}}[op]

    def test_an_out_of_range_token_raises_as_before(self):
        """A token id outside the table is an ``IndexError``: from the op, and from a stack with its usual message."""
        args = self.embedding_args(np.random.default_rng(15))
        for tokens in ([7], [-1], [[0, 1], [2, 9]]):
            with pytest.raises(IndexError, match="embedding: token id out of range for 7 rows"):
                ag.embedding(args[0], args[1], np.array(tokens), 0)
        with pytest.raises(IndexError, match="embedding: positions 10 to 13 out of range for 12 rows"):
            ag.embedding(args[0], args[1], np.array([1, 2, 3, 4]), 10)
        cfg = ModelConfig(d=8, layers=1, encoder_layers=1, heads=2, latent_dim=4, vocab_size=7, max_seq_len=12,
                          injection_modes=("input",))
        model = StoryVAE.create(cfg, seed=7)
        latent = lt.LatentCode.external(np.ones(4, dtype=np.float32))
        cache = model.decoder_cache(latent)
        for tokens in ([1, 7], [-1]):
            with pytest.raises(IndexError, match="^token id out of range for vocabulary size 7$"):
                tf.encode_stack(np.array(tokens), model.params, cfg)
            with pytest.raises(IndexError, match="^token id out of range for vocabulary size 7$"):
                tf.decode_stack(cache, tokens)
        assert cache.length == 0
        tf.decode_stack(cache, [1, 2])
        assert cache.length == 2

    def test_a_call_that_fails_on_a_token_id_leaves_the_cache_for_any_batch(self):
        """The id check runs inside the pass, yet a failed first call fixes neither the batch nor any stacks."""
        cfg = ModelConfig(d=8, layers=1, encoder_layers=1, heads=2, latent_dim=4, vocab_size=7, max_seq_len=12,
                          injection_modes=("input",))
        model = StoryVAE.create(cfg, seed=7)
        cache = tf.DecoderCache(model.params, cfg)
        with pytest.raises(IndexError, match="^token id out of range for vocabulary size 7$"):
            tf.decode_stack(cache, [[1, 2], [3, 7]])
        assert (cache.batch, cache.stacks, cache.length) == (None, None, 0)
        logits = tf.decode_stack(cache, [1, 2, 3])
        assert logits.shape == (3, 7) and cache.batch == () and cache.length == 3
        with pytest.raises(ContractError, match=r"do not match a cache for a batch of \(\)"):
            tf.decode_stack(cache, [[4], [5]])
