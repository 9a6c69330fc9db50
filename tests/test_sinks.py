"""Sink passes raise what the per-node checks raise.

A decoder call, an encoder pass and a train step's forward run with the
per-node finiteness checks off and check only their sinks; a failure runs
the pass again with the checks on (``ag.sink_pass``).  Each test here
plants a non-finite value in one parameter at a time, so every stage of
every op of the pass meets one, and compares what the pass raises with
what it raises when each pass runs undecorated, with every node's own
check on: the same exception, with the same message.
"""

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import corpus as cp
from storyvae import latent as lt
from storyvae import transformer as tf
from storyvae.model import StoryVAE
from storyvae.training import Trainer, TrainingAbort, TrainingSchedule
from storyvae.transformer import ModelConfig

PAIRS = cp.load_corpus(cp.toy_corpus_path())
VOCAB = cp.fit_vocabulary([p.prompt_text for p in PAIRS] + [p.story_text for p in PAIRS], 300)
EXAMPLES = cp.prepare_corpus(PAIRS, VOCAB, 32)
PREFILL, STEP = np.array([0, 5, 7]), np.array([3])
# A non-finite value at the first element of a tensor, another at its last, and a finite one whose products
# overflow float32, so the first non-finite value comes later in the pass: in the attention scores, a KL, a loss.
PLANTS = [(0, np.nan), (-1, np.inf), (0, 1e30)]


def make_model(dtype=np.float32) -> StoryVAE:
    cfg = ModelConfig(d=8, layers=2, encoder_layers=2, heads=2, latent_dim=4, vocab_size=VOCAB.size, max_seq_len=32,
                      injection_modes=tf.INJECTION_MODES)
    model = StoryVAE.create(cfg, seed=3, dtype=dtype)
    ag.rescale_for_grad_check(model.params, np.random.default_rng(4), scale=0.3)
    return model


def latent(model) -> lt.LatentCode:
    return lt.LatentCode.external(np.linspace(-1.0, 1.0, model.config.latent_dim), model.dtype)


def outcome(run):
    """``run()``'s exception as (type name, message), or ("ok", the bytes of the arrays it returns)."""
    try:
        with np.errstate(all="ignore"):
            arrays = run()
    except (ag.NumericsError, TrainingAbort) as e:
        return type(e).__name__, str(e)
    return "ok", [a.tobytes() for a in arrays]


# Each sink pass of the package: a decoder call, an encoder pass, a train step's forward.
PASSES = [(tf, "_decode"), (StoryVAE, "_encode"), (Trainer, "_forward")]


def per_node(monkeypatch, run):
    """``outcome(run)`` with every pass undecorated, so every node's own check is on, as if no pass ran."""
    with monkeypatch.context() as patch:
        for owner, name in PASSES:
            patch.setattr(owner, name, getattr(owner, name).__wrapped__)
        return outcome(run)


def planted(model, names):
    """Each (name, index, value) of a non-finite ``value`` at ``index`` of a parameter in ``names``."""
    for name in names:
        for index, value in PLANTS:
            yield name, index, value


class poisoned:
    """Plant ``value`` at flat ``index`` of parameter ``name`` for the body of a with block."""

    def __init__(self, model, name, index, value):
        self.flat, self.index, self.value = model.params[name].data.reshape(-1), index, value

    def __enter__(self):
        self.keep = self.flat[self.index]
        self.flat[self.index] = self.value

    def __exit__(self, *exc):
        self.flat[self.index] = self.keep


def decoder_names(model):
    """The parameters a decoder call reads; the injection tensors are read when its cache is built."""
    return [n for n in model.params.names() if n.startswith(("embed.", "dec.")) and ".psa." not in n]


def encoder_names(model, role):
    return [n for n in model.params.names() if n.startswith(("embed.", "enc.", "pool.", f"{role}."))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_failed_prefill_raises_as_the_nodes_do_and_leaves_the_cache_usable(monkeypatch, dtype):
    model = make_model(dtype)
    clean = tf.decode_stack(model.decoder_cache(latent(model)), PREFILL).data
    for name, index, value in planted(model, decoder_names(model)):
        cache = model.decoder_cache(latent(model))
        with poisoned(model, name, index, value):
            got = outcome(lambda: [tf.decode_stack(cache, PREFILL).data])
            want = per_node(monkeypatch, lambda: [tf.decode_stack(model.decoder_cache(latent(model)), PREFILL).data])
        assert got == want, name
        if got[0] == "ok":  # only a finite plant, or one in the last position row, which the call does not read
            assert np.isfinite(value) or name == "embed.pos", name
            continue
        assert cache.length == 0
        assert np.array_equal(tf.decode_stack(cache, PREFILL).data, clean), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_failed_cached_step_raises_as_the_nodes_do_and_leaves_the_cache_usable(monkeypatch, dtype):
    model = make_model(dtype)
    reference = model.decoder_cache(latent(model))
    tf.decode_stack(reference, PREFILL)
    clean = tf.decode_stack(reference, STEP).data
    for name, index, value in planted(model, decoder_names(model)):
        cache, other = model.decoder_cache(latent(model)), model.decoder_cache(latent(model))
        tf.decode_stack(cache, PREFILL)
        tf.decode_stack(other, PREFILL)
        with poisoned(model, name, index, value):
            got = outcome(lambda: [tf.decode_stack(cache, STEP).data])
            want = per_node(monkeypatch, lambda: [tf.decode_stack(other, STEP).data])
        assert got == want, name
        if got[0] == "ok":  # the step reads one position row, neither the first nor the last
            assert np.isfinite(value) or name == "embed.pos", name
            continue
        assert cache.length == len(PREFILL)
        assert np.array_equal(tf.decode_stack(cache, STEP).data, clean), name


def test_a_key_row_that_scores_minus_inf_is_named_at_the_call_that_wrote_it():
    """Layer 0's new key holds +inf where the new query holds -2: its one score is -inf, so its weight is 0.

    The call's logits are finite, and the key row would first reach them
    in a later call, through a later query.  The scores are a sink, so the
    call that wrote the row raises the scores check's error, and the cache
    stays usable.
    """
    model = make_model(np.float32)
    reference = model.decoder_cache(latent(model))
    tf.decode_stack(reference, PREFILL)
    clean = tf.decode_stack(reference, STEP).data
    p = model.params
    cache = model.decoder_cache(latent(model))
    tf.decode_stack(cache, PREFILL)
    saved = {n: p[n].data.copy() for n in ("dec.0.ln1.g", "dec.0.ln1.b", "dec.0.attn.wq", "dec.0.attn.bq",
                                            "dec.0.attn.wk")}
    p["dec.0.ln1.g"].data[...] = 0.0
    p["dec.0.ln1.b"].data[...] = 0.0
    p["dec.0.ln1.b"].data[0] = 2.0  # every new row's layer norm is (2, 0, ..., 0)
    p["dec.0.attn.wq"].data[0, 0], p["dec.0.attn.bq"].data[0] = -1.0, 0.0
    p["dec.0.attn.wk"].data[0, 0] = np.finfo(np.float32).max
    with np.errstate(all="ignore"):
        with pytest.raises(ag.NumericsError, match=r"^attention_sublayer: linear wk produced non-finite values$"):
            tf.decode_stack(cache, STEP)
        keys_t = cache.stacks[0][0]
        assert np.isposinf(keys_t[..., 1 + len(PREFILL)]).any()
        queries = 2.0 * p["dec.0.attn.wq"].data[0] + p["dec.0.attn.bq"].data
        scores = queries.reshape(2, -1, 1) * keys_t[..., 1 + len(PREFILL):2 + len(PREFILL)]
        assert np.isneginf(scores.sum(axis=1)).any() and not np.isnan(scores.sum(axis=1)).any()
    for name, data in saved.items():
        p[name].data[...] = data
    assert cache.length == len(PREFILL)
    assert np.array_equal(tf.decode_stack(cache, STEP).data, clean)


def test_a_product_that_overflows_in_the_scores_is_named_as_the_nodes_name_it(monkeypatch):
    """Queries and keys of 1e20 overflow float32 only in their product: the attention step of the chain."""
    model = make_model(np.float32)
    for name in ("dec.1.attn.wq", "dec.1.attn.wk"):
        model.params[name].data[...] = 1e20
    got = outcome(lambda: [tf.decode_stack(model.decoder_cache(latent(model)), PREFILL).data])
    assert got == per_node(monkeypatch, lambda: [tf.decode_stack(model.decoder_cache(latent(model)), PREFILL).data])
    assert got == ("NumericsError", "attention_sublayer: attention produced non-finite values")


@pytest.mark.parametrize("padded", [False, True], ids=["one_sequence", "padded_batch"])
def test_an_encoder_pass_raises_as_the_nodes_do(monkeypatch, padded):
    model = make_model(np.float32)
    if padded:  # two lengths, so the pass runs under a key mask
        role, sequences = "post", [EXAMPLES[0].decoder_input, EXAMPLES[0].decoder_input[:5]]

        def run():
            g = model._encode_padded(sequences, role)
            return [g.mu.data, g.log_sigma.data]
    else:
        role, tokens = "prior", EXAMPLES[0].prior_input

        def run():
            g = model.encode_prior(tokens)
            return [g.mu.data, g.log_sigma.data]

    clean = outcome(run)
    for name, index, value in planted(model, encoder_names(model, role)):
        with poisoned(model, name, index, value):
            got, want = outcome(run), per_node(monkeypatch, run)
        assert got == want, name
        # A finite plant may overflow nothing; rows of the tables that the tokens do not read are not read.
        assert got[0] == "NumericsError" or np.isfinite(value) or name.startswith("embed."), name
    assert outcome(run) == clean


@pytest.mark.parametrize("mode", ["cvae", "vae"])
def test_a_train_step_aborts_as_the_nodes_do(monkeypatch, mode):
    """Every parameter reaches the loss; the abort names the same slot and step of the same op."""
    model = make_model(np.float32)
    model.mode = mode
    schedule = TrainingSchedule(total_steps=1, cycle_length=4, batch_size=3, seed=5)

    def run():
        record = Trainer(model, EXAMPLES, schedule, separator_id=VOCAB.separator_id).train_step([0, 7, 12])
        return [np.array([record["loss"], record["grad_norm"]])]

    start = model.params.data_buffer.copy()
    aborts = 0
    for name, index, value in planted(model, model.params.names()):
        if mode == "vae" and name.startswith("prior."):
            continue
        seen = []
        for how in (outcome, lambda run: per_node(monkeypatch, run)):
            with poisoned(model, name, index, value):
                seen.append(how(run))
            model.params.data_buffer[...] = start  # a step that went through updated every parameter
        got, want = seen
        assert got == want, name
        aborts += got[0] == "TrainingAbort"
    assert aborts > len(model.params.names())


def test_a_pass_inside_a_pass_replays_the_outer_one():
    """A sink that fails inside a nested pass runs the outermost pass again with the checks on.

    In that run the inner pass is a pass of its own: its sinks fail again,
    and it runs again with the checks on.
    """
    runs = []

    @ag.sink_pass
    def inner():
        runs.append(("inner", ag._node_checks))
        ag.check_sink(np.array([np.nan]))
        return "inner"

    @ag.sink_pass
    def outer():
        runs.append(("outer", ag._node_checks))
        return inner()

    assert outer() == "inner"
    assert runs == [("outer", False), ("inner", False), ("outer", True), ("inner", False), ("inner", True)]
    assert ag._node_checks
