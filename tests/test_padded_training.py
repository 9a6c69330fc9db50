"""The padded training batch against one example at a time.

A train step runs its batch as one right-padded forward and backward.
In float64 its loss and every parameter gradient must agree with the
batch mean of per-example objectives, each built on the unpadded (T,)
path, to 1e-12 relative.  Padding must move nothing: changing the pad
token id leaves the loss and every gradient bit-identical.
"""

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import corpus as cp
from storyvae import latent as lt
from storyvae import model as md
from storyvae.model import StoryVAE
from storyvae.transformer import ModelConfig

from chain_ops import add, mul_scalar

PAIRS = cp.load_corpus(cp.toy_corpus_path())
VOCAB = cp.fit_vocabulary([p.prompt_text for p in PAIRS] + [p.story_text for p in PAIRS], 300)
EXAMPLES = cp.prepare_corpus(PAIRS, VOCAB, 64)
SEP = VOCAB.separator_id
MODES = {"input": ("input",), "psa": ("psa",), "softmax": ("softmax",), "all": ("input", "psa", "softmax")}


# Decoder inputs of 20 to 30 tokens; prompts of 2 or 3 (examples 12 to 15 have the short ones).
BATCHES = {"one": [12], "three": [3, 12, 25], "five": [25, 12, 3, 14, 8]}


def unit_scale_model(modes, dtype, mode) -> StoryVAE:
    cfg = ModelConfig(d=16, layers=2, encoder_layers=1, heads=2, latent_dim=8, vocab_size=VOCAB.size,
                      max_seq_len=64, injection_modes=modes)
    model = StoryVAE.create(cfg, seed=4, mode=mode, dtype=dtype)
    ag.rescale_for_grad_check(model.params, np.random.default_rng(5), scale=0.3)
    return model


def batched_loss(model, batch, noise, beta):
    examples = [EXAMPLES[i] for i in batch]
    if model.mode == "cvae":
        return model.cvae_loss(examples, noise, beta)[0]
    return model.vae_loss([ex.pair.story_tokens for ex in examples], SEP, noise, beta)[0]


def one_by_one_loss(model, batch, noise, beta):
    """The batch mean of per-example objectives, each composed by hand on (T,) tokens, with no padding."""
    total = None
    for row, i in enumerate(batch):
        ex = EXAMPLES[i]
        if model.mode == "cvae":
            text, decoder_input, targets, mask = ex.decoder_input, ex.decoder_input, ex.targets, ex.loss_mask
            prior = model.encode_prior(ex.prior_input)
        else:
            text = np.array(ex.pair.story_tokens)
            decoder_input, targets = np.r_[SEP, text], np.r_[text, SEP]
            mask = np.ones(decoder_input.size, dtype=bool)
            prior = lt.DiagonalGaussian.standard(model.config.latent_dim, dtype=model.dtype)
        posterior = model.encode_text_posterior(text)
        z = lt.reparameterize(posterior, noise[row], lt.LatentSource.POSTERIOR_SAMPLE)
        recon, _ = ag.cross_entropy(model.decode_logits(decoder_input, z), targets, mask)
        loss = add(recon, mul_scalar(lt.kl_divergence(posterior, prior), beta))
        total = loss if total is None else add(total, loss)
    return mul_scalar(total, 1.0 / len(batch))


def loss_and_grads(model, loss_fn) -> tuple[float, dict]:
    params = model.params
    for _, p in params.items():
        p.requires_grad, p.grad = True, None
    try:
        loss = loss_fn()
        ag.backward(loss)
    finally:
        for _, p in params.items():
            p.requires_grad = False
    return float(loss.data), {n: p.grad.copy() for n, p in params.items() if p.grad is not None}


CASES = [(m, "cvae") for m in MODES] + [(m, "vae") for m in MODES]


@pytest.mark.parametrize("batch", list(BATCHES), ids=list(BATCHES))
@pytest.mark.parametrize("modes,mode", CASES, ids=[f"{m}-{v}" for m, v in CASES])
def test_padded_batch_matches_one_by_one_in_float64(modes, mode, batch):
    model = unit_scale_model(MODES[modes], np.float64, mode)
    indices = BATCHES[batch]
    noise = np.random.default_rng(6).standard_normal((len(indices), 8))
    got_loss, got = loss_and_grads(model, lambda: batched_loss(model, indices, noise, 0.7))
    want_loss, want = loss_and_grads(model, lambda: one_by_one_loss(model, indices, noise, 0.7))
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    assert got.keys() == want.keys() == set(model.params.names()) - ({"prior.mu.w", "prior.mu.b", "prior.ls.w",
                                                                       "prior.ls.b"} if mode == "vae" else set())
    for name, g in want.items():
        assert np.abs(got[name] - g).max() <= 1e-12 * np.abs(g).max(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("modes,mode", CASES, ids=[f"{m}-{v}" for m, v in CASES])
def test_the_pad_token_moves_no_loss_or_gradient(monkeypatch, modes, mode, dtype):
    model = unit_scale_model(MODES[modes], dtype, mode)
    indices = BATCHES["five"]
    noise = np.random.default_rng(7).standard_normal((len(indices), 8))
    results = []
    for pad in (0, 77, SEP):
        monkeypatch.setattr(md, "PAD_ID", pad)
        results.append(loss_and_grads(model, lambda: batched_loss(model, indices, noise, 0.7)))
    (loss, grads), others = results[0], results[1:]
    for other_loss, other_grads in others:
        assert other_loss == loss
        assert other_grads.keys() == grads.keys()
        for name, g in grads.items():
            assert np.array_equal(other_grads[name], g), name
