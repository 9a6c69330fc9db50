"""Grouped, lockstep inference against one story at a time.

Generation, scoring and latent export run the toy corpus as batches of
equal-length rows.  Each batch entry must get exactly the bits its own
one-example forward gives, so every comparison here is ``==`` or
``np.array_equal``, in float32 and float64.
"""

import dataclasses

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import corpus as cp
from storyvae import evaluation as ev
from storyvae import latent as lt
from storyvae import sampling as sp
from storyvae import transformer as tf
from storyvae.model import StoryVAE
from storyvae.transformer import ModelConfig

PAIRS = cp.load_corpus(cp.toy_corpus_path())
# The CLI tests' 300-token vocabulary: prompts encode to 2 or 3 tokens, decoder inputs to 11 lengths.
VOCAB = cp.fit_vocabulary([p.prompt_text for p in PAIRS] + [p.story_text for p in PAIRS], 300)
EXAMPLES = cp.prepare_corpus(PAIRS, VOCAB, 64)
SEP = VOCAB.separator_id
BUDGET = 10
SAMPLER = sp.SamplerConfig(top_k=VOCAB.size, top_p=1.0, temperature=1.0, max_new_tokens=BUDGET, seed=2)
MODES = {"input": ("input",), "psa": ("psa",), "softmax": ("softmax",), "all": ("input", "psa", "softmax")}


def talkative_model(modes, dtype, mode="cvae") -> StoryVAE:
    """Unit-scale weights, plus a separator logit that wins about one step in six, so stories stop at many lengths."""
    cfg = ModelConfig(d=16, layers=2, encoder_layers=1, heads=2, latent_dim=8, vocab_size=VOCAB.size,
                      max_seq_len=64, injection_modes=modes)
    model = StoryVAE.create(cfg, seed=4, mode=mode, dtype=dtype)
    ag.rescale_for_grad_check(model.params, np.random.default_rng(5), scale=0.3)
    p = model.params
    p["dec.final_norm.g"].data[0], p["dec.final_norm.b"].data[0] = 0.0, 1.0
    p["embed.word"].data[:, 0] = 0.0
    p["embed.word"].data[SEP, 0] = 4.0
    return model


def one_by_one_nll(model, examples) -> float:
    total = 0.0
    for ex in examples:
        latent = lt.mean_code(model.encode_prior(ex.prior_input), lt.LatentSource.PRIOR_MEAN)
        nll, _ = ag.cross_entropy(model.decode_logits(ex.decoder_input, latent), ex.targets, ex.loss_mask)
        total += float(nll.data)
    return total


CASES = [(m, dt, "cvae") for m in MODES for dt in (np.float32, np.float64)] + [("all", np.float64, "vae")]


@pytest.mark.parametrize("modes,dtype,mode", CASES, ids=[f"{m}-{np.dtype(dt).name}-{v}" for m, dt, v in CASES])
class TestBatchedMatchesOneByOne:
    @pytest.mark.parametrize("use_mean", [False, True])
    def test_generation(self, modes, dtype, mode, use_mean):
        model = talkative_model(MODES[modes], dtype, mode)
        sampler = dataclasses.replace(SAMPLER, latent_mean=use_mean)
        stories, latent = sp.generate_for_prompts(model, [ex.prior_input for ex in EXAMPLES], SEP, sampler)
        alone = [sp.generate_for_prompt(model, ex.prior_input, SEP, sampler, example_index=i)
                 for i, ex in enumerate(EXAMPLES)]
        assert stories == [story for story, _ in alone]
        assert np.array_equal(latent.z.data, np.stack([code.z.data for _, code in alone]))
        assert latent.z.dtype == dtype
        assert latent.source is alone[0][1].source
        if not use_mean and mode == "cvae":
            assert len({len(s) for s in stories}) >= 3  # stories stop at different steps

    def test_scoring(self, modes, dtype, mode):
        model = talkative_model(MODES[modes], dtype, mode)
        total, subwords, words = ev.corpus_nll(model, EXAMPLES)
        assert total == one_by_one_nll(model, EXAMPLES)
        assert subwords == sum(int(ex.loss_mask.sum()) for ex in EXAMPLES)

    def test_scoring_under_the_prior_means_of_generation(self, modes, dtype, mode):
        """Generation hands back the prior means scoring would encode, bit for bit, so eval encodes each prior once."""
        model = talkative_model(MODES[modes], dtype, mode)
        prompts = [ex.prior_input for ex in EXAMPLES]
        means = np.full((len(EXAMPLES), model.config.latent_dim), np.nan, dtype=dtype)
        sp.generate_for_prompts(model, prompts, SEP, SAMPLER, prior_means=means)
        assert np.array_equal(means, np.stack([model.encode_prior(p).mu.data for p in prompts]))
        assert ev.corpus_nll(model, EXAMPLES, means) == ev.corpus_nll(model, EXAMPLES)

    @pytest.mark.parametrize("which", ["prior-mean", "posterior-mean"])
    def test_latent_export(self, modes, dtype, mode, which, tmp_path):
        model = talkative_model(MODES[modes], dtype, mode)
        ev.export_latents(model, EXAMPLES, which, tmp_path / "latents.tsv")
        rows = []
        for i, ex in enumerate(EXAMPLES):
            story = ex.decoder_input[len(ex.prior_input) + 1:]
            if which == "prior-mean":
                g = model.encode_prior(ex.prior_input)
            elif mode == "vae":  # a vae posterior encodes the bare story, as it trains
                g = model.encode_text_posterior(story)
            else:
                g = model.encode_posterior(ex.prior_input, story, SEP)
            rows.append("\t".join([str(i), ex.pair.label] + [repr(float(v)) for v in g.mu.data]))
        assert (tmp_path / "latents.tsv").read_text(encoding="utf-8") == "\n".join(rows) + "\n"


EDGE_SAMPLERS = {
    "top_k=1": dataclasses.replace(SAMPLER, top_k=1, top_p=0.9),
    "top_k>V": dataclasses.replace(SAMPLER, top_k=VOCAB.size + 7, top_p=0.8, temperature=0.7),
    "top_p=1": dataclasses.replace(SAMPLER, top_k=12, top_p=1.0),
    "tied_logits": dataclasses.replace(SAMPLER, top_k=5, top_p=0.5),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("edge", list(EDGE_SAMPLERS))
def test_generation_at_the_filter_edges(edge, dtype):
    """Lockstep generation stays byte-identical to one story at a time at each edge of the filter."""
    sampler = EDGE_SAMPLERS[edge]
    model = talkative_model(MODES["input" if edge == "tied_logits" else "all"], dtype)
    if edge == "tied_logits":
        model.params["embed.word"].data[...] = 0.0  # every logit of the tied head is exactly 0
    prompts = [ex.prior_input for ex in EXAMPLES]
    stories, _ = sp.generate_for_prompts(model, prompts, SEP, sampler)
    assert stories == [sp.generate_for_prompt(model, p, SEP, sampler, example_index=i)[0]
                       for i, p in enumerate(prompts)]
    if edge == "tied_logits":
        # All V tie; top-k keeps ids 0..4, whose mass never reaches p, so every story runs to the budget.
        assert {t for s in stories for t in s} <= set(range(5))
        assert all(len(s) == BUDGET for s in stories)


def test_groups_split_at_the_row_cap(monkeypatch):
    """Groups larger than the cap run as several batches and still match."""
    model = talkative_model(MODES["all"], np.float32)
    whole, _ = sp.generate_for_prompts(model, [ex.prior_input for ex in EXAMPLES], SEP, SAMPLER)
    total = ev.corpus_nll(model, EXAMPLES)[0]
    monkeypatch.setattr(tf, "GROUP_ROWS", 5)
    assert max(len(g) for g in tf.length_groups([ex.prior_input for ex in EXAMPLES])) == 5
    assert sp.generate_for_prompts(model, [ex.prior_input for ex in EXAMPLES], SEP, SAMPLER)[0] == whole
    assert ev.corpus_nll(model, EXAMPLES)[0] == total


def test_length_groups_keep_input_order():
    groups = tf.length_groups([[1, 2], [3], [4, 5], [6], [7, 8]])
    assert [g.tolist() for g in groups] == [[0, 2, 4], [1, 3]]


def test_a_batch_needs_a_latent_row_per_sequence():
    model = talkative_model(MODES["input"], np.float32)
    latent = sp.draw_latent(model, np.array([[1, 2], [3, 4]]), [sp.generation_rng(0, 0), sp.generation_rng(0, 1)])
    assert latent.z.shape == (2, 8)
    with pytest.raises(tf.ContractError):
        tf.decode_stack(model.decoder_cache(latent), np.array([[1, 2, SEP]] * 3))
    with pytest.raises(tf.ContractError):
        sp.generate_batch(model, np.array([[1, 2]] * 2), SEP, SAMPLER, latent, [sp.generation_rng(0, 0)])
