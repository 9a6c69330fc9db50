import math

import numpy as np
import pytest

from storyvae import corpus as cp
from storyvae import evaluation as ev
from storyvae.model import StoryVAE
from storyvae.selfcheck import brute_force_rouge
from storyvae.transformer import ContractError, ModelConfig

WORDS = ["sun", "moon", "star", "sky", "sea", "rock", "tree"]


class TestRouge:
    def test_identical_texts_score_one(self):
        text = "the sun rose over the sea"
        for v in (1, 2, "L"):
            s = ev.rouge_scores(text, text, v)
            assert s.as_tuple() == (1.0, 1.0, 1.0)

    def test_disjoint_texts_score_zero(self):
        for v in (1, 2, "L"):
            s = ev.rouge_scores("sun moon star", "rock tree sea", v)
            assert s.as_tuple() == (0.0, 0.0, 0.0)

    def test_worked_example(self):
        s = ev.rouge_scores("the cat sat", "the cat", 1)
        assert abs(s.precision - 2 / 3) < 1e-12
        assert s.recall == 1.0
        assert abs(s.f1 - 0.8) < 1e-12

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cand = " ".join(rng.choice(WORDS, size=rng.integers(1, 12)))
            ref = " ".join(rng.choice(WORDS, size=rng.integers(1, 12)))
            for v in (1, 2, "L"):
                mine = ev.rouge_scores(cand, ref, v)
                want = brute_force_rouge(cand, ref, v)
                assert abs(mine.precision - want[0]) < 1e-9
                assert abs(mine.recall - want[1]) < 1e-9
                assert abs(mine.f1 - want[2]) < 1e-9

    def test_ngram_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = " ".join(rng.choice(WORDS, size=rng.integers(1, 9)))
            b = " ".join(rng.choice(WORDS, size=rng.integers(1, 9)))
            for v in (1, 2):
                assert abs(ev.rouge_scores(a, b, v).precision - ev.rouge_scores(b, a, v).recall) < 1e-12

    def test_lcs_self_is_one(self):
        text = "a b c d e f g"
        assert ev.rouge_scores(text, text, "L").f1 == 1.0

    def test_casing_folded(self):
        s = ev.rouge_scores("The Cat", "the cat", 1)
        assert s.f1 == 1.0

    def test_empty_side_degenerate_not_error(self):
        s = ev.rouge_scores("", "the cat", 1)
        assert s.as_tuple() == (0.0, 0.0, 0.0)
        assert s.degenerate
        s = ev.rouge_scores("words here", "", "L")
        assert s.degenerate

    def test_bigram_shorter_than_n_is_degenerate(self):
        s = ev.rouge_scores("one", "two words", 2)
        assert s.degenerate

    def test_unknown_variant_rejected(self):
        with pytest.raises(ContractError):
            ev.rouge_scores("a", "b", 3)


def uniform_model():
    """All parameters zero except a unit final-norm gain: logits identically zero."""
    cfg = ModelConfig(d=8, layers=1, encoder_layers=1, heads=2, latent_dim=8,
                      vocab_size=16, max_seq_len=16, injection_modes=("input",))
    model = StoryVAE.create(cfg, seed=0)
    for _, p in model.params.items():
        p.data[...] = 0.0
    for name in ("dec.final_norm.g", "enc.final_norm.g"):
        model.params[name].data[...] = 1.0
    return model


def example_from_tokens(x, y, sep=15, story_text=None):
    story_text = story_text if story_text is not None else " ".join("w" for _ in y)
    pair = cp.PromptStoryPair("p", story_text, prompt_tokens=list(x), story_tokens=list(y))
    return cp.EncodedExample(
        prior_input=np.array(x),
        decoder_input=np.array(list(x) + [sep] + list(y)),
        targets=np.array(list(x[1:]) + [sep] + list(y) + [sep]),
        loss_mask=np.array([False] * len(x) + [True] * (len(y) + 1)),
        pair=pair,
    )


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self):
        model = uniform_model()
        examples = [example_from_tokens([1, 2], [3, 4, 5]), example_from_tokens([6], [7])]
        assert abs(ev.perplexity(model, examples, "subword") - 16.0) < 16.0 * 1e-6

    def test_normalization_identities(self):
        assert abs(ev.ppl_from_totals(10.0, 5) - math.e**2) < 1e-9
        assert abs(ev.ppl_from_totals(10.0, 2) - math.e**5) < 1e-9

    def test_word_granularity_uses_story_text(self):
        model = uniform_model()
        ex = example_from_tokens([1], [2, 3, 4], story_text="two words")
        total, subwords, words = ev.corpus_nll(model, [ex])
        assert subwords == 4
        assert words == 2
        assert abs(ev.perplexity(model, [ex], "word") - math.exp(total / 2)) < 1e-9

    def test_partition_invariance(self):
        model = StoryVAE.create(ModelConfig(d=8, layers=1, encoder_layers=1, heads=2,
                                            latent_dim=8, vocab_size=16, max_seq_len=16,
                                            injection_modes=("input",)), seed=3)
        examples = [example_from_tokens([1, 2], [3, 4]), example_from_tokens([5], [6, 7, 8]),
                    example_from_tokens([9], [10])]
        whole = ev.perplexity(model, examples, "subword")
        t1, s1, _ = ev.corpus_nll(model, examples[:1])
        t2, s2, _ = ev.corpus_nll(model, examples[1:])
        assert abs(whole - math.exp((t1 + t2) / (s1 + s2))) < 1e-9

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            ev.perplexity(uniform_model(), [], "subword")

    def test_bad_granularity_rejected(self):
        with pytest.raises(ContractError):
            ev.perplexity(uniform_model(), [example_from_tokens([1], [2])], "chars")


class TestExportLatents:
    def setup_method(self):
        self.model = StoryVAE.create(ModelConfig(d=8, layers=1, encoder_layers=1, heads=2,
                                                 latent_dim=6, vocab_size=16, max_seq_len=16,
                                                 injection_modes=("input",)), seed=4)
        self.examples = [example_from_tokens([1, 2], [3, 4]), example_from_tokens([5], [6])]
        self.examples[0].pair.label = "alpha"

    def test_row_and_column_counts(self, tmp_path):
        path = tmp_path / "latents.tsv"
        n = ev.export_latents(self.model, self.examples, "prior-mean", path)
        lines = path.read_text().strip().split("\n")
        assert n == len(lines) == 2
        for line in lines:
            assert len(line.split("\t")) == 2 + 6

    def test_posterior_mean_bit_exact(self, tmp_path):
        path = tmp_path / "latents.tsv"
        ev.export_latents(self.model, self.examples, "posterior-mean", path)
        row = path.read_text().strip().split("\n")[0].split("\t")
        got = np.array([float(v) for v in row[2:]])
        ex = self.examples[0]
        want = self.model.encode_posterior(ex.prior_input, np.array([3, 4]), 15).mu.data
        assert np.array_equal(got, want.astype(np.float64))

    def test_vae_posterior_mean_encodes_the_bare_story(self, tmp_path):
        """A vae posterior trains on the story alone, so its exported mean is the story's alone."""
        model = StoryVAE(self.model.config, self.model.params, mode="vae")
        ev.export_latents(model, self.examples, "posterior-mean", tmp_path / "latents.tsv")
        rows = [line.split("\t")[2:] for line in (tmp_path / "latents.tsv").read_text().splitlines()]
        assert len(rows) == len(self.examples)
        for row, ex in zip(rows, self.examples):
            want = model.encode_text_posterior(np.array(ex.pair.story_tokens)).mu.data
            assert np.array_equal(np.array([float(v) for v in row]), want.astype(np.float64))

    def test_label_column(self, tmp_path):
        path = tmp_path / "latents.tsv"
        ev.export_latents(self.model, self.examples, "prior-mean", path)
        rows = [line.split("\t") for line in path.read_text().strip().split("\n")]
        assert rows[0][1] == "alpha"
        assert rows[1][1] == ""

    def test_bad_which_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            ev.export_latents(self.model, self.examples, "sample", tmp_path / "x.tsv")


class TestEvaluate:
    def test_report_shape_and_aggregation(self):
        model = uniform_model()
        examples = [example_from_tokens([1], [2, 3], story_text="sun moon"),
                    example_from_tokens([4], [5], story_text="star")]
        report = ev.evaluate(model, examples, ["sun moon", "rock"])
        assert report.n_examples == 2
        expected_r1 = (ev.rouge_scores("sun moon", "sun moon", 1).f1 + ev.rouge_scores("rock", "star", 1).f1) / 2
        assert abs(report.rouge1.f1 - expected_r1) < 1e-12
        payload = report.to_dict()
        assert set(payload) == {"perplexity", "rouge1", "rouge2", "rougeL",
                                "n_examples", "n_subword_targets", "n_words"}

    def test_story_count_must_match(self):
        model = uniform_model()
        with pytest.raises(ContractError):
            ev.evaluate(model, [example_from_tokens([1], [2])], [])
