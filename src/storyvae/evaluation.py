"""Automatic metrics: dual-granularity perplexity, ROUGE, latent export.

Perplexity is teacher-forced over the story targets with the latent fixed
to the prior mean, then the summed NLL is normalized either by the number
of scored subword targets or by the whitespace word count of the story
texts.  ROUGE lowercases and whitespace-tokenizes both sides; ROUGE-n uses
clipped n-gram counts and ROUGE-L the longest common subsequence.

Scoring and latent export run the corpus in equal-length groups
(``transformer.length_groups``): prior means per group of prompt length,
teacher-forced NLL per group of decoder-input length, posterior means per
group of joint length.  A batch entry is computed exactly as alone, so
every per-example number has the bits a one-example forward gives, and
corpus sums add them in corpus order.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import latent as lt
from . import transformer as tf
from .autograd import Tensor
from .corpus import word_tokens
from .model import StoryVAE
from .transformer import ContractError


@dataclass
class RougeScore:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False  # an empty side was scored as all zeros

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.precision, self.recall, self.f1)


@dataclass
class EvalReport:
    ppl_subword: float
    ppl_word: float
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    n_examples: int
    n_subword_targets: int
    n_words: int

    def to_dict(self) -> dict:
        def score(s: RougeScore) -> dict:
            return {"precision": s.precision, "recall": s.recall, "f1": s.f1}

        return {
            "perplexity": {"subword": self.ppl_subword, "word": self.ppl_word},
            "rouge1": score(self.rouge1),
            "rouge2": score(self.rouge2),
            "rougeL": score(self.rougeL),
            "n_examples": self.n_examples,
            "n_subword_targets": self.n_subword_targets,
            "n_words": self.n_words,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def _rouge_tokens(text: str) -> list[str]:
    return text.lower().split()


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b, start=1):
            row.append(prev[j - 1] + 1 if x == y else max(prev[j], row[-1]))
        prev = row
    return prev[-1]


def rouge_scores(candidate_text: str, reference_text: str, variant) -> RougeScore:
    """ROUGE-1/2/L precision, recall and F1 for one candidate/reference pair.

    An empty side yields an all-zero score flagged as degenerate rather
    than an error, so corpus aggregation can continue.
    """
    if variant not in (1, 2, "1", "2", "L", "l"):
        raise ContractError(f"unknown ROUGE variant: {variant!r}")
    cand = _rouge_tokens(candidate_text)
    ref = _rouge_tokens(reference_text)
    if not cand or not ref:
        return RougeScore(0.0, 0.0, 0.0, degenerate=True)
    if variant in ("L", "l"):
        lcs = _lcs_length(cand, ref)
        p = lcs / len(cand)
        r = lcs / len(ref)
        return RougeScore(p, r, _f1(p, r))
    n = int(variant)
    cand_counts = _ngram_counts(cand, n)
    ref_counts = _ngram_counts(ref, n)
    if not cand_counts or not ref_counts:
        return RougeScore(0.0, 0.0, 0.0, degenerate=True)
    overlap = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
    p = overlap / sum(cand_counts.values())
    r = overlap / sum(ref_counts.values())
    return RougeScore(p, r, _f1(p, r))


def _grouped_means(encode, sequences, width: int, dtype) -> np.ndarray:
    """The (N, width) Gaussian means ``encode`` gives ``sequences``, one forward per equal-length group."""
    means = np.empty((len(sequences), width), dtype=dtype)
    for group in tf.length_groups(sequences):
        means[group] = encode(np.stack([sequences[i] for i in group])).mu.data
    return means


def corpus_nll(model: StoryVAE, examples, prior_means: np.ndarray | None = None) -> tuple[float, int, int]:
    """Total masked NLL plus the subword and word normalizer counts.

    Each example is teacher-forced with its prior-mean latent; the
    per-example NLLs are summed in corpus order.  ``prior_means`` holds
    those (N, d') means when the caller has them, as
    ``sampling.generate_for_prompts`` gives them: it encodes the same
    prompts in the same length groups, so they have the same bits.
    """
    if not examples:
        raise ContractError("perplexity needs a nonempty corpus")
    if prior_means is None:
        prior_means = _grouped_means(model.encode_prior, [ex.prior_input for ex in examples],
                                     model.config.latent_dim, model.dtype)
    nlls = np.empty(len(examples))
    for group in tf.length_groups([ex.decoder_input for ex in examples]):
        batch = [examples[i] for i in group]
        latent = lt.LatentCode(Tensor(prior_means[group]), lt.LatentSource.PRIOR_MEAN)
        logits = model.decode_logits(np.stack([ex.decoder_input for ex in batch]), latent)
        mask = np.stack([ex.loss_mask for ex in batch])
        _, per_position = ag.cross_entropy(logits, np.stack([ex.targets for ex in batch]), mask)
        nlls[group] = (per_position * mask.astype(model.dtype)).sum(axis=-1)
    total = 0.0
    for nll in nlls:
        total += float(nll)
    subwords = sum(int(ex.loss_mask.sum()) for ex in examples)
    words = sum(len(word_tokens(ex.pair.story_text)) for ex in examples)
    return total, subwords, words


def ppl_from_totals(total_nll: float, token_count: int) -> float:
    if token_count < 1:
        raise ContractError("perplexity normalizer must be positive")
    return math.exp(total_nll / token_count)


def perplexity(model: StoryVAE, examples, granularity: str) -> float:
    if granularity not in ("subword", "word"):
        raise ContractError(f"granularity must be 'subword' or 'word', got {granularity!r}")
    total, subwords, words = corpus_nll(model, examples)
    return ppl_from_totals(total, subwords if granularity == "subword" else words)


def check_latent_kind(which: str) -> None:
    if which not in ("prior-mean", "posterior-mean"):
        raise ContractError(f"which must be 'prior-mean' or 'posterior-mean', got {which!r}")


def export_latents(model: StoryVAE, examples, which: str, path) -> int:
    """Write one TSV row per example: index, label, then the d' mean coordinates.

    Prior means encode the prompt.  Posterior means encode what the
    posterior trains on: in cvae mode the joint prompt ++ separator ++
    story sequence, which is the decoder input; in vae mode the bare story.
    """
    check_latent_kind(which)
    if which == "prior-mean":
        sequences, encode = [ex.prior_input for ex in examples], model.encode_prior
    else:
        encode = model.encode_text_posterior
        sequences = [ex.decoder_input if model.mode == "cvae" else ex.decoder_input[len(ex.prior_input) + 1:]
                     for ex in examples]
    means = _grouped_means(encode, sequences, model.config.latent_dim, model.dtype)
    lines = []
    for i, (ex, mu) in enumerate(zip(examples, means)):
        label = ex.pair.label if ex.pair is not None else ""
        lines.append("\t".join([str(i), label] + [repr(float(v)) for v in mu]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def evaluate(model: StoryVAE, examples, generated_stories: list[str],
             prior_means: np.ndarray | None = None) -> EvalReport:
    """Corpus report: PPL at both granularities plus mean ROUGE of the generations.

    ``prior_means`` goes to ``corpus_nll``.
    """
    if len(generated_stories) != len(examples):
        raise ContractError("need exactly one generated story per example")
    total, subwords, words = corpus_nll(model, examples, prior_means)

    sums = {v: np.zeros(3) for v in (1, 2, "L")}
    for ex, story in zip(examples, generated_stories):
        for v in (1, 2, "L"):
            sums[v] += np.array(rouge_scores(story, ex.pair.story_text, v).as_tuple())
    n = len(examples)
    means = {v: sums[v] / n for v in sums}
    return EvalReport(
        ppl_subword=ppl_from_totals(total, subwords),
        ppl_word=ppl_from_totals(total, words),
        rouge1=RougeScore(*means[1]),
        rouge2=RougeScore(*means[2]),
        rougeL=RougeScore(*means["L"]),
        n_examples=n,
        n_subword_targets=subwords,
        n_words=words,
    )
