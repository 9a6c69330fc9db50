"""Autoregressive decoding with temperature, top-k and nucleus filtering.

Filtering order: divide logits by the temperature, softmax, keep the top-k
tokens, then keep the smallest descending-probability prefix of those
whose cumulative mass reaches p, and renormalize over the kept set.
Probability ties break toward the lower token id.  ``filter_logits``
filters one (V,) vector or each row of a (B, V) block, with the same bits
per row either way.

Generation decodes a batch of equal-length prompts in lockstep under one
decoder cache (``generate_batch``): it prefills the cache with each
prompt ++ separator, then feeds one token per story per step, so each
step runs the decoder once over one new row per story.  Every story
samples from its own generator, and only while it runs: a story stops
when it emits the separator, and the batch stops when the token budget
runs out, the context reaches ``max_seq_len`` or every story has
stopped.  Each step makes one filter call and one draw
(``sample_tokens``) over the rows still running, so a stopped story
consumes nothing from its generator.  A stopped story's row keeps being
fed the separator, whose logits are never read, so each story gets the
same tokens and the same bits as when it is decoded alone.  ``generate``
runs the same loop for one prompt without a batch axis.
``generate_for_prompts`` groups a corpus's prompts by length and decodes
each group in lockstep.  Each story's latent is a sample of its prompt's
prior, or the prior mean when ``SamplerConfig.latent_mean`` is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import latent as lt
from . import transformer as tf
from .autograd import SCALARS, Tensor
from .model import StoryVAE
from .transformer import ContractError


# The filter's scalar operands, as 0-d float64 arrays (``autograd.SCALARS``).
_F64 = SCALARS[np.dtype(np.float64)]


@dataclass(frozen=True)
class SamplerConfig:
    top_k: int = 100
    top_p: float = 0.9
    temperature: float = 0.9
    max_new_tokens: int = 128
    seed: int = 0
    latent_mean: bool = False

    def __post_init__(self):
        if self.top_k < 1:
            raise ContractError(f"top_k must be at least 1, got {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise ContractError(f"top_p must lie in (0, 1], got {self.top_p}")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ContractError(f"temperature must be positive and finite, got {self.temperature}")
        if self.max_new_tokens < 0:
            raise ContractError("max_new_tokens must be nonnegative")
        if self.seed < 0:
            raise ContractError(f"seed must be nonnegative, got {self.seed}")


def filter_logits(logits: np.ndarray, config: SamplerConfig) -> np.ndarray:
    """Turn logits into filtered sampling distributions, one per row.

    ``logits`` is one (V,) vector or a (B, V) block whose rows are
    filtered independently; each row gets exactly the bits it gets alone.
    Returns full-width probabilities of the same shape: zero outside the
    kept set, renormalized inside it.  Computed in float64 throughout so
    the kept set is reproducible bit-for-bit.
    """
    logits = np.asarray(logits)
    if logits.ndim not in (1, 2) or logits.shape[-1] < 1:
        raise ContractError(f"filter_logits expects a logit vector or a (B, V) block, got shape {logits.shape}")
    v = logits.shape[-1]
    scaled = np.divide(logits.reshape(-1, v), _F64[config.temperature], dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(scaled), axis=None):
        raise ContractError("filter_logits expects finite logits, and finite after the temperature")
    # Ufunc reductions rather than .all/.max/.sum/cumsum/.any: the same bits
    # without the Python wrappers, whose call cost dominates a one-row step.
    scaled -= np.maximum.reduce(scaled, axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)

    # The kept set is the shortest prefix of the descending-probability
    # order whose mass reaches p.  Only the top-k values are sorted: equal
    # values add up the same whichever id comes first.
    k = min(config.top_k, v)
    top = np.sort(np.partition(probs, v - k, axis=-1)[:, v - k:], axis=-1)[:, ::-1]
    cut = np.add.reduce(np.add.accumulate(top[:, :-1], axis=-1) < _F64[config.top_p], axis=-1)
    last = top[np.arange(top.shape[0]), cut][:, None]
    kept = probs >= last
    # Ties at the last kept probability can overflow the prefix; then the
    # lower ids stay.  Model logits almost never tie, so the id-order scan
    # that trims them runs only when some row overflows.
    excess = np.add.reduce(kept, axis=-1, keepdims=True) - 1 - cut[:, None]
    if np.logical_or.reduce(excess, axis=None):
        tied = probs == last
        kept &= ~tied | (np.add.accumulate(tied, axis=-1) <= np.add.reduce(tied, axis=-1, keepdims=True) - excess)
    out = np.where(kept, probs, _F64[0.0])
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out.reshape(logits.shape)


def sample_tokens(probs: np.ndarray, rngs) -> np.ndarray:
    """Draw one token id per row of a (B, V) block of distributions.

    Row b spends one ``random()`` draw of ``rngs[b]`` on the inverse CDF,
    as ``rngs[b].choice(V, p=probs[b])`` does: the same token, and the
    same generator state afterwards.
    """
    u = np.array([rng.random() for rng in rngs])
    cdf = np.add.accumulate(probs, axis=-1)
    cdf /= cdf[:, -1:]
    return np.add.reduce(cdf <= u[:, None], axis=-1)


def generation_rng(base_seed: int, example_index: int = 0) -> np.random.Generator:
    """Each generation owns its stream, derived from the base seed and an index."""
    return np.random.default_rng([base_seed, example_index, 0x5A11])


def draw_latent(
    model: StoryVAE,
    prompt_tokens,
    rng,
    use_mean: bool = False,
    prior: lt.DiagonalGaussian | None = None,
) -> lt.LatentCode:
    """Latent for generation: a prior sample by default, the prior mean on request.

    ``prompt_tokens`` is one (P,) prompt with ``rng`` its generator, or a
    (B, P) batch of equal-length prompts with ``rng`` a sequence of B
    generators, each drawing its own row's noise; a batch gives a (B, d')
    latent.  ``prior`` is the prompts' prior when the caller has encoded
    it already.
    """
    prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
    gaussian = model.encode_prior(prompt_tokens) if prior is None else prior
    if use_mean:
        return lt.mean_code(gaussian, lt.LatentSource.PRIOR_MEAN)
    d = model.config.latent_dim
    if prompt_tokens.ndim == 1:
        noise = rng.standard_normal(d).astype(model.dtype)
    else:
        noise = np.stack([r.standard_normal(d).astype(model.dtype) for r in rng])
    return lt.reparameterize(gaussian, noise, lt.LatentSource.PRIOR_SAMPLE)


def generate_batch(
    model: StoryVAE,
    prompts,
    separator_id: int,
    config: SamplerConfig,
    latent: lt.LatentCode | None,
    rngs,
) -> list[list[int]]:
    """Decode a (B, P) batch of equal-length prompts in lockstep, one story per row.

    ``latent`` is the (B, d') batch of the rows' latents, and row b
    samples from ``rngs[b]``.  One (P,) prompt with a (d',) latent and
    one generator runs the same loop without a batch axis.  Returns each
    row's story tokens (no prompt, no separator).  The cache holds only
    the rows a story can reach: prompt, separator and budget, capped by
    ``max_seq_len``.
    """
    prompts = np.asarray(prompts, dtype=np.int64)
    if prompts.ndim not in (1, 2) or prompts.shape[-1] < 1:
        raise ContractError(f"generation needs a nonempty prompt or (B, P) batch of them, got shape {prompts.shape}")
    lead, p = prompts.shape[:-1], prompts.shape[-1]
    n = lead[0] if lead else 1
    if len(rngs) != n:
        raise ContractError(f"{n} prompts need {n} generators, got {len(rngs)}")
    max_len = model.config.max_seq_len
    if p + 1 > max_len:
        raise ContractError(f"prompt of {p} tokens leaves no room under max_seq_len {max_len}")
    cache = model.decoder_cache(latent, positions=min(max_len, p + 1 + config.max_new_tokens))
    pending = np.concatenate([prompts, np.full(lead + (1,), separator_id)], axis=-1)
    stories: list[list[int]] = [[] for _ in range(n)]
    running = list(range(n))
    for _ in range(config.max_new_tokens):
        if not running or cache.length + pending.shape[-1] >= max_len:
            break
        logits = tf.decode_stack(cache, pending).data[..., -1, :].reshape(n, -1)
        if len(running) < n:  # a story has stopped: only the running rows are filtered and drawn
            logits = logits[running]
        tokens = sample_tokens(filter_logits(logits, config), [rngs[b] for b in running]).tolist()
        pending = np.full(lead + (1,), separator_id)
        fed = pending.reshape(n)
        for b, token in zip(running, tokens):
            if token != separator_id:
                stories[b].append(token)
                fed[b] = token
        running = [b for b, token in zip(running, tokens) if token != separator_id]
    return stories


def generate(
    model: StoryVAE,
    prompt_tokens,
    separator_id: int,
    config: SamplerConfig,
    latent: lt.LatentCode | None,
    rng: np.random.Generator,
) -> list[int]:
    """Decode one story under a (d',) latent through ``generate_batch``.

    Returns story tokens only (no prompt, no separator).
    """
    prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
    if prompt_tokens.ndim != 1 or prompt_tokens.size < 1:
        raise ContractError("generation needs a nonempty prompt")
    return generate_batch(model, prompt_tokens, separator_id, config, latent, [rng])[0]


def generate_for_prompt(
    model: StoryVAE,
    prompt_tokens,
    separator_id: int,
    config: SamplerConfig,
    example_index: int = 0,
) -> tuple[list[int], lt.LatentCode]:
    """Convenience wrapper: derive the stream, draw the latent, decode."""
    return control_generate(model, prompt_tokens, prompt_tokens, separator_id, config, example_index)


def generate_for_prompts(
    model: StoryVAE,
    prompts,
    separator_id: int,
    config: SamplerConfig,
    prior_means: np.ndarray | None = None,
) -> tuple[list[list[int]], lt.LatentCode]:
    """One story per prompt, the prompts grouped by length and each group decoded in lockstep.

    Prompt i uses the stream ``generation_rng(config.seed, i)``, so story
    i is the one ``generate_for_prompt`` gives with ``example_index=i``.
    Returns the stories and the (N, d') latents, both in prompt order.
    Given an (N, d') ``prior_means`` array, row i receives prompt i's prior
    mean, the mean ``evaluation.corpus_nll`` scores under.
    """
    prompts = [np.asarray(t, dtype=np.int64) for t in prompts]
    if not prompts:
        raise ContractError("generation needs at least one prompt")
    stories: list[list[int]] = [[] for _ in prompts]
    z = np.empty((len(prompts), model.config.latent_dim), dtype=model.dtype)
    for group in tf.length_groups(prompts):
        batch = np.stack([prompts[i] for i in group])
        rngs = [generation_rng(config.seed, int(i)) for i in group]
        prior = model.encode_prior(batch)
        latent = draw_latent(model, batch, rngs, use_mean=config.latent_mean, prior=prior)
        if prior_means is not None:
            prior_means[group] = prior.mu.data
        for i, story in zip(group, generate_batch(model, batch, separator_id, config, latent, rngs)):
            stories[i] = story
        z[group] = latent.z.data
    return stories, lt.LatentCode(Tensor(z), latent.source)


def control_generate(
    model: StoryVAE,
    prefix_prompt_tokens,
    latent_prompt_tokens,
    separator_id: int,
    config: SamplerConfig,
    example_index: int = 0,
) -> tuple[list[int], lt.LatentCode]:
    """Decode with one prompt as the text prefix and another prompt's latent.

    The latent is drawn from the prior of the second prompt, so the story
    follows the first prompt's surface context but the second prompt's
    latent semantics.
    """
    rng = generation_rng(config.seed, example_index)
    latent = draw_latent(model, latent_prompt_tokens, rng, use_mean=config.latent_mean)
    story = generate(model, prefix_prompt_tokens, separator_id, config, latent, rng)
    return story, latent
