"""Autoregressive decoding with temperature, top-k and nucleus filtering.

Filtering order: divide logits by the temperature, softmax, keep the top-k
tokens, then keep the smallest descending-probability prefix of those
whose cumulative mass reaches p, and renormalize over the kept set.
Probability ties break toward the lower token id.

Generation decodes a batch of equal-length prompts in lockstep under one
decoder cache (``generate_batch``): it prefills the cache with each
prompt ++ separator, then feeds one token per story per step, so each
step runs the decoder once over one new row per story.  Every story
samples from its own generator, and only while it runs: a story stops
when it emits the separator, and the batch stops when the token budget
runs out, the context reaches ``max_seq_len`` or every story has
stopped.  A stopped story's row keeps being fed the separator, whose
logits are never read, so each story gets the same tokens and the same
bits as when it is decoded alone.  ``generate`` runs the same loop for
one prompt without a batch axis.
``generate_for_prompts`` groups a corpus's prompts by length and decodes
each group in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import latent as lt
from . import transformer as tf
from .autograd import Tensor
from .model import StoryVAE
from .transformer import ContractError


@dataclass(frozen=True)
class SamplerConfig:
    top_k: int = 100
    top_p: float = 0.9
    temperature: float = 0.9
    max_new_tokens: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.top_k < 1:
            raise ContractError(f"top_k must be at least 1, got {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise ContractError(f"top_p must lie in (0, 1], got {self.top_p}")
        if self.temperature <= 0.0:
            raise ContractError(f"temperature must be positive, got {self.temperature}")
        if self.max_new_tokens < 0:
            raise ContractError("max_new_tokens must be nonnegative")


def filter_logits(logits: np.ndarray, config: SamplerConfig) -> np.ndarray:
    """Turn one logit vector into the filtered sampling distribution.

    Returns a full-width probability vector: zero outside the kept set,
    renormalized inside it.  Computed in float64 throughout so the kept
    set is reproducible bit-for-bit.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ContractError(f"filter_logits expects one logit vector, got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise ContractError("filter_logits expects finite logits")
    scaled = logits / config.temperature
    scaled -= scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()

    # Descending probability, lower id first on ties.
    order = np.lexsort((np.arange(probs.size), -probs))
    kept = order[: min(config.top_k, probs.size)]
    cumulative = np.cumsum(probs[kept])
    cut = int(np.searchsorted(cumulative, config.top_p)) + 1
    kept = kept[:cut]

    out = np.zeros_like(probs)
    out[kept] = probs[kept]
    out /= out.sum()
    return out


def sample_token(probs: np.ndarray, rng: np.random.Generator) -> int:
    return int(rng.choice(probs.size, p=probs))


def generation_rng(base_seed: int, example_index: int = 0) -> np.random.Generator:
    """Each generation owns its stream, derived from the base seed and an index."""
    return np.random.default_rng([base_seed, example_index, 0x5A11])


def draw_latent(
    model: StoryVAE,
    prompt_tokens,
    rng,
    use_mean: bool = False,
) -> lt.LatentCode:
    """Latent for generation: a prior sample by default, the prior mean on request.

    ``prompt_tokens`` is one (P,) prompt with ``rng`` its generator, or a
    (B, P) batch of equal-length prompts with ``rng`` a sequence of B
    generators, each drawing its own row's noise; a batch gives a (B, d')
    latent.
    """
    prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
    gaussian = model.encode_prior(prompt_tokens)
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
        logits = model.decode_logits(pending, latent, cache=cache).data[..., -1, :].reshape(n, -1)
        pending = np.full(lead + (1,), separator_id)
        fed = pending.reshape(n)
        for b in list(running):
            token = sample_token(filter_logits(logits[b], config), rngs[b])
            if token == separator_id:
                running.remove(b)
            else:
                stories[b].append(token)
                fed[b] = token
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
    use_mean_latent: bool = False,
) -> tuple[list[int], lt.LatentCode]:
    """Convenience wrapper: derive the stream, draw the latent, decode."""
    return control_generate(model, prompt_tokens, prompt_tokens, separator_id, config, example_index, use_mean_latent)


def generate_for_prompts(
    model: StoryVAE,
    prompts,
    separator_id: int,
    config: SamplerConfig,
    use_mean_latent: bool = False,
) -> tuple[list[list[int]], lt.LatentCode]:
    """One story per prompt, the prompts grouped by length and each group decoded in lockstep.

    Prompt i uses the stream ``generation_rng(config.seed, i)``, so story
    i is the one ``generate_for_prompt`` gives with ``example_index=i``.
    Returns the stories and the (N, d') latents, both in prompt order.
    """
    prompts = [np.asarray(t, dtype=np.int64) for t in prompts]
    if not prompts:
        raise ContractError("generation needs at least one prompt")
    stories: list[list[int]] = [[] for _ in prompts]
    z = np.empty((len(prompts), model.config.latent_dim), dtype=model.dtype)
    for group in tf.length_groups(prompts):
        batch = np.stack([prompts[i] for i in group])
        rngs = [generation_rng(config.seed, int(i)) for i in group]
        latent = draw_latent(model, batch, rngs, use_mean=use_mean_latent)
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
    use_mean_latent: bool = False,
) -> tuple[list[int], lt.LatentCode]:
    """Decode with one prompt as the text prefix and another prompt's latent.

    The latent is drawn from the prior of the second prompt, so the story
    follows the first prompt's surface context but the second prompt's
    latent semantics.
    """
    rng = generation_rng(config.seed, example_index)
    latent = draw_latent(model, latent_prompt_tokens, rng, use_mean=use_mean_latent)
    story = generate(model, prefix_prompt_tokens, separator_id, config, latent, rng)
    return story, latent
