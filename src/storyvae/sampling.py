"""Autoregressive decoding with temperature, top-k and nucleus filtering.

Filtering order: divide logits by the temperature, softmax, keep the top-k
tokens, then keep the smallest descending-probability prefix of those
whose cumulative mass reaches p, and renormalize over the kept set.
Probability ties break toward the lower token id.  Generation decodes
incrementally under one decoder cache per story: it prefills the cache
with prompt ++ separator, then feeds one sampled token per step, so each
step runs the decoder over a single new row.  It stops when the
separator is emitted, the token budget runs out or the context reaches
``max_seq_len``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import latent as lt
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
    rng: np.random.Generator,
    use_mean: bool = False,
) -> lt.LatentCode:
    """Latent for generation: a prior sample by default, the prior mean on request."""
    gaussian = model.encode_prior(np.asarray(prompt_tokens, dtype=np.int64))
    if use_mean:
        return lt.mean_code(gaussian, lt.LatentSource.PRIOR_MEAN)
    noise = rng.standard_normal(model.config.latent_dim).astype(model.dtype)
    return lt.reparameterize(gaussian, noise, lt.LatentSource.PRIOR_SAMPLE)


def generate(
    model: StoryVAE,
    prompt_tokens,
    separator_id: int,
    config: SamplerConfig,
    latent: lt.LatentCode | None,
    rng: np.random.Generator,
) -> list[int]:
    """Decode one story; returns story tokens only (no prompt, no separator)."""
    prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
    if prompt_tokens.size < 1:
        raise ContractError("generation needs a nonempty prompt")
    max_len = model.config.max_seq_len
    if prompt_tokens.size + 1 > max_len:
        raise ContractError(
            f"prompt of {prompt_tokens.size} tokens leaves no room under max_seq_len {max_len}"
        )
    cache = model.decoder_cache(latent)
    pending = np.append(prompt_tokens, separator_id)
    story: list[int] = []
    for _ in range(config.max_new_tokens):
        if cache.length + pending.size >= max_len:
            break
        logits = model.decode_logits(pending, latent, cache=cache)
        probs = filter_logits(logits.data[-1], config)
        token = sample_token(probs, rng)
        if token == separator_id:
            break
        story.append(token)
        pending = np.array([token], dtype=np.int64)
    return story


def generate_for_prompt(
    model: StoryVAE,
    prompt_tokens,
    separator_id: int,
    config: SamplerConfig,
    example_index: int = 0,
    use_mean_latent: bool = False,
) -> tuple[list[int], lt.LatentCode]:
    """Convenience wrapper: derive the stream, draw the latent, decode."""
    rng = generation_rng(config.seed, example_index)
    latent = draw_latent(model, prompt_tokens, rng, use_mean=use_mean_latent)
    story = generate(model, prompt_tokens, separator_id, config, latent, rng)
    return story, latent


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
