#!/usr/bin/env python3
"""The three latent injection routes and the attention-average pooling block."""

import numpy as np

from storyvae import autograd as ag
from storyvae import latent as lt
from storyvae import transformer as tf
from storyvae.autograd import Tensor
from storyvae.model import StoryVAE
from storyvae.transformer import ModelConfig

cfg = ModelConfig(d=32, layers=2, encoder_layers=1, heads=4, latent_dim=16,
                  vocab_size=64, max_seq_len=32,
                  injection_modes=("input", "psa", "softmax"))
model = StoryVAE.create(cfg, seed=7)
tokens = np.array([5, 9, 12, 3])

# Latent-free baseline vs each injection route with a random latent.
base = model.decode_logits(tokens, None, modes=()).data
z = lt.LatentCode.external(np.random.default_rng(0).standard_normal(16).astype(np.float32))
for mode in ("input", "psa", "softmax"):
    out = model.decode_logits(tokens, z, modes=(mode,)).data
    print(f"{mode:8s} max |logit shift| = {np.abs(out - base).max():.4f}")

# With a zero latent and zeroed injection projections every route is inert.
for name in model.params.names():
    if name.startswith("inject.") or ".psa." in name:
        model.params[name].data[...] = 0.0
zero = lt.LatentCode.external(np.zeros(16, dtype=np.float32))
out = model.decode_logits(tokens, zero, modes=("input", "psa", "softmax")).data
print("zeroed injections are bit-identical to baseline:", np.array_equal(out, base))

# Pseudo self-attention exposes its augmented key/value geometry: the latent
# row's key and value are row 0 of each layer's key/value stacks, queries
# stay token-only, and the causal mask never blocks the latent column.  A
# decoder cache makes every layer's latent rows, the input row and the
# softmax bias as one tape node.  Decoding the tokens through it fills its
# stacks; running layer 0's attention sublayer (layer norm, products,
# attention and the residual add, one node) again over the same rows, after
# the latent row, shows its weights.
fresh = StoryVAE.create(cfg, seed=8)
cache = fresh.decoder_cache(z, modes=("psa",))
tf.decode_stack(cache, tokens)
x = ag.embedding(cache.word, cache.pos, tokens, 0)
p = cache.blocks[0].attn
out, weights = ag.attention_sublayer(x, p.ln_g, p.ln_b, p.wq, p.bq, p.wk, p.wv, p.bv, p.wo, p.bo, *cache.stacks[0],
                                     1, None, tf.causal_mask(4, 1), return_weights=True)
print("PSA: output rows =", out.shape[0], "| weight matrices =", len(weights),
      "(one per head) | key columns =", weights[0].shape[1], "(1 + tokens)")
print("latent column weights, head 0:", np.round(weights[0][:, 0], 3))

# The pooling block (the encoder's final layer norm, then attention by a learned
# query) squeezes any-length sequences into one vector, which the prior's heads
# turn into a Gaussian of the latent's width, in the same tape node.
pool = [model.params[name] for name in tf.POOL_NAMES]
prior = [model.params[f"prior.{name}"] for name in ("mu.w", "mu.b", "ls.w", "ls.b")]
for length in (1, 3, 9):
    h = Tensor(np.random.default_rng(3).standard_normal((length, 32)).astype(np.float32))
    mu, log_sigma, weights = ag.pool_gaussian(h, *pool, *prior, n_heads=4, lo=lt.LOG_SIGMA_MIN, hi=lt.LOG_SIGMA_MAX,
                                              return_weights=True)
    print(f"pool over {length} rows -> mean {mu.shape} and log-sigma {log_sigma.shape} | weights {weights.shape}")
