#!/usr/bin/env python3
"""The three latent injection routes and the attention-average pooling block."""

import numpy as np

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

# Pseudo self-attention exposes its augmented key/value geometry: one latent
# row is prefixed, queries stay token-only, and the causal mask never blocks
# the latent column.
p = tf.attention_params(StoryVAE.create(cfg, seed=8).params, "dec.0")
x = Tensor(np.random.default_rng(1).standard_normal((4, 32)).astype(np.float32))
z_slice = Tensor(np.random.default_rng(2).standard_normal((1, 32)).astype(np.float32))
out, weights = tf.multi_head_attention(x, p, n_heads=4, causal=True, z_slice=z_slice, return_weights=True)
print("PSA: output rows =", out.shape[0], "| weight matrices =", len(weights),
      "(one per head) | key columns =", weights[0].shape[1], "(1 + tokens)")
print("latent column weights, head 0:", np.round(weights[0][:, 0], 3))

# The pooling block squeezes any-length sequences into one vector.
pool = tf.pooling_params(model.params)
for length in (1, 3, 9):
    h = Tensor(np.random.default_rng(3).standard_normal((length, 32)).astype(np.float32))
    print(f"attention_average over {length} rows ->", tf.attention_average(h, pool, 4).shape)
