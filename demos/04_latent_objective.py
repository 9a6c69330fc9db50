#!/usr/bin/env python3
"""The two-term objective, the annealing schedule, and a few training steps."""

import numpy as np

import storyvae as sv
from storyvae import corpus as cp
from storyvae.training import METRICS_HEADER, beta_at, metrics_row

pairs = cp.load_corpus(cp.toy_corpus_path())
vocab = cp.fit_vocabulary([p.prompt_text for p in pairs] + [p.story_text for p in pairs], 512)
examples = cp.prepare_corpus(pairs, vocab, max_len=64)

cfg = sv.ModelConfig(d=32, layers=2, encoder_layers=1, heads=2, latent_dim=8,
                     vocab_size=vocab.size, max_seq_len=64, injection_modes=("psa",))
model = sv.StoryVAE.create(cfg, seed=0)

# One objective evaluation: masked story reconstruction plus beta * KL; at beta 1 the loss is minus the ELBO estimate.
noise = np.random.default_rng(0).standard_normal(8).astype(np.float32)
loss, parts = model.cvae_loss(examples[0], noise, beta=1.0)
print(f"reconstruction={parts.reconstruction_nats:.3f} nats over {parts.token_count} targets, "
      f"kl={parts.kl_nats:.4f} nats, elbo estimate={-float(loss.data):.3f}")

# The cyclic schedule: floor for half a cycle, a linear ramp, then one.
schedule = sv.TrainingSchedule(total_steps=800, cycle_length=200, batch_size=4, seed=0)
marks = [0, 99, 100, 124, 150, 175, 199, 200]
print("beta over one cycle:", {s: round(beta_at(s, schedule), 3) for s in marks})

# A short run; the metrics log carries loss, both terms, beta and grad norm.
trainer = sv.Trainer(model, examples, sv.TrainingSchedule(
    total_steps=40, cycle_length=40, learning_rate=3e-3, batch_size=4, seed=0,
), separator_id=vocab.separator_id)
trainer.train()
first, last = trainer.metrics[0], trainer.metrics[-1]
print(f"step {first['step']}: loss={first['loss']:.3f}  ->  step {last['step']}: loss={last['loss']:.3f}")
print("csv head:", METRICS_HEADER)
print("csv last row:", metrics_row(last).strip())
