"""Optimization loop: cyclic KL annealing, Adam, freezing, metrics.

The KL weight follows a cyclic schedule: zero (or a configured floor) for
the first half of each cycle, a linear ramp to one over the next quarter,
and one for the final quarter.  Each train step sets ``requires_grad``
on exactly the parameters it updates, so frozen parameters get no
gradient, and no update, until the freeze horizon passes.  Given a
seed, corpus and config, training is bit-reproducible on a single thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import ParameterSet
from .model import StoryVAE
from .transformer import ContractError

METRICS_HEADER = "step,loss,recon,kl,beta,grad_norm"


class TrainingAbort(RuntimeError):
    """Raised when a step produces non-finite numbers; carries the culprit."""

    def __init__(self, step: int, batch_index: int, example_index: int, reason: str):
        super().__init__(
            f"non-finite loss at step {step}, batch slot {batch_index} "
            f"(example {example_index}): {reason}"
        )
        self.step = step
        self.batch_index = batch_index
        self.example_index = example_index


@dataclass
class TrainingSchedule:
    total_steps: int
    cycle_length: int | None = None
    freeze_steps: int = 0
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 8
    seed: int = 0
    beta_floor: float = 0.0
    grad_clip: float = 1.0
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.total_steps < 1:
            raise ContractError("total_steps must be positive")
        if self.cycle_length is None:
            # Four annealing cycles by default.
            object.__setattr__(self, "cycle_length", max(1, self.total_steps // 4))
        if not 0 < self.cycle_length <= self.total_steps:
            raise ContractError(
                f"cycle_length must lie in [1, total_steps], got {self.cycle_length}"
            )
        if self.freeze_steps < 0:
            raise ContractError("freeze_steps must be nonnegative")
        if not 0.0 <= self.beta_floor < 1.0:
            raise ContractError("beta_floor must lie in [0, 1)")
        if self.batch_size < 1:
            raise ContractError("batch_size must be positive")

    def to_dict(self) -> dict:
        return {
            "total_steps": self.total_steps,
            "cycle_length": self.cycle_length,
            "freeze_steps": self.freeze_steps,
            "learning_rate": self.learning_rate,
            "adam_beta1": self.adam_beta1,
            "adam_beta2": self.adam_beta2,
            "adam_eps": self.adam_eps,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "beta_floor": self.beta_floor,
            "grad_clip": self.grad_clip,
            "checkpoint_every": self.checkpoint_every,
        }


def beta_at(step: int, schedule: TrainingSchedule) -> float:
    """Cyclic KL weight: floor, then a linear quarter-cycle ramp, then one."""
    if step < 0:
        raise ContractError("step must be nonnegative")
    c = schedule.cycle_length
    r = (step % c) / c
    if r < 0.5:
        return schedule.beta_floor
    if r < 0.75:
        return schedule.beta_floor + (1.0 - schedule.beta_floor) * 4.0 * (r - 0.5)
    return 1.0


class Adam:
    """Adam with per-parameter update counts so frozen spans stay unbiased."""

    def __init__(self, params: ParameterSet, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.t = {n: 0 for n in params.names()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.t[name] += 1
            t = self.t[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)


def reference_adam_scalar(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Plain-math Adam on one scalar; the oracle the optimizer is checked against."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        x -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)
    return x


def global_grad_norm(params: ParameterSet) -> float:
    total = 0.0
    for _, p in params.items():
        g = p.grad
        if g is not None:
            total += float((g.astype(np.float64) ** 2).sum())
    return math.sqrt(total)


def clip_gradients(params: ParameterSet, max_norm: float) -> float:
    """Scale gradients to the given global norm; returns the pre-clip norm."""
    norm = global_grad_norm(params)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, p in params.items():
            g = p.grad
            if g is not None:
                g *= scale
    return norm


class Trainer:
    """Single-writer loop over encoded examples with append-only metrics."""

    def __init__(self, model: StoryVAE, examples, schedule: TrainingSchedule,
                 separator_id: int | None = None):
        if not examples:
            raise ContractError("cannot train on an empty example list")
        if model.mode == "vae" and separator_id is None:
            raise ContractError("vae mode needs the separator id for decoder framing")
        self.model = model
        self.examples = list(examples)
        self.schedule = schedule
        self.separator_id = separator_id
        self.optimizer = Adam(
            model.params, schedule.learning_rate,
            schedule.adam_beta1, schedule.adam_beta2, schedule.adam_eps,
        )
        self.step_count = 0
        self.metrics: list[dict] = []
        self._batch_rng = np.random.default_rng([schedule.seed, 1])
        self._noise_rng = np.random.default_rng([schedule.seed, 2])
        self._drop_rng = np.random.default_rng([schedule.seed, 3])
        self._freeze_until = 0
        self._freeze_names: set[str] = set()
        if schedule.freeze_steps > 0:
            self.set_frozen(self.default_freeze_names(), schedule.freeze_steps)

    def default_freeze_names(self) -> list[str]:
        """The pretrained-analogue parameters: both stacks and the embeddings.

        Per-layer latent key/value projections are new, never frozen.
        """
        return [
            n for n in self.model.params.names()
            if n.startswith(("embed.", "enc.", "dec.")) and ".psa." not in n
        ]

    def set_frozen(self, names, until_step: int) -> None:
        names = list(names)
        for n in names:
            if n not in self.model.params:
                raise KeyError(f"unknown parameter: {n}")
        self._freeze_names = set(names)
        self._freeze_until = int(until_step)

    def _apply_freeze(self) -> None:
        frozen = self._freeze_names if self.step_count < self._freeze_until else set()
        for name, p in self.model.params.items():
            p.requires_grad = name not in frozen

    def _example_loss(self, example, beta: float, drop_rng):
        noise = self._noise_rng.standard_normal(self.model.config.latent_dim).astype(self.model.dtype)
        if self.model.mode == "cvae":
            return self.model.cvae_loss(example, noise, beta, drop_rng=drop_rng)
        story = np.asarray(example.pair.story_tokens, dtype=np.int64)
        return self.model.vae_loss(story, self.separator_id, noise, beta, drop_rng=drop_rng)

    def train_step(self, batch_indices) -> dict:
        """One forward/backward/update over a batch of example indices."""
        beta = beta_at(self.step_count, self.schedule)
        self._apply_freeze()
        params = self.model.params
        params.zero_grads()

        drop_rng = self._drop_rng if self.model.config.dropout > 0 else None
        losses, recon_sum, kl_sum = [], 0.0, 0.0
        for slot, idx in enumerate(batch_indices):
            try:
                loss, breakdown = self._example_loss(self.examples[idx], beta, drop_rng)
            except ag.NumericsError as e:
                raise TrainingAbort(self.step_count, slot, int(idx), str(e)) from e
            losses.append(loss)
            recon_sum += breakdown.reconstruction_nats
            kl_sum += breakdown.kl_nats

        total = losses[0]
        for extra in losses[1:]:
            total = ag.add(total, extra)
        total = ag.mul_scalar(total, 1.0 / len(losses))
        ag.backward(total)

        grad_norm = clip_gradients(params, self.schedule.grad_clip)
        self.optimizer.step()

        record = {
            "step": self.step_count,
            "loss": float(total.data),
            "recon": recon_sum / len(losses),
            "kl": kl_sum / len(losses),
            "beta": beta,
            "grad_norm": grad_norm,
        }
        self.metrics.append(record)
        self.step_count += 1
        return record

    def draw_batch(self) -> np.ndarray:
        return self._batch_rng.integers(0, len(self.examples), size=self.schedule.batch_size)

    def train(self, checkpoint_dir=None, vocabulary_ref: str | None = None,
              progress=None) -> list[dict]:
        for _ in range(self.schedule.total_steps):
            record = self.train_step(self.draw_batch())
            if progress is not None:
                progress(record)
            every = self.schedule.checkpoint_every
            if checkpoint_dir and every and self.step_count % every == 0:
                self.save_checkpoint(checkpoint_dir, vocabulary_ref)
        if checkpoint_dir:
            self.save_checkpoint(checkpoint_dir, vocabulary_ref)
        return self.metrics

    def metrics_csv(self) -> str:
        lines = [METRICS_HEADER]
        for r in self.metrics:
            lines.append(
                f"{r['step']},{r['loss']!r},{r['recon']!r},{r['kl']!r},{r['beta']!r},{r['grad_norm']!r}"
            )
        return "\n".join(lines) + "\n"

    def write_metrics(self, path) -> None:
        Path(path).write_text(self.metrics_csv(), encoding="ascii")

    def save_checkpoint(self, directory, vocabulary_ref: str | None = None) -> None:
        opt = self.optimizer
        tensors = []
        for name in self.model.params.names():
            tensors.append((f"adam.m.{name}", opt.m[name]))
            tensors.append((f"adam.v.{name}", opt.v[name]))
        payload = {
            "tensors": tensors,
            "update_counts": {n: opt.t[n] for n in sorted(opt.t)},
        }
        self.model.save(directory, vocabulary=vocabulary_ref, step=self.step_count,
                        optimizer_payload=payload)

    def load_optimizer_state(self, directory, manifest: dict) -> None:
        from .model import read_tensor_file

        info = manifest.get("optimizer")
        if not info:
            return
        arrays = dict(read_tensor_file(Path(directory) / info["payload"], manifest.get("dtype", "<f4")))
        for name in self.model.params.names():
            self.optimizer.m[name] = arrays[f"adam.m.{name}"].astype(self.model.dtype)
            self.optimizer.v[name] = arrays[f"adam.v.{name}"].astype(self.model.dtype)
        self.optimizer.t.update({n: int(c) for n, c in info["update_counts"].items()})
        self.step_count = int(manifest.get("step", 0))
