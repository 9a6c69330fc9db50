"""Optimization loop: cyclic KL annealing, Adam, freezing, metrics.

The KL weight follows a cyclic schedule: zero (or a configured floor) for
the first half of each cycle, a linear ramp to one over the next quarter,
and one for the final quarter.  A train step runs its whole batch as one
right-padded (B, T) forward and one backward of the batch-mean
objective, with the latent noise drawn as one (B, d') block.  The
schedule alone decides what trains: for its first ``freeze_steps`` steps
the pretrained analogues (``is_pretrained_analogue``) get no gradient
and no update.  Each train step sets ``requires_grad`` on exactly the
parameters it updates and clears it again before it returns.  Then
``Adam.step`` clips and updates in one walk over the parameter set's
flat gradient buffer and the flat moment buffers, one run of
consecutive parameters at a time.
Checkpoints keep the cycle length, freeze horizon and beta floor, so a
resumed run continues the same schedule.  Given a seed, corpus and
config, training is bit-reproducible on a single thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import ParameterSet
from .model import MANIFEST_FILE, RNG_STREAMS, StoryVAE, read_tensor_file
from .transformer import ContractError

METRICS_COLUMNS = ("step", "loss", "recon", "kl", "beta", "grad_norm")
METRICS_HEADER = ",".join(METRICS_COLUMNS)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingAbort(RuntimeError):
    """Raised when a step produces non-finite numbers; carries the culprit.

    A non-finite loss names the first batch slot whose example raises
    when scored alone (``batch_index`` and ``example_index`` are None
    when none does); a non-finite gradient norm names the ``parameter``
    at which the running sum of squared gradients turns non-finite.
    """

    def __init__(self, step: int, batch_index: int | None, example_index: int | None, reason: str,
                 parameter: str | None = None):
        if parameter is not None:
            message = f"non-finite gradient norm at step {step}, parameter {parameter!r}: {reason}"
        else:
            culprit = ("no batch slot raises alone" if batch_index is None
                       else f"batch slot {batch_index} (example {example_index})")
            message = f"non-finite loss at step {step}, {culprit}: {reason}"
        super().__init__(message)
        self.step = step
        self.batch_index = batch_index
        self.example_index = example_index
        self.parameter = parameter


@dataclass
class TrainingSchedule:
    total_steps: int
    cycle_length: int | None = None
    freeze_steps: int = 0
    learning_rate: float = 1e-3
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
            self.cycle_length = max(1, self.total_steps // 4)
        # A cycle may outlast the run: a resumed run continues its checkpoint's cycle.
        if self.cycle_length < 1:
            raise ContractError(f"cycle_length must be at least 1, got {self.cycle_length}")
        if self.freeze_steps < 0:
            raise ContractError("freeze_steps must be nonnegative")
        if not 0.0 <= self.beta_floor < 1.0:
            raise ContractError("beta_floor must lie in [0, 1)")
        if self.batch_size < 1:
            raise ContractError("batch_size must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ContractError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0.0):
            raise ContractError(f"grad_clip must be nonnegative and finite (0 turns clipping off), got {self.grad_clip}")
        if self.seed < 0:
            raise ContractError(f"seed must be nonnegative, got {self.seed}")
        if self.checkpoint_every < 0:
            raise ContractError(f"checkpoint_every must be nonnegative, got {self.checkpoint_every}")


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


def metrics_row(r: dict) -> str:
    """One ``metrics.csv`` line, newline included, for a ``train_step`` record."""
    return ",".join(repr(r[column]) for column in METRICS_COLUMNS) + "\n"


def is_pretrained_analogue(name: str) -> bool:
    """Whether a parameter stands in for pre-trained GPT-2: both stacks and the embeddings.

    These are what ``freeze_steps`` freezes.  The per-layer latent
    key/value projections (``.psa.``) are new, never frozen.
    """
    return name.startswith(("embed.", "enc.", "dec.")) and ".psa." not in name


class Adam:
    """Gradient-clipped Adam over the parameter set's flat buffers, with per-parameter update counts.

    ``m`` and ``v`` are flat moment buffers laid out as the parameters
    are, and ``moments`` gives one parameter's views of them.  The update
    counts keep frozen spans unbiased.  ``step`` makes the one walk of a
    train step over the gradient buffer: it takes the parameters that
    have a gradient as runs of consecutive ones that share an update
    count, adds the float64 per-tensor sums of squares in layout order,
    scales the gradients to the clip bound, and updates each run with a
    dozen whole-slice numpy calls into two ``scratch`` rows of
    ``run_elements``.  Per element that is the same arithmetic, in the
    same order, as clipping and then updating each parameter on its own.
    """

    # A run spans at most this many elements, or the largest tensor if that is longer.
    RUN_ELEMENTS = 32768

    def __init__(self, params: ParameterSet, lr: float):
        self.params = params
        self.lr = lr
        params.track_gradients()
        size, dtype = params.data_buffer.size, params.data_buffer.dtype
        self.m = ag.flat_buffer(size, dtype)
        self.v = ag.flat_buffer(size, dtype)
        self.t = {n: 0 for n in params.names()}
        self.run_elements = max([self.RUN_ELEMENTS, *(p.data.size for _, p in params.items())])
        # The update's temporaries, or the norm's float64 squares in the same bytes.
        self.scratch = ag.flat_buffer(2 * self.run_elements, dtype).reshape(2, -1)

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """One parameter's first and second moments, as views of ``m`` and ``v``."""
        lo, hi = self.params.span(name)
        shape = self.params[name].shape
        return self.m[lo:hi].reshape(shape), self.v[lo:hi].reshape(shape)

    def records(self) -> list[tuple[str, np.ndarray]]:
        """``optim.bin``'s records in order: per parameter, ``adam.m.<name>`` and then ``adam.v.<name>``, as views."""
        return [(f"adam.{k}.{name}", moment) for name in self.params.names()
                for k, moment in zip("mv", self.moments(name))]

    def _runs(self) -> list[list[tuple[str, int, int]]]:
        """The parameters with a gradient, as runs of consecutive ``(name, lo, hi)`` in layout order.

        A gradient that is not the parameter's view of ``grad_buffer`` (one
        assigned by hand) is first copied in, in the parameter's dtype, and
        ``grad`` becomes the view; so each run's gradients are one slice of
        the buffer.  A run ends at a parameter without a gradient, where the
        update count changes, and before it would outgrow ``run_elements``.
        """
        params, counts = self.params, self.t
        runs: list[list[tuple[str, int, int]]] = []
        run, last = None, None
        for name, p in params.items():
            if p.grad is None:
                run = None
                continue
            if p.grad is not p._grad_view:
                p._grad_view[...] = p.grad
                p.grad = p._grad_view
            lo, hi = params.span(name)
            if run is None or counts[name] != last or hi - run[0][1] > self.run_elements:
                run = []
                runs.append(run)
            run.append((name, lo, hi))
            last = counts[name]
        return runs

    def step(self, max_norm: float) -> tuple[float, str | None]:
        """Clip the gradients to ``max_norm`` (0 never scales) and update; returns the pre-clip norm and a culprit.

        The culprit is None, or, when the norm is not finite, the parameter
        at which the running sum of squares turned non-finite; then nothing
        is scaled or updated.
        """
        params, counts, grads = self.params, self.t, self.params.grad_buffer
        runs = self._runs()
        squares = self.scratch.reshape(-1).view(np.float64)  # two rows of float32 hold one of float64
        total, culprit = 0.0, None
        for run in runs:
            lo, hi = run[0][1], run[-1][2]
            sq = squares[:hi - lo]
            np.copyto(sq, grads[lo:hi])  # exact, so the square has the bits of g.astype(np.float64) ** 2
            np.multiply(sq, sq, out=sq)
            for name, a, b in run:
                total += float(sq[a - lo:b - lo].sum())
                if culprit is None and not math.isfinite(total):
                    culprit = name
        norm = math.sqrt(total)
        if culprit is not None:
            return norm, culprit
        c = ag.SCALARS[grads.dtype]
        scale = np.array(max_norm / norm, grads.dtype) if 0 < max_norm < norm else None
        for run in runs:
            for name, _, _ in run:
                counts[name] += 1
            t = counts[run[0][0]]
            lo, hi = run[0][1], run[-1][2]
            g, m, v = grads[lo:hi], self.m[lo:hi], self.v[lo:hi]
            if scale is not None:
                g *= scale
            update, denom = self.scratch[0, :hi - lo], self.scratch[1, :hi - lo]
            m *= c[ADAM_BETA1]
            m += np.multiply(g, c[1.0 - ADAM_BETA1], out=update)
            v *= c[ADAM_BETA2]
            np.multiply(g, c[1.0 - ADAM_BETA2], out=update)
            v += np.multiply(update, g, out=update)
            np.divide(m, np.array(1.0 - ADAM_BETA1**t, grads.dtype), out=update)  # m_hat
            update *= c[self.lr]
            np.divide(v, np.array(1.0 - ADAM_BETA2**t, grads.dtype), out=denom)  # v_hat
            np.sqrt(denom, out=denom)
            denom += c[ADAM_EPS]
            params.data_buffer[lo:hi] -= np.divide(update, denom, out=update)
        return norm, None


class Trainer:
    """Single-writer loop over encoded examples with append-only metrics."""

    def __init__(self, model: StoryVAE, examples, schedule: TrainingSchedule,
                 separator_id: int | None = None):
        if not examples:
            raise ContractError("cannot train on an empty example list")
        if model.mode == "vae" and separator_id is None:
            raise ContractError("vae mode needs the separator id for decoder framing")
        if not model.config.injection_modes:
            raise ContractError("cannot train a model with no injection mode: its latent would reach nothing")
        self.model = model
        self.examples = list(examples)
        self.schedule = schedule
        self.separator_id = separator_id
        self.optimizer = Adam(model.params, schedule.learning_rate)
        self.step_count = 0
        self.metrics: list[dict] = []
        try:  # a batch's indices: a size numpy cannot hold is refused before the first step
            np.empty(schedule.batch_size, dtype=np.int64)
        except ValueError as e:
            raise ContractError(f"a batch of {schedule.batch_size} examples cannot be drawn: {e}") from None
        self._batch_rng = np.random.default_rng([schedule.seed, 1])
        self._noise_rng = np.random.default_rng([schedule.seed, 2])

    def _apply_freeze(self) -> None:
        """Mark every parameter trainable but the pretrained analogues inside the freeze horizon."""
        freezing = self.step_count < self.schedule.freeze_steps
        for name, p in self.model.params.items():
            p.requires_grad = not (freezing and is_pretrained_analogue(name))

    def _loss(self, batch: np.ndarray, noise: np.ndarray, beta: float):
        examples = [self.examples[i] for i in batch]
        if self.model.mode == "cvae":
            return self.model.cvae_loss(examples, noise, beta)
        stories = [ex.pair.story_tokens for ex in examples]
        return self.model.vae_loss(stories, self.separator_id, noise, beta)

    @ag.sink_pass
    def _forward(self, batch: np.ndarray, noise: np.ndarray, beta: float):
        """``_loss`` as a sink pass (``ag.sink_pass``), whose own sink is the loss."""
        loss, breakdown = self._loss(batch, noise, beta)
        ag.check_sink(loss.data)
        return loss, breakdown

    def _culprit(self, batch: np.ndarray, noise: np.ndarray, beta: float, error: ag.NumericsError) -> TrainingAbort:
        """The abort naming the first slot whose example, scored alone and without a tape, raises too."""
        for slot, idx in enumerate(batch):
            try:
                self._loss(batch[slot:slot + 1], noise[slot:slot + 1], beta)
            except ag.NumericsError as e:
                return TrainingAbort(self.step_count, slot, int(idx), str(e))
        return TrainingAbort(self.step_count, None, None, str(error))

    def train_step(self, batch_indices) -> dict:
        """One forward/backward/update over a batch of example indices.

        The batch runs as one right-padded forward of the batch-mean
        objective and one backward.  The ``requires_grad`` marks the step
        sets are cleared before it returns or raises, so no tape outlives
        it; gradients stay.  A forward that raises ``NumericsError``
        aborts the step with the slot whose example raises alone, and a
        non-finite gradient norm aborts it, with nothing updated.
        """
        batch = np.asarray(batch_indices, dtype=np.int64)
        beta = beta_at(self.step_count, self.schedule)
        # The same stream as one (d',) draw per slot in turn.
        noise = self._noise_rng.standard_normal((batch.size, self.model.config.latent_dim)).astype(self.model.dtype)
        self._apply_freeze()
        params = self.model.params
        failure = None
        try:
            params.zero_grads()
            loss, breakdown = self._forward(batch, noise, beta)
            ag.backward(loss)
        except ag.NumericsError as e:
            failure = e
        finally:
            for _, p in params.items():
                p.requires_grad = False
        if failure is not None:
            raise self._culprit(batch, noise, beta, failure) from failure

        grad_norm, culprit = self.optimizer.step(self.schedule.grad_clip)
        if culprit is not None:
            raise TrainingAbort(self.step_count, None, None, f"gradient norm {grad_norm}", parameter=culprit)

        record = {
            "step": self.step_count,
            "loss": float(loss.data),
            "recon": breakdown.reconstruction_nats,
            "kl": breakdown.kl_nats,
            "beta": beta,
            "grad_norm": grad_norm,
        }
        self.metrics.append(record)
        self.step_count += 1
        return record

    def _rngs(self) -> tuple[np.random.Generator, ...]:
        """The batch and noise streams, in ``RNG_STREAMS`` order."""
        return self._batch_rng, self._noise_rng

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

    def save_checkpoint(self, directory, vocabulary_ref: str | None = None) -> None:
        opt = self.optimizer
        payload = {
            "tensors": opt.records(),
            "update_counts": {n: opt.t[n] for n in sorted(opt.t)},
            "rng_states": {name: rng.bit_generator.state for name, rng in zip(RNG_STREAMS, self._rngs())},
            "cycle_length": self.schedule.cycle_length,
            "freeze_steps": self.schedule.freeze_steps,
            "beta_floor": self.schedule.beta_floor,
        }
        self.model.save(directory, vocabulary=vocabulary_ref, step=self.step_count,
                        optimizer_payload=payload)

    def load_optimizer_state(self, directory, manifest: dict) -> None:
        info = manifest.get("optimizer")
        if not info:
            return
        counts, names = info["update_counts"], self.model.params.names()
        odd = sorted(set(counts) ^ set(names))
        if odd:
            raise ContractError(f"{Path(directory) / MANIFEST_FILE}: the optimizer's update counts must name exactly "
                                f"the model's parameters; {len(odd)} differ, first {odd[0]!r}")
        path = Path(directory) / info["payload"]
        records = self.optimizer.records()
        arrays = read_tensor_file(path, manifest.get("dtype", "<f4"), [(key, view.shape) for key, view in records])
        negative = next((key for key, saved in arrays if key.startswith("adam.v.") and (saved < 0).any()), None)
        if negative is not None:
            raise ContractError(f"{path}: tensor {negative!r} holds a negative second moment")
        for (_, view), (_, saved) in zip(records, arrays):
            view[...] = saved
        self.optimizer.t = {n: int(counts[n]) for n in names}
        states = info.get("rng_states")
        if states:  # a checkpoint written before the streams were saved restarts them from the seed
            for name, rng in zip(RNG_STREAMS, self._rngs()):
                rng.bit_generator.state = states[name]
        self.step_count = int(manifest.get("step", 0))
