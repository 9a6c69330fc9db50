import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import cli
from storyvae import corpus as cp
from storyvae import training
from storyvae import transformer as tf
from storyvae.model import StoryVAE
from storyvae.selfcheck import reference_adam_scalar
from storyvae.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    METRICS_HEADER,
    Trainer,
    TrainingAbort,
    TrainingSchedule,
    beta_at,
    is_pretrained_analogue,
    metrics_row,
)
from storyvae.transformer import ContractError, ModelConfig


def toy_setup(seed=0, steps=10, mode="cvae", dtype=np.float32, modes=("input",), **schedule_overrides):
    cfg = ModelConfig(d=8, layers=2, encoder_layers=1, heads=2, latent_dim=8,
                      vocab_size=16, max_seq_len=12, injection_modes=modes)
    model = StoryVAE.create(cfg, seed=seed, mode=mode, dtype=dtype)
    vocab_sep = 15
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(6):
        x = list(rng.integers(0, 14, size=2))
        y = list(rng.integers(0, 14, size=3))
        pair = cp.PromptStoryPair("p", "s", prompt_tokens=x, story_tokens=y)
        examples.append(cp.EncodedExample(
            prior_input=np.array(x),
            decoder_input=np.array(x + [vocab_sep] + y),
            targets=np.array(x[1:] + [vocab_sep] + y + [vocab_sep]),
            loss_mask=np.array([False] * (len(x)) + [True] * (len(y) + 1)),
            pair=pair,
        ))
    defaults = dict(total_steps=steps, cycle_length=min(4, steps), learning_rate=1e-3,
                    batch_size=3, seed=seed)
    defaults.update(schedule_overrides)
    schedule = TrainingSchedule(**defaults)
    return Trainer(model, examples, schedule, separator_id=vocab_sep)


def pin_noise(trainer):
    """Make every step reuse the same latent-noise draws (deterministic objective)."""
    state = trainer._noise_rng.bit_generator.state
    original = trainer.train_step

    def stepper(batch):
        trainer._noise_rng.bit_generator.state = state
        return original(batch)

    trainer.train_step = stepper
    return trainer


class TestBetaSchedule:
    def test_piecewise_shape_exact(self):
        schedule = TrainingSchedule(total_steps=800, cycle_length=800)
        c = 800
        assert beta_at(0, schedule) == 0.0
        assert beta_at(c // 2, schedule) == 0.0
        assert beta_at(5 * c // 8, schedule) == 0.5
        assert beta_at(3 * c // 4, schedule) == 1.0
        assert beta_at(c - 1, schedule) == 1.0

    def test_periodicity(self):
        schedule = TrainingSchedule(total_steps=64, cycle_length=8)
        for step in range(64):
            assert beta_at(step, schedule) == beta_at(step % 8, schedule)

    def test_bounds_and_monotone_ramp(self):
        schedule = TrainingSchedule(total_steps=1000, cycle_length=40)
        values = [beta_at(s, schedule) for s in range(1000)]
        assert all(0.0 <= v <= 1.0 for v in values)
        ramp = values[20:30]
        assert all(b >= a for a, b in zip(ramp, ramp[1:]))

    def test_configurable_floor(self):
        schedule = TrainingSchedule(total_steps=100, cycle_length=100, beta_floor=0.1)
        assert beta_at(0, schedule) == 0.1
        assert beta_at(75, schedule) == 1.0
        mid = beta_at(62, schedule)  # r = 0.62, inside the ramp
        assert 0.1 < mid < 1.0

    def test_negative_step_rejected(self):
        schedule = TrainingSchedule(total_steps=10)
        with pytest.raises(ContractError):
            beta_at(-1, schedule)

    def test_default_cycle_is_quarter_of_total(self):
        schedule = TrainingSchedule(total_steps=2000)
        assert schedule.cycle_length == 500


class TestAdam:
    def test_matches_scalar_reference(self):
        lr, steps = 0.05, 50
        params = ag.ParameterSet([("x", np.array([0.0]))])
        p = params["x"]
        opt = Adam(params, lr=lr)
        grads = []
        rng = np.random.default_rng(0)
        xs = []
        for _ in range(steps):
            g = 2.0 * p.data[0] + float(rng.standard_normal()) * 0.1
            grads.append(g)
            p.grad = np.array([g])
            opt.step(0.0)
            xs.append(float(p.data[0]))
        expected = reference_adam_scalar(grads, lr)
        assert abs(xs[-1] - expected) < 1e-7

    def test_frozen_parameters_skipped(self):
        params = ag.ParameterSet([("a", [1.0]), ("b", [1.0])], dtype=np.float32)
        a, b = params["a"], params["b"]
        opt = Adam(params, lr=0.1)
        b.grad = np.array([1.0], dtype=np.float32)
        opt.step(0.0)
        assert a.data[0] == 1.0
        assert b.data[0] != 1.0
        assert opt.t["a"] == 0 and opt.t["b"] == 1


class ReferenceAdam:
    """Clipping, then Adam, one parameter at a time with per-parameter moments: the flat optimizer's oracle."""

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.t = {n: 0 for n in params.names()}

    def step(self, max_norm):
        norm = reference_clip_gradients(self.params, max_norm)
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.t[name] += 1
            t = self.t[name]
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.data.dtype)
        return norm, None


def reference_clip_gradients(params, max_norm):
    """Per-parameter clipping to a global norm, summed per tensor in float64; returns the pre-clip norm."""
    total = 0.0
    for _, p in params.items():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, p in params.items():
            if p.grad is not None:
                p.grad *= scale
    return norm


def assert_flat_layout(params, optimizer=None):
    """Each parameter's data, gradient and moments are views of the set's and optimizer's buffers, in spec order.

    Only a set with an optimizer holds a gradient buffer.
    """
    assert (params.grad_buffer is None) == (optimizer is None)
    offset = 0
    for name, p in params.items():
        assert params.span(name) == (offset, offset + p.data.size), name
        assert p.data.base is params.data_buffer, name
        if optimizer is not None:
            assert p.grad is None or p.grad.base is params.grad_buffer, name
            m, v = optimizer.moments(name)
            assert m.base is optimizer.m and v.base is optimizer.v, name
            assert m.shape == v.shape == p.shape, name
        offset += p.data.size
    assert params.data_buffer.size == offset
    assert optimizer is None or params.grad_buffer.size == offset


class TestFlatOptimizer:
    """The flat-buffer ``Adam.step``, clipping included, against per-parameter clipping and Adam, bit for bit."""

    @pytest.mark.parametrize("grad_clip", [1.0, 0.0])
    @pytest.mark.parametrize("modes", [("input",), tf.INJECTION_MODES], ids=["input", "all-routes"])
    @pytest.mark.parametrize("mode", ["cvae", "vae"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_matches_per_parameter_reference(self, monkeypatch, dtype, mode, modes, grad_clip):
        setup = dict(seed=3, steps=24, mode=mode, dtype=dtype, modes=modes, freeze_steps=5, grad_clip=grad_clip)
        flat = toy_setup(**setup)
        flat.train()
        with monkeypatch.context() as patch:
            patch.setattr(training.Adam, "RUN_ELEMENTS", 16)  # runs of one or a few tensors each
            short_runs = toy_setup(**setup)
            short_runs.train()
        assert short_runs.optimizer.run_elements < flat.model.params.data_buffer.size
        reference = toy_setup(**setup)
        reference.optimizer = ReferenceAdam(reference.model.params, reference.schedule.learning_rate)
        reference.train()

        counts = set(reference.optimizer.t.values())
        assert {19, 24} <= counts and (mode == "cvae" or 0 in counts)  # frozen spans, and vae's idle prior
        norms = [r["grad_norm"] for r in reference.metrics]
        assert grad_clip == 0.0 or max(norms) > grad_clip  # clipping acts
        for trainer in (flat, short_runs):
            assert trainer.metrics == reference.metrics
            assert trainer.optimizer.t == reference.optimizer.t
            for name, p in trainer.model.params.items():
                m, v = trainer.optimizer.moments(name)
                assert np.array_equal(p.data, reference.model.params[name].data), name
                assert np.array_equal(m, reference.optimizer.m[name]), name
                assert np.array_equal(v, reference.optimizer.v[name]), name

    def test_one_adam_step_per_train_step(self, monkeypatch):
        """The benchmark spans the optimizer through ``training.Adam.step``; inlining it would hide it."""
        calls, step = [], training.Adam.step
        monkeypatch.setattr(training.Adam, "step", lambda self, clip: calls.append(clip) or step(self, clip))
        trainer = toy_setup(steps=3, grad_clip=0.5)
        trainer.train()
        assert calls == [0.5] * 3

    def test_runs_split_at_gaps_and_update_counts_and_take_hand_assigned_gradients_in(self):
        params = ag.ParameterSet([(name, np.zeros(2)) for name in "abcde"])
        opt = Adam(params, lr=0.1)
        for name, g in {"a": [1.0, 2.0], "b": [3.0, 4.0], "d": [5.0, 6.0], "e": [7.0, 8.0]}.items():
            params[name].grad = np.array(g)
        opt.t["e"] = 4
        assert opt._runs() == [[("a", 0, 2), ("b", 2, 4)], [("d", 6, 8)], [("e", 8, 10)]]
        assert params["a"].grad.base is params.grad_buffer
        assert np.array_equal(params.grad_buffer[[0, 1, 2, 3, 6, 7, 8, 9]], np.arange(1.0, 9.0))
        assert params["c"].grad is None

    def test_a_nan_after_an_inf_names_the_inf_and_updates_nothing(self, monkeypatch):
        """The norm sums every tensor first, so it reads NaN; the culprit is where the running sum left the finite."""
        trainer = toy_setup()
        trainer.train_step([0, 1, 2])
        params, opt = trainer.model.params, trainer.optimizer
        backward = ag.backward

        def poisoned(loss):
            backward(loss)
            live = [p for _, p in params.items() if p.grad is not None]
            live[1].grad.flat[0], live[-1].grad.flat[-1] = np.inf, np.nan

        monkeypatch.setattr(training.ag, "backward", poisoned)
        culprit = [n for n, p in params.items() if p.grad is not None][1]
        before = [params.data_buffer.copy(), opt.m.copy(), opt.v.copy(), dict(opt.t)]
        message = f"non-finite gradient norm at step 1, parameter '{culprit}': gradient norm nan"
        with pytest.raises(TrainingAbort, match=f"^{re.escape(message)}$"):
            trainer.train_step([3, 4])
        assert all(np.array_equal(a, b) for a, b in zip(before[:3], [params.data_buffer, opt.m, opt.v]))
        assert opt.t == before[3] and trainer.step_count == 1

    def test_create_astype_and_load_lay_out_the_buffers(self, tmp_path):
        trainer = toy_setup(steps=2)
        params = trainer.model.params
        assert params.names() == [name for name, _, _ in tf.parameter_specs(trainer.model.config)]
        assert_flat_layout(params, trainer.optimizer)
        trainer.train()
        assert all(p.grad is not None for _, p in params.items())
        assert_flat_layout(params, trainer.optimizer)
        assert_flat_layout(params.astype(np.float64))
        trainer.save_checkpoint(tmp_path / "ckpt")
        loaded, manifest = StoryVAE.load(tmp_path / "ckpt")
        assert_flat_layout(loaded.params)
        resumed = Trainer(loaded, trainer.examples, trainer.schedule, separator_id=15)
        resumed.load_optimizer_state(tmp_path / "ckpt", manifest)
        assert_flat_layout(loaded.params, resumed.optimizer)

    def test_train_resume_trains_in_the_buffers(self, tmp_path, monkeypatch):
        corpus = str(cp.toy_corpus_path())
        assert cli.main(["vocab", "--corpus", corpus, "--model.vocab-size", "300", "--out", str(tmp_path / "v")]) == 0
        train = ["train", "--corpus", corpus, "--vocab", str(tmp_path / "v" / "vocab.txt"), "--model.d", "16",
                 "--model.layers", "1", "--model.encoder-layers", "1", "--model.heads", "2",
                 "--model.latent-dim", "4", "--train.steps", "2", "--train.batch-size", "2"]
        assert cli.main(train + ["--out", str(tmp_path / "a")]) == 0
        trainers = []
        original = Trainer.train
        monkeypatch.setattr(Trainer, "train", lambda self, *a, **k: trainers.append(self) or original(self, *a, **k))
        assert cli.main(train + ["--out", str(tmp_path / "b"), "--resume", str(tmp_path / "a" / "checkpoint")]) == 0
        (trainer,) = trainers
        assert trainer.step_count == 4
        assert_flat_layout(trainer.model.params, trainer.optimizer)


class TestFreezing:
    def test_no_freeze_steps_freezes_nothing(self):
        trainer = toy_setup(freeze_steps=0)
        trainer.train_step(trainer.draw_batch())
        for _, p in trainer.model.params.items():
            assert not p.requires_grad and p.grad is not None

    def test_frozen_parameters_get_no_backward_work(self):
        trainer = toy_setup(freeze_steps=1)
        trainer.train_step([0, 1, 2])
        for n, p in trainer.model.params.items():
            if is_pretrained_analogue(n):
                assert not p.requires_grad and p.grad is None, n
            else:
                assert not p.requires_grad and p.grad is not None, n
        trainer.train_step([0, 1, 2])
        for n, p in trainer.model.params.items():
            assert not p.requires_grad and p.grad is not None, n

    def test_frozen_values_identical_after_step(self):
        trainer = toy_setup(freeze_steps=100)
        names = [n for n in trainer.model.params.names() if is_pretrained_analogue(n)]
        before = {n: trainer.model.params[n].data.copy() for n in names}
        trainer.train_step(trainer.draw_batch())
        for n in names:
            assert np.array_equal(before[n], trainer.model.params[n].data)

    def test_unfreezes_after_horizon(self):
        trainer = toy_setup(steps=6, freeze_steps=2)
        names = [n for n in trainer.model.params.names() if is_pretrained_analogue(n)]
        before = {n: trainer.model.params[n].data.copy() for n in names}
        for _ in range(2):
            trainer.train_step([0, 1, 2])
        assert all(np.array_equal(before[n], trainer.model.params[n].data) for n in names)
        for _ in range(2):
            trainer.train_step([0, 1, 2])
        moved = any(not np.array_equal(before[n], trainer.model.params[n].data) for n in names)
        assert moved

    def test_pretrained_analogues_are_the_stacks_and_embeddings(self):
        cfg = ModelConfig(d=8, layers=2, encoder_layers=1, heads=2, latent_dim=8, vocab_size=16,
                          max_seq_len=12, injection_modes=("input", "psa", "softmax"))
        names = set(StoryVAE.create(cfg).params.names())
        frozen = {n for n in names if is_pretrained_analogue(n)}
        assert {"embed.word", "embed.pos", "enc.0.attn.wq", "dec.0.attn.wq", "dec.final_norm.g"} <= frozen
        # New parameters: pooling, the latent heads, the injections and the per-layer psa projections.
        new = {n for n in names if n.startswith(("pool.", "prior.", "post.", "inject.")) or ".psa." in n}
        assert "dec.0.psa.wk" in new and names - frozen == new


class TestTrainStep:
    def test_same_seed_same_first_metrics(self):
        a = toy_setup(seed=3).train_step([0, 1, 2])
        b = toy_setup(seed=3).train_step([0, 1, 2])
        assert a == b

    def test_metrics_fields(self):
        record = toy_setup().train_step([0, 1])
        assert set(record) == {"step", "loss", "recon", "kl", "beta", "grad_norm"}
        assert record["grad_norm"] > 0

    def test_nan_abort_names_batch_slot(self):
        trainer = toy_setup()
        trainer.model.params["embed.word"].data[...] = 1e38  # tied logit matmul overflows float32
        with pytest.raises(TrainingAbort, match=r"step 0, batch slot 0"):
            trainer.train_step([4, 1])

    def test_abort_names_the_one_slot_that_overflows(self):
        """The batch raises as a whole; scoring its slots alone finds the one example that overflows."""
        trainer = toy_setup()
        batch = [5, 0, 3]
        elsewhere = set(np.concatenate([trainer.examples[i].decoder_input for i in batch[:2]]).tolist())
        token = next(t for t in trainer.examples[3].decoder_input.tolist() if t not in elsewhere)
        trainer.model.params["embed.word"].data[token] = 1e38
        with pytest.raises(TrainingAbort, match=r"step 0, batch slot 2 \(example 3\)") as caught:
            trainer.train_step(batch)
        assert (caught.value.batch_index, caught.value.example_index) == (2, 3)
        assert not any(p.requires_grad for _, p in trainer.model.params.items())

    def test_a_non_finite_gradient_norm_aborts_before_the_update(self):
        """Saturated GELUs keep the loss finite while w2's gradient overflows: the step aborts, nothing moves."""
        trainer = toy_setup()
        trainer.train_step([0, 1, 2])
        params, opt = trainer.model.params, trainer.optimizer
        w1 = params["dec.0.mlp.w1"].data
        w1[...] = np.where(np.random.default_rng(0).standard_normal(w1.shape) > 0, 1e37, -1e37)
        params["dec.0.mlp.w2"].data[...] = 1e-22
        before = [params.data_buffer.copy(), opt.m.copy(), opt.v.copy(), dict(opt.t), list(trainer.metrics)]
        with np.errstate(all="ignore"), pytest.raises(
                TrainingAbort, match=r"^non-finite gradient norm at step 1, parameter 'dec.0.mlp.w2': gradient norm inf$"
        ) as caught:
            trainer.train_step([3, 4])
        assert (caught.value.step, caught.value.parameter, caught.value.batch_index) == (1, "dec.0.mlp.w2", None)
        assert all(np.array_equal(a, b) for a, b in zip(before[:3], [params.data_buffer, opt.m, opt.v]))
        assert (opt.t, trainer.metrics, trainer.step_count) == (before[3], before[4], 1)
        assert not any(p.requires_grad for _, p in params.items())

    @pytest.mark.slow
    def test_loss_descends_on_fixed_batch(self):
        # fixed batch and fixed latent noise: the objective is deterministic
        trainer = pin_noise(toy_setup(steps=201, cycle_length=201, learning_rate=1e-3))
        batch = [0, 1, 2]
        losses = [trainer.train_step(batch)["loss"] for _ in range(100)]
        decreases = sum(b < a for a, b in zip(losses, losses[1:]))
        assert decreases >= 95, f"only {decreases} decreasing steps"
        assert losses[-1] < losses[0]


def metrics_csv(trainer) -> str:
    return "".join([METRICS_HEADER + "\n"] + [metrics_row(r) for r in trainer.metrics])


class TestMetricsLog:
    def test_csv_format(self):
        trainer = toy_setup(steps=3)
        trainer.train()
        csv = metrics_csv(trainer)
        lines = csv.strip().split("\n")
        assert lines[0] == METRICS_HEADER == "step,loss,recon,kl,beta,grad_norm"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert all(float(x) == float(x) for x in first[1:])

    def test_bit_reproducible_runs(self):
        a = toy_setup(seed=5, steps=5)
        b = toy_setup(seed=5, steps=5)
        a.train()
        b.train()
        assert metrics_csv(a) == metrics_csv(b)


class TestCheckpointResume:
    def test_resume_matches_straight_run(self, tmp_path):
        straight = toy_setup(seed=7, steps=8)
        straight.train()

        front = toy_setup(seed=7, steps=8)
        for _ in range(4):
            front.train_step(front.draw_batch())
        front.save_checkpoint(tmp_path / "ckpt", vocabulary_ref="v")

        resumed_model, manifest = StoryVAE.load(tmp_path / "ckpt")
        resumed = Trainer(resumed_model, front.examples, front.schedule, separator_id=15)
        resumed.load_optimizer_state(tmp_path / "ckpt", manifest)  # also continues the RNG streams
        for _ in range(4):
            resumed.train_step(resumed.draw_batch())

        for name in straight.model.params.names():
            assert np.array_equal(straight.model.params[name].data, resumed.model.params[name].data), name

    def test_checkpoint_without_rng_states_restarts_the_streams(self, tmp_path):
        front = toy_setup(seed=7, steps=8)
        for _ in range(4):
            front.train_step(front.draw_batch())
        front.save_checkpoint(tmp_path / "ckpt", vocabulary_ref="v")
        resumed_model, manifest = StoryVAE.load(tmp_path / "ckpt")
        del manifest["optimizer"]["rng_states"]
        resumed = Trainer(resumed_model, front.examples, front.schedule, separator_id=15)
        resumed.load_optimizer_state(tmp_path / "ckpt", manifest)
        fresh = toy_setup(seed=7, steps=8)
        assert resumed.step_count == 4
        assert [r.bit_generator.state for r in resumed._rngs()] == [r.bit_generator.state for r in fresh._rngs()]


def test_schedule_validation():
    with pytest.raises(ContractError):
        TrainingSchedule(total_steps=0)
    with pytest.raises(ContractError):
        TrainingSchedule(total_steps=10, cycle_length=0)
    # A cycle longer than the run is how a short resume continues its checkpoint's cycle.
    assert TrainingSchedule(total_steps=10, cycle_length=20).cycle_length == 20
    with pytest.raises(ContractError):
        TrainingSchedule(total_steps=10, freeze_steps=-1)
    with pytest.raises(ContractError):
        TrainingSchedule(total_steps=10, beta_floor=1.0)


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Warm train steps in a fresh process, so that only their own history counts; prints the minor faults per step.
FAULTS_CHILD = """
import resource, sys, types
import numpy as np
from storyvae import corpus as cp
from storyvae.model import StoryVAE
from storyvae.training import Trainer, TrainingSchedule
from storyvae.transformer import ModelConfig

if sys.argv[1] == "overfit":
    pairs = cp.load_corpus(cp.toy_corpus_path())
    vocab = cp.fit_vocabulary([p.prompt_text for p in pairs] + [p.story_text for p in pairs], 512)
    examples = cp.prepare_corpus(pairs, vocab, 64)
    cfg = ModelConfig(d=64, layers=2, encoder_layers=1, heads=2, latent_dim=16, vocab_size=vocab.size,
                      max_seq_len=64, injection_modes=("input",), injection_gain=8.0, latent_head_gain=50.0)
    dtype, batch, warm, steps = np.float64, 4, 30, 50
else:
    rng = np.random.default_rng(0)
    vocab = types.SimpleNamespace(separator_id=1)
    examples = [cp.build_example(cp.PromptStoryPair("", "", "", [2, 3, 4], rng.integers(2, 4096, 124).tolist()),
                                 vocab, 128) for _ in range(4)]
    cfg = ModelConfig(d=16, layers=1, encoder_layers=1, heads=1, latent_dim=4, vocab_size=4096, max_seq_len=128)
    dtype, batch, warm, steps = np.float32, 4, 3, 10
schedule = TrainingSchedule(total_steps=1000, batch_size=batch, seed=0)
trainer = Trainer(StoryVAE.create(cfg, seed=0, dtype=dtype), examples, schedule, separator_id=vocab.separator_id)
for _ in range(warm):
    trainer.train_step(trainer.draw_batch())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(steps):
    trainer.train_step(trainer.draw_batch())
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
"""


@pytest.mark.skipif(not on_glibc(), reason="the heap thresholds that autograd fixes are glibc's")
@pytest.mark.parametrize("case", ["overfit", "large_vocabulary"])
def test_warm_train_steps_take_almost_no_page_faults(case):
    """With glibc's heap thresholds fixed, a warm train step reuses the heap the step before it freed.

    ``overfit`` is the acceptance overfit config in float64; under glibc's
    dynamic thresholds each of its warm steps handed the heap back and
    faulted it in again, about 470 minor faults a step.  ``large_vocabulary``
    makes 8 MiB (B, T, V) logits, above a fixed 4 MiB mmap threshold and
    below the dynamic one's 32 MiB ceiling: about 2500 faults a step under
    the dynamic thresholds, 3600 with the mmap threshold at 4 MiB.  Fixed,
    either takes under 1.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(ag.__file__).parents[1]), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", FAULTS_CHILD, case], env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 5
