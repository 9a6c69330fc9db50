"""The three storyvae workloads and the closed loop that measures them.

Each workload is one client in one process: it sends its next op only
after the previous one returned.  The workload seed picks the prompt
order, model init, batch and noise streams and the sampler seed; the
program sees only the inputs generated from it.

A run sets up ``scale.setup_reps`` times (the last set-up is kept), then
repeats rounds until ``seconds`` have passed.  A round is a fixed unit of
work: 50 training steps from the seeded init with a checkpoint write
every 25 (train_overfit), one story (generate_long), one ``eval``
invocation (eval_short).  Between rounds, outside the timed region, the
outputs are checked and a few one-token generations give the time to
first token.  A traced run alternates untraced and traced rounds, so the
two share the machine's drift and their difference is the tracing
overhead.

The speed of a shared machine swings by tens of percent within seconds,
in CPU time as much as in wall time.  So the loop also times a fixed
calibration kernel after every set-up, every training step and every
round, and keeps every timing with its start time; metrics.py divides
each timing by the machine's speed measured around it.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from storyvae import autograd as ag
from storyvae import cli
from storyvae import corpus as cp
from storyvae import evaluation as ev
from storyvae import latent as lt
from storyvae import model as md
from storyvae import sampling as sp
from storyvae import training as tr
from storyvae import transformer as tf

import tracing

PACKAGE = {
    "autograd": ag, "corpus": cp, "transformer": tf, "latent": lt, "model": md,
    "training": tr, "sampling": sp, "evaluation": ev, "cli": cli,
}


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration; FULL is the benchmark, TINY the smoke test."""

    setup_reps: int
    vocab_size: int
    overfit_model: dict
    default_model: dict
    train_round_steps: int
    train_save_every: int
    nll_steps: int
    story_tokens: int
    eval_tokens: int
    ttft_per_round: int


# The acceptance overfit config (tests/test_acceptance.py) and the CLI defaults.
FULL = Scale(
    setup_reps=3,
    vocab_size=512,
    overfit_model=dict(d=64, layers=2, encoder_layers=1, heads=2, latent_dim=16, max_seq_len=64,
                       injection_modes=("input",), injection_gain=8.0, latent_head_gain=50.0),
    default_model=dict(d=64, layers=4, encoder_layers=2, heads=4, latent_dim=64, max_seq_len=256,
                       injection_modes=("psa",)),
    train_round_steps=50,
    train_save_every=25,
    nll_steps=25,
    story_tokens=128,
    eval_tokens=8,
    ttft_per_round=8,
)

TINY = Scale(
    setup_reps=1,
    vocab_size=300,
    overfit_model=dict(d=16, layers=1, encoder_layers=1, heads=2, latent_dim=4, max_seq_len=64,
                       injection_modes=("input",), injection_gain=8.0, latent_head_gain=50.0),
    default_model=dict(d=16, layers=2, encoder_layers=1, heads=2, latent_dim=8, max_seq_len=64,
                       injection_modes=("psa",)),
    train_round_steps=4,
    train_save_every=2,
    nll_steps=2,
    story_tokens=6,
    eval_tokens=3,
    ttft_per_round=1,
)

# The kernel's median time on the 2-core box the baseline was recorded on;
# only ratios matter, this just keeps reported times near raw ones there.
CALIBRATION_NOMINAL_S = 0.005
CALIBRATION_NEIGHBOURS = 18
CALIBRATION_PER_ROUND = 9


_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_A = _KERNEL_RNG.standard_normal((128, 64)).astype(np.float32)
_KERNEL_B = _KERNEL_RNG.standard_normal((64, 256)).astype(np.float32)


def calibration_kernel() -> float:
    """Seconds for a fixed piece of numpy work, independent of storyvae.

    Half of it is interpreter-bound (tiny arrays, a closure, a dict store),
    the kind of work a tape op's bookkeeping does; half is array-bound
    (a 128x64 by 64x256 matmul, a softmax and a tanh), the kind of work a
    decoder forward over a long prefix does.  So it slows down with the
    machine the way the program does, whichever of the two the machine's
    neighbours are competing with.
    """
    x = np.ones(8, dtype=np.float32)
    store = {}
    t0 = perf_counter()
    for i in range(500):
        y = np.add(x * 1.5, x)
        store[i & 63] = (y, lambda g, y=y: g * y)
        if not np.isfinite(y).all():
            raise ArithmeticError("calibration kernel went non-finite")
    for _ in range(15):
        c = _KERNEL_A @ _KERNEL_B
        e = np.exp(c - c.max(axis=-1, keepdims=True))
        e /= e.sum(axis=-1, keepdims=True)
        np.tanh(c * 0.5)
    return perf_counter() - t0


class Timeline:
    """Calibration-kernel samples with their start times."""

    def __init__(self):
        self.start: list[float] = []
        self.seconds: list[float] = []

    def sample(self, reps: int) -> None:
        for _ in range(reps):
            self.start.append(perf_counter())
            self.seconds.append(calibration_kernel())

    def slowdown(self, t: float) -> float:
        """The machine's slowdown against nominal around time ``t``: nearest kernel samples' median."""
        n, k = len(self.start), CALIBRATION_NEIGHBOURS
        lo = min(max(0, bisect.bisect_left(self.start, t) - k // 2), max(0, n - k))
        return statistics.median(self.seconds[lo:lo + k]) / CALIBRATION_NOMINAL_S

    def median_slowdown(self) -> float:
        return statistics.median(self.seconds) / CALIBRATION_NOMINAL_S


@dataclass
class Inputs:
    """Everything the workload seed decides."""

    corpus_path: Path
    n_records: int
    model_seed: int
    schedule_seed: int
    sampler_seed: int

    @classmethod
    def generate(cls, seed: int, workdir: Path) -> "Inputs":
        rng = np.random.default_rng([seed, 0x5EED])
        lines = [ln for ln in cp.toy_corpus_path().read_text(encoding="utf-8").splitlines() if ln.strip()]
        order = rng.permutation(len(lines))
        path = workdir / "corpus.jsonl"
        path.write_text("".join(lines[i] + "\n" for i in order), encoding="utf-8")
        model_seed, schedule_seed, sampler_seed = (int(x) for x in rng.integers(0, 2**31, size=3))
        return cls(path, len(lines), model_seed, schedule_seed, sampler_seed)


@dataclass
class Round:
    """One round's timings as (start, seconds) pairs, its counts and its failures."""

    traced: bool = False
    ops: list = field(default_factory=list)
    latency: list = field(default_factory=list)  # the ops that enter op_ms.p50 / .tail
    writes: list = field(default_factory=list)  # checkpoint writes, timed work besides ops
    tokens: int = 0
    units: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def timed(fn, *args, **kwargs):
    """Call ``fn``; return its result and its (start, seconds)."""
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, (t0, perf_counter() - t0)


def _texts(pairs) -> list[str]:
    return [p.prompt_text for p in pairs] + [p.story_text for p in pairs]


class Workload:
    name = ""
    unit = ""

    def __init__(self, scale: Scale, inputs: Inputs, workdir: Path, timeline: Timeline):
        self.scale = scale
        self.inputs = inputs
        self.workdir = workdir
        self.timeline = timeline
        self.tracer = None  # set during traced rounds
        self.next_op = 0
        self.nll_total = 0.0
        self.nll_tokens = 0
        self.ttft_count = 0

    def op(self, fn, *args, **kwargs):
        """Run one op, inside an op span when the round is traced."""
        op_id, self.next_op = self.next_op, self.next_op + 1
        if self.tracer is None:
            return timed(fn, *args, **kwargs)
        self.tracer.op_id = op_id
        with self.tracer.span(tracing.OP_SPAN):
            return timed(fn, *args, **kwargs)

    def _load(self, max_len: int):
        pairs = cp.load_corpus(self.inputs.corpus_path)
        vocab = cp.fit_vocabulary(_texts(pairs), self.scale.vocab_size)
        return vocab, cp.prepare_corpus(pairs, vocab, max_len)

    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed preparation of the output checks."""

    def before_round(self, index: int) -> None:
        """Untimed state reset before a round."""

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def check(self, index: int, rnd: Round) -> None:
        """Untimed output checks; failures are added to ``rnd``."""

    def ttft_model(self):
        raise NotImplementedError

    def ttft_sample(self) -> tuple[float, float]:
        """One-token generation for the next prompt; returns its (start, seconds)."""
        model, examples, sep = self.ttft_model()
        k = self.ttft_count
        self.ttft_count += 1
        sampler = sp.SamplerConfig(max_new_tokens=1, seed=self.inputs.sampler_seed)
        (story, _), sample = timed(sp.generate_for_prompt, model, examples[k % len(examples)].prior_input,
                                   sep, sampler, example_index=k)
        if len(story) > 1:
            raise AssertionError(f"one-token budget produced {len(story)} tokens")
        return sample

    def nll_per_token(self) -> float:
        return self.nll_total / self.nll_tokens if self.nll_tokens else float("nan")


class TrainOverfit(Workload):
    name = "train_overfit"
    unit = "one round: 50 train steps from the seeded init plus 2 checkpoint writes"

    def setup(self) -> None:
        vocab, examples = self._load(self.scale.overfit_model["max_seq_len"])
        cfg = tf.ModelConfig(vocab_size=vocab.size, **self.scale.overfit_model)
        model = md.StoryVAE.create(cfg, seed=self.inputs.model_seed)
        self.vocab, self.examples, self.cfg = vocab, examples, cfg
        self.initial = model.params.astype(np.float32)
        self.trainer = self._trainer(model)
        for _ in range(2):
            self.trainer.train_step(self.trainer.draw_batch())
        self.reference: list[float] | None = None

    def _trainer(self, model) -> tr.Trainer:
        schedule = tr.TrainingSchedule(total_steps=5000, cycle_length=1250, learning_rate=1e-3,
                                       batch_size=4, seed=self.inputs.schedule_seed)
        return tr.Trainer(model, self.examples, schedule, separator_id=self.vocab.separator_id)

    def before_round(self, index: int) -> None:
        self.trainer = self._trainer(md.StoryVAE(self.cfg, self.initial.astype(np.float32)))

    def _step(self):
        batch = self.trainer.draw_batch()
        return batch, self.trainer.train_step(batch)

    def round(self, index: int) -> Round:
        rnd = Round(units=1.0)
        self.losses, self.recon = [], []
        for step in range(self.scale.train_round_steps):
            rnd.attempted += 1
            try:
                (batch, record), sample = self.op(self._step)
            except Exception:
                rnd.fail(traceback.format_exc(limit=3))
                break
            rnd.ops.append(sample)
            targets = int(sum(self.examples[i].loss_mask.sum() for i in batch))
            rnd.tokens += targets
            self.losses.append(record["loss"])
            self.recon.append((record["recon"] * len(batch), targets))
            if (step + 1) % self.scale.train_save_every == 0:
                _, sample = timed(self.trainer.save_checkpoint, self.workdir / "checkpoint", "vocab.txt")
                rnd.writes.append(sample)
            self.timeline.sample(1)
        rnd.latency = rnd.ops
        return rnd

    def check(self, index: int, rnd: Round) -> None:
        for i, loss in enumerate(self.losses):
            if not math.isfinite(loss):
                rnd.fail(f"step {i}: loss {loss}")
        # Every round starts from the same state, so its losses repeat bit for bit.
        if self.reference is None:
            self.reference = list(self.losses)
            tail = self.recon[-self.scale.nll_steps:]
            self.nll_total = sum(r for r, _ in tail)
            self.nll_tokens = sum(n for _, n in tail)
        elif self.losses != self.reference[:len(self.losses)]:
            rnd.fail(f"round {index}: losses differ from the first round")

    def ttft_model(self):
        return self.trainer.model, self.examples, self.vocab.separator_id


class GenerateLong(Workload):
    name = "generate_long"
    unit = "512 generated tokens"

    def setup(self) -> None:
        vocab, examples = self._load(self.scale.default_model["max_seq_len"])
        cfg = tf.ModelConfig(vocab_size=vocab.size, **self.scale.default_model)
        self.model = md.StoryVAE.create(cfg, seed=self.inputs.model_seed)
        self.vocab, self.examples = vocab, examples
        self.sampler = sp.SamplerConfig(max_new_tokens=self.scale.story_tokens, seed=self.inputs.sampler_seed)
        warm = sp.SamplerConfig(max_new_tokens=8, seed=self.inputs.sampler_seed)
        sp.generate_for_prompt(self.model, examples[0].prior_input, vocab.separator_id, warm, example_index=0)

    def round(self, index: int) -> Round:
        rnd = Round(attempted=1)
        ex = self.examples[index % len(self.examples)]
        self.story = None
        try:
            (story, latent), sample = self.op(
                sp.generate_for_prompt, self.model, ex.prior_input,
                self.vocab.separator_id, self.sampler, example_index=index,
            )
        except Exception:
            rnd.fail(traceback.format_exc(limit=3))
            return rnd
        self.story, self.latent, self.prompt = story, latent, ex.prior_input
        rnd.ops.append(sample)
        # A story that stops early is less work; latency percentiles use full-budget stories.
        if len(story) == self.scale.story_tokens:
            rnd.latency.append(sample)
        rnd.tokens = len(story)
        rnd.units = len(story) / (4 * self.scale.story_tokens)
        return rnd

    def check(self, index: int, rnd: Round) -> None:
        story = self.story
        if story is None:
            return
        sep = self.vocab.separator_id
        if len(story) > self.scale.story_tokens:
            rnd.fail(f"story {index}: {len(story)} tokens exceed the budget")
        if any(not 0 <= t < self.vocab.size or t == sep for t in story):
            rnd.fail(f"story {index}: token id out of range or separator")
            return
        if not story:
            return
        context = np.concatenate([self.prompt, [sep], story]).astype(np.int64)
        targets = np.append(context[1:], sep)
        mask = np.zeros(context.size, dtype=bool)
        mask[len(self.prompt):len(self.prompt) + len(story)] = True
        logits = self.model.decode_logits(context, self.latent)
        nll, _ = ag.cross_entropy(logits, targets, mask)
        value = float(nll.data)
        if not math.isfinite(value):
            rnd.fail(f"story {index}: teacher-forced NLL {value}")
            return
        self.nll_total += value
        self.nll_tokens += len(story)

    def ttft_model(self):
        return self.model, self.examples, self.vocab.separator_id


class EvalShort(Workload):
    name = "eval_short"
    unit = "one eval invocation"

    def setup(self) -> None:
        vocab, examples = self._load(self.scale.overfit_model["max_seq_len"])
        self.vocab_path = self.workdir / "vocab.txt"
        vocab.save(self.vocab_path)
        cfg = tf.ModelConfig(vocab_size=vocab.size, **self.scale.overfit_model)
        self.ckpt = self.workdir / "checkpoint"
        md.StoryVAE.create(cfg, seed=self.inputs.model_seed).save(
            self.ckpt, vocabulary=os.path.relpath(self.vocab_path, self.ckpt))
        self.vocab, self.examples = vocab, examples
        self.out = self.workdir / "eval"
        self.argv = [
            "eval", "--corpus", str(self.inputs.corpus_path), "--vocab", str(self.vocab_path),
            "--checkpoint", str(self.ckpt), "--out", str(self.out),
            "--sampler.max-new-tokens", str(self.scale.eval_tokens),
            "--sampler.seed", str(self.inputs.sampler_seed),
        ]
        self._eval()

    def _eval(self) -> tuple[int, str]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            code = cli.main(list(self.argv))
        return code, buffer.getvalue()

    def after_setup(self) -> None:
        # What eval must write: the stories a direct generation gives for each record.
        self.model, _ = md.StoryVAE.load(self.ckpt)
        sampler = sp.SamplerConfig(max_new_tokens=self.scale.eval_tokens, seed=self.inputs.sampler_seed)
        generated = [
            sp.generate_for_prompt(self.model, ex.prior_input, self.vocab.separator_id, sampler, example_index=i)[0]
            for i, ex in enumerate(self.examples)
        ]
        self.expected_stories = [self.vocab.decode(g) for g in generated]
        self.tokens_per_eval = sum(len(g) for g in generated) + int(sum(ex.loss_mask.sum() for ex in self.examples))
        self.reference_report: str | None = None
        self.log_ppl = float("nan")

    def round(self, index: int) -> Round:
        rnd = Round(attempted=1, units=1.0)
        for name in ("report.json", "stories.jsonl"):
            with contextlib.suppress(FileNotFoundError):
                (self.out / name).unlink()
        try:
            self.exit, sample = self.op(self._eval)
        except Exception:
            rnd.fail(traceback.format_exc(limit=3))
            return rnd
        rnd.ops.append(sample)
        rnd.latency.append(sample)
        rnd.tokens = self.tokens_per_eval
        return rnd

    def check(self, index: int, rnd: Round) -> None:
        if rnd.failed:
            return
        code, output = self.exit
        if code != 0:
            rnd.fail(f"eval exit code {code}: {output.strip()[-300:]}")
            return
        try:
            text = (self.out / "report.json").read_text(encoding="utf-8")
            ppl = float(json.loads(text)["perplexity"]["subword"])
            lines = (self.out / "stories.jsonl").read_text(encoding="utf-8").splitlines()
            stories = [json.loads(ln)["story"] for ln in lines]
        except (OSError, ValueError, KeyError, TypeError) as e:
            rnd.fail(f"eval outputs unreadable: {e!r}")
            return
        if not math.isfinite(ppl) or ppl <= 0:
            rnd.fail(f"eval subword perplexity {ppl}")
        elif len(lines) != self.inputs.n_records:
            rnd.fail(f"stories.jsonl has {len(lines)} lines for {self.inputs.n_records} records")
        elif stories != self.expected_stories:
            rnd.fail("eval stories differ from direct generation")
        elif self.reference_report is None:
            self.reference_report = text
            self.log_ppl = math.log(ppl)
        elif text != self.reference_report:
            rnd.fail(f"eval {index}: report differs from the first eval")

    def nll_per_token(self) -> float:
        return self.log_ppl

    def ttft_model(self):
        return self.model, self.examples, self.vocab.separator_id


WORKLOADS = {w.name: w for w in (TrainOverfit, GenerateLong, EvalShort)}


@dataclass
class Measurement:
    workload: Workload
    timeline: Timeline
    setup: list  # (start, seconds) per set-up
    rounds: list
    ttft: list  # (start, seconds) per one-token generation
    counts: dict | None
    tracer: object


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path, scale: Scale = FULL) -> Measurement:
    """Set up, then run rounds for ``seconds``; traced runs trace every other round."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    os.environ.pop("STORYVAE_OUT", None)  # it would redirect eval output out of the work dir
    timeline = Timeline()
    wl = WORKLOADS[name](scale, Inputs.generate(seed, workdir), workdir, timeline)
    tracer = tracing.Tracer() if trace else None

    setup = []
    for _ in range(scale.setup_reps):
        if tracer:
            tracer.install(PACKAGE)
        _, sample = timed(wl.setup)
        setup.append(sample)
        if tracer:
            tracer.uninstall()
        timeline.sample(CALIBRATION_PER_ROUND)
    wl.after_setup()

    rounds, ttft, counts = [], [], None
    deadline = perf_counter() + seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        wl.before_round(index)
        if traced:
            tracer.install(PACKAGE)
            tracer.counting = counts is None
            wl.tracer = tracer
        rnd = wl.round(index)
        rnd.traced = traced
        if traced:
            wl.tracer = None
            tracer.uninstall()
            if tracer.counting and rnd.tokens > 0 and not rnd.failed:
                counts = {
                    "ops": rnd.attempted, "tokens": rnd.tokens, "kinds": dict(tracer.node_kinds),
                    "grad_nodes": tracer.grad_nodes, "decoder_rows": tracer.decoder_rows,
                }
            tracer.counting = False
            tracer.reset_counts()
        try:
            wl.check(index, rnd)
            ttft += [wl.ttft_sample() for _ in range(scale.ttft_per_round)]
        except Exception:
            rnd.fail(traceback.format_exc(limit=3))
        timeline.sample(CALIBRATION_PER_ROUND)
        rounds.append(rnd)
        index += 1
        if perf_counter() >= deadline and (tracer is None or index >= 2):
            break
    return Measurement(wl, timeline, setup, rounds, ttft, counts, tracer)
