"""Print tape nodes and forward and backward milliseconds per op kind, for four fixed cases.

    python3 tools/op_kinds.py [--repeats N]

The cases are a cvae and a vae train step (``Trainer.train_step``, batch
4) at the acceptance overfit config, and a one-token generation
(``generate_for_prompt`` with a budget of 1) and one cached decode step
at the CLI default config, all on the toy corpus.

The kinds are the op names that ``autograd._make`` records, so no list of
kinds is kept here and a new or retired op needs no edit.  While the
cases run, ``_make`` is wrapped to count each node under its kind and to
time the backward closure it is handed, and every public autograd
function is wrapped to time its call, which counts as forward time of
the kind that its ``_make`` recorded (each op records one node).  Each
case runs once to warm up, then ``--repeats`` times; the table gives
nodes per run and milliseconds per run.  ``wall`` is the median time of
one run of the case with nothing wrapped, so the per-kind times, which
carry the wrappers' overhead, can be read against it.  The package is
imported from this checkout's ``src``.

Next to the nodes, each case gives three counts that do not move with
the machine's speed, from one more run each: the Python function calls
and the C-level calls (``call`` and ``c_call`` events of
``sys.setprofile``), and the peak of the bytes ``tracemalloc`` traces.
numpy's operators, such as ``a @ b``, raise no ``c_call`` event, so
their calls are not counted.  Beside them are the minor page faults of
the run whose calls are counted (the ``ru_minflt`` delta of
``getrusage``), which follow how the C library hands freed memory back
to the system; they are near 0 for a warm case once that memory is
kept, and, unlike the counts, may differ between two runs.  At this
version the four cases record 19, 15, 18 and 10 nodes.
"""

from __future__ import annotations

import argparse
import inspect
import os
import resource
import statistics
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from storyvae import autograd as ag  # noqa: E402
from storyvae import corpus as cp  # noqa: E402
from storyvae import sampling as sp  # noqa: E402
from storyvae import transformer as tf  # noqa: E402
from storyvae.model import StoryVAE  # noqa: E402
from storyvae.training import Trainer, TrainingSchedule  # noqa: E402

OVERFIT = dict(d=64, layers=2, encoder_layers=1, heads=2, latent_dim=16, max_seq_len=64,
               injection_modes=("input",), injection_gain=8.0, latent_head_gain=50.0)
CLI_DEFAULT = dict(d=64, layers=4, encoder_layers=2, heads=4, latent_dim=64, max_seq_len=256, injection_modes=("psa",))
NOT_OPS = ("backward", "grad_check", "rescale_for_grad_check", "flat_buffer")


class Recorder:
    """Per-kind node counts and forward and backward seconds, while installed."""

    def __init__(self):
        self.nodes: Counter = Counter()
        self.forward: defaultdict = defaultdict(float)
        self.backward: defaultdict = defaultdict(float)
        self.made: list[str] = []
        self._saved: list[tuple[str, object]] = []

    def install(self) -> None:
        make = ag._make

        def recording(data, op, parents, backward, stages=()):
            self.nodes[op] += 1
            self.made.append(op)

            def timed(g):
                start = perf_counter()
                backward(g)
                self.backward[op] += perf_counter() - start

            return make(data, op, parents, timed, stages)

        self._patch("_make", recording)
        for name, fn in list(vars(ag).items()):
            if inspect.isfunction(fn) and fn.__module__ == ag.__name__ and not name.startswith("_") \
                    and name not in NOT_OPS:
                self._patch(name, self._timed_op(fn))

    def _timed_op(self, fn):
        def op(*args, **kwargs):
            mark = len(self.made)
            start = perf_counter()
            out = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            if len(self.made) > mark:
                self.forward[self.made[-1]] += elapsed
            return out

        return op

    def _patch(self, name: str, replacement) -> None:
        self._saved.append((name, getattr(ag, name)))
        setattr(ag, name, replacement)

    def uninstall(self) -> None:
        while self._saved:
            name, original = self._saved.pop()
            setattr(ag, name, original)


def toy(vocab_size: int, max_len: int):
    pairs = cp.load_corpus(cp.toy_corpus_path())
    vocab = cp.fit_vocabulary([p.prompt_text for p in pairs] + [p.story_text for p in pairs], vocab_size)
    return vocab, cp.prepare_corpus(pairs, vocab, max_len)


def train_case(mode: str):
    vocab, examples = toy(512, OVERFIT["max_seq_len"])
    cfg = tf.ModelConfig(vocab_size=vocab.size, **OVERFIT)
    schedule = TrainingSchedule(total_steps=100000, cycle_length=8, batch_size=4, seed=0)
    trainer = Trainer(StoryVAE.create(cfg, seed=0, mode=mode), examples, schedule, separator_id=vocab.separator_id)
    return lambda: trainer.train_step(trainer.draw_batch())


def generation_cases():
    vocab, examples = toy(512, CLI_DEFAULT["max_seq_len"])
    model = StoryVAE.create(tf.ModelConfig(vocab_size=vocab.size, **CLI_DEFAULT), seed=0)
    prompt = examples[0].prior_input
    one_token = sp.SamplerConfig(max_new_tokens=1, seed=0)
    latent = sp.draw_latent(model, prompt, sp.generation_rng(0, 0))
    state = {}

    def prefill():
        state["cache"] = model.decoder_cache(latent)
        tf.decode_stack(state["cache"], np.append(prompt, vocab.separator_id))

    def step():
        if state["cache"].length + 1 >= model.config.max_seq_len:
            prefill()
        tf.decode_stack(state["cache"], [vocab.separator_id])

    prefill()
    return {"one-token generation": lambda: sp.generate_for_prompt(model, prompt, vocab.separator_id, one_token),
            "cached decode step": step}


def probe(case) -> tuple[int, int, int, int]:
    """One run's Python calls and C-level calls, counted by ``sys.setprofile``, and its minor page faults; then
    another run's peak traced bytes."""
    events: Counter = Counter()

    def count(frame, event, arg):
        events[event] += 1

    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sys.setprofile(count)
    try:
        case()
    finally:
        sys.setprofile(None)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracemalloc.start()
    try:
        case()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return events["call"], events["c_call"], faults, peak


def run(name: str, case, repeats: int) -> None:
    case()
    walls = []
    for _ in range(repeats):
        start = perf_counter()
        case()
        walls.append(perf_counter() - start)
    calls, c_calls, faults, peak = probe(case)
    recorder = Recorder()
    recorder.install()
    try:
        for _ in range(repeats):
            case()
    finally:
        recorder.uninstall()
    kinds = sorted(recorder.nodes, key=lambda k: (-recorder.nodes[k], k))
    print(f"## {name}: {sum(recorder.nodes.values()) / repeats:g} nodes, {calls} Python calls, {c_calls} C calls, "
          f"{faults} minor faults, {peak} peak traced bytes, wall {statistics.median(walls) * 1e3:.3f} ms")
    print()
    print("| op kind | nodes | forward ms | backward ms |")
    print("|---|---|---|---|")
    for kind in kinds:
        print(f"| `{kind}` | {recorder.nodes[kind] / repeats:g} | {recorder.forward[kind] / repeats * 1e3:.3f} "
              f"| {recorder.backward[kind] / repeats * 1e3:.3f} |")
    print(f"| all | {sum(recorder.nodes.values()) / repeats:g} | {sum(recorder.forward.values()) / repeats * 1e3:.3f} "
          f"| {sum(recorder.backward.values()) / repeats * 1e3:.3f} |")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=200, help="timed runs of each case (default 200)")
    args = parser.parse_args()
    cases = {"cvae train step": train_case("cvae"), "vae train step": train_case("vae"), **generation_cases()}
    print("Calls are one run's sys.setprofile events: 'call' for Python, 'c_call' for C.  numpy operators such as")
    print("a @ b raise no c_call event, so they are not counted.  Minor faults are getrusage's ru_minflt over that")
    print("run.  Peak bytes are tracemalloc's over one run.")
    print()
    for name, case in cases.items():
        run(name, case, args.repeats)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``| head -1``): exit 1 without a traceback, and point stdout at
        # /dev/null so the interpreter's last flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
