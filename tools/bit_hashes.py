"""Print one sha256 line per deterministic artifact, to diff two checkouts bit for bit.

    python3 tools/bit_hashes.py > hashes.txt

The cases, each a line ``<sha256>  <case>``:
- **Train steps** at the acceptance overfit config on the toy corpus:
  30 steps in each of the 8 cases float32/float64 x cvae/vae x the
  ``input`` route/all routes, and 10 steps (5 of them frozen) in float32
  cvae and float64 vae with all routes, and 30 steps in float32 cvae
  with the ``input`` route and clipping off (``grad_clip=0``: every other
  case clips at every step).  Each hashes the parameters, both Adam
  moments and update counts, and every step's metrics.
- **Generation batches:** ``generate_for_prompts`` over 16 toy prompts at
  the CLI default model config (the ``psa`` route) and at that config with
  all three routes (``input``, ``psa`` and ``softmax``), each in float32
  and in float64 (stories and latents); and in float32 at the CLI default
  config with a vocabulary of 300, where prompts span several tokens, so
  each prefill runs a causal mask of more than two rows through 4 layers.
- **The CLI chain** vocab -> train -> ``train --resume`` -> generate ->
  eval -> encode -> control, run in a fresh temporary directory under
  relative paths, so ``config.resolved`` and the checkpoint's vocabulary
  reference read the same in any checkout: one line per file written.

The package is imported from this checkout's ``src``.  Identical output
on two checkouts means they train, sample and write the same bits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from storyvae import cli  # noqa: E402
from storyvae import corpus as cp  # noqa: E402
from storyvae import sampling as sp  # noqa: E402
from storyvae import transformer as tf  # noqa: E402
from storyvae.model import StoryVAE  # noqa: E402
from storyvae.training import Trainer, TrainingSchedule  # noqa: E402

OVERFIT = dict(d=64, layers=2, encoder_layers=1, heads=2, latent_dim=16, max_seq_len=64,
               injection_gain=8.0, latent_head_gain=50.0)
CLI_DEFAULT = dict(d=64, layers=4, encoder_layers=2, heads=4, latent_dim=64, max_seq_len=256,
                   injection_modes=("psa",))
CHAIN_MODEL = ["--model.d", "16", "--model.layers", "2", "--model.encoder-layers", "1", "--model.heads", "2",
               "--model.latent-dim", "8", "--model.vocab-size", "300", "--model.max-seq-len", "64",
               "--model.inject", "input,psa,softmax"]
CHAIN_SAMPLER = ["--sampler.max-new-tokens", "12", "--sampler.top-k", "20"]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def toy_vocabulary(size: int = 512):
    pairs = cp.load_corpus(cp.toy_corpus_path())
    return pairs, cp.fit_vocabulary([p.prompt_text for p in pairs] + [p.story_text for p in pairs], size)


def train_case(dtype, mode: str, modes: tuple[str, ...], steps: int, **schedule) -> str:
    """``steps`` train steps; ``schedule`` sets ``TrainingSchedule`` fields beyond the shared ones."""
    pairs, vocab = toy_vocabulary()
    cfg = tf.ModelConfig(vocab_size=vocab.size, injection_modes=modes, **OVERFIT)
    model = StoryVAE.create(cfg, seed=0, mode=mode, dtype=dtype)
    schedule = TrainingSchedule(total_steps=steps, cycle_length=8, batch_size=4, seed=0, **schedule)
    trainer = Trainer(model, cp.prepare_corpus(pairs, vocab, cfg.max_seq_len), schedule,
                      separator_id=vocab.separator_id)
    metrics = trainer.train()
    opt = trainer.optimizer
    return digest(model.params.data_buffer.tobytes(), opt.m.tobytes(), opt.v.tobytes(), sorted(opt.t.items()),
                  metrics)


def generation_case(dtype, modes: tuple[str, ...], vocab_size: int = 512) -> str:
    pairs, vocab = toy_vocabulary(vocab_size)
    cfg = tf.ModelConfig(vocab_size=vocab.size, **{**CLI_DEFAULT, "injection_modes": modes})
    model = StoryVAE.create(cfg, seed=0, dtype=dtype)
    examples = cp.prepare_corpus(pairs, vocab, cfg.max_seq_len)[:16]
    stories, latent = sp.generate_for_prompts(model, [ex.prior_input for ex in examples], vocab.separator_id,
                                              sp.SamplerConfig(seed=3))
    return digest(stories, latent.z.data.tobytes())


def cli_chain() -> list[tuple[str, str]]:
    """Every file the chain writes, as (relative path, sha256), in path order."""
    common = ["--corpus", "corpus.jsonl", "--vocab", "vocab/vocab.txt"]
    steps = [
        ["vocab", "--corpus", "corpus.jsonl", "--out", "vocab"] + CHAIN_MODEL,
        ["train", "--out", "train", "--train.steps", "10", "--train.cycle-length", "4", "--train.batch-size", "3",
         "--train.freeze-steps", "3"] + common + CHAIN_MODEL,
        ["train", "--resume", "train/checkpoint", "--out", "resume", "--train.steps", "4"] + common,
        ["generate", "--checkpoint", "resume/checkpoint", "--out", "generate"] + common + CHAIN_SAMPLER,
        ["eval", "--checkpoint", "resume/checkpoint", "--out", "eval"] + common + CHAIN_SAMPLER,
        ["encode", "--checkpoint", "resume/checkpoint", "--out", "encode"] + common,
        ["control", "--checkpoint", "resume/checkpoint", "--out", "control", "--vocab", "vocab/vocab.txt",
         "--prompt-a", "ember tale", "--prompt-b", "tide tale"] + CHAIN_SAMPLER,
    ]
    os.environ.pop("STORYVAE_OUT", None)  # it would redirect every --out
    here = os.getcwd()
    root = Path(tempfile.mkdtemp(prefix="bit_hashes_"))
    try:
        os.chdir(root)
        shutil.copyfile(cp.toy_corpus_path(), "corpus.jsonl")
        for argv in steps:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != cli.EXIT_OK:
                raise SystemExit(f"bit_hashes: `storyvae {' '.join(argv)}` exited {code}")
        files = sorted(p for p in Path().rglob("*") if p.is_file() and p.name != "corpus.jsonl")
        return [(p.as_posix(), hashlib.sha256(p.read_bytes()).hexdigest()) for p in files]
    finally:
        os.chdir(here)
        shutil.rmtree(root)


def main() -> None:
    every = tf.INJECTION_MODES
    for dtype in (np.float32, np.float64):
        for mode in ("cvae", "vae"):
            for modes in (("input",), every):
                name = f"train {np.dtype(dtype).name} {mode} {'+'.join(modes)} 30 steps"
                print(f"{train_case(dtype, mode, modes, 30)}  {name}", flush=True)
    for dtype, mode in ((np.float32, "cvae"), (np.float64, "vae")):
        name = f"train {np.dtype(dtype).name} {mode} {'+'.join(every)} 10 steps, 5 frozen"
        print(f"{train_case(dtype, mode, every, 10, freeze_steps=5)}  {name}", flush=True)
    name = "train float32 cvae input 30 steps, no clip"
    print(f"{train_case(np.float32, 'cvae', ('input',), 30, grad_clip=0.0)}  {name}", flush=True)
    for modes in (CLI_DEFAULT["injection_modes"], every):
        for dtype in (np.float32, np.float64):
            name = f"generate_for_prompts {np.dtype(dtype).name} {'+'.join(modes)} 16 prompts"
            print(f"{generation_case(dtype, modes)}  {name}", flush=True)
    name = "generate_for_prompts float32 psa 16 prompts, vocabulary 300"
    print(f"{generation_case(np.float32, ('psa',), vocab_size=300)}  {name}", flush=True)
    for path, sha in cli_chain():
        print(f"{sha}  cli {path}", flush=True)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``| head -1``): exit 1 without a traceback, and point stdout at
        # /dev/null so the interpreter's last flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
