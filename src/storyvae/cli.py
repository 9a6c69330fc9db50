"""Command-line entry point.

Commands: vocab, train, generate, control, encode, eval, selftest.  One
parser takes the command as its first positional argument and every
option, before or after it; ``--resume`` is train's and the prompts are
control's, and given to another command they are a usage error.
The settings are the fields of ``ModelConfig`` (``model.*``),
``TrainingSchedule`` (``train.*``) and ``SamplerConfig`` (``sampler.*``):
each key is its field's name, dashed, and takes the field's type and
default, so the dataclasses alone declare them.  A few keys configure no
dataclass (``mode``, the paths and ``encode.which``).
Configuration comes from an optional flat key=value file plus flag
overrides (flags win); the fully resolved configuration is written to
the output directory after every input check and before any training,
generation or scoring starts, so a rejected input leaves no output
directory, and together with the recorded seeds it makes every run
reproducible bit-for-bit.  The STORYVAE_OUT environment variable, when
set, overrides the output directory.

Commands that read a checkpoint (generate, eval, encode, control and
train --resume) share one loader, and load it before they write
``config.resolved``.  They take their model config and mode from the
checkpoint and record them there; a ``model.*`` key or ``mode`` given
that contradicts it is a usage error (``model.vocab-size`` aside: the
vocabulary sets it).  ``train`` appends each ``metrics.csv`` row as its
step ends, so a run that crashes keeps the rows of the steps it made.

Exit codes: 0 success, 1 usage error, 2 data error (a path that cannot
be read or written as asked, but for ``--config``), 3 numerical abort
or failed self-check.  Commands run with numpy's overflow and invalid
warnings off: the finiteness checks raise instead.  A decoder call, an
encoder pass and a train step's forward check only their sinks
(``autograd.sink_pass``); when one fails, the pass runs again with every
op's own check on, and that check's error is the one reported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import corpus as cp
from . import evaluation as ev
from . import sampling as sp
from . import selfcheck
from .model import StoryVAE
from .training import METRICS_HEADER, Trainer, TrainingAbort, TrainingSchedule, metrics_row
from .transformer import ContractError, ModelConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# The dataclasses whose fields are the settings, by key prefix.
_SECTIONS = {"model": ModelConfig, "train": TrainingSchedule, "sampler": sp.SamplerConfig}
# Fields whose key is a short name rather than the dashed field name.
_SHORT_NAMES = {"injection_modes": "inject", "total_steps": "steps", "learning_rate": "lr"}


def config_key(prefix: str, field_name: str) -> str:
    """The configuration key of a field: ``<prefix>.<field name, dashed>``."""
    return f"{prefix}.{_SHORT_NAMES.get(field_name, field_name).replace('_', '-')}"


# Each key's default, whose type is the key's type; booleans are flag-style in both file and argv.  The fields
# give theirs, apart from three whose CLI form differs: injection modes are comma-separated, the schedule has
# no default length, and a cycle length of 0 asks for the schedule's default cycle.
DEFAULTS = {
    "mode": "cvae", "corpus": "", "vocab": "", "checkpoint": "", "out": "",
    **{config_key(prefix, f.name): f.default for prefix, cls in _SECTIONS.items() for f in fields(cls)},
    "encode.which": "posterior-mean",
} | {"model.inject": "psa", "train.steps": 2000, "train.cycle-length": 0}

COMMANDS = ("vocab", "train", "generate", "control", "encode", "eval", "selftest")


class UsageError(ValueError):
    pass


def parse_config_file_text(text: str, origin: str = "<config>") -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{origin}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in DEFAULTS:
            raise UsageError(f"{origin}:{lineno}: unknown configuration key {key!r}")
        values[key] = value
    return values


def parse_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})") from e
    return parse_config_file_text(text, origin=str(path))


def _coerce(key: str, raw: str):
    kind = type(DEFAULTS[key])
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as e:
        raise UsageError(f"bad value for {key}: {raw!r}") from e


def _given_config(args: argparse.Namespace) -> dict:
    """The keys the config file, the flags and STORYVAE_OUT set; flags win over the file."""
    given = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(Path(args.config)).items():
            given[key] = _coerce(key, raw)
    ns = vars(args)
    for key in DEFAULTS:
        value = ns.get(key)
        if value is not None and value is not False:
            given[key] = value
    env_out = os.environ.get("STORYVAE_OUT")
    if env_out:
        given["out"] = env_out
    return given


def config_snapshot(resolved: dict) -> str:
    lines = []
    for key in sorted(resolved):
        value = resolved[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def configured(prefix: str, resolved: dict):
    """The ``prefix`` section's dataclass, built from the resolved keys of its fields."""
    kwargs = {f.name: resolved[config_key(prefix, f.name)] for f in fields(_SECTIONS[prefix])}
    if prefix == "model":
        kwargs["injection_modes"] = tuple(m for m in kwargs["injection_modes"].split(",") if m)
    if prefix == "train":
        kwargs["cycle_length"] = kwargs["cycle_length"] or None
    return _SECTIONS[prefix](**kwargs)


def _require(resolved: dict, *keys: str) -> None:
    for key in keys:
        if not resolved[key]:
            raise UsageError(f"missing required option --{key}")


def _prepare_out(resolved: dict) -> Path:
    _require(resolved, "out")
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(config_snapshot(resolved), encoding="utf-8")
    return out


def _load_run(resolved: dict, given: dict, checkpoint: str, corpus: bool = True):
    """``checkpoint``'s model and manifest, the vocabulary of its size, the examples at its max_seq_len (or
    None), and ``resolved`` with the checkpoint's ``mode`` and ``model.*`` keys.

    A given key that contradicts the checkpoint raises ``UsageError``;
    ``model.vocab-size`` is exempt, since the vocabulary decides it.
    """
    model, manifest = StoryVAE.load(checkpoint)
    vocab = cp.Vocabulary.load(resolved["vocab"])
    if vocab.size != model.config.vocab_size:
        raise ContractError(
            f"the vocabulary has {vocab.size} tokens but the checkpoint's model has {model.config.vocab_size}"
        )
    examples = cp.prepare_corpus(cp.load_corpus(resolved["corpus"]), vocab, model.config.max_seq_len) if corpus else None
    saved = {config_key("model", k): v for k, v in model.config.to_dict().items()}
    saved = {"mode": model.mode, **saved, "model.inject": ",".join(saved["model.inject"])}
    for key, value in given.items():
        if key == "model.inject":
            value = ",".join(m for m in value.split(",") if m)
        if key in saved and key != "model.vocab-size" and value != saved[key]:
            raise UsageError(f"--{key} {value} contradicts the checkpoint's {saved[key]}; a checkpoint keeps its model")
    return model, manifest, vocab, examples, {**resolved, **saved}


def _open_checkpoint(resolved: dict, given: dict, corpus: bool = True):
    """The ``--checkpoint`` run's model, vocabulary and examples, and ``resolved`` with its model keys."""
    _require(resolved, *(("corpus",) if corpus else ()), "vocab", "checkpoint", "out")
    model, _, vocab, examples, resolved = _load_run(resolved, given, resolved["checkpoint"], corpus)
    return model, vocab, examples, resolved


def cmd_vocab(resolved: dict) -> int:
    _require(resolved, "corpus", "out")
    pairs = cp.load_corpus(resolved["corpus"])
    texts = [p.prompt_text for p in pairs] + [p.story_text for p in pairs]
    vocab = cp.fit_vocabulary(texts, resolved["model.vocab-size"])
    out = _prepare_out(resolved)
    vocab.save(out / "vocab.txt")
    print(f"vocabulary of {vocab.size} tokens written to {out / 'vocab.txt'}")
    return EXIT_OK


def cmd_train(resolved: dict, resume: str | None, given: dict) -> int:
    _require(resolved, "corpus", "vocab", "out")
    if resume:
        model, manifest, vocab, examples, resolved = _load_run(resolved, given, resume)
        # A resumed run keeps the annealing cycle, freeze horizon and beta floor it was saved with, unless a
        # flag or the config file gives them; a cycle length of 0 asks for the saved cycle too.
        saved = manifest.get("optimizer") or {}
        for field in ("cycle_length", "freeze_steps", "beta_floor"):
            key = config_key("train", field)
            if saved.get(field) is not None and (key not in given or (field == "cycle_length" and not given[key])):
                resolved[key] = saved[field]
    schedule = configured("train", resolved)  # checked before the seed initializes a model
    if not resume:
        vocab = cp.Vocabulary.load(resolved["vocab"])
        examples = cp.prepare_corpus(cp.load_corpus(resolved["corpus"]), vocab, resolved["model.max-seq-len"])
        cfg = configured("model", {**resolved, "model.vocab-size": vocab.size})
        model = StoryVAE.create(cfg, seed=schedule.seed, mode=resolved["mode"])
    trainer = Trainer(model, examples, schedule, separator_id=vocab.separator_id)
    if resume:
        trainer.load_optimizer_state(resume, manifest)
    out = _prepare_out(resolved)
    checkpoint_dir = out / "checkpoint"
    # Stored relative to the checkpoint so identical runs produce identical bytes.
    vocab_ref = os.path.relpath(resolved["vocab"], checkpoint_dir)
    with (out / "metrics.csv").open("w", encoding="ascii") as metrics:
        metrics.write(METRICS_HEADER + "\n")

        def append_row(record: dict) -> None:
            metrics.write(metrics_row(record))
            metrics.flush()

        trainer.train(checkpoint_dir=checkpoint_dir, vocabulary_ref=vocab_ref, progress=append_row)
    last = trainer.metrics[-1]
    print(
        f"trained {trainer.step_count} steps; final loss {last['loss']:.4f} "
        f"(recon {last['recon']:.4f}, kl {last['kl']:.4f}); checkpoint at {checkpoint_dir}"
    )
    return EXIT_OK


def _write_stories(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _sampled_stories(resolved: dict, given: dict):
    """The checkpoint's model and examples, the output directory, one sampled story record per example, and the
    examples' (N, d') prior means, which the generation encoded."""
    model, vocab, examples, resolved = _open_checkpoint(resolved, given)
    sampler = configured("sampler", resolved)
    out = _prepare_out(resolved)
    means = np.empty((len(examples), model.config.latent_dim), dtype=model.dtype)
    stories, latent = sp.generate_for_prompts(model, [ex.prior_input for ex in examples], vocab.separator_id, sampler,
                                              prior_means=means)
    records = [
        {"prompt": ex.pair.prompt_text, "story": vocab.decode(story),
         "latent_source": latent.source.value, "seed": sampler.seed}
        for ex, story in zip(examples, stories)
    ]
    return model, examples, out, records, means


def cmd_generate(resolved: dict, given: dict) -> int:
    _, _, out, records, _ = _sampled_stories(resolved, given)
    _write_stories(out / "stories.jsonl", records)
    print(f"{len(records)} stories written to {out / 'stories.jsonl'}")
    return EXIT_OK


def cmd_control(resolved: dict, given: dict, prompt_a: str, prompt_b: str) -> int:
    if not prompt_a or not prompt_b:
        raise UsageError("control needs --prompt-a and --prompt-b")
    model, vocab, _, resolved = _open_checkpoint(resolved, given, corpus=False)
    sampler = configured("sampler", resolved)
    tokens_a, tokens_b = vocab.encode(prompt_a), vocab.encode(prompt_b)
    max_len = model.config.max_seq_len
    # The text prefix needs room for the separator; the latent's prompt is encoded whole.
    for flag, tokens, limit in (("--prompt-a", tokens_a, max_len - 1), ("--prompt-b", tokens_b, max_len)):
        if len(tokens) > limit:
            raise ContractError(f"{flag} encodes to {len(tokens)} tokens; max_seq_len {max_len} allows {limit}")
    out = _prepare_out(resolved)
    story, latent = sp.control_generate(model, tokens_a, tokens_b, vocab.separator_id, sampler)
    record = {
        "prompt": prompt_a,
        "latent_prompt": prompt_b,
        "story": vocab.decode(story),
        "latent_source": latent.source.value,
        "seed": sampler.seed,
    }
    _write_stories(out / "stories.jsonl", [record])
    print(f"control story written to {out / 'stories.jsonl'}")
    return EXIT_OK


def cmd_encode(resolved: dict, given: dict) -> int:
    model, vocab, examples, resolved = _open_checkpoint(resolved, given)
    ev.check_latent_kind(resolved["encode.which"])
    out = _prepare_out(resolved)
    n = ev.export_latents(model, examples, resolved["encode.which"], out / "latents.tsv")
    print(f"{n} latent rows written to {out / 'latents.tsv'}")
    return EXIT_OK


def cmd_eval(resolved: dict, given: dict) -> int:
    model, examples, out, records, means = _sampled_stories(resolved, given)
    report = ev.evaluate(model, examples, [r["story"] for r in records], prior_means=means)
    _write_stories(out / "stories.jsonl", records)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    print(
        f"ppl subword {report.ppl_subword:.3f}, word {report.ppl_word:.3f}; "
        f"rouge1 f1 {report.rouge1.f1:.3f}; report at {out / 'report.json'}"
    )
    return EXIT_OK


def cmd_selftest() -> int:
    failures = selfcheck.run_all(print)
    if failures:
        print(f"selftest: {failures} check(s) failed")
        return EXIT_NUMERIC
    print("selftest: all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storyvae",
        description="Prompt-conditioned story generation with a latent-variable transformer.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value configuration file")
    for key, default in DEFAULTS.items():
        if isinstance(default, bool):
            parser.add_argument(f"--{key}", dest=key, action="store_true", default=False)
        else:
            parser.add_argument(f"--{key}", dest=key, type=type(default), default=None)
    parser.add_argument(
        "--resume", default=None,
        help="train only: checkpoint directory to resume from; the model and mode are the checkpoint's, "
             "--train.steps then counts the additional steps, "
             "and the annealing cycle, freeze horizon and beta floor are the checkpoint's unless given",
    )
    parser.add_argument("--prompt-a", dest="prompt_a", default=None, help="control only: the text prefix's prompt")
    parser.add_argument("--prompt-b", dest="prompt_b", default=None, help="control only: the latent's prompt")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        if args.resume is not None and args.command != "train":
            raise UsageError(f"--resume belongs to train, not {args.command}")
        if (args.prompt_a is not None or args.prompt_b is not None) and args.command != "control":
            raise UsageError(f"--prompt-a and --prompt-b belong to control, not {args.command}")
        given = _given_config(args)  # the one read of the config file
        resolved = {**DEFAULTS, **given}
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "selftest":
                return cmd_selftest()
            if args.command == "vocab":
                return cmd_vocab(resolved)
            if args.command == "train":
                return cmd_train(resolved, args.resume, given)
            if args.command == "control":
                return cmd_control(resolved, given, args.prompt_a, args.prompt_b)
            return {"generate": cmd_generate, "encode": cmd_encode, "eval": cmd_eval}[args.command](resolved, given)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (cp.CorpusError, OSError, ContractError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print("data error: the input asks for more memory than there is", file=sys.stderr)
        return EXIT_DATA
    except (TrainingAbort, ag.NumericsError) as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
