"""Command-line entry point.

Commands: vocab, train, generate, control, encode, eval, selftest.
Configuration comes from an optional flat key=value file plus flag
overrides (flags win); the fully resolved configuration is written to
the output directory before any work starts, which together with the
recorded seeds makes every run reproducible bit-for-bit.  The
STORYVAE_OUT environment variable, when set, overrides the output
directory.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical abort
or failed self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import corpus as cp
from . import evaluation as ev
from . import sampling as sp
from . import selfcheck
from .model import StoryVAE
from .training import Trainer, TrainingAbort, TrainingSchedule
from .transformer import ContractError, ModelConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# key -> (type, default); booleans are flag-style in both file and argv.
CONFIG_SCHEMA: dict[str, tuple[type, object]] = {
    "mode": (str, "cvae"),
    "corpus": (str, ""),
    "vocab": (str, ""),
    "checkpoint": (str, ""),
    "out": (str, ""),
    "model.d": (int, 64),
    "model.layers": (int, 4),
    "model.encoder-layers": (int, 2),
    "model.heads": (int, 4),
    "model.latent-dim": (int, 64),
    "model.vocab-size": (int, 512),
    "model.max-seq-len": (int, 256),
    "model.inject": (str, "psa"),
    "model.dropout": (float, 0.0),
    "model.injection-gain": (float, 1.0),
    "model.latent-head-gain": (float, 1.0),
    "train.steps": (int, 2000),
    "train.cycle-length": (int, 0),
    "train.freeze-steps": (int, 0),
    "train.lr": (float, 1e-3),
    "train.batch-size": (int, 8),
    "train.seed": (int, 0),
    "train.beta-floor": (float, 0.0),
    "train.grad-clip": (float, 1.0),
    "train.checkpoint-every": (int, 0),
    "sampler.top-k": (int, 100),
    "sampler.top-p": (float, 0.9),
    "sampler.temperature": (float, 0.9),
    "sampler.max-new-tokens": (int, 128),
    "sampler.seed": (int, 0),
    "sampler.latent-mean": (bool, False),
    "encode.which": (str, "posterior-mean"),
}

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
        if key not in CONFIG_SCHEMA:
            raise UsageError(f"{origin}:{lineno}: unknown configuration key {key!r}")
        values[key] = value
    return values


def parse_config_file(path: Path) -> dict:
    return parse_config_file_text(path.read_text(encoding="utf-8"), origin=str(path))


def _coerce(key: str, raw: str):
    kind, _ = CONFIG_SCHEMA[key]
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


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then flags; flags win."""
    resolved = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        for key, raw in parse_config_file(path).items():
            resolved[key] = _coerce(key, raw)
    ns = vars(args)
    for key in CONFIG_SCHEMA:
        value = ns.get(key)
        if value is not None and value is not False:
            resolved[key] = value
    env_out = os.environ.get("STORYVAE_OUT")
    if env_out:
        resolved["out"] = env_out
    return resolved


def config_snapshot(resolved: dict) -> str:
    lines = []
    for key in sorted(resolved):
        value = resolved[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def model_config_from(resolved: dict) -> ModelConfig:
    inject = tuple(m for m in resolved["model.inject"].split(",") if m)
    return ModelConfig(
        d=resolved["model.d"],
        layers=resolved["model.layers"],
        encoder_layers=resolved["model.encoder-layers"],
        heads=resolved["model.heads"],
        latent_dim=resolved["model.latent-dim"],
        vocab_size=resolved["model.vocab-size"],
        max_seq_len=resolved["model.max-seq-len"],
        injection_modes=inject,
        dropout=resolved["model.dropout"],
        injection_gain=resolved["model.injection-gain"],
        latent_head_gain=resolved["model.latent-head-gain"],
    )


def schedule_from(resolved: dict) -> TrainingSchedule:
    return TrainingSchedule(
        total_steps=resolved["train.steps"],
        cycle_length=resolved["train.cycle-length"] or None,
        freeze_steps=resolved["train.freeze-steps"],
        learning_rate=resolved["train.lr"],
        batch_size=resolved["train.batch-size"],
        seed=resolved["train.seed"],
        beta_floor=resolved["train.beta-floor"],
        grad_clip=resolved["train.grad-clip"],
        checkpoint_every=resolved["train.checkpoint-every"],
    )


def sampler_from(resolved: dict) -> sp.SamplerConfig:
    return sp.SamplerConfig(
        top_k=resolved["sampler.top-k"],
        top_p=resolved["sampler.top-p"],
        temperature=resolved["sampler.temperature"],
        max_new_tokens=resolved["sampler.max-new-tokens"],
        seed=resolved["sampler.seed"],
    )


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


def _load_vocab_corpus(resolved: dict, max_len: int):
    vocab = cp.Vocabulary.load(resolved["vocab"])
    pairs = cp.load_corpus(resolved["corpus"])
    return vocab, cp.prepare_corpus(pairs, vocab, max_len)


def _load_model(resolved: dict) -> StoryVAE:
    _require(resolved, "checkpoint")
    model, _ = StoryVAE.load(resolved["checkpoint"])
    return model


def cmd_vocab(resolved: dict) -> int:
    _require(resolved, "corpus")
    out = _prepare_out(resolved)
    pairs = cp.load_corpus(resolved["corpus"])
    texts = [p.prompt_text for p in pairs] + [p.story_text for p in pairs]
    vocab = cp.fit_vocabulary(texts, resolved["model.vocab-size"])
    vocab.save(out / "vocab.txt")
    print(f"vocabulary of {vocab.size} tokens written to {out / 'vocab.txt'}")
    return EXIT_OK


def cmd_train(resolved: dict, resume: str | None) -> int:
    _require(resolved, "corpus", "vocab")
    out = _prepare_out(resolved)
    cfg = model_config_from(resolved)
    vocab, examples = _load_vocab_corpus(resolved, cfg.max_seq_len)
    if vocab.size != cfg.vocab_size:
        cfg = ModelConfig.from_dict({**cfg.to_dict(), "vocab_size": vocab.size})
    schedule = schedule_from(resolved)
    if resume:
        model, manifest = StoryVAE.load(resume)
        trainer = Trainer(model, examples, schedule, separator_id=vocab.separator_id)
        trainer.load_optimizer_state(resume, manifest)
    else:
        model = StoryVAE.create(cfg, seed=schedule.seed, mode=resolved["mode"])
        trainer = Trainer(model, examples, schedule, separator_id=vocab.separator_id)
    checkpoint_dir = out / "checkpoint"
    # Stored relative to the checkpoint so identical runs produce identical bytes.
    vocab_ref = os.path.relpath(resolved["vocab"], checkpoint_dir)
    trainer.train(checkpoint_dir=checkpoint_dir, vocabulary_ref=vocab_ref)
    trainer.write_metrics(out / "metrics.csv")
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


def _story_records(resolved: dict, model: StoryVAE, vocab: cp.Vocabulary, examples) -> list[dict]:
    """One sampled story per example, as the records stories.jsonl holds."""
    sampler = sampler_from(resolved)
    records = []
    for i, ex in enumerate(examples):
        story, latent = sp.generate_for_prompt(
            model, ex.prior_input, vocab.separator_id, sampler,
            example_index=i, use_mean_latent=resolved["sampler.latent-mean"],
        )
        records.append({
            "prompt": ex.pair.prompt_text,
            "story": vocab.decode(story),
            "latent_source": latent.source.value,
            "seed": sampler.seed,
        })
    return records


def cmd_generate(resolved: dict) -> int:
    _require(resolved, "corpus", "vocab")
    out = _prepare_out(resolved)
    model = _load_model(resolved)
    vocab, examples = _load_vocab_corpus(resolved, model.config.max_seq_len)
    records = _story_records(resolved, model, vocab, examples)
    _write_stories(out / "stories.jsonl", records)
    print(f"{len(records)} stories written to {out / 'stories.jsonl'}")
    return EXIT_OK


def cmd_control(resolved: dict, prompt_a: str, prompt_b: str) -> int:
    _require(resolved, "vocab")
    if not prompt_a or not prompt_b:
        raise UsageError("control needs --prompt-a and --prompt-b")
    out = _prepare_out(resolved)
    model = _load_model(resolved)
    vocab = cp.Vocabulary.load(resolved["vocab"])
    sampler = sampler_from(resolved)
    tokens_a = vocab.encode(prompt_a)
    tokens_b = vocab.encode(prompt_b)
    story, latent = sp.control_generate(
        model, tokens_a, tokens_b, vocab.separator_id, sampler,
        use_mean_latent=resolved["sampler.latent-mean"],
    )
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


def cmd_encode(resolved: dict) -> int:
    _require(resolved, "corpus", "vocab")
    out = _prepare_out(resolved)
    model = _load_model(resolved)
    _, examples = _load_vocab_corpus(resolved, model.config.max_seq_len)
    n = ev.export_latents(model, examples, resolved["encode.which"], out / "latents.tsv")
    print(f"{n} latent rows written to {out / 'latents.tsv'}")
    return EXIT_OK


def cmd_eval(resolved: dict) -> int:
    _require(resolved, "corpus", "vocab")
    out = _prepare_out(resolved)
    model = _load_model(resolved)
    vocab, examples = _load_vocab_corpus(resolved, model.config.max_seq_len)
    records = _story_records(resolved, model, vocab, examples)
    report = ev.evaluate(model, examples, [r["story"] for r in records])
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
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="flat key=value configuration file")
        for key, (kind, _) in CONFIG_SCHEMA.items():
            if kind is bool:
                p.add_argument(f"--{key}", dest=key, action="store_true", default=False)
            else:
                p.add_argument(f"--{key}", dest=key, type=kind, default=None)
        if command == "train":
            p.add_argument("--resume", default=None, help="checkpoint directory to resume from")
        if command == "control":
            p.add_argument("--prompt-a", dest="prompt_a", default=None)
            p.add_argument("--prompt-b", dest="prompt_b", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        resolved = resolve_config(args)
        if args.command == "selftest":
            return cmd_selftest()
        if args.command == "vocab":
            return cmd_vocab(resolved)
        if args.command == "train":
            return cmd_train(resolved, getattr(args, "resume", None))
        if args.command == "generate":
            return cmd_generate(resolved)
        if args.command == "control":
            return cmd_control(resolved, getattr(args, "prompt_a", None), getattr(args, "prompt_b", None))
        if args.command == "encode":
            return cmd_encode(resolved)
        if args.command == "eval":
            return cmd_eval(resolved)
        raise UsageError(f"unknown command: {args.command}")
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (cp.CorpusError, FileNotFoundError, ContractError, KeyError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingAbort, ag.NumericsError) as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
