import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from storyvae import cli
from storyvae import corpus as cp
from storyvae import transformer as tf
from storyvae.corpus import toy_corpus_path
from storyvae.model import StoryVAE, read_tensor_file, write_tensor_file
from storyvae.selfcheck import GRADIENT_CASES
from storyvae.training import METRICS_HEADER, Trainer, TrainingAbort, metrics_row

FAST_MODEL = [
    "--model.d", "16", "--model.layers", "1", "--model.encoder-layers", "1",
    "--model.heads", "2", "--model.latent-dim", "8", "--model.vocab-size", "300",
    "--model.max-seq-len", "64", "--model.inject", "input",
]
FAST_TRAIN = ["--train.steps", "12", "--train.cycle-length", "4", "--train.batch-size", "2"]
FAST_SAMPLER = ["--sampler.max-new-tokens", "6", "--sampler.top-k", "5"]


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def with_first(a: np.ndarray, value: float) -> np.ndarray:
    """A copy of ``a`` whose first element is ``value``."""
    out = a.copy()
    out.flat[0] = value
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One vocab+train pass shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(toy_corpus_path())
    assert cli.main(["vocab", "--corpus", corpus, "--out", str(root / "v")] + FAST_MODEL) == 0
    vocab = str(root / "v" / "vocab.txt")
    assert cli.main(
        ["train", "--corpus", corpus, "--vocab", vocab, "--out", str(root / "t")]
        + FAST_MODEL + FAST_TRAIN
    ) == 0
    return {"root": root, "corpus": corpus, "vocab": vocab,
            "checkpoint": str(root / "t" / "checkpoint")}


class TestPipeline:
    def test_train_outputs_exist(self, workspace):
        out = workspace["root"] / "t"
        assert (out / "config.resolved").exists()
        assert (out / "metrics.csv").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,loss,recon,kl,beta,grad_norm"
        assert (out / "checkpoint" / "manifest.json").exists()
        assert (out / "checkpoint" / "params.bin").exists()

    def test_generate(self, workspace):
        out = workspace["root"] / "g"
        code = cli.main(
            ["generate", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
             "--checkpoint", workspace["checkpoint"], "--out", str(out)] + FAST_SAMPLER
        )
        assert code == 0
        lines = (out / "stories.jsonl").read_text().strip().split("\n")
        assert len(lines) == 32
        record = json.loads(lines[0])
        assert set(record) == {"prompt", "story", "latent_source", "seed"}
        assert record["latent_source"] == "prior-sample"

    def test_control_deterministic_bytes(self, workspace):
        args = ["control", "--vocab", workspace["vocab"], "--checkpoint", workspace["checkpoint"],
                "--prompt-a", "ember tale", "--prompt-b", "tide tale",
                "--sampler.seed", "7"] + FAST_SAMPLER
        out1, out2 = workspace["root"] / "c1", workspace["root"] / "c2"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert sha(out1 / "stories.jsonl") == sha(out2 / "stories.jsonl")
        record = json.loads((out1 / "stories.jsonl").read_text())
        assert record["latent_prompt"] == "tide tale"

    def test_encode(self, workspace):
        out = workspace["root"] / "e"
        code = cli.main(
            ["encode", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
             "--checkpoint", workspace["checkpoint"], "--encode.which", "posterior-mean",
             "--out", str(out)]
        )
        assert code == 0
        lines = (out / "latents.tsv").read_text().strip().split("\n")
        assert len(lines) == 32
        assert len(lines[0].split("\t")) == 2 + 8
        assert lines[0].split("\t")[1] == "ember"

    def test_eval(self, workspace):
        out = workspace["root"] / "ev"
        code = cli.main(
            ["eval", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
             "--checkpoint", workspace["checkpoint"], "--out", str(out)] + FAST_SAMPLER
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["perplexity"]["subword"] >= 1.0
        assert report["perplexity"]["word"] >= 1.0
        assert 0.0 <= report["rouge1"]["f1"] <= 1.0
        assert (out / "stories.jsonl").exists()

    def test_inputs_never_mutated(self, workspace):
        corpus_hash = sha(Path(workspace["corpus"]))
        vocab_hash = sha(Path(workspace["vocab"]))
        cli.main(
            ["eval", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
             "--checkpoint", workspace["checkpoint"], "--out", str(workspace["root"] / "mut")]
            + FAST_SAMPLER
        )
        assert sha(Path(workspace["corpus"])) == corpus_hash
        assert sha(Path(workspace["vocab"])) == vocab_hash


class TestConfigResolution:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {toy_corpus_path()}\nmodel.d = 32\nmodel.vocab-size = 300\n# comment\n")
        assert cli.main(["vocab", "--config", str(cfg), "--model.vocab-size", "280", "--out", str(tmp_path / "o")]) == 0
        resolved = (tmp_path / "o" / "config.resolved").read_text().splitlines()
        assert "model.d = 32" in resolved            # from file
        assert "model.vocab-size = 280" in resolved  # flag wins
        assert "train.lr = 0.001" in resolved        # default

    @pytest.mark.parametrize("key", ["model.width", "model.dropout"])
    def test_unknown_key_rejected(self, tmp_path, capsys, key):
        """A key no setting declares, including the retired ``model.dropout``, is a usage error in file and flag."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 0\n")
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
        assert f"unknown configuration key '{key}'" in capsys.readouterr().err
        assert cli.main(["train", f"--{key}", "0", "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
        assert f"--{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STORYVAE_OUT", str(tmp_path / "env-out"))
        args = ["vocab", "--corpus", str(toy_corpus_path()), "--model.vocab-size", "280"]
        assert cli.main(args + ["--out", str(tmp_path / "flag-out")]) == 0
        assert (tmp_path / "env-out" / "vocab.txt").exists()
        assert f"out = {tmp_path / 'env-out'}" in (tmp_path / "env-out" / "config.resolved").read_text().splitlines()
        assert not (tmp_path / "flag-out").exists()

    def test_config_file_through_main(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"corpus = {toy_corpus_path()}\n"
            f"out = {tmp_path / 'out'}\n"
            "model.vocab-size = 280\n"
        )
        assert cli.main(["vocab", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "vocab.txt").exists()
        snapshot = (tmp_path / "out" / "config.resolved").read_text()
        assert "model.vocab-size = 280" in snapshot
        assert "train.seed = 0" in snapshot

    def test_snapshot_round_trips(self):
        text = cli.config_snapshot({**cli.DEFAULTS, "model.d": 48, "sampler.latent-mean": True})
        reparsed = cli.parse_config_file_text(text)
        assert reparsed["model.d"] == "48"
        assert {key: cli._coerce(key, raw) for key, raw in reparsed.items()} == {
            **cli.DEFAULTS, "model.d": 48, "sampler.latent-mean": True}


class TestExitCodes:
    def test_usage_error_on_unknown_command(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_usage_error_on_missing_required(self, tmp_path):
        assert cli.main(["vocab", "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE

    def test_data_error_on_missing_corpus(self, tmp_path):
        code = cli.main(["vocab", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_DATA

    def test_data_error_on_bad_checkpoint(self, tmp_path):
        code = cli.main(
            ["generate", "--corpus", str(toy_corpus_path()), "--vocab", str(tmp_path / "missing.txt"),
             "--checkpoint", str(tmp_path / "missing"), "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_DATA

    # Manifest fields replaced by a wrong value, as a function of the saved fields.
    MANIFEST_FIELD_CORRUPTIONS = {
        "manifest_payload_not_string": lambda f: {"payload": 5},
        "manifest_payload_empty": lambda f: {"payload": ""},
        "manifest_payload_outside": lambda f: {"payload": "../checkpoint/params.bin"},
        "manifest_mode_unknown": lambda f: {"mode": 5},
        "manifest_step_negative": lambda f: {"step": -1},
        "manifest_model_heads_zero": lambda f: {"model": dict(f["model"], heads=0)},
        "manifest_model_gain_nan": lambda f: {"model": dict(f["model"], injection_gain=float("nan"))},
        # Dropout is retired: a checkpoint trained with it cannot be honoured.
        "manifest_model_dropout_nonzero": lambda f: {"model": dict(f["model"], dropout=0.2)},
        "manifest_step_bool": lambda f: {"step": True},
        "manifest_tensors_not_list": lambda f: {"tensors": "embed.word"},
        "manifest_optimizer_not_object": lambda f: {"optimizer": 5},
        "manifest_optimizer_payload_not_string": lambda f: {"optimizer": dict(f["optimizer"], payload=None)},
        "manifest_optimizer_counts_not_int": lambda f: {"optimizer": dict(f["optimizer"], update_counts={"a": "1"})},
        "manifest_optimizer_rng_state_malformed": lambda f: {"optimizer": dict(f["optimizer"], rng_states=dict(
            f["optimizer"]["rng_states"], noise={"bit_generator": "PCG64", "state": -1}))},
        "manifest_optimizer_cycle_length_zero": lambda f: {"optimizer": dict(f["optimizer"], cycle_length=0)},
        "manifest_optimizer_cycle_length_not_int": lambda f: {"optimizer": dict(f["optimizer"], cycle_length="4")},
        "manifest_optimizer_freeze_steps_negative": lambda f: {"optimizer": dict(f["optimizer"], freeze_steps=-1)},
        "manifest_optimizer_freeze_steps_not_int": lambda f: {"optimizer": dict(f["optimizer"], freeze_steps=2.5)},
        "manifest_optimizer_beta_floor_one": lambda f: {"optimizer": dict(f["optimizer"], beta_floor=1.0)},
        "manifest_optimizer_beta_floor_not_number": lambda f: {"optimizer": dict(f["optimizer"], beta_floor="0.3")},
        "manifest_optimizer_beta_floor_bool": lambda f: {"optimizer": dict(f["optimizer"], beta_floor=False)},
    }

    # Update counts replaced, as a function of the saved ones; read only on resume, like optim.bin.
    UPDATE_COUNT_CORRUPTIONS = {
        "optim_counts_missing": lambda counts: {},
        "optim_counts_unknown": lambda counts: dict(counts, nope=3),
    }

    # Tensor files with one tensor replaced: (file, tensor, replacement as a function of the saved array,
    # or of None where the file lacks it).  A replacement of None drops the tensor.
    TENSOR_CORRUPTIONS = {
        "params_non_finite": ("params.bin", "dec.0.mlp.w1", lambda a: with_first(a, np.inf)),
        "optim_non_finite": ("optim.bin", "adam.m.embed.word", lambda a: with_first(a, np.nan)),
        "optim_shape_mismatch": ("optim.bin", "adam.m.embed.pos", lambda a: np.zeros((3, a.shape[1]), dtype=a.dtype)),
        # A negative second moment would take the square root of a negative number on the first step.
        "optim_second_moment_negative": ("optim.bin", "adam.v.embed.word", lambda a: -np.abs(a) - 1.0),
        "optim_moment_missing": ("optim.bin", "adam.v.embed.pos", lambda a: None),
        "optim_moment_of_no_parameter": ("optim.bin", "adam.m.embed.extra", lambda a: np.zeros(3, np.float32)),
    }

    # Tensor files with whole records duplicated or reordered: (file, the file and the tensor the refusal names,
    # records as a function of the saved list).  Where the manifest is named, its tensor list is reordered to match.
    RECORD_CORRUPTIONS = {
        "params_record_duplicated": ("params.bin", "params.bin", "embed.word", lambda r: r[:1] + r),
        "params_records_swapped": ("params.bin", "params.bin", "embed.pos", lambda r: [r[1], r[0], *r[2:]]),
        "params_reordered_with_the_manifest": ("params.bin", "manifest.json", "embed.pos",
                                               lambda r: [r[1], r[0], *r[2:]]),
        "optim_record_duplicated": ("optim.bin", "optim.bin", "adam.m.embed.word", lambda r: r[:1] + r),
        "optim_records_swapped": ("optim.bin", "optim.bin", "adam.v.embed.word", lambda r: [r[1], r[0], *r[2:]]),
    }

    @pytest.mark.parametrize(
        "corruption", ["params_truncated", "params_trailing_bytes", "manifest_truncated", "manifest_dtype_float16",
                       "manifest_not_object", "manifest_unknown_model_key", "manifest_mistyped_width",
                       "manifest_latent_dim_changed", "manifest_model_missing", *MANIFEST_FIELD_CORRUPTIONS,
                       *TENSOR_CORRUPTIONS, *RECORD_CORRUPTIONS,
                       *UPDATE_COUNT_CORRUPTIONS]
    )
    def test_data_error_on_corrupt_checkpoint(self, workspace, tmp_path, capsys, corruption):
        checkpoint = tmp_path / "checkpoint"
        shutil.copytree(workspace["checkpoint"], checkpoint)
        params, manifest = checkpoint / "params.bin", checkpoint / "manifest.json"
        fields = json.loads(manifest.read_text())
        command = ["eval", "--checkpoint", str(checkpoint)] + FAST_SAMPLER
        resume = ["train", "--resume", str(checkpoint), "--train.steps", "1"]
        named = None  # the file and the tensor the refusal must name
        if corruption in self.TENSOR_CORRUPTIONS:
            name, tensor, replace = self.TENSOR_CORRUPTIONS[corruption]
            named = (name, tensor)
            tensors = dict(read_tensor_file(checkpoint / name))
            tensors[tensor] = replace(tensors.get(tensor))
            write_tensor_file(checkpoint / name, [(n, a) for n, a in tensors.items() if a is not None])
        elif corruption in self.RECORD_CORRUPTIONS:
            name, named_file, tensor, reorder = self.RECORD_CORRUPTIONS[corruption]
            named = (named_file, tensor)
            records = reorder(read_tensor_file(checkpoint / name))
            write_tensor_file(checkpoint / name, records)
            if named_file == "manifest.json":
                manifest.write_text(json.dumps(dict(fields, tensors=[n for n, _ in records])))
        elif corruption in self.UPDATE_COUNT_CORRUPTIONS:
            counts = self.UPDATE_COUNT_CORRUPTIONS[corruption](fields["optimizer"]["update_counts"])
            manifest.write_text(json.dumps(dict(fields, optimizer=dict(fields["optimizer"], update_counts=counts))))
            command = resume
        elif corruption == "params_truncated":
            params.write_bytes(params.read_bytes()[:-10])
        elif corruption == "params_trailing_bytes":
            params.write_bytes(params.read_bytes() + b"\x00\x00")
        elif corruption == "manifest_dtype_float16":
            manifest.write_text(json.dumps(dict(fields, dtype="float16")))
        elif corruption == "manifest_not_object":
            manifest.write_text(json.dumps([fields]))
        elif corruption == "manifest_unknown_model_key":
            manifest.write_text(json.dumps(dict(fields, model=dict(fields["model"], foo=1))))
        elif corruption == "manifest_mistyped_width":
            manifest.write_text(json.dumps(dict(fields, model=dict(fields["model"], d="16"))))
        elif corruption == "manifest_latent_dim_changed":
            manifest.write_text(json.dumps(dict(fields, model=dict(fields["model"], latent_dim=4))))
        elif corruption == "manifest_model_missing":
            manifest.write_text(json.dumps({k: v for k, v in fields.items() if k != "model"}))
        elif corruption in self.MANIFEST_FIELD_CORRUPTIONS:
            manifest.write_text(json.dumps(dict(fields, **self.MANIFEST_FIELD_CORRUPTIONS[corruption](fields))))
        else:
            manifest.write_bytes(manifest.read_bytes()[:-20])
        if named and name == "optim.bin":  # read only on resume, which must refuse it before any step runs
            command = resume
        code = cli.main(
            command + ["--corpus", workspace["corpus"], "--vocab", workspace["vocab"], "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err
        if named:
            assert str(checkpoint / named[0]) in err and repr(named[1]) in err, err
        if corruption == "manifest_model_missing":  # named, not a bare KeyError's "data error: 'model'"
            assert "manifest model must be an object of config fields, got None" in err
        assert not (tmp_path / "o").exists()

    def test_resume_without_an_optimizer_block_starts_fresh_optimizer_state(self, workspace, tmp_path):
        """A manifest without ``optimizer`` resumes as one whose block is null does: exit 0, the same metrics."""
        rows = {}
        for case in ("deleted", "null"):
            checkpoint = tmp_path / case / "checkpoint"
            shutil.copytree(workspace["checkpoint"], checkpoint)
            fields = json.loads((checkpoint / "manifest.json").read_text())
            if case == "deleted":
                del fields["optimizer"]
            else:
                fields["optimizer"] = None
            (checkpoint / "manifest.json").write_text(json.dumps(fields))
            assert cli.main(["train", "--resume", str(checkpoint), "--train.steps", "2", "--corpus",
                             workspace["corpus"], "--vocab", workspace["vocab"], "--out", str(tmp_path / case / "o")]) \
                == cli.EXIT_OK
            rows[case] = (tmp_path / case / "o" / "metrics.csv").read_text()
        assert rows["deleted"] == rows["null"] and rows["null"].count("\n") == 3

    def test_every_deleted_manifest_node_runs_or_is_refused_by_name(self, workspace, tmp_path, capsys):
        """Each top-level field of a trained manifest and each node of its optimizer block, deleted in turn.

        ``train --resume`` and ``generate`` each exit 0, or exit 2 with a
        message that says more than the quoted name of the missing key.
        The model config's fields and the per-parameter update counts are
        left to the corruption tests above.
        """
        fields = json.loads((Path(workspace["checkpoint"]) / "manifest.json").read_text())

        def paths(node, path=()):
            for key, child in node.items():
                yield path + (key,)
                if isinstance(child, dict) and key not in ("model", "update_counts"):
                    yield from paths(child, path + (key,))

        deleted = list(paths(fields))
        assert len(deleted) == 28
        checkpoint = tmp_path / "checkpoint"
        for path in deleted:
            shutil.rmtree(checkpoint, ignore_errors=True)
            shutil.copytree(workspace["checkpoint"], checkpoint)
            mutated = json.loads(json.dumps(fields))
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
            (checkpoint / "manifest.json").write_text(json.dumps(mutated))
            where = "/".join(path)
            for command in (["train", "--resume", str(checkpoint), "--train.steps", "1"],
                            ["generate", "--checkpoint", str(checkpoint)] + FAST_SAMPLER):
                out = tmp_path / "o" / command[0] / where
                code = cli.main(command + ["--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
                                           "--out", str(out)])
                err = capsys.readouterr().err.strip()
                assert code in (cli.EXIT_OK, cli.EXIT_DATA), (where, command[0], code, err)
                if code == cli.EXIT_DATA:
                    assert err.startswith("data error: ") and not re.fullmatch(r"data error: '[^']*'", err), \
                        (where, command[0], err)

    @pytest.mark.parametrize(
        "case", ["vocab_header_not_int", "vocab_merge_one_id", "vocab_negative_ids", "vocab_not_ascii",
                 "vocab_size_mismatch", "vocab_size_mismatch_resume", "corpus_not_utf8", "corpus_prompt_null",
                 "corpus_story_numeric", "corpus_label_null", "config_not_utf8"]
    )
    def test_bad_input_file(self, workspace, tmp_path, capsys, case):
        expected = cli.EXIT_USAGE if case.startswith("config") else cli.EXIT_DATA
        vocab, corpus, bad = workspace["vocab"], workspace["corpus"], tmp_path / "bad"
        if case.startswith("vocab"):
            vocab = str(bad)
        elif case.startswith("corpus"):
            corpus = str(bad)
        bad.write_bytes({
            "vocab_header_not_int": b"abc\n", "vocab_merge_one_id": b"258\n1\n",
            "vocab_negative_ids": b"258\n-1 -2\n", "vocab_not_ascii": b"257\n\xff\n",
            # Merge 44 ("ta", as in "tale") takes id 300, one past the checkpoint's vocabulary.
            "vocab_size_mismatch": b"302\n" + b"0 0\n" * 44 + b"116 97\n", "vocab_size_mismatch_resume": b"257\n",
            "corpus_not_utf8": b'{"prompt": "a", "story": "b"}\n\xff\n', "config_not_utf8": b"model.d = 8\n\xff\n",
            # A non-string field is refused, not trained on as its str() ("None", "5").
            "corpus_prompt_null": b'{"prompt": "a", "story": "b"}\n{"prompt": null, "story": "b"}\n',
            "corpus_story_numeric": b'{"prompt": "a", "story": "b"}\n{"prompt": "a", "story": 5}\n',
            "corpus_label_null": b'{"prompt": "a", "story": "b"}\n{"prompt": "a", "story": "b", "label": null}\n',
        }[case])
        args = ["--corpus", corpus, "--vocab", vocab, "--out", str(tmp_path / "o")]
        if case.endswith("resume"):
            args = ["train", "--resume", workspace["checkpoint"]] + args + FAST_MODEL + FAST_TRAIN
        else:
            args = ["generate", "--checkpoint", workspace["checkpoint"]] + args + FAST_SAMPLER
        if case.startswith("config"):
            args += ["--config", str(bad)]
        assert cli.main(args) == expected
        err = capsys.readouterr().err
        assert ("usage error" if expected == cli.EXIT_USAGE else "data error") in err
        if case.startswith("corpus"):
            assert f"{bad}:2:" in err

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0
        assert cli.main(["train", "--help"]) == 0

    @pytest.mark.parametrize("args", [["generate", "--resume", "x"], ["eval", "--prompt-a", "x"],
                                      ["--prompt-b", "x", "train"], ["selftest", "--resume", ""]])
    def test_option_of_another_command_is_a_usage_error(self, workspace, tmp_path, capsys, args):
        """``--resume`` belongs to train and the prompts to control; elsewhere they exit 1 before anything runs."""
        common = ["--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
                  "--checkpoint", workspace["checkpoint"], "--out", str(tmp_path / "o")]
        assert cli.main(args + common) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# Every setting's key and type, in order.  The keys of the model, train and sampler settings come from
# dataclass fields, so this pins the flags against a renamed or reordered field.
SETTINGS = [
    ("mode", str), ("corpus", str), ("vocab", str), ("checkpoint", str), ("out", str),
    ("model.d", int), ("model.layers", int), ("model.encoder-layers", int), ("model.heads", int),
    ("model.latent-dim", int), ("model.vocab-size", int), ("model.max-seq-len", int), ("model.inject", str),
    ("model.injection-gain", float), ("model.latent-head-gain", float),
    ("train.steps", int), ("train.cycle-length", int), ("train.freeze-steps", int), ("train.lr", float),
    ("train.batch-size", int), ("train.seed", int), ("train.beta-floor", float), ("train.grad-clip", float),
    ("train.checkpoint-every", int),
    ("sampler.top-k", int), ("sampler.top-p", float), ("sampler.temperature", float), ("sampler.max-new-tokens", int),
    ("sampler.seed", int), ("sampler.latent-mean", bool),
    ("encode.which", str),
]


def test_settings_keep_their_keys_order_and_types():
    assert [(key, type(default)) for key, default in cli.DEFAULTS.items()] == SETTINGS


def test_one_parser_takes_options_on_either_side_of_the_command():
    parser = cli.build_parser()
    assert parser._subparsers is None
    before = vars(parser.parse_args(["--train.steps", "3", "train", "--model.d", "8"]))
    assert before == vars(parser.parse_args(["train", "--train.steps", "3", "--model.d", "8"]))


def test_config_file_is_read_once_per_call(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {toy_corpus_path()}\nout = {tmp_path / 'out'}\nmodel.vocab-size = 280\n")
    reads, read_text = [], Path.read_text

    def counted(path, *args, **kwargs):
        if path == cfg:
            reads.append(path)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    assert cli.main(["vocab", "--config", str(cfg)]) == cli.EXIT_OK
    assert reads == [cfg]


@pytest.mark.slow
def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    checked = {line.split()[2] for line in lines if line.startswith("ok gradient ")}
    assert checked == set(GRADIENT_CASES)


class TestVaeMode:
    def test_unconditional_training_runs(self, workspace, tmp_path):
        out = tmp_path / "vae"
        code = cli.main(
            ["train", "--mode", "vae", "--corpus", workspace["corpus"],
             "--vocab", workspace["vocab"], "--out", str(out)]
            + FAST_MODEL + FAST_TRAIN
        )
        assert code == 0
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        assert manifest["mode"] == "vae"
        assert manifest["step"] == 12

    def test_resume_continues_step_count(self, workspace, tmp_path):
        first = tmp_path / "first"
        assert cli.main(
            ["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
             "--out", str(first)] + FAST_MODEL + FAST_TRAIN
        ) == 0
        second = tmp_path / "second"
        assert cli.main(
            ["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
             "--out", str(second), "--resume", str(first / "checkpoint")]
            + FAST_MODEL + FAST_TRAIN
        ) == 0
        manifest = json.loads((second / "checkpoint" / "manifest.json").read_text())
        assert manifest["step"] == 24

    def test_resume_matches_an_uninterrupted_run(self, workspace, tmp_path):
        """12 steps, then 12 more with --resume, give the bytes of 24 steps in one run."""
        train = ["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"]] + FAST_MODEL + FAST_TRAIN[2:]
        straight, first, second = tmp_path / "straight", tmp_path / "first", tmp_path / "second"
        assert cli.main(train + ["--train.steps", "24", "--out", str(straight)]) == 0
        assert cli.main(train + ["--train.steps", "12", "--out", str(first)]) == 0
        assert cli.main(train + ["--train.steps", "12", "--out", str(second), "--resume", str(first / "checkpoint")]) == 0
        for name in ("params.bin", "optim.bin"):
            assert sha(second / "checkpoint" / name) == sha(straight / "checkpoint" / name), name
        resumed_rows = (second / "metrics.csv").read_text().split("\n", 1)[1]
        assert (first / "metrics.csv").read_text() + resumed_rows == (straight / "metrics.csv").read_text()


    def test_resume_takes_the_model_from_the_checkpoint(self, workspace, tmp_path):
        """Without model flags a resume trains the checkpoint's model, on the corpus prepared at its max_seq_len."""
        train = ["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"]] + FAST_TRAIN
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(train + FAST_MODEL + ["--model.max-seq-len", "20", "--mode", "vae", "--out", str(first)]) == 0
        assert cli.main(train + ["--out", str(second), "--resume", str(first / "checkpoint")]) == 0
        manifest = json.loads((second / "checkpoint" / "manifest.json").read_text())
        assert (manifest["step"], manifest["mode"], manifest["model"]["max_seq_len"]) == (24, "vae", 20)
        resolved = (second / "config.resolved").read_text()
        for line in ("mode = vae", "model.d = 16", "model.max-seq-len = 20", "model.inject = input"):
            assert line in resolved.splitlines()

    @pytest.mark.parametrize("key, value, agrees", [
        ("model.d", "64", False), ("mode", "vae", False), ("model.inject", "psa", False),
        ("model.max-seq-len", "32", False), ("model.vocab-size", "512", True), ("model.inject", "input,", True),
    ], ids=["model_d", "mode", "inject", "max_seq_len_from_config_file", "vocab_size_exempt", "same_modes"])
    def test_resume_refuses_a_contradicting_model_key(self, workspace, tmp_path, capsys, key, value, agrees):
        """A model key or mode given by flag or config file must match the checkpoint; the vocabulary sets the vocab size."""
        given = [f"--{key}", value]
        if key == "model.max-seq-len":
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            given = ["--config", str(tmp_path / "run.cfg")]
        code = cli.main(
            ["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"], "--out", str(tmp_path / "o"),
             "--resume", workspace["checkpoint"], "--train.steps", "1"] + given
        )
        err = capsys.readouterr().err
        if agrees:
            assert code == cli.EXIT_OK, err
        else:
            assert code == cli.EXIT_USAGE
            assert f"--{key}" in err and "contradicts the checkpoint" in err

    def test_resume_without_a_cycle_flag_keeps_the_saved_cycle(self, workspace, tmp_path):
        """A resumed run anneals on the checkpoint's cycle, not on a quarter of its own --train.steps."""
        train = ["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"]] + FAST_MODEL + FAST_TRAIN[4:]
        straight, first, second = tmp_path / "straight", tmp_path / "first", tmp_path / "second"
        cycle = ["--train.cycle-length", "6"]
        assert cli.main(train + cycle + ["--train.steps", "24", "--out", str(straight)]) == 0
        assert cli.main(train + cycle + ["--train.steps", "12", "--out", str(first)]) == 0
        assert cli.main(train + ["--train.steps", "12", "--out", str(second), "--resume", str(first / "checkpoint")]) == 0
        for name in ("params.bin", "optim.bin"):
            assert sha(second / "checkpoint" / name) == sha(straight / "checkpoint" / name), name
        resumed_rows = (second / "metrics.csv").read_text().split("\n", 1)[1]
        assert (first / "metrics.csv").read_text() + resumed_rows == (straight / "metrics.csv").read_text()
        assert "train.cycle-length = 6" in (second / "config.resolved").read_text()

    @pytest.mark.parametrize("key, value, override",
                             [("train.freeze-steps", "6", "0"), ("train.beta-floor", "0.3", "0.1")])
    def test_resume_without_a_schedule_flag_keeps_the_saved_value(self, workspace, tmp_path, key, value, override):
        """A resumed run keeps the checkpoint's freeze horizon and beta floor; a flag on the resume overrides them."""
        train = ["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"]] + FAST_MODEL + FAST_TRAIN[2:]
        straight, first, second, third = (tmp_path / name for name in ("straight", "first", "second", "third"))
        setting = [f"--{key}", value]
        assert cli.main(train + setting + ["--train.steps", "8", "--out", str(straight)]) == 0
        assert cli.main(train + setting + ["--train.steps", "4", "--out", str(first)]) == 0
        resume = ["--train.steps", "4", "--resume", str(first / "checkpoint")]
        assert cli.main(train + resume + ["--out", str(second)]) == 0
        for name in ("params.bin", "optim.bin"):
            assert sha(second / "checkpoint" / name) == sha(straight / "checkpoint" / name), name
        resumed_rows = (second / "metrics.csv").read_text().split("\n", 1)[1]
        assert (first / "metrics.csv").read_text() + resumed_rows == (straight / "metrics.csv").read_text()
        assert f"{key} = {value}" in (second / "config.resolved").read_text().splitlines()
        assert cli.main(train + resume + [f"--{key}", override, "--out", str(third)]) == 0
        assert f"{key} = {override}" in (third / "config.resolved").read_text().splitlines()
        assert sha(third / "checkpoint" / "params.bin") != sha(straight / "checkpoint" / "params.bin")

    def test_resume_of_a_checkpoint_without_schedule_fields(self, workspace, tmp_path):
        """A checkpoint saved before the schedule fields existed resumes on the given or default schedule."""
        checkpoint = tmp_path / "checkpoint"
        shutil.copytree(workspace["checkpoint"], checkpoint)
        fields = json.loads((checkpoint / "manifest.json").read_text())
        old = {k: v for k, v in fields["optimizer"].items() if k not in ("cycle_length", "freeze_steps", "beta_floor")}
        (checkpoint / "manifest.json").write_text(json.dumps(dict(fields, optimizer=old)))
        assert cli.main(["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"], "--out",
                         str(tmp_path / "o"), "--resume", str(checkpoint), "--train.steps", "8"]) == cli.EXIT_OK
        resolved = (tmp_path / "o" / "config.resolved").read_text().splitlines()
        assert {"train.cycle-length = 0", "train.freeze-steps = 0", "train.beta-floor = 0.0"} <= set(resolved)


@pytest.mark.parametrize("case", ["finite_gelu_overflow", "non_finite_logits"])
def test_numerics_through_the_cli(workspace, tmp_path, capsys, case):
    """An overflow inside an op whose output is finite is no error and warns nothing; a non-finite output exits 3."""
    checkpoint = tmp_path / "checkpoint"
    shutil.copytree(workspace["checkpoint"], checkpoint)
    tensors = dict(read_tensor_file(checkpoint / "params.bin"))
    if case == "finite_gelu_overflow":
        # Pre-activations of 1e13 cube past the float32 range; tanh saturates, so gelu returns them unchanged.
        tensors["dec.0.mlp.b1"] = np.full_like(tensors["dec.0.mlp.b1"], 1e13)
    else:
        # A final-norm gain of 1e30 against words scaled by 1e10 overflows the logits.
        tensors["dec.final_norm.g"] = tensors["dec.final_norm.g"] * np.float32(1e30)
        tensors["embed.word"] = tensors["embed.word"] * np.float32(1e10)
    write_tensor_file(checkpoint / "params.bin", tensors.items())
    # pytest captures warnings itself, so record them around the command.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(
            ["generate", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
             "--checkpoint", str(checkpoint), "--out", str(tmp_path / "g")] + FAST_SAMPLER
        )
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    if case == "finite_gelu_overflow":
        assert code == cli.EXIT_OK, err
    else:
        assert code == cli.EXIT_NUMERIC
        assert "numerical abort" in err and "Traceback" not in err


def test_a_resumed_step_with_a_non_finite_gradient_norm_exits_3(workspace, tmp_path, capsys):
    """A finite loss whose gradient overflows (w1 of 1e37 times a GELU's slope) aborts the step: no row, no checkpoint."""
    checkpoint = tmp_path / "checkpoint"
    shutil.copytree(workspace["checkpoint"], checkpoint)
    tensors = dict(read_tensor_file(checkpoint / "params.bin"))
    w1 = tensors["dec.0.mlp.w1"]
    tensors["dec.0.mlp.w1"] = np.where(np.random.default_rng(0).standard_normal(w1.shape) > 0, 1e37, -1e37).astype(w1.dtype)
    tensors["dec.0.mlp.w2"] = np.full_like(tensors["dec.0.mlp.w2"], 1e-22)
    write_tensor_file(checkpoint / "params.bin", tensors.items())
    out = tmp_path / "o"
    code = cli.main(["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"], "--resume",
                     str(checkpoint), "--train.steps", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERIC, err
    assert "numerical abort: non-finite gradient norm at step 12, parameter 'dec.0.mlp.w2': gradient norm inf" in err
    assert "Traceback" not in err
    assert (out / "metrics.csv").read_text(encoding="ascii") == METRICS_HEADER + "\n"
    assert not (out / "checkpoint").exists()


def test_eval_runs_one_forward_per_group_and_step(workspace, tmp_path, monkeypatch):
    """Generation decodes each prompt-length group in lockstep, and scoring runs one forward per length group."""
    shapes = []
    encode, decode = tf.encode_stack, tf.decode_stack

    def encode_spy(tokens, *args):
        shapes.append(np.shape(tokens))
        return encode(tokens, *args)

    def decode_spy(cache, tokens):
        shapes.append(np.shape(tokens))
        return decode(cache, tokens)

    monkeypatch.setattr(tf, "encode_stack", encode_spy)
    monkeypatch.setattr(tf, "decode_stack", decode_spy)
    assert cli.main(
        ["eval", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
         "--checkpoint", workspace["checkpoint"], "--out", str(tmp_path / "ev")] + FAST_SAMPLER
    ) == 0
    vocab = cp.Vocabulary.load(workspace["vocab"])
    examples = cp.prepare_corpus(cp.load_corpus(workspace["corpus"]), vocab, 64)
    prompt_groups = len(tf.length_groups([ex.prior_input for ex in examples]))
    decoder_groups = len(tf.length_groups([ex.decoder_input for ex in examples]))
    budget = int(FAST_SAMPLER[1])
    assert prompt_groups > 1
    assert len(shapes) <= prompt_groups * (budget + 1) + prompt_groups + decoder_groups


def test_eval_encodes_each_prompt_groups_prior_once(workspace, tmp_path, monkeypatch):
    """Scoring reuses the prior means that generation encoded: one ``encode_prior`` call per prompt-length group."""
    calls, encode_prior = [], StoryVAE.encode_prior

    def spy(self, prompt_tokens):
        calls.append(np.shape(prompt_tokens))
        return encode_prior(self, prompt_tokens)

    monkeypatch.setattr(StoryVAE, "encode_prior", spy)
    assert cli.main(
        ["eval", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
         "--checkpoint", workspace["checkpoint"], "--out", str(tmp_path / "ev")] + FAST_SAMPLER
    ) == 0
    vocab = cp.Vocabulary.load(workspace["vocab"])
    prompts = [ex.prior_input for ex in cp.prepare_corpus(cp.load_corpus(workspace["corpus"]), vocab, 64)]
    groups = tf.length_groups(prompts)
    assert len(groups) > 1
    assert calls == [(len(group), len(prompts[group[0]])) for group in groups]


def test_generate_latent_mean_flag(workspace, tmp_path):
    out = tmp_path / "gm"
    code = cli.main(
        ["generate", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
         "--checkpoint", workspace["checkpoint"], "--out", str(out),
         "--sampler.latent-mean", "--sampler.max-new-tokens", "4"]
    )
    assert code == 0
    record = json.loads((out / "stories.jsonl").read_text().splitlines()[0])
    assert record["latent_source"] == "prior-mean"


@pytest.mark.parametrize("command", ["generate", "eval", "encode", "control"])
def test_checkpoint_commands_record_the_checkpoint_model(workspace, tmp_path, capsys, command):
    """config.resolved holds the checkpoint's mode and model keys, and a model flag that contradicts them exits 1."""
    args = [command, "--vocab", workspace["vocab"], "--checkpoint", workspace["checkpoint"]] + FAST_SAMPLER
    args += ["--prompt-a", "ember tale", "--prompt-b", "tide tale"] if command == "control" else ["--corpus", workspace["corpus"]]
    assert cli.main(args + ["--out", str(tmp_path / "ok")]) == cli.EXIT_OK
    saved = json.loads((Path(workspace["checkpoint"]) / "manifest.json").read_text())["model"]
    resolved = (tmp_path / "ok" / "config.resolved").read_text().splitlines()
    for line in ("mode = cvae", "model.d = 16", "model.layers = 1", "model.max-seq-len = 64", "model.inject = input",
                 f"model.vocab-size = {saved['vocab_size']}"):
        assert line in resolved
    capsys.readouterr()
    assert cli.main(args + ["--out", str(tmp_path / "bad"), "--model.d", "64"]) == cli.EXIT_USAGE
    assert "--model.d 64 contradicts the checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "bad" / "config.resolved").exists()


def test_a_checkpoint_with_zero_dropout_runs_as_one_without(workspace, tmp_path):
    """A manifest written while the model had a dropout setting, with a rate of 0 and a ``dropout`` RNG state
    (at its seed, as a run at rate 0 left it), loads: every command gives the bytes it gives on the same checkpoint
    without them, and a resume saves a checkpoint without them."""
    plain, legacy = tmp_path / "plain", tmp_path / "legacy"
    shutil.copytree(workspace["checkpoint"], plain)
    shutil.copytree(workspace["checkpoint"], legacy)
    fields = json.loads((legacy / "manifest.json").read_text())
    fields["model"]["dropout"] = 0.0
    fields["optimizer"]["rng_states"]["dropout"] = np.random.default_rng([0, 3]).bit_generator.state
    (legacy / "manifest.json").write_text(json.dumps(fields, indent=2, sort_keys=True) + "\n")
    common = ["--corpus", workspace["corpus"], "--vocab", workspace["vocab"]]
    commands = {  # by output directory, with the file each writes
        "eval": (["eval"] + common + FAST_SAMPLER, "report.json"),
        "encode": (["encode"] + common, "latents.tsv"),
        "control": (["control", "--vocab", workspace["vocab"], "--prompt-a", "ember tale", "--prompt-b", "tide tale"]
                    + FAST_SAMPLER, "stories.jsonl"),
        "resume": (["train", "--train.steps", "4"] + common, "metrics.csv"),
    }
    for name, (args, written) in commands.items():
        flag = "--resume" if name == "resume" else "--checkpoint"
        for checkpoint in (plain, legacy):
            out = tmp_path / f"out-{checkpoint.name}" / name
            assert cli.main(args + [flag, str(checkpoint), "--out", str(out)]) == cli.EXIT_OK, name
        assert sha(tmp_path / "out-legacy" / name / written) == sha(tmp_path / "out-plain" / name / written), name
    for name in ("params.bin", "optim.bin", "manifest.json"):
        resumed = [tmp_path / side / "resume" / "checkpoint" / name for side in ("out-plain", "out-legacy")]
        assert sha(resumed[0]) == sha(resumed[1]), name


def test_metrics_rows_stream_as_steps_end(workspace, tmp_path, monkeypatch):
    """A run that aborts at step 5 keeps the header and its first 5 rows; a whole run writes a row per step record."""
    train = ["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"]] + FAST_MODEL + FAST_TRAIN
    trainers, step, run = [], Trainer.train_step, Trainer.train

    def aborting(self, batch):
        if self.step_count == 5:
            raise TrainingAbort(self.step_count, 0, int(batch[0]), "injected")
        return step(self, batch)

    def spied(self, *args, **kwargs):
        trainers.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Trainer, "train", spied)
    assert cli.main(train + ["--out", str(tmp_path / "whole")]) == cli.EXIT_OK
    rows = [METRICS_HEADER + "\n"] + [metrics_row(r) for r in trainers[0].metrics]
    assert (tmp_path / "whole" / "metrics.csv").read_text(encoding="ascii") == "".join(rows)
    monkeypatch.setattr(Trainer, "train_step", aborting)
    assert cli.main(train + ["--out", str(tmp_path / "crash")]) == cli.EXIT_NUMERIC
    lines = (tmp_path / "crash" / "metrics.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == METRICS_HEADER
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2", "3", "4"]


@pytest.mark.parametrize("case", ["vocab_size_too_small", "vocab_size_past_the_last_code_point",
                                  "vocab_corpus_missing", "vocab_corpus_lone_surrogate", "generate_negative_seed",
                                  "eval_zero_temperature", "encode_unknown_kind", "control_prompt_too_long",
                                  "train_no_injection_mode", "train_vae_no_injection_mode", "vocab_corpus_is_a_directory",
                                  "train_vocab_is_a_directory", "generate_checkpoint_is_a_file"])
def test_rejected_input_leaves_no_output_directory(workspace, tmp_path, capsys, case):
    """Each command checks what it can before it writes config.resolved, so a data error leaves no --out behind."""
    common = ["--corpus", workspace["corpus"], "--vocab", workspace["vocab"], "--checkpoint", workspace["checkpoint"]]
    train = ["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"]] + FAST_MODEL + FAST_TRAIN
    surrogate = tmp_path / "surrogate.jsonl"
    surrogate.write_text('{"prompt": "a\\ud800b", "story": "hello"}\n', encoding="ascii")
    args = {
        "vocab_size_too_small": ["vocab", "--corpus", workspace["corpus"], "--model.vocab-size", "100"],
        # One token more than 256 bytes, a merge for every code point from U+0100 to U+10FFFE, and the separator.
        "vocab_size_past_the_last_code_point": ["vocab", "--corpus", workspace["corpus"],
                                                "--model.vocab-size", str(cp.MIN_VOCAB_SIZE + cp.MAX_MERGES + 1)],
        "vocab_corpus_missing": ["vocab", "--corpus", str(tmp_path / "missing.jsonl")],
        "vocab_corpus_lone_surrogate": ["vocab", "--corpus", str(surrogate)],
        "generate_negative_seed": ["generate", "--sampler.seed", "-1"] + common,
        "eval_zero_temperature": ["eval", "--sampler.temperature", "0"] + common,
        "encode_unknown_kind": ["encode", "--encode.which", "bogus"] + common,
        "control_prompt_too_long": ["control", "--vocab", workspace["vocab"], "--checkpoint", workspace["checkpoint"],
                                    "--prompt-a", " ".join(["ember"] * 400), "--prompt-b", "tide tale"],
        "train_no_injection_mode": train + ["--model.inject", ""],
        "train_vae_no_injection_mode": train + ["--mode", "vae", "--model.inject", ",,"],
        "vocab_corpus_is_a_directory": ["vocab", "--corpus", str(tmp_path)],
        "train_vocab_is_a_directory": ["train", "--corpus", workspace["corpus"], "--vocab", str(tmp_path)]
                                      + FAST_MODEL + FAST_TRAIN,
        "generate_checkpoint_is_a_file": ["generate", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
                                          "--checkpoint", workspace["vocab"]],
    }[case]
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "data error:" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_file_as_out_exits_2_and_stays_unchanged(workspace, tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("keep me\n", encoding="utf-8")
    assert cli.main(["vocab", "--corpus", workspace["corpus"], "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "data error:" in err and "Traceback" not in err
    assert out.read_text(encoding="utf-8") == "keep me\n"


def test_directory_as_config_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["vocab", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [("d", "0"), ("d", "-4"), ("heads", "0"), ("heads", "-2"), ("layers", "0"),
                                         ("latent-dim", "0"), ("latent-dim", "-2")])
def test_model_sizes_below_one_exit_2(workspace, tmp_path, capsys, flag, value):
    """A model size below 1 is a data error naming the size, checked before any division by it."""
    args = ["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"], "--out", str(tmp_path / "o")]
    assert cli.main(args + FAST_MODEL + FAST_TRAIN + [f"--model.{flag}", value]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "model sizes must be at least 1" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value, field", [
    ("generate", "sampler.temperature", "nan", "temperature"), ("generate", "sampler.temperature", "inf", "temperature"),
    ("generate", "sampler.seed", "-1", "seed"), ("train", "train.seed", "-1", "seed"),
    ("train", "train.lr", "-1", "learning_rate"), ("train", "train.lr", "nan", "learning_rate"),
    ("train", "train.grad-clip", "nan", "grad_clip"), ("train", "train.grad-clip", "-1", "grad_clip"),
    ("train", "train.checkpoint-every", "-1", "checkpoint_every"),
    ("train", "model.injection-gain", "nan", "injection_gain"),
    ("train", "model.injection-gain", "inf", "injection_gain"),
    ("train", "model.latent-head-gain", "nan", "latent_head_gain"),
    ("train", "model.latent-head-gain", "inf", "latent_head_gain"),
])
def test_malformed_sampler_and_training_values_exit_2(workspace, tmp_path, capsys, command, flag, value, field):
    """A value that would crash, sample silently wrong, ascend the loss, drop clipping, save every step or
    abort mid-run on a non-finite init is a data error, and leaves no output directory."""
    args = [command, "--corpus", workspace["corpus"], "--vocab", workspace["vocab"], "--out", str(tmp_path / "o")]
    if command == "generate":
        args += ["--checkpoint", workspace["checkpoint"]] + FAST_SAMPLER
    else:
        args += FAST_MODEL + FAST_TRAIN
    assert cli.main(args + [f"--{flag}", value]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {field} must be" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# An address-space limit for the child processes of the tests below: room for Python and numpy, not for a runaway
# listing.
CHILD_ADDRESS_SPACE = 1 << 30


def run_child(argv):
    """``cli.main(argv)`` in a child process under ``CHILD_ADDRESS_SPACE`` and a timeout, so that a tree which builds
    something the size of the input fails cleanly rather than exhausting memory."""
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE}, {CHILD_ADDRESS_SPACE}))\n"
              "from storyvae import cli\n"
              f"sys.exit(cli.main({argv!r}))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", ["generate", "resume"])
@pytest.mark.parametrize("field", ["layers", "d"])
def test_a_manifest_of_an_impossible_model_exits_2_before_building_it(workspace, tmp_path, command, field):
    """A manifest whose model has 10**30 layers, or width, is refused with exit 2, naming the manifest.

    The counts it implies are computed in closed form, so nothing the size
    of the model is built.
    """
    checkpoint = tmp_path / "checkpoint"
    shutil.copytree(workspace["checkpoint"], checkpoint)
    manifest = json.loads((checkpoint / "manifest.json").read_text(encoding="utf-8"))
    manifest["model"][field] = 10**30
    (checkpoint / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    common = ["--corpus", workspace["corpus"], "--vocab", workspace["vocab"], "--out", str(tmp_path / "o")]
    argv = (["generate", "--checkpoint", str(checkpoint)] + FAST_SAMPLER if command == "generate"
            else ["train", "--resume", str(checkpoint), "--train.steps", "1"]) + common
    result = run_child(argv)
    assert result.returncode == cli.EXIT_DATA, result.stderr
    assert str(checkpoint / "manifest.json") in result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--model.d", str(10**16)], "parameter values cannot be allocated"),
    (["--model.heads", str(10**21), "--model.d", str(10**21)], "parameter values cannot be allocated"),
    (["--model.max-seq-len", str(10**19)], "parameter values cannot be allocated"),
    (["--model.d", str(10**6)], "parameter values cannot be allocated"),
    (["--model.layers", str(10**30)], "parameter values cannot be allocated"),
    (["--train.batch-size", str(10**21)], "examples cannot be drawn"),
    (["--train.batch-size", str(10**15)], "more memory than there is"),
], ids=["width", "heads_and_width", "max_seq_len", "width_past_the_limit", "layers", "batch_size",
        "batch_size_past_the_limit"])
def test_a_train_config_too_large_to_allocate_exits_2_before_any_output(workspace, tmp_path, flags, message):
    """A model or batch too large to allocate is refused with exit 2 and a data error, before the output exists.

    The model is refused from its closed-form parameter count, before any
    tensor is listed, so 10**30 layers take no time.
    """
    result = run_child(["train", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
                        "--out", str(tmp_path / "o"), "--model.vocab-size", "300", "--train.steps", "1"] + flags)
    assert result.returncode == cli.EXIT_DATA, result.stderr
    assert result.stderr.startswith("data error: ") and message in result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "o").exists()


def test_running_out_of_memory_is_a_data_error(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_selftest", exhausted)
    assert cli.main(["selftest"]) == cli.EXIT_DATA
    assert "more memory than there is" in capsys.readouterr().err
