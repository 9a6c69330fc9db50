import hashlib
import json
import shutil
from pathlib import Path

import pytest

from storyvae import cli
from storyvae.corpus import toy_corpus_path

FAST_MODEL = [
    "--model.d", "16", "--model.layers", "1", "--model.encoder-layers", "1",
    "--model.heads", "2", "--model.latent-dim", "8", "--model.vocab-size", "300",
    "--model.max-seq-len", "64", "--model.inject", "input",
]
FAST_TRAIN = ["--train.steps", "12", "--train.cycle-length", "4", "--train.batch-size", "2"]
FAST_SAMPLER = ["--sampler.max-new-tokens", "6", "--sampler.top-k", "5"]


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        cfg.write_text("model.d = 32\ntrain.steps = 9\n# comment\n")
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--config", str(cfg), "--train.steps", "4"])
        resolved = cli.resolve_config(args)
        assert resolved["model.d"] == 32       # from file
        assert resolved["train.steps"] == 4    # flag wins
        assert resolved["train.lr"] == 1e-3    # default

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model.width = 32\n")
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--config", str(cfg)])
        with pytest.raises(cli.UsageError):
            cli.resolve_config(args)

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STORYVAE_OUT", str(tmp_path / "env-out"))
        parser = cli.build_parser()
        args = parser.parse_args(["vocab", "--out", str(tmp_path / "flag-out")])
        resolved = cli.resolve_config(args)
        assert resolved["out"] == str(tmp_path / "env-out")

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

    def test_snapshot_round_trips(self, tmp_path):
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--model.d", "48"])
        resolved = cli.resolve_config(args)
        text = cli.config_snapshot(resolved)
        reparsed = cli.parse_config_file_text(text)
        assert reparsed["model.d"] == "48"


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

    @pytest.mark.parametrize("corruption", ["params_truncated", "params_trailing_bytes", "manifest_truncated"])
    def test_data_error_on_corrupt_checkpoint(self, workspace, tmp_path, capsys, corruption):
        checkpoint = tmp_path / "checkpoint"
        shutil.copytree(workspace["checkpoint"], checkpoint)
        params, manifest = checkpoint / "params.bin", checkpoint / "manifest.json"
        if corruption == "params_truncated":
            params.write_bytes(params.read_bytes()[:-10])
        elif corruption == "params_trailing_bytes":
            params.write_bytes(params.read_bytes() + b"\x00\x00")
        else:
            manifest.write_bytes(manifest.read_bytes()[:-20])
        code = cli.main(
            ["eval", "--corpus", workspace["corpus"], "--vocab", workspace["vocab"],
             "--checkpoint", str(checkpoint), "--out", str(tmp_path / "o")] + FAST_SAMPLER
        )
        assert code == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0


@pytest.mark.slow
def test_selftest_passes():
    assert cli.main(["selftest"]) == 0


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
