import itertools

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import corpus as cp
from storyvae import latent as lt
from storyvae import model as md
from storyvae import sampling as sp
from storyvae import transformer as tf
from storyvae.model import LossBreakdown, StoryVAE, read_tensor_file, write_tensor_file
from storyvae.training import Trainer, TrainingSchedule
from storyvae.transformer import ContractError, ModelConfig


def toy_config(**overrides):
    base = dict(d=8, layers=2, encoder_layers=1, heads=2, latent_dim=8,
                vocab_size=16, max_seq_len=12, injection_modes=("input", "psa", "softmax"))
    base.update(overrides)
    return ModelConfig(**base)


def toy_example(sep=15):
    return cp.EncodedExample(
        prior_input=np.array([1, 2]),
        decoder_input=np.array([1, 2, sep, 3, 9]),
        targets=np.array([2, sep, 3, 9, sep]),
        loss_mask=np.array([False, False, True, True, True]),
        pair=cp.PromptStoryPair("p", "s", prompt_tokens=[1, 2], story_tokens=[3, 9]),
    )


class TestEncoders:
    def setup_method(self):
        self.model = StoryVAE.create(toy_config(), seed=0)

    def test_prior_width_and_determinism(self):
        g1 = self.model.encode_prior(np.array([1, 2, 3]))
        g2 = self.model.encode_prior(np.array([1, 2, 3]))
        assert g1.mu.shape == (8,)
        assert np.array_equal(g1.mu.data, g2.mu.data)
        assert np.array_equal(g1.log_sigma.data, g2.log_sigma.data)

    def test_prior_and_posterior_differ_generically(self):
        prior = self.model.encode_prior(np.array([1, 2]))
        post = self.model.encode_posterior(np.array([1, 2]), np.array([3, 9]), separator_id=15)
        assert not np.allclose(prior.mu.data, post.mu.data)

    def test_trunk_shared_heads_separate(self):
        x, y = np.array([1, 2]), np.array([3, 9])
        prior_before = self.model.encode_prior(x).mu.data.copy()
        post_before = self.model.encode_posterior(x, y, 15).mu.data.copy()
        # zeroing a trunk parameter moves both
        self.model.params["enc.0.attn.wv"].data[...] = 0.0
        assert not np.allclose(self.model.encode_prior(x).mu.data, prior_before)
        assert not np.allclose(self.model.encode_posterior(x, y, 15).mu.data, post_before)
        # zeroing the posterior mean head leaves the prior untouched
        prior_mid = self.model.encode_prior(x).mu.data.copy()
        self.model.params["post.mu.w"].data[...] = 0.0
        self.model.params["post.mu.b"].data[...] = 0.0
        assert np.array_equal(self.model.encode_prior(x).mu.data, prior_mid)
        assert np.array_equal(self.model.encode_posterior(x, y, 15).mu.data, np.zeros(8))

    def test_empty_prompt_rejected(self):
        with pytest.raises(ContractError):
            self.model.encode_prior(np.array([], dtype=np.int64))

    def test_posterior_requires_both_sides(self):
        with pytest.raises(ContractError):
            self.model.encode_posterior(np.array([1]), np.array([], dtype=np.int64), 15)
        with pytest.raises(ContractError):
            self.model.encode_posterior(np.array([], dtype=np.int64), np.array([3]), 15)

    def test_vae_mode_prior_is_standard(self):
        model = StoryVAE.create(toy_config(), seed=0, mode="vae")
        g = model.encode_prior(np.array([1, 2]))
        assert np.array_equal(g.mu.data, np.zeros(8))
        assert np.array_equal(g.log_sigma.data, np.zeros(8))


class TestCvaeLoss:
    def setup_method(self):
        self.model = StoryVAE.create(toy_config(), seed=1)
        self.example = toy_example()
        self.noise = np.random.default_rng(2).standard_normal(8).astype(np.float32)

    def test_beta_zero_is_pure_reconstruction(self):
        loss, bd = self.model.cvae_loss(self.example, self.noise, beta=0.0)
        assert np.isclose(float(loss.data), bd.reconstruction_nats, atol=1e-6)
        assert bd.beta == 0.0

    def test_forcing_posterior_equal_to_prior_zeroes_kl(self):
        # both heads zeroed: prior and posterior collapse to N(0, I) whatever they pool
        p = self.model.params
        for role in ("prior", "post"):
            for field in ("mu.w", "mu.b", "ls.w", "ls.b"):
                p[f"{role}.{field}"].data[...] = 0.0
        _, bd = self.model.cvae_loss(toy_example(), self.noise, beta=1.0)
        assert bd.kl_nats < 1e-9

    def test_matches_hand_composed_pipeline(self):
        beta = 0.37
        loss, bd = self.model.cvae_loss(self.example, self.noise, beta=beta)
        post = self.model.encode_posterior(np.array([1, 2]), np.array([3, 9]), 15)
        prior = self.model.encode_prior(np.array([1, 2]))
        z = lt.reparameterize(post, self.noise, lt.LatentSource.POSTERIOR_SAMPLE)
        logits = self.model.decode_logits(self.example.decoder_input, z)
        recon, _ = ag.cross_entropy(logits, self.example.targets, self.example.loss_mask)
        kl = lt.kl_divergence(post, prior)
        assert np.isclose(float(loss.data), float(recon.data) + beta * float(kl.data), atol=1e-6)
        assert np.isclose(bd.reconstruction_nats, float(recon.data), atol=1e-6)
        assert np.isclose(bd.kl_nats, float(kl.data), atol=1e-6)

    def test_breakdown_identities(self):
        loss, bd = self.model.cvae_loss(self.example, self.noise, beta=0.5)
        assert bd.reconstruction_nats >= 0
        assert bd.kl_nats >= 0
        assert bd.beta == 0.5
        assert np.isclose(float(loss.data), bd.reconstruction_nats + 0.5 * bd.kl_nats)
        assert bd.token_count == 3
        with pytest.raises(ContractError):
            LossBreakdown(reconstruction_nats=1.0, kl_nats=0.0, beta=1.5, token_count=1)

    def test_requires_injection_mode(self):
        model = StoryVAE.create(toy_config(injection_modes=()), seed=3)
        with pytest.raises(ContractError):
            model.cvae_loss(self.example, self.noise, beta=0.5)

    def test_wrong_mode_rejected(self):
        model = StoryVAE.create(toy_config(), seed=0, mode="vae")
        with pytest.raises(ContractError):
            model.cvae_loss(self.example, self.noise, beta=0.5)


class TestVaeLoss:
    def setup_method(self):
        self.model = StoryVAE.create(toy_config(), seed=4, mode="vae")
        self.noise = np.zeros(8, dtype=np.float32)

    def test_zero_heads_zero_kl(self):
        for field in ("post.mu.w", "post.mu.b", "post.ls.w", "post.ls.b"):
            self.model.params[field].data[...] = 0.0
        _, bd = self.model.vae_loss(np.array([3, 4, 5]), 15, self.noise, beta=1.0)
        assert bd.kl_nats == 0.0

    def test_beta_zero_pure_autoencoder(self):
        loss, bd = self.model.vae_loss(np.array([3, 4, 5]), 15, self.noise, beta=0.0)
        assert np.isclose(float(loss.data), bd.reconstruction_nats, atol=1e-6)

    def test_kl_is_against_standard_normal(self):
        tokens = np.array([3, 4, 5])
        _, bd = self.model.vae_loss(tokens, 15, self.noise, beta=1.0)
        post = self.model.encode_text_posterior(tokens)
        expected = float(lt.kl_divergence(post, lt.DiagonalGaussian.standard(8)).data)
        assert np.isclose(bd.kl_nats, expected, atol=1e-6)

    def test_scores_every_position(self):
        tokens = np.array([3, 4, 5])
        _, bd = self.model.vae_loss(tokens, 15, self.noise, beta=0.0)
        assert bd.token_count == 4  # three tokens plus the terminal separator


class TestInjectionToggles:
    def test_modes_toggle_independently(self):
        model = StoryVAE.create(toy_config(), seed=5)
        tokens = np.array([1, 5, 9])
        base = model.decode_logits(tokens, None, modes=()).data
        rng = np.random.default_rng(6)
        z = lt.LatentCode.external(rng.standard_normal(8).astype(np.float32))
        diffs = {}
        for mode in tf.INJECTION_MODES:
            out = model.decode_logits(tokens, z, modes=(mode,)).data
            diffs[mode] = np.abs(out - base).max()
        assert all(v > 1e-6 for v in diffs.values()), diffs


class TestTapeSize:
    """Forward ops per unit of work, counted at ``_make``.

    Every op builds its output there once, and the counts repeat exactly,
    so an exact pin here catches a fused op split back into a chain.
    """

    @staticmethod
    def ops(monkeypatch, fn) -> int:
        made, make = [], ag._make

        def counting(data, op, *rest):
            made.append(op)
            return make(data, op, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(ag, "_make", counting)
            fn()
        return len(made)

    def test_cached_token_at_the_cli_default_config(self, monkeypatch):
        model = StoryVAE.create(ModelConfig(), seed=0)
        latent = sp.draw_latent(model, [1, 2, 3], sp.generation_rng(0, 0))
        cache = model.decoder_cache(latent)
        tf.decode_stack(cache, [1, 2, 3, 4])
        counts = [self.ops(monkeypatch, lambda t=t: tf.decode_stack(cache, [t])) for t in (5, 6)]
        # Per layer: the attention sublayer and the MLP sublayer; then the embedding and the tied head.
        assert counts[0] == counts[1] == 10

    def test_lockstep_step_costs_the_same_ops_at_any_batch(self, monkeypatch):
        """One decode step of B stories in lockstep is one step of ops, however large B is."""
        model = StoryVAE.create(ModelConfig(), seed=0)

        def step_ops(b: int) -> int:
            latent = sp.draw_latent(model, np.tile([1, 2, 3], (b, 1)), [sp.generation_rng(0, i) for i in range(b)])
            cache = model.decoder_cache(latent)
            tf.decode_stack(cache, np.tile([1, 2, 3, 4], (b, 1)))
            return self.ops(monkeypatch, lambda: tf.decode_stack(cache, np.full((b, 1), 5)))

        single = StoryVAE.create(ModelConfig(), seed=0)
        latent = sp.draw_latent(single, [1, 2, 3], sp.generation_rng(0, 0))
        cache = single.decoder_cache(latent)
        tf.decode_stack(cache, [1, 2, 3, 4])
        alone = self.ops(monkeypatch, lambda: tf.decode_stack(cache, [5]))
        assert step_ops(8) == step_ops(1) == alone

    def test_train_step_at_the_acceptance_overfit_config(self, monkeypatch):
        pairs = cp.load_corpus(cp.toy_corpus_path())
        vocab = cp.fit_vocabulary([p.prompt_text for p in pairs] + [p.story_text for p in pairs], 512)
        cfg = ModelConfig(d=64, layers=2, encoder_layers=1, heads=2, latent_dim=16,
                          vocab_size=vocab.size, max_seq_len=64,
                          injection_modes=("input",), injection_gain=8.0, latent_head_gain=50.0)
        examples = cp.prepare_corpus(pairs, vocab, 64)

        def step_ops(batch_size: int, mode: str = "cvae") -> list[int]:
            schedule = TrainingSchedule(total_steps=5000, cycle_length=1250, learning_rate=1e-3,
                                        batch_size=batch_size, seed=0)
            trainer = Trainer(StoryVAE.create(cfg, seed=0, mode=mode), examples, schedule,
                              separator_id=vocab.separator_id)
            return [self.ops(monkeypatch, lambda: trainer.train_step(trainer.draw_batch())) for _ in range(2)]

        counts = step_ops(4)
        # One padded forward and backward, whatever the batch size.  Per encoder pass: the embedding, two
        # nodes per block, and the pooling with the Gaussian head; then the draw, the injection rows, the
        # decoder, and one node per objective term plus the objective itself.
        assert counts[0] == counts[1] == step_ops(1)[0] == 19
        vae = step_ops(4, "vae")
        assert vae[0] == vae[1] == step_ops(1, "vae")[0] == 15

    def test_latent_draw_at_the_cli_default_config(self, monkeypatch):
        """A prior sample is the prior encoder's forward, one ``pool_gaussian`` and one ``gaussian_sample``."""
        model = StoryVAE.create(ModelConfig(), seed=0)
        assert self.ops(monkeypatch, lambda: sp.draw_latent(model, [1, 2, 3], sp.generation_rng(0, 0))) == 7

    def test_one_token_generation_at_the_cli_default_config(self, monkeypatch):
        """The prior draw (7), one injection node, and the prompt's decoder forward (10)."""
        model = StoryVAE.create(ModelConfig(), seed=0)
        sampler = sp.SamplerConfig(max_new_tokens=1)
        assert self.ops(monkeypatch, lambda: sp.generate_for_prompt(model, [1, 2, 3], 4, sampler)) == 18


@pytest.mark.parametrize("modes", [m for r in range(4) for m in itertools.combinations(tf.INJECTION_MODES, r)],
                         ids=lambda m: "+".join(m) or "none")
def test_parameter_specs_list_what_init_parameters_draws(modes):
    """The listing a checkpoint load checks against is the one the initializer follows."""
    cfg = toy_config(injection_modes=modes, layers=3, encoder_layers=2)
    drawn = tf.init_parameters(cfg, np.random.default_rng(0))
    assert [(n, shape) for n, shape, _ in tf.parameter_specs(cfg)] == [(n, p.shape) for n, p in drawn.items()]
    # The closed-form counts a load checks first are the listing's.
    assert tf.parameter_count(cfg) == (len(drawn.names()), drawn.data_buffer.size)


class TestCheckpoint:
    def test_tensor_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        arrays = [("a.b", rng.standard_normal((3, 4)).astype(np.float32)),
                  ("c", rng.standard_normal(7).astype(np.float32))]
        path = tmp_path / "t.bin"
        write_tensor_file(path, arrays)
        back = read_tensor_file(path)
        assert [n for n, _ in back] == ["a.b", "c"]
        for (_, orig), (_, loaded) in zip(arrays, back):
            assert orig.shape == loaded.shape
            assert np.array_equal(orig, loaded)
            assert not loaded.flags.writeable  # a view of the file's bytes, not a copy

    def test_save_load_bit_identical_forward(self, tmp_path):
        model = StoryVAE.create(toy_config(), seed=11)
        model.save(tmp_path / "ckpt", vocabulary="vocab.txt", step=42)
        loaded, manifest = StoryVAE.load(tmp_path / "ckpt")
        assert manifest["step"] == 42
        assert manifest["vocabulary"] == "vocab.txt"
        assert loaded.config == model.config
        rng = np.random.default_rng(12)
        z = lt.LatentCode.external(rng.standard_normal(8).astype(np.float32))
        for _ in range(10):
            tokens = rng.integers(0, 16, size=rng.integers(1, 10))
            a = model.decode_logits(tokens, z).data
            b = loaded.decode_logits(tokens, z).data
            assert np.array_equal(a, b)

    def test_float64_round_trips_bit_exactly(self, tmp_path):
        model = StoryVAE.create(toy_config(), seed=14, dtype=np.float64)
        model.save(tmp_path / "ckpt")
        loaded, manifest = StoryVAE.load(tmp_path / "ckpt")
        assert manifest["dtype"] == "<f8"
        assert loaded.dtype == np.float64
        for name, p in model.params.items():
            assert np.array_equal(p.data, loaded.params[name].data), name
        z = lt.LatentCode.external(np.random.default_rng(15).standard_normal(8))
        tokens = np.array([1, 2, 15, 3, 9])
        assert np.array_equal(model.decode_logits(tokens, z).data, loaded.decode_logits(tokens, z).data)

    def test_failed_save_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """A save that raises part-way, here writing optim.bin, changes no file of the checkpoint it replaces."""
        trainer = Trainer(StoryVAE.create(toy_config(), seed=16), [toy_example()],
                          TrainingSchedule(total_steps=4, batch_size=1))
        trainer.train_step([0])
        ckpt = tmp_path / "ckpt"
        trainer.save_checkpoint(ckpt)
        before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
        trainer.train_step([0])
        calls, write = [], md.write_tensor_file

        def failing_write(path, *args, **kwargs):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write(path, *args, **kwargs)

        monkeypatch.setattr(md, "write_tensor_file", failing_write)
        with pytest.raises(OSError, match="disk full"):
            trainer.save_checkpoint(ckpt)
        assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before
        loaded, manifest = StoryVAE.load(ckpt)
        assert manifest["step"] == 1
        monkeypatch.undo()
        trainer.save_checkpoint(ckpt)
        assert StoryVAE.load(ckpt)[1]["step"] == 2
        assert sorted(p.name for p in ckpt.iterdir()) == sorted(before)

    def test_truncated_float64_record_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor_file(path, [("a", np.arange(6.0).reshape(2, 3))], "<f8")
        assert read_tensor_file(path, "<f8")[0][1].dtype == np.float64
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ContractError):
            read_tensor_file(path, "<f8")

    def test_manifest_payload_consistency_checked(self, tmp_path):
        model = StoryVAE.create(toy_config(), seed=13)
        model.save(tmp_path / "ckpt")
        import json
        mpath = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["tensors"] = manifest["tensors"][::-1]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ContractError):
            StoryVAE.load(tmp_path / "ckpt")
