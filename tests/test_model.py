import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import corpus as cp
from storyvae import latent as lt
from storyvae import transformer as tf
from storyvae.model import LossBreakdown, StoryVAE, read_tensor_file, write_tensor_file
from storyvae.transformer import ContractError, ModelConfig


def toy_config(**overrides):
    base = dict(d=8, layers=2, encoder_layers=1, heads=2, latent_dim=8,
                vocab_size=16, max_seq_len=12, injection_modes=("input", "psa", "softmax"))
    base.update(overrides)
    return ModelConfig(**base)


def toy_example(sep=15):
    return cp.EncodedExample(
        prior_input=np.array([1, 2]),
        posterior_input=np.array([1, 2, sep, 3, 9]),
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
        _, bd = self.model.cvae_loss(self.example, self.noise, beta=1.0)
        assert bd.reconstruction_nats >= 0
        assert bd.kl_nats >= 0
        assert bd.elbo_estimate == -(bd.reconstruction_nats + bd.kl_nats)
        assert bd.training_loss >= bd.reconstruction_nats  # beta term only ever adds
        assert bd.token_count == 3
        with pytest.raises(ContractError):
            LossBreakdown(reconstruction_nats=1.0, kl_nats=0.0, beta=1.5, token_count=1)

    def test_requires_injection_mode(self):
        model = StoryVAE.create(toy_config(), seed=3)
        with pytest.raises(ContractError):
            model.cvae_loss(self.example, self.noise, beta=0.5, modes=())

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


@pytest.mark.slow
def test_full_graph_gradient_check_small():
    cfg = ModelConfig(d=4, layers=2, encoder_layers=1, heads=2, latent_dim=4,
                      vocab_size=8, max_seq_len=8, injection_modes=("input", "psa", "softmax"))
    model = StoryVAE.create(cfg, seed=7, dtype=np.float64)
    ag.rescale_for_grad_check(model.params, np.random.default_rng(8))
    example = cp.EncodedExample(
        prior_input=np.array([1, 2]),
        posterior_input=np.array([1, 2, 7, 3]),
        decoder_input=np.array([1, 2, 7, 3]),
        targets=np.array([2, 7, 3, 7]),
        loss_mask=np.array([False, False, True, True]),
        pair=None,
    )
    noise = np.random.default_rng(9).standard_normal(4)
    report = ag.grad_check(lambda: model.cvae_loss(example, noise, beta=0.6)[0], model.params, eps=1e-4)
    assert report.passed, f"max rel {report.max_rel_error:.2e} at {report.worst_parameter}"


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
