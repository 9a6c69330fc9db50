import numpy as np
import pytest

from storyvae import latent as lt
from storyvae import sampling as sp
from storyvae.model import StoryVAE
from storyvae.sampling import SamplerConfig, filter_logits
from storyvae.transformer import ContractError, ModelConfig


def brute_force_filter(logits, k, p, temperature):
    """Independent oracle: enumerate the descending-probability prefix directly."""
    probs = np.asarray(logits, dtype=np.float64) / temperature
    probs = np.exp(probs - probs.max())
    probs = probs / probs.sum()
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))[:k]
    kept, cum = [], 0.0
    for idx in order:
        kept.append(idx)
        cum += probs[idx]
        if cum >= p:
            break
    out = np.zeros_like(probs)
    out[kept] = probs[kept]
    return out / out.sum()


def tiny_model(seed=0, **overrides):
    base = dict(d=8, layers=1, encoder_layers=1, heads=2, latent_dim=8,
                vocab_size=12, max_seq_len=16, injection_modes=("input",))
    base.update(overrides)
    return StoryVAE.create(ModelConfig(**base), seed=seed)


SEP = 11


class TestFilterLogits:
    def test_k_one_is_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.standard_normal(9)
            out = filter_logits(logits, SamplerConfig(top_k=1, top_p=0.5, temperature=0.7))
            assert out[np.argmax(logits)] == 1.0
            assert out.sum() == 1.0

    def test_no_filtering_keeps_temperature_softmax(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal(8)
        cfg = SamplerConfig(top_k=8, top_p=1.0, temperature=0.9)
        out = filter_logits(logits, cfg)
        scaled = np.exp(logits / 0.9 - np.max(logits / 0.9))
        assert np.allclose(out, scaled / scaled.sum(), atol=1e-12)

    def test_worked_example(self):
        probs = np.array([0.5, 0.3, 0.2])
        logits = np.log(probs)
        out = filter_logits(logits, SamplerConfig(top_k=3, top_p=0.7, temperature=1.0))
        assert np.allclose(out, [0.625, 0.375, 0.0], atol=1e-9)

    def test_matches_brute_force_grid(self):
        rng = np.random.default_rng(2)
        cases = 0
        while cases < 100:
            logits = rng.standard_normal(10) * rng.uniform(0.5, 3.0)
            for k in (1, 2, 3, 5, 10):
                for p in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                    cfg = SamplerConfig(top_k=k, top_p=p, temperature=1.0)
                    got = filter_logits(logits, cfg)
                    want = brute_force_filter(logits, k, p, 1.0)
                    assert np.array_equal(got > 0, want > 0), (k, p)
                    assert np.allclose(got, want, atol=1e-9)
                    cases += 1

    def test_temperature_passes_through(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal(10)
        for t in (0.5, 0.9, 2.0):
            got = filter_logits(logits, SamplerConfig(top_k=4, top_p=0.8, temperature=t))
            want = brute_force_filter(logits, 4, 0.8, t)
            assert np.allclose(got, want, atol=1e-12)

    def test_ties_break_to_lower_id(self):
        logits = np.zeros(6)  # all tied
        out = filter_logits(logits, SamplerConfig(top_k=3, top_p=0.5, temperature=1.0))
        # uniform sixths: the minimal prefix reaching 0.5 is ids {0, 1, 2}
        assert np.array_equal(out > 0, np.array([True, True, True, False, False, False]))

    def test_support_bounded_by_k(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            logits = rng.standard_normal(12)
            k = int(rng.integers(1, 13))
            out = filter_logits(logits, SamplerConfig(top_k=k, top_p=1.0, temperature=1.0))
            assert (out > 0).sum() <= k
            assert np.isclose(out.sum(), 1.0, atol=1e-6)

    def test_growing_k_or_p_never_shrinks_support(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal(10)
        supports = []
        for p in (0.2, 0.4, 0.6, 0.8, 1.0):
            out = filter_logits(logits, SamplerConfig(top_k=10, top_p=p, temperature=1.0))
            supports.append(frozenset(np.flatnonzero(out > 0)))
        for small, big in zip(supports, supports[1:]):
            assert small <= big
        supports = []
        for k in (1, 3, 5, 10):
            out = filter_logits(logits, SamplerConfig(top_k=k, top_p=0.9, temperature=1.0))
            supports.append(frozenset(np.flatnonzero(out > 0)))
        for small, big in zip(supports, supports[1:]):
            assert small <= big

    def test_nucleus_is_minimal_prefix(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            logits = rng.standard_normal(7)
            p = float(rng.uniform(0.05, 1.0))
            out = filter_logits(logits, SamplerConfig(top_k=7, top_p=p, temperature=1.0))
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            order = sorted(range(7), key=lambda i: (-probs[i], i))
            kept = [i for i in order if out[i] > 0]
            assert kept == order[: len(kept)]  # a prefix of the ordering
            assert probs[kept].sum() >= p - 1e-12
            if len(kept) > 1:
                assert probs[kept[:-1]].sum() < p  # dropping the last breaks the mass bound

    def test_invalid_configs_rejected(self):
        with pytest.raises(ContractError):
            SamplerConfig(top_k=0)
        with pytest.raises(ContractError):
            SamplerConfig(top_p=0.0)
        with pytest.raises(ContractError):
            SamplerConfig(temperature=0.0)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ContractError):
            filter_logits(np.array([np.inf, 0.0]), SamplerConfig())


class TestGenerate:
    def test_deterministic_for_same_seed(self):
        model = tiny_model()
        cfg = SamplerConfig(top_k=5, top_p=0.9, temperature=1.0, max_new_tokens=8, seed=3)
        a, _ = sp.generate_for_prompt(model, [1, 2], SEP, cfg, example_index=0)
        b, _ = sp.generate_for_prompt(model, [1, 2], SEP, cfg, example_index=0)
        assert a == b

    def test_different_example_index_different_stream(self):
        model = tiny_model()
        cfg = SamplerConfig(top_k=12, top_p=1.0, temperature=1.5, max_new_tokens=12, seed=3)
        outs = {tuple(sp.generate_for_prompt(model, [1, 2], SEP, cfg, example_index=i)[0]) for i in range(6)}
        assert len(outs) > 1

    def test_zero_budget_gives_empty_story(self):
        model = tiny_model()
        cfg = SamplerConfig(max_new_tokens=0)
        story, _ = sp.generate_for_prompt(model, [1, 2], SEP, cfg)
        assert story == []

    def test_length_never_exceeds_budget(self):
        model = tiny_model(seed=5)
        for budget in (1, 3, 7):
            cfg = SamplerConfig(top_k=12, top_p=1.0, temperature=2.0, max_new_tokens=budget, seed=1)
            story, _ = sp.generate_for_prompt(model, [1], SEP, cfg)
            assert len(story) <= budget

    def test_prompt_too_long_rejected(self):
        model = tiny_model()
        rng = np.random.default_rng(7)
        with pytest.raises(ContractError):
            sp.generate(model, rng.integers(0, 11, size=16), SEP, SamplerConfig(), None, rng)

    def test_context_capped_at_max_seq_len(self):
        model = tiny_model(seed=8, max_seq_len=8)
        cfg = SamplerConfig(top_k=10, top_p=1.0, temperature=3.0, max_new_tokens=50, seed=0)
        story, _ = sp.generate_for_prompt(model, [1, 2, 3], SEP, cfg)
        assert len(story) <= 8 - 4  # prompt + separator occupy 4 slots

    def test_greedy_matches_independent_oracle(self):
        model = tiny_model(seed=9)
        rng = sp.generation_rng(0, 0)
        latent = sp.draw_latent(model, [1, 2], rng, use_mean=True)
        cfg = SamplerConfig(top_k=1, top_p=0.9, temperature=0.9, max_new_tokens=10, seed=0)
        story = sp.generate(model, [1, 2], SEP, cfg, latent, sp.generation_rng(0, 0))

        # independent greedy loop: repeated argmax over raw logits
        context = [1, 2, SEP]
        oracle = []
        for _ in range(10):
            logits = model.decode_logits(np.array(context), latent).data[-1]
            token = int(np.argmax(logits))
            if token == SEP:
                break
            oracle.append(token)
            context.append(token)
        assert story == oracle

    def test_stops_on_separator(self):
        model = tiny_model(seed=10)
        # force hidden state e1 at every position and point the separator's
        # tied embedding along it, so the separator wins the first step
        for _, p in model.params.items():
            p.data[...] = 0.0
        model.params["dec.final_norm.b"].data[0] = 1.0
        model.params["embed.word"].data[SEP, 0] = 10.0
        cfg = SamplerConfig(top_k=1, top_p=1.0, temperature=1.0, max_new_tokens=20, seed=0)
        story, _ = sp.generate_for_prompt(model, [1, 2], SEP, cfg)
        assert story == []


class TestInferenceRecordsNoTape:
    @pytest.mark.parametrize("source", ["created", "loaded"])
    def test_no_tensor_requires_grad(self, tmp_path, source):
        model = tiny_model(injection_modes=("input", "psa", "softmax"))
        if source == "loaded":
            model.save(tmp_path / "ckpt")
            model, _ = StoryVAE.load(tmp_path / "ckpt")
        rng = np.random.default_rng(0)
        latent = sp.draw_latent(model, [1, 2], rng)
        assert not latent.z.requires_grad
        assert not model.encode_prior(np.array([1, 2])).mu.requires_grad
        assert not model.decode_logits(np.array([1, 2, SEP, 3]), latent).requires_grad
        sp.generate_for_prompt(model, [1, 2], SEP, SamplerConfig(max_new_tokens=4, seed=3))
        for name, p in model.params.items():
            assert p.grad is None, name


class TestControlGenerate:
    def test_same_prompts_same_seed_identical(self):
        model = tiny_model(seed=11)
        cfg = SamplerConfig(top_k=5, top_p=0.9, temperature=1.0, max_new_tokens=8, seed=7)
        direct, z1 = sp.generate_for_prompt(model, [1, 2], SEP, cfg, example_index=0)
        swapped, z2 = sp.control_generate(model, [1, 2], [1, 2], SEP, cfg, example_index=0)
        assert direct == swapped
        assert np.array_equal(z1.z.data, z2.z.data)

    def test_deterministic(self):
        model = tiny_model(seed=12)
        cfg = SamplerConfig(top_k=5, top_p=0.9, temperature=1.0, max_new_tokens=8, seed=7)
        a, _ = sp.control_generate(model, [1, 2], [3, 4], SEP, cfg)
        b, _ = sp.control_generate(model, [1, 2], [3, 4], SEP, cfg)
        assert a == b

    def test_latent_source_recorded(self):
        model = tiny_model(seed=13)
        cfg = SamplerConfig(max_new_tokens=2)
        _, latent = sp.control_generate(model, [1], [2], SEP, cfg)
        assert latent.source is lt.LatentSource.PRIOR_SAMPLE
        _, latent = sp.control_generate(model, [1], [2], SEP, cfg, use_mean_latent=True)
        assert latent.source is lt.LatentSource.PRIOR_MEAN

    def test_external_latents_change_output(self):
        model = tiny_model(seed=14)
        cfg = SamplerConfig(top_k=12, top_p=1.0, temperature=1.0, max_new_tokens=10, seed=5)
        rng = np.random.default_rng(15)
        outs = set()
        for _ in range(4):
            z = lt.LatentCode.external((rng.standard_normal(8) * 8).astype(np.float32))
            story = sp.generate(model, [1, 2], SEP, cfg, z, sp.generation_rng(5, 0))
            outs.add(tuple(story))
        assert len(outs) > 1
