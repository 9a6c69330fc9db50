import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from storyvae import autograd as ag
from storyvae import latent as lt
from storyvae import sampling as sp
from storyvae.corpus import EncodedExample
from storyvae.model import StoryVAE
from storyvae.sampling import SamplerConfig, filter_logits
from storyvae.selfcheck import brute_force_filter, greedy_oracle
from storyvae.training import TrainingSchedule, Trainer
from storyvae.transformer import ContractError, ModelConfig


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
        for temperature in (np.nan, np.inf):
            with pytest.raises(ContractError):
                SamplerConfig(temperature=temperature)
        with pytest.raises(ContractError):
            SamplerConfig(seed=-1)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ContractError):
            filter_logits(np.array([np.inf, 0.0]), SamplerConfig())
        with pytest.raises(ContractError):
            filter_logits(np.array([[0.0, 1.0], [-np.inf, 0.0]]), SamplerConfig())
        # Finite logits that a tiny temperature scales past the float range.
        with np.errstate(over="ignore"), pytest.raises(ContractError):
            filter_logits(np.array([1e300, 0.0]), SamplerConfig(temperature=1e-10))

    def test_rejects_other_shapes(self):
        for shape in ((), (0,), (2, 0), (2, 3, 4)):
            with pytest.raises(ContractError):
                filter_logits(np.zeros(shape), SamplerConfig())


@st.composite
def logit_blocks(draw):
    """A (B, V) block in float32 or float64, with ties and all-equal rows, and a sampler for it."""
    b, v = draw(st.integers(1, 6)), draw(st.integers(1, 24))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # A few repeated levels force ties, including across the top-k boundary.
    value = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-8.0, 8.0))
    block = draw(hnp.arrays(dtype, (b, v), elements=value))
    for row in draw(st.lists(st.integers(0, b - 1), max_size=2)):
        block[row] = block[row, 0]
    config = SamplerConfig(
        top_k=draw(st.integers(1, v + 3)),
        top_p=draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))),
        temperature=draw(st.floats(0.1, 4.0)),
    )
    return block, config


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=logit_blocks(), seed=st.integers(0, 2**32))
def test_block_filter_and_draw_match_the_one_row_path(case, seed):
    """Each row of a (B, V) block gets the one-row filter's bits, and the batched draw is rng.choice's."""
    block, config = case
    probs = filter_logits(block, config)
    rows = [filter_logits(row, config) for row in block]
    assert np.array_equal(probs, np.stack(rows))
    for row, got in zip(block, rows):
        assert np.array_equal(got, brute_force_filter(row, config.top_k, config.top_p, config.temperature))
    mine = [np.random.default_rng([seed, b]) for b in range(len(block))]
    twins = [np.random.default_rng([seed, b]) for b in range(len(block))]
    assert sp.sample_tokens(probs, mine).tolist() == [int(g.choice(len(p), p=p)) for g, p in zip(twins, rows)]
    assert [g.bit_generator.state for g in mine] == [g.bit_generator.state for g in twins]


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
        # Cached incremental decoding against the full-prefix oracle.  At the
        # 0.02 init the separator wins the first greedy step and both
        # stories are empty; unit-scale weights make them run on.
        model = tiny_model(seed=9)
        ag.rescale_for_grad_check(model.params, np.random.default_rng(3))
        rng = sp.generation_rng(0, 0)
        latent = sp.draw_latent(model, [1, 2], rng, use_mean=True)
        cfg = SamplerConfig(top_k=1, top_p=0.9, temperature=0.9, max_new_tokens=10, seed=0)
        story = sp.generate(model, [1, 2], SEP, cfg, latent, sp.generation_rng(0, 0))
        assert len(story) > 0
        assert story == greedy_oracle(model, [1, 2], SEP, latent, 10)

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
    @pytest.mark.parametrize("source", ["created", "loaded", "trained"])
    def test_no_tensor_requires_grad(self, tmp_path, source):
        model = tiny_model(injection_modes=("input", "psa", "softmax"))
        if source == "loaded":
            model.save(tmp_path / "ckpt")
            model, _ = StoryVAE.load(tmp_path / "ckpt")
        if source == "trained":
            example = EncodedExample(
                prior_input=np.array([1, 2]),
                decoder_input=np.array([1, 2, SEP, 3]), targets=np.array([2, SEP, 3, SEP]),
                loss_mask=np.array([False, True, True, True]),
            )
            Trainer(model, [example], TrainingSchedule(total_steps=2, batch_size=1)).train()
        rng = np.random.default_rng(0)
        latent = sp.draw_latent(model, [1, 2], rng)
        assert not latent.z.requires_grad
        assert not model.encode_prior(np.array([1, 2])).mu.requires_grad
        assert not model.decode_logits(np.array([1, 2, SEP, 3]), latent).requires_grad
        sp.generate_for_prompt(model, [1, 2], SEP, SamplerConfig(max_new_tokens=4, seed=3))
        for name, p in model.params.items():
            if source == "trained":  # training leaves its gradients
                assert not p.requires_grad, name
            else:
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
        _, latent = sp.control_generate(model, [1], [2], SEP, SamplerConfig(max_new_tokens=2, latent_mean=True))
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
