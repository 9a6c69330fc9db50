"""Programmatic invariant suite behind the `selftest` command.

Runs the gradient checks and independent oracles that the test suite
also exercises, without needing pytest: finite differences against the
tape, closed-form and Monte Carlo KL, brute-force sampling filters,
brute-force ROUGE, greedy decoding, cached against full-prefix decoding,
Adam against plain-math scalar Adam, the annealing shape, and the
tokenizer's fit, round-trips and ids.  The brute-force oracles
(``brute_force_filter``, ``brute_force_rouge``, ``greedy_oracle``,
``matmul_oracle``, ``reference_adam_scalar``, ``kl_monte_carlo``,
``bpe_scan_oracle``, ``bpe_fit_oracle``), ``inner``, the gradient
checks' scalar loss, and the table of per-op gradient checks
(``GRADIENT_CASES``, run by ``gradient_case_report``) live here once;
the test suite imports them.

``GRADIENT_CASES`` is the one table of per-op finite-difference cases:
the self-test runs each at its own seed, and the test suite runs the
same cases at ten seeds.  A case joins it only for a form of its op
that no other case of that op checks: a different rank, or an optional
input present or absent (key mask, latent row, injection row or bias).
A case's name seeds its draws (the crc32 of the name), so renaming a
case re-seeds it.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from functools import lru_cache

import numpy as np

from . import autograd as ag
from . import corpus as cp
from . import evaluation as ev
from . import latent as lt
from . import sampling as sp
from . import training as tr
from . import transformer as tf
from .autograd import ParameterSet, Tensor
from .model import StoryVAE
from .transformer import ModelConfig


def _sublayer(x: Tensor, *tensors: Tensor, heads=1, causal=True, key_mask=None, latent=None) -> Tensor:
    """An attention sublayer of the rows of ``x``, over stacks of those rows alone, after a latent row if ``latent``
    holds its key and value; causal, or under ``key_mask``."""
    filled, l = int(latent is not None), x.shape[-2]
    mask = tf.causal_mask(l, filled) if causal else key_mask
    return ag.attention_sublayer(x, *tensors, *tf.kv_stacks(x, heads, filled + l, latent), filled, latent, mask)


_NOISE = np.random.default_rng(12).standard_normal((2, 7))


def _injection(z: Tensor, input_w: Tensor, psa_w: Tensor, softmax_w: Tensor, *psa_kv: Tensor) -> Tensor:
    """Every output of a two-layer ``ag.inject`` at d = 4, for one latent or a batch, folded into one tensor by
    ``gaussian_sample`` and ``gaussian_kl``."""
    row, bias, ((k0, v0), (k1, v1)) = ag.inject(z, input_w, psa_w, softmax_w, [psa_kv[:4], psa_kv[4:]])
    noise = np.resize(_NOISE[:, :4], row.shape)
    return ag.gaussian_kl(ag.gaussian_sample(row, bias, noise), k0, v0, ag.gaussian_sample(k1, v1, noise))


def inner(a: Tensor, b: Tensor) -> Tensor:
    """sum(a * b) over two tensors of one size, as a (1, n) row times an (n, 1) column: the checks' scalar loss.

    Backward hands ``a`` exactly ``b`` times the output's gradient, then ``b`` exactly ``a`` times it.
    """
    n = a.data.size
    data = np.asarray(np.add.reduce(a.data.reshape(1, n) @ b.data.reshape(n, 1), axis=None), dtype=a.data.dtype)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad((g * b.data).reshape(a.shape))
        if b.requires_grad:
            b.accumulate_grad((g * a.data).reshape(b.shape))

    return ag._make(data, "inner", (a, b), backward)


_SQUARE, _ROW, _KEYS = (7, 7), (7,), np.array([True, True, False, True, True])
# The d = 8 cases' shapes: the attention sublayer's gains, products and biases, and the pooling's, with two heads.
_ROW8, _SQUARE8, _NOISE8 = (8,), (8, 8), np.random.default_rng(21).standard_normal(8)
_ATTENTION8 = [_ROW8, _ROW8, _SQUARE8, _ROW8, _SQUARE8, _SQUARE8, _ROW8, _SQUARE8, _ROW8]
_POOL8 = [_ROW8, _ROW8, _ROW8, _SQUARE8, _SQUARE8, _ROW8, _SQUARE8, _ROW8, (8, 6), (6,), (8, 6), (6,)]
# Each op's input shapes, and the op; every input is a parameter of its own check.
GRADIENT_CASES = {
    "mlp_sublayer": ([(5, 7), _ROW, _ROW, (7, 5), (5,), (5, 7), _ROW], ag.mlp_sublayer),
    "mlp_sublayer_rank3": ([(2, 3, 8), _ROW8, _ROW8, (8, 6), (6,), (6, 8), _ROW8], ag.mlp_sublayer),
    "attention_sublayer": ([(5, 7), _ROW, _ROW, _SQUARE, _ROW, _SQUARE, _SQUARE, _ROW, _SQUARE, _ROW], _sublayer),
    "attention_sublayer_latent_row_key_mask": ([(5, 8)] + _ATTENTION8 + [(1, 8), (1, 8)], lambda x, *t: _sublayer(
        x, *t[:9], heads=2, causal=False, key_mask=np.arange(6) != 3, latent=t[9:])),
    # The second sequence's last row is padding that no query attends.
    "attention_sublayer_key_mask_rank3": ([(2, 3, 8)] + _ATTENTION8, lambda x, *t: _sublayer(
        x, *t, heads=2, causal=False, key_mask=np.array([[[[True, True, True]]], [[[True, True, False]]]]))),
    "attention_sublayer_latent_rows_rank3": ([(2, 3, 8)] + _ATTENTION8 + [(2, 1, 8), (2, 1, 8)],
                                             lambda x, *t: _sublayer(x, *t[:9], heads=2, latent=t[9:])),
    # Log-sigmas on both sides of the clamp, both outputs on to the draw.
    "pool_gaussian": ([(2, 5, 7), _ROW, _ROW, _ROW, _SQUARE, _SQUARE, _ROW, _SQUARE, _ROW] + [_SQUARE, _ROW] * 2,
                      lambda *t: ag.gaussian_sample(*ag.pool_gaussian(*t, 1, -0.5, 0.5, _KEYS), _NOISE)),
    "pool_gaussian_two_heads": ([(6, 8)] + _POOL8, lambda x, *t: ag.gaussian_sample(
        *ag.pool_gaussian(x, *t, n_heads=2, lo=-0.5, hi=0.5), _NOISE8[:6])),
    "inject": ([(2,), (2, 4), (2, 8), (2, 4)] + [(4, 4), (4,)] * 4, _injection),
    "inject_rank3": ([(3, 2), (2, 4), (2, 8), (2, 4)] + [(4, 4), (4,)] * 4, _injection),
    "gaussian_sample": ([(2, 7), (2, 7)], lambda mu, ls: ag.gaussian_sample(mu, ls, _NOISE)),
    "gaussian_sample_vector": ([_ROW8, _ROW8], lambda mu, ls: ag.gaussian_sample(mu, ls, _NOISE8)),
    "cross_entropy": ([(5, 7)], lambda t: ag.cross_entropy(t, np.array([0, 6, 3, 3, 1]), _KEYS)[0]),
    # Target 3 repeats, and the first sequence's last position is masked out.
    "cross_entropy_rank3": ([(2, 3, 8)], lambda t: ag.cross_entropy(
        t, np.array([[0, 7, 3], [3, 5, 1]]), np.array([[True, True, False], [True, True, True]]))[0]),
    "gaussian_kl": ([(2, 7)] * 4, ag.gaussian_kl),
    "gaussian_kl_vector": ([_ROW8] * 4, ag.gaussian_kl),
    "elbo_loss": ([(5, 7), (2, 7)], lambda t, kl: ag.elbo_loss(ag.cross_entropy(
        t, np.array([0, 6, 3, 3, 1]), np.ones(5, dtype=bool))[0], kl, 0.7, 2)),
    "elbo_loss_kl_only": ([(3, 8)], lambda kl: ag.elbo_loss(None, kl, 0.7, 3)),
    # Token 4 repeats, the positions start at row 1, and the injection row is a parameter too.
    "embedding": ([(5, 7), (6, 7), (1, 7)], lambda w, p, r: ag.embedding(w, p, np.array([4, 0, 4, 2]), 1, r)),
    "embedding_no_row": ([(6, 8), (6, 8)], lambda word, pos: ag.embedding(word, pos, np.array([5, 0, 5, 2]), 2)),
    # Each sequence has its own injection row; positions are rows 3 to 5.
    "embedding_row_rank3": ([(6, 8), (6, 8), (2, 1, 8)], lambda word, pos, row: ag.embedding(
        word, pos, np.array([[1, 4, 1], [0, 0, 3]]), 3, row)),
    "tied_head": ([(5, 7), _ROW, _ROW, (6, 7), (1, 6)], ag.tied_head),
    # ``x`` reaches the logits through the layer norm and through the table.
    "tied_head_no_bias": ([(6, 8), _ROW8, _ROW8], lambda x, g, b: ag.tied_head(x, g, b, x)),
    "tied_head_bias_rank3": ([(2, 3, 8), _ROW8, _ROW8, (6, 8), (2, 1, 6)], ag.tied_head),
}


def gradient_case_report(name: str, seed: int) -> ag.GradCheckReport:
    """Finite differences against the tape for ``GRADIENT_CASES[name]``, on inputs and a readout drawn from ``seed``.

    The inputs are standard normal draws times 0.5, and the loss is the
    op's output read out linearly, ``inner(y, w)`` against a standard
    normal ``w``.
    """
    shapes, op = GRADIENT_CASES[name]
    rng = np.random.default_rng(seed)
    params = ParameterSet([(f"x{i}", rng.standard_normal(shape) * 0.5) for i, shape in enumerate(shapes)],
                          dtype=np.float64)
    inputs = [p for _, p in params.items()]
    readout = Tensor(rng.standard_normal(op(*inputs).data.size), dtype=np.float64)
    return ag.grad_check(lambda: inner(op(*inputs), readout), params)


def _check_op_gradients(report) -> bool:
    ok = True
    for name in GRADIENT_CASES:
        result = gradient_case_report(name, zlib.crc32(name.encode()))
        ok &= result.passed
        report(f"{'ok' if result.passed else 'FAIL'} gradient {name} (max rel err {result.max_rel_error:.2e})")
    return ok


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-D arrays by the textbook triple loop, in float64."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def reference_adam_scalar(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Plain-math Adam on one scalar; the oracle the optimizer is checked against."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        x -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)
    return x


def kl_monte_carlo(q_mu, q_log_sigma, p_mu, p_log_sigma, n_samples: int, rng: np.random.Generator):
    """Monte Carlo estimate of KL(q || p) with its standard error.

    Independent of the analytic path: draws z ~ q and averages
    log q(z) - log p(z) directly from the Gaussian densities.
    """
    q_mu = np.asarray(q_mu, dtype=np.float64)
    q_ls = np.asarray(q_log_sigma, dtype=np.float64)
    p_mu = np.asarray(p_mu, dtype=np.float64)
    p_ls = np.asarray(p_log_sigma, dtype=np.float64)
    eps = rng.standard_normal((n_samples, q_mu.shape[0]))
    z = q_mu + np.exp(q_ls) * eps
    log_q = -0.5 * (((z - q_mu) * np.exp(-q_ls)) ** 2).sum(axis=1) - q_ls.sum()
    log_p = -0.5 * (((z - p_mu) * np.exp(-p_ls)) ** 2).sum(axis=1) - p_ls.sum()
    diffs = log_q - log_p
    return float(diffs.mean()), float(diffs.std(ddof=1) / np.sqrt(n_samples))


def brute_force_filter(logits, k, p, temperature) -> np.ndarray:
    """Top-k/top-p distribution by enumerating the descending-probability prefix."""
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


def brute_force_rouge(candidate: str, reference: str, variant) -> tuple[float, float, float]:
    """(precision, recall, f1) on lowercased whitespace tokens.

    Variants 1 and 2 count clipped n-gram matches; ``"L"`` takes the
    longest common subsequence by plain recursion.  An empty side (no
    tokens, or no n-grams) scores (0, 0, 0).
    """
    ct, rt = tuple(candidate.lower().split()), tuple(reference.lower().split())
    if variant == "L":
        @lru_cache(maxsize=None)
        def lcs(i, j):
            if i == 0 or j == 0:
                return 0
            if ct[i - 1] == rt[j - 1]:
                return lcs(i - 1, j - 1) + 1
            return max(lcs(i - 1, j), lcs(i, j - 1))

        overlap, n_cand, n_ref = lcs(len(ct), len(rt)), len(ct), len(rt)
    else:
        cg = Counter(ct[i:i + variant] for i in range(len(ct) - variant + 1))
        rg = Counter(rt[i:i + variant] for i in range(len(rt) - variant + 1))
        overlap = sum(min(c, rg[g]) for g, c in cg.items())
        n_cand, n_ref = sum(cg.values()), sum(rg.values())
    if not n_cand or not n_ref:
        return (0.0, 0.0, 0.0)
    p, r = overlap / n_cand, overlap / n_ref
    return (p, r, 2 * p * r / (p + r) if p + r else 0.0)


def bpe_scan_oracle(ids, merges, first_id: int = cp.N_BYTE_TOKENS) -> list[int]:
    """``ids`` after each merge in order, merge k joining its pair into ``first_id + k``: leftmost, no overlaps."""
    for new_id, pair in enumerate(merges, start=first_id):
        out, i = [], 0
        while i < len(ids):
            hit = tuple(ids[i:i + 2]) == tuple(pair)
            out.append(new_id if hit else ids[i])
            i += 2 if hit else 1
        ids = out
    return list(ids)


def bpe_fit_oracle(texts, target_size: int) -> list[tuple[int, int]]:
    """The merges ``corpus.fit_vocabulary`` should learn: every pair recounted per merge, on byte lists."""
    seqs, merges = [list(t.encode("utf-8")) for t in texts], []
    for rank in range(target_size - cp.MIN_VOCAB_SIZE):
        counts = Counter(pair for seq in seqs for pair in zip(seq, seq[1:]))
        best = max(counts.values(), default=0)
        if best < 2:
            break
        merges.append(min(p for p, c in counts.items() if c == best))
        seqs = [bpe_scan_oracle(seq, merges[-1:], cp.N_BYTE_TOKENS + rank) for seq in seqs]
    return merges


def greedy_oracle(model: StoryVAE, prompt_tokens, separator_id: int, latent, max_new_tokens: int) -> list[int]:
    """Greedy story: the argmax of a full-prefix ``decode_logits`` for each new token."""
    context, story = list(prompt_tokens) + [separator_id], []
    for _ in range(max_new_tokens):
        token = int(np.argmax(model.decode_logits(np.array(context), latent).data[-1]))
        if token == separator_id:
            break
        story.append(token)
        context.append(token)
    return story


def _check_products(report) -> bool:
    rng = np.random.default_rng(14)
    rows, *pool = (Tensor(rng.standard_normal(shape)) for shape in [(4, 3), (3,), (3,), (3,), (3, 3), (3, 3), (3,),
                                                                     (3, 3), (3,)])
    mu_w, mu_b, ls_w, ls_b = (Tensor(rng.standard_normal(shape)) for shape in [(3, 2), (2,), (3, 2), (2,)])
    # Identity heads read out the pooled row itself.
    eye, zero = Tensor(np.eye(3)), Tensor(np.zeros(3))
    pooled = ag.pool_gaussian(rows, *pool, eye, zero, eye, zero, 1, -np.inf, np.inf)[0].data[None]
    mu, log_sigma = ag.pool_gaussian(rows, *pool, mu_w, mu_b, ls_w, ls_b, 1, -0.5, 0.5)
    ok = np.allclose(mu.data, matmul_oracle(pooled, mu_w.data)[0] + mu_b.data)
    ok &= np.allclose(log_sigma.data, np.clip(matmul_oracle(pooled, ls_w.data)[0] + ls_b.data, -0.5, 0.5))
    report(f"{'ok' if ok else 'FAIL'} pool_gaussian's head products and clamp against the triple-loop oracle")
    return ok


def _check_kl(report) -> bool:
    rng = np.random.default_rng(5)
    ok = True
    q = lt.DiagonalGaussian(Tensor([1.0]), Tensor([0.0]))
    p = lt.DiagonalGaussian(Tensor([0.0]), Tensor([0.0]))
    ok &= abs(float(lt.kl_divergence(q, p).data) - 0.5) < 1e-6
    q2 = lt.DiagonalGaussian(Tensor([0.0]), Tensor([0.5]))
    ok &= abs(float(lt.kl_divergence(q2, p).data) - (math.e - 2.0) / 2.0) < 1e-6
    for _ in range(3):
        mu_q, mu_p = rng.standard_normal(4), rng.standard_normal(4)
        ls_q, ls_p = rng.standard_normal(4) * 0.3, rng.standard_normal(4) * 0.3
        analytic = float(lt.kl_divergence(
            lt.DiagonalGaussian(Tensor(mu_q), Tensor(ls_q)),
            lt.DiagonalGaussian(Tensor(mu_p), Tensor(ls_p)),
        ).data)
        estimate, stderr = kl_monte_carlo(mu_q, ls_q, mu_p, ls_p, 1_000_000, rng)
        ok &= abs(analytic - estimate) < 3.0 * stderr
    report(f"{'ok' if ok else 'FAIL'} KL closed forms and Monte Carlo agreement")
    return ok


def _check_schedule(report) -> bool:
    schedule = tr.TrainingSchedule(total_steps=64, cycle_length=8)
    values = [tr.beta_at(s, schedule) for s in range(16)]
    ok = (
        values[0] == 0.0 and values[4] == 0.0 and values[5] == 0.5
        and values[6] == 1.0 and values[7] == 1.0 and values[8:] == values[:8]
    )
    report(f"{'ok' if ok else 'FAIL'} annealing schedule shape")
    return ok


def _check_adam(report) -> bool:
    params = ParameterSet([("x", np.array([0.5]))])
    x = params["x"]
    optimizer = tr.Adam(params, lr=0.05)
    grads = [0.3, -1.2, 0.7, 2.5, -0.1, 0.0, 1.0, -0.4]
    for g in grads:
        x.grad = np.array([g])
        optimizer.step(0.0)
    want = reference_adam_scalar(grads, 0.05, tr.ADAM_BETA1, tr.ADAM_BETA2, tr.ADAM_EPS, x0=0.5)
    ok = abs(float(x.data[0]) - want) <= 1e-12
    # A step in which the parameter has no gradient leaves its value and its update count alone.
    before = x.data.copy()
    x.grad = None
    optimizer.step(0.0)
    ok &= np.array_equal(x.data, before) and optimizer.t["x"] == len(grads)
    report(f"{'ok' if ok else 'FAIL'} Adam against the scalar oracle, and no update without a gradient")
    return ok


def _check_sampler(report) -> bool:
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(20):
        logits = rng.standard_normal(10) * 2.0
        k = int(rng.integers(1, 11))
        p = float(rng.uniform(0.05, 1.0))
        cfg = sp.SamplerConfig(top_k=k, top_p=p, temperature=1.0, max_new_tokens=1)
        got = sp.filter_logits(logits, cfg)
        want = brute_force_filter(logits, k, p, 1.0)
        ok &= np.array_equal(got > 0, want > 0) and np.allclose(got, want, atol=1e-9)
    report(f"{'ok' if ok else 'FAIL'} top-k/top-p filter against brute force")

    # A (B, V) block: every row as brute force and as its own one-row call,
    # with ties across the top-k boundary and an all-equal row.
    block = np.round(rng.standard_normal((6, 10)) * 2.0) / 2.0
    block[-1] = 0.0
    cfg = sp.SamplerConfig(top_k=4, top_p=0.7, temperature=1.0, max_new_tokens=1)
    probs = sp.filter_logits(block, cfg)
    batch_ok = True
    for row, got in zip(block, probs):
        want = brute_force_filter(row, 4, 0.7, 1.0)
        batch_ok &= np.array_equal(got > 0, want > 0) and np.allclose(got, want, atol=1e-9)
        batch_ok &= np.array_equal(got, sp.filter_logits(row, cfg))
    # The batched draw against rng.choice on twin generators.
    mine = [np.random.default_rng([7, b]) for b in range(len(probs))]
    twins = [np.random.default_rng([7, b]) for b in range(len(probs))]
    tokens = sp.sample_tokens(probs, mine).tolist()
    batch_ok &= tokens == [int(g.choice(probs.shape[-1], p=row)) for g, row in zip(twins, probs)]
    batch_ok &= all(a.bit_generator.state == b.bit_generator.state for a, b in zip(mine, twins))
    report(f"{'ok' if batch_ok else 'FAIL'} (B, V) filter and draw against per-row filter and rng.choice")
    return ok and batch_ok


def _check_rouge(report) -> bool:
    rng = np.random.default_rng(3)
    vocab = ["sun", "moon", "star", "sky", "sea"]
    ok = True
    s = ev.rouge_scores("the cat sat", "the cat", 1)
    ok &= abs(s.precision - 2 / 3) < 1e-12 and s.recall == 1.0 and abs(s.f1 - 0.8) < 1e-12
    for _ in range(10):
        a = " ".join(rng.choice(vocab, size=rng.integers(1, 8)))
        b = " ".join(rng.choice(vocab, size=rng.integers(1, 8)))
        for variant in (1, 2, "L"):
            mine = ev.rouge_scores(a, b, variant).as_tuple()
            ok &= all(abs(x - y) < 1e-12 for x, y in zip(mine, brute_force_rouge(a, b, variant)))
    report(f"{'ok' if ok else 'FAIL'} ROUGE-1/2/L against brute-force counts")
    return ok


def _check_greedy(report) -> bool:
    cfg = ModelConfig(d=8, layers=1, encoder_layers=1, heads=2, latent_dim=8,
                      vocab_size=12, max_seq_len=16, injection_modes=("input",))
    model = StoryVAE.create(cfg, seed=3)
    # At the 0.02 init the separator's own tied embedding wins the first
    # step and the story is empty; unit-scale weights make it run on.
    ag.rescale_for_grad_check(model.params, np.random.default_rng(3))
    sep = cfg.vocab_size - 1
    latent = sp.draw_latent(model, [1, 2], sp.generation_rng(0, 0), use_mean=True)
    sampler = sp.SamplerConfig(top_k=1, top_p=0.9, temperature=0.9, max_new_tokens=10, seed=0)
    story = sp.generate(model, [1, 2], sep, sampler, latent, sp.generation_rng(0, 0))
    ok = len(story) > 0 and story == greedy_oracle(model, [1, 2], sep, latent, 10)
    report(f"{'ok' if ok else 'FAIL'} top-k=1 decoding against the greedy oracle ({len(story)} tokens)")
    return ok


def _check_cached_decoding(report) -> bool:
    cfg = ModelConfig(d=8, layers=2, encoder_layers=1, heads=2, latent_dim=4, vocab_size=12,
                      max_seq_len=24, injection_modes=("input", "psa", "softmax"))
    model = StoryVAE.create(cfg, seed=5, dtype=np.float64)
    ag.rescale_for_grad_check(model.params, np.random.default_rng(5))
    latent = lt.LatentCode.external(np.random.default_rng(6).standard_normal(cfg.latent_dim))
    tokens = np.random.default_rng(7).integers(0, cfg.vocab_size, size=cfg.max_seq_len)
    cache = model.decoder_cache(latent)
    worst = 0.0
    for t in range(tokens.size):
        step = tf.decode_stack(cache, tokens[t:t + 1]).data[-1]
        full = model.decode_logits(tokens[:t + 1], latent).data[-1]
        worst = max(worst, float(np.abs(step - full).max() / np.abs(full).max()))
    # Not bit-identical: BLAS sums one-row and many-row products in different orders.
    ok = worst <= 1e-12
    report(f"{'ok' if ok else 'FAIL'} cached decoding against full-prefix logits (max rel err {worst:.1e})")
    return ok


def _check_roundtrip(report) -> bool:
    rng = np.random.default_rng(13)
    texts = ["hello world", "ααβ", "emoji 🙂 test", "", "aaaa bbbb aaaa"]
    vocab = cp.fit_vocabulary([t for t in texts if t], 280)
    randoms = ["".join(chr(int(c)) for c in rng.integers(32, 1000, size=rng.integers(0, 30))) for _ in range(50)]
    ok = vocab.merges == bpe_fit_oracle([t for t in texts if t], 280) and all(
        vocab.encode(s) == bpe_scan_oracle(list(s.encode()), vocab.merges) and vocab.decode(vocab.encode(s)) == s
        for s in texts + randoms
    )
    report(f"{'ok' if ok else 'FAIL'} tokenizer fit, round-trips, and ids against the recount and list-scan oracles")
    return ok


def _check_model_gradients(report) -> bool:
    cfg = ModelConfig(
        d=4, layers=1, encoder_layers=1, heads=2, latent_dim=4,
        vocab_size=8, max_seq_len=8, injection_modes=("input", "psa", "softmax"),
    )
    model = StoryVAE.create(cfg, seed=2, dtype=np.float64)
    ag.rescale_for_grad_check(model.params, np.random.default_rng(21))
    # Two examples of unequal length, so the padded batch's key mask is checked too.
    examples = [
        cp.EncodedExample(
            prior_input=np.array([1, 2]),
            decoder_input=np.array([1, 2, 7, 3]),
            targets=np.array([2, 7, 3, 7]),
            loss_mask=np.array([False, False, True, True]),
            pair=None,
        ),
        cp.EncodedExample(
            prior_input=np.array([4, 5, 6]),
            decoder_input=np.array([4, 5, 6, 7, 3, 1]),
            targets=np.array([5, 6, 7, 3, 1, 7]),
            loss_mask=np.array([False, False, False, True, True, True]),
            pair=None,
        ),
    ]
    noise = np.random.default_rng(4).standard_normal((2, cfg.latent_dim))
    result = ag.grad_check(lambda: model.cvae_loss(examples, noise, beta=0.7)[0], model.params, eps=1e-5)
    report(
        f"{'ok' if result.passed else 'FAIL'} full objective gradient check over a padded batch "
        f"(max rel err {result.max_rel_error:.2e} at {result.worst_parameter})"
    )
    return result.passed


def run_all(report=print) -> int:
    """Run every check; returns the number of failures."""
    checks = [
        _check_products,
        _check_op_gradients,
        _check_kl,
        _check_schedule,
        _check_adam,
        _check_sampler,
        _check_rouge,
        _check_greedy,
        _check_cached_decoding,
        _check_roundtrip,
        _check_model_gradients,
    ]
    failures = 0
    for check in checks:
        try:
            if not check(report):
                failures += 1
        except Exception as e:  # a crash counts as a failed check
            report(f"FAIL {check.__name__}: {type(e).__name__}: {e}")
            failures += 1
    return failures
