import ast
import inspect
import math
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import transformer as tf
from storyvae.autograd import ParameterSet, Tensor
from storyvae.selfcheck import inner, matmul_oracle


def finite_difference(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = fn()
        flat[i] = keep - eps
        down = fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2 * eps)
    return grad


class TestLinear:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        identity = Tensor(np.eye(4, dtype=np.float32))
        assert np.allclose(ag.linear(a, identity).data, a.data)

    def test_zero_absorbs(self):
        zeros = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.random.default_rng(1).standard_normal((3, 5)).astype(np.float32))
        assert np.array_equal(ag.linear(zeros, b).data, np.zeros((2, 5), dtype=np.float32))

    def test_worked_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        got = ag.linear(a, b).data
        assert np.array_equal(got, np.array([[3.0], [7.0]], dtype=np.float32))
        assert np.allclose(got, matmul_oracle(a.data, b.data))

    def test_random_against_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m, k, n = rng.integers(1, 6, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            assert np.allclose(ag.linear(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), atol=1e-5)

    def test_shape_error_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 5)))
        with pytest.raises(ag.ShapeError, match=r"\(4, 5\).*\(2, 3\)"):
            ag.linear(a, b)

    def test_associativity_float32(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
            b = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
            c = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
            left = ag.linear(ag.linear(a, b), c).data
            right = ag.linear(a, ag.linear(b, c)).data
            denom = np.maximum(np.abs(left), 1.0)
            assert (np.abs(left - right) / denom).max() < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "rank3"])
    @pytest.mark.parametrize("bias", [False, True], ids=["no_bias", "bias"])
    def test_residual_matches_a_separate_add(self, dtype, lead, bias):
        """``linear(x, w, b, residual=r)`` gives the bits of ``add(r, linear(x, w, b))``, forward and backward."""
        rng = np.random.default_rng(11)

        def run(fused: bool):
            x, r = (Tensor(rng.standard_normal((*lead, 5, 4)), requires_grad=True, dtype=dtype) for _ in range(2))
            w = Tensor(rng.standard_normal((4, 4)), requires_grad=True, dtype=dtype)
            b = Tensor(rng.standard_normal(4), requires_grad=True, dtype=dtype) if bias else None
            # ``r`` also feeds a second node, so its gradient is a sum whose order matters.
            out = ag.linear(x, w, b, residual=r) if fused else ag.add(r, ag.linear(x, w, b))
            ag.backward(inner(ag.add(out, r), out))
            return [out.data] + [t.grad for t in (x, w, b, r) if t is not None]

        rng_state = rng.bit_generator.state
        fused = run(True)
        rng.bit_generator.state = rng_state
        assert all(np.array_equal(a, b) for a, b in zip(fused, run(False), strict=True))

    def test_residual_of_another_shape_raises(self):
        x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
        for shape in [(2, 3), (4,), (1, 4), (1, 2, 4)]:
            with pytest.raises(ag.ShapeError, match="residual"):
                ag.linear(x, w, residual=Tensor(np.zeros(shape)))

    def test_vector_cases(self):
        """A vector goes through as one (1, d) row; a bare (d,) vector is refused."""
        rng = np.random.default_rng(4)
        v = rng.standard_normal(3)
        m = rng.standard_normal((3, 4))
        assert np.allclose(ag.linear(Tensor(v[None]), Tensor(m)).data, (v @ m)[None], atol=1e-6)
        with pytest.raises(ag.ShapeError):
            ag.linear(Tensor(v), Tensor(m))


def _attention_weights(scores, mask=None):
    """The weights one head of ``ag.attention`` gives (Lq, n) ``scores``.

    The n keys are the identity rows, so query row i scaled by sqrt(n)
    scores key j at ``scores[i, j]`` once the op divides by sqrt(d/H).
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    n = scores.shape[1]
    kv = tf.KVRows(1, n)
    identity = Tensor(np.eye(n))
    kv.append(identity, identity)
    _, weights = kv.attend(Tensor(scores * math.sqrt(n)), mask, return_weights=True)
    return weights[0]


class TestAttention:
    """The masked softmax inside ``ag.attention``, read through ``return_weights``."""

    def test_uniform(self):
        assert np.allclose(_attention_weights([0.0, 0.0, 0.0]), [[1 / 3] * 3], atol=1e-7)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(7)
            c = float(rng.standard_normal())
            assert np.allclose(_attention_weights(x), _attention_weights(x + c), atol=1e-6)

    def test_derived_example(self):
        assert np.allclose(_attention_weights([0.0, math.log(2.0)]), [[1 / 3, 2 / 3]], atol=1e-7)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            out = _attention_weights(rng.standard_normal((3, 9)) * 5)
            assert np.all(out >= 0)
            assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_mask_zeroes_excluded_entries(self):
        out = _attention_weights([[1.0, 2.0, 3.0]], mask=np.array([[True, False, True]]))
        assert out[0, 1] == 0.0
        assert np.isclose(out.sum(), 1.0)

    def test_fully_masked_row_raises(self):
        mask = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(ag.ShapeError, match="no unmasked key"):
            _attention_weights(np.zeros((2, 3)), mask=mask)

    def test_mask_broadcasts_over_leading_axes(self):
        """One (Lq, n) mask serves every head: each head matches a one-head run on its slice."""
        rng = np.random.default_rng(8)
        q, k, v = (Tensor(rng.standard_normal((3, 4))) for _ in range(3))
        mask = np.tri(3, dtype=bool)
        both = tf.KVRows(2, 3)
        both.append(k, v)
        out, weights = both.attend(q, mask, return_weights=True)
        for h in range(2):
            cols = slice(2 * h, 2 * h + 2)
            one = tf.KVRows(1, 3)
            one.append(Tensor(k.data[:, cols]), Tensor(v.data[:, cols]))
            head_out, head_weights = one.attend(Tensor(q.data[:, cols]), mask, return_weights=True)
            assert np.allclose(weights[h], head_weights[0], rtol=0, atol=1e-15)
            assert np.allclose(out.data[:, cols], head_out.data, rtol=0, atol=1e-15)

    def test_mask_that_does_not_broadcast_raises(self):
        with pytest.raises(ag.ShapeError, match="does not broadcast"):
            _attention_weights(np.zeros((2, 4)), mask=np.ones((3, 3), dtype=bool))


class TestLayerNorm:
    def test_constant_row_returns_bias(self):
        x = Tensor(np.full((2, 4), 3.5))
        gain = Tensor(np.ones(4))
        bias = Tensor(np.array([1.0, -2.0, 0.5, 0.0]))
        out = ag.layer_norm(x, gain, bias).data
        assert np.allclose(out, np.broadcast_to(bias.data, (2, 4)), atol=1e-6)

    def test_two_point_row(self):
        x = Tensor(np.array([[1.0, -1.0]]))
        out = ag.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2))).data
        assert np.allclose(out, [[1.0, -1.0]], atol=1e-5)

    def test_gain_linearity(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 5)))
        gain = Tensor(rng.standard_normal(5))
        zero_bias = Tensor(np.zeros(5))
        once = ag.layer_norm(x, gain, zero_bias).data
        twice = ag.layer_norm(x, ag.mul_scalar(gain, 2.0), zero_bias).data
        assert np.allclose(twice, 2 * once, atol=1e-6)


class TestCrossEntropy:
    def test_uniform_logits(self):
        v = 11
        logits = Tensor(np.zeros((4, v)))
        total, per = ag.cross_entropy(logits, np.array([0, 3, 7, 10]), np.ones(4, dtype=bool))
        assert abs(float(total.data) - 4 * math.log(v)) < 1e-6
        assert np.allclose(per, math.log(v), atol=1e-6)

    def test_near_deterministic(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e4
        total, _ = ag.cross_entropy(Tensor(logits), np.array([2]), np.array([True]))
        assert float(total.data) < 1e-6

    def test_derived_example(self):
        logits = Tensor(np.array([[0.0, math.log(3.0)]]))
        total, _ = ag.cross_entropy(logits, np.array([1]), np.array([True]))
        assert abs(float(total.data) - (-math.log(3 / 4))) < 1e-6

    def test_all_masked_raises(self):
        with pytest.raises(ValueError, match="masked"):
            ag.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]), np.zeros(2, dtype=bool))

    def test_target_out_of_range_raises(self):
        with pytest.raises(IndexError):
            ag.cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]), np.array([True]))

    def test_mask_drops_positions(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((5, 6))
        targets = rng.integers(0, 6, size=5)
        mask = np.array([True, False, True, False, True])
        total, per = ag.cross_entropy(Tensor(logits), targets, mask)
        assert np.isclose(float(total.data), per[mask].sum(), atol=1e-6)

    def test_batch_matches_rows(self):
        """A (B, T, V) batch gives each row's per-position bits, and a total over every row."""
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((3, 5, 7))
        targets = rng.integers(0, 7, size=(3, 5))
        mask = rng.random((3, 5)) < 0.6
        mask[:, 0] = True
        total, per = ag.cross_entropy(Tensor(logits), targets, mask)
        rows = [ag.cross_entropy(Tensor(logits[b]), targets[b], mask[b]) for b in range(3)]
        assert per.shape == (3, 5)
        for b, (_, row_per) in enumerate(rows):
            assert np.array_equal(per[b], row_per)
        want = sum(float(row_total.data) for row_total, _ in rows)
        assert abs(float(total.data) - want) <= 1e-12 * abs(want)
        with pytest.raises(ag.ShapeError):
            ag.cross_entropy(Tensor(logits), targets[0], mask[0])


class TestGaussianSample:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8,), (3, 8)], ids=["vector", "batch"])
    def test_matches_the_exp_mul_add_chain(self, dtype, shape):
        """Output and both gradients have the bits of ``exp``, a product and an ``add``, in that order."""
        rng = np.random.default_rng(13)
        mu, ls, noise, g = (rng.standard_normal(shape).astype(dtype) for _ in range(4))
        mu_t, ls_t = Tensor(mu, requires_grad=True), Tensor(ls, requires_grad=True)
        z = ag.gaussian_sample(mu_t, ls_t, noise)
        ag.backward(inner(z, Tensor(g)))  # hands z the gradient ``g`` exactly
        e = np.exp(ls)
        assert z.data.dtype == dtype and np.array_equal(z.data, mu + e * noise)
        assert np.array_equal(mu_t.grad, g)
        assert np.array_equal(ls_t.grad, (g * noise) * e)

    def test_shapes_must_match(self):
        v = Tensor(np.zeros(4))
        for mu, ls, noise in [(v, v, np.zeros(3)), (v, Tensor(np.zeros((1, 4))), np.zeros(4)),
                              (Tensor(np.zeros((2, 4))), v, np.zeros(4))]:
            with pytest.raises(ag.ShapeError, match="gaussian_sample"):
                ag.gaussian_sample(mu, ls, noise)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ag.backward(ag.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_unused_parameter_gets_zero(self):
        params = ParameterSet()
        x = params.add("x", Tensor([1.0, 2.0]))
        w = params.add("w", Tensor([5.0]))
        x.requires_grad = True
        ag.backward(inner(x, x))
        assert np.array_equal(x.grad, np.array([2.0, 4.0], dtype=np.float32))
        assert w.grad is None

    def test_square_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ag.backward(inner(x, x))
        assert np.allclose(x.grad, [2.0, 4.0])
        data = np.array([1.0, 2.0])
        holder = Tensor(data, requires_grad=False)
        numeric = finite_difference(lambda: float((holder.data**2).sum()), data)
        assert np.allclose(x.grad, numeric, atol=1e-5)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ag.GraphError):
            ag.backward(ag.add(x, x))

    def test_grad_accumulates_across_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ag.add(inner(x, x), inner(x, x))
        ag.backward(ag.sum_all(y))
        assert np.allclose(x.grad, [8.0])


class TestNumericsPolicy:
    @pytest.mark.parametrize("noise", [1.0, 0.0], ids=["inf", "nan"])
    def test_gaussian_sample_overflow_raises(self, noise):
        """exp(1000) overflows: times noise 1 the draw is inf, times noise 0 it is NaN."""
        with pytest.raises(ag.NumericsError, match="^gaussian_sample produced non-finite values$"):
            ag.gaussian_sample(Tensor(np.zeros(2)), Tensor(np.array([0.5, 1000.0])), np.full(2, noise))

    def test_linear_overflow_raises(self):
        big = Tensor(np.full((2, 3), 1e30, dtype=np.float32))
        with pytest.raises(ag.NumericsError):
            ag.linear(big, ag.reshape(big, (3, 2)))
        # The bias alone overflows a finite product.
        huge = np.finfo(np.float32).max
        with pytest.raises(ag.NumericsError):
            ag.linear(Tensor(np.full((1, 3), huge / 2, dtype=np.float32)), Tensor(np.eye(3, 2, dtype=np.float32)),
                      Tensor(np.full(2, huge, dtype=np.float32)))
        # So does the residual, and the error names the op it happened in.
        with pytest.raises(ag.NumericsError, match="^linear produced non-finite values$"):
            ag.linear(Tensor(np.full((1, 3), huge / 2, dtype=np.float32)), Tensor(np.eye(3, 2, dtype=np.float32)),
                      residual=Tensor(np.full((1, 2), huge, dtype=np.float32)))

    def test_attention_overflow_raises(self):
        kv = tf.KVRows(2, 3)
        rows = Tensor(np.full((3, 4), 1e20, dtype=np.float32))
        kv.append(rows, rows)
        with pytest.raises(ag.NumericsError):  # each score is 2e40 / sqrt(2)
            kv.attend(Tensor(np.full((2, 4), 1e20, dtype=np.float32)))


class TestGradCheck:
    def test_square_function(self):
        params = ParameterSet()
        params.add("x", Tensor(np.array([1.0]), dtype=np.float64))
        report = ag.grad_check(lambda: inner(params["x"], params["x"]), params, eps=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_clears_requires_grad_and_keeps_gradients(self):
        params = ParameterSet()
        params.add("x", Tensor(np.array([1.0, -2.0]), dtype=np.float64))
        ag.grad_check(lambda: inner(params["x"], params["x"]), params)
        assert not params["x"].requires_grad
        assert np.allclose(params["x"].grad, [2.0, -4.0])

    def test_linear_is_nearly_exact(self):
        params = ParameterSet()
        params.add("x", Tensor(np.array([0.3, -1.2, 4.0]), dtype=np.float64))
        w = Tensor(np.array([2.0, -1.0, 0.5]), dtype=np.float64)
        report = ag.grad_check(lambda: inner(params["x"], w), params)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_detects_nondeterminism(self):
        params = ParameterSet()
        params.add("x", Tensor(np.array([1.0]), dtype=np.float64))
        counter = {"n": 0}

        def noisy():
            counter["n"] += 1
            return ag.mul_scalar(ag.sum_all(params["x"]), 1.0 + counter["n"] * 1e-9)

        report = ag.grad_check(noisy, params)
        assert not report.deterministic
        assert not report.passed

    def test_eps_bounds_enforced(self):
        params = ParameterSet()
        params.add("x", Tensor(np.array([1.0]), dtype=np.float64))
        with pytest.raises(ValueError):
            ag.grad_check(lambda: ag.sum_all(params["x"]), params, eps=1e-2)

    def test_rejects_float32(self):
        params = ParameterSet()
        params.add("x", Tensor(np.array([1.0], dtype=np.float32)))
        with pytest.raises(ValueError, match="float64"):
            ag.grad_check(lambda: ag.sum_all(params["x"]), params)


NOISE = np.random.default_rng(21).standard_normal((3, 8))

OP_CASES = {
    "add": lambda t, u: ag.add(t, u),
    # ``t`` reaches the output through the residual, the layer norm and the second product's weight.
    "mlp_sublayer": lambda t, u: ag.mlp_sublayer(t, _row(u, 0), _row(u, 1), _flip(u), _row(_flip(t), 0),
                                                 u, _row(t, 2)),
    "clamp": lambda t, u: ag.clamp(t, -0.9, 0.9),
    "reshape": lambda t, u: ag.reshape(t, (t.data.size,)),
    "layer_norm": lambda t, u: ag.layer_norm(
        t,
        ag.reshape(ag.take_rows(u, [0]), (t.shape[1],)),
        ag.reshape(ag.take_rows(u, [1]), (t.shape[1],)),
    ),
    "linear": lambda t, u: ag.linear(t, _flip(u)),
    "linear_bias": lambda t, u: ag.linear(t, _flip(u), _row(_flip(t), 0)),
    # A single vector is one (1, d) row.
    "linear_vector": lambda t, u: ag.linear(ag.take_rows(t, [1]), _flip(u)),
    "linear_vector_bias": lambda t, u: ag.linear(ag.take_rows(t, [1]), _flip(u), _row(_flip(u), 2)),
    # ``t`` reaches the output both through the product and through the residual.
    "linear_residual": lambda t, u: ag.linear(t, _flip(u), residual=ag.take_rows(_flip(t), range(6))),
    "linear_vector_bias_residual": lambda t, u: ag.linear(
        ag.take_rows(t, [1]), _flip(u), _row(_flip(u), 2), residual=ag.take_rows(_flip(t), [3])),
    # Word row 5 repeats, and the positions are rows 2 to 5.
    "embedding": lambda t, u: ag.embedding(t, u, np.array([5, 0, 5, 2]), 2),
    "embedding_row": lambda t, u: ag.embedding(t, u, np.array([5, 0, 5, 2]), 2, ag.take_rows(u, [0])),
    # ``t`` reaches the logits through the layer norm and through the table.
    "tied_head": lambda t, u: ag.tied_head(t, _row(u, 0), _row(u, 1), t),
    "tied_head_bias": lambda t, u: ag.tied_head(t, _row(u, 0), _row(u, 1), u, ag.take_rows(_flip(t), [0])),
    "attention_latent_row": lambda t, u: _attention(t, u, latent=True),
    "attention_causal": lambda t, u: _attention(t, u, mask=np.tri(6, dtype=bool)),
    "attention_valid": lambda t, u: _attention(
        t, u, query=ag.take_rows(t, [0]), mask=np.array([True, False, True, True, False, True])),
    "attention_cached": lambda t, u: _two_cached_calls(t, u),
    "attention_sublayer_causal": lambda t, u: tf.multi_head_attention(t, _sublayer_params(t, u), 2, causal=True),
    "attention_sublayer_latent_row_key_mask": lambda t, u: tf.multi_head_attention(
        ag.take_rows(t, [0, 1, 2, 3, 4]), _sublayer_params(t, u), 2, causal=False, key_mask=np.arange(6) != 3,
        past=tf.KVRows(2, 6, (ag.take_rows(u, [5]), ag.take_rows(t, [5])))),
    # Target 3 repeats, and two positions are masked out.
    "cross_entropy": lambda t, u: ag.cross_entropy(
        ag.add(t, u), np.array([0, 7, 3, 3, 5, 1]), np.array([True, False, True, True, True, False]))[0],
    "gaussian_kl": lambda t, u: ag.gaussian_kl(
        _row(t, 0), ag.mul_scalar(_row(t, 1), 0.5), _row(u, 0), ag.mul_scalar(_row(u, 1), 0.5)),
    # A (3, 8) batch whose prior, like the posterior, is trainable.
    "gaussian_kl_batch": lambda t, u: ag.gaussian_kl(
        ag.take_rows(t, [0, 1, 2]), ag.mul_scalar(ag.take_rows(t, [3, 4, 5]), 0.5),
        ag.take_rows(u, [0, 1, 2]), ag.mul_scalar(ag.take_rows(u, [3, 4, 5]), 0.5)),
    # A (d',) draw, and a (3, 8) batch whose mean and log-sigma rows overlap in ``t``.
    "gaussian_sample": lambda t, u: ag.gaussian_sample(_row(t, 0), ag.mul_scalar(_row(u, 1), 0.5), NOISE[0]),
    "gaussian_sample_batch": lambda t, u: ag.gaussian_sample(
        ag.take_rows(t, [0, 1, 2]), ag.mul_scalar(ag.take_rows(t, [2, 3, 4]), 0.5), NOISE),
    # Rank 3: the (6, 8) inputs as a batch of two (3, 8) matrices.
    "add_rank3": lambda t, u: ag.add(ag.add(_rank3(t), ag.take_rows(u, [0, 1, 2])), ag.take_rows(_rank3(u), [1])),
    "mlp_sublayer_rank3": lambda t, u: ag.mlp_sublayer(
        _rank3(t), _row(u, 0), _row(u, 1), _flip(u), _row(_flip(t), 0), u, _row(t, 2)),
    "clamp_rank3": lambda t, u: ag.clamp(_rank3(t), -0.9, 0.9),
    "reshape_rank3": lambda t, u: ag.reshape(_rank3(t), (3, 2, 8)),
    "layer_norm_rank3": lambda t, u: ag.layer_norm(_rank3(t), _row(u, 0), _row(u, 1)),
    "linear_rank3": lambda t, u: ag.linear(_rank3(t), _flip(u)),
    "linear_bias_rank3": lambda t, u: ag.linear(_rank3(t), _flip(u), _row(_flip(t), 0)),
    "linear_bias_residual_rank3": lambda t, u: ag.linear(
        _rank3(t), _flip(u), _row(_flip(t), 0),
        residual=ag.reshape(ag.take_rows(_flip(u), range(6)), (2, 3, 6))),
    # Each sequence has its own injection row; positions are rows 3 to 5.
    "embedding_row_rank3": lambda t, u: ag.embedding(
        t, u, np.array([[1, 4, 1], [0, 0, 3]]), 3, ag.take_rows(_rank3(u), [2])),
    "tied_head_bias_rank3": lambda t, u: ag.tied_head(
        _rank3(t), _row(u, 0), _row(u, 1), u, ag.reshape(ag.take_rows(_flip(u), [1, 4]), (2, 1, 6))),
    "take_rows_rank3": lambda t, u: ag.add(ag.take_rows(_rank3(t), [2, 0]), ag.take_rows(u, [[0, 5], [3, 3]])),
    "cross_entropy_rank3": lambda t, u: ag.cross_entropy(
        _rank3(t), np.array([[0, 7, 3], [3, 3, 1]]), np.array([[True, True, False], [True, True, True]]))[0],
    "attention_rank3": lambda t, u: _batched_attention(t, u),
    "attention_shared_query_rank3": lambda t, u: _batched_attention(t, u, query=ag.take_rows(t, [5])),
    # The second sequence's last row is padding that no query attends.
    "attention_sublayer_key_mask_rank3": lambda t, u: tf.multi_head_attention(
        _rank3(t), _sublayer_params(t, u), 2, causal=False,
        key_mask=np.array([[[[True, True, True]]], [[[True, True, False]]]])),
}


def _row(a, i):
    """Row ``i`` of a matrix as a vector."""
    return ag.reshape(ag.take_rows(a, [i]), (a.shape[1],))


def _flip(a):
    """A (6, 8) input as an (8, 6) matrix: a reshape, which serves wherever a case needs the other shape."""
    return ag.reshape(a, a.shape[::-1])


def _rank3(a):
    return ag.reshape(a, (2, 3, 8))


def _batched_attention(t, u, query=None):
    """Two sequences of three rows, each after its own latent row; causal unless one query row serves both."""
    t3, u3 = _rank3(t), _rank3(u)
    kv = tf.KVRows(2, 4, (ag.take_rows(u3, [0]), ag.take_rows(t3, [1])))
    kv.append(u3, ag.add(t3, u3))
    if query is not None:
        return kv.attend(query)
    return kv.attend(t3, np.hstack([np.ones((3, 1), dtype=bool), np.tri(3, dtype=bool)]))


def _attention(t, u, query=None, latent=False, mask=None):
    """Two heads over keys ``u`` and values ``t + u``, after an optional latent row from row 0 of each."""
    kv = tf.KVRows(2, 7, (ag.take_rows(u, [0]), ag.take_rows(t, [0])) if latent else None)
    kv.append(u, ag.add(t, u))
    if mask is not None and latent:
        mask = np.hstack([np.ones((mask.shape[0], 1), dtype=bool), mask])
    return kv.attend(t if query is None else query, mask)


def _sublayer_params(t, u):
    """An attention sublayer's tensors, each built from rows of ``t`` and ``u`` at half scale."""
    square = lambda a, rows: ag.mul_scalar(ag.take_rows(a, rows), 0.5)
    return tf.AttentionParams(
        ln_g=_row(u, 0), ln_b=_row(u, 1), wq=square(t, [0, 1, 2, 3, 4, 5, 0, 1]), bq=_row(u, 2),
        wk=square(u, [5, 4, 3, 2, 1, 0, 5, 4]), wv=square(t, [2, 3, 4, 5, 0, 1, 2, 3]), bv=_row(u, 3),
        wo=square(u, [1, 3, 5, 0, 2, 4, 1, 3]), bo=_row(t, 4))


def _two_cached_calls(t, u):
    """Rows 0-2 attend causally over themselves, then rows 3-5 over all six: the first call's keys and values feed both."""
    kv = tf.KVRows(2, 6)
    kv.append(ag.take_rows(u, [0, 1, 2]), ag.take_rows(t, [0, 1, 2]))
    first = kv.attend(ag.take_rows(t, [3, 4, 5]), np.tri(3, dtype=bool))
    kv.append(ag.take_rows(u, [3, 4, 5]), ag.add(ag.take_rows(t, [3, 4, 5]), ag.take_rows(u, [3, 4, 5])))
    second = kv.attend(ag.take_rows(u, [0, 2, 4]), np.hstack([np.ones((3, 3), dtype=bool), np.tri(3, dtype=bool)]))
    return ag.add(first, second)


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_every_op_matches_finite_differences(name):
    """Each primitive's reverse-mode gradient agrees with central differences."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # str hashes are salted per process
    params = ParameterSet()
    t = params.add("t", Tensor(rng.standard_normal((6, 8)) * 0.8, dtype=np.float64))
    u = params.add("u", Tensor(rng.standard_normal((6, 8)) * 0.8, dtype=np.float64))
    weight = Tensor(rng.standard_normal((OP_CASES[name](t, u).data.size,)), dtype=np.float64)

    def fn():
        return inner(OP_CASES[name](params["t"], params["u"]), weight)

    report = ag.grad_check(fn, params, eps=1e-5)
    assert report.passed, f"{name}: max rel err {report.max_rel_error:.2e} at {report.worst_parameter}"
    assert report.max_rel_error < 1e-4


def test_take_rows_gradients():
    """A repeated row index scatters both its gradients back to one table row."""
    rng = np.random.default_rng(9)
    params = ParameterSet()
    params.add("table", Tensor(rng.standard_normal((7, 5)), dtype=np.float64))
    idx = np.array([0, 3, 3, 6])

    def fn():
        rows = ag.take_rows(params["table"], idx)
        return inner(rows, rows)

    report = ag.grad_check(fn, params, eps=1e-5)
    assert report.passed, report.max_rel_error


def test_parameter_set_contracts():
    params = ParameterSet()
    params.add("a", Tensor(np.zeros(3)))
    with pytest.raises(ValueError, match="duplicate"):
        params.add("a", Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="one dtype"):
        params.add("b", Tensor(np.zeros(2, dtype=np.float32)))
    assert params.names() == ["a"] and params.data_buffer.dtype == np.float64
    with pytest.raises(ValueError, match="one dtype"):
        ParameterSet([("a", np.zeros(2)), ("b", np.zeros(2, dtype=np.float32))])


def test_flat_buffer_is_zero_filled_and_writable():
    buf = ag.flat_buffer(5, np.float32)
    assert buf.dtype == np.float32 and np.array_equal(buf, np.zeros(5))
    buf[2:4] = 7.0
    assert buf.reshape(5)[3] == 7.0
    assert ag.flat_buffer(0, np.float64).shape == (0,)


def test_parameter_set_add_lays_every_tensor_out_afresh():
    params = ParameterSet()
    a = params.add("a", Tensor(np.array([1.0, 2.0])))
    b = params.add("b", Tensor(np.arange(6.0).reshape(2, 3)))
    assert a.data.base is b.data.base is params.data_buffer
    assert np.array_equal(params.data_buffer, [1.0, 2.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert (params.span("a"), params.span("b")) == ((0, 2), (2, 8))
    assert params.grad_buffer is None  # until the set tracks gradients
    params.track_gradients()
    b.requires_grad = True
    ag.backward(inner(b, b))
    assert b.grad.base is params.grad_buffer and np.array_equal(b.grad, 2.0 * b.data)


def test_live_runs_group_consecutive_gradients_and_copy_hand_assigned_ones():
    params = ParameterSet([(name, np.zeros(2)) for name in "abcde"])
    for name, g in {"a": [1.0, 2.0], "b": [3.0, 4.0], "d": [5.0, 6.0], "e": [7.0, 8.0]}.items():
        params[name].grad = np.array(g)
    runs = params.live_runs(key=lambda name: name == "e")
    assert runs == [[("a", 0, 2), ("b", 2, 4)], [("d", 6, 8)], [("e", 8, 10)]]
    assert params["a"].grad.base is params.grad_buffer
    assert np.array_equal(params.grad_buffer[[0, 1, 2, 3, 6, 7, 8, 9]], np.arange(1.0, 9.0))
    assert params["c"].grad is None


def test_every_public_op_has_a_program_caller():
    """Each public autograd function is reached from program code, not only from tests and selfcheck.

    Program code is every module of the package but ``selfcheck``.  Inside
    ``autograd`` a call from one module-level function to another counts;
    a function calling itself, or a class calling it, does not.
    """
    referenced = set()
    for path in Path(ag.__file__).parent.glob("*.py"):
        if path.name == "selfcheck.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("ag", "autograd"):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "autograd":
                referenced.update(alias.name for alias in node.names)
        if path.name == "autograd.py":
            for top in tree.body:
                if isinstance(top, ast.FunctionDef):
                    referenced.update(node.func.id for node in ast.walk(top) if isinstance(node, ast.Call)
                                      and isinstance(node.func, ast.Name) and node.func.id != top.name)
    public = {name for name, obj in vars(ag).items()
              if inspect.isfunction(obj) and obj.__module__ == ag.__name__ and not name.startswith("_")}
    assert sorted(public - {"grad_check", "rescale_for_grad_check"} - referenced) == []


def test_readme_counts_the_public_tape_ops():
    """README's count of public tape ops is the number of public autograd functions that record a node via ``_make``."""
    tree = ast.parse(Path(ag.__file__).read_text(encoding="utf-8"))
    ops = {top.name for top in tree.body if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
           and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_make"
                   for n in ast.walk(top))}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    counts = [int(n) for n in re.findall(r"The\s+package\s+has\s+(\d+)\s+public\s+tape\s+ops", readme)]
    assert counts == [len(ops)], sorted(ops)
