import math

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae.autograd import ParameterSet, Tensor


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


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


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        identity = Tensor(np.eye(4, dtype=np.float32))
        assert np.allclose(ag.matmul(a, identity).data, a.data)

    def test_zero_absorbs(self):
        zeros = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.random.default_rng(1).standard_normal((3, 5)).astype(np.float32))
        assert np.array_equal(ag.matmul(zeros, b).data, np.zeros((2, 5), dtype=np.float32))

    def test_worked_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        got = ag.matmul(a, b).data
        assert np.array_equal(got, np.array([[3.0], [7.0]], dtype=np.float32))
        assert np.allclose(got, matmul_oracle(a.data, b.data))

    def test_random_against_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m, k, n = rng.integers(1, 6, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            assert np.allclose(ag.matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), atol=1e-5)

    def test_shape_error_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 5)))
        with pytest.raises(ag.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ag.matmul(a, b)

    def test_associativity_float32(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
            b = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
            c = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
            left = ag.matmul(ag.matmul(a, b), c).data
            right = ag.matmul(a, ag.matmul(b, c)).data
            denom = np.maximum(np.abs(left), 1.0)
            assert (np.abs(left - right) / denom).max() < 1e-4

    def test_vector_cases(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(3)
        m = rng.standard_normal((3, 4))
        assert np.allclose(ag.matmul(Tensor(v), Tensor(m)).data, v @ m, atol=1e-6)
        assert np.allclose(ag.matmul(Tensor(m.T), Tensor(v)).data, m.T @ v, atol=1e-6)

    def test_batches_against_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((3, 4, 5))
        got = ag.matmul(Tensor(a), Tensor(b)).data
        for i in range(3):
            assert np.allclose(got[i], matmul_oracle(a[i], b[i]), atol=1e-5)

    def test_batch_size_mismatch_raises(self):
        with pytest.raises(ag.ShapeError, match=r"batch sizes differ.*\(2, 3, 4\).*\(3, 4, 5\)"):
            ag.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
        with pytest.raises(ag.ShapeError):
            ag.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))


class TestSoftmax:
    def test_uniform(self):
        out = ag.softmax(Tensor([0.0, 0.0, 0.0])).data
        assert np.allclose(out, [1 / 3] * 3, atol=1e-7)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(7)
            c = float(rng.standard_normal())
            a = ag.softmax(Tensor(x)).data
            b = ag.softmax(Tensor(x + c)).data
            assert np.allclose(a, b, atol=1e-6)

    def test_derived_example(self):
        out = ag.softmax(Tensor([0.0, math.log(2.0)])).data
        assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-7)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.standard_normal((3, 9)) * 5
            out = ag.softmax(Tensor(x)).data
            assert np.all(out >= 0)
            assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_mask_zeroes_excluded_entries(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        mask = np.array([[True, False, True]])
        out = ag.softmax(x, mask=mask).data
        assert out[0, 1] == 0.0
        assert np.isclose(out.sum(), 1.0)

    def test_fully_masked_row_raises(self):
        with pytest.raises(ag.ShapeError):
            ag.softmax(Tensor(np.zeros((1, 3))), mask=np.array([[False, False, False]]))

    def test_mask_broadcasts_over_leading_axes(self):
        x = np.random.default_rng(8).standard_normal((2, 3, 4))
        mask = np.tri(3, 4, dtype=bool)
        out = ag.softmax(Tensor(x), mask=mask).data
        for i in range(2):
            assert np.array_equal(out[i], ag.softmax(Tensor(x[i]), mask=mask).data)

    def test_mask_that_does_not_broadcast_raises(self):
        with pytest.raises(ag.ShapeError, match="does not broadcast"):
            ag.softmax(Tensor(np.zeros((2, 3, 4))), mask=np.ones((3, 3), dtype=bool))


class TestLayerNorm:
    def test_constant_row_returns_bias(self):
        x = Tensor(np.full((2, 4), 3.5))
        gain = Tensor(np.ones(4))
        bias = Tensor(np.array([1.0, -2.0, 0.5, 0.0]))
        out = ag.layer_norm(x, gain, bias, eps=1e-5).data
        assert np.allclose(out, np.broadcast_to(bias.data, (2, 4)), atol=1e-6)

    def test_two_point_row(self):
        x = Tensor(np.array([[1.0, -1.0]]))
        out = ag.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12).data
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
        ag.backward(ag.sum_all(ag.mul(x, x)))
        assert np.array_equal(x.grad, np.array([2.0, 4.0], dtype=np.float32))
        assert w.grad is None
        assert np.array_equal(w.grad_or_zeros(), np.zeros(1, dtype=np.float32))

    def test_square_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ag.backward(ag.sum_all(ag.mul(x, x)))
        assert np.allclose(x.grad, [2.0, 4.0])
        data = np.array([1.0, 2.0])
        holder = Tensor(data, requires_grad=False)
        numeric = finite_difference(lambda: float((holder.data**2).sum()), data)
        assert np.allclose(x.grad, numeric, atol=1e-5)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ag.GraphError):
            ag.backward(ag.mul(x, x))

    def test_grad_accumulates_across_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ag.add(ag.mul(x, x), ag.mul(x, x))
        ag.backward(ag.sum_all(y))
        assert np.allclose(x.grad, [8.0])


class TestNumericsPolicy:
    def test_overflow_raises(self):
        big = Tensor(np.array([1e30], dtype=np.float32))
        with pytest.raises(ag.NumericsError):
            ag.mul(big, big)

    def test_exp_overflow_raises(self):
        with pytest.raises(ag.NumericsError):
            ag.exp(Tensor(np.array([1000.0])))


class TestGradCheck:
    def test_square_function(self):
        params = ParameterSet()
        params.add("x", Tensor(np.array([1.0]), dtype=np.float64))
        report = ag.grad_check(lambda: ag.sum_all(ag.mul(params["x"], params["x"])), params, eps=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_linear_is_nearly_exact(self):
        params = ParameterSet()
        params.add("x", Tensor(np.array([0.3, -1.2, 4.0]), dtype=np.float64))
        w = Tensor(np.array([2.0, -1.0, 0.5]), dtype=np.float64)
        report = ag.grad_check(lambda: ag.sum_all(ag.mul(params["x"], w)), params)
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


OP_CASES = {
    "add": lambda t, u: ag.add(t, u),
    "sub": lambda t, u: ag.sub(t, u),
    "mul": lambda t, u: ag.mul(t, u),
    "matmul": lambda t, u: ag.matmul(t, ag.transpose(u)),
    "neg": lambda t, u: ag.neg(t),
    "exp": lambda t, u: ag.exp(ag.mul_scalar(t, 0.5)),
    "gelu": lambda t, u: ag.gelu(t),
    "softmax": lambda t, u: ag.softmax(t),
    "log_softmax": lambda t, u: ag.log_softmax(t),
    "clamp": lambda t, u: ag.clamp(t, -0.9, 0.9),
    "reshape": lambda t, u: ag.reshape(t, (t.data.size,)),
    "matmul_batched": lambda t, u: ag.matmul(ag.reshape(t, (2, 3, 8)), ag.reshape(u, (2, 8, 3))),
    "concat": lambda t, u: ag.concat_rows([t, u]),
    "transpose": lambda t, u: ag.transpose(t),
    "transpose_axes": lambda t, u: ag.transpose(ag.reshape(t, (2, 3, 8)), axes=(2, 0, 1)),
    "softmax_broadcast_mask": lambda t, u: ag.softmax(ag.reshape(t, (2, 3, 8)), mask=np.tri(3, 8, 4, dtype=bool)),
    "layer_norm": lambda t, u: ag.layer_norm(
        t,
        ag.reshape(ag.take_rows(u, [0]), (t.shape[1],)),
        ag.reshape(ag.take_rows(u, [1]), (t.shape[1],)),
    ),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_every_op_matches_finite_differences(name):
    """Each primitive's reverse-mode gradient agrees with central differences."""
    rng = np.random.default_rng(hash(name) % 2**32)
    params = ParameterSet()
    t = params.add("t", Tensor(rng.standard_normal((6, 8)) * 0.8, dtype=np.float64))
    u = params.add("u", Tensor(rng.standard_normal((6, 8)) * 0.8, dtype=np.float64))
    weight = Tensor(rng.standard_normal((OP_CASES[name](t, u).data.size,)), dtype=np.float64)

    def fn():
        out = OP_CASES[name](params["t"], params["u"])
        return ag.sum_all(ag.mul(ag.reshape(out, (out.data.size,)), weight))

    report = ag.grad_check(fn, params, eps=1e-5)
    assert report.passed, f"{name}: max rel err {report.max_rel_error:.2e} at {report.worst_parameter}"
    assert report.max_rel_error < 1e-4


def test_take_rows_and_pick_gradients():
    rng = np.random.default_rng(9)
    params = ParameterSet()
    params.add("table", Tensor(rng.standard_normal((7, 5)), dtype=np.float64))
    idx = np.array([0, 3, 3, 6])
    cols = np.array([1, 4, 0, 2])

    def fn():
        rows = ag.take_rows(params["table"], idx)
        return ag.sum_all(ag.mul(ag.pick(rows, cols), ag.pick(rows, cols)))

    report = ag.grad_check(fn, params, eps=1e-5)
    assert report.passed, report.max_rel_error


def test_dropout_scales_and_masks():
    rng = np.random.default_rng(10)
    x = Tensor(np.ones((200, 4)), requires_grad=True)
    out = ag.dropout(x, 0.25, rng)
    kept = out.data != 0
    assert np.allclose(out.data[kept], 1 / 0.75)
    assert 0.6 < kept.mean() < 0.9
    ag.backward(ag.sum_all(out))
    assert np.array_equal(x.grad != 0, kept)


def test_parameter_set_contracts():
    params = ParameterSet()
    params.add("a", Tensor(np.zeros(3)))
    with pytest.raises(ValueError, match="duplicate"):
        params.add("a", Tensor(np.zeros(2)))
