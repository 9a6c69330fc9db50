import ast
import inspect
import math
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import selfcheck
from storyvae.autograd import ParameterSet, Tensor
from storyvae.selfcheck import GRADIENT_CASES, gradient_case_report, inner


def _attention_weights(scores, mask=None):
    """The weights that the masked softmax of ``attention_sublayer`` and ``pool_gaussian`` gives one head's scores."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    probs, _ = ag._mix(scores[None], np.zeros((1, scores.shape[1], 1)), mask, 1)
    return probs[0]


class TestAttention:
    """The masked softmax inside the attention ops."""

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
        """One (Lq, n) mask serves every head: each head's weights match a one-head run on its scores."""
        scores = np.random.default_rng(8).standard_normal((2, 3, 3))
        mask = np.tri(3, dtype=bool)
        both, _ = ag._mix(scores, np.zeros((2, 3, 1)), mask, 2)
        for h in range(2):
            assert np.array_equal(both[h], _attention_weights(scores[h], mask))

    def test_mask_that_does_not_broadcast_raises(self):
        with pytest.raises(ag.ShapeError, match="does not broadcast"):
            _attention_weights(np.zeros((2, 4)), mask=np.ones((3, 3), dtype=bool))


class TestLayerNorm:
    """The layer norm inside the sublayers, the head and the pooling."""

    def test_constant_row_returns_bias(self):
        bias = np.array([1.0, -2.0, 0.5, 0.0])
        out = ag._norm(np.full((2, 4), 3.5), np.ones(4), bias)[0]
        assert np.allclose(out, np.broadcast_to(bias, (2, 4)), atol=1e-6)

    def test_two_point_row(self):
        out = ag._norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2))[0]
        assert np.allclose(out, [[1.0, -1.0]], atol=1e-5)

    def test_gain_linearity(self):
        rng = np.random.default_rng(7)
        x, gain = rng.standard_normal((3, 5)), rng.standard_normal(5)
        once = ag._norm(x, gain, np.zeros(5))[0]
        twice = ag._norm(x, 2.0 * gain, np.zeros(5))[0]
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
    def test_a_sum_gives_ones(self):
        """The objective's KL sum hands every coordinate the output's gradient."""
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ag.backward(ag.elbo_loss(None, x, 1.0, 1))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_unused_parameter_gets_zero(self):
        params = ParameterSet([("x", [1.0, 2.0]), ("w", [5.0])], dtype=np.float32)
        x, w = params["x"], params["w"]
        x.requires_grad = True
        ag.backward(inner(x, x))
        assert np.array_equal(x.grad, np.array([2.0, 4.0], dtype=np.float32))
        assert w.grad is None

    def test_square_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ag.backward(inner(x, x))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ag.GraphError):
            ag.backward(ag.gaussian_sample(x, x, np.ones(3)))

    def test_grad_accumulates_across_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        ag.backward(ag.elbo_loss(inner(x, x), inner(x, x), 1.0, 1))
        assert np.allclose(x.grad, [8.0])

    def test_a_second_backward_sends_only_its_own_gradient(self):
        """An interior node that two backwards share hands on, in the second, only the second's gradient."""
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        h = ag.gaussian_sample(x, Tensor(np.zeros(2)), np.zeros(2))
        ag.backward(inner(h, Tensor([1.0, 0.0])))
        x.grad = None
        ag.backward(inner(h, Tensor([0.0, 1.0])))
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_a_node_of_two_outputs_runs_its_backward_once_per_backward(self):
        """Each backward hands the pooled row only the gradients that reached the outputs in that backward.

        The pooled row is the output product's ``@ wo + bo``, so the bias
        ``bo`` gets exactly the pooled row's gradient.
        """
        rng = np.random.default_rng(9)
        x, q, wk, wv, wo = (Tensor(rng.standard_normal(shape)) for shape in [(4, 3), (3,), (3, 3), (3, 3), (3, 3)])
        one, zero, bo = Tensor(np.ones(3)), Tensor(np.zeros(3)), Tensor(np.zeros(3), requires_grad=True)
        weights = [Tensor(rng.standard_normal(shape)) for shape in [(3, 2), (2,), (3, 2), (2,)]]
        mu, log_sigma = ag.pool_gaussian(x, one, zero, q, wk, wv, zero, wo, bo, *weights, 1, -50.0, 50.0)
        ag.backward(inner(mu, Tensor(np.ones(2))))
        first = bo.grad.copy()
        assert np.allclose(first, weights[0].data.sum(axis=1))
        ag.backward(inner(log_sigma, Tensor(np.ones(2))))
        assert np.allclose(bo.grad, first + weights[2].data.sum(axis=1))


class TestNumericsPolicy:
    @pytest.mark.parametrize("noise", [1.0, 0.0], ids=["inf", "nan"])
    def test_gaussian_sample_overflow_raises(self, noise):
        """exp(1000) overflows: times noise 1 the draw is inf, times noise 0 it is NaN."""
        with pytest.raises(ag.NumericsError, match="^gaussian_sample produced non-finite values$"):
            ag.gaussian_sample(Tensor(np.zeros(2)), Tensor(np.array([0.5, 1000.0])), np.full(2, noise))

    def test_a_product_overflow_raises(self):
        """The bias alone overflows a finite product, and the error names the product it happened in."""
        huge = np.finfo(np.float32).max
        # One row pools to its layer norm, about [1.22, 0, -1.22], through identity pooling products.
        x = Tensor(np.array([[1.0, 0.0, -1.0]], dtype=np.float32))
        eye, pool_zero = Tensor(np.eye(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32))
        pool = (Tensor(np.ones(3, dtype=np.float32)), pool_zero, pool_zero, eye, eye, pool_zero, eye, pool_zero)
        w, b = Tensor(np.eye(3, 2, dtype=np.float32) * (huge / 2)), Tensor(np.full(2, huge, dtype=np.float32))
        zero = Tensor(np.zeros(2, dtype=np.float32))
        with pytest.raises(ag.NumericsError, match="^pool_gaussian: linear mu produced non-finite values$"):
            ag.pool_gaussian(x, *pool, w, b, w, zero, 1, -1.0, 1.0)
        with pytest.raises(ag.NumericsError, match="^pool_gaussian: linear ls produced non-finite values$"):
            ag.pool_gaussian(x, *pool, w, zero, w, b, 1, -1.0, 1.0)

    def test_attention_overflow_raises(self):
        rows = Tensor(np.array([[1.0, -1.0, 2.0, -2.0], [0.5, 0.0, -0.5, 3.0], [2.0, 1.0, 0.0, -3.0]], dtype=np.float32))
        eye, zero = Tensor(np.eye(4, dtype=np.float32)), Tensor(np.zeros(4, dtype=np.float32))
        query = Tensor(np.full(4, 3e38, dtype=np.float32))
        head = (Tensor(np.eye(4, 2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32))) * 2
        with pytest.raises(ag.NumericsError, match="^pool_gaussian: attention produced non-finite values$"):
            ag.pool_gaussian(rows, Tensor(np.ones(4, dtype=np.float32)), zero, query, eye, eye, zero, eye, zero, *head,
                             n_heads=2, lo=-1.0, hi=1.0)


class TestGradCheck:
    def test_square_function(self):
        params = ParameterSet([("x", np.array([1.0]))])
        report = ag.grad_check(lambda: inner(params["x"], params["x"]), params, eps=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_clears_requires_grad_and_keeps_gradients(self):
        params = ParameterSet([("x", np.array([1.0, -2.0]))])
        ag.grad_check(lambda: inner(params["x"], params["x"]), params)
        assert not params["x"].requires_grad
        assert np.allclose(params["x"].grad, [2.0, -4.0])

    def test_linear_is_nearly_exact(self):
        params = ParameterSet([("x", np.array([0.3, -1.2, 4.0]))])
        w = Tensor(np.array([2.0, -1.0, 0.5]), dtype=np.float64)
        report = ag.grad_check(lambda: inner(params["x"], w), params)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_detects_nondeterminism(self):
        params = ParameterSet([("x", np.array([1.0]))])
        counter = {"n": 0}

        def noisy():
            counter["n"] += 1
            return ag.elbo_loss(None, params["x"], 1.0 + counter["n"] * 1e-9, 1)

        report = ag.grad_check(noisy, params)
        assert not report.deterministic
        assert not report.passed

    def test_eps_bounds_enforced(self):
        params = ParameterSet([("x", np.array([1.0]))])
        with pytest.raises(ValueError):
            ag.grad_check(lambda: inner(params["x"], params["x"]), params, eps=1e-2)

    def test_rejects_float32(self):
        params = ParameterSet([("x", np.array([1.0], dtype=np.float32))])
        with pytest.raises(ValueError, match="float64"):
            ag.grad_check(lambda: inner(params["x"], params["x"]), params)


@pytest.mark.parametrize("name", list(GRADIENT_CASES))
def test_every_self_test_gradient_case_passes_at_ten_seeds(name):
    """The self-test's check of an op passes at its own seed, the crc32 of its name, and at nine more seeds
    derived from the name, so it passes on its inputs' conditioning, not on the draw it happens to get."""
    for k in range(10):
        seed = zlib.crc32((f"{name} {k}" if k else name).encode())
        report = gradient_case_report(name, seed)
        assert report.passed, f"{name} at {seed}: max rel err {report.max_rel_error:.2e} at {report.worst_parameter}"


@pytest.mark.parametrize("name", list(GRADIENT_CASES))
def test_a_case_fails_when_the_backward_of_its_op_is_off(name, monkeypatch):
    """A case checks the op that its name starts with: scaling the gradients that op's backward receives by 1.001
    fails the case at its own seed."""
    op = max((op for op in tape_ops() if name == op or name.startswith(op + "_")), key=len)
    make = ag._make

    def scaled(backward):
        return lambda g: backward([None if x is None else x * 1.001 for x in g] if isinstance(g, list) else g * 1.001)

    def off(data, kind, parents, backward, *rest):
        return make(data, kind, parents, scaled(backward) if kind == op else backward, *rest)

    monkeypatch.setattr(ag, "_make", off)
    report = gradient_case_report(name, zlib.crc32(name.encode()))
    assert not report.passed and report.max_rel_error > 5e-4, (op, report.max_rel_error)


def test_the_self_test_runs_each_case_once_at_the_crc32_of_its_name(monkeypatch):
    seen, lines = [], []

    def recording(name, seed):
        seen.append((name, seed))
        return ag.GradCheckReport(0.0, name, True, 1e-4)

    monkeypatch.setattr(selfcheck, "gradient_case_report", recording)
    assert selfcheck._check_op_gradients(lines.append)
    assert seen == [(name, zlib.crc32(name.encode())) for name in GRADIENT_CASES]
    assert lines == [f"ok gradient {name} (max rel err 0.00e+00)" for name in GRADIENT_CASES]


def test_the_injection_fold_of_one_latent_draws_the_first_noise_row():
    """Resizing the noise to a batch leaves one latent's draw as the first row of the first four columns."""
    rng = np.random.default_rng(8)
    shapes, _ = GRADIENT_CASES["inject"]
    z, input_w, psa_w, softmax_w, *psa_kv = [Tensor(rng.standard_normal(shape) * 0.5) for shape in shapes]
    row, bias, ((k0, v0), (k1, v1)) = ag.inject(z, input_w, psa_w, softmax_w, [psa_kv[:4], psa_kv[4:]])
    noise = selfcheck._NOISE[:1, :4]
    want = ag.gaussian_kl(ag.gaussian_sample(row, bias, noise), k0, v0, ag.gaussian_sample(k1, v1, noise))
    assert np.array_equal(selfcheck._injection(z, input_w, psa_w, softmax_w, *psa_kv).data, want.data)


def tape_ops() -> set[str]:
    """The public autograd functions that record a node via ``_make``."""
    tree = ast.parse(Path(ag.__file__).read_text(encoding="utf-8"))
    return {top.name for top in tree.body if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
            and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_make"
                    for n in ast.walk(top))}


def test_the_cases_cover_every_tape_op(monkeypatch):
    """Every op that records a node is among the op kinds that the self-test's gradient cases record."""
    made, make = set(), ag._make

    def recording(data, op, *rest):
        made.add(op)
        return make(data, op, *rest)

    monkeypatch.setattr(ag, "_make", recording)
    rng = np.random.default_rng(3)
    for shapes, op in GRADIENT_CASES.values():
        op(*[Tensor(rng.standard_normal(shape) * 0.5) for shape in shapes])
    assert tape_ops() <= made


def test_parameter_set_contracts():
    with pytest.raises(ValueError, match="duplicate"):
        ParameterSet([("a", np.zeros(3)), ("a", np.zeros(2))])
    with pytest.raises(ValueError, match="one dtype"):
        ParameterSet([("a", np.zeros(2)), ("b", np.zeros(2, dtype=np.float32))])
    with pytest.raises(ValueError, match="float32 or float64"):
        ParameterSet([("a", np.zeros(2, dtype=np.float16))])


def test_flat_buffer_is_zero_filled_and_writable():
    buf = ag.flat_buffer(5, np.float32)
    assert buf.dtype == np.float32 and np.array_equal(buf, np.zeros(5))
    buf[2:4] = 7.0
    assert buf.reshape(5)[3] == 7.0
    assert ag.flat_buffer(0, np.float64).shape == (0,)


def test_parameter_set_lays_every_tensor_out_once():
    params = ParameterSet([("a", np.array([1.0, 2.0])), ("b", np.arange(6.0).reshape(2, 3))])
    a, b = params["a"], params["b"]
    assert a.data.base is b.data.base is params.data_buffer
    assert not a.requires_grad and not b.requires_grad
    assert np.array_equal(params.data_buffer, [1.0, 2.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert (params.span("a"), params.span("b")) == ((0, 2), (2, 8))
    assert params.grad_buffer is None  # until the set tracks gradients
    params.track_gradients()
    b.requires_grad = True
    ag.backward(inner(b, b))
    assert b.grad.base is params.grad_buffer and np.array_equal(b.grad, 2.0 * b.data)


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
    ops = tape_ops()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    counts = [int(n) for n in re.findall(r"The\s+package\s+has\s+(\d+)\s+public\s+tape\s+ops", readme)]
    assert counts == [len(ops)], sorted(ops)
