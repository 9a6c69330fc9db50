import math

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae import latent as lt
from storyvae.autograd import ParameterSet, Tensor
from storyvae.selfcheck import inner, kl_monte_carlo


def make_gaussian(mu, log_sigma, dtype=np.float64):
    return lt.DiagonalGaussian(Tensor(np.asarray(mu, dtype=dtype)), Tensor(np.asarray(log_sigma, dtype=dtype)))


def gaussian(rows, mu_w, mu_b, ls_w, ls_b) -> lt.DiagonalGaussian:
    """``ag.pool_gaussian`` of (T, 6) rows or a (B, T, 6) batch, through a plain pooling block, at the model's clamp."""
    eye, zero = Tensor(np.eye(6)), Tensor(np.zeros(6))
    pool = (Tensor(np.ones(6)), zero, Tensor(np.ones(6)), eye, eye, zero, eye, zero)
    return lt.DiagonalGaussian(*ag.pool_gaussian(Tensor(rows), *pool, mu_w, mu_b, ls_w, ls_b, 2, lt.LOG_SIGMA_MIN,
                                                 lt.LOG_SIGMA_MAX))


class TestGaussianHead:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.mu_w = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        self.mu_b = Tensor(np.zeros(4), requires_grad=True)
        self.ls_w = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        self.ls_b = Tensor(np.zeros(4), requires_grad=True)

    def test_zero_input_zero_heads_is_standard_normal(self):
        zero = Tensor(np.zeros((6, 4)))
        zero_b = Tensor(np.zeros(4))
        g = gaussian(np.zeros((1, 6)), zero, zero_b, zero, zero_b)
        assert np.array_equal(g.mu.data, np.zeros(4))
        assert np.array_equal(g.log_sigma.data, np.zeros(4))

    def test_output_width(self):
        """One (T, d) sequence gives a (d',) Gaussian, and a (B, T, d) batch a (B, d') one."""
        g = gaussian(np.ones((1, 6)), self.mu_w, self.mu_b, self.ls_w, self.ls_b)
        assert g.mu.shape == g.log_sigma.shape == (4,)
        g = gaussian(np.ones((3, 5, 6)), self.mu_w, self.mu_b, self.ls_w, self.ls_b)
        assert g.mu.shape == g.log_sigma.shape == (3, 4)

    def test_log_sigma_clamped(self):
        big_b = Tensor(np.full(4, 10.0))
        g = gaussian(np.zeros((1, 6)), self.mu_w, self.mu_b, Tensor(np.zeros((6, 4))), big_b)
        assert np.array_equal(g.log_sigma.data, np.full(4, 2.0))
        low_b = Tensor(np.full(4, -50.0))
        g = gaussian(np.zeros((1, 6)), self.mu_w, self.mu_b, Tensor(np.zeros((6, 4))), low_b)
        assert np.array_equal(g.log_sigma.data, np.full(4, -20.0))


class TestReparameterize:
    def test_zero_noise_gives_mean(self):
        g = make_gaussian([1.0, -2.0, 0.5], [0.3, -0.7, 0.0])
        code = lt.reparameterize(g, np.zeros(3), lt.LatentSource.POSTERIOR_SAMPLE)
        assert np.allclose(code.z.data, g.mu.data)
        assert code.source is lt.LatentSource.POSTERIOR_SAMPLE

    def test_unit_case(self):
        g = make_gaussian([0.0, 0.0], [0.0, 0.0])
        code = lt.reparameterize(g, np.array([1.0, 0.0]), lt.LatentSource.PRIOR_SAMPLE)
        assert np.allclose(code.z.data, [1.0, 0.0])

    def test_monte_carlo_mean(self):
        g = make_gaussian([0.7, -1.3], [0.2, -0.4])
        rng = np.random.default_rng(1)
        n = 1_000_000
        noise = rng.standard_normal((n, 2))
        draws = g.mu.data + np.exp(g.log_sigma.data) * noise
        se = np.exp(g.log_sigma.data) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - g.mu.data) < 4 * se)

    def test_affine_in_noise(self):
        g = make_gaussian([0.3, 0.9, -0.2], [0.5, -0.1, 0.2])
        rng = np.random.default_rng(2)
        eps = rng.standard_normal(3)
        for alpha in (0.0, 0.5, 2.0, -1.5):
            z1 = lt.reparameterize(g, eps, lt.LatentSource.PRIOR_SAMPLE).z.data
            z2 = lt.reparameterize(g, alpha * eps, lt.LatentSource.PRIOR_SAMPLE).z.data
            assert np.allclose(z2 - g.mu.data, alpha * (z1 - g.mu.data), atol=1e-9)

    def test_gradient_flows_to_both_vectors(self):
        params = ParameterSet([("mu", np.array([0.4, -0.2])), ("ls", np.array([0.1, 0.3]))])
        noise = np.array([0.7, -1.1])

        def fn():
            g = lt.DiagonalGaussian(params["mu"], params["ls"])
            z = lt.reparameterize(g, noise, lt.LatentSource.POSTERIOR_SAMPLE).z
            return inner(z, z)

        report = ag.grad_check(fn, params)
        assert report.passed, report.max_rel_error

    def test_shape_mismatch_rejected(self):
        g = make_gaussian([0.0], [0.0])
        with pytest.raises(ag.ShapeError):
            lt.reparameterize(g, np.zeros(3), lt.LatentSource.PRIOR_SAMPLE)


class TestKLDivergence:
    def test_identical_is_zero(self):
        g = make_gaussian([0.3, -1.0, 2.0], [0.5, 0.0, -0.2])
        h = make_gaussian([0.3, -1.0, 2.0], [0.5, 0.0, -0.2])
        assert abs(float(lt.kl_divergence(g, h).data)) < 1e-12

    def test_unit_shift_half_nat(self):
        q = make_gaussian([1.0], [0.0])
        p = make_gaussian([0.0], [0.0])
        assert abs(float(lt.kl_divergence(q, p).data) - 0.5) < 1e-6

    def test_variance_e_case(self):
        q = make_gaussian([0.0], [0.5])  # sigma^2 = e
        p = make_gaussian([0.0], [0.0])
        expected = (math.e - 2.0) / 2.0
        assert abs(float(lt.kl_divergence(q, p).data) - expected) < 1e-6

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = make_gaussian(rng.standard_normal(5), rng.standard_normal(5) * 0.5)
            p = make_gaussian(rng.standard_normal(5), rng.standard_normal(5) * 0.5)
            kl = float(lt.kl_divergence(q, p).data)
            assert kl >= 0.0
            same = np.allclose(q.mu.data, p.mu.data, atol=1e-9) and np.allclose(
                q.log_sigma.data, p.log_sigma.data, atol=1e-9
            )
            assert (kl <= 1e-9) == same

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            mu_q, mu_p = rng.standard_normal(3), rng.standard_normal(3)
            ls_q, ls_p = rng.standard_normal(3) * 0.4, rng.standard_normal(3) * 0.4
            analytic = float(lt.kl_divergence(make_gaussian(mu_q, ls_q), make_gaussian(mu_p, ls_p)).data)
            estimate, stderr = kl_monte_carlo(mu_q, ls_q, mu_p, ls_p, 1_000_000, rng)
            assert abs(analytic - estimate) < 3 * stderr

    def test_gradients_pass(self):
        rng = np.random.default_rng(5)
        params = ParameterSet([(name, rng.standard_normal(4) * 0.5) for name in ("mu_q", "ls_q", "mu_p", "ls_p")])

        def fn():
            q = lt.DiagonalGaussian(params["mu_q"], params["ls_q"])
            p = lt.DiagonalGaussian(params["mu_p"], params["ls_p"])
            return lt.kl_divergence(q, p)

        report = ag.grad_check(fn, params)
        assert report.passed, report.max_rel_error

    def test_width_mismatch_rejected(self):
        with pytest.raises(ag.ShapeError):
            lt.kl_divergence(make_gaussian([0.0], [0.0]), make_gaussian([0.0, 0.0], [0.0, 0.0]))


def test_latent_code_rejects_non_finite():
    with pytest.raises(ag.NumericsError):
        lt.LatentCode(Tensor(np.array([np.nan, 1.0])), lt.LatentSource.EXTERNAL)


def test_external_code_keeps_values():
    code = lt.LatentCode.external([1.0, 2.0, 3.0])
    assert code.source is lt.LatentSource.EXTERNAL
    assert code.width == 3
