"""Diagonal-Gaussian latent machinery.

The prior and posterior are isotropic Gaussians N(mu, sigma^2 I) whose
mean and log-sigma come from separate linear heads over the shared
pooled encoder vector; ``ag.pool_gaussian`` pools the encoder's rows and
applies a role's heads as one node of two outputs.  log-sigma is clamped
to [LOG_SIGMA_MIN, LOG_SIGMA_MAX] after the head, so an unlucky init or
a large pooled activation cannot blow up the KL term early in training.
KL between two diagonal Gaussians is analytic and stays on the tape, so
it can be trained directly; so does a sample, mu + sigma * eps, as one
``ag.gaussian_sample`` node.  Gaussians and
latent codes hold one (d',) vector, or a (B, d') batch with one row per
sequence of an equal-length batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autograd as ag
from .autograd import Tensor

LOG_SIGMA_MIN = -20.0
LOG_SIGMA_MAX = 2.0


class LatentSource(str, Enum):
    PRIOR_SAMPLE = "prior-sample"
    POSTERIOR_SAMPLE = "posterior-sample"
    PRIOR_MEAN = "prior-mean"
    POSTERIOR_MEAN = "posterior-mean"
    EXTERNAL = "external"


@dataclass
class DiagonalGaussian:
    """Mean and log-sigma of width d', one (d',) vector each or a (B, d') batch, both on the tape."""

    mu: Tensor
    log_sigma: Tensor

    def __post_init__(self):
        if self.mu.shape != self.log_sigma.shape or self.mu.data.ndim not in (1, 2):
            raise ag.ShapeError(
                f"gaussian needs matching vectors, got {self.mu.shape} and {self.log_sigma.shape}"
            )

    @property
    def width(self) -> int:
        return self.mu.shape[-1]

    @classmethod
    def standard(cls, shape, dtype=np.float32) -> "DiagonalGaussian":
        """N(0, I) of width ``shape``, or of a (B, width) ``shape`` batch."""
        return cls(Tensor(np.zeros(shape, dtype=dtype)), Tensor(np.zeros(shape, dtype=dtype)))


@dataclass
class LatentCode:
    """A (d',) latent vector, or a (B, d') batch, plus where it came from."""

    z: Tensor
    source: LatentSource

    def __post_init__(self):
        if self.z.data.ndim not in (1, 2):
            raise ag.ShapeError(f"latent code must be a vector or a batch of rows, got shape {self.z.shape}")
        if not np.isfinite(self.z.data).all():
            raise ag.NumericsError("latent code has non-finite entries")

    @property
    def width(self) -> int:
        return self.z.shape[-1]

    @classmethod
    def external(cls, values, dtype=np.float32) -> "LatentCode":
        return cls(Tensor(np.asarray(values, dtype=dtype)), LatentSource.EXTERNAL)


def reparameterize(g: DiagonalGaussian, noise: np.ndarray, source: LatentSource) -> LatentCode:
    """z = mu + exp(log_sigma) * noise as one ``ag.gaussian_sample`` node, keeping gradients to both head outputs."""
    return LatentCode(ag.gaussian_sample(g.mu, g.log_sigma, np.asarray(noise, dtype=g.mu.data.dtype)), source)


def mean_code(g: DiagonalGaussian, source: LatentSource) -> LatentCode:
    return LatentCode(g.mu, source)


def kl_divergence(q: DiagonalGaussian, p: DiagonalGaussian) -> Tensor:
    """KL(q || p) in nats for diagonal Gaussians; scalar on the tape, ``ag.gaussian_kl`` summed by ``ag.elbo_loss``."""
    if q.width != p.width:
        raise ag.ShapeError(f"KL widths differ: {q.width} vs {p.width}")
    kl = ag.gaussian_kl(q.mu, q.log_sigma, p.mu, p.log_sigma)
    return ag.elbo_loss(None, kl, 1.0, 1)
