#!/usr/bin/env python3
"""Tour of the tensor core: taped ops, backward, and gradient checking."""

import numpy as np

from storyvae import autograd as ag
from storyvae.autograd import ParameterSet, Tensor

# Forward ops record a tape; backward replays it.  The objective node sums a per-coordinate
# KL-like term: here x*x, the kind of tensor gaussian_kl hands it, so d/dx = 2x.
x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
loss = ag.elbo_loss(None, ag.gaussian_kl(x, Tensor(np.zeros(3)), Tensor(np.zeros(3)), Tensor(np.zeros(3))), 2.0, 1)
ag.backward(loss)
print("d/dx sum(x*x) at [1,2,3]:", x.grad)  # [2, 4, 6]

# Products live inside the ops that need them: pool_gaussian is a layer norm, a learned query's
# attention over the rows, and a Gaussian head's two products and log-sigma clamp, as one node.
# Here each row layer-normalizes to about [-1, 1], and a zero query averages them.
rows = Tensor([[1.0, 2.0], [3.0, 4.0]])
eye, zero = Tensor(np.eye(2)), Tensor(np.zeros(2))
head = (Tensor([[1.0], [3.0]]), Tensor([0.0]))
mu, log_sigma = ag.pool_gaussian(rows, Tensor(np.ones(2)), zero, zero, eye, eye, zero, eye, zero, *head, *head,
                                 n_heads=1, lo=-1.0, hi=1.0)
print("[-1, 1] @ [[1], [3]] =", mu.data.round(3), "| clamped to [-1, 1]:", log_sigma.data)  # [2] | [1]

# Softmax, as exp(-per_position) of a cross_entropy that targets each column
# of the same logit row in turn, is shift invariant and sums to one.
rows = Tensor(np.tile([0.0, np.log(2.0)], (2, 1)))
_, per_position = ag.cross_entropy(rows, np.array([0, 1]), np.ones(2, dtype=bool))
print("softmax([0, ln 2]) =", np.exp(-per_position))  # [1/3, 2/3]

# Non-finite forward values raise instead of propagating: a latent draw mu + exp(log_sigma) * noise
# whose sigma overflows.
try:
    ag.gaussian_sample(Tensor(np.zeros(1)), Tensor(np.array([1000.0])), np.ones(1))
except ag.NumericsError as e:
    print("numerics policy:", e)

# Finite-difference verification of a composite function, float64: a transformer block's MLP
# sublayer (layer norm, product, GELU, product and the residual add, as one tape node), whose
# rows are then scored by a cross-entropy.
params = ParameterSet([("v", np.random.default_rng(1).standard_normal((3, 4)))])
rng = np.random.default_rng(2)
mlp = [Tensor(a, dtype=np.float64) for a in (np.ones(4), np.zeros(4), rng.standard_normal((4, 16)) * 0.5,
                                             np.zeros(16), rng.standard_normal((16, 4)) * 0.5, np.zeros(4))]

def fn():
    h = ag.mlp_sublayer(params["v"], *mlp)
    return ag.cross_entropy(h, np.array([0, 3, 1]), np.ones(3, dtype=bool))[0]

report = ag.grad_check(fn, params, eps=1e-5)
print(f"grad check: passed={report.passed}, max rel err={report.max_rel_error:.2e}")
