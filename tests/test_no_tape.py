"""An op off the tape inside a sink pass skips its bookkeeping, and nothing else changes.

Inside a sink pass (``ag.sink_pass``) no op's output is checked, so an op
none of whose inputs requires grad builds no backward closure, stage
tuples or parent tuple and returns through ``_make(data, op, (), None)``.
Every case of ``selfcheck.GRADIENT_CASES`` runs here with no input on the
tape and with each input on it alone, outside and inside a pass: the
output bytes and the ``_make`` calls it records must not move.  The
checks an op makes inside itself build their stages only when they fail,
and still name the step the per-node checks name.
"""

import zlib

import numpy as np
import pytest

from storyvae import autograd as ag
from storyvae.autograd import Tensor
from storyvae.selfcheck import GRADIENT_CASES


def recorded(monkeypatch, run):
    """``run()``'s output, and the op name of each ``_make`` call it made, in order."""
    made, make = [], ag._make

    def counting(data, op, *rest):
        made.append(op)
        return make(data, op, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(ag, "_make", counting)
        out = run()
    return out, made


@pytest.mark.parametrize("name", GRADIENT_CASES)
def test_every_op_gives_the_same_bytes_and_nodes_on_and_off_the_tape(monkeypatch, name):
    shapes, op = GRADIENT_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    inputs = [Tensor(rng.standard_normal(shape) * 0.5) for shape in shapes]
    want, want_made = recorded(monkeypatch, lambda: op(*inputs))
    assert not want.requires_grad and want_made
    for taped in [None, *range(len(inputs))]:
        for t in inputs:
            t.requires_grad = False
        if taped is not None:
            inputs[taped].requires_grad = True
        for how in ("outside", "inside"):
            run = (lambda: op(*inputs)) if how == "outside" else ag.sink_pass(lambda: op(*inputs))
            out, made = recorded(monkeypatch, run)
            assert out.data.dtype == want.data.dtype and out.data.tobytes() == want.data.tobytes(), (taped, how)
            assert made == want_made, (taped, how)
            assert out.requires_grad == (taped is not None), (taped, how)
    assert ag._node_checks


def pool_inputs(rng):
    """A (6, 8) sequence and the pooling's tensors at d = 8, two heads and d' = 3, all off the tape."""
    shapes = [(6, 8), (8,), (8,), (8,), (8, 8), (8, 8), (8,), (8, 8), (8,), (8, 3), (3,), (8, 3), (3,)]
    return [Tensor((rng.standard_normal(shape) * 0.5).astype(np.float32)) for shape in shapes]


# Each plant, by the index of the tensor in ``pool_inputs``, and the step of the chain that the per-node checks name.
POOL_PLANTS = [
    ({3: 1e20, 4: 1e20}, "attention"),  # a query and keys whose product overflows float32
    ({8: np.inf}, "linear wo"),
    ({7: 0.0, 8: 1e30, 9: 1e10}, "linear mu"),
    ({7: 0.0, 8: 1e30, 11: 1e10}, "linear ls"),
    ({7: 0.0, 8: 1e30, 9: 1e10, 11: 1e10}, "linear mu"),
]


@pytest.mark.parametrize("plant, step", POOL_PLANTS)
def test_pool_gaussian_names_its_failing_step_inside_a_pass_too(plant, step):
    inputs = pool_inputs(np.random.default_rng(9))
    for i, value in plant.items():
        inputs[i].data[...] = value
    want = f"^pool_gaussian: {step} produced non-finite values$"
    with np.errstate(all="ignore"):
        with pytest.raises(ag.NumericsError, match=want):
            ag.pool_gaussian(*inputs, 2, -5.0, 2.0)
        with pytest.raises(ag.NumericsError, match=want):
            ag.sink_pass(lambda: ag.pool_gaussian(*inputs, 2, -5.0, 2.0))()
    assert ag._node_checks
