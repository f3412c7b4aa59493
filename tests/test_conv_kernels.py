"""Serial conv kernels against the fancy-index / ``np.add.at`` oracle.

``im2col``/``col2im`` build patch columns with one strided slice per kernel
offset.  The oracle (``conv_oracle``) is the formulation they replaced: one
fancy-index gather over ``(k, i, j)`` index arrays, and an ``np.add.at``
scatter over the same indices.  Every golden run in the suite was pinned
with the oracle's arithmetic, so the new kernels must agree with it
*bitwise* (same bytes, signed zeros included) on every geometry: stride
above one, padding, non-square inputs and kernels, and overlapping
windows, where the scatter's accumulation order decides the rounding.

The second half pins ``Sequential.backward(need_input_grad=False)``: it
returns None and leaves every parameter gradient bitwise what the full
backward computes.
"""

from __future__ import annotations

import numpy as np
import pytest

from conv_oracle import oracle_col2im, oracle_im2col
from repro.nn import lenet5, resnet9, vgg_mini
from repro.nn.conv_utils import col2im, conv_output_size, im2col
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential


def _assert_bitwise(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    np.testing.assert_array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()


#: (N, C, H, W, field_h, field_w, stride, pad)
GEOMETRIES = [
    (3, 2, 6, 6, 3, 3, 1, 0),    # overlapping, no pad
    (3, 2, 6, 6, 3, 3, 1, 1),    # overlapping, padded
    (2, 3, 7, 5, 3, 3, 2, 1),    # stride 2 < field 3, non-square input
    (2, 2, 9, 7, 5, 3, 2, 2),    # non-square kernel, stride 2, pad 2
    (4, 1, 8, 8, 2, 2, 2, 0),    # disjoint pooling windows
    (3, 2, 7, 7, 2, 2, 3, 0),    # stride > field: cells no window touches
    (10, 3, 8, 8, 5, 5, 1, 2),   # LeNet-5 conv1 at bench scale
    (1, 4, 4, 4, 5, 5, 1, 2),    # field larger than the input
    (2, 2, 5, 9, 1, 1, 1, 0),    # 1x1 kernel
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("geom", GEOMETRIES, ids=lambda g: "x".join(map(str, g)))
class TestSerialKernelsMatchOracle:
    def test_im2col_bitwise(self, geom, dtype):
        n, c, h, w, fh, fw, s, p = geom
        x = np.random.default_rng(0).standard_normal((n, c, h, w)).astype(dtype)
        _assert_bitwise(im2col(x, fh, fw, s, p), oracle_im2col(x, fh, fw, s, p))

    def test_col2im_bitwise(self, geom, dtype):
        n, c, h, w, fh, fw, s, p = geom
        rows = c * fh * fw
        cols = conv_output_size(h, fh, s, p) * conv_output_size(w, fw, s, p) * n
        rng = np.random.default_rng(1)
        dcols = rng.standard_normal((rows, cols)).astype(dtype)
        dcols[rng.random(dcols.shape) < 0.2] = -0.0  # signed zeros survive
        _assert_bitwise(
            col2im(dcols, (n, c, h, w), fh, fw, s, p),
            oracle_col2im(dcols, (n, c, h, w), fh, fw, s, p),
        )


def _dense_first_mlp():
    rng = np.random.default_rng(0)
    return Sequential(
        Dense(12, 8, rng, name="fc1"),
        ReLU(),
        Dense(8, 5, rng, name="head", classifier_head=True),
    )


MODELS = {
    "lenet5": (lambda: lenet5(5, input_shape=(3, 8, 8), width=0.5), (4, 3, 8, 8)),
    "vgg_mini": (lambda: vgg_mini(5, input_shape=(3, 8, 8)), (4, 3, 8, 8)),
    "resnet9": (lambda: resnet9(5, input_shape=(3, 8, 8)), (4, 3, 8, 8)),
    "dense_first_mlp": (_dense_first_mlp, (4, 12)),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_backward_without_input_grad_keeps_param_grads_bitwise(name):
    factory, x_shape = MODELS[name]
    model = factory()
    rng = np.random.default_rng(2)
    x = rng.standard_normal(x_shape).astype(np.float32)
    dout = rng.standard_normal((x_shape[0], 5)).astype(np.float32)

    model.zero_grad()
    model.forward(x, train=True)
    dx = model.backward(dout)
    assert dx is not None and dx.shape == x.shape
    full = [p.grad.copy() for p in model.parameters()]

    model.zero_grad()
    model.forward(x, train=True)
    assert model.backward(dout, need_input_grad=False) is None
    for p, g in zip(model.parameters(), full):
        assert p.grad.tobytes() == g.tobytes(), p.name
