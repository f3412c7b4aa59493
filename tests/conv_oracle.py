"""The fancy-index / ``np.add.at`` im2col and col2im: the test oracle.

This is the textbook formulation the library's strided-slice kernels
replaced: build ``(k, i, j)`` index arrays addressing every patch element
of a padded ``(N, C, H+2p, W+2p)`` input, gather with one fancy index, and
scatter gradients back with ``np.add.at``.  Slow, but obviously correct,
and every pinned golden run was produced with its arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.nn.conv_utils import conv_output_size

__all__ = ["oracle_col2im", "oracle_im2col"]


def _oracle_indices(x_shape, field_h, field_w, stride, pad):
    _, c, h, w = x_shape
    out_h = conv_output_size(h, field_h, stride, pad)
    out_w = conv_output_size(w, field_w, stride, pad)
    i0 = np.tile(np.repeat(np.arange(field_h), field_w), c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(field_w), field_h * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), field_h * field_w).reshape(-1, 1)
    return k, i, j


def oracle_im2col(x, field_h, field_w, stride, pad):
    p = pad
    x_pad = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="constant")
    k, i, j = _oracle_indices(x.shape, field_h, field_w, stride, pad)
    cols = x_pad[:, k, i, j]  # (N, C*fh*fw, L)
    return cols.transpose(1, 2, 0).reshape(field_h * field_w * x.shape[1], -1)


def oracle_col2im(cols, x_shape, field_h, field_w, stride, pad):
    n, c, h, w = x_shape
    p = pad
    x_pad = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=cols.dtype)
    k, i, j = _oracle_indices(x_shape, field_h, field_w, stride, pad)
    cols_reshaped = cols.reshape(c * field_h * field_w, -1, n).transpose(2, 0, 1)
    np.add.at(x_pad, (slice(None), k, i, j), cols_reshaped)
    return x_pad[:, :, p : p + h, p : p + w]
