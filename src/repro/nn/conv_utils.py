"""Strided-slice im2col / col2im kernels for convolution and pooling.

A convolution is one GEMM against patch columns.  Both the serial
:func:`im2col`/:func:`col2im` pair and the cohort-batched
:class:`CohortConvWorkspace` build those columns with the same loop,
:func:`_kernel_windows`: one strided slice per kernel offset ``(fi, fj)``,
copied into the columns (gather) or added back into the input gradient
(scatter).  That is ``fh*fw`` vectorized slice operations per call, with
no Python loop over the batch or spatial dimensions and no index arrays.

The scatter visits kernel offsets in ``(fi, fj)``-major order, the order
in which ``np.add.at`` over the ``(channel, fi, fj)`` patch axis would
accumulate overlapping windows, so its result is bitwise that scatter's.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "CohortConvWorkspace",
]


def conv_output_size(size: int, field: int, stride: int, pad: int) -> int:
    """Spatial output size of a conv/pool along one dimension."""
    out = (size + 2 * pad - field) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size: input={size}, field={field}, "
            f"stride={stride}, pad={pad}"
        )
    return out


def _kernel_windows(
    field_h: int, field_w: int, stride: int, out_h: int, out_w: int
) -> Iterator[tuple[int, int, slice, slice]]:
    """The strided window of every kernel offset, in ``(fi, fj)``-major order.

    Yields ``(fi, fj, rows, cols)``: indexing a padded input's spatial axes
    with ``[rows, cols]`` selects the ``(out_h, out_w)`` input cells that
    kernel offset ``(fi, fj)`` touches across all output positions.
    """
    for fi in range(field_h):
        rows = slice(fi, fi + stride * out_h, stride)
        for fj in range(field_w):
            yield fi, fj, rows, slice(fj, fj + stride * out_w, stride)


def im2col(x: np.ndarray, field_h: int, field_w: int, stride: int, pad: int) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into patch columns ``(C*fh*fw, out_h*out_w*N)``.

    Rows are channel-major then ``(fi, fj)`` row-major; columns run over
    ``(out_h, out_w, N)`` with the sample index fastest.
    """
    if x.ndim != 4:
        raise ValueError(f"im2col expects NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    p = pad
    oh = conv_output_size(h, field_h, stride, p)
    ow = conv_output_size(w, field_w, stride, p)
    # Stage the input sample-last, (C, H+2p, W+2p, N), so every window
    # copy below moves unit-stride runs of N values.
    if p > 0:
        xt = np.zeros((c, h + 2 * p, w + 2 * p, n), dtype=x.dtype)
        xt[:, p : p + h, p : p + w] = x.transpose(1, 2, 3, 0)
    else:
        xt = x.transpose(1, 2, 3, 0)
    cols = np.empty((c, field_h, field_w, oh, ow, n), dtype=x.dtype)
    for fi, fj, rows, cs in _kernel_windows(field_h, field_w, stride, oh, ow):
        cols[:, fi, fj] = xt[:, rows, cs]
    return cols.reshape(c * field_h * field_w, oh * ow * n)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    field_h: int,
    field_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold patch columns back into an ``(N, C, H, W)`` gradient (adjoint of
    :func:`im2col`); overlapping windows accumulate."""
    n, c, h, w = x_shape
    p = pad
    oh = conv_output_size(h, field_h, stride, p)
    ow = conv_output_size(w, field_w, stride, p)
    d6 = cols.reshape(c, field_h, field_w, oh, ow, n)
    buf = np.zeros((c, h + 2 * p, w + 2 * p, n), dtype=cols.dtype)
    for fi, fj, rows, cs in _kernel_windows(field_h, field_w, stride, oh, ow):
        buf[:, rows, cs] += d6[:, fi, fj]
    return np.ascontiguousarray(buf[:, p : p + h, p : p + w].transpose(3, 0, 1, 2))


class CohortConvWorkspace:
    """Pre-allocated im2col/col2im scratch for cohort-batched convolution.

    One workspace serves one ``(cohort, batch, channels, H, W)`` input shape
    (and dtype); :class:`~repro.nn.layers.Conv2d` keeps a small per-layer
    cache of them so training reuses the same buffers every step instead of
    reallocating per call.  The cohort axis ``C`` is the number of stacked
    client models; each member sees its own batch of ``N`` samples.

    Layout: :meth:`gather` produces ``(C, ch*fh*fw, N*L)`` patch columns
    (``L = out_h*out_w``) so a single batched GEMM against the stacked
    ``(C, out_ch, ch*fh*fw)`` kernel computes every member's convolution;
    :meth:`scatter` is its adjoint.
    """

    def __init__(
        self,
        shape: tuple[int, int, int, int, int],
        dtype,
        field_h: int,
        field_w: int,
        stride: int,
        pad: int,
    ):
        c, n, ch, h, w = shape
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.pad = int(pad)
        self.stride = int(stride)
        self.field = (int(field_h), int(field_w))
        self.out_h = conv_output_size(h, field_h, stride, pad)
        self.out_w = conv_output_size(w, field_w, stride, pad)
        hp, wp = h + 2 * pad, w + 2 * pad
        self.patch_len = ch * field_h * field_w
        self.out_len = self.out_h * self.out_w
        #: zero-padded input staging buffer (None when pad == 0: the raw
        #: input is sliced directly, no copy)
        self._pad_buf = (
            np.zeros((c, n, ch, hp, wp), dtype=self.dtype) if pad > 0 else None
        )
        #: GEMM-ready columns (C, ckk, N, L); viewed as (C, ckk, N*L)
        self._cols = np.empty((c, self.patch_len, n, self.out_len), dtype=self.dtype)
        #: backward scatter target (C, N, ch, H+2p, W+2p)
        self._dx_pad = np.empty((c, n, ch, hp, wp), dtype=self.dtype)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Unfold ``(C, N, ch, H, W)`` input into ``(C, ckk, N*L)`` columns.

        Writes exclusively into the workspace's pre-allocated buffers; the
        returned array is a reshaped view of the internal columns buffer
        (valid until the next ``gather`` on this workspace).
        """
        c, n, ch, h, w = self.shape
        p = self.pad
        if p > 0:
            self._pad_buf[:, :, :, p:-p, p:-p] = x
            xp = self._pad_buf
        else:
            xp = x
        c7 = self._cols.reshape(c, ch, *self.field, n, self.out_h, self.out_w)
        for fi, fj, rows, cs in _kernel_windows(
            *self.field, self.stride, self.out_h, self.out_w
        ):
            c7[:, :, fi, fj] = xp[..., rows, cs].transpose(0, 2, 1, 3, 4)
        return self._cols.reshape(c, self.patch_len, n * self.out_len)

    def scatter(self, dcols: np.ndarray) -> np.ndarray:
        """Fold ``(C, ckk, N*L)`` column gradients back to ``(C, N, ch, H, W)``.

        The adjoint of :meth:`gather` (scatter-add over overlapping
        patches).  Returns a freshly-allocated gradient array (it flows on
        through the backward chain and must outlive the workspace reuse).
        """
        c, n, ch, h, w = self.shape
        p = self.pad
        buf = self._dx_pad
        buf.fill(0.0)
        # (C, ckk, N*L) -> (C, N, ch, fh, fw, oh, ow) in one contiguous copy
        # up front, so the per-offset adds below read unit-stride sources.
        d7 = np.ascontiguousarray(
            dcols.reshape(c, ch, *self.field, n, self.out_h, self.out_w)
            .transpose(0, 4, 1, 2, 3, 5, 6)
        )
        for fi, fj, rows, cs in _kernel_windows(
            *self.field, self.stride, self.out_h, self.out_w
        ):
            buf[..., rows, cs] += d7[:, :, :, fi, fj]
        if p == 0:
            return buf.copy()
        return buf[:, :, :, p:-p, p:-p].copy()
