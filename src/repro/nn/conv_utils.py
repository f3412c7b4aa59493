"""Strided-slice im2col / col2im kernels for convolution and pooling.

A convolution is one GEMM against patch columns.  :class:`CohortConvWorkspace`
builds them for a stack of ``C`` models and is the only implementation:
layers keep their workspaces in a small shape-keyed cache
(:func:`cached_workspace`), and the single-model :func:`im2col`/
:func:`col2im` pair runs a one-off workspace as a cohort of one.  A
workspace makes one strided slice per kernel offset ``(fi, fj)``
(:func:`_kernel_windows`), copied into the columns (gather) or added back
into the input gradient (scatter); the slices of the workspace's own
buffers are views built once, with the buffers.  That is ``fh*fw`` vectorized slice operations per call,
with no Python loop over the batch or spatial dimensions and no index
arrays.

The input is staged sample-last, ``(C, ch, H+2p, W+2p, N)``, and the
columns run over ``(out_h, out_w, N)`` with the sample index fastest, so
every window copy moves unit-stride runs of ``N`` values and a cohort
member's GEMM reduces its columns in the same order as a lone model's.

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
    "cached_workspace",
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
    ``(out_h, out_w, N)`` with the sample index fastest.  A one-off
    :meth:`CohortConvWorkspace.gather` on a cohort of one.
    """
    if x.ndim != 4:
        raise ValueError(f"im2col expects NCHW input, got shape {x.shape}")
    ws = CohortConvWorkspace((1, *x.shape), x.dtype, field_h, field_w, stride, pad)
    return ws.gather(x[None])[0]


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
    ws = CohortConvWorkspace((1, *x_shape), cols.dtype, field_h, field_w, stride, pad)
    return ws.scatter(cols[None])[0]


def cached_workspace(
    cache: dict, shape: tuple[int, ...], dtype, field_h: int, field_w: int,
    stride: int, pad: int,
) -> "CohortConvWorkspace":
    """The workspace for ``(shape, dtype)`` from a layer's ``cache``, built on
    first use.  The cache keeps the 8 most recently built (a training loop
    sees at most two batch shapes per cohort size: full and remainder)."""
    key = (shape, dtype)
    ws = cache.get(key)
    if ws is None:
        if len(cache) >= 8:
            cache.pop(next(iter(cache)))
        ws = cache[key] = CohortConvWorkspace(
            shape, dtype, field_h, field_w, stride, pad
        )
    return ws


class CohortConvWorkspace:
    """Pre-allocated im2col/col2im scratch for cohort-batched convolution.

    One workspace serves one ``(cohort, batch, channels, H, W)`` input shape
    (and dtype); :class:`~repro.nn.layers.Conv2d` and the pooling layers
    keep a small per-layer cache of them (:func:`cached_workspace`) so
    training reuses the same buffers every step instead of reallocating
    per call.  The cohort axis ``C`` is the number of stacked
    client models; each member sees its own batch of ``N`` samples.

    Layout: :meth:`gather` produces ``(C, ch*fh*fw, L*N)`` patch columns
    (``L = out_h*out_w``, sample index fastest) so a single batched GEMM
    against the stacked ``(C, out_ch, ch*fh*fw)`` kernel computes every
    member's convolution; :meth:`scatter` is its adjoint.
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
        #: zero-padded sample-last staging buffer (C, ch, H+2p, W+2p, N),
        #: of which gather writes only the interior; None when pad == 0,
        #: where a transposed view of the input serves
        self._stage = (
            np.zeros((c, ch, hp, wp, n), dtype=self.dtype) if pad > 0 else None
        )
        #: GEMM-ready columns (C, ch, fh, fw, oh, ow, N); viewed as (C, ckk, L*N)
        self._cols = np.empty(
            (c, ch, *self.field, self.out_h, self.out_w, n), dtype=self.dtype
        )
        #: backward scatter target (C, ch, H+2p, W+2p, N)
        self._dx_pad = np.empty((c, ch, hp, wp, n), dtype=self.dtype)
        every = slice(None)
        offsets = [
            ((every, every, fi, fj), (every, every, rows, cs))
            for fi, fj, rows, cs in _kernel_windows(
                *self.field, self.stride, self.out_h, self.out_w
            )
        ]
        #: per kernel offset: (its columns slot, index of its input window)
        self._gathers = [(self._cols[slot], win) for slot, win in offsets]
        #: per kernel offset: (its window of the scatter target, slot index)
        self._scatters = [(self._dx_pad[win], slot) for slot, win in offsets]

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Unfold ``(C, N, ch, H, W)`` input into ``(C, ckk, L*N)`` columns.

        Writes exclusively into the workspace's pre-allocated buffers; the
        returned array is a reshaped view of the internal columns buffer
        (valid until the next ``gather`` on this workspace).
        """
        c, n, ch, h, w = self.shape
        p = self.pad
        xt = x.transpose(0, 2, 3, 4, 1)
        if p > 0:
            self._stage[:, :, p : p + h, p : p + w] = xt
            xt = self._stage
        for cols, win in self._gathers:
            cols[...] = xt[win]
        return self._cols.reshape(c, self.patch_len, self.out_len * n)

    def scatter(self, dcols: np.ndarray) -> np.ndarray:
        """Fold ``(C, ckk, L*N)`` column gradients back to ``(C, N, ch, H, W)``.

        The adjoint of :meth:`gather` (scatter-add over overlapping
        patches).  Returns a freshly-allocated gradient array (it flows on
        through the backward chain and must outlive the workspace reuse).
        """
        c, n, ch, h, w = self.shape
        p = self.pad
        self._dx_pad.fill(0.0)
        d7 = dcols.reshape(self._cols.shape)
        for dx, slot in self._scatters:
            dx += d7[slot]
        return (
            self._dx_pad[:, :, p : p + h, p : p + w]
            .transpose(0, 4, 1, 2, 3)
            .copy()
        )
