"""Layers of the NumPy deep-learning framework.

Every layer implements explicit backprop over a leading cohort axis ``C``
(the number of stacked client models):

* ``forward_many(x, train)`` maps ``(C, N, ...)`` to ``(C, N, ...)`` and
  caches whatever the backward pass needs;
* ``backward_many(dout)`` returns the gradient w.r.t. the input and
  *accumulates* gradients into each :class:`~repro.nn.parameter.Parameter`'s
  stacked ``grad_many``.

The single-model ``forward``/``backward`` pair is the same kernel run as a
cohort of one: a fresh parameter's ``many``/``grad_many`` are views of its
``data``/``grad``, so there is one copy of every layer's math.

All hot paths are vectorized (im2col + GEMM for convolutions, masked scatter
for max-pooling); there are no Python loops over batch or spatial dims.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn import init as _init
from repro.nn.conv_utils import (  # noqa: F401 - im2col/col2im re-exported
    CohortConvWorkspace,
    cached_workspace,
    col2im,
    im2col,
)
from repro.nn.parameter import Parameter

__all__ = [
    "Layer",
    "Dense",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "ReLU",
    "Dropout",
    "BatchNorm",
]


def _unit_forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
    """Single-model forward: the cohort kernel on a cohort of one."""
    return self.forward_many(x[None], train)[0]


def _unit_backward(self, dout: np.ndarray) -> np.ndarray:
    """Single-model backward: the cohort kernel on a cohort of one."""
    return self.backward_many(dout[None])[0]


class Layer:
    """Base class: a differentiable module with (possibly empty) parameters.

    The kernels are ``forward_many``/``backward_many`` over a leading cohort
    axis ``C``: the input is ``(C, N, ...)`` and, for parametric layers,
    each cohort slice is transformed by its own stacked parameter slice
    (``Parameter.many``; :meth:`bind_cohort` allocates a template's own).
    Parametric built-ins implement stacked einsum/GEMM kernels and run
    ``forward``/``backward`` as a cohort of one.

    Parameter-free layers keep a single-model kernel: most treat every
    leading axis as batch (``_LeadingAxes``); the rest, and third-party
    layers that implement only ``forward``/``backward``, inherit a
    ``forward_many`` that folds the cohort axis into the batch axis.  The
    fold is exact for sample-independent parameter-free layers at any
    cohort size, and for any layer on a cohort of one over its own (not
    cohort-bound) parameters.
    """

    #: True for layers whose Parameters represent a classifier head.  Used by
    #: partial-weight protocols (FedClust, LG-FedAvg) to find "final" layers.
    is_classifier_head: bool = False

    def parameters(self) -> list[Parameter]:
        return []

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable buffers (e.g. batch-norm running stats)."""
        return {}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for key, value in state.items():
            buf = self.state().get(key)
            if buf is None:
                raise KeyError(f"{type(self).__name__} has no buffer {key!r}")
            np.copyto(buf, value)

    # -- cohort-batched kernel path ---------------------------------------
    def bind_cohort(self, cohort: int) -> None:
        """Allocate stacked per-cohort parameter (and buffer) storage."""
        for p in self.parameters():
            p.bind_cohort(cohort)

    def state_many(self) -> dict[str, np.ndarray]:
        """Stacked ``(C, ...)`` non-trainable buffers (empty for stateless
        layers)."""
        return {}

    def supports_cohort(self) -> bool:
        """Whether this layer implements the cohort kernel path.

        True for every built-in: parameter-free layers are exact on any
        cohort; parametric built-ins implement the kernels.
        A third-party parametric layer that has not implemented
        ``forward_many`` reports False, and the vector backend falls back
        to serial execution for the whole model.
        """
        if not self.parameters():
            return True
        return type(self).forward_many is not Layer.forward_many

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Cohort-batched forward: ``(C, N, ...) -> (C, N, ...)``.

        Default: fold the cohort axis into the batch axis and delegate to
        :meth:`forward` (see the class docstring for when that is exact).
        """
        params = self.parameters()
        if params and (x.shape[0] != 1 or any(p.cohort_bound for p in params)):
            raise NotImplementedError(
                f"{type(self).__name__} has parameters but no cohort kernel"
            )
        c, n = x.shape[:2]
        out = self.forward(x.reshape(c * n, *x.shape[2:]), train)
        return out.reshape(c, n, *out.shape[1:])

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        """Cohort-batched backward: adjoint of :meth:`forward_many`."""
        c, n = dout.shape[:2]
        dx = self.backward(dout.reshape(c * n, *dout.shape[2:]))
        return dx.reshape(c, n, *dx.shape[1:])

    def backward_many_params_only(self, dout: np.ndarray) -> None:
        """Accumulate cohort parameter gradients without computing dx.

        Used for the *first* layer of a model, whose input gradient nobody
        consumes — for convolutions that skips the col2im scatter, the most
        expensive kernel in the backward pass.  Parameter gradients are
        bitwise identical to :meth:`backward_many`'s.
        """
        self.backward_many(dout)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        dtype=np.float32,
        name: str = "dense",
        classifier_head: bool = False,
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"Dense needs positive dims, got {in_features} -> {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.is_classifier_head = classifier_head
        if classifier_head:
            w = _init.xavier_uniform(
                (in_features, out_features), in_features, out_features, rng, dtype
            )
        else:
            w = _init.he_normal((in_features, out_features), in_features, rng, dtype)
        self.w = Parameter(w, f"{name}.w")
        self.b = Parameter(_init.zeros((out_features,), dtype), f"{name}.b")
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    forward = _unit_forward
    backward = _unit_backward

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"Dense expected (N, {self.in_features}) input per model, "
                f"got {x.shape[1:]}"
            )
        self._x = x if train else None
        # batched GEMM: (C,N,in) @ (C,in,out) -> (C,N,out), one kernel for
        # the whole cohort instead of C separate x @ W calls
        return np.matmul(x, self.w.many) + self.b.many[:, None, :]

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        self.backward_many_params_only(dout)
        return np.matmul(dout, self.w.many.transpose(0, 2, 1))

    def backward_many_params_only(self, dout: np.ndarray) -> None:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        # batched (C,in,N) @ (C,N,out) — one GEMM for every member's x^T·dout
        self.w.grad_many += np.matmul(self._x.transpose(0, 2, 1), dout)
        self.b.grad_many += dout.sum(axis=1)

    def __repr__(self) -> str:
        return f"Dense({self.in_features}->{self.out_features})"


class Conv2d(Layer):
    """2-D convolution over NCHW input, implemented as im2col + GEMM."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        pad: int = 0,
        dtype=np.float32,
        name: str = "conv",
    ):
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or pad < 0:
            raise ValueError("Conv2d hyper-parameters must be positive (pad >= 0)")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = pad
        fan_in = in_channels * kernel_size * kernel_size
        self.w = Parameter(
            _init.he_normal(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng, dtype
            ),
            f"{name}.w",
        )
        self.b = Parameter(_init.zeros((out_channels,), dtype), f"{name}.b")
        #: im2col workspaces keyed by (input shape, dtype)
        self._cohort_ws: dict[tuple, CohortConvWorkspace] = {}
        self._many_cache: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]

    forward = _unit_forward
    backward = _unit_backward

    def cohort_workspace(self, x: np.ndarray) -> CohortConvWorkspace:
        """The reusable im2col workspace for ``x``'s shape (cached)."""
        k = self.kernel_size
        return cached_workspace(
            self._cohort_ws, x.shape, x.dtype, k, k, self.stride, self.pad
        )

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {self.in_channels}, H, W) input per "
                f"model, got {x.shape[1:]}"
            )
        c, n = x.shape[:2]
        ws = self.cohort_workspace(x)
        cols = ws.gather(x)  # (C, ch*k*k, L*N) — workspace-owned buffer
        w_mat = self.w.many.reshape(c, self.out_channels, -1)
        out = np.matmul(w_mat, cols) + self.b.many[:, :, None]
        out = out.reshape(c, self.out_channels, ws.out_h, ws.out_w, n)
        out = np.ascontiguousarray(out.transpose(0, 4, 1, 2, 3))
        # cols lives in the workspace (overwritten by the next gather of
        # this shape); the backward for this step runs before that
        self._many_cache = (cols, ws) if train else None
        return out

    def _param_grads_many(self, dout: np.ndarray) -> np.ndarray:
        """Accumulate cohort weight/bias gradients; returns ``dout`` as the
        ``(C, out_ch, L*N)`` GEMM operand."""
        if self._many_cache is None:
            raise RuntimeError("backward called before a training forward pass")
        cols = self._many_cache[0]
        dout_mat = dout.transpose(0, 2, 3, 4, 1).reshape(
            dout.shape[0], self.out_channels, -1
        )
        self.b.grad_many += dout_mat.sum(axis=2)
        self.w.grad_many += np.matmul(
            dout_mat, cols.transpose(0, 2, 1)
        ).reshape(self.w.grad_many.shape)
        return dout_mat

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        dout_mat = self._param_grads_many(dout)
        ws = self._many_cache[1]
        w_mat = self.w.many.reshape(dout.shape[0], self.out_channels, -1)
        return ws.scatter(np.matmul(w_mat.transpose(0, 2, 1), dout_mat))

    def backward_many_params_only(self, dout: np.ndarray) -> None:
        # Skip dcols + the scatter entirely: for a first layer the input
        # gradient is dead, and the scatter dominates backward cost.
        self._param_grads_many(dout)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}->{self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.pad})"
        )


class _LeadingAxes(Layer):
    """A parameter-free layer whose kernel treats every leading axis as
    batch, so its cohort form is the single-model call itself."""

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        return self.forward(x, train)

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        return self.backward(dout)


class _Pool2d(_LeadingAxes):
    """Window plumbing shared by the pooling layers: every axis before
    ``(H, W)`` is batch, and each pooling window is one im2col column of a
    cached single-channel workspace."""

    def __init__(self, size: int = 2, stride: int | None = None):
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.size = size
        self.stride = stride if stride is not None else size
        self._ws: dict[tuple, CohortConvWorkspace] = {}
        self._cache: tuple | None = None

    def _workspace(self, x_shape: tuple[int, ...], dtype) -> CohortConvWorkspace:
        *lead, h, w = x_shape
        k = self.size
        return cached_workspace(
            self._ws, (1, math.prod(lead), 1, h, w), dtype, k, k, self.stride, 0
        )

    def _windows(self, x: np.ndarray) -> tuple[np.ndarray, CohortConvWorkspace]:
        """``(k*k, L*M)`` window columns of ``x`` (``M`` = leading size)."""
        ws = self._workspace(x.shape, x.dtype)
        return ws.gather(x.reshape(ws.shape))[0], ws

    @staticmethod
    def _to_map(v: np.ndarray, ws: CohortConvWorkspace, x_shape) -> np.ndarray:
        """One value per window column, ``(L*M,)`` -> ``(..., oh, ow)``."""
        v = v.reshape(ws.out_h, ws.out_w, -1).transpose(2, 0, 1)
        return np.ascontiguousarray(v.reshape(*x_shape[:-2], ws.out_h, ws.out_w))

    @staticmethod
    def _to_row(dout: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_to_map`: ``(..., oh, ow)`` -> ``(L*M,)``."""
        oh, ow = dout.shape[-2:]
        return dout.reshape(-1, oh, ow).transpose(1, 2, 0).reshape(-1)

    def _fold(self, dcols: np.ndarray, x_shape, dtype) -> np.ndarray:
        ws = self._workspace(x_shape, dtype)
        return ws.scatter(dcols[None])[0].reshape(x_shape)


class MaxPool2d(_Pool2d):
    """Max pooling; the backward scatters gradients to argmax positions."""

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        cols, ws = self._windows(x)
        argmax = cols.argmax(axis=0)
        out = self._to_map(cols[argmax, np.arange(cols.shape[1])], ws, x.shape)
        self._cache = (x.shape, cols.shape, argmax) if train else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_shape, cols_shape, argmax = self._cache
        dcols = np.zeros(cols_shape, dtype=dout.dtype)
        dcols[argmax, np.arange(cols_shape[1])] = self._to_row(dout)
        return self._fold(dcols, x_shape, dout.dtype)

    def __repr__(self) -> str:
        return f"MaxPool2d(size={self.size}, stride={self.stride})"


class AvgPool2d(_Pool2d):
    """Average pooling with non-overlapping or strided windows."""

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        cols, ws = self._windows(x)
        self._cache = (x.shape, cols.shape) if train else None
        return self._to_map(cols.mean(axis=0), ws, x.shape)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_shape, cols_shape = self._cache
        row = self._to_row(dout).reshape(1, -1) / (self.size * self.size)
        dcols = np.broadcast_to(row, cols_shape).copy()
        return self._fold(dcols, x_shape, dout.dtype)

    def __repr__(self) -> str:
        return f"AvgPool2d(size={self.size}, stride={self.stride})"


class GlobalAvgPool2d(_LeadingAxes):
    """Collapse each feature map to its mean: (N,C,H,W) -> (N,C)."""

    def __init__(self):
        self._hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._hw = x.shape[-2:]
        return x.mean(axis=(-2, -1))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._hw is None:
            raise RuntimeError("backward called before a forward pass")
        h, w = self._hw
        scale = 1.0 / (h * w)
        return np.broadcast_to(
            (dout * scale)[..., None, None], (*dout.shape, h, w)
        ).copy()


class Flatten(Layer):
    """(N, ...) -> (N, prod(...))."""

    def __init__(self):
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a forward pass")
        return dout.reshape(self._shape)


class ReLU(_LeadingAxes):
    """Rectified linear unit; caches the sign mask for the backward pass."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        mask = x > 0
        if train:
            self._mask = mask
        return np.where(mask, x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return dout * self._mask


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time.

    Without ``cohort_rngs`` the layer-owned ``rng`` draws the members'
    masks in cohort order; for a cohort of one (``forward``) that is the
    plain serial stream.  With ``cohort_rngs`` each member's mask comes
    from that member's own generator, reproducing per-client serial draws
    bit-for-bit.  A cohort's draws from the shared ``rng`` are not the
    serial backend's call order, which is why the engine keeps rejecting
    non-serial backends for models with layer-owned RNG state.
    """

    def __init__(self, p: float, rng: np.random.Generator):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng
        #: per-cohort-member generators for ``forward_many`` (optional)
        self.cohort_rngs: list[np.random.Generator] | None = None
        self._mask: np.ndarray | None = None

    forward = _unit_forward
    backward = _unit_backward

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        if self.cohort_rngs is None:
            raw = self.rng.random(x.shape)
        else:
            if len(self.cohort_rngs) != x.shape[0]:
                raise ValueError(
                    f"{len(self.cohort_rngs)} cohort generators for a "
                    f"cohort of {x.shape[0]}"
                )
            raw = np.empty(x.shape, dtype=np.float64)
            for c, rng in enumerate(self.cohort_rngs):
                raw[c] = rng.random(x.shape[1:])
        self._mask = (raw < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class BatchNorm(Layer):
    """Batch normalization for 2-D (N,F) or 4-D (N,C,H,W) activations.

    Running statistics are exposed via :meth:`state` so federated averaging
    can (and does) synchronize them alongside trainable parameters; like
    the parameters, ``running_*_many`` are ``(1, F)`` views of them until
    :meth:`bind_cohort` gives a template its own stacked buffers.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5,
                 dtype=np.float32, name: str = "bn"):
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features, dtype=dtype), f"{name}.gamma")
        self.beta = Parameter(np.zeros(num_features, dtype=dtype), f"{name}.beta")
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self.running_mean_many = self.running_mean[None]
        self.running_var_many = self.running_var[None]
        self._cache_many: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    forward = _unit_forward
    backward = _unit_backward

    def state(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def bind_cohort(self, cohort: int) -> None:
        super().bind_cohort(cohort)
        self.running_mean_many = np.zeros(
            (cohort, self.num_features), dtype=np.float64
        )
        self.running_var_many = np.ones(
            (cohort, self.num_features), dtype=np.float64
        )

    def state_many(self) -> dict[str, np.ndarray]:
        return {
            "running_mean": self.running_mean_many,
            "running_var": self.running_var_many,
        }

    @staticmethod
    def _reduce_axes_many(x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 3:
            return (1,)
        if x.ndim == 5:
            return (1, 3, 4)
        raise ValueError(
            f"BatchNorm supports 2-D or 4-D input per model, got shape {x.shape[1:]}"
        )

    @staticmethod
    def _expand_many(v: np.ndarray, ndim: int) -> np.ndarray:
        # v is (C, F): align F with the feature axis, broadcast the rest
        return v[:, None, :] if ndim == 3 else v[:, None, :, None, None]

    def forward_many(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        axes = self._reduce_axes_many(x)
        if train:
            mean = x.mean(axis=axes)  # (C, F)
            var = x.var(axis=axes)
            m = self.momentum
            self.running_mean_many *= m
            self.running_mean_many += (1 - m) * mean.astype(np.float64)
            self.running_var_many *= m
            self.running_var_many += (1 - m) * var.astype(np.float64)
        else:
            mean = self.running_mean_many.astype(x.dtype)
            var = self.running_var_many.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._expand_many(mean, x.ndim)) * self._expand_many(
            inv_std, x.ndim
        )
        out = (
            self._expand_many(self.gamma.many, x.ndim) * x_hat
            + self._expand_many(self.beta.many, x.ndim)
        )
        self._cache_many = (x_hat, inv_std, axes, x.shape) if train else None
        return out

    def backward_many(self, dout: np.ndarray) -> np.ndarray:
        if self._cache_many is None:
            raise RuntimeError("backward called before a training forward pass")
        x_hat, inv_std, axes, x_shape = self._cache_many
        m = float(np.prod([x_shape[a] for a in axes]))
        self.gamma.grad_many += (dout * x_hat).sum(axis=axes)
        self.beta.grad_many += dout.sum(axis=axes)
        g = self._expand_many(self.gamma.many, dout.ndim)
        dxhat = dout * g
        term2 = self._expand_many(dxhat.sum(axis=axes) / m, dout.ndim)
        term3 = x_hat * self._expand_many(
            (dxhat * x_hat).sum(axis=axes) / m, dout.ndim
        )
        return (dxhat - term2 - term3) * self._expand_many(
            inv_std.astype(dout.dtype), dout.ndim
        )

    def __repr__(self) -> str:
        return f"BatchNorm({self.num_features})"
