"""Trainable parameter container for the NumPy deep-learning framework."""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A named trainable tensor with an accumulated gradient.

    The framework uses explicit backprop: layers write into ``grad`` during
    ``backward`` and optimizers read/clear it.  ``data`` and ``grad`` always
    share dtype and shape.

    The layer kernels work on a leading cohort axis: ``many``/``grad_many``
    hold ``(cohort, *shape)`` stacked values, one slice per client model.
    By default a parameter is a cohort of one whose ``many``/``grad_many``
    are ``(1, *shape)`` views of ``data``/``grad``, so the kernels train
    ``data`` in place.  :meth:`bind_cohort` gives a template its own
    stacked storage instead, leaving ``data``/``grad`` untouched.
    """

    __slots__ = ("name", "data", "grad", "many", "grad_many")

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.name = name
        self.data = np.ascontiguousarray(data)
        self.grad = np.zeros_like(self.data)
        self.many = self.data[None]
        self.grad_many = self.grad[None]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Bytes occupied by the value (what a client would transmit)."""
        return int(self.data.nbytes)

    @property
    def cohort_bound(self) -> bool:
        """True once :meth:`bind_cohort` has given ``many`` its own storage."""
        return not np.may_share_memory(self.many, self.data)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def bind_cohort(self, cohort: int) -> None:
        """Allocate ``(cohort, *shape)`` stacked value/gradient storage."""
        if cohort <= 0:
            raise ValueError(f"cohort size must be positive, got {cohort}")
        self.many = np.zeros((cohort,) + self.data.shape, dtype=self.data.dtype)
        self.grad_many = np.zeros_like(self.many)

    def zero_grad_many(self) -> None:
        self.grad_many.fill(0.0)

    def copy_(self, value: np.ndarray) -> None:
        """In-place overwrite of the value (keeps optimizer state views valid)."""
        value = np.asarray(value, dtype=self.data.dtype)
        if value.shape != self.data.shape:
            raise ValueError(
                f"shape mismatch assigning to parameter {self.name!r}: "
                f"{value.shape} != {self.data.shape}"
            )
        np.copyto(self.data, value)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape}, dtype={self.data.dtype})"
