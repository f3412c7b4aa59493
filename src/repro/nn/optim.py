"""Optimizers for local client training.

``CohortSGD`` covers everything the paper's experiments need: momentum,
weight decay, and an optional FedProx proximal term ``(mu/2)||w - w_ref||^2``
folded into the gradient, which is how FedProx modifies the client
objective.  ``SGD`` is the same update on a single model, run as a cohort
of one.
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import CohortModel, Sequential

__all__ = ["SGD", "CohortSGD"]


class CohortSGD:
    """Fused SGD across a cohort of stacked models (:class:`CohortModel`).

    One axpy-style update per *layer tensor* applies every cohort member's
    step at once: the velocity/weight-decay/prox algebra is elementwise on
    the whole ``(cohort, *shape)`` stack, so each member's update is bitwise
    what it would be alone.
    """

    def __init__(
        self,
        model: CohortModel | Sequential,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        prox_mu: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0 or prox_mu < 0:
            raise ValueError("weight_decay and prox_mu must be non-negative")
        self.model = model
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.prox_mu = prox_mu
        self._velocity = [np.zeros_like(p.many) for p in model.parameters()]
        self._prox_center: list[np.ndarray] | None = None

    def set_prox_center(self, center_flat: np.ndarray | None) -> None:
        """Stacked proximal anchor from ``(cohort, P)`` flat vectors."""
        if center_flat is None:
            self._prox_center = None
            return
        center_flat = np.asarray(center_flat)
        expected = (self.model.cohort, self.model.num_params)
        if center_flat.shape != expected:
            raise ValueError(
                f"prox center has shape {center_flat.shape}; expected {expected}"
            )
        center = []
        offset = 0
        for p in self.model.parameters():
            chunk = center_flat[:, offset : offset + p.size]
            center.append(
                chunk.reshape(p.many.shape).astype(p.data.dtype)
            )
            offset += p.size
        self._prox_center = center

    def step(self) -> None:
        """Apply one fused update from the accumulated cohort gradients."""
        for i, p in enumerate(self.model.parameters()):
            g = p.grad_many
            if self.weight_decay:
                g = g + self.weight_decay * p.many
            if self.prox_mu and self._prox_center is not None:
                g = g + self.prox_mu * (p.many - self._prox_center[i])
            if self.momentum:
                v = self._velocity[i]
                v *= self.momentum
                v += g
                p.many -= self.lr * v
            else:
                p.many -= self.lr * g

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def reset_state(self) -> None:
        """Clear momentum buffers (clients restart momentum each round)."""
        for v in self._velocity:
            v.fill(0.0)


class SGD(CohortSGD):
    """Stochastic gradient descent with momentum / weight decay / prox term
    on one :class:`Sequential`: :class:`CohortSGD` on the model's own
    parameters as a cohort of one."""

    def set_prox_center(self, center: list[np.ndarray] | None) -> None:
        """Anchor of the proximal term (the global model in FedProx), one
        array per parameter."""
        if center is not None:
            params = self.model.parameters()
            if len(center) != len(params):
                raise ValueError(
                    f"prox center has {len(center)} tensors, model has {len(params)}"
                )
            for c, p in zip(center, params):
                if c.shape != p.shape:
                    raise ValueError(
                        f"prox center shape {c.shape} != parameter shape {p.shape}"
                    )
            center = [c[None] for c in center]
        self._prox_center = center

    # an own attribute, so tracing SGD.step leaves CohortSGD.step alone
    step = CohortSGD.step

