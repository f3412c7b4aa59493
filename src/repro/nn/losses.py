"""Loss functions: each returns ``(loss, dlogits)`` so callers can backprop."""

from __future__ import annotations

import numpy as np

from repro.utils.maths import softmax

__all__ = [
    "softmax_cross_entropy",
    "softmax_cross_entropy_many",
    "accuracy",
]

#: keeps ``log`` finite when a target probability underflows to zero
_TINY = np.finfo(np.float64).tiny


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over a batch of integer labels.

    Returns the scalar loss and the gradient w.r.t. ``logits`` (already
    divided by batch size, ready to feed into ``model.backward``): the
    cohort kernel :func:`softmax_cross_entropy_many` on a cohort of one.
    """
    losses, dlogits = softmax_cross_entropy_many(
        np.asarray(logits)[None], np.asarray(labels)[None]
    )
    return float(losses[0]), dlogits[0]


def softmax_cross_entropy_many(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cohort-batched softmax cross-entropy.

    Args:
        logits: ``(C, N, classes)`` stacked logits (one slice per cohort
            member).
        labels: ``(C, N)`` integer labels.

    Returns:
        ``(losses, dlogits)`` where ``losses`` is the ``(C,)`` per-member
        mean loss and ``dlogits`` the ``(C, N, classes)`` gradient, divided
        by ``N`` and cast to the logits' dtype.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels).astype(np.int64)
    if logits.ndim != 3:
        raise ValueError(
            f"expected (N, classes) logits per model, got {logits.shape[1:]}"
        )
    if labels.shape != logits.shape[:2]:
        raise ValueError(
            f"labels shape {labels.shape[1:]} incompatible with logits "
            f"{logits.shape[1:]}"
        )
    c, n = labels.shape
    probs = softmax(logits, axis=-1)
    rows = probs.reshape(c * n, -1)
    target = (np.arange(c * n), labels.ravel())
    losses = -np.log(rows[target] + _TINY).reshape(c, n).mean(axis=1)
    dlogits = probs
    rows[target] -= 1.0
    dlogits /= n
    return losses, dlogits.astype(logits.dtype)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of a logits batch."""
    preds = np.asarray(logits).argmax(axis=1)
    return float((preds == np.asarray(labels)).mean())
