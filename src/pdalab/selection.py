"""Bi-level selection weights.

Class-level: the transferable probability of each source class,
estimated as the mean target prediction.  Instance-level: a target
sample's prediction row itself, which the trainer passes straight to
the adversarial loss to assign the sample across the per-class
alignment tasks.  Plus the entropy-aware example weight that favors
confident predictions.
"""

from __future__ import annotations

import numpy as np


def as_pred_matrix(preds) -> np.ndarray:
    """``preds`` as float64 prediction rows: an [m, K] matrix or an [S, m, K]
    stack of them, with m >= 1."""
    p = np.asarray(preds, dtype=np.float64)
    if p.ndim not in (2, 3) or p.shape[-2] == 0:
        raise ValueError("a nonempty prediction matrix (or a stack of them) is required")
    return p


def class_transferable_probability(target_preds) -> np.ndarray:
    """Column-wise mean of target prediction rows, per slice of a stack;
    lives on the simplex."""
    return as_pred_matrix(target_preds).mean(axis=-2)


def true_class_weights(target_labels, num_classes: int) -> np.ndarray:
    """Empirical label frequencies; the oracle counterpart of the estimate.

    Diagnostic only: target labels are unavailable to the training path.
    """
    labels = np.asarray(target_labels)
    if labels.size == 0:
        raise ValueError("at least one label is required")
    if (labels < 0).any() or (labels >= num_classes).any():
        raise ValueError(f"label outside [0, {num_classes})")
    return np.bincount(labels, minlength=num_classes) / labels.size


def entropy_weights(preds) -> np.ndarray:
    """Per row, 1 + exp(-H(row)) with H the natural-log Shannon entropy; in (1, 2]."""
    p = as_pred_matrix(preds)
    h = -(p * np.log(np.maximum(p, np.finfo(float).tiny))).sum(axis=-1)
    return 1.0 + np.exp(-h)
