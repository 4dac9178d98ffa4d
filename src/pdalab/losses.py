"""The training objectives and their min-max composition.

Three terms: class-weighted supervised loss on source labels,
class-weighted self-training loss on target pseudo-labels, and the
per-head adversarial alignment loss.  The reported objective is
``l_sup + l_self - l_adv``; a single descent pass on
``l_sup + l_self + l_adv`` realizes the min-max because discriminator
inputs pass through gradient reversal.

Instance and entropy weights in the adversarial term are constants
(detached class predictions): every gradient the feature extractor
receives from the adversarial term must route through the reversal
node, otherwise the descent/ascent sign contract breaks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .selection import entropy_weights
from .tensor import Tensor


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar values of the three terms and the composite objective."""

    l_sup: float
    l_self: float
    l_adv: float
    objective: float


def supervised_loss(preds: Tensor, labels, class_weights, on=None) -> Tensor:
    """Mean over the batch of w_y * cross_entropy(pred, y), per slice of a stack."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("supervised loss over an empty batch")
    return T.cross_entropy_mean(preds, labels, class_weights, on)


def assign_pseudo_labels(preds) -> np.ndarray:
    """Hard pseudo-label per row (argmax, ties to the lowest index)."""
    p = np.asarray(preds, dtype=np.float64)
    if p.ndim not in (2, 3):
        raise ValueError("prediction matrix must be 2-d (or a stack of them)")
    return p.argmax(axis=-1)


def self_training_loss(preds: Tensor, pseudo_hard, class_weights, on=None) -> Tensor:
    """Mean of w_pseudo * cross_entropy(pred, pseudo)."""
    return supervised_loss(preds, pseudo_hard, class_weights, on)


def adversarial_loss(domain_logits: Tensor, class_preds, domains, class_weights,
                     use_class_sel: bool, use_entropy_w, on=None) -> Tensor:
    """Sum over heads of the weighted binary cross-entropy to the domain tag.

    ``domain_logits[i, k]`` is head k's source logit for sample i;
    ``class_preds[i, k]`` is the (detached) instance weight assigning
    sample i to head k's alignment task.  Over a stack, the class weights
    are per slice, and ``use_entropy_w`` and ``on`` may be a bool per slice.
    """
    y_hat = np.asarray(class_preds, dtype=np.float64)
    d = np.asarray(domains, dtype=np.float64)
    m, k = domain_logits.shape[-2:]
    if y_hat.shape[-2:] != (m, k) or d.shape != (m,):
        raise ValueError("misaligned adversarial batch")
    if ((d != 0.0) & (d != 1.0)).any():
        raise ValueError("domain tags must be 0 (target) or 1 (source)")
    weight = y_hat
    if use_class_sel:
        w = np.asarray(class_weights, dtype=np.float64)
        if w.shape[-1:] != (k,):
            raise ValueError("class weight per head required")
        weight = weight * w[..., None, :]
    if use_entropy_w is True:
        weight = weight * entropy_weights(y_hat)[..., None]
    elif use_entropy_w is not False:  # a slice without it is weighted by exactly 1.0
        ent = np.where(np.asarray(use_entropy_w)[..., None], entropy_weights(y_hat), 1.0)
        weight = weight * ent[..., None]
    return T.weighted_bce(domain_logits, d, weight, on)


def compose_objective(l_sup: Tensor, l_self: Tensor, l_adv: Tensor | None,
                      regularizers: tuple[Tensor, ...] = ()) -> tuple[LossBreakdown, Tensor]:
    """Reported breakdown plus the tensor a single descent step minimizes;
    for terms with one value per slice, a list of breakdowns, one per slice.

    The adversarial term enters the minimized total with a plus sign;
    gradient reversal inside the discriminator forward makes that one
    step descend for the discriminator and ascend for the extractor.
    """
    sup, self_ = l_sup.data.tolist(), l_self.data.tolist()
    adv = np.zeros(l_sup.data.shape).tolist() if l_adv is None else l_adv.data.tolist()
    terms = (l_sup, l_self) + (() if l_adv is None else (l_adv,)) + tuple(regularizers)
    if l_sup.data.ndim == 0:
        return LossBreakdown(sup, self_, adv, sup + self_ - adv), T.add(*terms)
    return [LossBreakdown(s, st, a, s + st - a) for s, st, a in zip(sup, self_, adv)], \
        T.add(*terms)
