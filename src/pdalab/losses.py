"""The training objectives and their min-max composition.

Three terms: class-weighted supervised loss on source labels,
class-weighted self-training loss on target pseudo-labels, and the
per-head adversarial alignment loss.  The reported objective is
``l_sup + l_self - l_adv``; a single descent pass on
``l_sup + l_self + l_adv`` realizes the min-max: the discriminator's first
layer reverses its input gradient.  Terms read half a batch by row range.

Instance and entropy weights in the adversarial term are constants
(detached class predictions): every gradient the feature extractor
receives from the adversarial term must pass that reversing layer,
otherwise the descent/ascent sign contract breaks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .selection import as_pred_matrix, entropy_weights
from .tensor import Tensor


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar values of the three terms and the composite objective."""

    l_sup: float
    l_self: float
    l_adv: float
    objective: float


def supervised_loss(preds: Tensor, labels, class_weights, rows=slice(None)) -> Tensor:
    """Mean of w_y * cross_entropy(pred, y) over the ``rows`` of ``preds``, per slice."""
    return T.cross_entropy_mean(preds, labels, class_weights, rows)


def assign_pseudo_labels(preds) -> np.ndarray:
    """Hard pseudo-label per row (argmax, ties to the lowest index)."""
    return as_pred_matrix(preds).argmax(axis=-1)


def self_training_loss(preds: Tensor, pseudo_hard, class_weights, rows=slice(None)) -> Tensor:
    """Mean of w_pseudo * cross_entropy(pred, pseudo) over the ``rows`` of ``preds``."""
    return supervised_loss(preds, pseudo_hard, class_weights, rows)


def adversarial_loss(domain_logits: Tensor, class_preds, domains, class_weights,
                     use_class_sel: bool, use_entropy_w) -> Tensor:
    """Sum over heads of the weighted binary cross-entropy to the domain tag.

    ``domain_logits[i, k]`` is head k's source logit for sample i;
    ``class_preds[i, k]`` is the (detached) instance weight assigning
    sample i to head k's alignment task.  Over a stack, the class weights are
    per slice; ``use_entropy_w`` is a bool, or one per slice: one select either way.
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
    if use_entropy_w is not False:  # a slice without it is weighted by exactly 1.0
        ent = np.where(np.asarray(use_entropy_w)[..., None], entropy_weights(y_hat), 1.0)
        weight = weight * ent[..., None]
    return T.weighted_bce(domain_logits, d, weight)


def compose_objective(l_sup: Tensor, l_self: Tensor | None, l_adv: Tensor | None,
                      l_ent: Tensor | None = None) -> tuple[LossBreakdown, Tensor]:
    """Reported breakdown plus the tensor a single descent step minimizes;
    for terms with one value per slice, a list of breakdowns, one per slice.
    An absent term is None: it reads 0.0 in each slice and is left out of the
    total.  The entropy regularizer ``l_ent`` enters the total only.

    The adversarial term enters the minimized total with a plus sign;
    gradient reversal inside the discriminator forward makes that one
    step descend for the discriminator and ascend for the extractor.
    """
    sup = l_sup.data.tolist()
    zero = 0.0 if l_sup.data.ndim == 0 else [0.0] * len(sup)
    self_ = zero if l_self is None else l_self.data.tolist()
    adv = zero if l_adv is None else l_adv.data.tolist()
    total = T.add(*[t for t in (l_sup, l_self, l_adv, l_ent) if t is not None])
    if l_sup.data.ndim == 0:
        return LossBreakdown(sup, self_, adv, sup + self_ - adv), total
    return [LossBreakdown(s, st, a, s + st - a) for s, st, a in zip(sup, self_, adv)], total
