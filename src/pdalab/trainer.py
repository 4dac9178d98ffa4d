"""Optimization schedules, the epoch loop, and the method-variant matrix.

Variants range from plain supervised training through single-head
adversarial alignment to the full bi-level-selection method.  Named
substreams keep data shuffling, initialization, and divergence-proxy
training independent, so toggling one feature never perturbs another's
randomness.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .bound import OracleContext, check_bound, in_classes, intermediate_terms
from .data import Dataset, batch_iterator, steps_per_epoch
from .losses import (
    LossBreakdown,
    adversarial_loss,
    assign_pseudo_labels,
    compose_objective,
    self_training_loss,
    supervised_loss,
)
from .metrics import MetricsRecord
from .nets import ArchSpec, ModelBundle, d_forward, f_forward, g_forward, init_bundle
from .rngstreams import substream
from .selection import class_transferable_probability
from .tensor import Tensor, backward, no_grad, reset_tape, slice_rows

logger = logging.getLogger("pdalab")

ADVERSARY_MODES = ("none", "single", "multi")
ENTROPY_MIN_COEF = 0.1  # weight of the target-entropy regularizer (conference variant)


@dataclass(frozen=True)
class VariantFlags:
    """Feature gates of the method plus the adversary architecture."""

    instance_sel: bool = False
    class_sel: bool = False
    self_training: bool = False
    entropy_min: bool = False
    shared_trunk: bool = True
    adversary: str = "none"

    def __post_init__(self):
        if self.adversary not in ADVERSARY_MODES:
            raise ValueError(f"adversary must be one of {ADVERSARY_MODES}")
        if self.adversary == "single" and (self.instance_sel or self.class_sel):
            raise ValueError("a single-head adversary has no per-class selection")
        if self.adversary == "none" and (self.instance_sel or self.class_sel
                                         or self.entropy_min):
            raise ValueError("selection/entropy gates require an adversary")


PRESETS: dict[str, VariantFlags] = {
    # Plain supervised training on the source domain; no adversarial term.
    "source_only": VariantFlags(),
    # Single-head adversary on unweighted features, all selection off.
    "dann": VariantFlags(adversary="single"),
    # Conference configuration: instance selection, private per-class
    # discriminators, entropy minimization instead of self-training.
    "san": VariantFlags(instance_sel=True, entropy_min=True, shared_trunk=False,
                        adversary="multi"),
    # Full method: bi-level selection, self-training, shared trunk.
    "san_pp": VariantFlags(instance_sel=True, class_sel=True, self_training=True,
                           shared_trunk=True, adversary="multi"),
}

# The six ablation rows, in presentation order.
ABLATION_VARIANTS: dict[str, VariantFlags] = {
    "source_only": PRESETS["source_only"],
    "instance": VariantFlags(instance_sel=True, adversary="multi"),
    "instance_class": VariantFlags(instance_sel=True, class_sel=True, adversary="multi"),
    "instance_class_entropy": VariantFlags(instance_sel=True, class_sel=True,
                                           entropy_min=True, adversary="multi"),
    "instance_class_self_private": VariantFlags(instance_sel=True, class_sel=True,
                                                self_training=True, shared_trunk=False,
                                                adversary="multi"),
    "san_pp": PRESETS["san_pp"],
}

NAMED_VARIANTS: dict[str, VariantFlags] = {**ABLATION_VARIANTS, **PRESETS}


@dataclass(frozen=True)
class Schedule:
    """Optimization schedule; defaults are calibrated for the toy task.

    ``warmup_epochs`` delays every term that depends on the model's own
    target predictions (class selection, self-training, the entropy
    regularizer) until the classifier has converged on source labels;
    before that point the prediction-derived class weights are noise
    and feed a self-reinforcing collapse.
    """

    eta0: float = 0.02
    alpha: float = 10.0
    beta: float = 0.75
    momentum: float = 0.9
    total_epochs: int = 60
    warmup_epochs: int = 10
    batch_size: int = 64
    log_interval: int = 20

    def __post_init__(self):
        if self.eta0 <= 0 or self.alpha < 0 or self.beta < 0:
            raise ValueError("eta0 must be positive; alpha, beta nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.total_epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.batch_size < 1 or self.log_interval < 1:
            raise ValueError("batch_size and log_interval must be positive")


def lr_at(p: float, sched: Schedule) -> float:
    """Annealed learning rate eta0 / (1 + alpha*p)^beta at progress p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("progress must lie in [0, 1]")
    return sched.eta0 / (1.0 + sched.alpha * p) ** sched.beta


def adv_ramp(p: float) -> float:
    """Adversarial penalty ramp 2/(1+e^(-10p)) - 1: zero at p=0, ~1 at p=1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("progress must lie in [0, 1]")
    return 2.0 / (1.0 + math.exp(-10.0 * p)) - 1.0


class MomentumSGD:
    """Momentum SGD over a fixed parameter list; velocities persist.

    The parameters become views of one flat buffer, so a step is one
    elementwise update of the whole model: v <- momentum*v + g, then
    theta <- theta - lr*v.  A parameter without a gradient counts as a
    zero gradient: one that never gets a gradient never moves.
    """

    def __init__(self, params: list[Tensor], momentum: float):
        self.params = params
        self.momentum = momentum
        self.flat = np.concatenate([p.data.ravel() for p in params])
        offset = 0
        for p in params:
            p.data = self.flat[offset:offset + p.data.size].reshape(p.shape)
            offset += p.data.size
        self.velocity = np.zeros_like(self.flat)
        self._zeros = [np.zeros(p.data.size) for p in params]

    def step(self, lr: float) -> None:
        grad = np.concatenate([z if p.grad is None else p.grad.ravel()
                               for p, z in zip(self.params, self._zeros)])
        if grad.shape != self.flat.shape:
            raise ValueError("gradient sizes disagree with the parameters")
        self.velocity *= self.momentum
        self.velocity += grad
        self.flat -= lr * self.velocity

    def zero_grad(self) -> None:
        T.zero_grad(self.params)


def predict(bundle: ModelBundle, x: np.ndarray) -> np.ndarray:
    """Evaluation-mode class predictions (simplex rows), off the tape."""
    with no_grad():
        return g_forward(bundle.classifier, f_forward(bundle.features, x)).data


def extract_features(bundle: ModelBundle, x: np.ndarray) -> np.ndarray:
    with no_grad():
        return f_forward(bundle.features, x).data


def evaluate(bundle: ModelBundle, x: np.ndarray, labels: np.ndarray,
             num_classes: int) -> tuple[float, np.ndarray]:
    """Accuracy and the confusion matrix (rows true, columns predicted)."""
    if np.asarray(labels).size == 0:
        raise ValueError("evaluation requires a labeled, nonempty dataset")
    return _score(predict(bundle, x), labels, num_classes)


def _score(preds: np.ndarray, labels: np.ndarray,
           num_classes: int) -> tuple[float, np.ndarray]:
    """Accuracy and confusion matrix of the argmax of prediction rows."""
    labels = np.asarray(labels)
    pred = preds.argmax(axis=1)
    accuracy = float(np.mean(pred == labels))
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, pred), 1)
    return accuracy, confusion


def _uniform_rows(m: int, k: int) -> np.ndarray:
    return np.full((m, k), 1.0 / k)


def train_epoch(bundle: ModelBundle, opt: MomentumSGD, source: Dataset,
                target: Dataset, class_weights: np.ndarray, pseudo: np.ndarray | None,
                flags: VariantFlags, sched: Schedule, steps_done: int, total_steps: int,
                rng: np.random.Generator) -> tuple[list, int]:
    """One shuffled pass over the paired domains.

    ``class_weights`` and ``pseudo`` were estimated at epoch start and
    stay frozen here; ``pseudo`` is None while self-training is off.  The
    class gate replaces the weights with ones when class selection is off,
    so the estimate cannot influence any gradient.  Returns the per-step
    loss breakdowns and the updated global step count.
    """
    k = bundle.num_classes
    w_eff = np.asarray(class_weights, dtype=np.float64) if flags.class_sel else np.ones(k)
    b = sched.batch_size
    domains = np.concatenate([np.ones(b), np.zeros(b)])
    fixed_inst = np.ones((2 * b, 1)) if flags.adversary == "single" else _uniform_rows(2 * b, k)
    breakdowns = []
    for src_idx, tgt_idx in batch_iterator(len(source), len(target),
                                           sched.batch_size, rng):
        p = steps_done / total_steps
        lr = lr_at(p, sched)
        lam = adv_ramp(p)

        x_all = np.vstack([source.x[src_idx], target.x[tgt_idx]])
        y_src = source.y[src_idx]

        reset_tape()
        opt.zero_grad()
        f = f_forward(bundle.features, Tensor(x_all))
        preds = g_forward(bundle.classifier, f)
        preds_src = slice_rows(preds, 0, b)
        preds_tgt = slice_rows(preds, b, 2 * b)

        l_sup = supervised_loss(preds_src, y_src, w_eff)
        l_self = Tensor(0.0) if pseudo is None else \
            self_training_loss(preds_tgt, pseudo[tgt_idx], w_eff)

        l_adv = None
        if flags.adversary != "none":
            domain_logits = d_forward(bundle.discriminator, f, lam)
            # Detached: instance weights are constants, and never written to.
            inst = preds.data if flags.instance_sel else fixed_inst
            l_adv = adversarial_loss(domain_logits, inst, domains, w_eff,
                                     use_class_sel=flags.class_sel,
                                     use_entropy_w=flags.entropy_min)

        regs = ()
        if flags.entropy_min:
            regs = (T.entropy_mean(preds_tgt, ENTROPY_MIN_COEF),)

        breakdown, total = compose_objective(l_sup, l_self, l_adv, regs)
        backward(total)
        opt.step(lr)
        steps_done += 1
        breakdowns.append(breakdown)
        if steps_done % sched.log_interval == 0:
            logger.debug("step %d/%d lr=%.5g lam=%.4g sup=%.4g self=%.4g adv=%.4g",
                         steps_done, total_steps, lr, lam, breakdown.l_sup,
                         breakdown.l_self, breakdown.l_adv)
    return breakdowns, steps_done


def _mean_breakdown(breakdowns):
    sup = float(np.mean([b.l_sup for b in breakdowns]))
    self_ = float(np.mean([b.l_self for b in breakdowns]))
    adv = float(np.mean([b.l_adv for b in breakdowns]))
    return LossBreakdown(sup, self_, adv, sup + self_ - adv)


@dataclass
class ExperimentResult:
    records: list[MetricsRecord]
    confusion: np.ndarray | None
    bundle: ModelBundle
    epoch_seconds: list[float]  # wall clock per trained epoch, audit included


def run_experiment(source: Dataset, target: Dataset, oracle: OracleContext | None,
                   arch: ArchSpec, flags: VariantFlags, sched: Schedule,
                   seed: int, full_audit: bool = True) -> ExperimentResult:
    """Full training run with one metrics record per epoch (plus epoch 0).

    Oracle-dependent fields (accuracy, bound report, confusion matrix)
    are None when no oracle labels are available.  With an oracle, every
    record asserts the bound's intermediate inequality.  ``full_audit``
    False keeps that assertion and the accuracy but skips the reported
    terms: no source-domain forward and no divergence proxy, and every
    record's ``bound`` is None.  Training itself is the same either way;
    the proxy draws only from the ``divergence`` substream.
    """
    data_rng = substream(seed, "data")
    init_rng = substream(seed, "init")
    div_rng = substream(seed, "divergence")

    k = arch.num_classes
    num_heads = 1 if flags.adversary == "single" else k
    bundle = init_bundle(arch, init_rng, num_heads=num_heads,
                         shared_trunk=flags.shared_trunk)
    opt = MomentumSGD(bundle.parameters(), sched.momentum)
    total_steps = steps_per_epoch(len(source), len(target), sched.batch_size) \
        * sched.total_epochs
    if oracle is not None and full_audit:  # only these source rows reach the report
        shared = in_classes(source.y, oracle.shared_classes)
        x_src, y_src = source.x[shared], source.y[shared]

    def features_and_preds(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f = extract_features(bundle, x)
        with no_grad():
            return f, g_forward(bundle.classifier, Tensor(f)).data

    def snapshot(epoch: int, losses=None) -> tuple[MetricsRecord, np.ndarray, np.ndarray]:
        """The epoch's record, plus the target predictions and class
        weights it was computed from, which the next epoch starts with."""
        f_t, preds_t = features_and_preds(target.x)
        w = class_transferable_probability(preds_t)
        accuracy = None
        bound = None
        if oracle is not None:
            accuracy = float(np.mean(preds_t.argmax(axis=1) == oracle.target_labels))
            if full_audit:
                f_s, preds_s = features_and_preds(x_src)
                bound = check_bound(preds_t, oracle, preds_s, y_src, f_s, f_t, div_rng,
                                    epoch)
            else:
                intermediate_terms(preds_t, oracle, epoch)
        record = MetricsRecord(epoch=epoch, target_accuracy=accuracy,
                               class_weights=[float(v) for v in w], losses=losses,
                               bound=bound)
        return record, preds_t, w

    record, preds_t, w = snapshot(0)
    records = [record]
    epoch_seconds = []
    steps_done = 0
    for e in range(sched.total_epochs):
        t0 = time.perf_counter()
        warm = e < sched.warmup_epochs
        eff_flags = flags if not warm else replace(flags, class_sel=False,
                                                   entropy_min=False)
        pseudo = assign_pseudo_labels(preds_t) if flags.self_training and not warm else None
        breakdowns, steps_done = train_epoch(
            bundle, opt, source, target, w, pseudo, eff_flags, sched,
            steps_done, total_steps, data_rng)
        record, preds_t, w = snapshot(e + 1, losses=_mean_breakdown(breakdowns))
        epoch_seconds.append(time.perf_counter() - t0)
        records.append(record)
        logger.info("epoch %d/%d acc=%s obj=%.5g", e + 1, sched.total_epochs,
                    record.target_accuracy, record.losses.objective)

    confusion = None
    if oracle is not None:  # the last snapshot's predictions are the final model's
        _, confusion = _score(preds_t, oracle.target_labels, k)
    return ExperimentResult(records=records, confusion=confusion, bundle=bundle,
                            epoch_seconds=epoch_seconds)
