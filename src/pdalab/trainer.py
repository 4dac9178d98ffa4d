"""Optimization schedules, the epoch loop, and the method-variant matrix.

Variants range from plain supervised training through single-head
adversarial alignment to the full bi-level-selection method.  Named
substreams keep data shuffling, initialization, and divergence-proxy
training independent, so toggling one feature never perturbs another's
randomness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .bound import OracleContext, check_bound, in_classes, intermediate_terms, proxy_test_rows
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
from .nets import (ArchConfig, ArchSpec, ModelBundle, d_forward, f_forward, g_forward,
                   init_bundle, map_bundle)
from .rngstreams import substream
from .selection import class_transferable_probability
from .tensor import Tensor, backward, no_grad, reset_tape, slice_rows

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


def network_flags(flags: VariantFlags, arch: ArchConfig) -> VariantFlags:
    """The flags of the network ``flags`` trains under ``arch``: private
    trunks with no layers draw nothing at init and pass features through
    unchanged, so they train the shared-trunk network."""
    return flags if arch.disc_hidden else replace(flags, shared_trunk=True)


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

    def __post_init__(self):
        if self.eta0 <= 0 or self.alpha < 0 or self.beta < 0:
            raise ValueError("eta0 must be positive; alpha, beta nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.total_epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


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
                flags, sched: Schedule, steps_done: int, total_steps: int,
                rng: np.random.Generator) -> tuple[list, int]:
    """One shuffled pass over the paired domains.

    ``class_weights`` and ``pseudo`` were estimated at epoch start and
    stay frozen here; ``pseudo`` is None while self-training is off.  The
    class gate replaces the weights with ones when class selection is off,
    so the estimate cannot influence any gradient.  Returns the per-step
    loss breakdowns and the updated global step count.  A stacked bundle takes
    all these per slice, and every slice the same batches; a term no slice uses
    is not built, and a slice without a term gets exact zeros from it.
    """
    each = [flags] if isinstance(flags, VariantFlags) else list(flags)

    def gate(on):  # True or False where every slice agrees, else a bool per slice
        mask = np.array([bool(on(f)) for f in each])
        return mask if mask.any() and not mask.all() else bool(mask[0])
    class_on, self_on, adv_on, inst_on, ent_on = map(gate, (
        lambda f: f.class_sel, lambda f: f.self_training and pseudo is not None,
        lambda f: f.adversary != "none", lambda f: f.instance_sel, lambda f: f.entropy_min))
    k = bundle.num_classes
    w_eff = np.where(np.expand_dims(class_on, -1), class_weights, 1.0)
    b = sched.batch_size
    domains = np.concatenate([np.ones(b), np.zeros(b)])
    fixed_inst = np.ones((2 * b, 1)) if each[0].adversary == "single" else _uniform_rows(2 * b, k)
    breakdowns, no_self = [], Tensor(np.zeros(bundle.classifier.layers[0][0].shape[:-2]))
    try:
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
            l_self = no_self if self_on is False else \
                self_training_loss(preds_tgt, pseudo[..., tgt_idx], w_eff, self_on)

            l_adv = None
            if adv_on is not False:
                domain_logits = d_forward(bundle.discriminator, f, lam)
                # Detached: instance weights are constants, and never written to.
                inst = preds.data if inst_on is True else fixed_inst if inst_on is False \
                    else np.where(inst_on[:, None, None], preds.data, fixed_inst)
                l_adv = adversarial_loss(domain_logits, inst, domains, w_eff,
                                         use_class_sel=class_on is not False,
                                         use_entropy_w=ent_on, on=adv_on)

            regs = ()
            if ent_on is not False:
                regs = (T.entropy_mean(preds_tgt, ENTROPY_MIN_COEF, ent_on),)

            breakdown, total = compose_objective(l_sup, l_self, l_adv, regs)
            backward(total)
            opt.step(lr)
            steps_done += 1
            breakdowns.append(breakdown)
    except FloatingPointError as exc:
        raise FloatingPointError(f"step {steps_done + 1}: {exc}") from None
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


@np.errstate(all="ignore")  # a value gone non-finite raises FloatingPointError, unwarned
def run_experiments(source: Dataset, target: Dataset, oracle: OracleContext | None,
                    arch: ArchSpec, flags_seq, sched: Schedule, seed: int,
                    full_audit: bool = True) -> list[ExperimentResult]:
    """Full training runs, one per flags, with one metrics record per epoch
    (plus epoch 0) each.  The runs share ``seed`` and a network shape, so they
    train from one draw on the same batches as the slices of one program, each
    bit-equal to its run alone; if it fails, each run trains alone.

    Oracle-dependent fields (accuracy, bound report, confusion matrix)
    are None when no oracle labels are available.  With an oracle, every
    record asserts the bound's intermediate inequality.  ``full_audit``
    False keeps that assertion and the accuracy but skips the reported
    terms: no source-domain forward and no divergence proxy, and every
    record's ``bound`` is None.  Training itself is the same either way;
    the proxy draws only from the ``divergence`` substream.  With the full
    audit, a domain too small for the proxy's train/test split is a
    ValueError before any training step.  A value gone non-finite is a
    FloatingPointError naming the epoch and step, or the epoch's snapshot.
    """
    if source.y is None:
        raise ValueError("run_experiment needs a labeled source dataset")
    if len({(f.adversary == "single", f.shared_trunk) for f in flags_seq}) != 1:
        raise ValueError("stacked runs must share one network shape")
    n = len(flags_seq)
    lead = slice(None) if n > 1 else 0  # a solo run trains a plain bundle
    data_rng = substream(seed, "data")
    div_rngs = [substream(seed, "divergence") for _ in flags_seq]

    k = arch.num_classes
    num_heads = 1 if flags_seq[0].adversary == "single" else k
    bundle = map_bundle(init_bundle(arch, substream(seed, "init"), num_heads=num_heads,
                                    shared_trunk=flags_seq[0].shared_trunk),
                        lambda a: np.stack([a] * n)[lead])
    opt = MomentumSGD(bundle.parameters(), sched.momentum)
    total_steps = steps_per_epoch(len(source), len(target), sched.batch_size) \
        * sched.total_epochs
    if oracle is not None and full_audit:  # only these source rows reach the report
        shared = in_classes(source.y, oracle.shared_classes)
        x_src, y_src = source.x[shared], source.y[shared]
        proxy_test_rows(len(x_src), "source rows in the shared classes")
        proxy_test_rows(len(target), "target rows")

    def features_and_preds(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f = extract_features(bundle, x)
        with no_grad():
            preds = g_forward(bundle.classifier, Tensor(f)).data
        return f.reshape(n, *f.shape[-2:]), preds.reshape(n, *preds.shape[-2:])

    def snapshot(epoch: int, losses=(None,) * n) -> tuple[list, np.ndarray, np.ndarray]:
        """Each run's record for the epoch, plus the target predictions and
        class weights they were computed from, which the next epoch starts with."""
        f_t, preds_t = features_and_preds(target.x)
        if oracle is not None and full_audit:
            f_s, preds_s = features_and_preds(x_src)
        records = []
        for i, p_t in enumerate(preds_t):
            w = class_transferable_probability(p_t)
            accuracy = bound = None
            if oracle is not None:
                accuracy = float(np.mean(p_t.argmax(axis=1) == oracle.target_labels))
                if full_audit:
                    bound = check_bound(p_t, oracle, preds_s[i], y_src, f_s[i], f_t[i],
                                        div_rngs[i], epoch)
                else:
                    intermediate_terms(p_t, oracle, epoch)
            records.append(MetricsRecord(epoch=epoch, target_accuracy=accuracy,
                                         class_weights=[float(v) for v in w],
                                         losses=losses[i], bound=bound))
        return records, preds_t, np.array([r.class_weights for r in records])

    runs, epoch_seconds, steps_done = [], [], 0
    where = "epoch 0 snapshot"
    try:
        records, preds_t, w = snapshot(0)
        runs.append(records)
        for e in range(sched.total_epochs):
            t0 = time.perf_counter()
            where = f"epoch {e + 1}"
            warm = e < sched.warmup_epochs
            eff_flags = flags_seq if not warm else [
                replace(flags, class_sel=False, entropy_min=False) for flags in flags_seq]
            pseudo = assign_pseudo_labels(preds_t[lead]) if not warm and any(
                flags.self_training for flags in flags_seq) else None
            breakdowns, steps_done = train_epoch(
                bundle, opt, source, target, w[lead], pseudo, eff_flags[lead], sched,
                steps_done, total_steps, data_rng)
            where += " snapshot"
            records, preds_t, w = snapshot(e + 1, [
                _mean_breakdown(b) for b in (zip(*breakdowns) if n > 1 else [breakdowns])])
            epoch_seconds.append(time.perf_counter() - t0)
            runs.append(records)
    except Exception as exc:
        if n > 1:
            return [run_experiment(source, target, oracle, arch, flags, sched, seed, full_audit)
                    for flags in flags_seq]
        if isinstance(exc, FloatingPointError):
            raise FloatingPointError(f"{where}: {exc}") from None
        raise

    # The last snapshot's predictions are the final models'.
    return [ExperimentResult(
        records=[epoch[i] for epoch in runs],
        confusion=None if oracle is None else _score(preds_t[i], oracle.target_labels, k)[1],
        bundle=map_bundle(bundle, lambda a: a[i]) if n > 1 else bundle,
        epoch_seconds=epoch_seconds)
        for i in range(n)]


def run_experiment(source: Dataset, target: Dataset, oracle: OracleContext | None,
                   arch: ArchSpec, flags: VariantFlags, sched: Schedule,
                   seed: int, full_audit: bool = True) -> ExperimentResult:
    """The one run of :func:`run_experiments` with ``flags``."""
    return run_experiments(source, target, oracle, arch, (flags,), sched, seed, full_audit)[0]
