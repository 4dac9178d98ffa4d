import math

import numpy as np
import pytest

from pdalab import tensor as T
from pdalab.losses import (
    LossBreakdown,
    adversarial_loss,
    assign_pseudo_labels,
    compose_objective,
    self_training_loss,
    supervised_loss,
)
from pdalab.nets import ArchSpec, d_forward, f_forward, g_forward, init_bundle
from pdalab.tensor import Tensor, backward, reset_tape, zero_grad


def simplex_rows(rng, m, k):
    return rng.dirichlet(np.ones(k), size=m)


def logit(p):
    """The logit whose sigmoid is the probability ``p``."""
    p = np.asarray(p, dtype=np.float64)
    return np.log(p) - np.log1p(-p)


class TestSupervisedLoss:
    def test_uniform_weights_factor_out(self):
        rng = np.random.default_rng(0)
        preds = simplex_rows(rng, 8, 4)
        labels = rng.integers(0, 4, size=8)
        weighted = supervised_loss(Tensor(preds), labels, np.full(4, 0.25)).item()
        plain = supervised_loss(Tensor(preds), labels, np.ones(4)).item()
        assert weighted == pytest.approx(plain / 4)

    def test_zero_weight_classes_contribute_nothing(self):
        preds = Tensor([[0.3, 0.7], [0.6, 0.4]])
        assert supervised_loss(preds, [0, 1], [0.0, 0.0]).item() == 0.0

    def test_worked_example(self):
        loss = supervised_loss(Tensor([[0.5, 0.5]]), [0], [0.8, 0.2]).item()
        assert loss == pytest.approx(0.8 * math.log(2.0), abs=1e-9)
        assert loss == pytest.approx(0.554518, abs=1e-6)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            supervised_loss(Tensor(np.zeros((0, 2))), np.zeros(0, dtype=int), [0.5, 0.5])

    def test_linear_in_class_weights(self):
        rng = np.random.default_rng(1)
        preds = simplex_rows(rng, 10, 3)
        labels = rng.integers(0, 3, size=10)
        w = rng.uniform(0.1, 1.0, size=3)
        base = supervised_loss(Tensor(preds), labels, w).item()
        scaled = supervised_loss(Tensor(preds), labels, 3.7 * w).item()
        assert scaled == pytest.approx(3.7 * base, rel=1e-12)


class TestPseudoLabels:
    def test_one_hot(self):
        assert assign_pseudo_labels([[0.0, 0.0, 1.0]]).tolist() == [2]

    def test_tie_breaks_to_lowest_index(self):
        assert assign_pseudo_labels([[0.25, 0.25, 0.25, 0.25]]).tolist() == [0]

    def test_argmax(self):
        assert assign_pseudo_labels([[0.2, 0.5, 0.3]]).tolist() == [1]


class TestSelfTrainingLoss:
    def test_one_hot_predictions_give_zero(self):
        preds = np.eye(3)[[0, 2, 1]]
        pseudo = assign_pseudo_labels(preds)
        loss = self_training_loss(Tensor(preds), pseudo, np.ones(3))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_worked_example(self):
        loss = self_training_loss(Tensor([[0.5, 0.5]]), [0], [0.6, 0.4])
        assert loss.item() == pytest.approx(0.6 * math.log(2.0), abs=1e-9)
        assert loss.item() == pytest.approx(0.415888, abs=1e-6)


class TestAdversarialLoss:
    def test_single_class_bce_at_half(self):
        dp = Tensor([[0.0]])  # logit 0: probability one half
        loss = adversarial_loss(dp, [[1.0]], [1], [1.0],
                                use_class_sel=False, use_entropy_w=False)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_class_weight_silences_head(self):
        rng = np.random.default_rng(2)
        probs = rng.uniform(0.1, 0.9, size=(6, 3))
        dp = Tensor(logit(probs))
        preds = simplex_rows(rng, 6, 3)
        d = np.array([1, 1, 1, 0, 0, 0])
        full = adversarial_loss(dp, preds, d, [0.5, 0.5, 0.0],
                                use_class_sel=True, use_entropy_w=False).item()
        # Recompute with head 2 excluded entirely.
        manual = 0.0
        for k, wk in enumerate([0.5, 0.5]):
            p = probs[:, k]
            bce = -(d * np.log(p) + (1 - d) * np.log(1 - p))
            manual += np.mean(wk * preds[:, k] * bce)
        assert full == pytest.approx(manual, rel=1e-12)

    def test_one_hot_instance_weight_routes_single_head(self):
        dp = Tensor(logit([[0.3, 0.6, 0.9]]))
        one_hot = np.array([[0.0, 1.0, 0.0]])
        loss = adversarial_loss(dp, one_hot, [1], np.ones(3),
                                use_class_sel=False, use_entropy_w=False).item()
        assert loss == pytest.approx(-math.log(0.6), abs=1e-12)

    def test_misaligned_batch_rejected(self):
        with pytest.raises(ValueError):
            adversarial_loss(Tensor(np.full((2, 2), 0.5)), np.full((3, 2), 0.5),
                             [1, 0], np.ones(2), False, False)

    def test_dann_equivalence_single_head(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.05, 0.95, size=8)
        dp = Tensor(logit(p)[:, None])
        d = rng.integers(0, 2, size=8)
        loss = adversarial_loss(dp, np.ones((8, 1)), d, np.ones(1),
                                use_class_sel=False, use_entropy_w=False).item()
        expected = np.mean(-(d * np.log(p) + (1 - d) * np.log(1 - p)))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_entropy_weighting_multiplies_rowwise(self):
        rng = np.random.default_rng(4)
        preds = simplex_rows(rng, 5, 2)
        dp = Tensor(rng.uniform(0.2, 0.8, size=(5, 2)))
        d = np.array([1, 0, 1, 0, 1])
        base = adversarial_loss(dp, preds, d, np.ones(2), False, False).item()
        weighted = adversarial_loss(dp, preds, d, np.ones(2), False, True).item()
        assert weighted > base  # entropy weights are > 1

    def test_saturated_heads_match_central_differences(self):
        # Head logits near 20 on target rows: 1 - sigmoid(z) is about 2e-9,
        # too close to 1 for a log of a probability to keep its digits.
        arch = ArchSpec(in_dim=2, num_classes=3, hidden=(4,))
        bundle = init_bundle(arch, np.random.default_rng(31))
        w_head, b_head, _ = bundle.discriminator.layers[-1]
        b_head.data[...] = 20.0
        rng = np.random.default_rng(32)
        x = rng.normal(size=(6, 2))
        inst = simplex_rows(rng, 6, 3)
        d = np.array([1, 1, 0, 0, 0, 0])
        with T.no_grad():
            z = f_forward(bundle.features, x).data @ w_head.data + b_head.data
        assert np.abs(np.abs(z) - 20.0).max() < 5.0

        def loss():
            # lam = -1: the reversal scales by +1, so every gradient is plain descent.
            logits = d_forward(bundle.discriminator, f_forward(bundle.features, x), -1.0)
            return adversarial_loss(logits, inst, d, np.ones(3), False, False)

        reset_tape()
        zero_grad(bundle.parameters())
        backward(loss())
        params = bundle.features.parameters() + bundle.discriminator.parameters()
        worst, h = 0.0, 1e-5
        for p in params:
            for idx in np.ndindex(p.shape):
                orig = p.data[idx]
                with T.no_grad():
                    p.data[idx] = orig + h
                    hi = loss().item()
                    p.data[idx] = orig - h
                    lo = loss().item()
                p.data[idx] = orig
                fd = (hi - lo) / (2 * h)
                auto = 0.0 if p.grad is None else p.grad[idx]
                worst = max(worst, abs(auto - fd) / max(abs(auto), abs(fd), 1.0))
        assert worst < 1e-6, worst

    def test_confidently_wrong_head_keeps_its_gradient(self):
        # A source row (d = 1) whose every head says "target" at logit -40.
        arch = ArchSpec(in_dim=2, num_classes=3)
        bundle = init_bundle(arch, np.random.default_rng(33))
        w_head, b_head, _ = bundle.discriminator.layers[-1]
        w_head.data[...] = 0.0
        b_head.data[...] = -40.0
        class_w = np.array([0.5, 1.0, 2.0])
        x = np.random.default_rng(34).normal(size=(2, 2))
        inst = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])  # the target row is silent
        reset_tape()
        zero_grad(bundle.parameters())
        logits = d_forward(bundle.discriminator, f_forward(bundle.features, x), 1.0)
        backward(adversarial_loss(logits, inst, [1, 0], class_w, True, False))
        assert b_head.grad == pytest.approx(-class_w / 2, rel=1e-12)
        assert np.all(logits.data == -40.0)


class TestObjective:
    def test_zero_adversarial_term(self):
        b, _ = compose_objective(Tensor(1.5), Tensor(0.25), None)
        assert b.objective == pytest.approx(1.75)
        assert b.l_adv == 0.0

    def test_breakdown_identity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s, st, a = rng.uniform(0, 3, size=3)
            b, _ = compose_objective(Tensor(s), Tensor(st), Tensor(a))
            assert abs(b.objective - (b.l_sup + b.l_self - b.l_adv)) < 1e-12
            assert b.l_sup >= 0 and b.l_self >= 0 and b.l_adv >= 0

    def test_source_only_variant_is_plain_cross_entropy(self):
        rng = np.random.default_rng(6)
        preds = simplex_rows(rng, 7, 3)
        labels = rng.integers(0, 3, size=7)
        l_sup = supervised_loss(Tensor(preds), labels, np.ones(3))
        b, total = compose_objective(l_sup, Tensor(0.0), None)
        plain = np.mean([-math.log(preds[i, labels[i]]) for i in range(7)])
        assert b.objective == pytest.approx(plain, rel=1e-12)
        assert total.item() == pytest.approx(plain, rel=1e-12)


class TestMinMaxSignContract:
    """Gradient routing of the composite objective on a fixed toy batch."""

    def _setup(self, lam):
        arch = ArchSpec(in_dim=2, num_classes=3, hidden=(6,), disc_hidden=(4,))
        bundle = init_bundle(arch, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        x = rng.normal(size=(10, 2))
        y = rng.integers(0, 3, size=5)
        d = np.array([1] * 5 + [0] * 5)
        return bundle, x, y, d

    def _adv_loss(self, bundle, x, d, lam):
        f = f_forward(bundle.features, x)
        preds = g_forward(bundle.classifier, f)
        dp = d_forward(bundle.discriminator, f, lam)
        return adversarial_loss(dp, preds.data.copy(), d, np.ones(3), False, False)

    def _grads(self, params):
        return [None if p.grad is None else p.grad.copy() for p in params]

    def test_discriminator_gradients_match_descent(self):
        lam = 0.7
        bundle, x, y, d = self._setup(lam)

        reset_tape()
        zero_grad(bundle.parameters())
        f = f_forward(bundle.features, x)
        preds = g_forward(bundle.classifier, f)
        l_sup = supervised_loss(T.slice_rows(preds, 0, 5), y, np.ones(3))
        dp = d_forward(bundle.discriminator, f, lam)
        l_adv = adversarial_loss(dp, preds.data.copy(), d, np.ones(3), False, False)
        _, total = compose_objective(l_sup, Tensor(0.0), l_adv)
        backward(total)
        composite = self._grads(bundle.discriminator.parameters())

        reset_tape()
        zero_grad(bundle.parameters())
        backward(self._adv_loss(bundle, x, d, lam))
        descent = self._grads(bundle.discriminator.parameters())

        for g1, g2 in zip(composite, descent):
            assert np.abs(g1 - g2).max() < 1e-10

    def test_feature_gradients_are_minus_lambda_scaled(self):
        lam = 0.7
        bundle, x, y, d = self._setup(lam)

        reset_tape()
        zero_grad(bundle.parameters())
        backward(self._adv_loss(bundle, x, d, lam))
        with_reversal = self._grads(bundle.features.parameters())

        reset_tape()
        zero_grad(bundle.parameters())
        backward(self._adv_loss(bundle, x, d, 0.0))  # identity-equivalent: no reversal signal
        # recompute with an explicit identity: lam=-1 gives +1 scaling
        reset_tape()
        zero_grad(bundle.parameters())
        backward(self._adv_loss(bundle, x, d, -1.0))
        plain_descent = self._grads(bundle.features.parameters())

        for g_rev, g_plain in zip(with_reversal, plain_descent):
            assert np.abs(g_rev - (-lam) * g_plain).max() < 1e-10
