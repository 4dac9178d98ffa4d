import math

import numpy as np
import pytest

from pdalab.selection import (
    class_transferable_probability,
    entropy_weights,
    true_class_weights,
)


class TestClassTransferableProbability:
    def test_uniform_rows_give_uniform_weights(self):
        preds = np.full((10, 4), 0.25)
        assert np.allclose(class_transferable_probability(preds), 0.25)

    def test_opposing_one_hots(self):
        w = class_transferable_probability([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(w, [0.5, 0.5])

    def test_column_means(self):
        w = class_transferable_probability([[0.9, 0.1], [0.7, 0.3]])
        assert np.allclose(w, [0.8, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_transferable_probability(np.zeros((0, 3)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        preds = rng.dirichlet(np.ones(5), size=40)
        perm = rng.permutation(5)
        assert np.allclose(class_transferable_probability(preds[:, perm]),
                           class_transferable_probability(preds)[perm])

    def test_output_on_simplex(self):
        rng = np.random.default_rng(1)
        preds = rng.dirichlet(np.ones(6), size=100)
        w = class_transferable_probability(preds)
        assert abs(w.sum() - 1.0) < 1e-9
        assert (w >= 0).all() and (w <= 1).all()

    def test_one_hot_rows_match_true_weights(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 4, size=50)
        one_hot = np.eye(4)[labels]
        assert np.array_equal(class_transferable_probability(one_hot),
                              true_class_weights(labels, 4))


class TestTrueClassWeights:
    def test_single_class(self):
        assert np.allclose(true_class_weights([0, 0], 3), [1.0, 0.0, 0.0])

    def test_two_classes(self):
        assert np.allclose(true_class_weights([0, 1], 3), [0.5, 0.5, 0.0])

    def test_uniform_labels(self):
        assert np.allclose(true_class_weights([0, 1, 2, 3], 4), 0.25)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            true_class_weights([0, 3], 3)


def entropy_weight(row) -> float:
    return float(entropy_weights([row])[0])


class TestEntropyWeight:
    def test_one_hot_maximizes(self):
        assert entropy_weight([0.0, 1.0, 0.0]) == pytest.approx(2.0)

    def test_uniform_two(self):
        assert entropy_weight([0.5, 0.5]) == pytest.approx(1.0 + math.exp(-math.log(2.0)))
        assert entropy_weight([0.5, 0.5]) == pytest.approx(1.5)

    def test_uniform_four(self):
        assert entropy_weight([0.25] * 4) == pytest.approx(1.25)

    def test_extremes_are_unique(self):
        rng = np.random.default_rng(3)
        k = 5
        uniform_value = 1.0 + 1.0 / k
        for row in rng.dirichlet(np.ones(k) * 0.7, size=200):
            w = entropy_weight(row)
            one_hot_like = np.isclose(row.max(), 1.0)
            uniform_like = np.allclose(row, 1.0 / k)
            if not one_hot_like:
                assert w < 2.0
            if not uniform_like:
                assert w > uniform_value
        assert entropy_weight(np.eye(k)[0]) == pytest.approx(2.0)
        assert entropy_weight(np.full(k, 1.0 / k)) == pytest.approx(uniform_value)

    def test_entries_below_a_thousandth_count_at_their_own_log(self):
        """1 + exp(-H) with H = -sum p log p over the row's positive entries: an entry
        of 1e-4 adds -1e-4 * log(1e-4) to H, at no floor but the smallest float's."""
        rows = np.array([[1.0 - 3e-4, 2e-4, 1e-4], [0.5, 0.5 - 4e-4, 4e-4],
                         [0.9, 0.1 - 1e-6, 1e-6], [1.0, 0.0, 0.0]])
        want = [1.0 + math.exp(sum(v * math.log(v) for v in row if v > 0.0)) for row in rows]
        assert entropy_weights(rows) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_batch_matches_rowwise(self):
        rng = np.random.default_rng(4)
        preds = rng.dirichlet(np.ones(3), size=20)
        batch = entropy_weights(preds)
        assert np.allclose(batch, [entropy_weight(r) for r in preds])
