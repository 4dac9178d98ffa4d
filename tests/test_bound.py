import itertools

import numpy as np
import pytest

from pdalab.bound import (
    BoundViolationError,
    OracleContext,
    PROXY_RIDGE,
    _fit_logistic,
    check_bound,
    delta_bar,
    estimate_hdh_divergence,
    in_classes,
    intermediate_terms,
    restricted_argmax,
    shared_error,
    type1_error,
    w_estimation_error,
)
from pdalab.selection import class_transferable_probability, true_class_weights


def intermediate_rhs(preds, oracle):
    return 2.0 * (delta_bar(preds)
                  + type1_error(preds, oracle.shared_classes)
                  + shared_error(preds, oracle.target_labels, oracle.shared_classes))


class TestInClasses:
    def test_agrees_with_isin(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            k = int(rng.integers(1, 9))
            classes = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
            labels = rng.integers(-3, 12, size=int(rng.integers(0, 30)))
            assert np.array_equal(in_classes(labels, classes), np.isin(labels, classes))

    @pytest.mark.parametrize("classes", [(), (-1, 2)])
    def test_needs_nonnegative_classes(self, classes):
        with pytest.raises(ValueError):
            in_classes(np.array([0]), classes)


class TestOracleContext:
    def test_labels_outside_shared_rejected(self):
        with pytest.raises(ValueError):
            OracleContext((0, 1), np.array([0, 2]))

    def test_empty_shared_rejected(self):
        with pytest.raises(ValueError):
            OracleContext((), np.array([]))

    def test_shared_set_is_sorted_and_deduped(self):
        ctx = OracleContext((2, 0, 2), np.array([0, 2]))
        assert ctx.shared_classes == (0, 2)


class TestDeltaBar:
    def test_one_hot_rows(self):
        assert delta_bar(np.eye(4)[[0, 2, 3]]) == 0.0

    def test_single_row(self):
        assert delta_bar([[0.6, 0.4]]) == pytest.approx(0.4)

    def test_uniform_rows(self):
        k = 5
        assert delta_bar(np.full((7, k), 1.0 / k)) == pytest.approx(1.0 - 1.0 / k)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = rng.integers(2, 6)
            preds = rng.dirichlet(np.ones(k), size=10)
            db = delta_bar(preds)
            assert 0.0 <= db <= 1.0 - 1.0 / k + 1e-12


class TestType1Error:
    def test_all_in_shared(self):
        preds = np.eye(3)[[0, 1, 0]]
        assert type1_error(preds, (0, 1)) == 0.0

    def test_half_outliers(self):
        preds = np.eye(3)[[0, 2]]
        assert type1_error(preds, (0, 1)) == pytest.approx(0.5)

    def test_closed_set_is_zero(self):
        rng = np.random.default_rng(1)
        preds = rng.dirichlet(np.ones(4), size=20)
        assert type1_error(preds, range(4)) == 0.0


class TestRestrictedArgmax:
    def test_no_restriction_is_plain_argmax(self):
        rng = np.random.default_rng(2)
        preds = rng.dirichlet(np.ones(5), size=30)
        assert np.array_equal(restricted_argmax(preds, range(5)), preds.argmax(axis=1))

    def test_restricted_pick(self):
        assert restricted_argmax([[0.2, 0.3, 0.5]], (0, 1)).tolist() == [1]

    def test_one_hot_inside_shared(self):
        assert restricted_argmax([[0.0, 1.0, 0.0]], (0, 1)).tolist() == [1]

    def test_tie_breaks_to_lowest_class(self):
        assert restricted_argmax([[0.4, 0.4, 0.2]], (0, 1)).tolist() == [0]


class TestSharedError:
    def test_perfect_predictions(self):
        preds = np.eye(3)[[0, 1]]
        assert shared_error(preds, [0, 1], (0, 1)) == 0.0

    def test_total_error(self):
        preds = np.eye(3)[[1, 0]]
        assert shared_error(preds, [0, 1], (0, 1)) == 1.0

    def test_label_outside_shared_rejected(self):
        with pytest.raises(ValueError):
            shared_error(np.eye(3)[[0]], [2], (0, 1))


def _ridge_gradient(x, y, w, b):
    """Gradient of the proxy's objective, written out plainly."""
    x1 = np.hstack([x, np.ones((len(x), 1))])
    theta = np.append(w, b)
    p = 1.0 / (1.0 + np.exp(-(x1 @ theta)))
    return x1.T @ (p - y) + PROXY_RIDGE * len(x) * theta


def _count_newton_steps(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(1)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return calls


class TestDivergenceProxy:
    @pytest.mark.parametrize("seed", range(5))
    def test_fit_is_stationary_point_of_ridge_objective(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(20, 600)), int(rng.integers(1, 17))
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        w, b = _fit_logistic(x, y)
        assert np.abs(_ridge_gradient(x, y, w, b)).max() <= 1e-8 * n

    @pytest.mark.parametrize("case", ["separable", "constant_and_duplicate_columns",
                                      "imbalance_10_to_1"])
    def test_hard_problems_converge_well_inside_the_cap(self, case, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(440, 6))
        y = (x[:, 0] > 0).astype(float)
        if case == "constant_and_duplicate_columns":
            x[:, 1] = 0.0
            x[:, 2] = 3.0
            x[:, 3] = x[:, 4]
            y = (rng.random(440) < 0.5).astype(float)
        elif case == "imbalance_10_to_1":
            y = np.r_[np.ones(40), np.zeros(400)]
            x[:40] += 0.5
        steps = _count_newton_steps(monkeypatch)
        w, b = _fit_logistic(x, y)
        assert len(steps) <= 15
        assert np.isfinite(w).all() and np.isfinite(b)
        assert np.abs(_ridge_gradient(x, y, w, b)).max() <= 1e-8 * len(x)

    @pytest.mark.parametrize("case", ["separable", "constant_columns"])
    def test_degenerate_features_give_finite_proxy(self, case):
        rng = np.random.default_rng(12)
        src, tgt = rng.normal(size=(200, 5)), rng.normal(size=(150, 5))
        if case == "separable":
            src[:, 0] += 50.0
        else:
            src[:, 1:4] = 1.0
            tgt[:, 1:4] = 1.0
        proxy = estimate_hdh_divergence(src, tgt, np.random.default_rng(0))
        assert np.isfinite(proxy) and 0.0 <= proxy <= 2.0

    def test_same_rng_state_same_float(self):
        rng = np.random.default_rng(13)
        src, tgt = rng.normal(size=(300, 16)) + 0.3, rng.normal(size=(300, 16))
        a = estimate_hdh_divergence(src, tgt, np.random.default_rng(5))
        b = estimate_hdh_divergence(src, tgt, np.random.default_rng(5))
        assert a == b

    def test_identical_sets_indistinguishable(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(120, 8))
        proxy = estimate_hdh_divergence(feats, feats.copy(), np.random.default_rng(0))
        assert proxy < 0.3

    def test_separated_clusters_near_two(self):
        rng = np.random.default_rng(4)
        src = rng.normal(size=(100, 4)) + 20.0
        tgt = rng.normal(size=(100, 4)) - 20.0
        proxy = estimate_hdh_divergence(src, tgt, np.random.default_rng(1))
        assert proxy > 1.5

    def test_symmetry_within_noise(self):
        rng = np.random.default_rng(5)
        src = rng.normal(size=(150, 6)) + 0.8
        tgt = rng.normal(size=(150, 6))
        diffs = []
        for seed in range(5):
            a = estimate_hdh_divergence(src, tgt, np.random.default_rng(seed))
            b = estimate_hdh_divergence(tgt, src, np.random.default_rng(seed))
            diffs.append(abs(a - b))
        assert np.mean(diffs) < 0.25

    def test_degenerate_split_rejected(self):
        with pytest.raises(ValueError):
            estimate_hdh_divergence(np.zeros((2, 3)), np.zeros((100, 3)),
                                    np.random.default_rng(0))

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        proxy = estimate_hdh_divergence(rng.normal(size=(50, 3)),
                                        rng.normal(size=(50, 3)),
                                        np.random.default_rng(2))
        assert proxy >= 0.0


class TestInequality:
    def test_worked_two_sample_case(self):
        oracle = OracleContext((0, 1), np.array([0, 1]))
        preds = np.array([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
        w_true = true_class_weights(oracle.target_labels, 3)
        assert np.allclose(w_true, [0.5, 0.5, 0.0])
        assert np.allclose(preds.mean(axis=0), [0.4, 0.3, 0.3])
        assert w_estimation_error(preds, oracle) == pytest.approx(0.6)
        assert delta_bar(preds) == pytest.approx(0.45)
        assert type1_error(preds, oracle.shared_classes) == pytest.approx(0.5)
        assert shared_error(preds, oracle.target_labels, oracle.shared_classes) == 0.0
        assert intermediate_rhs(preds, oracle) == pytest.approx(1.9)
        assert 0.6 <= 1.9

    def test_all_correct_one_hot(self):
        oracle = OracleContext((0, 1), np.array([0, 1, 0]))
        preds = np.eye(3)[[0, 1, 0]]
        assert w_estimation_error(preds, oracle) == 0.0
        assert intermediate_rhs(preds, oracle) == 0.0

    def test_exhaustive_hard_predictions(self):
        # Every hard-prediction assignment of 4 target samples over 3 classes.
        oracle = OracleContext((0, 1), np.array([0, 0, 1, 1]))
        eye = np.eye(3)
        for assignment in itertools.product(range(3), repeat=4):
            preds = eye[list(assignment)]
            lhs = w_estimation_error(preds, oracle)
            assert lhs <= intermediate_rhs(preds, oracle) + 1e-9

    def test_property_random_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 30))
            shared = tuple(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
            labels = rng.choice(shared, size=n)
            alpha = rng.uniform(0.05, 5.0)
            preds = rng.dirichlet(np.full(k, alpha), size=n)
            oracle = OracleContext(shared, labels)
            lhs = w_estimation_error(preds, oracle)
            assert lhs <= intermediate_rhs(preds, oracle) + 1e-9
            assert 0.0 <= lhs <= 2.0

    def test_hard_predictions_match_total_variation(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 40))
            shared = tuple(range(k))
            labels = rng.integers(0, k, size=n)
            hard = rng.integers(0, k, size=n)
            preds = np.eye(k)[hard]
            oracle = OracleContext(shared, labels)
            freq_true = np.bincount(labels, minlength=k) / n
            freq_pred = np.bincount(hard, minlength=k) / n
            tv = 0.5 * np.abs(freq_true - freq_pred).sum()
            assert w_estimation_error(preds, oracle) == pytest.approx(2.0 * tv, abs=1e-12)


class TestCheckBound:
    def _inputs(self, seed=0):
        rng = np.random.default_rng(seed)
        oracle = OracleContext((0, 1, 2), rng.integers(0, 3, size=60))
        target_preds = rng.dirichlet(np.ones(5), size=60)
        source_labels = rng.integers(0, 5, size=100)
        source_preds = rng.dirichlet(np.ones(5), size=100)
        src_feats = rng.normal(size=(100, 6))
        tgt_feats = rng.normal(size=(60, 6))
        shared = source_labels < 3  # check_bound reads the shared-class source rows alone
        return (oracle, target_preds, source_preds[shared], source_labels[shared],
                src_feats[shared], tgt_feats)

    def test_report_fields_consistent(self):
        oracle, tp, sp, sl, sf, tf = self._inputs()
        rep = check_bound(tp, oracle, sp, sl, sf, tf, np.random.default_rng(1), epoch=3)
        assert rep.epoch == 3
        assert abs(rep.rhs_intermediate
                   - 2.0 * (rep.delta_bar + rep.e_type1 + rep.e_tgt_shared)) < 1e-12
        assert abs(rep.rhs_full
                   - 2.0 * (rep.delta_bar + rep.e_type1 + rep.e_src_shared
                            + rep.d_hdh_proxy)) < 1e-12
        assert rep.w_error_l1 <= rep.rhs_intermediate + 1e-9
        assert 0.0 <= rep.delta_bar <= 1.0
        assert 0.0 <= rep.e_type1 <= 1.0
        assert 0.0 <= rep.w_error_l1 <= 2.0
        assert rep.d_hdh_proxy >= 0.0

    def test_round_trip_dict(self):
        oracle, tp, sp, sl, sf, tf = self._inputs(1)
        rep = check_bound(tp, oracle, sp, sl, sf, tf, np.random.default_rng(2))
        from pdalab.bound import BoundReport
        from pdalab.metrics import from_plain, to_plain
        assert from_plain(BoundReport, to_plain(rep), "bound") == rep

    def test_perfect_predictions_zero_terms(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=40)
        oracle = OracleContext((0, 1), labels)
        target_preds = np.eye(4)[labels]
        source_labels = np.repeat(np.arange(2), 20)
        source_preds = np.eye(4)[source_labels]
        rep = check_bound(target_preds, oracle, source_preds, source_labels,
                          rng.normal(size=(40, 5)), rng.normal(size=(40, 5)),
                          np.random.default_rng(4))
        assert rep.w_error_l1 == 0.0
        assert rep.delta_bar == 0.0
        assert rep.e_type1 == 0.0
        assert rep.e_tgt_shared == 0.0

    def test_intermediate_terms_are_the_report_fields(self):
        oracle, tp, sp, sl, sf, tf = self._inputs(2)
        rep = check_bound(tp, oracle, sp, sl, sf, tf, np.random.default_rng(3), epoch=5)
        terms = intermediate_terms(tp, oracle, epoch=5)
        assert set(terms) == {"delta_bar", "e_type1", "e_tgt_shared", "w_error_l1",
                              "rhs_intermediate"}
        assert terms == {name: getattr(rep, name) for name in terms}

    def test_a_source_label_outside_the_shared_classes_raises(self):
        oracle, tp, sp, sl, sf, tf = self._inputs(3)
        sl = sl.copy()
        sl[0] = 4
        with pytest.raises(ValueError, match="^labels must lie inside the shared class set$"):
            check_bound(tp, oracle, sp, sl, sf, tf, np.random.default_rng(4))

    def test_violation_names_the_epoch_before_any_proxy_fit(self, monkeypatch):
        import pdalab.bound

        def no_proxy(*args):
            raise AssertionError("the proxy ran before the assertion")

        monkeypatch.setattr(pdalab.bound, "w_estimation_error", lambda *args: 10.0)
        monkeypatch.setattr(pdalab.bound, "estimate_hdh_divergence", no_proxy)
        oracle, tp, sp, sl, sf, tf = self._inputs(4)
        for audit in (lambda: intermediate_terms(tp, oracle, epoch=6),
                      lambda: check_bound(tp, oracle, sp, sl, sf, tf,
                                          np.random.default_rng(0), epoch=6)):
            with pytest.raises(BoundViolationError, match=r"^intermediate inequality "
                                                          r"violated: 10\.0 > .* \(epoch 6\)$"):
                audit()


def _stacked_inputs(slices, k, m, seed=0):
    """An [S, m, K] prediction stack with tied rows, and an oracle over the
    first ``max(3, k // 3)`` classes: a uniform row, a row whose top two
    columns tie across the shared set's edge, and one whose shared columns tie."""
    rng = np.random.default_rng(seed)
    shared = tuple(range(max(3, k // 3)))
    preds = rng.dirichlet(np.full(k, 0.3), size=(slices, m))
    preds[:, 0] = 1.0 / k
    preds[:, 1] = 0.0
    preds[:, 1, [shared[-1], k - 1]] = 0.5
    preds[:, 2] = 0.1 / (k - 2)
    preds[:, 2, [0, shared[-1]]] = 0.45
    labels = rng.integers(0, len(shared), size=m)
    return preds, OracleContext(shared, labels)


class TestStackedTerms:
    """Every target-side term takes a leading slice axis and gives, slice by
    slice, the bits of its call on that slice's matrix."""

    @pytest.mark.parametrize("m", [7, 37])
    @pytest.mark.parametrize("k", [5, 31])
    @pytest.mark.parametrize("slices", [1, 3, 25])
    def test_each_slice_equals_its_matrix_to_the_bit(self, slices, k, m):
        preds, oracle = _stacked_inputs(slices, k, m, seed=slices * k + m)
        shared, labels = oracle.shared_classes, oracle.target_labels
        terms = {
            "delta_bar": delta_bar,
            "type1_error": lambda p: type1_error(p, shared),
            "restricted_argmax": lambda p: restricted_argmax(p, shared),
            "shared_error": lambda p: shared_error(p, labels, shared),
            "w_estimation_error": lambda p: w_estimation_error(p, oracle),
            "class_transferable_probability": class_transferable_probability,
        }
        for name, term in terms.items():
            stacked = term(preds)
            assert stacked.shape[0] == slices, name
            assert stacked.tobytes() == np.array([term(p) for p in preds]).tobytes(), name
        each = [intermediate_terms(p, oracle) for p in preds]
        for name, values in intermediate_terms(preds, oracle).items():
            assert values.tobytes() == np.array([t[name] for t in each]).tobytes(), name

    def test_the_report_holds_python_floats(self):
        preds, oracle = _stacked_inputs(1, 5, 7)
        rep = check_bound(preds[0], oracle, preds[0], oracle.target_labels,
                          preds[0], preds[0], np.random.default_rng(0))
        assert all(type(getattr(rep, f)) is float for f in rep.__dataclass_fields__
                   if f != "epoch")

    def test_a_failing_second_slice_names_the_epoch(self, monkeypatch):
        import pdalab.bound

        preds, oracle = _stacked_inputs(3, 5, 7)
        rhs = intermediate_terms(preds, oracle)["rhs_intermediate"]
        monkeypatch.setattr(pdalab.bound, "w_estimation_error",
                            lambda *args: np.array([0.0, 10.0, 20.0]))
        with pytest.raises(BoundViolationError, match=rf"^intermediate inequality violated: "
                                                      rf"10\.0 > {float(rhs[1])!r} \(epoch 4\)$"):
            intermediate_terms(preds, oracle, epoch=4)
