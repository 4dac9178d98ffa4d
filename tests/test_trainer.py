import math
from dataclasses import fields, replace

import numpy as np
import pytest

from pdalab import tensor as T
from pdalab.bound import BoundReport
from pdalab.data import Dataset, SyntheticSpec, UNLABELED, generate_toy, steps_per_epoch
from pdalab.losses import assign_pseudo_labels
from pdalab.metrics import to_json_line
from pdalab.nets import ArchSpec, init_bundle
from pdalab.rngstreams import substream
from pdalab.tensor import Tensor
from pdalab.trainer import (
    ABLATION_VARIANTS,
    MomentumSGD,
    PRESETS,
    Schedule,
    VariantFlags,
    adv_ramp,
    evaluate,
    lr_at,
    predict,
    run_experiment,
    train_epoch,
)


def tiny_problem(samples_per_class=12, seed=0):
    spec = SyntheticSpec(seed=seed, samples_per_class=samples_per_class)
    return generate_toy(spec)


def small_sched(**kw):
    defaults = dict(total_epochs=3, warmup_epochs=1, batch_size=8, eta0=0.05)
    defaults.update(kw)
    return Schedule(**defaults)


class TestSchedules:
    def test_lr_at_zero_is_eta0(self):
        sched = Schedule(eta0=0.01)
        assert lr_at(0.0, sched) == 0.01

    def test_lr_at_one(self):
        sched = Schedule(eta0=0.01)
        assert abs(lr_at(1.0, sched) - 0.01 / 11 ** 0.75) < 1e-12

    def test_lr_monotone_nonincreasing(self):
        sched = Schedule(eta0=0.3)
        grid = np.linspace(0, 1, 100)
        vals = [lr_at(p, sched) for p in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_lr_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(1.5, Schedule())

    def test_ramp_zero_exact(self):
        assert adv_ramp(0.0) == 0.0

    def test_ramp_half(self):
        assert adv_ramp(0.5) == pytest.approx(2.0 / (1.0 + math.exp(-5.0)) - 1.0)
        assert adv_ramp(0.5) == pytest.approx(0.98661, abs=1e-5)

    def test_ramp_strictly_increasing(self):
        grid = np.linspace(0, 1, 100)
        vals = [adv_ramp(p) for p in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0


def sgd_step(values, grad, lr, momentum, steps=1):
    """The parameter after ``steps`` MomentumSGD steps with a fixed gradient."""
    p = Tensor(values, requires_grad=True)
    opt = MomentumSGD([p], momentum)
    for _ in range(steps):
        p.grad = np.asarray(grad, dtype=np.float64)
        opt.step(lr)
    return p.data


class TestSgd:
    def test_zero_gradient_zero_velocity_fixed_point(self):
        assert np.array_equal(sgd_step([1.0, -2.0], np.zeros(2), lr=0.1, momentum=0.9),
                              [1.0, -2.0])

    def test_no_momentum_is_plain_descent(self):
        assert np.allclose(sgd_step([1.0], [2.0], lr=0.1, momentum=0.0), [0.8])

    def test_two_steps_constant_gradient(self):
        momentum, lr, g = 0.9, 0.1, np.array([1.5])
        p = sgd_step([0.0], g, lr, momentum, steps=2)
        assert np.allclose(p, -lr * g * (2.0 + momentum))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(2), np.zeros(3), 0.1, 0.9)

    def test_flat_step_is_bit_equal_to_per_parameter_updates(self):
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (4,), (2, 4, 1), (2, 1)]
        values = [rng.normal(size=s) for s in shapes]
        params = [Tensor(v, requires_grad=True) for v in values]
        opt = MomentumSGD(params, 0.9)
        velocities = [np.zeros(s) for s in shapes]
        for lr in (0.1, 0.05, 0.02):
            for i, (p, v) in enumerate(zip(params, velocities)):
                # The last parameter never gets a gradient and never moves.
                p.grad = None if i == len(params) - 1 else rng.normal(size=p.shape)
                if p.grad is not None:
                    v *= 0.9
                    v += p.grad
                    values[i] = values[i] - lr * v
            opt.step(lr)
            for p, expected in zip(params, values):
                assert np.array_equal(p.data, expected)
        assert all(p.data.base is opt.flat for p in params)


class TestVariants:
    def test_preset_flag_mapping(self):
        assert PRESETS["source_only"] == VariantFlags()
        assert PRESETS["dann"] == VariantFlags(adversary="single")
        assert PRESETS["san"] == VariantFlags(instance_sel=True, entropy_min=True,
                                              shared_trunk=False, adversary="multi")
        assert PRESETS["san_pp"] == VariantFlags(instance_sel=True, class_sel=True,
                                                 self_training=True, shared_trunk=True,
                                                 adversary="multi")

    def test_ablation_rows_match_flag_table(self):
        rows = list(ABLATION_VARIANTS.values())
        table = [
            (False, False, False, False),
            (True, False, False, False),
            (True, True, False, False),
            (True, True, False, True),
            (True, True, True, False),
            (True, True, True, False),
        ]
        shared = [True, True, True, True, False, True]
        for row, (inst, cls, self_t, ent), sh in zip(rows, table, shared):
            assert (row.instance_sel, row.class_sel,
                    row.self_training, row.entropy_min) == (inst, cls, self_t, ent)
            assert row.shared_trunk == sh
        assert rows[0].adversary == "none"
        assert all(r.adversary == "multi" for r in rows[1:])

    def test_invalid_flag_combinations(self):
        with pytest.raises(ValueError):
            VariantFlags(instance_sel=True, adversary="single")
        with pytest.raises(ValueError):
            VariantFlags(class_sel=True, adversary="none")
        with pytest.raises(ValueError):
            VariantFlags(adversary="both")


class TestTrainEpoch:
    def test_source_only_matches_hand_unrolled_step(self):
        # One source and one target point, batch 1, no hidden layers: the
        # update must equal the hand-derived softmax cross-entropy step.
        source = Dataset(np.array([[0.5, -1.0]]), np.array([2]), np.array([1]))
        target = Dataset(np.array([[1.0, 1.0]]), np.array([UNLABELED]), np.array([0]))
        arch = ArchSpec(in_dim=2, num_classes=3, hidden=())
        sched = Schedule(eta0=0.1, total_epochs=1, warmup_epochs=0, batch_size=1)
        bundle = init_bundle(arch, np.random.default_rng(5))
        w0 = bundle.classifier.layers[0][0].data.copy()
        b0 = bundle.classifier.layers[0][1].data.copy()

        opt = MomentumSGD(bundle.parameters(), sched.momentum)
        train_epoch(bundle, opt, source, target, np.ones(3), None,
                    PRESETS["source_only"], sched, 0, 1, substream(0, "data"))

        x = source.x
        logits = x @ w0 + b0
        z = logits - logits.max()
        p = np.exp(z) / np.exp(z).sum()
        dlogits = p.copy()
        dlogits[0, 2] -= 1.0  # d(-log p_y)/dlogits = p - onehot(y)
        grad_w = x.T @ dlogits
        grad_b = dlogits[0]
        assert np.allclose(bundle.classifier.layers[0][0].data,
                           w0 - sched.eta0 * grad_w, atol=1e-12)
        assert np.allclose(bundle.classifier.layers[0][1].data,
                           b0 - sched.eta0 * grad_b, atol=1e-12)

    def test_lambda_zero_equals_no_adversary_for_feature_params(self, monkeypatch):
        import pdalab.trainer

        source, target, oracle = tiny_problem()
        arch = ArchSpec(in_dim=2, num_classes=5)
        sched = small_sched()

        def run(flags):
            bundle = init_bundle(arch, substream(3, "init"), num_heads=5,
                                 shared_trunk=True)
            opt = MomentumSGD(bundle.parameters(), sched.momentum)
            rng = substream(3, "data")
            steps = steps_per_epoch(len(source), len(target), sched.batch_size)
            done = 0
            for _ in range(2):
                _, done = train_epoch(bundle, opt, source, target, np.ones(5), None,
                                      flags, sched, done, 2 * steps, rng)
            return bundle

        plain = run(PRESETS["source_only"])
        monkeypatch.setattr(pdalab.trainer, "adv_ramp", lambda p: 0.0)
        adv = run(VariantFlags(instance_sel=True, adversary="multi"))
        for pa, pb in zip(adv.features.parameters() + adv.classifier.parameters(),
                          plain.features.parameters() + plain.classifier.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_class_gate_completeness(self):
        # With class selection off, the class-weight estimate must not
        # influence any gradient: arbitrary w and all-ones w coincide.
        source, target, oracle = tiny_problem(seed=1)
        arch = ArchSpec(in_dim=2, num_classes=5)
        sched = small_sched()
        flags = VariantFlags(instance_sel=True, self_training=True, adversary="multi")

        def run(w):
            bundle = init_bundle(arch, substream(4, "init"), num_heads=5,
                                 shared_trunk=True)
            opt = MomentumSGD(bundle.parameters(), sched.momentum)
            rng = substream(4, "data")
            steps = steps_per_epoch(len(source), len(target), sched.batch_size)
            pseudo = assign_pseudo_labels(predict(bundle, target.x))
            train_epoch(bundle, opt, source, target, w, pseudo, flags, sched,
                        0, steps, rng)
            return np.concatenate([p.data.ravel() for p in bundle.parameters()])

        rng = np.random.default_rng(0)
        assert np.array_equal(run(rng.dirichlet(np.ones(5))), run(np.ones(5)))

    def test_self_training_loss_zero_when_inactive(self):
        source, target, _ = tiny_problem(seed=2)
        arch = ArchSpec(in_dim=2, num_classes=5)
        sched = small_sched()
        bundle = init_bundle(arch, substream(5, "init"), num_heads=5, shared_trunk=True)
        opt = MomentumSGD(bundle.parameters(), sched.momentum)
        steps = steps_per_epoch(len(source), len(target), sched.batch_size)
        breakdowns, _ = train_epoch(bundle, opt, source, target, np.ones(5), None,
                                    PRESETS["san_pp"], sched, 0, steps,
                                    substream(5, "data"))
        assert all(b.l_self == 0.0 for b in breakdowns)

    def test_step_count_and_progress(self):
        source, target, _ = tiny_problem(seed=3)
        sched = small_sched(total_epochs=2)
        arch = ArchSpec(in_dim=2, num_classes=5)
        bundle = init_bundle(arch, substream(6, "init"))
        opt = MomentumSGD(bundle.parameters(), sched.momentum)
        steps = steps_per_epoch(len(source), len(target), sched.batch_size)
        total = steps * 2
        _, done = train_epoch(bundle, opt, source, target, np.ones(5), None,
                              PRESETS["source_only"], sched, 0, total,
                              substream(6, "data"))
        assert done == steps
        _, done = train_epoch(bundle, opt, source, target, np.ones(5), None,
                              PRESETS["source_only"], sched, done, total,
                              substream(6, "data"))
        assert done == total  # progress reaches exactly 1 at the final step


class TestStepCost:
    @pytest.mark.parametrize("variant, disc_hidden", [("san_pp", ()), ("san", (16,))])
    def test_nodes_and_finiteness_checks_per_step(self, monkeypatch, variant, disc_hidden):
        """A step is at most 14 tape nodes and 8 finiteness checks, past warm-up too."""
        import pdalab.trainer

        nodes, checks = [], []
        real_backward = pdalab.trainer.backward

        def counting_backward(loss):
            nodes.append(len(T._tape.nodes))
            real_backward(loss)

        def counting(name):
            real = getattr(T, name)

            def wrapper(*args, **kwargs):
                checks[-1] += 1
                return real(*args, **kwargs)
            return wrapper

        def step_start():
            checks.append(0)
            T.reset_tape()

        source, target, _ = tiny_problem(seed=13)
        arch = ArchSpec(in_dim=2, num_classes=5, disc_hidden=disc_hidden)
        bundle = init_bundle(arch, substream(8, "init"), shared_trunk=variant == "san_pp")
        opt = MomentumSGD(bundle.parameters(), 0.9)
        sched = small_sched()
        steps = steps_per_epoch(len(source), len(target), sched.batch_size)
        pseudo = assign_pseudo_labels(predict(bundle, target.x))
        monkeypatch.setattr(pdalab.trainer, "backward", counting_backward)
        monkeypatch.setattr(pdalab.trainer, "reset_tape", step_start)
        for name in ("_ensure_finite", "_check_sweep"):
            monkeypatch.setattr(T, name, counting(name))
        flags = PRESETS[variant]  # every term of the variant on, as after warm-up
        train_epoch(bundle, opt, source, target, np.full(5, 0.2),
                    pseudo if flags.self_training else None, flags, sched, 0, steps,
                    substream(8, "data"))
        assert len(nodes) == len(checks) == steps
        assert max(nodes) <= 14 and max(checks) <= 8, (nodes, checks)


class TestEvaluate:
    def test_perfect_predictor(self):
        source, target, oracle = tiny_problem(seed=4)
        arch = ArchSpec(in_dim=2, num_classes=5)
        sched = small_sched(total_epochs=8, warmup_epochs=8)
        res = run_experiment(source, target, oracle, arch, PRESETS["source_only"],
                             sched, seed=7)
        acc, conf = evaluate(res.bundle, target.x, oracle.target_labels, 5)
        assert conf.shape == (5, 5)
        assert conf.sum() == len(target)
        # row sums equal per-class sample counts
        counts = np.bincount(oracle.target_labels, minlength=5)
        assert np.array_equal(conf.sum(axis=1), counts)
        assert acc == pytest.approx(np.trace(conf) / conf.sum())

    def test_constant_predictor_single_column(self):
        source, target, oracle = tiny_problem(seed=5)
        arch = ArchSpec(in_dim=2, num_classes=5)
        bundle = init_bundle(arch, np.random.default_rng(0))
        for w, b, _ in bundle.classifier.layers:
            w.data[:] = 0.0
            b.data[:] = 0.0
        bundle.classifier.layers[0][1].data[3] = 10.0  # always predict class 3
        acc, conf = evaluate(bundle, target.x, oracle.target_labels, 5)
        assert np.count_nonzero(conf.sum(axis=0)) == 1
        assert conf[:, 3].sum() == len(target)
        assert acc == 0.0

    def test_empty_rejected(self):
        source, target, oracle = tiny_problem(seed=6)
        bundle = init_bundle(ArchSpec(in_dim=2, num_classes=5),
                             np.random.default_rng(1))
        with pytest.raises(ValueError):
            evaluate(bundle, target.x[:0], oracle.target_labels[:0], 5)


class TestRunExperiment:
    def test_determinism(self):
        source, target, oracle = tiny_problem(seed=7)
        arch = ArchSpec(in_dim=2, num_classes=5)
        sched = small_sched()
        a = run_experiment(source, target, oracle, arch, PRESETS["san_pp"], sched, 11)
        b = run_experiment(source, target, oracle, arch, PRESETS["san_pp"], sched, 11)
        lines_a = [to_json_line(r) for r in a.records]
        lines_b = [to_json_line(r) for r in b.records]
        assert lines_a == lines_b
        assert np.array_equal(a.confusion, b.confusion)

    def test_zero_epochs_only_init_record(self):
        source, target, oracle = tiny_problem(seed=8)
        arch = ArchSpec(in_dim=2, num_classes=5)
        res = run_experiment(source, target, oracle, arch, PRESETS["source_only"],
                             small_sched(total_epochs=0), 0)
        assert len(res.records) == 1
        assert res.records[0].epoch == 0
        assert res.records[0].losses is None
        assert res.records[0].bound is not None

    def test_record_cardinality_and_fields(self):
        source, target, oracle = tiny_problem(seed=9)
        arch = ArchSpec(in_dim=2, num_classes=5)
        res = run_experiment(source, target, oracle, arch, PRESETS["san_pp"],
                             small_sched(total_epochs=4), 2)
        assert len(res.records) == 5
        for rec in res.records:
            assert abs(sum(rec.class_weights) - 1.0) < 1e-9
            assert rec.bound is not None
            assert rec.target_accuracy is not None
        assert res.records[-1].losses is not None

    def test_default_run_reports_every_bound_term(self):
        source, target, oracle = tiny_problem(seed=13)
        arch = ArchSpec(in_dim=2, num_classes=5)
        full = run_experiment(source, target, oracle, arch, PRESETS["san_pp"],
                              small_sched(), 4)
        assert [r.epoch for r in full.records] == [0, 1, 2, 3]
        for rec in full.records:
            assert isinstance(rec.bound, BoundReport) and rec.bound.epoch == rec.epoch
            assert all(math.isfinite(getattr(rec.bound, f.name))
                       for f in fields(BoundReport))

    def test_asserted_part_only_leaves_training_unchanged(self):
        source, target, oracle = tiny_problem(seed=13)
        arch = ArchSpec(in_dim=2, num_classes=5)
        full = run_experiment(source, target, oracle, arch, PRESETS["san_pp"],
                              small_sched(), 4)
        lite = run_experiment(source, target, oracle, arch, PRESETS["san_pp"],
                              small_sched(), 4, full_audit=False)
        assert all(r.bound is None and r.target_accuracy is not None
                   for r in lite.records)
        assert [replace(r, bound=None) for r in full.records] == lite.records
        assert np.array_equal(full.confusion, lite.confusion)

    def test_no_oracle_skips_oracle_fields(self):
        source, target, _ = tiny_problem(seed=10)
        arch = ArchSpec(in_dim=2, num_classes=5)
        res = run_experiment(source, target, None, arch, PRESETS["source_only"],
                             small_sched(total_epochs=1), 0)
        assert res.confusion is None
        assert all(r.bound is None and r.target_accuracy is None for r in res.records)
        assert all(len(r.class_weights) == 5 for r in res.records)

    def test_source_only_metrics_have_zero_adversarial_loss(self):
        source, target, oracle = tiny_problem(seed=11)
        arch = ArchSpec(in_dim=2, num_classes=5)
        res = run_experiment(source, target, oracle, arch, PRESETS["source_only"],
                             small_sched(), 0)
        assert all(r.losses.l_adv == 0.0 for r in res.records if r.losses)

    def test_epoch_wall_clock_includes_the_audit(self, monkeypatch):
        import time

        import pdalab.trainer
        from pdalab.bound import check_bound

        def slow_check_bound(*args, **kwargs):
            time.sleep(0.05)
            return check_bound(*args, **kwargs)

        monkeypatch.setattr(pdalab.trainer, "check_bound", slow_check_bound)
        source, target, oracle = tiny_problem(seed=12)
        arch = ArchSpec(in_dim=2, num_classes=5)
        res = run_experiment(source, target, oracle, arch, PRESETS["source_only"],
                             small_sched(total_epochs=2), 0)
        walls = res.epoch_seconds
        assert len(walls) == 2 and min(walls) >= 0.05
