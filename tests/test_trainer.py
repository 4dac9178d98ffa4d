import math
import multiprocessing
from dataclasses import fields, replace

import numpy as np
import pytest

from pdalab import tensor as T
from pdalab.bound import BoundReport, OracleContext
from pdalab.data import Dataset, SyntheticSpec, generate_toy, steps_per_epoch
from pdalab.losses import assign_pseudo_labels
from pdalab.metrics import metrics_text, to_json_line
from pdalab.nets import ArchConfig, ArchSpec, init_bundle, map_bundle, model_text
from pdalab.rngstreams import substream
from pdalab.tensor import Tensor
from pdalab.trainer import (
    ABLATION_VARIANTS,
    NAMED_VARIANTS,
    MomentumSGD,
    PRESETS,
    Schedule,
    VariantFlags,
    adv_ramp,
    evaluate,
    lr_at,
    network_flags,
    predict,
    run_experiment,
    run_experiments,
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
        source = Dataset(np.array([[0.5, -1.0]]), np.array([2]))
        target = Dataset(np.array([[1.0, 1.0]]))
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

    def test_step_k_of_n_trains_at_progress_k_over_n(self, monkeypatch):
        """Step k of an N-step run takes its learning rate and reversal strength
        at progress k / N, whatever the epoch it falls in."""
        import pdalab.trainer

        source, target, _ = tiny_problem(seed=3)
        sched = small_sched(total_epochs=2)
        seen = {"lr_at": [], "adv_ramp": []}
        monkeypatch.setattr(pdalab.trainer, "lr_at",
                            lambda p, s: seen["lr_at"].append(p) or lr_at(p, s))
        monkeypatch.setattr(pdalab.trainer, "adv_ramp",
                            lambda p: seen["adv_ramp"].append(p) or adv_ramp(p))
        run_experiment(source, target, None, ArchSpec(in_dim=2, num_classes=5),
                       PRESETS["san_pp"], sched, 6)
        total = steps_per_epoch(len(source), len(target), sched.batch_size) * 2
        assert seen == {name: [k / total for k in range(total)] for name in seen}

    def test_warm_up_keeps_instance_selection_on(self, monkeypatch):
        """In a warm-up epoch of ``instance``, the adversarial term's instance
        weights are the batch's own predictions, not 1/K: warm-up turns off class
        selection, self-training and the entropy regularizer alone."""
        import pdalab.trainer

        source, target, _ = tiny_problem(seed=3)
        sched = small_sched(total_epochs=1)
        g_forward, adversarial_loss = pdalab.trainer.g_forward, pdalab.trainer.adversarial_loss
        preds, pairs = [], []
        monkeypatch.setattr(pdalab.trainer, "g_forward",
                            lambda *args: preds.append(g_forward(*args)) or preds[-1])

        def recording_adversarial_loss(logits, inst, *args, **kwargs):
            pairs.append((inst, preds[-1].data))
            return adversarial_loss(logits, inst, *args, **kwargs)

        monkeypatch.setattr(pdalab.trainer, "adversarial_loss", recording_adversarial_loss)
        run_experiment(source, target, None, ArchSpec(in_dim=2, num_classes=5),
                       NAMED_VARIANTS["instance"], sched, 6)
        assert sched.warmup_epochs == sched.total_epochs
        assert len(pairs) == steps_per_epoch(len(source), len(target), sched.batch_size)
        for inst, batch_preds in pairs:
            assert np.array_equal(inst, batch_preds)
            assert not np.allclose(inst, 1.0 / 5)

    def test_a_post_warm_up_san_pp_step_weighs_its_source_rows_by_the_class_weights(self):
        """The step's reported l_sup is supervised_loss of its own source batch
        under the class weights it is given, at the parameters before the step."""
        from pdalab.data import batch_iterator
        from pdalab.losses import supervised_loss
        from pdalab.nets import f_forward, g_forward

        source, target, _ = tiny_problem(seed=7)
        sched = small_sched()
        bundle = init_bundle(ArchSpec(in_dim=2, num_classes=5), substream(7, "init"),
                             num_heads=5, shared_trunk=True)
        w = np.array([0.05, 0.1, 0.15, 0.3, 0.4])
        src_idx, tgt_idx = next(batch_iterator(len(source), len(target), sched.batch_size,
                                               substream(7, "data")))
        with T.no_grad():
            preds = g_forward(bundle.classifier, f_forward(bundle.features, Tensor(
                np.vstack([source.x[src_idx], target.x[tgt_idx]]))))
        expected = supervised_loss(preds, source.y[src_idx], w, slice(0, sched.batch_size))
        assert expected.data != supervised_loss(
            preds, source.y[src_idx], np.ones(5), slice(0, sched.batch_size)).data

        opt = MomentumSGD(bundle.parameters(), sched.momentum)
        steps = steps_per_epoch(len(source), len(target), sched.batch_size)
        breakdowns, _ = train_epoch(bundle, opt, source, target, w,
                                    assign_pseudo_labels(predict(bundle, target.x)),
                                    PRESETS["san_pp"], sched, steps, 2 * steps,
                                    substream(7, "data"))
        assert breakdowns[0].l_sup == float(expected.data)


def _relu_margin(bundle, x):
    """Distance from the relu kink of the nearest pre-activation, in the
    extractor and in every discriminator trunk."""
    margins = []

    def walk(layers, h):
        for w, b, act in layers:
            h = h @ w.data + b.data
            if act == "relu":
                margins.append(np.abs(h).min())
                h = np.maximum(h, 0.0)
        return h

    f = walk(bundle.features.layers, x)
    for trunk in bundle.discriminator.trunks:
        walk(trunk.layers, f)
    return min(margins)


class TestStepGradient:
    """The gradient one training step hands the optimizer against central
    differences of that step's whole objective, for every ablation row and
    ``san``.  With the adversarial ramp at -1, gradient reversal is plain
    descent, so the step descends the objective it reports; the class
    weights, pseudo-labels and instance (and so entropy) weights stay at
    their unperturbed values, as they are constants to the tape."""

    @pytest.mark.parametrize("flags", [*ABLATION_VARIANTS.values(), PRESETS["san"]],
                             ids=[*ABLATION_VARIANTS, "san"])
    def test_step_gradient_matches_central_differences(self, monkeypatch, flags):
        import pdalab.trainer
        from pdalab.losses import adversarial_loss

        m, k, h = 4, 3, 1e-5
        rng = np.random.default_rng(0)
        while True:  # a draw whose relus sit clear of the kink, as in criterion 1
            bundle = init_bundle(ArchSpec(in_dim=2, num_classes=k, hidden=(4,),
                                          disc_hidden=(3,)), rng,
                                 num_heads=1 if flags.adversary == "single" else k,
                                 shared_trunk=flags.shared_trunk)
            source = Dataset(rng.normal(size=(m, 2)), rng.integers(0, k, size=m))
            target = Dataset(rng.normal(size=(m, 2)))
            if _relu_margin(bundle, np.vstack([source.x, target.x])) > 1e-3:
                break
        class_weights = rng.dirichlet(np.ones(k))
        pseudo = rng.integers(0, k, size=m) if flags.self_training else None

        held = {}

        def held_adversarial_loss(logits, inst, *args, **kwargs):
            inst = held.setdefault("inst", np.array(inst))  # the unperturbed weights
            return adversarial_loss(logits, inst, *args, **kwargs)

        monkeypatch.setattr(pdalab.trainer, "adv_ramp", lambda p: -1.0)
        monkeypatch.setattr(pdalab.trainer, "adversarial_loss", held_adversarial_loss)
        opt = MomentumSGD(bundle.parameters(), momentum=0.0)

        def step():  # one full-batch step
            train_epoch(bundle, opt, source, target, class_weights, pseudo, flags,
                        Schedule(batch_size=m), 0, 1, np.random.default_rng(0))

        theta = opt.flat.copy()
        step()
        grad = opt.velocity.copy()  # without momentum, the gradient it was given
        opt.flat[:] = theta

        totals = []
        monkeypatch.setattr(pdalab.trainer, "backward", lambda loss: totals.append(loss.item()))
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            for x in (theta[i] + h, theta[i] - h):
                opt.flat[i] = x
                step()
            opt.flat[i] = theta[i]
            fd[i] = (totals[-2] - totals[-1]) / (2.0 * h)
        assert np.array_equal(opt.flat, theta)  # no step moved the parameters
        err = np.max(np.abs(grad - fd) / np.maximum.reduce([abs(grad), abs(fd), np.ones_like(fd)]))
        assert err < 1e-4


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


_WARM_RUN_FAULTS = """
import resource
from pdalab.data import SyntheticSpec, generate_toy, steps_per_epoch
from pdalab.nets import ArchSpec
from pdalab.trainer import PRESETS, Schedule, run_experiment

spec = SyntheticSpec(seed=11)
source, target, _ = generate_toy(spec)
arch = ArchSpec(in_dim=source.dim, num_classes=spec.num_source_classes, disc_hidden=(16,))
sched = Schedule(total_epochs=4)
for _ in range(2):
    run_experiment(source, target, None, arch, PRESETS["san"], sched, 5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(source, target, None, arch, PRESETS["san"], sched, 5)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
      sched.total_epochs * steps_per_epoch(len(source), len(target), sched.batch_size))
"""


def test_a_warm_private_trunk_run_faults_less_than_once_per_step():
    """A step's arrays fit in the heap the step before freed: once warm, a ``san``
    run with private trunks takes fewer minor page faults than steps.  In a fresh
    interpreter, so that the heap does not depend on the tests before it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pdalab

    env = dict(os.environ, PYTHONPATH=str(Path(pdalab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _WARM_RUN_FAULTS], env=env, text=True,
                         capture_output=True, check=True).stdout
    faults, steps = map(int, out.split())
    assert faults < steps, (faults, steps)


_WARM_CHUNK_FAULTS = """
import resource
from pdalab.data import SyntheticSpec, generate_toy
from pdalab.nets import ArchSpec
from pdalab.trainer import ABLATION_VARIANTS, Schedule, run_experiments

spec = SyntheticSpec(seed=11)
source, target, oracle = generate_toy(spec)
arch = ArchSpec(in_dim=source.dim, num_classes=spec.num_source_classes)
rows = [ABLATION_VARIANTS[name] for name in ("source_only", "instance", "instance_class")]
sched = Schedule(total_epochs=60)
for _ in range(2):
    run_experiments(source, target, oracle, arch, rows, sched, 5, full_audit=False)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiments(source, target, oracle, arch, rows, sched, 5, full_audit=False)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, sched.total_epochs)
"""


def test_a_warm_three_slice_chunk_faults_less_than_once_per_epoch():
    """The default grid's three-slice chunk, as ``ablate`` trains it, reuses the
    heap its last run freed: once warm, a 60-epoch run, snapshots included, takes
    fewer minor page faults than epochs.  In a fresh interpreter, as above."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pdalab

    env = dict(os.environ, PYTHONPATH=str(Path(pdalab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _WARM_CHUNK_FAULTS], env=env, text=True,
                         capture_output=True, check=True).stdout
    faults, epochs = map(int, out.split())
    assert faults < epochs, (faults, epochs)


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

    @pytest.mark.parametrize("source_shared, target_rows, message", [
        (2, 36, "2 source rows in the shared classes are too few"),
        (36, 2, "2 target rows are too few"),
    ], ids=["source", "target"])
    def test_data_too_small_for_the_proxy_split_fails_before_training(
            self, monkeypatch, source_shared, target_rows, message):
        import pdalab.bound
        import pdalab.trainer

        def no_work(*args, **kwargs):
            raise AssertionError("work began")

        source, target, oracle = tiny_problem()
        # Keep the outlier-class source rows, and source_shared shared-class ones.
        keep = np.flatnonzero(source.y >= 3).tolist() + np.flatnonzero(source.y < 3)[
            :source_shared].tolist()
        source = Dataset(source.x[keep], source.y[keep])
        target = Dataset(target.x[:target_rows])
        oracle = OracleContext(oracle.shared_classes, oracle.target_labels[:target_rows])
        args = (source, target, oracle, ArchSpec(in_dim=2, num_classes=5), PRESETS["san_pp"],
                small_sched(total_epochs=1, batch_size=2), 0)
        monkeypatch.setattr(pdalab.trainer, "train_epoch", no_work)
        monkeypatch.setattr(pdalab.bound, "estimate_hdh_divergence", no_work)
        with pytest.raises(ValueError, match=f"^{message} for the divergence proxy's "
                                             "train/test split$"):
            run_experiment(*args)
        monkeypatch.undo()
        lite = run_experiment(*args, full_audit=False)
        assert [r.epoch for r in lite.records] == [0, 1]

    def test_no_oracle_skips_oracle_fields(self):
        source, target, _ = tiny_problem(seed=10)
        arch = ArchSpec(in_dim=2, num_classes=5)
        res = run_experiment(source, target, None, arch, PRESETS["source_only"],
                             small_sched(total_epochs=1), 0)
        assert res.confusion is None
        assert all(r.bound is None and r.target_accuracy is None for r in res.records)
        assert all(len(r.class_weights) == 5 for r in res.records)

    def test_unlabeled_source_rejected(self):
        source, target, oracle = tiny_problem(seed=10)
        with pytest.raises(ValueError, match="^run_experiment needs a labeled source dataset$"):
            run_experiment(Dataset(source.x), target, oracle, ArchSpec(in_dim=2, num_classes=5),
                           PRESETS["source_only"], small_sched(total_epochs=1), 0)

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


_TRUNK_AND_SUP = ["linear", "linear", "linear", "softmax_rows", "cross_entropy_mean"]
# The tape at a run's first backward, past warm-up, under the default arch: the heads
# read the features and are one [d, K] layer.
_SOLO_TAPES = {
    "source_only": _TRUNK_AND_SUP + ["add"],
    "instance": _TRUNK_AND_SUP + ["linear", "weighted_bce", "add"],
    "instance_class": _TRUNK_AND_SUP + ["linear", "weighted_bce", "add"],
    "instance_class_entropy": _TRUNK_AND_SUP + ["linear", "weighted_bce", "entropy_mean", "add"],
    "instance_class_self_private": _TRUNK_AND_SUP + ["cross_entropy_mean", "linear",
                                                     "weighted_bce", "add"],
    "san_pp": _TRUNK_AND_SUP + ["cross_entropy_mean", "linear", "weighted_bce", "add"],
    "dann": _TRUNK_AND_SUP + ["linear", "weighted_bce", "add"],
    "san": _TRUNK_AND_SUP + ["linear", "weighted_bce", "entropy_mean", "add"],
}


class TestSoloTape:
    """A solo run builds only its own terms: its tape is node for node the
    one it was before runs could be stacked."""

    @pytest.mark.parametrize("disc_hidden", [(), (4,)], ids=["no_trunk", "trunk_4"])
    @pytest.mark.parametrize("variant", list(_SOLO_TAPES))
    def test_first_step_records_the_variant_s_nodes(self, monkeypatch, variant, disc_hidden):
        import pdalab.trainer

        tapes, real = [], pdalab.trainer.backward
        monkeypatch.setattr(pdalab.trainer, "backward",
                            lambda loss: tapes.append([n.op for n in T._tape.nodes])
                            or real(loss))
        source, target, oracle = tiny_problem()
        run_experiment(source, target, oracle,
                       ArchSpec(in_dim=2, num_classes=5, disc_hidden=disc_hidden),
                       NAMED_VARIANTS[variant], small_sched(total_epochs=1, warmup_epochs=0),
                       0, full_audit=False)
        expected = list(_SOLO_TAPES[variant])
        if disc_hidden and "weighted_bce" in expected:  # one trunk layer before the heads';
            # private trunks with layers keep a [K, m, 1] stack of heads
            at = expected.index("weighted_bce")
            expected[at:at] = ["linear"] + ([] if NAMED_VARIANTS[variant].shared_trunk
                                            else ["stack_to_cols"])
        assert tapes[0] == expected


def _network_rows(disc_hidden):
    """The distinct networks of the ablation rows, grouped by trunk sharing."""
    groups = {}
    for flags in dict.fromkeys(network_flags(f, ArchConfig(disc_hidden=disc_hidden))
                               for f in ABLATION_VARIANTS.values()):
        groups.setdefault(flags.shared_trunk, []).append(flags)
    return list(groups.values())


class TestStackedRuns:
    def test_a_stacked_step_equals_each_solo_step(self):
        """One step of the five default-arch rows as one stacked program, past
        warm-up, against five solo steps: parameters and breakdowns, to the bit."""
        (rows,) = _network_rows(())
        assert len(rows) == 5
        source, target, _ = tiny_problem(seed=14)
        m = 16
        source, target = Dataset(source.x[:m], source.y[:m]), Dataset(target.x[:m])
        arch = ArchSpec(in_dim=2, num_classes=5)
        rng = np.random.default_rng(1)
        weights = rng.dirichlet(np.ones(5), size=len(rows))
        pseudo = rng.integers(0, 5, size=(len(rows), m))
        start = init_bundle(arch, substream(9, "init"))

        def step(bundle, w, labels, flags):
            opt = MomentumSGD(bundle.parameters(), 0.9)
            breakdowns, done = train_epoch(bundle, opt, source, target, w, labels, flags,
                                           Schedule(batch_size=m), 0, 1, substream(9, "data"))
            assert done == 1
            return breakdowns[0]

        stacked = map_bundle(start, lambda a: np.stack([a] * len(rows)))
        breakdowns = step(stacked, weights, pseudo, rows)
        for i, flags in enumerate(rows):
            solo = map_bundle(start, lambda a: a.copy())
            assert step(solo, weights[i], pseudo[i] if flags.self_training else None,
                        flags) == breakdowns[i]
            for p, q in zip(stacked.parameters(), solo.parameters()):
                assert np.array_equal(p.data[i], q.data)
        assert breakdowns[0].l_adv == 0.0 and breakdowns[1].l_self == 0.0

    @pytest.mark.parametrize("full_audit", [True, False], ids=["full_audit", "asserted_only"])
    @pytest.mark.parametrize("disc_hidden", [(), (16,)], ids=["no_trunk", "trunk_16"])
    def test_each_slice_equals_its_solo_run(self, disc_hidden, full_audit):
        source, target, oracle = tiny_problem(seed=15)
        arch = ArchSpec(in_dim=2, num_classes=5, disc_hidden=disc_hidden)
        sched = small_sched(total_epochs=3, warmup_epochs=1)
        # With trunk layers, san and the private-trunk row stack their private trunks.
        groups = _network_rows(disc_hidden) + ([[PRESETS["san"], ABLATION_VARIANTS[
            "instance_class_self_private"]]] if disc_hidden else [])
        for seed in range(3):
            for rows in groups:
                stacked = run_experiments(source, target, oracle, arch, rows, sched, seed,
                                          full_audit)
                for flags, result in zip(rows, stacked, strict=True):
                    solo = run_experiment(source, target, oracle, arch, flags, sched, seed,
                                          full_audit)
                    assert metrics_text(result.records) == metrics_text(solo.records)
                    assert model_text(result.bundle) == model_text(solo.bundle)
                    assert np.array_equal(result.confusion, solo.confusion)

    def test_a_failing_slice_fails_as_its_solo_run(self, monkeypatch):
        """A slice whose values go non-finite ends the stacked program at the
        failing step, and the program's message, which names the epoch and
        step, equals the one the failing run gives alone."""
        source, target, oracle = tiny_problem(seed=16)
        arch = ArchSpec(in_dim=2, num_classes=5)
        sched = small_sched(eta0=1.0e+300)
        rows = [PRESETS["source_only"], PRESETS["san_pp"]]
        with pytest.raises(FloatingPointError) as solo:
            run_experiment(source, target, oracle, arch, rows[0], sched, 0)
        with pytest.raises(FloatingPointError) as stacked:
            run_experiments(source, target, oracle, arch, rows, sched, 0)
        assert str(stacked.value) == str(solo.value)

    def test_runs_of_two_network_shapes_do_not_stack(self):
        source, target, oracle = tiny_problem()
        with pytest.raises(ValueError, match="^stacked runs must share one network shape$"):
            run_experiments(source, target, oracle, ArchSpec(in_dim=2, num_classes=5),
                            [PRESETS["san_pp"], PRESETS["dann"]], small_sched(), 0)


class TestStackedFailure:
    """An error that only a stacked program raises comes out as itself: no
    run of the program trains again alone."""

    @staticmethod
    def _fail_when_stacked(monkeypatch):
        import pdalab.trainer

        real = pdalab.trainer.train_epoch

        def train_epoch(bundle, opt, source, target, w, pseudo, flags, *args):
            if not isinstance(flags, VariantFlags):  # a program of more than one slice
                raise FloatingPointError("non-finite values produced by 'linear'")
            return real(bundle, opt, source, target, w, pseudo, flags, *args)

        monkeypatch.setattr(pdalab.trainer, "train_epoch", train_epoch)

    def test_comes_out_of_run_experiments(self, monkeypatch):
        self._fail_when_stacked(monkeypatch)
        source, target, oracle = tiny_problem()
        arch, rows = ArchSpec(in_dim=2, num_classes=5), [PRESETS["source_only"], PRESETS["san_pp"]]
        for flags in rows:
            run_experiment(source, target, oracle, arch, flags, small_sched(), 0)
        with pytest.raises(FloatingPointError,
                           match="^epoch 1: non-finite values produced by 'linear'$"):
            run_experiments(source, target, oracle, arch, rows, small_sched(), 0)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers inherit the patched module only when forked")
    def test_is_one_ablate_error_line(self, tmp_path, capfd, monkeypatch):
        from pdalab.cli import main

        self._fail_when_stacked(monkeypatch)
        cfg = tmp_path / "c.yaml"
        cfg.write_text("data:\n  synthetic: {samples_per_class: 12, seed: 1}\n"
                       "schedule: {total_epochs: 2, warmup_epochs: 1, batch_size: 8}\n")
        assert main(["ablate", "--config", str(cfg), "--seeds", "1", "--workers", "1",
                     "--out", str(tmp_path / "o")]) == 1
        assert capfd.readouterr() == (
            "", "error: data.synthetic: epoch 1: non-finite values produced by 'linear'\n")
        assert not (tmp_path / "o").exists()


class TestFeaturelessStacks:
    """With no feature layers a stacked program's features are its input batch;
    each slice still reads it as its own solo run does."""

    @pytest.mark.parametrize("disc_hidden", [(), (4,)], ids=["no_trunk", "trunk_4"])
    def test_each_slice_equals_its_solo_run(self, disc_hidden):
        source, target, oracle = tiny_problem(seed=17)
        arch = ArchSpec(in_dim=2, num_classes=5, hidden=(), disc_hidden=disc_hidden)
        sched = small_sched(total_epochs=3, warmup_epochs=1)
        groups = _network_rows(disc_hidden) + ([[PRESETS["san"], ABLATION_VARIANTS[
            "instance_class_self_private"]]] if disc_hidden else [])
        for rows in groups:
            stacked = run_experiments(source, target, oracle, arch, rows, sched, 2)
            for flags, result in zip(rows, stacked, strict=True):
                solo = run_experiment(source, target, oracle, arch, flags, sched, 2)
                assert metrics_text(result.records) == metrics_text(solo.records)
                assert model_text(result.bundle) == model_text(solo.bundle)

    def test_ablate_writes_its_table(self, tmp_path, capsys, monkeypatch):
        from pdalab.cli import main
        from test_cli import _InProcessPool, write_config

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InProcessPool)
        cfg = write_config(tmp_path / "c.yaml", arch={"hidden": []})
        assert main(["ablate", "--config", str(cfg), "--seeds", "1", "--workers", "1",
                     "--out", str(tmp_path / "o")]) == 0
        table = (tmp_path / "o" / "ablation.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in table[1:]] == list(ABLATION_VARIANTS)
        assert capsys.readouterr().err == ""


class TestStackedAudit:
    @pytest.mark.parametrize("k", [5, 31])
    def test_one_audit_call_per_epoch_for_all_slices(self, monkeypatch, k):
        """Without the full audit, a three-slice program asserts the inequality in
        one call per snapshot; each slice's weights and accuracy are the bits of
        the 2-d calls on its own predictions, also at K = 31, where a sum over
        the class axis crosses numpy's 8-element pairwise block."""
        import pdalab.trainer
        from pdalab.selection import class_transferable_probability
        from pdalab.trainer import _score

        if k == 5:
            (source, target, oracle), sched, seed = tiny_problem(seed=15), small_sched(), 0
        else:  # the data and schedule of TestStackedRunsAt31Classes
            source, target, oracle = generate_toy(SyntheticSpec(
                num_source_classes=31, shared_classes=tuple(range(10)), samples_per_class=11,
                seed=3))
            sched, seed = small_sched(total_epochs=6, warmup_epochs=2, batch_size=32, eta0=0.2), 3
        rows = _network_rows(())[0][2:]
        stacks, audits = [], []
        terms = pdalab.trainer.intermediate_terms
        monkeypatch.setattr(pdalab.trainer, "class_transferable_probability",
                            lambda p: stacks.append(p.copy()) or class_transferable_probability(p))
        monkeypatch.setattr(pdalab.trainer, "intermediate_terms",
                            lambda p, *args: audits.append(p.shape) or terms(p, *args))
        results = run_experiments(source, target, oracle, ArchSpec(in_dim=2, num_classes=k),
                                  rows, sched, seed, full_audit=False)
        assert audits == [(3, len(target), k)] * (sched.total_epochs + 1)
        assert len(stacks) == sched.total_epochs + 1
        for preds, *records in zip(stacks, *(result.records for result in results)):
            for p, record in zip(preds, records, strict=True):
                assert np.array(record.class_weights).tobytes() == \
                    class_transferable_probability(p).tobytes()
                accuracy = _score(p, oracle.target_labels, k)[0]
                assert np.float64(record.target_accuracy).tobytes() == \
                    np.float64(accuracy).tobytes()


class TestStackedRunsAt31Classes:
    """Over 31 classes, a sum over the class axis crosses numpy's 8-element
    pairwise block; each slice still equals its solo run."""

    @pytest.mark.parametrize("full_audit", [True, False], ids=["full_audit", "asserted_only"])
    @pytest.mark.parametrize("disc_hidden", [(), (16,)], ids=["no_trunk", "trunk_16"])
    def test_each_slice_equals_its_solo_run(self, disc_hidden, full_audit):
        spec = SyntheticSpec(num_source_classes=31, shared_classes=tuple(range(10)),
                             samples_per_class=11, seed=3)
        source, target, oracle = generate_toy(spec)
        arch = ArchSpec(in_dim=2, num_classes=31, disc_hidden=disc_hidden)
        sched = small_sched(total_epochs=6, warmup_epochs=2, batch_size=32, eta0=0.2)
        groups = _network_rows(disc_hidden) + ([[PRESETS["san"], ABLATION_VARIANTS[
            "instance_class_self_private"]]] if disc_hidden else [])
        for rows in groups:
            stacked = run_experiments(source, target, oracle, arch, rows, sched, 3, full_audit)
            for flags, result in zip(rows, stacked, strict=True):
                solo = run_experiment(source, target, oracle, arch, flags, sched, 3, full_audit)
                assert metrics_text(result.records) == metrics_text(solo.records)
                assert model_text(result.bundle) == model_text(solo.bundle)


class TestEntropyRegularizer:
    """Under ``san``, the target-entropy regularizer of each step is 0.1 times
    the mean entropy of exactly the target rows of that step's predictions."""

    def test_takes_the_target_rows_at_scale_one_tenth(self, monkeypatch):
        import pdalab.trainer

        source, target, _ = tiny_problem(seed=4)
        arch = ArchSpec(in_dim=2, num_classes=5)
        sched = small_sched()
        bundle = init_bundle(arch, substream(7, "init"), num_heads=5, shared_trunk=False)
        opt = MomentumSGD(bundle.parameters(), sched.momentum)
        steps = steps_per_epoch(len(source), len(target), sched.batch_size)
        preds, calls = [], []
        g_forward, entropy_mean = pdalab.trainer.g_forward, T.entropy_mean

        def recording_g(classifier, f):
            out = g_forward(classifier, f)
            preds.append(out.data.copy())
            return out

        def recording_entropy(pred, scale, rows):
            calls.append((pred.data[..., rows, :].copy(), scale))
            return entropy_mean(pred, scale, rows)

        monkeypatch.setattr(pdalab.trainer, "g_forward", recording_g)
        monkeypatch.setattr(T, "entropy_mean", recording_entropy)
        train_epoch(bundle, opt, source, target, np.ones(5), None, PRESETS["san"], sched,
                    0, steps, substream(7, "data"))
        b = sched.batch_size
        assert len(calls) == len(preds) == steps
        for step_preds, (pred, scale) in zip(preds, calls):
            assert np.array_equal(pred, step_preds[b:2 * b])
            assert scale == 0.1
