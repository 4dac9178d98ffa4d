"""Each slice of a stacked program equals its run alone, bit for bit, for any
runs that share a network shape: K of 2, 5 or 9 classes (9 crosses numpy's
8-element pairwise block), any shared set, a batch that divides neither
domain, and with and without the full audit."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pdalab.data import SyntheticSpec, generate_toy  # noqa: E402
from pdalab.metrics import metrics_text  # noqa: E402
from pdalab.nets import ArchSpec, model_text  # noqa: E402
from pdalab.trainer import Schedule, VariantFlags, run_experiment, run_experiments  # noqa: E402


@st.composite
def _flags(draw, single: bool, shared_trunk: bool) -> VariantFlags:
    """Any valid flags of the network shape (single head or not, trunk sharing)."""
    adversary = "single" if single else draw(st.sampled_from(["none", "multi"]))
    multi, adversarial = adversary == "multi", adversary != "none"
    return VariantFlags(instance_sel=multi and draw(st.booleans()),
                        class_sel=multi and draw(st.booleans()),
                        self_training=draw(st.booleans()),
                        entropy_min=adversarial and draw(st.booleans()),
                        shared_trunk=shared_trunk, adversary=adversary)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), k=st.sampled_from([2, 5, 9]), per_class=st.integers(5, 10),
       disc_hidden=st.sampled_from([(), (3,), (6,)]), epochs=st.integers(2, 3),
       full_audit=st.booleans(), seed=st.integers(0, 3))
def test_each_slice_equals_its_solo_run(data, k, per_class, disc_hidden, epochs, full_audit,
                                        seed):
    shared = data.draw(st.sets(st.integers(0, k - 1), min_size=1), label="shared_classes")
    source, target, oracle = generate_toy(SyntheticSpec(
        num_source_classes=k, shared_classes=tuple(shared), samples_per_class=per_class,
        seed=seed))
    n_s, n_t = len(source), len(target)
    batch = data.draw(st.sampled_from([b for b in range(2, n_t + 1) if n_s % b and n_t % b]),
                      label="batch_size")
    sched = Schedule(total_epochs=epochs, warmup_epochs=data.draw(st.integers(0, 1)),
                     batch_size=batch, eta0=0.05)
    shape = data.draw(st.tuples(st.booleans(), st.booleans()), label="single, shared_trunk")
    rows = data.draw(st.lists(_flags(*shape), min_size=1, max_size=6), label="flags")
    arch = ArchSpec(in_dim=2, num_classes=k, disc_hidden=disc_hidden)

    stacked = run_experiments(source, target, oracle, arch, rows, sched, seed, full_audit)
    for flags, result in zip(rows, stacked, strict=True):
        solo = run_experiment(source, target, oracle, arch, flags, sched, seed, full_audit)
        assert metrics_text(result.records) == metrics_text(solo.records)
        assert model_text(result.bundle) == model_text(solo.bundle)
        assert result.confusion.tobytes() == solo.confusion.tobytes()
