import json
import re

import numpy as np
import pytest

from pdalab.data import (
    Dataset,
    Metadata,
    SyntheticSpec,
    batch_iterator,
    dataset_csv_text,
    generate_toy,
    load_csv,
    load_experiment_data,
    load_metadata,
    save_experiment_data,
    steps_per_epoch,
)
from pdalab.metrics import write_files


class TestGenerateToy:
    def test_default_layout(self):
        source, target, oracle = generate_toy(SyntheticSpec(seed=0))
        assert len(source) == 500
        assert len(target) == 300
        assert sorted(set(source.y.tolist())) == [0, 1, 2, 3, 4]
        assert oracle.shared_classes == (0, 1, 2)
        assert np.isin(oracle.target_labels, (0, 1, 2)).all()
        assert target.y is None

    def test_zero_shift_zero_std_targets_on_means(self):
        spec = SyntheticSpec(cluster_std=0.0, target_rotation=0.0,
                             target_shift=(0.0, 0.0), samples_per_class=3, seed=0)
        source, target, oracle = generate_toy(spec)
        means = spec.resolved_means()
        for i in range(len(target)):
            assert np.allclose(target.x[i], means[oracle.target_labels[i]])

    def test_same_seed_identical(self):
        a = generate_toy(SyntheticSpec(seed=9))
        b = generate_toy(SyntheticSpec(seed=9))
        assert np.array_equal(a[0].x, b[0].x)
        assert np.array_equal(a[1].x, b[1].x)
        assert np.array_equal(a[2].target_labels, b[2].target_labels)

    def test_cluster_means_within_tolerance(self):
        spec = SyntheticSpec(samples_per_class=200, seed=3)
        source, _, _ = generate_toy(spec)
        means = spec.resolved_means()
        for c in range(spec.num_source_classes):
            emp = source.x[source.y == c].mean(axis=0)
            bound = 3.0 * spec.cluster_std / np.sqrt(spec.samples_per_class)
            assert np.abs(emp - means[c]).max() < bound * 2.5  # slack for 2 dims

    def test_unseeded_spec_rejected(self):
        with pytest.raises(ValueError, match="seed None"):
            generate_toy(SyntheticSpec())

    def test_invalid_shared_set_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(shared_classes=(0, 7))
        with pytest.raises(ValueError):
            SyntheticSpec(shared_classes=())

    def test_explicit_means(self):
        spec = SyntheticSpec(cluster_means=((0, 0), (1, 0), (0, 1), (1, 1), (2, 2)),
                             cluster_std=0.0, target_rotation=0.0,
                             target_shift=(0.0, 0.0), samples_per_class=1, seed=0)
        source, _, _ = generate_toy(spec)
        assert np.allclose(source.x[0], [0.0, 0.0])
        assert np.allclose(source.x[4], [2.0, 2.0])


class TestCsvRoundTrip:
    def test_basic_round_trip(self, tmp_path):
        path = tmp_path / "two_rows.csv"
        path.write_text("x0,x1,y,domain\n0.25,-1.5,3,1\n0.1,2.0,0,1\n")
        ds = load_csv(path, 1)
        assert ds.x.tolist() == [[0.25, -1.5], [0.1, 2.0]]
        assert ds.y.tolist() == [3, 0]
        path.write_text("x0,x1,y,domain\n0.25,-1.5,,0\n0.1,2.0,,0\n")
        assert load_csv(path, 0).y is None

    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(50, 3)) * 1e3, rng.integers(0, 4, size=50))
        path = tmp_path / "ds.csv"
        write_files({path: dataset_csv_text(ds, 1)})
        back = load_csv(path, 1)
        assert np.array_equal(ds.x, back.x)
        assert np.array_equal(ds.y, back.y)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,y,domain\n1.0,2.0,0,1\nnot_a_number,2.0,0,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: could not convert "):
            load_csv(path, 1)

    def test_inconsistent_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,y,domain\n1.0,2.0,0,1\n1.0,0,1\n")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}:3: expected 4 fields, got 3$"):
            load_csv(path, 1)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y,domain\n1.0,2.0,0,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad header "):
            load_csv(path, 1)

    @pytest.mark.parametrize("domain, rows, line, message", [
        (1, ["1.0,2,1", "2.0,2,0"], 3, "domain 0 in a source file (expected 1)"),
        (0, ["1.0,,0", "2.0,1,0"], 2, "blank label in a partly labeled file"),
    ], ids=["source_row_tagged_target", "labeled_after_a_blank"])
    def test_one_domain_labeled_in_every_row_or_none(self, tmp_path, domain, rows, line,
                                                     message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["x0,y,domain"] + rows) + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:{line}: {message}")):
            load_csv(path, domain)


class TestExperimentIo:
    def test_generate_save_load_round_trip(self, tmp_path):
        spec = SyntheticSpec(seed=5)
        source, target, oracle = generate_toy(spec)
        paths = save_experiment_data(tmp_path, source, target, oracle,
                                     spec.num_source_classes)
        src2, tgt2, oracle2, k = load_experiment_data(paths["source"],
                                                      paths["target"],
                                                      paths["metadata"])
        assert k == 5
        assert np.array_equal(src2.x, source.x)
        assert np.array_equal(src2.y, source.y)
        assert np.array_equal(tgt2.x, target.x)
        assert tgt2.y is None
        assert oracle2 is not None
        assert np.array_equal(oracle2.target_labels, oracle.target_labels)
        assert oracle2.shared_classes == oracle.shared_classes

    @pytest.mark.parametrize("label", [-2, 5])
    def test_source_label_outside_classes_rejected_with_line(self, tmp_path, label):
        spec = SyntheticSpec(seed=6, samples_per_class=5)
        source, target, oracle = generate_toy(spec)
        source.y[3] = label
        paths = save_experiment_data(tmp_path, source, target, oracle, 5)
        with pytest.raises(ValueError, match=f"source.csv:5: label {label} "):
            load_experiment_data(paths["source"], paths["target"], paths["metadata"])

    def test_unlabeled_source_rejected(self, tmp_path):
        spec = SyntheticSpec(seed=6, samples_per_class=5)
        source, target, oracle = generate_toy(spec)
        paths = save_experiment_data(tmp_path, source, target, oracle, 5)
        write_files({paths["source"]: dataset_csv_text(Dataset(source.x), 1)})
        message = f"{paths['source']}: source rows must be labeled"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_experiment_data(paths["source"], paths["target"], paths["metadata"])

    def test_unlabeled_target_yields_no_oracle(self, tmp_path):
        spec = SyntheticSpec(seed=6, samples_per_class=5)
        source, target, oracle = generate_toy(spec)
        paths = save_experiment_data(tmp_path, source, target, oracle, 5)
        write_files({paths["target"]: dataset_csv_text(target, 0)})  # overwrite without labels
        _, _, oracle2, _ = load_experiment_data(paths["source"], paths["target"],
                                                paths["metadata"])
        assert oracle2 is None


class TestMetadata:
    def test_extra_keys_ignored(self, tmp_path):
        path = tmp_path / "metadata.json"
        path.write_text(json.dumps({"num_source_classes": 5, "shared_classes": [0, 2],
                                    "dim": 2, "note": "kept by an older writer"}))
        assert load_metadata(path) == Metadata(5, (0, 2), 2)

    @pytest.mark.parametrize("key, value, message", [
        ("dim", 2.0, "dim: expected int, got float"),
        ("dim", True, "dim: expected int, got bool"),
        ("dim", None, "dim: a value is required"),
        ("shared_classes", [0, "1"], "shared_classes[1]: expected int, got str"),
        ("num_source_classes", -1, "num_source_classes must be positive, got -1"),
    ])
    def test_bad_value_names_the_file_and_key(self, tmp_path, key, value, message):
        path = tmp_path / "metadata.json"
        meta = {"num_source_classes": 5, "shared_classes": [0, 1], "dim": 2, key: value}
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_metadata(path)


class TestBatchIterator:
    def test_full_batch_single_step(self):
        rng = np.random.default_rng(0)
        batches = list(batch_iterator(10, 10, 10, rng))
        assert len(batches) == 1
        src, tgt = batches[0]
        assert sorted(src.tolist()) == list(range(10))
        assert sorted(tgt.tolist()) == list(range(10))

    def test_determinism(self):
        a = list(batch_iterator(50, 30, 8, np.random.default_rng(7)))
        b = list(batch_iterator(50, 30, 8, np.random.default_rng(7)))
        for (s1, t1), (s2, t2) in zip(a, b):
            assert np.array_equal(s1, s2)
            assert np.array_equal(t1, t2)

    def test_larger_domain_fully_covered(self):
        rng = np.random.default_rng(1)
        batches = list(batch_iterator(53, 20, 10, rng))
        assert len(batches) == steps_per_epoch(53, 20, 10) == 6
        seen = np.concatenate([s for s, _ in batches])
        assert set(seen.tolist()) == set(range(53))
        for s, t in batches:
            assert len(s) == len(t) == 10

    def test_target_larger_also_covered(self):
        rng = np.random.default_rng(2)
        batches = list(batch_iterator(20, 41, 10, rng))
        seen = np.concatenate([t for _, t in batches])
        assert set(seen.tolist()) == set(range(41))

    def test_batch_too_large_rejected(self):
        with pytest.raises(ValueError):
            list(batch_iterator(10, 5, 6, np.random.default_rng(0)))

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            list(batch_iterator(0, 5, 2, np.random.default_rng(0)))


class TestBatchOrders:
    """Each epoch the larger domain is one shuffled pass, whose last batch wraps
    around to the pass's own first rows, and the smaller domain is whole fresh
    shuffles cut to length.  With at least 20 rows a side, a shuffle is never
    the identity for these seeds."""

    @staticmethod
    def _epochs(n_source, n_target, b, seed, count=2):
        rng = np.random.default_rng(seed)
        return [tuple(np.concatenate(side) for side in zip(*batch_iterator(n_source, n_target,
                                                                            b, rng)))
                for _ in range(count)]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_source, n_target, b", [(53, 20, 10), (20, 41, 10),
                                                       (30, 30, 8), (64, 21, 16)])
    def test_each_epoch_shuffles_both_domains_afresh(self, n_source, n_target, b, seed):
        big_side = 0 if n_source >= n_target else 1
        n_big, n_small = max(n_source, n_target), min(n_source, n_target)
        epochs = self._epochs(n_source, n_target, b, seed)
        for orders in epochs:
            big, small = orders[big_side], orders[1 - big_side]
            assert len(big) == len(small) == steps_per_epoch(n_source, n_target, b) * b
            head = big[:n_big]
            assert sorted(head.tolist()) == list(range(n_big))
            assert not np.array_equal(head, np.arange(n_big))
            assert np.array_equal(big[n_big:], head[:len(big) - n_big])
            for lo in range(0, len(small), n_small):
                part = small[lo:lo + n_small]
                assert len(set(part.tolist())) == len(part)
                assert part.min() >= 0 and part.max() < n_small
                if len(part) == n_small:
                    assert not np.array_equal(part, np.arange(n_small))
        for side in (0, 1):
            assert not np.array_equal(epochs[0][side], epochs[1][side])
