import json
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
import yaml

from pdalab.cli import BOUND_TRACE_COLUMNS, main
from pdalab.config import load_config
from pdalab.metrics import read_metrics
from pdalab.trainer import NAMED_VARIANTS


def write_config(path, **overrides):
    cfg = {
        "seed": 0,
        "variant": "san_pp",
        "data": {"synthetic": {"samples_per_class": 12, "seed": 1}},
        "schedule": {"total_epochs": 3, "warmup_epochs": 1, "batch_size": 8,
                     "eta0": 0.05},
    }
    cfg.update(overrides)
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestGenerateData:
    def test_writes_expected_files(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           data={"synthetic": {"samples_per_class": 100, "seed": 2}})
        out = tmp_path / "data"
        assert main(["generate-data", "--config", str(cfg), "--out", str(out)]) == 0
        source = (out / "source.csv").read_text().splitlines()
        target = (out / "target.csv").read_text().splitlines()
        assert len(source) == 501  # header + 5 classes x 100
        assert len(target) == 301  # header + 3 classes x 100
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["num_source_classes"] == 5
        assert meta["shared_classes"] == [0, 1, 2]

    def test_idempotent_per_seed(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["generate-data", "--config", str(cfg), "--out", str(out_a)])
        main(["generate-data", "--config", str(cfg), "--out", str(out_b)])
        for name in ("source.csv", "target.csv", "metadata.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_invalid_shared_classes_fail_before_writing(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml",
                           data={"synthetic": {"shared_classes": [0, 9]}})
        out = tmp_path / "data"
        assert main(["generate-data", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestTrain:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
        assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
        assert (out_a / "confusion.csv").read_bytes() == (out_b / "confusion.csv").read_bytes()
        records = read_metrics(out_a / "metrics.jsonl")
        assert len(records) == 4  # init + 3 epochs
        assert records[0].losses is None
        assert all(r.bound is not None for r in records)

    def test_source_only_has_zero_adversarial_loss(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", variant="source_only")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        records = read_metrics(out / "metrics.jsonl")
        assert all(r.losses.l_adv == 0.0 for r in records if r.losses is not None)

    def test_effective_config_replays_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           data={"synthetic": {"samples_per_class": 12}})
        out_a = tmp_path / "a"
        assert main(["train", "--config", str(cfg), "--out", str(out_a),
                     "--seed", "5"]) == 0
        effective = load_config(out_a / "effective_config.yaml")
        assert effective.seed == 5
        assert effective.data.seed is not None  # derived seed resolved
        out_b = tmp_path / "b"
        assert main(["train", "--config", str(out_a / "effective_config.yaml"),
                     "--out", str(out_b)]) == 0
        assert (out_a / "metrics.jsonl").read_bytes() == \
            (out_b / "metrics.jsonl").read_bytes()

    def test_variant_override(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--variant", "dann"]) == 0
        effective = load_config(out / "effective_config.yaml")
        assert effective.variant == "dann"

    def test_csv_data_round_trip(self, tmp_path):
        gen_cfg = write_config(tmp_path / "gen.yaml")
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(gen_cfg), "--out", str(data_dir)])
        train_cfg = write_config(
            tmp_path / "train.yaml",
            data={"csv": {"source": str(data_dir / "source.csv"),
                          "target": str(data_dir / "target.csv"),
                          "metadata": str(data_dir / "metadata.json")}})
        out = tmp_path / "run"
        assert main(["train", "--config", str(train_cfg), "--out", str(out)]) == 0
        records = read_metrics(out / "metrics.jsonl")
        assert records[-1].target_accuracy is not None

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("schedule:\n  lr: 0.1\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("seed: [1\nvariant: san\n", "2:8: invalid YAML: expected ',' or ']', but got ':'"),
        ("seed: 1\nout_dir: a\x07b\n", "2:11: invalid YAML: unacceptable character #x0007"),
        ("seed: 1\nseed: 2\n", "2:1: duplicate key 'seed'"),
        ("schedule:\n  eta0: 0.1\n  total_epochs: 3\n  eta0: 0.2\n", "4:3: duplicate key 'eta0'"),
        ("variant: {adversary: single, adversary: multi}\n", "1:30: duplicate key 'adversary'"),
    ])
    def test_yaml_error_is_one_line_at_its_mark(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}:{message}\n"
        assert not (tmp_path / "o").exists()

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_bytes(b"seed: 1\n# \xff\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff "
            "in position 10: invalid start byte)\n")


class TestBoundTrace:
    def test_table_shape_and_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        trace = tmp_path / "trace.csv"
        assert main(["bound-trace", str(out / "metrics.jsonl"),
                     "--out", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == ",".join(BOUND_TRACE_COLUMNS)
        assert len(lines) == 1 + 4  # header + init + 3 epochs
        records = read_metrics(out / "metrics.jsonl")
        for line, rec in zip(lines[1:], records):
            fields = line.split(",")
            assert int(fields[0]) == rec.epoch
            assert float(fields[1]) == rec.bound.w_error_l1
            assert float(fields[1]) <= rec.bound.rhs_intermediate + 1e-9

    def test_stdout_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert main(["bound-trace", str(out / "metrics.jsonl")]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("epoch,")

    def test_missing_file_nonzero(self, tmp_path, capsys):
        assert main(["bound-trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_mapping_losses_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        metrics = out / "metrics.jsonl"
        lines = metrics.read_text().splitlines()
        record = json.loads(lines[1])
        record["losses"] = 5
        lines[1] = json.dumps(record)
        metrics.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["bound-trace", str(metrics)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {metrics}:2: bad metrics record: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("section, key, value, message", [
        ("bound", "w_error_l1", "x", "bound.w_error_l1: expected float, got str"),
        ("bound", "epoch", 1.5, "bound.epoch: expected int, got float"),
        ("losses", "l_sup", True, "losses.l_sup: expected float, got bool"),
        (None, "schema", "9.0", "unsupported metrics schema '9.0'"),
    ], ids=["str_for_float", "float_for_int", "bool_for_float", "schema"])
    def test_bad_record_value_names_file_and_line(self, tmp_path, capsys,
                                                  section, key, value, message):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        metrics = out / "metrics.jsonl"
        lines = metrics.read_text().splitlines()
        record = json.loads(lines[1])
        (record if section is None else record[section])[key] = value
        lines[1] = json.dumps(record)
        metrics.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["bound-trace", str(metrics)]) == 1
        err = capsys.readouterr().err
        prefix = "" if section is None else "bad metrics record: "
        assert err == f"error: {metrics}:2: {prefix}{message}\n"


    @pytest.mark.parametrize("section, key, value, message", [
        ("bound", "w_error_l1", float("nan"), "bound.w_error_l1: expected a finite float, got nan"),
        ("bound", "w_error_l1", float("inf"), "bound.w_error_l1: expected a finite float, got inf"),
        ("bound", "w_error_l1", float("-inf"),
         "bound.w_error_l1: expected a finite float, got -inf"),
        (None, "target_accuracy", "x", "target_accuracy: expected float, got str"),
        (None, "class_weights", ["a"], "class_weights[0]: expected float, got str"),
    ], ids=["nan", "infinity", "minus_infinity", "str_accuracy", "str_class_weight"])
    def test_invalid_record_value_fails_at_its_key_path(self, tmp_path, capsys,
                                                        section, key, value, message):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        metrics = out / "metrics.jsonl"
        lines = metrics.read_text().splitlines()
        record = json.loads(lines[2])
        (record if section is None else record[section])[key] = value
        lines[2] = json.dumps(record)  # NaN, Infinity and -Infinity as Python's json writes them
        metrics.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["bound-trace", str(metrics)]) == 1
        assert capsys.readouterr().err == f"error: {metrics}:3: bad metrics record: {message}\n"


class TestAblate:
    def test_deterministic_single_seed_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml",
                           schedule={"total_epochs": 2, "warmup_epochs": 1,
                                     "batch_size": 8, "eta0": 0.05})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["ablate", "--config", str(cfg), "--seeds", "1",
                     "--out", str(out_a)]) == 0
        assert main(["ablate", "--config", str(cfg), "--seeds", "1",
                     "--out", str(out_b)]) == 0
        table_a = (out_a / "ablation.csv").read_text()
        assert table_a == (out_b / "ablation.csv").read_text()
        rows = table_a.splitlines()
        assert rows[0] == "variant,seeds,mean_accuracy,std_accuracy"
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == ["source_only", "instance", "instance_class",
                         "instance_class_entropy", "instance_class_self_private",
                         "san_pp"]
        for row in rows[1:]:
            _, k, mean_acc, std_acc = row.split(",")
            assert int(k) == 1
            assert 0.0 <= float(mean_acc) <= 1.0
            assert float(std_acc) == 0.0

    @pytest.mark.parametrize("flag, value", [("--seeds", "0"), ("--workers", "0"),
                                             ("--workers", "-3")])
    def test_counts_below_one_are_argument_errors(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path / "c.yaml")
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", str(cfg), flag, value, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: must be at least 1, got {value}\n")
        assert not (tmp_path / "o").exists()

    def test_workers_do_not_change_results(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           schedule={"total_epochs": 1, "warmup_epochs": 1,
                                     "batch_size": 8, "eta0": 0.05})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["ablate", "--config", str(cfg), "--seeds", "2",
                     "--out", str(out_a)]) == 0
        assert main(["ablate", "--config", str(cfg), "--seeds", "2",
                     "--workers", "2", "--out", str(out_b)]) == 0
        assert (out_a / "ablation.csv").read_text() == \
            (out_b / "ablation.csv").read_text()


class TestAblateAudit:
    """``ablate`` asserts the bound's intermediate inequality every epoch and
    computes none of the reported terms."""

    @staticmethod
    def _job(tmp_path, variant="san_pp", seed=3):
        cfg = load_config(write_config(tmp_path / "c.yaml",
                                       schedule={"total_epochs": 4, "warmup_epochs": 1,
                                                 "batch_size": 8, "eta0": 0.05}))
        return replace(cfg, variant=NAMED_VARIANTS[variant], seed=seed)

    def test_runs_no_proxy_and_no_source_forward(self, tmp_path, monkeypatch):
        import pdalab.bound
        import pdalab.trainer
        from pdalab.cli import _ablate_one, _load_data
        from pdalab.trainer import run_experiment

        cfg = self._job(tmp_path)
        source, target, oracle, k, _ = _load_data(cfg)
        full = run_experiment(source, target, oracle, cfg.arch.to_arch(source.dim, k),
                              cfg.flags(), cfg.schedule, cfg.seed)

        def no_proxy(*args, **kwargs):
            raise AssertionError("ablate fitted the divergence proxy")

        forwards, audits = [], []
        extract, w_error = pdalab.trainer.extract_features, pdalab.bound.w_estimation_error
        monkeypatch.setattr(pdalab.bound, "estimate_hdh_divergence", no_proxy)
        monkeypatch.setattr(pdalab.trainer, "extract_features",
                            lambda bundle, x: forwards.append(len(x)) or extract(bundle, x))
        monkeypatch.setattr(pdalab.bound, "w_estimation_error",
                            lambda *a: audits.append(None) or w_error(*a))
        assert _ablate_one(cfg) == full.records[-1].target_accuracy
        # Epoch 0 and four trained epochs: target rows only, each audited.
        assert forwards == [len(target)] * 5
        assert len(audits) == 5

    @pytest.mark.parametrize("epoch", [0, 2])
    def test_violation_at_an_epoch_is_raised(self, tmp_path, monkeypatch, epoch):
        import pdalab.bound
        from pdalab.bound import BoundViolationError
        from pdalab.cli import _ablate_one

        _break_the_inequality_at(monkeypatch, pdalab.bound, epoch)
        with pytest.raises(BoundViolationError, match=rf"\(epoch {epoch}\)$"):
            _ablate_one(self._job(tmp_path, variant="source_only"))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers inherit the patched module only when forked")
    def test_violation_in_a_worker_is_one_error_line(self, tmp_path, capfd, monkeypatch):
        import pdalab.bound

        _break_the_inequality_at(monkeypatch, pdalab.bound, 2)
        cfg = write_config(tmp_path / "c.yaml",
                           schedule={"total_epochs": 3, "warmup_epochs": 1,
                                     "batch_size": 8, "eta0": 0.05})
        assert main(["ablate", "--config", str(cfg), "--seeds", "1", "--workers", "1",
                     "--out", str(tmp_path / "o")]) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: intermediate inequality violated: 10.0 > ")
        assert err.endswith(" (epoch 2)\n") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


def _break_the_inequality_at(monkeypatch, bound, epoch):
    """Make the (epoch + 1)-th w_error_l1 computed in a process read 10.0,
    above any right-hand side: one audit per epoch, from epoch 0."""
    calls = []
    real = bound.w_estimation_error

    def w_error(*args):
        calls.append(None)
        return 10.0 if len(calls) == epoch + 1 else real(*args)

    monkeypatch.setattr(bound, "w_estimation_error", w_error)


class TestEval:
    def test_eval_matches_training_accuracy(self, tmp_path, capsys):
        gen_cfg = write_config(tmp_path / "gen.yaml")
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(gen_cfg), "--out", str(data_dir)])
        train_cfg = write_config(
            tmp_path / "train.yaml",
            data={"csv": {"source": str(data_dir / "source.csv"),
                          "target": str(data_dir / "target.csv"),
                          "metadata": str(data_dir / "metadata.json")}})
        out = tmp_path / "run"
        main(["train", "--config", str(train_cfg), "--out", str(out)])
        final_acc = read_metrics(out / "metrics.jsonl")[-1].target_accuracy
        capsys.readouterr()
        assert main(["eval", "--model", str(out / "model.json"),
                     "--data", str(data_dir),
                     "--out", str(tmp_path / "conf.csv")]) == 0
        stdout = capsys.readouterr().out
        assert f"{final_acc:.4f}" in stdout
        conf = (tmp_path / "conf.csv").read_text()
        total = sum(int(v) for line in conf.splitlines()[1:] for v in line.split(","))
        assert total == 36  # 3 shared classes x 12

    def test_eval_needs_no_source_file(self, tmp_path, capsys):
        gen_cfg = write_config(tmp_path / "gen.yaml")
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(gen_cfg), "--out", str(data_dir)])
        out = tmp_path / "run"
        main(["train", "--config", str(gen_cfg), "--out", str(out)])
        capsys.readouterr()
        assert main(["eval", "--model", str(out / "model.json"),
                     "--data", str(data_dir)]) == 0
        with_source = capsys.readouterr().out
        target_only = tmp_path / "target_only"
        target_only.mkdir()
        for name in ("target.csv", "metadata.json"):
            (target_only / name).write_bytes((data_dir / name).read_bytes())
        assert main(["eval", "--model", str(out / "model.json"),
                     "--data", str(target_only)]) == 0
        assert capsys.readouterr().out == with_source
        assert "confusion matrix" in with_source

    @pytest.mark.parametrize("snapshot", [[], {"schema": "1.0"},
                                          {"schema": "1.0", "model": {}}],
                             ids=["not_an_object", "no_model_key", "empty_model"])
    def test_malformed_snapshot_is_one_error_line(self, tmp_path, capsys, snapshot):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(snapshot))
        assert main(["eval", "--model", str(model), "--data", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and err.count("\n") == 1

    def test_unsupported_schema_names_the_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"schema": "abc", "model": {}}))
        assert main(["eval", "--model", str(model), "--data", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {model}: unsupported model schema 'abc'\n"

    def test_non_json_snapshot_names_the_file(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("not json\n")
        assert main(["eval", "--model", str(model), "--data", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and err.count("\n") == 1


class TestMetadataErrors:
    @staticmethod
    def _train_with_metadata(tmp_path, capsys, key, value):
        """Exit code and stderr of training on generated CSVs with one metadata key changed."""
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(write_config(tmp_path / "gen.yaml")),
              "--out", str(data_dir)])
        metadata = data_dir / "metadata.json"
        meta = json.loads(metadata.read_text())
        meta[key] = value
        metadata.write_text(json.dumps(meta))
        train_cfg = write_config(
            tmp_path / "train.yaml",
            data={"csv": {"source": str(data_dir / "source.csv"),
                          "target": str(data_dir / "target.csv"),
                          "metadata": str(metadata)}})
        capsys.readouterr()
        code = main(["train", "--config", str(train_cfg), "--out", str(tmp_path / "run")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("dim", "2"), ("dim", 3), ("shared_classes", [7]),
                                            ("num_source_classes", 0)])
    def test_bad_metadata_names_the_file(self, tmp_path, capsys, key, value):
        code, err = self._train_with_metadata(tmp_path, capsys, key, value)
        assert code == 1
        assert err.startswith(f"error: {tmp_path / 'data' / 'metadata.json'}: ")
        assert err.count("\n") == 1

    def test_target_label_outside_shared_classes_names_the_line(self, tmp_path, capsys):
        code, err = self._train_with_metadata(tmp_path, capsys, "shared_classes", [0])
        assert code == 1
        assert err.startswith(f"error: {tmp_path / 'data' / 'target.csv'}:")
        assert "outside the shared classes [0]" in err and err.count("\n") == 1


class TestDuplicateJsonKeys:
    """A key given twice in a JSON document is one error line, not last-one-wins."""

    def test_metadata_duplicate_key_fails_train_before_output(self, tmp_path, capsys):
        cfg = _csv_train_config(tmp_path)
        metadata = tmp_path / "data" / "metadata.json"
        text = metadata.read_text()
        assert '"num_source_classes": 5' in text
        metadata.write_text(text.replace('"num_source_classes": 5',
                                         '"num_source_classes": 5, "num_source_classes": 7'))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err,
                               f"{metadata}: duplicate key 'num_source_classes'")

    def test_model_duplicate_key_fails_eval(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"model": {}, "schema": "1.0", "schema": "1.0"}\n')
        assert main(["eval", "--model", str(model), "--data", str(tmp_path)]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err,
                               f"{model}: duplicate key 'schema'")

    def test_metrics_duplicate_key_fails_bound_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        metrics = out / "metrics.jsonl"
        lines = metrics.read_text().splitlines()
        assert lines[1].startswith("{")
        lines[1] = '{"epoch":7,' + lines[1][1:]
        metrics.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["bound-trace", str(metrics)]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err,
                               f"{metrics}:2: bad metrics record: duplicate key 'epoch'")


class TestCsvErrors:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_the_line(self, tmp_path, capsys, value):
        data_dir = tmp_path / "data"
        main(["generate-data", "--config", str(write_config(tmp_path / "gen.yaml")),
              "--out", str(data_dir)])
        source = data_dir / "source.csv"
        lines = source.read_text().splitlines()
        fields = lines[4].split(",")
        fields[1] = value
        lines[4] = ",".join(fields)
        source.write_text("\n".join(lines) + "\n")
        train_cfg = write_config(
            tmp_path / "train.yaml",
            data={"csv": {"source": str(source),
                          "target": str(data_dir / "target.csv"),
                          "metadata": str(data_dir / "metadata.json")}})
        capsys.readouterr()
        assert main(["train", "--config", str(train_cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {source}:5: non-finite feature value\n"


def _csv_train_config(tmp_path, target_rows=None):
    """A training config on generated CSVs; ``target_rows`` edits target.csv's data rows."""
    data_dir = tmp_path / "data"
    main(["generate-data", "--config", str(write_config(tmp_path / "gen.yaml")),
          "--out", str(data_dir)])
    target = data_dir / "target.csv"
    if target_rows is not None:
        header, *rows = target.read_text().splitlines()
        target.write_text("\n".join([header] + target_rows(rows)) + "\n")
    return write_config(
        tmp_path / "train.yaml",
        data={"csv": {"source": str(data_dir / "source.csv"), "target": str(target),
                      "metadata": str(data_dir / "metadata.json")}})


def _blank_labels(rows, which):
    out = []
    for i, row in enumerate(rows):
        *x, y, domain = row.split(",")
        out.append(",".join(x + ["" if which(i) else y, domain]))
    return out


class TestTargetLabels:
    def test_partly_labeled_target_names_the_first_blank_line(self, tmp_path, capsys):
        cfg = _csv_train_config(tmp_path, lambda rows: _blank_labels(rows, lambda i: i in (3, 7)))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'data' / 'target.csv'}:5: blank label")
        assert err.count("\n") == 1

    def test_unlabeled_target_trains_without_an_oracle(self, tmp_path, capsys):
        cfg = _csv_train_config(tmp_path, lambda rows: _blank_labels(rows, lambda i: True))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert "final target accuracy n/a" in capsys.readouterr().out

    def test_reused_out_keeps_only_its_own_files(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path / "c.yaml")),
                     "--out", str(out)]) == 0
        assert (out / "confusion.csv").exists()
        cfg = _csv_train_config(tmp_path, lambda rows: _blank_labels(rows, lambda i: True))
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "effective_config.yaml", "metrics.jsonl", "model.json", "run_log.txt"]


def _assert_one_error_line(tmp_path, err, expected):
    """The whole stderr is ``expected``, and no output directory was made."""
    assert err == f"error: {expected}\n"
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


class TestConfigFileErrors:
    @pytest.mark.parametrize("text, message", [
        ("42\n", "expected a mapping, got int"),
        ("seed: 1e400\n", "seed: expected int, got str"),
    ], ids=["not_a_mapping", "str_for_int"])
    def test_value_error_names_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err, f"{path}: {message}")

    def test_variant_flag_and_file_give_the_same_message(self, tmp_path, capsys):
        message = f"variant: unknown name 'bogus'; known: {sorted(NAMED_VARIANTS)}"
        path = write_config(tmp_path / "c.yaml")
        assert main(["train", "--config", str(path), "--variant", "bogus",
                     "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err, message)
        bad = write_config(tmp_path / "bad.yaml", variant="bogus")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err, f"{bad}: {message}")


class TestDataTheRunCannotUse:
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_batch_larger_than_a_domain_names_the_key(self, tmp_path, capfd, command):
        path = write_config(tmp_path / "c.yaml", data={"synthetic": {"seed": 1}},
                            schedule={"batch_size": 400})
        args = ["--seeds", "1"] if command == "ablate" else []
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")] + args) == 1
        _assert_one_error_line(tmp_path, capfd.readouterr().err,
                               "schedule.batch_size: 400 exceeds the 300 rows "
                               "of the target domain")

    def test_source_csv_too_small_for_the_audit_split_names_the_file(self, tmp_path, capsys):
        cfg = _csv_train_config(tmp_path)
        source = tmp_path / "data" / "source.csv"
        source.write_text("\n".join(source.read_text().splitlines()[:3]) + "\n")
        write_config(cfg, data=yaml.safe_load(cfg.read_text())["data"],
                     schedule={"total_epochs": 1, "batch_size": 1})
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err,
                               f"{source}: 2 source rows in the shared classes are too few "
                               "for the divergence proxy's train/test split")

    def test_synthetic_domain_too_small_for_the_audit_split_names_the_section(
            self, tmp_path, capsys):
        path = write_config(tmp_path / "c.yaml",
                            data={"synthetic": {"samples_per_class": 2,
                                                "shared_classes": [0]}},
                            schedule={"total_epochs": 1, "batch_size": 1})
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err,
                               "data.synthetic: 2 source rows in the shared classes are "
                               "too few for the divergence proxy's train/test split")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_ablate_worker_error_is_one_line(self, tmp_path, capfd, workers):
        cfg = _csv_train_config(tmp_path)
        source = tmp_path / "data" / "source.csv"
        lines = source.read_text().splitlines()
        lines[4] = lines[4].replace(lines[4].split(",")[0], "nan", 1)
        source.write_text("\n".join(lines) + "\n")
        capfd.readouterr()
        assert main(["ablate", "--config", str(cfg), "--seeds", "2", "--workers", workers,
                     "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capfd.readouterr().err,
                               f"{source}:5: non-finite feature value")
