import errno
import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from pdalab.cli import BOUND_TRACE_COLUMNS, main
from pdalab.config import load_config
from pdalab.metrics import read_metrics
from pdalab.trainer import ABLATION_VARIANTS, NAMED_VARIANTS


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

    def test_failed_run_writes_nothing(self, tmp_path, capsys, monkeypatch):
        import pdalab.cli

        def diverge(*args, **kwargs):
            raise FloatingPointError("non-finite values produced by 'linear'")

        monkeypatch.setattr(pdalab.cli, "run_experiment", diverge)
        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path / "c.yaml")),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: data.synthetic: non-finite values produced by 'linear'\n"
        assert not out.exists()

    def test_no_output_directory_is_one_error_line(self, tmp_path, capsys):
        assert main(["train", "--config", str(write_config(tmp_path / "c.yaml"))]) == 1
        assert capsys.readouterr() == (
            "", "error: an output directory is required (config out_dir or --out)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]

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

    @staticmethod
    def _edit_epoch_1(tmp_path, edit):
        """A trained run's metrics file with ``edit`` applied to epoch 1's record."""
        out = tmp_path / "run"
        main(["train", "--config", str(write_config(tmp_path / "c.yaml")), "--out", str(out)])
        metrics = out / "metrics.jsonl"
        lines = metrics.read_text().splitlines()
        record = json.loads(lines[1])
        edit(record)
        lines[1] = json.dumps(record)
        metrics.write_text("\n".join(lines) + "\n")
        return metrics, record

    def test_stored_violation_names_the_file_and_epoch(self, tmp_path, capsys):
        def above_the_rhs(record):
            record["bound"]["w_error_l1"] = record["bound"]["rhs_intermediate"] + 1.0

        metrics, record = self._edit_epoch_1(tmp_path, above_the_rhs)
        capsys.readouterr()
        trace = tmp_path / "trace.csv"
        assert main(["bound-trace", str(metrics), "--out", str(trace)]) == 1
        bound = record["bound"]
        assert capsys.readouterr().err == (
            f"error: {metrics}: stored record: intermediate inequality violated: "
            f"{bound['w_error_l1']!r} > {bound['rhs_intermediate']!r} (epoch 1)\n")
        assert not trace.exists()

    def test_bound_epoch_other_than_the_record_names_the_line(self, tmp_path, capsys):
        metrics, _ = self._edit_epoch_1(tmp_path, lambda record: record["bound"].update(epoch=9))
        capsys.readouterr()
        assert main(["bound-trace", str(metrics)]) == 1
        assert capsys.readouterr().err == (
            f"error: {metrics}:2: bad metrics record: bound.epoch 9 disagrees with epoch 1\n")

    def test_records_out_of_epoch_order_name_the_line(self, tmp_path, capsys):
        metrics, _ = self._edit_epoch_1(tmp_path, lambda record: None)
        lines = metrics.read_text().splitlines()
        metrics.write_text("\n".join(lines[i] for i in (0, 2, 1, 1)) + "\n")
        capsys.readouterr()
        assert main(["bound-trace", str(metrics)]) == 1
        assert capsys.readouterr().err == (
            f"error: {metrics}:2: epoch 2 out of order (expected epoch 1)\n")

    def test_empty_file_names_the_file(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text("")
        assert main(["bound-trace", str(metrics)]) == 1
        assert capsys.readouterr() == ("", f"error: {metrics}: no metrics records\n")

    def test_record_without_a_bound_report_names_the_file_and_epoch(self, tmp_path, capsys):
        metrics, _ = self._edit_epoch_1(tmp_path, lambda record: record.update(bound=None))
        capsys.readouterr()
        assert main(["bound-trace", str(metrics)]) == 1
        assert capsys.readouterr().err == (
            f"error: {metrics}: epoch 1 has no bound report "
            "(run was trained without oracle labels)\n")


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--seeds", "0", "must be at least 1, got 0"),
        ("--workers", "0", "must be at least 1, got 0"),
        ("--workers", "-3", "must be at least 1, got -3"),
        ("--seeds", "abc", "invalid int value: 'abc'"),
    ], ids=["--seeds-0", "--workers-0", "--workers--3", "--seeds-abc"])
    def test_counts_below_one_are_argument_errors(self, tmp_path, capsys, flag, value,
                                                  message):
        cfg = write_config(tmp_path / "c.yaml")
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", str(cfg), flag, value, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("disc_hidden", [[], [4]],
                             ids=["disc_hidden_empty", "disc_hidden_4"])
    def test_workers_do_not_change_results(self, tmp_path, disc_hidden):
        cfg = write_config(tmp_path / "c.yaml", arch={"disc_hidden": disc_hidden},
                           schedule={"total_epochs": 2, "warmup_epochs": 1,
                                     "batch_size": 8, "eta0": 0.05})
        for seeds in ("1", "2"):
            tables = set()
            for workers in ("1", "2", "3", "5"):
                out = tmp_path / f"{seeds}-{workers}"
                assert main(["ablate", "--config", str(cfg), "--seeds", seeds,
                             "--workers", workers, "--out", str(out)]) == 0
                tables.add((out / "ablation.csv").read_text())
            assert len(tables) == 1

    @pytest.mark.parametrize("workers, seeds, disc_hidden, chunks", [
        ("2", "1", [], [3, 2]), ("1", "1", [], [5]), ("8", "1", [], [1] * 5),
        ("2", "2", [], [5, 5]), ("3", "2", [], [3, 2, 5]), ("2", "1", [4], [5, 1]),
        ("3", "1", [4], [3, 2, 1]),
    ])
    def test_runs_train_in_chunks_of_one_seed_and_network(self, tmp_path, monkeypatch,
                                                          workers, seeds, disc_hidden,
                                                          chunks):
        sent = []
        monkeypatch.setattr("pdalab.cli.ProcessPoolExecutor", _InProcessPool)
        monkeypatch.setattr("pdalab.cli._ablate_one",
                            lambda jobs: sent.append(jobs) or [0.5] * len(jobs))
        cfg = write_config(tmp_path / "c.yaml", arch={"disc_hidden": disc_hidden})
        assert main(["ablate", "--config", str(cfg), "--seeds", seeds,
                     "--workers", workers]) == 0
        assert [len(jobs) for jobs in sent] == chunks
        for jobs in sent:
            assert len({(job.seed, job.flags().shared_trunk) for job in jobs}) == 1


    def test_writes_into_the_configured_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("pdalab.cli.ProcessPoolExecutor", _InProcessPool)
        out = tmp_path / "od_out"
        cfg = write_config(tmp_path / "c.yaml", out_dir=str(out),
                           schedule={"total_epochs": 1, "warmup_epochs": 1,
                                     "batch_size": 8, "eta0": 0.05})
        assert main(["ablate", "--config", str(cfg), "--seeds", "1"]) == 0
        table = (out / "ablation.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in table[1:]] == list(ABLATION_VARIANTS)
        assert capsys.readouterr().out.endswith(f"wrote {out / 'ablation.csv'}\n")

    @pytest.mark.parametrize("workers, seeds, size", [("8", "1", 5), ("2", "1", 2),
                                                      ("8", "2", 8)])
    def test_pool_has_no_more_workers_than_runs(self, tmp_path, monkeypatch, workers,
                                                seeds, size):
        sizes = []

        class RecordingPool(_InProcessPool):
            def __init__(self, max_workers):
                sizes.append(max_workers)

        monkeypatch.setattr("pdalab.cli.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("pdalab.cli._ablate_one", lambda jobs: [0.5] * len(jobs))
        assert main(["ablate", "--config", str(write_config(tmp_path / "c.yaml")),
                     "--seeds", seeds, "--workers", workers]) == 0
        assert sizes == [size]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers inherit the patched module only when forked")
    def test_a_worker_that_dies_is_one_error_line(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setattr("pdalab.cli._ablate_one", _die)
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["ablate", "--config", str(cfg), "--seeds", "1", "--workers", "2",
                     "--out", str(tmp_path / "o")]) == 1
        captured = capfd.readouterr()
        assert captured.err.startswith("error: ablate: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "o").exists()


def _die(jobs):
    """A pool worker that ends its process without a result."""
    os._exit(3)


class _InProcessPool:
    """A stand-in for ``ProcessPoolExecutor`` that runs every job in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return list(map(fn, jobs))


class TestRunKeys:
    """With no discriminator trunk layers, a private trunk trains the shared
    network, so ``ablate`` runs that row once with ``san_pp``; with trunk
    layers the two stay separate runs."""

    @pytest.mark.parametrize("disc_hidden, same", [([], True), ([4], False)],
                             ids=["disc_hidden_empty", "disc_hidden_4"])
    def test_private_trunk_row_records_equal_san_pp_only_without_trunk_layers(
            self, tmp_path, disc_hidden, same):
        cfg = write_config(tmp_path / "c.yaml", arch={"disc_hidden": disc_hidden})
        records = []
        for variant in ("instance_class_self_private", "san_pp"):
            out = tmp_path / variant
            assert main(["train", "--config", str(cfg), "--variant", variant,
                         "--out", str(out)]) == 0
            records.append((out / "metrics.jsonl").read_bytes())
        assert (records[0] == records[1]) is same

    @pytest.mark.parametrize("disc_hidden, per_seed", [([], 5), ([4], 6)],
                             ids=["disc_hidden_empty", "disc_hidden_4"])
    def test_ablate_runs_each_distinct_network_once_per_seed(self, tmp_path, monkeypatch,
                                                             disc_hidden, per_seed):
        import pdalab.cli

        seeds, real = [], pdalab.cli._ablate_one
        monkeypatch.setattr(pdalab.cli, "ProcessPoolExecutor", _InProcessPool)
        monkeypatch.setattr(pdalab.cli, "_ablate_one",
                            lambda jobs: seeds.extend(job.seed for job in jobs) or real(jobs))
        cfg = write_config(tmp_path / "c.yaml", arch={"disc_hidden": disc_hidden},
                           schedule={"total_epochs": 1, "warmup_epochs": 1,
                                     "batch_size": 8, "eta0": 0.05})
        assert main(["ablate", "--config", str(cfg), "--seeds", "2",
                     "--out", str(tmp_path / "o")]) == 0
        assert sorted(seeds) == [0] * per_seed + [1] * per_seed
        table = (tmp_path / "o" / "ablation.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in table[1:]] == list(ABLATION_VARIANTS)


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
        assert _ablate_one([cfg]) == [full.records[-1].target_accuracy]
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
            _ablate_one([self._job(tmp_path, variant="source_only")])

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
    """Make every run's w_error_l1 at ``epoch`` read 10.0, above any
    right-hand side, when the inequality is checked."""
    real = bound.check_intermediate

    def check(w_error_l1, rhs_intermediate, at):
        real(10.0 if at == epoch else w_error_l1, rhs_intermediate, at)

    monkeypatch.setattr(bound, "check_intermediate", check)


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

    @staticmethod
    def _model_and_data(tmp_path, edit=lambda state: None, **synthetic):
        """A model trained on the default test data with ``edit`` applied to
        its state, and a data directory generated with ``synthetic`` keys."""
        out, data_dir = tmp_path / "run", tmp_path / "data"
        main(["train", "--config", str(write_config(tmp_path / "c.yaml")), "--out", str(out)])
        gen = write_config(tmp_path / "gen.yaml",
                           data={"synthetic": {"samples_per_class": 12, "seed": 1, **synthetic}})
        main(["generate-data", "--config", str(gen), "--out", str(data_dir)])
        model = out / "model.json"
        snapshot = json.loads(model.read_text())
        edit(snapshot["model"])
        model.write_text(json.dumps(snapshot))
        return model, data_dir

    def test_class_count_mismatch_names_model_and_metadata(self, tmp_path, capsys):
        model, data_dir = self._model_and_data(tmp_path, num_source_classes=3,
                                               shared_classes=[0, 1])
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", str(data_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: num_classes 5 disagrees with num_source_classes 3 "
            f"of {data_dir / 'metadata.json'}\n")

    def test_input_width_mismatch_names_model_and_metadata(self, tmp_path, capsys):
        def widen(state):
            w = state["features"][0]["w"]
            w.append([0.0] * len(w[0]))

        model, data_dir = self._model_and_data(tmp_path, widen)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", str(data_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: input width 3 disagrees with dim 2 "
            f"of {data_dir / 'metadata.json'}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s["features"][0].update(w=[[True] * len(r) for r in s["features"][0]["w"]]),
         "model.features[0].w[0][0]: expected float, got bool"),
        (lambda s: s.update(num_classes=5.9), "model.num_classes: expected int, got float"),
        (lambda s: s["discriminator"].update(shared_trunk="no"),
         "model.discriminator.shared_trunk: expected bool, got str"),
        (lambda s: s["classifier"][0]["b"].__setitem__(1, float("inf")),
         "model.classifier[0].b[1]: expected a finite float, got inf"),
    ], ids=["bool_weights", "float_class_count", "str_trunk_flag", "infinite_weight"])
    def test_wrong_value_type_names_the_file_and_key_path(self, tmp_path, capsys,
                                                          edit, message):
        model, data_dir = self._model_and_data(tmp_path, edit)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", str(data_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: malformed model snapshot ({message})\n")


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


def _csv_train_config(tmp_path, target_rows=None, source_rows=None):
    """A training config on generated CSVs; ``target_rows`` and ``source_rows``
    edit the data rows of target.csv and source.csv."""
    data_dir = tmp_path / "data"
    main(["generate-data", "--config", str(write_config(tmp_path / "gen.yaml")),
          "--out", str(data_dir)])
    for name, edit in (("target.csv", target_rows), ("source.csv", source_rows)):
        if edit is not None:
            header, *rows = (data_dir / name).read_text().splitlines()
            (data_dir / name).write_text("\n".join([header] + edit(rows)) + "\n")
    return write_config(
        tmp_path / "train.yaml",
        data={"csv": {"source": str(data_dir / "source.csv"),
                      "target": str(data_dir / "target.csv"),
                      "metadata": str(data_dir / "metadata.json")}})


def _blank_labels(rows, which, label=""):
    """``rows`` with the ``y`` of each row ``i`` where ``which(i)`` set to ``label``."""
    out = []
    for i, row in enumerate(rows):
        *x, y, domain = row.split(",")
        out.append(",".join(x + [label if which(i) else y, domain]))
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

    @pytest.mark.parametrize("name, edit, message", [
        ("target", lambda rows: _blank_labels(rows, lambda i: True, "-1"),
         "2: label -1 outside the shared classes [0, 1, 2] of {metadata}"),
        ("source", lambda rows: _blank_labels(rows, lambda i: i == 3, "-1"),
         "5: label -1 outside [0, 5)"),
        ("target", lambda rows: rows[:2] + [rows[2][:-1] + "1"] + rows[3:],
         "4: domain 1 in a target file (expected 0)"),
        ("source", lambda rows: _blank_labels(rows, lambda i: i in (3, 7)),
         "5: blank label in a partly labeled file (label every row or none)"),
        ("source", lambda rows: _blank_labels(rows, lambda i: i == 0, "99999999999999999999"),
         "2: label 99999999999999999999 beyond the int64 range"),
        ("target", lambda rows: _blank_labels(rows, lambda i: i == 1, "-99999999999999999999"),
         "3: label -99999999999999999999 beyond the int64 range"),
    ], ids=["target_all_minus_one", "source_minus_one", "target_row_tagged_source",
            "partly_labeled_source", "source_label_beyond_int64", "target_label_beyond_int64"])
    def test_bad_label_column_is_one_error_line_at_its_row(self, tmp_path, capsys, name,
                                                           edit, message):
        cfg = _csv_train_config(tmp_path, **{f"{name}_rows": edit})
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        data_dir = tmp_path / "data"
        _assert_one_error_line(tmp_path, capsys.readouterr().err, f"{data_dir / name}.csv:"
                               + message.format(metadata=data_dir / "metadata.json"))

    def test_eval_without_oracle_labels_names_the_target_file(self, tmp_path, capsys):
        cfg = _csv_train_config(tmp_path, lambda rows: _blank_labels(rows, lambda i: True))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(out / "model.json"),
                     "--data", str(tmp_path / "data")]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'data' / 'target.csv'}: no oracle labels "
            "(every y is blank); eval needs them\n")

    def test_ablate_without_oracle_labels_names_the_target_key(self, tmp_path, capfd):
        cfg = _csv_train_config(tmp_path, lambda rows: _blank_labels(rows, lambda i: True))
        capfd.readouterr()
        assert main(["ablate", "--config", str(cfg), "--seeds", "1",
                     "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capfd.readouterr().err,
                               f"data.csv.target: {tmp_path / 'data' / 'target.csv'} has no "
                               "oracle labels (every y is blank); ablate needs them for accuracy")

    def test_ablate_without_oracle_labels_fails_in_its_worker_function(self, tmp_path, capsys,
                                                                        monkeypatch):
        """The same line, with every chunk run in this process."""
        monkeypatch.setattr("pdalab.cli.ProcessPoolExecutor", _InProcessPool)
        cfg = _csv_train_config(tmp_path, lambda rows: _blank_labels(rows, lambda i: True))
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg), "--seeds", "1",
                     "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err,
                               f"data.csv.target: {tmp_path / 'data' / 'target.csv'} has no "
                               "oracle labels (every y is blank); ablate needs them for accuracy")

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
                               f"{source}, {tmp_path / 'data' / 'target.csv'}: 2 source rows "
                               "in the shared classes are too few for the divergence "
                               "proxy's train/test split")

    @staticmethod
    def _too_small_for_the_split(tmp_path):
        """Synthetic data with 2 target rows: enough for a batch of 1, too
        few for the divergence proxy's 80/20 split."""
        return write_config(tmp_path / "c.yaml",
                            data={"synthetic": {"samples_per_class": 2, "shared_classes": [0],
                                                "seed": 1}},
                            schedule={"total_epochs": 1, "warmup_epochs": 1, "batch_size": 1})

    def test_ablate_runs_on_data_too_small_for_the_split(self, tmp_path, capsys):
        path = self._too_small_for_the_split(tmp_path)
        assert main(["ablate", "--config", str(path), "--seeds", "1",
                     "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,seeds,mean_accuracy,std_accuracy" and len(lines) == 1 + 6

    def test_generate_data_writes_data_too_small_for_the_split(self, tmp_path):
        path = self._too_small_for_the_split(tmp_path)
        assert main(["generate-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
            "metadata.json", "source.csv", "target.csv"]

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


class TestInputThatIsNotUtf8:
    """Every input file is decoded by one reader, whose error names the file."""

    @staticmethod
    def _insert_ff(path, at):
        data = path.read_bytes()
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        return (f"{path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff "
                f"in position {at}: invalid start byte)")

    @pytest.mark.parametrize("name", ["source.csv", "target.csv", "metadata.json"])
    def test_dataset_file_fails_train(self, tmp_path, capsys, name):
        cfg = _csv_train_config(tmp_path)
        message = self._insert_ff(tmp_path / "data" / name, 20)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err, message)

    def test_metrics_file_fails_bound_trace(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path / "c.yaml")),
                     "--out", str(run)]) == 0
        message = self._insert_ff(run / "metrics.jsonl", 30)
        capsys.readouterr()
        assert main(["bound-trace", str(run / "metrics.jsonl")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_model_file_fails_eval(self, tmp_path, capsys):
        run, data = tmp_path / "run", tmp_path / "data"
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["generate-data", "--config", str(cfg), "--out", str(data)]) == 0
        message = self._insert_ff(run / "model.json", 30)
        capsys.readouterr()
        assert main(["eval", "--model", str(run / "model.json"), "--data", str(data)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_crlf_files_keep_their_error_line_numbers(self, tmp_path, capsys):
        cfg = _csv_train_config(tmp_path, source_rows=lambda rows: rows[:3] + [
            rows[3].replace(rows[3].split(",")[0], "nan", 1)] + rows[4:])
        source = tmp_path / "data" / "source.csv"
        source.write_bytes(source.read_bytes().replace(b"\n", b"\r\n"))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err,
                               f"{source}:5: non-finite feature value")
        run = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path / "c.yaml")),
                     "--out", str(run)]) == 0
        metrics = run / "metrics.jsonl"
        lines = metrics.read_text().splitlines()
        metrics.write_bytes(("\r\n".join([lines[0], lines[2]]) + "\r\n").encode())
        capsys.readouterr()
        assert main(["bound-trace", str(metrics)]) == 1
        assert capsys.readouterr().err == (f"error: {metrics}:2: epoch 2 out of order "
                                           "(expected epoch 1)\n")


class TestNegativeSeeds:
    @pytest.mark.parametrize("overrides, args, message", [
        ({"seed": -1}, [], "{cfg}: seed must be nonnegative, got -1"),
        ({"data": {"synthetic": {"seed": -5}}}, [],
         "{cfg}: data.synthetic: seed must be nonnegative, got -5"),
        ({}, ["--seed", "-3"], "--seed: seed must be nonnegative, got -3"),
    ], ids=["config_seed", "data_seed", "seed_flag"])
    def test_negative_seed_names_its_key(self, tmp_path, capsys, overrides, args, message):
        cfg = write_config(tmp_path / "c.yaml", **overrides)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"), *args]) == 1
        _assert_one_error_line(tmp_path, capsys.readouterr().err, message.format(cfg=cfg))


class TestArchWidths:
    @pytest.mark.parametrize("command", ["generate-data", "train", "ablate"])
    def test_zero_width_fails_before_any_data_work(self, tmp_path, capfd, monkeypatch,
                                                   command):
        def no_data(*args, **kwargs):
            raise AssertionError("data work began")
        monkeypatch.setattr("pdalab.cli._load_data", no_data)
        cfg = write_config(tmp_path / "c.yaml", arch={"hidden": [0]})
        args = ["--seeds", "1"] if command == "ablate" else []
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *args]) == 1
        _assert_one_error_line(tmp_path, capfd.readouterr().err,
                               f"{cfg}: arch: hidden widths must be positive")


class TestOverflow:
    """An overflow in training is one error line naming the data and where in
    the run it happened, with no warning text (pytest turns a RuntimeWarning
    into an error) and no output directory."""

    def test_huge_feature_names_the_csv_files_and_the_snapshot(self, tmp_path, capsys):
        def huge_first_feature(rows):
            return [",".join(["1e308", *rows[0].split(",")[1:]]), *rows[1:]]

        cfg = _csv_train_config(tmp_path, source_rows=huge_first_feature)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        data = tmp_path / "data"
        _assert_one_error_line(tmp_path, capsys.readouterr().err,
                               f"{data / 'source.csv'}, {data / 'target.csv'}: epoch 0 "
                               "snapshot: non-finite values produced by 'linear'")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_huge_learning_rate_names_the_data_epoch_and_step(self, tmp_path, capfd,
                                                              command):
        cfg = write_config(tmp_path / "c.yaml",
                           schedule={"total_epochs": 3, "warmup_epochs": 1,
                                     "batch_size": 8, "eta0": 1.0e+300})
        args = ["--seeds", "1", "--workers", "2"] if command == "ablate" else []
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), *args]) == 1
        out, err = capfd.readouterr()
        assert out == ""
        _assert_one_error_line(tmp_path, err, "data.synthetic: epoch 1: step 2: "
                               "non-finite values produced by 'linear'")


class TestOutIsAFile:
    @pytest.mark.parametrize("command", ["generate-data", "train", "ablate"])
    def test_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("work began")
        monkeypatch.setattr("pdalab.cli._load_data", no_work)
        monkeypatch.setattr("pdalab.cli.ProcessPoolExecutor", no_work)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        args = ["--seeds", "1"] if command == "ablate" else []
        assert main([command, "--config", str(write_config(tmp_path / "c.yaml")),
                     "--out", str(afile), *args]) == 1
        assert capsys.readouterr() == ("", f"error: {afile}: not a directory\n")
        assert afile.read_text() == "kept\n"


class TestOutIsADirectory:
    @pytest.mark.parametrize("command", ["bound-trace", "eval"])
    def test_is_one_error_line_and_no_output(self, tmp_path, capsys, command):
        run, data = tmp_path / "run", tmp_path / "data"
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
        assert main(["generate-data", "--config", str(cfg), "--out", str(data)]) == 0
        argv = {"bound-trace": ["bound-trace", str(run / "metrics.jsonl")],
                "eval": ["eval", "--model", str(run / "model.json"), "--data", str(data)]}
        directory = tmp_path / "d"
        directory.mkdir()
        capsys.readouterr()
        assert main(argv[command] + ["--out", str(directory)]) == 1
        assert capsys.readouterr() == ("", f"error: {directory}: is a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml", "d", "data", "run"]
        assert not any(directory.iterdir())


def _trained(tmp_path):
    """A model and its metrics in ``run``, and a dataset in ``data``."""
    cfg = write_config(tmp_path / "c.yaml")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert main(["generate-data", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    return tmp_path / "run", tmp_path / "data"


def _set_generate_data(tmp_path):
    return (["generate-data", "--config", str(write_config(tmp_path / "c.yaml")),
             "--out", str(tmp_path / "o")], ["source.csv", "target.csv", "metadata.json"])


def _set_train(tmp_path):
    return (["train", "--config", str(write_config(tmp_path / "c.yaml")),
             "--out", str(tmp_path / "o")],
            ["effective_config.yaml", "metrics.jsonl", "model.json", "confusion.csv",
             "run_log.txt"])


def _set_ablate(tmp_path):
    return (["ablate", "--config", str(write_config(tmp_path / "c.yaml")), "--seeds", "1",
             "--out", str(tmp_path / "o")], ["ablation.csv"])


def _set_eval(tmp_path):
    run, data = _trained(tmp_path)
    return (["eval", "--model", str(run / "model.json"), "--data", str(data), "--out",
             str(tmp_path / "o" / "confusion.csv")], ["confusion.csv"])


def _set_bound_trace(tmp_path):
    run, _ = _trained(tmp_path)
    return (["bound-trace", str(run / "metrics.jsonl"), "--out",
             str(tmp_path / "o" / "trace.csv")], ["trace.csv"])


# Each command's argv, writing into ``o``, and the files of its output set.
_OUTPUT_SETS = {"generate-data": _set_generate_data, "train": _set_train,
                "ablate": _set_ablate, "eval": _set_eval, "bound-trace": _set_bound_trace}


def _snapshot(root):
    """Each path under ``root``: a file's bytes and inode (a file renamed into
    place is a new inode), or None for a directory."""
    return {p.relative_to(root): None if p.is_dir() else (p.read_bytes(), p.stat().st_ino)
            for p in root.rglob("*")}


class TestOutputSets:
    """A command's files commit as one set: a failure before the commit
    leaves an earlier run's files as they were, adds none and prints nothing
    but one error line."""

    @pytest.mark.parametrize("command, name", [("train", "metrics.jsonl"),
                                               ("ablate", "ablation.csv"),
                                               ("generate-data", "metadata.json")])
    def test_a_blocked_file_in_a_new_out_leaves_only_the_block(self, tmp_path, capfd,
                                                               command, name):
        argv, _ = _OUTPUT_SETS[command](tmp_path)
        blocked = tmp_path / "o" / name
        blocked.mkdir(parents=True)
        capfd.readouterr()
        assert main(argv) == 1
        assert capfd.readouterr() == ("", f"error: {blocked}: is a directory\n")
        assert list((tmp_path / "o").rglob("*")) == [blocked]

    @pytest.mark.parametrize("command", _OUTPUT_SETS)
    def test_a_directory_at_any_file_of_the_set_changes_nothing(self, tmp_path, capfd,
                                                                command):
        argv, names = _OUTPUT_SETS[command](tmp_path)
        out = tmp_path / "o"
        assert main(argv) == 0
        for name in names:
            earlier = (out / name).read_bytes()
            (out / name).unlink()
            (out / name).mkdir()
            before = _snapshot(out)
            capfd.readouterr()
            assert main(argv) == 1
            assert capfd.readouterr() == ("", f"error: {out / name}: is a directory\n")
            assert _snapshot(out) == before
            (out / name).rmdir()
            (out / name).write_bytes(earlier)

    @pytest.mark.parametrize("command", _OUTPUT_SETS)
    def test_a_failed_write_of_any_temporary_changes_nothing(self, tmp_path, capfd,
                                                             monkeypatch, command):
        argv, names = _OUTPUT_SETS[command](tmp_path)
        out = tmp_path / "o"
        assert main(argv) == 0
        before = _snapshot(out)
        for n in range(len(names)):
            opened = []

            def fail_at_n(file, *args, **kwargs):
                opened.append(file)
                fh = open(file, *args, **kwargs)
                if len(opened) == n + 1:
                    fh.write("part")
                    fh.close()
                    raise OSError(errno.ENOSPC, "No space left on device", str(file))
                return fh

            monkeypatch.setattr("pdalab.metrics.open", fail_at_n, raising=False)
            capfd.readouterr()
            assert main(argv) == 1
            assert capfd.readouterr() == (
                "", f"error: {Path(opened[n]).parent / names[n]}: No space left on device\n")
            assert _snapshot(out) == before

    def test_a_failed_write_into_a_new_nested_out_leaves_no_directory(
            self, tmp_path, capfd, monkeypatch):
        def no_space(file, *args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device", str(file))

        out = tmp_path / "fresh" / "g"
        monkeypatch.setattr("pdalab.metrics.open", no_space, raising=False)
        assert main(["generate-data", "--config", str(write_config(tmp_path / "c.yaml")),
                     "--out", str(out)]) == 1
        assert capfd.readouterr() == ("", f"error: {out / 'source.csv'}: "
                                          "No space left on device\n")
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_name_at_the_limit_is_written(self, tmp_path, command):
        argv, names = _OUTPUT_SETS[command](tmp_path)
        out = tmp_path / "new" / ("n" * os.pathconf(tmp_path, "PC_NAME_MAX"))
        argv[argv.index("--out") + 1] = str(out)
        assert main(argv) == 0
        written = [out / name for name in names] if command == "train" else [out]
        assert sorted((tmp_path / "new").rglob("*")) == sorted({out, *written})

    @pytest.mark.parametrize("command, file", [("train", "effective_config.yaml"),
                                               ("eval", "")])
    def test_a_name_over_the_limit_in_a_new_directory_is_one_error_line(
            self, tmp_path, capfd, command, file):
        argv, _ = _OUTPUT_SETS[command](tmp_path)
        out = tmp_path / "new" / ("n" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
        argv[argv.index("--out") + 1] = str(out)
        before = _snapshot(tmp_path)
        capfd.readouterr()
        assert main(argv) == 1
        assert capfd.readouterr() == ("", f"error: {out / file}: File name too long\n")
        assert _snapshot(tmp_path) == before

    def test_an_out_over_the_limit_fails_before_any_work(self, tmp_path, capfd, monkeypatch):
        argv, _ = _set_train(tmp_path)
        out = tmp_path / ("n" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
        argv[argv.index("--out") + 1] = str(out)
        monkeypatch.setattr("pdalab.cli._load_data", None)
        assert main(argv) == 1
        assert capfd.readouterr() == ("", f"error: {out}: File name too long\n")


def _bad_config(message, command="train", **overrides):
    def setup(tmp_path):
        cfg = write_config(tmp_path / "c.yaml", **overrides)
        return [command, "--config", str(cfg)], f"{cfg}: {message}"
    return setup


def _bad_model(edit, message):
    def setup(tmp_path):
        model, data = TestEval._model_and_data(tmp_path, edit)
        return (["eval", "--model", str(model), "--data", str(data)],
                f"{model}: malformed model snapshot ({message})")
    return setup


def _widen_first_head(state):
    layer = state["discriminator"]["heads"][0][0]
    layer.update(w=[row + [0.0] for row in layer["w"]], b=layer["b"] + [0.0])


# Each kind of input file, and the commands that read it; the first is its row's plain name.
_READERS = {"config": ("train", "generate-data", "ablate"), "source_csv": ("train", "ablate"),
            "target_csv": ("train", "ablate", "eval"), "metadata": ("train", "ablate", "eval"),
            "model": ("eval",), "metrics": ("bound-trace",)}


def _inputs(tmp_path):
    """The path of each kind of input file, and the argv of each command."""
    cfg, run, data = _csv_train_config(tmp_path), tmp_path / "run", tmp_path / "data"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    argv = {command: [command, "--config", str(cfg)] for command in _READERS["config"]}
    argv["ablate"] += ["--seeds", "2", "--workers", "2"]
    argv["eval"] = ["eval", "--model", str(run / "model.json"), "--data", str(data)]
    argv["bound-trace"] = ["bound-trace", str(run / "metrics.jsonl")]
    return {"config": cfg, "source_csv": data / "source.csv", "target_csv": data / "target.csv",
            "metadata": data / "metadata.json", "model": run / "model.json",
            "metrics": run / "metrics.jsonl"}, argv


def _bad_input(kind, content, message, command=None):
    """The ``kind`` input file replaced by ``content``: text, None for no
    file, or a function that makes something else at the path; read by
    ``command``, or else by the first command that reads it."""
    def setup(tmp_path):
        paths, argv = _inputs(tmp_path)
        path = paths[kind]
        path.unlink()
        if callable(content):
            content(path)
        elif content is not None:
            path.write_text(content)
        return argv[command or _READERS[kind][0]], f"{path}{message}"
    return setup


def _read_by_each(name, kind, content, message):
    """The row ``name`` once per command that reads ``kind``, each but the first
    named with the command."""
    return {name if i == 0 else f"{name}_{command.replace('-', '_')}":
            _bad_input(kind, content, message, command)
            for i, command in enumerate(_READERS[kind])}


_DEEP_JSON = '{"a":' * 3000 + "1" + "}" * 3000
_HEADER = "x0,x1,y,domain\n"
_SYNTHETIC = {"samples_per_class": 12, "seed": 1}
_DIM_0 = {**_SYNTHETIC, "dim": 0, "target_shift": [], "cluster_means": [[] for _ in range(5)]}
_SCHEDULE = {"total_epochs": 3, "warmup_epochs": 1, "batch_size": 8, "eta0": 0.05}
_MALFORMED = {
    "samples_per_class_0": _bad_config(
        "data.synthetic: samples_per_class must be positive",
        data={"synthetic": {**_SYNTHETIC, "samples_per_class": 0}}),
    "cluster_std_negative": _bad_config(
        "data.synthetic: cluster_std must be nonnegative",
        data={"synthetic": {**_SYNTHETIC, "cluster_std": -1}}),
    "target_shift_short": _bad_config(
        "data.synthetic: target_shift length must equal dim",
        data={"synthetic": {**_SYNTHETIC, "target_shift": [1]}}),
    "cluster_means_one": _bad_config(
        "data.synthetic: one cluster mean of length dim per source class required",
        data={"synthetic": {**_SYNTHETIC, "cluster_means": [[0, 0]]}}),
    "dim_3_without_means": _bad_config(
        "data.synthetic: explicit cluster_means are required when dim != 2",
        data={"synthetic": {**_SYNTHETIC, "dim": 3, "target_shift": [0, 0, 0]}}),
    "eta0_0": _bad_config("schedule: eta0 must be positive; alpha, beta nonnegative",
                          schedule={**_SCHEDULE, "eta0": 0}),
    "total_epochs_negative": _bad_config("schedule: epoch counts must be nonnegative",
                                         schedule={**_SCHEDULE, "total_epochs": -1}),
    "batch_size_0": _bad_config("schedule: batch_size must be positive",
                                schedule={**_SCHEDULE, "batch_size": 0}),
    "variant_int": _bad_config("variant: expected a preset name or a flag mapping",
                               variant=5),
    "generate_data_on_csv": _bad_config(
        "data: generate-data requires a synthetic data section", "generate-data",
        data={"csv": {"source": "s.csv", "target": "t.csv", "metadata": "m.json"}}),
    "empty_source_csv": _bad_input("source_csv", "", ": empty file"),
    **_read_by_each("header_only_source_csv", "source_csv", _HEADER, ": no data rows"),
    **_read_by_each("header_only_target_csv", "target_csv", _HEADER, ": no data rows"),
    "model_bias_too_long": _bad_model(lambda s: s["features"][0]["b"].append(0.0),
                                      "layer weight/bias shapes inconsistent"),
    "model_layers_do_not_chain": _bad_model(
        lambda s: s["features"][1].update(w=s["features"][1]["w"][:-1]),
        "consecutive layer dimensions do not chain"),
    "model_two_logit_head": _bad_model(_widen_first_head,
                                       "each discriminator head must emit one logit"),
    "model_private_with_one_trunk": _bad_model(
        lambda s: s["discriminator"].update(shared_trunk=False),
        "private-trunk discriminator requires one trunk per head"),
    "model_num_classes_4": _bad_model(
        lambda s: s.update(num_classes=4),
        "classifier output width must equal the class count"),
    "model_no_heads": _bad_model(lambda s: s["discriminator"].update(heads=[]),
                                 "discriminator needs at least one head"),
    "dim_0": _bad_config("data.synthetic: dim must be positive, got 0",
                         data={"synthetic": _DIM_0}),
    "dim_0_generate_data": _bad_config("data.synthetic: dim must be positive, got 0",
                                       "generate-data", data={"synthetic": _DIM_0}),
    **{row: setup for kind in _READERS for row, setup in _read_by_each(
        f"{kind}_missing", kind, None, ": No such file or directory").items()},
    "config_is_a_directory": _bad_input("config", Path.mkdir, ": Is a directory"),
    "metrics_is_a_directory": _bad_input("metrics", Path.mkdir, ": Is a directory"),
    **_read_by_each("config_nested_too_deep", "config", "seed:\n" + "- " * 3000 + "1\n",
                    ": nesting too deep"),
    "config_flow_nested_too_deep": _bad_input(
        "config", "seed: " + "[" * 1000 + "1" + "]" * 1000 + "\n", ": nesting too deep"),
    "metadata_nested_too_deep": _bad_input("metadata", _DEEP_JSON, ": nesting too deep"),
    **_read_by_each("metadata_shared_class_9", "metadata",
                    '{"dim": 2, "num_source_classes": 5, "shared_classes": [9]}',
                    ": shared_classes must be a nonempty list of class indices in [0, 5), "
                    "got [9]"),
    "model_nested_too_deep": _bad_input("model", _DEEP_JSON, ": nesting too deep"),
    "metrics_nested_too_deep": _bad_input("metrics", "[" * 100_000 + "]" * 100_000,
                                          ":1: nesting too deep"),
}


@pytest.mark.parametrize("setup", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_input_is_one_error_line_naming_the_file(tmp_path, capfd, setup):
    """Exit 1 and exactly ``error: <path>: …`` on stderr: no traceback, no
    warning text, nothing on stdout and no output file or directory."""
    argv, expected = setup(tmp_path)
    capfd.readouterr()
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    _assert_one_error_line(tmp_path, err, expected)
