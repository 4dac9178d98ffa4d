import ast
import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import pdalab
from pdalab.bound import BoundReport
from pdalab.losses import LossBreakdown
from pdalab.metrics import (
    MetricsRecord,
    MetricsSchemaError,
    csv_text,
    load_json,
    read_metrics,
    to_json_line,
    write_files,
    write_metrics,
)


def sample_record(epoch=3):
    bound = BoundReport(delta_bar=0.1, e_type1=0.05, e_src_shared=0.02,
                        e_tgt_shared=0.03, d_hdh_proxy=0.7, w_error_l1=0.2,
                        rhs_intermediate=0.36, rhs_full=1.74, epoch=epoch)
    losses = LossBreakdown(0.5, 0.1, 0.2, 0.4)
    return MetricsRecord(epoch=epoch, target_accuracy=0.875,
                         class_weights=[0.3, 0.3, 0.4], losses=losses,
                         bound=bound)


class TestSerialization:
    def test_round_trip(self):
        rec = sample_record()
        back = MetricsRecord.from_dict(json.loads(to_json_line(rec)))
        assert back.epoch == rec.epoch
        assert back.target_accuracy == rec.target_accuracy
        assert back.class_weights == rec.class_weights
        assert back.losses == rec.losses
        assert back.bound == rec.bound

    def test_floats_survive_17_digit_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, size=5).tolist()
        rec = MetricsRecord(epoch=0, target_accuracy=values[0],
                            class_weights=values[1:], losses=None, bound=None)
        back = MetricsRecord.from_dict(json.loads(to_json_line(rec)))
        assert back.target_accuracy == values[0]
        assert back.class_weights == values[1:]

    def test_wall_clock_not_in_line(self):
        assert "wall_clock" not in to_json_line(sample_record())

    def test_file_round_trip(self, tmp_path):
        records = [sample_record(e) for e in range(4)]
        path = tmp_path / "metrics.jsonl"
        write_metrics(path, records)
        back = read_metrics(path)
        assert [r.epoch for r in back] == [0, 1, 2, 3]
        assert back[2].bound == records[2].bound

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_metrics(a, [sample_record()])
        write_metrics(b, [sample_record()])
        assert a.read_bytes() == b.read_bytes()


class TestSchema:
    def test_unknown_major_version_rejected(self):
        d = sample_record().to_dict()
        d["schema"] = "2.0"
        with pytest.raises(MetricsSchemaError):
            MetricsRecord.from_dict(d)

    def test_minor_version_bump_accepted(self):
        d = sample_record().to_dict()
        d["schema"] = "1.7"
        assert MetricsRecord.from_dict(d).epoch == 3

    def test_file_with_bad_version_rejected(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        d = sample_record().to_dict()
        d["schema"] = "9.0"
        path.write_text(json.dumps(d) + "\n")
        with pytest.raises(MetricsSchemaError, match=f"^{re.escape(str(path))}:1: unsupported"):
            read_metrics(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text(to_json_line(sample_record(0)) + "\nnot json\n")
        with pytest.raises(ValueError, match=":2:"):
            read_metrics(path)

    @pytest.mark.parametrize("field, value", [("losses", 5), ("bound", "x"), ("losses", [1.0])])
    def test_non_mapping_section_reports_position(self, tmp_path, field, value):
        d = sample_record().to_dict()
        d[field] = value
        path = tmp_path / "metrics.jsonl"
        path.write_text(to_json_line(sample_record(0)) + "\n" + json.dumps(d) + "\n")
        with pytest.raises(ValueError, match=f"{path}:2: bad metrics record: .*mapping"):
            read_metrics(path)

    def test_non_object_line_reports_position(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match=":1: bad metrics record"):
            read_metrics(path)

    def test_non_numeric_major_is_a_schema_error(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        d = sample_record().to_dict()
        d["schema"] = "x.0"
        path.write_text(to_json_line(sample_record(0)) + "\n" + json.dumps(d) + "\n")
        with pytest.raises(MetricsSchemaError) as info:
            read_metrics(path)
        assert str(info.value) == f"{path}:2: unsupported metrics schema 'x.0'"

    def test_unknown_keys_ignored_and_ints_widen(self):
        d = sample_record().to_dict()
        d["new_field"] = [1, 2]
        d["bound"]["new_term"] = "anything"
        d["bound"]["w_error_l1"] = 0
        back = MetricsRecord.from_dict(d)
        assert back.bound.w_error_l1 == 0.0 and type(back.bound.w_error_l1) is float
        assert back.losses == sample_record().losses

    @pytest.mark.parametrize("key", ["epoch", "class_weights"])
    def test_required_key(self, key):
        d = sample_record().to_dict()
        del d[key]
        with pytest.raises(ValueError, match=f"^{key}: a value is required$"):
            MetricsRecord.from_dict(d)


class TestAtomicWrite:
    @staticmethod
    def unserializable():
        return MetricsRecord(epoch=4, target_accuracy=0.5, class_weights=[object()],
                             losses=None, bound=None)

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with pytest.raises(TypeError):
            write_metrics(path, [sample_record(), self.unserializable()])
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        write_metrics(path, [sample_record(0)])
        good = path.read_bytes()
        with pytest.raises(TypeError):
            write_metrics(path, [sample_record(), self.unserializable()])
        assert path.read_bytes() == good
        assert list(tmp_path.iterdir()) == [path]

    def test_creates_the_missing_directories_of_the_file(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        write_files({path: "x\n"})
        assert path.read_text() == "x\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["out.txt"]

    def test_a_name_at_the_limit_is_written(self, tmp_path):
        path = tmp_path / ("d" * os.pathconf(tmp_path, "PC_NAME_MAX"))
        write_files({path: "x\n"})
        assert path.read_text() == "x\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_a_directory_is_rejected_before_anything_is_written(self, tmp_path):
        target = tmp_path / "d"
        target.mkdir()
        with pytest.raises(ValueError, match=f"^{re.escape(str(target))}: is a directory$"):
            write_files({target: "x\n"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
        assert not any(target.iterdir())


class TestWriteFiles:
    @staticmethod
    def earlier(tmp_path):
        """Three files of an earlier set, and their bytes and inodes (a file
        renamed into place is a new inode)."""
        paths = [tmp_path / name for name in ("a.txt", "b.txt", "c.txt")]
        write_files({p: f"earlier {p.name}\n" for p in paths})
        return paths, {p: (p.read_bytes(), p.stat().st_ino) for p in tmp_path.iterdir()}

    def test_commits_every_text_and_removes_every_none_path(self, tmp_path):
        (a, b, c), _ = self.earlier(tmp_path)
        write_files({a: "new\r\n", b: None, c: "é\n", tmp_path / "gone": None})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "c.txt"]
        assert a.read_bytes() == b"new\r\n" and c.read_bytes() == "é\n".encode()

    def test_a_directory_anywhere_in_the_set_is_rejected_before_any_write(self, tmp_path):
        (a, b, c), before = self.earlier(tmp_path)
        b.unlink()
        b.mkdir()
        before[b] = None
        with pytest.raises(ValueError, match=f"^{re.escape(str(b))}: is a directory$"):
            write_files({a: "new\n", c: None, b: "new\n"})
        assert {p: None if p.is_dir() else (p.read_bytes(), p.stat().st_ino)
                for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_a_failure_while_staging_leaves_every_path_as_it_was(self, tmp_path,
                                                                 monkeypatch, n):
        (a, b, c), before = self.earlier(tmp_path)
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
        staged = [a, c, tmp_path / "d.txt"]
        with pytest.raises(ValueError, match=f"^{staged[n]}: No space left on device$"):
            write_files({a: "new\n", b: None, c: "new\n", tmp_path / "d.txt": "new\n"})
        assert {p: (p.read_bytes(), p.stat().st_ino) for p in tmp_path.iterdir()} == before

    def test_a_failed_later_rename_is_the_error_and_keeps_what_it_renamed(self, tmp_path,
                                                                           monkeypatch):
        """Past the first rename the set is mixed: the file already renamed and
        its new directory stay, no temporary does, and the rename's own error
        is the one reported."""
        replace = os.replace

        def fail_at_b(src, dst):
            if Path(dst).name == "b.txt":
                raise OSError(errno.EIO, "Input/output error", str(dst))
            replace(src, dst)

        monkeypatch.setattr("pdalab.metrics.os.replace", fail_at_b)
        new = tmp_path / "new"
        with pytest.raises(ValueError, match=f"^{re.escape(str(new / 'b.txt'))}: "
                                             "Input/output error$"):
            write_files({new / "a.txt": "a\n", new / "b.txt": "b\n"})
        assert sorted(tmp_path.rglob("*")) == [new, new / "a.txt"]

    def test_is_the_only_code_that_writes_files(self):
        found = {}
        for path in sorted(Path(pdalab.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if path.name == "metrics.py":
                (writer,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                             and node.name == "write_files"]
                assert _file_writes(writer)
                tree.body.remove(writer)
            found[path.name] = _file_writes(tree)
        assert {name: calls for name, calls in found.items() if calls} == {}


_PATH_WRITES = {"unlink", "mkdir", "rmdir", "touch", "rename", "write_text", "write_bytes"}
_OS_WRITES = {"replace", "rename", "remove", "unlink", "mkdir", "makedirs", "rmdir", "open"}


def _file_writes(tree) -> list[str]:
    """``line: call`` for each call in ``tree`` that can write to the file
    system: ``open``, a writing Path method, or a writing ``os`` or any
    ``shutil`` function."""
    calls = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        attr, module = getattr(func, "attr", None), getattr(getattr(func, "value", None), "id", None)
        if (isinstance(func, ast.Name) and func.id == "open" or attr in _PATH_WRITES
                or module == "os" and attr in _OS_WRITES or module == "shutil"):
            calls.append(f"{node.lineno}: {ast.unparse(func)}")
    return calls


class TestCsvAndJsonFiles:
    def test_csv_text_writes_floats_at_round_trip_precision(self):
        text = csv_text(("name", "n", "x", "y"),
                        [["a,b", np.int64(3), np.float64(0.1), 1 / 3], ["c", 4, -0.0, 1e-300]])
        assert text == ('name,n,x,y\n"a,b",3,0.1,0.3333333333333333\n'
                        "c,4,-0.0,1e-300\n")

    @pytest.mark.parametrize("text, message", [
        ('{"a": 1, "a": 2}', "duplicate key 'a'"),
        ("not json", "not a JSON test file (Expecting value: line 1 column 1 (char 0))"),
    ], ids=["duplicate_key", "not_json"])
    def test_load_json_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_json(path, "test file")
        assert str(info.value) == f"{path}: {message}"

