"""Every ``--out``, whatever its path's shape, either writes the command's
whole output set (exit 0) or is one ``error:`` line (exit 1) that leaves no
new directory and no temporary; ``train`` and ``ablate`` fail such a path
before any run starts."""

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import pdalab.cli  # noqa: E402
from pdalab.cli import main  # noqa: E402

_CONFIG = ("data:\n  synthetic: {samples_per_class: 4, seed: 1}\n"
           "schedule: {total_epochs: 1, warmup_epochs: 1, batch_size: 4}\n")
# Each directory command's files; a file command's --out is its one file.
_DIR_SETS = {"train": ["effective_config.yaml", "metrics.jsonl", "model.json", "confusion.csv",
                       "run_log.txt"],
             "ablate": ["ablation.csv"],
             "generate-data": ["source.csv", "target.csv", "metadata.json"]}
# An --out component: an existing directory or regular file, a missing name, or
# a missing name of NAME_MAX bytes or one byte more.
_KINDS = ("dir", "file", "missing", "at_limit", "over_limit")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A config, and a trained run and a dataset for ``eval`` and ``bound-trace``."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "c.yaml").write_text(_CONFIG)
    for command, out in (("train", "run"), ("generate-data", "data")):
        assert main([command, "--config", str(root / "c.yaml"), "--out", str(root / out)]) == 0
    return root


def _argv(command, inputs, out):
    if command == "eval":
        args = ["eval", "--model", str(inputs / "run" / "model.json"),
                "--data", str(inputs / "data")]
    elif command == "bound-trace":
        args = ["bound-trace", str(inputs / "run" / "metrics.jsonl")]
    else:
        args = [command, "--config", str(inputs / "c.yaml"),
                *(["--seeds", "1"] if command == "ablate" else [])]
    return args + ["--out", str(out)]


def _out_path(root, kinds, limit):
    """``root`` joined with one name per kind, each made as its kind says
    while the names before it are directories, and the error that ``--out``
    as a directory and as a file is expected to give, or None."""
    out, made = root, 0  # the leading names that exist
    for i, kind in enumerate(kinds):
        out = out / {"at_limit": "a" * limit, "over_limit": "o" * (limit + 1)}.get(
            kind, f"{kind}{i}")
        if made == i and kind in ("dir", "file") and (i == 0 or kinds[i - 1] == "dir"):
            out.mkdir() if kind == "dir" else out.write_text("kept\n")
            made += 1
    under_file = made > 0 and kinds[made - 1] == "file"  # the first existing ancestor
    too_long = "File name too long" if "over_limit" in kinds else None
    as_dir = "not a directory" if under_file else too_long
    as_file = "is a directory" if made == len(kinds) and kinds[-1] == "dir" \
        else "Not a directory" if under_file and made < len(kinds) else too_long
    return out, as_dir, as_file


def _tree(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize("command", [*_DIR_SETS, "eval", "bound-trace"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))
@example(kinds=["file", "missing"])
@example(kinds=["dir", "at_limit"])
def test_an_out_writes_its_whole_set_or_is_one_error_line(inputs, tmp_path_factory, capsys,
                                                          command, kinds):
    root = tmp_path_factory.mktemp("out")
    out, as_dir, as_file = _out_path(root, kinds, os.pathconf(root, "PC_NAME_MAX"))
    expected = as_dir if command in _DIR_SETS else as_file
    before, runs = _tree(root), []
    real = pdalab.cli.run_experiments
    with pytest.MonkeyPatch.context() as mp:
        # ablate trains in this process, where the patch below sees its runs
        mp.setattr(pdalab.cli, "ProcessPoolExecutor", ThreadPoolExecutor)
        mp.setattr(pdalab.cli, "run_experiments", lambda *a: runs.append(a) or real(*a))
        capsys.readouterr()
        code = main(_argv(command, inputs, out))
    stdout, stderr = capsys.readouterr()
    if expected is None:
        assert (code, stderr) == (0, "")
        written = [out / name for name in _DIR_SETS[command]] if command in _DIR_SETS \
            else [out]
        assert all(path.is_file() for path in written)
        assert not list(root.rglob(".*.tmp"))
    else:
        assert (code, stdout, stderr) == (1, "", f"error: {out}: {expected}\n")
        assert _tree(root) == before
        assert runs == []
