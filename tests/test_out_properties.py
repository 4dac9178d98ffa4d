"""Every ``--out``, whatever its path's shape, either writes the command's
whole output set (exit 0) or is one ``error:`` line (exit 1) that leaves no
new directory and no temporary; ``train``, ``ablate`` and ``generate-data``
fail such a path before they load any data."""

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
# An --out component: an existing directory or regular file, a missing name,
# a missing name of NAME_MAX bytes or one byte more, or a symlink that dangles,
# loops on itself or points to a directory.
_KINDS = ("dir", "file", "missing", "at_limit", "over_limit", "dangling", "loop", "link_dir")
_DIRS = ("dir", "link_dir")  # the kinds that can hold a file
_MISSING = ("missing", "at_limit", "over_limit")


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


def _make(root, kinds, names):
    """Makes ``root / names[0] / names[1] / ...``, each name as its kind says
    while the names before it are directories.  Returns how many names exist."""
    path, made = root, 0
    for i, (kind, name) in enumerate(zip(kinds, names)):
        path = path / name
        if made < i or (i and kinds[i - 1] not in _DIRS) or kind in _MISSING:
            continue
        if kind == "dir":
            path.mkdir()
        elif kind == "file":
            path.write_text("kept\n")
        elif kind == "link_dir":
            (root / f"linked{i}").mkdir()
            path.symlink_to(root / f"linked{i}")
        else:  # a link to a missing name, or to itself
            path.symlink_to(root / "nowhere" if kind == "dangling" else path)
        made += 1
    return made


def _expected(root, kinds, names, made):
    """The error that writing a file at ``root / names[0] / ...`` is expected
    to give, where the first ``made`` names exist, or None."""
    if made == len(kinds):
        return f"{root.joinpath(*names)}: Is a directory" if kinds[-1] in _DIRS else None
    if made and kinds[made - 1] not in _DIRS:
        return f"{root.joinpath(*names[:made])}: Not a directory"
    if "over_limit" in kinds:
        return f"{root.joinpath(*names[:kinds.index('over_limit') + 1])}: File name too long"
    return None


def _tree(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize("command", [*_DIR_SETS, "eval", "bound-trace"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3),
       blocked=st.none() | st.integers(0, 4))
@example(kinds=["file", "missing"], blocked=None)
@example(kinds=["dir", "at_limit"], blocked=None)
@example(kinds=["dangling"], blocked=None)
@example(kinds=["loop", "missing"], blocked=None)
@example(kinds=["link_dir"], blocked=None)
@example(kinds=["dir"], blocked=1)
def test_an_out_writes_its_whole_set_or_is_one_error_line(inputs, tmp_path_factory, capsys,
                                                          command, kinds, blocked):
    """``blocked`` picks a file of a directory command's set to exist as a
    directory, when ``--out`` is one."""
    root = tmp_path_factory.mktemp("out")
    limit = os.pathconf(root, "PC_NAME_MAX")
    names = [{"at_limit": "a" * limit, "over_limit": "o" * (limit + 1)}.get(kind, f"{kind}{i}")
             for i, kind in enumerate(kinds)]
    out = root.joinpath(*names)
    # The path of the file that fails first: a directory command's files all
    # fail alike, but for one that exists as a directory.
    if command in _DIR_SETS:
        files = _DIR_SETS[command]
        kinds = kinds + ["missing" if blocked is None else "dir"]
        names = names + [files[0 if blocked is None else blocked % len(files)]]
    expected = _expected(root, kinds, names, _make(root, kinds, names))
    before, runs = _tree(root), []
    real_runs, real_load = pdalab.cli.run_experiments, pdalab.cli._load_data
    with pytest.MonkeyPatch.context() as mp:
        # ablate trains in this process, where the patches below see its runs
        mp.setattr("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor)
        mp.setattr(pdalab.cli, "run_experiments", lambda *a: runs.append(a) or real_runs(*a))
        mp.setattr(pdalab.cli, "_load_data", lambda *a: runs.append(a) or real_load(*a))
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
        assert (code, stdout, stderr) == (1, "", f"error: {expected}\n")
        assert _tree(root) == before
        assert runs == []
