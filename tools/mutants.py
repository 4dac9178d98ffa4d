"""Apply each mutant of a fixed list to a copy of pdalab and run Tier-1 against it.

    python tools/mutants.py

A mutant is one semantic edit of ``src/`` that breaks a rule a docstring, a
comment or the README states: (name, file, old text, new text).  For each
mutant in turn, ``src/``, ``tests/``, ``tools/`` and ``pyproject.toml`` are
copied into a temporary directory, the old text is replaced by the new one,
and Tier-1 runs there with ``-x`` (``python -m pytest -q -x``, with the
copy's ``src`` first on PYTHONPATH).  Two kinds of test are left out of
those runs: ``tests/test_mutants.py``, which checks this list against the
unmutated source, and the page-fault guards, whose counts move with the
copy's path and environment (a same-code copy can fail them).  Before any
mutant, the unmutated copy runs once and must pass, so that a failure means
the mutant.  Each mutant then prints ``KILLED`` and the first failing test,
or ``SURVIVED`` when all pass; the exit code is 1 if any survived.  An old
text that does not occur exactly once in ``src/`` is an error before
anything runs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")
LEFT_OUT = ("--ignore", "tests/test_mutants.py", "--deselect",
            "tests/test_trainer.py::test_a_warm_private_trunk_run_faults_less_than_once_per_step",
            "--deselect",
            "tests/test_trainer.py::test_a_warm_three_slice_chunk_faults_less_than_once_per_epoch")

# (name, file under src/pdalab, old text, new text), numbered in the order they were added.
MUTANTS = [
    ("01_constant_adversarial_ramp", "trainer.py",
     "return 2.0 / (1.0 + math.exp(-10.0 * p)) - 1.0", "return 1.0"),
    ("02_no_momentum", "trainer.py",
     "self.velocity *= self.momentum", "self.velocity *= 0.0"),
    ("03_warmup_one_epoch_longer", "trainer.py",
     "warm = e < sched.warmup_epochs", "warm = e < sched.warmup_epochs + 1"),
    ("04_entropy_coef_doubled", "trainer.py",
     "ENTROPY_MIN_COEF = 0.1", "ENTROPY_MIN_COEF = 0.2"),
    ("05_entropy_instance_weights_dropped", "losses.py",
     "np.where(np.asarray(use_entropy_w)[..., None], entropy_weights(y_hat), 1.0)",
     "np.where(np.asarray(use_entropy_w)[..., None], 1.0, 1.0)"),
    ("06_smaller_domain_never_reshuffled", "data.py",
     "small_order = np.concatenate([rng.permutation(n_small)",
     "small_order = np.concatenate([np.arange(n_small)"),
    ("07_class_selection_on_in_warmup", "trainer.py",
     "replace(flags, class_sel=False, entropy_min=False)", "replace(flags, entropy_min=False)"),
    ("08_beta_dropped_from_lr", "trainer.py",
     "return sched.eta0 / (1.0 + sched.alpha * p) ** sched.beta",
     "return sched.eta0 / (1.0 + sched.alpha * p)"),
    ("09_pseudo_labels_from_reversed_columns", "losses.py",
     "return as_pred_matrix(preds).argmax(axis=-1)",
     "return as_pred_matrix(preds)[..., ::-1].argmax(axis=-1)"),
    ("10_target_rotation_sign", "data.py",
     "rot = _rotation_matrix(spec.dim, spec.target_rotation)",
     "rot = _rotation_matrix(spec.dim, -spec.target_rotation)"),
    ("11_unweighted_self_training", "trainer.py",
     "self_training_loss(preds, pseudo[..., tgt_idx], w_self, tgt)",
     "self_training_loss(preds, pseudo[..., tgt_idx], np.ones_like(w_self), tgt)"),
    ("12_proxy_ridge_tenfold", "bound.py",
     "PROXY_RIDGE = 0.05\n", "PROXY_RIDGE = 0.5\n"),
    ("13_uniform_instance_weights", "trainer.py",
     "inst = preds.data if inst_on is True else", "inst = fixed_inst if inst_on is True else"),
    ("14_larger_domain_never_shuffled", "data.py",
     "big_order = np.resize(rng.permutation(n_big), total)",
     "big_order = np.resize(np.arange(n_big), total)"),
    ("15_outlier_source_rows_in_the_audit", "trainer.py",
     "shared = in_classes(source.y, oracle.shared_classes)",
     "shared = np.ones(len(source.y), dtype=bool)"),
    ("16_ablate_std_ddof_1", "cli.py",
     "float(accs.std())", "float(accs.std(ddof=1))"),
    ("17_transposed_confusion_matrix", "trainer.py",
     "np.add.at(confusion, (labels, pred), 1)", "np.add.at(confusion, (pred, labels), 1)"),
    ("18_entropy_log_floor_a_thousandth", "selection.py",
     "np.log(np.maximum(p, np.finfo(float).tiny))", "np.log(np.maximum(p, 1e-3))"),
    ("19_init_variance_halved", "nets.py",
     "bound = np.sqrt(6.0 / fan_in)", "bound = np.sqrt(3.0 / fan_in)"),
    ("20_entropy_regularizer_on_the_source_half", "trainer.py",
     "T.entropy_mean(preds, ent_coef, tgt)", "T.entropy_mean(preds, ent_coef, src)"),
    ("21_proxy_test_fraction_three_tenths", "bound.py",
     "PROXY_TEST_FRACTION = 0.2", "PROXY_TEST_FRACTION = 0.3"),
    ("22_head_views_read_the_columns_reversed", "nets.py",
     "(lambda a, k: a[..., k:k + 1])", "(lambda a, k: a[..., ::-1][..., k:k + 1])"),
    ("23_schedule_progress_twice_as_fast", "trainer.py",
     "p = steps_done / total_steps", "p = min(1.0, 2.0 * steps_done / total_steps)"),
    ("24_intermediate_tol_a_millionth", "bound.py",
     "INTERMEDIATE_TOL = 1e-9", "INTERMEDIATE_TOL = 1e-6"),
    ("25_unweighted_supervised_loss", "trainer.py",
     "supervised_loss(preds, y_src, w_eff, src)",
     "supervised_loss(preds, y_src, np.ones_like(w_eff), src)"),
    ("26_instance_selection_off_in_warmup", "trainer.py",
     "replace(flags, class_sel=False, entropy_min=False)",
     "replace(flags, class_sel=False, entropy_min=False, instance_sel=False)"),
]


def occurs_once(src: Path, file: str, old: str) -> bool:
    """Whether ``old`` occurs once in the Python files under ``src``, in ``pdalab/file``."""
    counts = {path.name: path.read_text(encoding="utf-8").count(old)
              for path in (src / "pdalab").glob("*.py")}
    return sum(counts.values()) == 1 and counts.get(file) == 1


def first_failure(edit: tuple[str, str, str] | None = None) -> str | None:
    """The first test that fails in Tier-1 on a copy of the checkout, with ``edit``,
    a mutant's (file, old text, new text), applied to its ``src/pdalab``; None if
    every test passes."""
    with tempfile.TemporaryDirectory(prefix="pdalab-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, work / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / name, work / name)
        if edit is not None:
            file, old, new = edit
            path = work / "src" / "pdalab" / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src")}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *LEFT_OUT],
                              cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode == 0:
            return None
        failed = [line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return failed[0] if failed else f"pytest exit {proc.returncode}"


def main() -> int:
    for name, file, old, _ in MUTANTS:
        if not occurs_once(ROOT / "src", file, old):
            print(f"error: {name}: the old text does not occur exactly once in src/, in {file}",
                  file=sys.stderr)
            return 1
    failure = first_failure()
    if failure is not None:
        print(f"error: Tier-1 fails on an unmutated copy: {failure}", file=sys.stderr)
        return 1
    survived = 0
    for name, file, old, new in MUTANTS:
        t0 = time.perf_counter()
        failure = first_failure((file, old, new))
        survived += failure is None
        print(f"{'SURVIVED' if failure is None else 'KILLED':8s}  {name}  "
              f"({time.perf_counter() - t0:.0f} s)  {failure or ''}".rstrip(), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
