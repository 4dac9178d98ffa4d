"""Smoke test of the benchmark itself, on a two-epoch schedule.

    python -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--epochs", "2"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace and workload == "private_disc_noaudit":
        assert result["metrics"]["bound.check_bound_calls"]["value"] == 0
    if trace and workload == "san_pp_audit":
        assert result["metrics"]["bound.audit_share"]["value"] > 0
    if trace and workload == "ablate_grid":
        assert result["metrics"]["cli.jobs"]["value"] == 6


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "san_pp_audit", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_reports_a_missing_function_as_absent():
    import pdalab.nets
    import pdalab.tensor
    from tracer import Tracer

    original = pdalab.tensor.matmul
    tracer = Tracer(targets=("tensor.no_such_primitive", "tensor.matmul"))
    tracer.install()
    try:
        assert tracer.absent == ["tensor.no_such_primitive"]
        # Wrapped under every name a caller looks it up by.
        assert pdalab.tensor.matmul is not original
        assert pdalab.nets.matmul is pdalab.tensor.matmul
    finally:
        tracer.uninstall()
    assert pdalab.tensor.matmul is original and pdalab.nets.matmul is original
