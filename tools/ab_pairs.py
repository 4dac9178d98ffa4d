"""Time two revisions of pdalab against each other in alternating pairs of runs.

    python tools/ab_pairs.py --base REV --change REV --workload W --seed S \\
        --pairs N --out BENCH_<label>.json

Both revisions are exported with ``git archive`` into a temporary directory,
at paths one character apart, so the working tree is neither read nor changed.
Each pair runs each tree's own ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once, with T the ``run_seconds`` of ``BENCHMARK.json``,
in its own process, one process at a time; the base goes first in even pairs
and the change first in odd ones.  Beside the end-to-end metrics the run prints,
every run records the child's CPU seconds (user plus system) and minor page
faults, from ``getrusage(RUSAGE_CHILDREN)`` around it, pool workers and set-up
probes included, and its wall seconds.

The output file holds every run and, for each metric, a summary: both
medians, both inclusive quartiles, the base's IQR, the change relative to the
base median, the pairs the change won (ties count for neither side) and
whether the gap between the medians exceeds the base's IQR.  A metric is
better lower, except those ``BENCHMARK.json`` marks higher.  ``--change``
equal to ``--base`` is the A/A control: its spread is the noise floor.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_METRICS = ("cpu_s", "minflt", "wall_s")  # measured around each run.py process


def summarize(base: list[float], change: list[float], higher_is_better: bool = False) -> dict:
    """The summary of one metric over pairs ``(base[i], change[i])``."""
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need two or more pairs of values")
    b_q = statistics.quantiles(base, n=4, method="inclusive")
    c_q = statistics.quantiles(change, n=4, method="inclusive")
    b_med, c_med = statistics.median(base), statistics.median(change)
    won = sum((c > b) if higher_is_better else (c < b) for b, c in zip(base, change))
    tied = sum(c == b for b, c in zip(base, change))
    return {
        "base_median": b_med, "change_median": c_med,
        "base_quartiles": b_q, "change_quartiles": c_q, "base_iqr": b_q[2] - b_q[0],
        "change_rel": (c_med - b_med) / b_med if b_med else None,
        "pairs": len(base), "pairs_change_won": won, "pairs_tied": tied,
        "gap_exceeds_base_iqr": abs(c_med - b_med) > b_q[2] - b_q[0],
    }


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` to ``dest``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, args, seconds) -> dict:
    """One ``perfbench/run.py`` process in ``tree``: its metrics and its costs."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update(cpu_s=(after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
                   minflt=after.ru_minflt - before.ru_minflt, wall_s=wall)
    return {"metrics": metrics, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--change", required=True, help="revision under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    higher = {m["name"] for m in bench["end_to_end"] if m.get("better") == "higher"}
    with tempfile.TemporaryDirectory(prefix="pdalab-ab-") as tmp:
        # Paths one character apart: a run's minor-fault count moves with its path.
        trees = {side: Path(tmp) / name for side, name in (("base", "a"), ("change", "b"))}
        commits = {side: export(getattr(args, side), trees[side]) for side in trees}
        runs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs.append({"pair": i, "tree": side, **run_once(trees[side], args, seconds)})
                print(f"pair {i} {side}: experiment_s "
                      f"{runs[-1]['metrics'].get('experiment_s', float('nan')):.4f} "
                      f"cpu_s {runs[-1]['metrics']['cpu_s']:.3f}", file=sys.stderr)

    by_side = {side: sorted((r for r in runs if r["tree"] == side), key=lambda r: r["pair"])
               for side in trees}
    names = [m for m in by_side["base"][0]["metrics"] if m in by_side["change"][0]["metrics"]]
    summary = {m: summarize([r["metrics"][m] for r in by_side["base"]],
                            [r["metrics"][m] for r in by_side["change"]], m in higher)
               for m in names}
    args.out.write_text(json.dumps({
        "base": {"rev": args.base, "commit": commits["base"]},
        "change": {"rev": args.change, "commit": commits["change"]},
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {seconds} --trace 0",
        "metrics_measured_here": list(RUN_METRICS),
        "failed_calls": {side: sum(r["failed"] for r in by_side[side]) for side in trees},
        "summary": summary, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    for m, s in summary.items():
        print(f"{m:20s} base {s['base_median']:12.6g}  change {s['change_median']:12.6g}  "
              f"won {s['pairs_change_won']}/{s['pairs']}  beyond IQR {s['gap_exceeds_base_iqr']}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
