"""Print cProfile calls per training step for five fixed pdalab programs.

    python tools/calls_per_step.py [SRC_DIR] [--against OTHER_SRC_DIR]

SRC_DIR (default: the ``src`` directory of this checkout) is put first on
PYTHONPATH, and the programs run in one fresh interpreter with one BLAS
thread.  Each program is one ``run_experiments`` call of 12 epochs on the
data of ``SyntheticSpec(seed=11)``.  All but ``san_pp_audit`` run with no
oracle, so their audit does no work:

- ``san_pp``: the full method, solo, default arch;
- ``san_pp_audit``: the same run with the oracle and the full audit, so each
  snapshot also checks the bound and fits the divergence proxy;
- ``san[16]``: the conference variant, solo, ``disc_hidden`` [16];
- ``source_only``: no adversary, solo, default arch;
- ``stacked``: the five distinct default-arch networks of the ablation
  rows, trained as one stacked program.

Each program runs once to warm up and once under cProfile, and so does the
same program with 0 epochs.  Its line is ``<name>  <calls per step>``: the
calls the profiler counted during the 12-epoch run less those of the 0-epoch
run, over the 12 epochs' steps, to one decimal.  The bundle build and the
epoch-0 snapshot cancel, so a change to how a bundle is built leaves the
count alone; each trained epoch's snapshot stays in.  The count is
deterministic, so two runs of one tree print identical lines.  With
``--against``, the other tree runs next in its own interpreter, and each
line gains the other tree's count and the difference, this tree's minus
the other's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PROGRAMS = r"""
import cProfile, json, pstats
from pdalab.data import SyntheticSpec, generate_toy, steps_per_epoch
from pdalab.nets import ArchConfig
from pdalab.trainer import ABLATION_VARIANTS, PRESETS, Schedule, network_flags, run_experiments

spec = SyntheticSpec(seed=11)
source, target, oracle = generate_toy(spec)
epochs = 12
steps = steps_per_epoch(len(source), len(target), Schedule().batch_size) * epochs
default, disc16 = ArchConfig(), ArchConfig(disc_hidden=(16,))
grid = list(dict.fromkeys(network_flags(f, default) for f in ABLATION_VARIANTS.values()))
programs = {"san_pp": (default, [PRESETS["san_pp"]], None),
            "san_pp_audit": (default, [PRESETS["san_pp"]], oracle),
            "san[16]": (disc16, [PRESETS["san"]], None),
            "source_only": (default, [PRESETS["source_only"]], None),
            "stacked": (default, grid, None)}

def calls(arch, flags, truth, total_epochs):
    sched = Schedule(total_epochs=total_epochs)
    run = lambda: run_experiments(source, target, truth, arch, flags, sched, 0)
    run()
    profile = cProfile.Profile()
    profile.runcall(run)
    return pstats.Stats(profile).total_calls

counts = {}
for name, (arch, flags, truth) in programs.items():
    spec_arch = arch.to_arch(source.dim, spec.num_source_classes)
    counts[name] = (calls(spec_arch, flags, truth, epochs)
                    - calls(spec_arch, flags, truth, 0)) / steps
print(json.dumps(counts))
"""


def calls_per_step(src: Path) -> dict[str, float]:
    """Calls per step of each program, by name, with ``src`` first on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", PROGRAMS], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cProfile calls per step of pdalab programs.")
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="source directory to run (default: this checkout's src)")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="also print this tree's counts and the difference")
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in (args.src, args.against) if src is not None]
    for src in srcs:
        if not (src / "pdalab" / "cli.py").is_file():
            print(f"error: {src}: no pdalab package", file=sys.stderr)
            return 1
    ours = calls_per_step(srcs[0])
    theirs = calls_per_step(srcs[1]) if args.against is not None else None
    for name, count in ours.items():
        line = f"{name:12s} {count:7.1f}"
        if theirs is not None:
            line += f"  against {theirs[name]:7.1f}  {count - theirs[name]:+6.1f}"
        print(line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
