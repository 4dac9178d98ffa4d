"""Print a SHA-256 digest of every output file of a fixed set of pdalab commands.

    python tools/output_hashes.py [SRC_DIR] [--against OTHER_SRC_DIR]

SRC_DIR (default: the ``src`` directory of this checkout) is put first on
PYTHONPATH, and every command runs as ``python -m pdalab.cli`` in a fresh
temporary directory, one at a time, with one BLAS thread:

- ``train`` (seed 3) for source_only, dann, san, san_pp and every ablation
  row (instance, instance_class, instance_class_entropy and
  instance_class_self_private), each with ``disc_hidden`` [] and [16]:
  ``metrics.jsonl``, ``model.json``, ``confusion.csv``,
  ``effective_config.yaml`` and stdout;
- ``ablate --seeds 1|2|5 --workers 1|2|3`` with ``disc_hidden`` [] and [16]:
  ``ablation.csv`` and stdout (three workers cut one seed's five default-arch
  runs 2:2:1);
- ``generate-data`` (its three files and stdout), ``train`` on its CSVs,
  ``eval --out`` and ``bound-trace``, to stdout and with ``--out``.

That is 130 files.  ``run_log.txt`` holds wall-clock times and is left out.
Each line is ``<sha256>  <name>``, hashed after every occurrence of the
temporary directory is replaced by ``<out>``, so two trees compare with
``diff`` of their outputs.  With ``--against``, the set runs for both
trees, one after the other, and only the names whose digests differ are
printed, with exit code 1; if none differ, one ``130 identical`` line is
printed and the exit code is 0.  A command that fails stops the script with
its stderr and exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN_VARIANTS = ("source_only", "dann", "san", "san_pp", "instance", "instance_class",
                  "instance_class_entropy", "instance_class_self_private")
DISC_HIDDEN = ("[]", "[16]")
TRAIN_FILES = ("metrics.jsonl", "model.json", "confusion.csv", "effective_config.yaml")


def output_digests(src: Path) -> dict[str, str]:
    """The SHA-256 of each output of the set, by name, with ``src`` first on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory(prefix="pdalab-hashes-") as tmp:
        work = Path(tmp)
        digests = {}

        def digest(name: str, text: str) -> None:
            data = text.replace(str(work), "<out>").encode("utf-8")
            digests[name] = hashlib.sha256(data).hexdigest()

        def run(name: str, args: list, files=()) -> None:
            proc = subprocess.run([sys.executable, "-m", "pdalab.cli", *args], cwd=work,
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            digest(f"{name}/stdout", proc.stdout)
            for path in files:
                digest(f"{name}/{Path(path).name}", Path(path).read_text(encoding="utf-8"))

        def config(name: str, text: str) -> str:
            path = work / f"{name}.yaml"
            path.write_text(text, encoding="utf-8")
            return str(path)

        for hidden in DISC_HIDDEN:
            for variant in TRAIN_VARIANTS:
                name = f"train-{variant}-disc{hidden}"
                cfg = config(name, f"seed: 3\nvariant: {variant}\n"
                                   f"arch:\n  disc_hidden: {hidden}\n")
                run(name, ["train", "--config", cfg, "--out", str(work / name)],
                    [work / name / f for f in TRAIN_FILES])
            for seeds in (1, 2, 5):
                for workers in (1, 2, 3):
                    name = f"ablate-seeds{seeds}-workers{workers}-disc{hidden}"
                    cfg = config(name, f"seed: 3\narch:\n  disc_hidden: {hidden}\n")
                    run(name, ["ablate", "--config", cfg, "--out", str(work / name),
                               "--seeds", str(seeds), "--workers", str(workers)],
                        [work / name / "ablation.csv"])

        data = work / "data"
        run("generate-data", ["generate-data", "--config", config("gen", "seed: 3\n"),
                              "--out", str(data)],
            [data / "source.csv", data / "target.csv", data / "metadata.json"])
        csv_cfg = config("train-csv", f"seed: 3\ndata:\n  csv:\n"
                                      f"    source: {data / 'source.csv'}\n"
                                      f"    target: {data / 'target.csv'}\n"
                                      f"    metadata: {data / 'metadata.json'}\n")
        run_dir = work / "train-csv"
        run("train-csv", ["train", "--config", csv_cfg, "--out", str(run_dir)],
            [run_dir / f for f in TRAIN_FILES])
        run("eval", ["eval", "--model", str(run_dir / "model.json"), "--data", str(data),
                     "--out", str(work / "eval" / "confusion.csv")],
            [work / "eval" / "confusion.csv"])
        run("bound-trace-stdout", ["bound-trace", str(run_dir / "metrics.jsonl")])
        run("bound-trace", ["bound-trace", str(run_dir / "metrics.jsonl"),
                            "--out", str(work / "trace" / "bound_trace.csv")],
            [work / "trace" / "bound_trace.csv"])
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="SHA-256 digests of pdalab's output set.")
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="source directory to run (default: this checkout's src)")
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="print only the outputs whose digests differ from this tree's")
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in (args.src, args.against) if src is not None]
    for src in srcs:
        if not (src / "pdalab" / "cli.py").is_file():
            print(f"error: {src}: no pdalab package", file=sys.stderr)
            return 1
    ours = output_digests(srcs[0])
    if args.against is None:
        print("\n".join(f"{digest}  {name}" for name, digest in ours.items()))
        return 0
    theirs = output_digests(srcs[1])
    differ = [name for name, digest in ours.items() if theirs.get(name) != digest]
    print("\n".join(differ) if differ else f"{len(ours)} identical")
    return 1 if differ else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
