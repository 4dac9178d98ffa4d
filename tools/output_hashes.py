"""Print a SHA-256 digest of every output file of a fixed set of pdalab commands.

    python tools/output_hashes.py [SRC_DIR]

SRC_DIR (default: the ``src`` directory of this checkout) is put first on
PYTHONPATH, and every command runs as ``python -m pdalab.cli`` in a fresh
temporary directory, one at a time, with one BLAS thread:

- ``train`` (seed 3) for source_only, dann, san, san_pp and
  instance_class_self_private, each with ``disc_hidden`` [] and [16]:
  ``metrics.jsonl``, ``model.json``, ``confusion.csv``,
  ``effective_config.yaml`` and stdout;
- ``ablate --seeds 1|2|5 --workers 1|2`` with ``disc_hidden`` [] and [16]:
  ``ablation.csv`` and stdout;
- ``generate-data`` (its three files and stdout), ``train`` on its CSVs,
  ``eval --out`` and ``bound-trace``, to stdout and with ``--out``.

That is 88 files.  ``run_log.txt`` holds wall-clock times and is left out.
Each line is ``<sha256>  <name>``, hashed after every occurrence of the
temporary directory is replaced by ``<out>``, so two trees compare with
``diff`` of their outputs.  A command that fails stops the script with its
stderr and exit code 1.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN_VARIANTS = ("source_only", "dann", "san", "san_pp", "instance_class_self_private")
DISC_HIDDEN = ("[]", "[16]")
TRAIN_FILES = ("metrics.jsonl", "model.json", "confusion.csv", "effective_config.yaml")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src").resolve()
    if not (src / "pdalab" / "cli.py").is_file():
        print(f"error: {src}: no pdalab package", file=sys.stderr)
        return 1
    env = {**os.environ, "PYTHONPATH": str(src),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory(prefix="pdalab-hashes-") as tmp:
        work = Path(tmp)
        digests = []

        def digest(name: str, text: str) -> None:
            data = text.replace(str(work), "<out>").encode("utf-8")
            digests.append(f"{hashlib.sha256(data).hexdigest()}  {name}")

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
                for workers in (1, 2):
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
    print("\n".join(digests))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
