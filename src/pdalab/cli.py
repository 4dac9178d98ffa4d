"""Command-line front door.

Commands: ``generate-data``, ``train``, ``bound-trace``, ``ablate``,
``eval``.  Every command is reproducible: (config, seed) determines all
outputs byte-for-byte.  Wall-clock timing goes to a separate run log,
never into the metrics stream.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bound import BoundViolationError, check_intermediate
from .config import RunConfig, _parse_variant, dump_config, load_config
from .data import (
    SyntheticSpec,
    generate_toy,
    load_experiment_data,
    load_target_data,
    save_experiment_data,
)
from .metrics import csv_text, metrics_text, read_metrics, write_files
from .nets import load_model, model_text
from .rngstreams import substream_seed
from .trainer import ABLATION_VARIANTS, evaluate, network_flags, run_experiment, run_experiments

# Column order of the bound-trace table; fixed format contract.
BOUND_TRACE_COLUMNS = ("epoch", "w_error_l1", "delta_bar", "e_type1",
                       "e_src_shared", "d_hdh_proxy", "rhs_full")


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        try:
            cfg = replace(cfg, seed=args.seed)
        except ValueError as exc:
            raise ValueError(f"--seed: {exc}") from None
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "variant", None) is not None:
        cfg = replace(cfg, variant=_parse_variant(args.variant, "variant"))
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    """The output directory, not yet created."""
    if cfg.out_dir is None:
        raise ValueError("an output directory is required (config out_dir or --out)")
    out = Path(cfg.out_dir)
    try:
        if out.exists() and not out.is_dir():
            raise ValueError(f"{out}: not a directory")
    except OSError as exc:  # a name too long, say
        raise ValueError(f"{out}: {exc.strerror}") from None
    return out


def _load_data(cfg: RunConfig):
    """Returns (source, target, oracle, num_classes, resolved_data_config).

    A synthetic spec with a null seed takes one derived from the
    experiment seed; the resolved spec records it.  A domain smaller than
    a batch fails here, before any output.
    """
    if isinstance(cfg.data, SyntheticSpec):
        spec = cfg.data if cfg.data.seed is not None \
            else replace(cfg.data, seed=substream_seed(cfg.seed, "datagen"))
        source, target, oracle = generate_toy(spec)
        k, resolved = spec.num_source_classes, spec
    else:
        source, target, oracle, k = load_experiment_data(cfg.data.source, cfg.data.target,
                                                         cfg.data.metadata)
        resolved = cfg.data
    rows, domain = min((len(source), "source"), (len(target), "target"))
    if cfg.schedule.batch_size > rows:
        raise ValueError(f"schedule.batch_size: {cfg.schedule.batch_size} exceeds "
                         f"the {rows} rows of the {domain} domain")
    return source, target, oracle, k, resolved


def _train(cfg: RunConfig, source, target, oracle, k: int, chunk=None):
    """``run_experiment``, or ``run_experiments`` of a ``chunk`` of flags with no bound
    report, on loaded data; unusable data or a non-finite value is an error naming the data."""
    arch = cfg.arch.to_arch(source.dim, k)
    try:
        if chunk is None:
            return run_experiment(source, target, oracle, arch, cfg.flags(), cfg.schedule, cfg.seed)
        return run_experiments(source, target, oracle, arch, chunk, cfg.schedule, cfg.seed, False)
    except (ValueError, FloatingPointError) as exc:
        data = "data.synthetic" if isinstance(cfg.data, SyntheticSpec) \
            else f"{cfg.data.source}, {cfg.data.target}"
        raise type(exc)(f"{data}: {exc}") from None


def _confusion_text(confusion: np.ndarray) -> str:
    return csv_text([f"pred_{j}" for j in range(confusion.shape[1])], confusion.tolist())


def cmd_generate_data(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if not isinstance(cfg.data, SyntheticSpec):
        raise ValueError(f"{args.config}: data: generate-data requires a synthetic data section")
    out = _out_dir(cfg)
    source, target, oracle, k, _ = _load_data(cfg)
    paths = save_experiment_data(out, source, target, oracle, k)
    print(f"wrote {paths['source']} ({len(source)} rows), "
          f"{paths['target']} ({len(target)} rows), {paths['metadata']}")
    return 0


def cmd_train(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out = _out_dir(cfg)
    source, target, oracle, k, resolved_data = _load_data(cfg)
    result = _train(cfg, source, target, oracle, k)

    effective = replace(cfg, data=resolved_data, out_dir=str(out))
    write_files({out / "effective_config.yaml": dump_config(effective),
                 out / "metrics.jsonl": metrics_text(result.records),
                 out / "model.json": model_text(result.bundle),
                 # None removes an earlier run's matrix from a reused --out
                 out / "confusion.csv": None if result.confusion is None
                     else _confusion_text(result.confusion),
                 out / "run_log.txt": f"epochs: {len(result.records) - 1}\n"
                     f"total_train_seconds: {sum(result.epoch_seconds):.3f}\n"})

    final = result.records[-1]
    acc = "n/a" if final.target_accuracy is None else f"{final.target_accuracy:.4f}"
    print(f"trained {len(result.records) - 1} epochs; final target accuracy {acc}; "
          f"outputs in {out}")
    return 0


def cmd_bound_trace(args) -> int:
    records = read_metrics(args.metrics)
    rows = []
    for rec in records:
        if rec.bound is None:
            raise ValueError(f"{args.metrics}: epoch {rec.epoch} has no bound report "
                             "(run was trained without oracle labels)")
        b = rec.bound
        try:
            check_intermediate(b.w_error_l1, b.rhs_intermediate, rec.epoch)
        except BoundViolationError as exc:
            raise BoundViolationError(f"{args.metrics}: stored record: {exc}") from None
        fields = {**vars(b), "epoch": rec.epoch}
        rows.append([fields[name] for name in BOUND_TRACE_COLUMNS])
    if args.out:
        write_files({args.out: csv_text(BOUND_TRACE_COLUMNS, rows)})
        print(f"wrote {args.out} ({len(rows)} epochs)")
    else:
        sys.stdout.write(csv_text(BOUND_TRACE_COLUMNS, rows))
    return 0


def _ablate_one(jobs: list[RunConfig]) -> list[float]:
    """Final target accuracy of each run of one chunk, trained as one stacked
    program in a pool worker.  Each run asserts the bound's intermediate
    inequality every epoch but skips the reported terms, which the table lacks.
    """
    cfg = jobs[0]
    source, target, oracle, k, _ = _load_data(cfg)
    if oracle is None:  # synthetic data always has them
        raise ValueError(f"data.csv.target: {cfg.data.target} has no oracle labels "
                         "(every y is blank); ablate needs them for accuracy")
    return [result.records[-1].target_accuracy for result in
            _train(cfg, source, target, oracle, k, chunk=[job.flags() for job in jobs])]


def _chunks(groups: list[list], n: int) -> list[list]:
    """``groups`` cut in order into ``n`` >= len(groups) near-equal chunks, each in one group."""
    counts = [1] * len(groups)
    for _ in range(n - len(groups)):
        counts[max(range(len(groups)), key=lambda i: -(-len(groups[i]) // counts[i]))] += 1
    return [[group[i] for i in part] for group, count in zip(groups, counts)
            for part in np.array_split(range(len(group)), count)]


def cmd_ablate(args) -> int:
    """The ablation table: each row's final target accuracy over the seeds,
    also written to ``ablation.csv`` in the output directory if one is set.

    A (row, seed) job's run key is the seed and the flags of the network
    the row trains (:func:`network_flags`).  Each distinct key runs once, and
    every row with that key reads its accuracy.  The runs of one seed and network
    shape are cut into ``max(groups, min(workers, runs))`` chunks, one per job.
    """
    cfg = _apply_overrides(load_config(args.config), args)
    out = None if cfg.out_dir is None else _out_dir(cfg)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    keys = [(seed, network_flags(flags, cfg.arch))
            for flags in ABLATION_VARIANTS.values() for seed in seeds]
    runs = list(dict.fromkeys(keys))
    shapes = dict.fromkeys((seed, flags.shared_trunk) for seed, flags in runs)
    groups = [[run for run in runs if (run[0], run[1].shared_trunk) == key] for key in shapes]
    chunks = _chunks(groups, max(len(groups), min(args.workers, len(runs))))
    jobs = [[replace(cfg, variant=flags, seed=seed) for seed, flags in chunk] for chunk in chunks]
    try:
        with ProcessPoolExecutor(max_workers=min(args.workers, len(chunks))) as pool:
            by_run = dict(zip([run for chunk in chunks for run in chunk],
                              [acc for accs in pool.map(_ablate_one, jobs) for acc in accs]))
    except BrokenExecutor as exc:  # a worker died: no result to report
        raise ChildProcessError(f"ablate: {exc}") from None
    results = np.reshape([by_run[key] for key in keys], (-1, len(seeds)))

    rows = [[name, len(seeds), float(accs.mean()), float(accs.std())]
            for name, accs in zip(ABLATION_VARIANTS, results)]
    report = [f"{'variant':30s} {'mean':>8s} {'std':>8s}",
              *(f"{name:30s} {mean:8.4f} {std:8.4f}" for name, _, mean, std in rows)]
    if out is not None:  # nothing is printed before the table is written
        write_files({out / "ablation.csv": csv_text(
            ["variant", "seeds", "mean_accuracy", "std_accuracy"], rows)})
        report.append(f"wrote {out / 'ablation.csv'}")
    print("\n".join(report))
    return 0


def cmd_eval(args) -> int:
    bundle = load_model(args.model)
    metadata, target_path = Path(args.data) / "metadata.json", Path(args.data) / "target.csv"
    target, oracle, k = load_target_data(target_path, metadata)
    if bundle.num_classes != k:
        raise ValueError(f"{args.model}: num_classes {bundle.num_classes} disagrees "
                         f"with num_source_classes {k} of {metadata}")
    width = bundle.features.in_dim or bundle.classifier.in_dim
    if width != target.dim:
        raise ValueError(f"{args.model}: input width {width} disagrees "
                         f"with dim {target.dim} of {metadata}")
    if oracle is None:
        raise ValueError(f"{target_path}: no oracle labels (every y is blank); "
                         "eval needs them")
    accuracy, confusion = evaluate(bundle, target.x, oracle.target_labels, k)
    if args.out:  # a path it cannot write fails before the report
        write_files({args.out: _confusion_text(confusion)})
    print(f"target accuracy: {accuracy:.4f}")
    print("confusion matrix (rows true, columns predicted):")
    for row in confusion:
        print("  " + " ".join(f"{int(v):4d}" for v in row))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdalab",
        description="Desk-scale partial domain adaptation lab with a "
                    "transferable-probability bound auditor.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, variant=True):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--out", help="override the configured output directory")
        if variant:
            p.add_argument("--variant", help="override the configured variant preset")

    p = sub.add_parser("generate-data", help="write source/target CSVs and metadata")
    common(p, variant=False)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="run one experiment and write metrics")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bound-trace", help="export the per-epoch bound-term table")
    p.add_argument("metrics", help="path to a metrics.jsonl file")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_bound_trace)

    p = sub.add_parser("ablate", help="run the six-variant ablation over seeds")
    common(p, variant=False)
    p.add_argument("--seeds", type=_count, default=5,
                   help="number of consecutive seeds (default 5)")
    p.add_argument("--workers", type=_count, default=1,
                   help="parallel worker processes (default 1)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("eval", help="evaluate a model snapshot on a dataset")
    p.add_argument("--model", required=True, help="path to model.json")
    p.add_argument("--data", required=True,
                   help="directory with target.csv and metadata.json")
    p.add_argument("--out", help="write the confusion matrix CSV here")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BoundViolationError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
