"""Command-line front door.

Commands: ``generate-data``, ``train``, ``bound-trace``, ``ablate``,
``eval``.  Every command is reproducible: (config, seed) determines all
outputs byte-for-byte.  Wall-clock timing goes to a separate run log,
never into the metrics stream.  The environment variable ``PDA_LOG``
(``debug`` or ``info``) controls verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bound import INTERMEDIATE_TOL, BoundViolationError, in_classes, proxy_test_rows
from .config import ConfigError, RunConfig, _parse_variant, dump_config, load_config
from .data import (
    DataFormatError,
    SyntheticSpec,
    generate_toy,
    load_experiment_data,
    load_target_data,
    save_experiment_data,
)
from .metrics import (
    DuplicateKeyError,
    MetricsSchemaError,
    atomic_write,
    read_metrics,
    same_major,
    unique_keys,
    write_metrics,
)
from .nets import bundle_from_state, bundle_state
from .rngstreams import substream_seed
from .trainer import ABLATION_VARIANTS, evaluate, run_experiment

MODEL_SCHEMA_VERSION = "1.0"
# Column order of the bound-trace table; fixed format contract.
BOUND_TRACE_COLUMNS = ("epoch", "w_error_l1", "delta_bar", "e_type1",
                       "e_src_shared", "d_hdh_proxy", "rhs_full")


def _configure_logging() -> None:
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("PDA_LOG", "").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "variant", None) is not None:
        cfg = replace(cfg, variant=_parse_variant(args.variant, "variant"))
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    if cfg.out_dir is None:
        raise ConfigError("an output directory is required (config out_dir or --out)")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(cfg: RunConfig):
    """Returns (source, target, oracle, num_classes, resolved_data_config).

    A synthetic spec with a null seed takes one derived from the
    experiment seed; the resolved spec records it.  Data the run cannot
    use fails here, before any output: a domain smaller than a batch,
    or, with oracle labels, one the bound audit cannot split.
    """
    if isinstance(cfg.data, SyntheticSpec):
        spec = cfg.data if cfg.data.seed is not None \
            else replace(cfg.data, seed=substream_seed(cfg.seed, "datagen"))
        source, target, oracle = generate_toy(spec)
        k, resolved, names = spec.num_source_classes, spec, ("data.synthetic",) * 2
    else:
        source, target, oracle, k = load_experiment_data(cfg.data.source, cfg.data.target,
                                                         cfg.data.metadata)
        resolved, names = cfg.data, (cfg.data.source, cfg.data.target)
    if oracle is not None:  # check_bound splits these rows of each domain
        shared = int(in_classes(source.y, oracle.shared_classes).sum())
        for where, n, what in ((names[0], shared, "source rows in the shared classes"),
                               (names[1], len(target), "target rows")):
            try:
                proxy_test_rows(n, what)
            except ValueError as exc:
                raise DataFormatError(f"{where}: {exc}") from None
    rows, domain = min((len(source), "source"), (len(target), "target"))
    if cfg.schedule.batch_size > rows:
        raise ConfigError(f"schedule.batch_size: {cfg.schedule.batch_size} exceeds "
                          f"the {rows} rows of the {domain} domain")
    return source, target, oracle, k, resolved


def _write_confusion(path, confusion: np.ndarray) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"pred_{j}" for j in range(confusion.shape[1])])
        for row in confusion:
            writer.writerow([int(v) for v in row])


def cmd_generate_data(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if not isinstance(cfg.data, SyntheticSpec):
        raise ConfigError("generate-data requires a synthetic data section")
    source, target, oracle, k, _ = _load_data(cfg)
    out = _out_dir(cfg)
    paths = save_experiment_data(out, source, target, oracle, k)
    print(f"wrote {paths['source']} ({len(source)} rows), "
          f"{paths['target']} ({len(target)} rows), {paths['metadata']}")
    return 0


def cmd_train(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    source, target, oracle, k, resolved_data = _load_data(cfg)
    arch = cfg.arch.to_arch(source.dim, k)
    out = _out_dir(cfg)

    effective = replace(cfg, data=resolved_data, out_dir=str(out))
    with atomic_write(out / "effective_config.yaml") as fh:
        fh.write(dump_config(effective))

    result = run_experiment(source, target, oracle, arch, cfg.flags(),
                            cfg.schedule, cfg.seed)
    write_metrics(out / "metrics.jsonl", result.records)
    with atomic_write(out / "model.json") as fh:
        json.dump({"schema": MODEL_SCHEMA_VERSION, "model": bundle_state(result.bundle)},
                  fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    if result.confusion is not None:
        _write_confusion(out / "confusion.csv", result.confusion)
    else:  # a reused --out keeps no earlier run's matrix
        (out / "confusion.csv").unlink(missing_ok=True)
    with atomic_write(out / "run_log.txt") as fh:
        fh.write(f"epochs: {len(result.records) - 1}\n")
        fh.write(f"total_train_seconds: {sum(result.epoch_seconds):.3f}\n")

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
        if b.w_error_l1 > b.rhs_intermediate + INTERMEDIATE_TOL:
            raise BoundViolationError(
                f"stored record violates the intermediate inequality at epoch "
                f"{rec.epoch}: {b.w_error_l1} > {b.rhs_intermediate}")
        rows.append([rec.epoch, b.w_error_l1, b.delta_bar, b.e_type1,
                     b.e_src_shared, b.d_hdh_proxy, b.rhs_full])
    lines = [",".join(BOUND_TRACE_COLUMNS)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(args.out) as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(rows)} epochs)")
    else:
        sys.stdout.write(text)
    return 0


def _ablate_one(cfg: RunConfig) -> float:
    """Final target accuracy of one ablation run; runs in a pool worker.

    The run asserts the bound's intermediate inequality every epoch but
    skips the reported terms, which the ablation table does not hold.
    """
    source, target, oracle, k, _ = _load_data(cfg)
    if oracle is None:
        raise ConfigError("ablate requires oracle target labels for accuracy")
    arch = cfg.arch.to_arch(source.dim, k)
    result = run_experiment(source, target, oracle, arch, cfg.flags(),
                            cfg.schedule, cfg.seed, full_audit=False)
    return result.records[-1].target_accuracy


def cmd_ablate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    jobs = [replace(cfg, variant=name, seed=seed)
            for name in ABLATION_VARIANTS for seed in seeds]
    with ProcessPoolExecutor(max_workers=args.workers) as pool:
        results = list(pool.map(_ablate_one, jobs))

    lines = ["variant,seeds,mean_accuracy,std_accuracy"]
    print(f"{'variant':30s} {'mean':>8s} {'std':>8s}")
    for i, name in enumerate(ABLATION_VARIANTS):
        accs = np.array(results[i * len(seeds):(i + 1) * len(seeds)])
        lines.append(f"{name},{len(seeds)},{float(accs.mean())!r},{float(accs.std())!r}")
        print(f"{name:30s} {accs.mean():8.4f} {accs.std():8.4f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_write(out / "ablation.csv") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {out / 'ablation.csv'}")
    return 0


def cmd_eval(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        try:
            snapshot = json.load(fh, object_pairs_hook=unique_keys)
        except DuplicateKeyError as exc:
            raise ValueError(f"{args.model}: {exc}") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{args.model}: not a JSON model snapshot ({exc})") from None
    if not isinstance(snapshot, dict):
        raise ValueError(f"{args.model}: expected a JSON object")
    if not same_major(snapshot.get("schema"), MODEL_SCHEMA_VERSION):
        raise ValueError(f"{args.model}: unsupported model schema "
                         f"{snapshot.get('schema')!r}")
    try:
        bundle = bundle_from_state(snapshot["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.model}: malformed model snapshot "
                         f"({type(exc).__name__}: {exc})") from None
    data_dir = Path(args.data)
    target, oracle, k = load_target_data(data_dir / "target.csv",
                                         data_dir / "metadata.json")
    if oracle is None:
        raise ValueError("eval requires oracle labels in the target file")
    accuracy, confusion = evaluate(bundle, target.x, oracle.target_labels, k)
    print(f"target accuracy: {accuracy:.4f}")
    print("confusion matrix (rows true, columns predicted):")
    for row in confusion:
        print("  " + " ".join(f"{int(v):4d}" for v in row))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _write_confusion(args.out, confusion)
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
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, MetricsSchemaError, BoundViolationError,
            ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
