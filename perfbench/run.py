"""pdalab benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload san_pp_audit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (pdalab is imported from its ``src/``).
Prints one line per metric, then, as the last line of stdout, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Working files, the full results with the host record
and the traced spans go under ``.perfbench/``.  See README.md here.
"""

from __future__ import annotations

import os

# Fixed before numpy loads; the CLI's pool workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5  # fresh processes timed for setup_s

# Per-layer metric -> traced function (see tracer.TARGETS).
LAYER_SECONDS = {
    "bound.check_bound_s": "bound.check_bound",
    "bound.proxy_s": "bound.estimate_hdh_divergence",
    "trainer.predict_s": "trainer.predict",
    "nets.d_forward_s": "nets.d_forward",
    "nets.f_forward_s": "nets.f_forward",
    "nets.g_forward_s": "nets.g_forward",
    "tensor.backward_s": "tensor.backward",
    **{f"tensor.{op}.s": f"tensor.{op}" for op in tr.PRIMITIVES},
    "trainer.train_epoch_s": "trainer.train_epoch",
    "trainer.opt_step_s": "trainer.MomentumSGD.step",
    "losses.supervised_s": "losses.supervised_loss",
    "losses.self_training_s": "losses.self_training_loss",
    "losses.adversarial_s": "losses.adversarial_loss",
    "losses.compose_s": "losses.compose_objective",
    "losses.pseudo_labels_s": "losses.assign_pseudo_labels",
    "data.load_csv_s": "data.load_csv",
    "data.save_csv_s": "data.save_dataset_csv",
    "data.generate_s": "data.generate_toy",
    "data.batch_s": "data.batch_iterator",
    "metrics.write_s": "metrics.write_metrics",
    "config.load_s": "config.load_config",
    "config.dump_s": "config.dump_config",
}
LAYER_CALLS = {
    "bound.check_bound_calls": "bound.check_bound",
    "bound.proxy_calls": "bound.estimate_hdh_divergence",
    "trainer.predict_calls": "trainer.predict",
    "trainer.extract_features_calls": "trainer.extract_features",
    "nets.d_forward_calls": "nets.d_forward",
    "nets.f_forward_calls": "nets.f_forward",
    "nets.g_forward_calls": "nets.g_forward",
    "tensor.backward_calls": "tensor.backward",
    **{f"tensor.{op}.calls": f"tensor.{op}" for op in tr.PRIMITIVES},
    "trainer.steps": "trainer.MomentumSGD.step",
    "selection.ctp_calls": "selection.class_transferable_probability",
}
AUDIT_FUNCTIONS = ("bound.check_bound", "trainer.predict", "trainer.extract_features")


E2E_UNITS = {"setup_s": "s", "experiment_s": "s", "experiment_s_tail": "s",
             "peak_rss_mb": "MB", "target_acc": "fraction", "w_err_l1": "L1"}


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith(("_share", "_frac")):
        return "fraction"
    return "count"


def host_probe() -> float:
    """A fixed pure-Python and small-numpy loop; its time tracks host speed."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(60_000):
        acc += k * k % 7
    a = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
    for _ in range(100):
        a = np.tanh(a @ a.T / 48.0)
    return time.perf_counter() - t0


def environment(nproc: int) -> dict:
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        # Only this checkout's own repository names the commit measured.
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pdalab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "nproc": nproc, "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} (fewer than 11 samples)"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n}"


def setup_probe(args, work: Path) -> float:
    """Wall seconds from starting a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--work", str(work)]
    if args.epochs is not None:
        cmd += ["--epochs", str(args.epochs)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    shutil.rmtree(work)
    # Both processes read the same system-wide monotonic clock.
    return float(proc.stdout.split()[-1]) - start


def measure(wl, calls: int, traced: tr.Tracer | None, probe_setup=None):
    """Run ``calls`` calls, each beside a host probe; returns timing lists.

    ``probe_setup`` is timed before SETUP_PROBES evenly spaced calls, so
    set-up samples span the run like the calls do.  A traced run pairs
    every traced unit with an untraced one on the same input, which gives
    the tracing overhead.
    """
    if traced is None:
        call, check, jobs = wl.call, wl.check, wl.jobs_per_call
    else:
        call, check, jobs = wl.trace_call, wl.trace_check, wl.trace_jobs
    setup_at = [k * calls // SETUP_PROBES for k in range(SETUP_PROBES)] if probe_setup else []
    probes, setups, samples, pairs = [], [], [], []
    for i in range(calls):
        setups += [probe_setup() for _ in range(setup_at.count(i))]
        probes.append(host_probe())
        wl.attempted += jobs
        try:
            t0 = time.perf_counter()
            ctx = call(i)
            plain = time.perf_counter() - t0
            check(i, ctx)
            if traced is not None:
                wl.attempted += jobs
                traced.install()
                try:
                    with traced.span(tr.UNIT, i) as span:
                        ctx = call(i)
                finally:
                    traced.uninstall()
                check(i, ctx)
                pairs.append((plain, span["seconds"]))
            samples.append(plain / jobs)
        except Exception as exc:  # a crashed run counts as failed, the loop goes on
            wl.fail(f"{wl.name} call {i}: {type(exc).__name__}: {exc}", jobs)
    return probes, setups, samples, pairs


def layer_metrics(wl, tracer: tr.Tracer, pairs) -> dict:
    summary = tracer.summary()
    n_units = len(pairs)
    empty = {"setup": {"calls": 0, "s": 0.0}, "units": {"calls": 0, "s": 0.0},
             "in_epoch_calls": 0, "outside_epoch_s": 0.0}

    def per_run(name: str, field: str) -> float:
        # One set-up plus one unit: what a fresh process doing one run spends.
        s = summary.get(name, empty)
        return s["setup"][field] + s["units"][field] / n_units

    out = {m: per_run(f, "s") for m, f in LAYER_SECONDS.items()}
    out.update({m: per_run(f, "calls") for m, f in LAYER_CALLS.items()})
    steps = summary.get("trainer.MomentumSGD.step", empty)["units"]["calls"]
    nodes = sum(summary.get(f"tensor.{op}", empty)["in_epoch_calls"] for op in tr.PRIMITIVES)
    epoch_s = summary.get("trainer.train_epoch", empty)["units"]["s"]
    unit_s = summary[tr.UNIT]["units"]["s"]
    audit_s = sum(summary.get(f, empty)["outside_epoch_s"] for f in AUDIT_FUNCTIONS)
    out["tensor.nodes_per_step"] = nodes / steps if steps else 0.0
    out["trainer.step_ms"] = 1000.0 * epoch_s / steps if steps else 0.0
    out["bound.audit_share"] = audit_s / unit_s
    out.update(wl.cli_layer())
    out["trace.overhead_frac"] = statistics.median(t / p for p, t in pairs) - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wls.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--epochs", type=int,
                        help="shorten the training schedule (smoke tests only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pdalab" / "__init__.py").is_file():
        print(f"error: no pdalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    nproc = len(os.sched_getaffinity(0))

    if args.setup_probe:
        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
        wls.WORKLOADS[args.workload](args.seed, work, args.epochs, nproc).setup()
        print(repr(time.monotonic()))
        return 0

    import pdalab

    if not Path(pdalab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported pdalab from {pdalab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(nproc)
    traced = tr.Tracer() if args.trace else None

    wl = wls.WORKLOADS[args.workload](args.seed, work / "main", args.epochs, nproc)
    wl.work.mkdir()
    if traced is not None:
        traced.install()
        try:
            with traced.span(tr.SETUP, tr.SETUP_RUN):
                wl.setup()
        finally:
            traced.uninstall()
    else:
        wl.setup()

    probe_setup = None if traced is not None else lambda: setup_probe(args, work / "probe")
    probes, setup_times, samples, pairs = measure(
        wl, wl.calls(args.seconds, traced is not None), traced, probe_setup)
    try:
        wl.finish()
        acc, err = wl.quality()
    except Exception as exc:  # a program error here leaves no result to report
        print(f"error: {wl.name}: {type(exc).__name__}: {exc}; failures: {wl.failures[:3]}",
              file=sys.stderr)
        return 1
    if not samples:
        print(f"error: every call failed: {wl.failures[:3]}", file=sys.stderr)
        return 1
    shutil.rmtree(wl.work)

    extra = {"samples": len(samples)}
    if traced is not None:
        metrics = layer_metrics(wl, traced, pairs)
        metrics["host.probe_s"] = statistics.median(probes)
        traced.write_spans(work / "spans.tsv.gz")
        (work / "layers.json").write_text(json.dumps(traced.summary(), indent=1))
        extra.update(absent=traced.absent, spans=len(traced))
        for name in traced.absent:
            print(f"# absent: {name} (its metrics read 0)", file=sys.stderr)
    else:
        tail_value, tail_name = tail(samples)
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        pool = wl.workers if wl.workers > 1 else 0
        metrics = {
            "setup_s": statistics.median(setup_times),
            "experiment_s": statistics.median(samples),
            "experiment_s_tail": tail_value,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            + pool * child_kb) / 1024.0,
            "target_acc": acc,
            "w_err_l1": err,
        }
        extra.update(tail=tail_name, setup_samples=len(setup_times),
                     host_probe_median_s=statistics.median(probes))
    failed_frac = wl.failed / wl.attempted

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"{args.workload:22s} {name:34s} {value:14.6g} {unit_of(name)}")
    print(f"{args.workload:22s} {'failed_frac':34s} {failed_frac:14.6g} fraction "
          f"({wl.failed}/{wl.attempted} runs)")
    print("# " + " ".join(f"{k}={v}" for k, v in extra.items() if k != "absent"))
    for failure in wl.failures[:20]:
        print(f"# FAILED: {failure}", file=sys.stderr)

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "failed_frac": failed_frac,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "experiment_samples_s": samples, "host_probe_s": probes,
        "setup_samples_s": setup_times, "failures": wl.failures, **extra}, indent=1))
    print(json.dumps({"correct": wl.failed == 0 and not wl.failures,
                      "attempted": wl.attempted, "failed": wl.failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
