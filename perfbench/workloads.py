"""The three benchmark workloads and the correctness checks on their outputs.

Each workload drives pdalab only through ``cli.main``,
``trainer.run_experiment`` and ``data.generate_toy``, and scores a
finished model from outside with ``trainer.evaluate``,
``trainer.predict`` and ``bound.w_estimation_error``.

Inputs are (data seed, training seed) pairs of two kinds.  Seed inputs
derive from the benchmark seed, so every run times and checks fresh data.
Panel inputs are the same in every run.  Accuracy and the w error vary
from seed to seed far more than any bound could allow, so the quality
metrics average over the panel only, which makes them comparable
between runs.

``setup()`` is everything a fresh process does before its first timed
call.  ``call(i)`` is one end-to-end sample and ``check(i, ctx)``
verifies its outputs outside the timed region; ``trace_call`` and
``trace_check`` are the unit the traced run wraps.  Checks record
failures and never raise.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

PANEL_SEED = 2022  # fixed: the quality panel is the same for every --seed
INPUTS = 10  # seed inputs, and panel inputs, of a training workload


def derive_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count) % (2**31)]


def input_pairs(seed: int, count: int) -> list[tuple[int, int]]:
    """``count`` panel (data seed, training seed) pairs, then ``count`` from ``seed``."""
    pairs = []
    for source in (PANEL_SEED, seed):
        s = derive_seeds(source, 2 * count)
        pairs += [(s[2 * j], s[2 * j + 1]) for j in range(count)]
    return pairs


def _quiet(fn, *args):
    """Call ``fn`` with its stdout captured (the CLI prints a summary line)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Workload:
    name = ""
    jobs_per_call = 1  # training runs inside one timed call
    trace_jobs = 1  # training runs inside one traced unit
    workers = 1  # processes the program runs a call on
    # Seconds of one call and of one traced unit on the reference host
    # (2 CPUs, Python 3.11, numpy 2.4); they turn --seconds into a fixed
    # number of calls, so every run of a workload measures the same work.
    nominal_call_s = 1.0
    nominal_trace_s = 1.0

    def __init__(self, seed: int, work: Path, epochs: int | None, nproc: int):
        self.seed = seed
        self.work = work
        self.epochs = epochs
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._digests: dict[object, str] = {}

    # -- shared checks ----------------------------------------------------

    def fail(self, what: str, jobs: int = 1) -> None:
        self.failures.append(what)
        self.failed += jobs

    def check_repeat(self, key, payload: bytes, what: str) -> bool:
        """Bytes for one (config, seed) must match every earlier repetition."""
        digest = hashlib.sha256(payload).hexdigest()
        if self._digests.setdefault(key, digest) != digest:
            self.fail(f"{what}: output bytes differ from an earlier repetition")
            return False
        return True

    def check_records(self, records: list[dict], what: str, audited: bool) -> bool:
        """Simplex class weights on every record; the bound on every audited one."""
        from pdalab.bound import INTERMEDIATE_TOL

        expected = self.schedule().total_epochs + 1
        if len(records) != expected:
            self.fail(f"{what}: {len(records)} records, expected {expected}")
            return False
        for rec in records:
            w = np.asarray(rec["class_weights"], dtype=np.float64)
            if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
                self.fail(f"{what}: epoch {rec['epoch']} class weights off the simplex")
                return False
            bound = rec["bound"]
            if audited != (bound is not None):
                self.fail(f"{what}: epoch {rec['epoch']} bound report "
                          f"{'missing' if audited else 'present without an oracle'}")
                return False
            if bound is not None and \
                    bound["w_error_l1"] > bound["rhs_intermediate"] + INTERMEDIATE_TOL:
                self.fail(f"{what}: epoch {rec['epoch']} violates the intermediate bound")
                return False
        return True

    def schedule(self):
        from pdalab.trainer import Schedule

        if self.epochs is None:
            return Schedule()
        return Schedule(total_epochs=self.epochs, warmup_epochs=self.epochs // 2)

    def schedule_yaml(self) -> str:
        if self.epochs is None:
            return ""
        sched = self.schedule()
        return (f"schedule:\n  total_epochs: {sched.total_epochs}\n"
                f"  warmup_epochs: {sched.warmup_epochs}\n")

    # -- per workload -----------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, ctx) -> None:
        raise NotImplementedError

    def trace_call(self, i: int):
        return self.call(i)

    def trace_check(self, i: int, ctx) -> None:
        self.check(i, ctx)

    def calls(self, seconds: float, traced: bool) -> int:
        """Calls in a run of ``seconds``; each traced call is a pair of units."""
        if traced:
            return max(1, math.ceil(seconds / (2 * self.nominal_trace_s)))
        return max(self.min_calls, math.ceil(seconds / self.nominal_call_s))

    # Every input once and one repetition, so that quality covers the whole
    # panel and determinism is checked in every run.
    min_calls = 2 * INPUTS + 1

    def finish(self) -> None:
        """Checks that need every sample; runs after the measured loop."""

    def quality(self) -> tuple[float, float]:
        """(mean final target accuracy, mean final w L1 error) over the panel."""
        raise NotImplementedError

    def cli_layer(self) -> dict:
        return {"cli.jobs": 0.0, "cli.pool_idle_share": 0.0}


# ---------------------------------------------------------------------------


class SanPPAudit(Workload):
    """``pdalab train`` on CSV data with oracle labels: the audit runs every epoch."""

    name = "san_pp_audit"

    def setup(self) -> None:
        from pdalab import cli, config

        self.inputs = []
        for j, (data_seed, train_seed) in enumerate(input_pairs(self.seed, INPUTS)):
            data_dir = self.work / f"data{j}"
            gen_cfg = self.work / f"gen{j}.yaml"
            gen_cfg.write_text(f"data:\n  synthetic:\n    seed: {data_seed}\n",
                               encoding="utf-8")
            if _quiet(cli.main, ["generate-data", "--config", str(gen_cfg),
                                 "--out", str(data_dir)]) != 0:
                raise RuntimeError(f"generate-data failed for {gen_cfg}")
            train_cfg = self.work / f"train{j}.yaml"
            train_cfg.write_text(
                f"seed: {train_seed}\nvariant: san_pp\ndata:\n  csv:\n"
                f"    source: {data_dir / 'source.csv'}\n"
                f"    target: {data_dir / 'target.csv'}\n"
                f"    metadata: {data_dir / 'metadata.json'}\n" + self.schedule_yaml(),
                encoding="utf-8")
            config.load_config(train_cfg)
            self.inputs.append((train_cfg, data_dir, self.work / f"run{j}"))
        self.finals: dict[int, dict] = {}

    def call(self, i: int):
        from pdalab import cli

        train_cfg, _, out = self.inputs[i % len(self.inputs)]
        return _quiet(cli.main, ["train", "--config", str(train_cfg), "--out", str(out)])

    def check(self, i: int, rc) -> None:
        j = i % len(self.inputs)
        what = f"{self.name}[input {j}]"
        if rc != 0:
            self.fail(f"{what}: pdalab train exited {rc}")
            return
        payload = (self.inputs[j][2] / "metrics.jsonl").read_bytes()
        records = [json.loads(line) for line in payload.decode("utf-8").splitlines()]
        if self.check_records(records, what, audited=True) and \
                self.check_repeat(j, payload, what):
            self.finals[j] = records[-1]

    def _oracle(self, data_dir: Path):
        from pdalab.bound import OracleContext

        meta = json.loads((data_dir / "metadata.json").read_text(encoding="utf-8"))
        with open(data_dir / "target.csv", encoding="utf-8", newline="") as fh:
            labels = [int(row["y"]) for row in csv.DictReader(fh)]
        return OracleContext(tuple(meta["shared_classes"]), np.asarray(labels))

    def finish(self) -> None:
        from pdalab.bound import w_estimation_error

        self.scores = {}
        for j, final in self.finals.items():
            # The mean of one row is the row itself, so this is the L1 error
            # of the recorded class transferable probability.
            err = w_estimation_error(np.asarray([final["class_weights"]]),
                                     self._oracle(self.inputs[j][1]))
            if abs(err - final["bound"]["w_error_l1"]) > 1e-12:
                self.fail(f"{self.name}[input {j}]: recorded w_error_l1 "
                          f"{final['bound']['w_error_l1']!r} != recomputed {err!r}")
            self.scores[j] = (final["target_accuracy"], err)

    def quality(self) -> tuple[float, float]:
        accs, errs = zip(*(self.scores[j] for j in range(INPUTS) if j in self.scores))
        return float(np.mean(accs)), float(np.mean(errs))

    def cli_layer(self) -> dict:
        return {"cli.jobs": 1.0, "cli.pool_idle_share": 0.0}


# ---------------------------------------------------------------------------


class InProcessRuns(Workload):
    """Shared code of the workloads that call ``run_experiment`` in-process."""

    def load_jobs(self, specs: list[tuple[int, int, str]], disc_hidden=(),
                  with_oracle: bool = True) -> None:
        """``specs``: (data seed, training seed, variant name) per job."""
        from pdalab.data import SyntheticSpec, generate_toy
        from pdalab.nets import ArchSpec
        from pdalab.trainer import ABLATION_VARIANTS, PRESETS

        named = {**ABLATION_VARIANTS, **PRESETS}
        self.with_oracle = with_oracle
        self.jobs = []
        for data_seed, train_seed, variant in specs:
            spec = SyntheticSpec(seed=data_seed)
            source, target, oracle = generate_toy(spec)
            arch = ArchSpec(in_dim=source.dim, num_classes=spec.num_source_classes,
                            disc_hidden=disc_hidden)
            self.jobs.append((source, target, oracle, arch, named[variant], train_seed,
                              variant))
        self.scores: dict[int, tuple[float, float]] = {}

    def job_call(self, j: int):
        from pdalab.trainer import run_experiment

        source, target, oracle, arch, flags, train_seed, _ = self.jobs[j]
        return run_experiment(source, target, oracle if self.with_oracle else None,
                              arch, flags, self.schedule(), train_seed)

    def job_check(self, j: int, result) -> None:
        from pdalab.bound import w_estimation_error
        from pdalab.metrics import write_metrics
        from pdalab.trainer import evaluate, predict

        _, target, oracle, arch, _, train_seed, variant = self.jobs[j]
        what = f"{self.name}[{variant}, seed {train_seed}]"
        records = [rec.to_dict() for rec in result.records]
        if not self.check_records(records, what, audited=self.with_oracle):
            return
        path = self.work / f"metrics{j}.jsonl"
        write_metrics(path, result.records)
        if not self.check_repeat(j, path.read_bytes(), what):
            return
        preds = predict(result.bundle, target.x)
        if np.abs(preds.mean(axis=0) - records[-1]["class_weights"]).max() > 1e-12:
            self.fail(f"{what}: final class weights disagree with the model's predictions")
            return
        acc, _ = evaluate(result.bundle, target.x, oracle.target_labels, arch.num_classes)
        if self.with_oracle and acc != records[-1]["target_accuracy"]:
            self.fail(f"{what}: recorded accuracy disagrees with trainer.evaluate")
            return
        self.scores[j] = (acc, w_estimation_error(preds, oracle))

    def panel_quality(self, panel: range) -> tuple[float, float]:
        accs, errs = zip(*(self.scores[j] for j in panel if j in self.scores))
        return float(np.mean(accs)), float(np.mean(errs))


class PrivateDiscNoAudit(InProcessRuns):
    """``san`` with one private 16-unit trunk per class and no oracle: no audit work."""

    name = "private_disc_noaudit"

    def setup(self) -> None:
        self.load_jobs([(d, t, "san") for d, t in input_pairs(self.seed, INPUTS)],
                       disc_hidden=(16,), with_oracle=False)

    def call(self, i: int):
        return self.job_call(i % len(self.jobs))

    def check(self, i: int, result) -> None:
        self.job_check(i % len(self.jobs), result)

    def quality(self) -> tuple[float, float]:
        return self.panel_quality(range(INPUTS))


class AblateGrid(InProcessRuns):
    """``pdalab ablate`` over the six rows for one seed, one worker per CPU.

    Jobs 0-5 are the grid's own (variant, seed) runs made in-process; jobs
    6-11 are the same rows on the panel input.  The traced unit is one
    in-process grid job: spans from pool workers cannot be collected, and
    the pool's own cost shows in ``cli.pool_idle_share`` instead.
    """

    name = "ablate_grid"
    nominal_call_s = 2.8
    nominal_trace_s = 0.9
    min_calls = 2

    def __init__(self, seed: int, work: Path, epochs: int | None, nproc: int):
        super().__init__(seed, work, epochs, nproc)
        from pdalab.trainer import ABLATION_VARIANTS

        self.variants = list(ABLATION_VARIANTS)
        self.jobs_per_call = len(self.variants)
        self.workers = max(1, min(nproc, self.jobs_per_call))
        self.grid_accs: dict[str, float] | None = None
        self.grid_seconds: list[float] = []
        self.job_seconds: dict[int, float] = {}

    def setup(self) -> None:
        from pdalab import config

        panel, (data_seed, train_seed) = input_pairs(self.seed, 1)
        self.cfg = self.work / "ablate.yaml"
        self.cfg.write_text(f"seed: {train_seed}\ndata:\n  synthetic:\n"
                            f"    seed: {data_seed}\n" + self.schedule_yaml(),
                            encoding="utf-8")
        config.load_config(self.cfg)
        self.load_jobs([(d, t, v) for d, t in ((data_seed, train_seed), panel)
                        for v in self.variants])

    def call(self, i: int):
        from pdalab import cli

        t0 = time.perf_counter()
        rc = _quiet(cli.main, ["ablate", "--config", str(self.cfg), "--seeds", "1",
                               "--workers", str(self.workers),
                               "--out", str(self.work / "grid")])
        self.grid_seconds.append(time.perf_counter() - t0)
        return rc

    def check(self, i: int, rc) -> None:
        if rc != 0:
            self.fail(f"ablate exited {rc}", self.jobs_per_call)
            return
        payload = (self.work / "grid" / "ablation.csv").read_bytes()
        if not self.check_repeat("grid", payload, "ablation.csv"):
            return
        rows = list(csv.DictReader(io.StringIO(payload.decode("utf-8"))))
        if [r["variant"] for r in rows] != self.variants:
            self.fail("ablation.csv: rows differ from the six ablation variants",
                      self.jobs_per_call)
            return
        self.grid_accs = {r["variant"]: float(r["mean_accuracy"]) for r in rows}

    def trace_call(self, i: int):
        return self.job_call(i % len(self.variants))

    def trace_check(self, i: int, result) -> None:
        self.job_check(i % len(self.variants), result)

    def finish(self) -> None:
        """Time every job serially in-process; the grid must reproduce its accuracies."""
        for j in range(len(self.jobs)):
            self.attempted += 1
            t0 = time.perf_counter()
            result = self.job_call(j)
            self.job_seconds[j] = time.perf_counter() - t0
            self.job_check(j, result)
        if not self.grid_seconds:  # the traced run has no timed grids of its own
            for i in range(self.min_calls):
                self.attempted += self.jobs_per_call
                self.check(i, self.call(i))
        if self.grid_accs is None:
            return
        for j, variant in enumerate(self.variants):
            if j in self.scores and self.grid_accs[variant] != self.scores[j][0]:
                self.fail(f"ablate_grid: {variant} accuracy {self.grid_accs[variant]!r} "
                          f"with {self.workers} workers != in-process "
                          f"{self.scores[j][0]!r}")

    def quality(self) -> tuple[float, float]:
        return self.panel_quality(range(len(self.variants), 2 * len(self.variants)))

    def cli_layer(self) -> dict:
        """Pool idle share: 1 - serial job seconds / (workers x grid wall)."""
        serial = sum(self.job_seconds[j] for j in range(len(self.variants)))
        grid = float(np.median(self.grid_seconds))
        return {"cli.jobs": float(self.jobs_per_call),
                "cli.pool_idle_share": 1.0 - serial / (self.workers * grid)}


WORKLOADS = {w.name: w for w in (SanPPAudit, PrivateDiscNoAudit, AblateGrid)}
