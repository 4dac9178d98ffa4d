"""In-memory span tracer that wraps pdalab's public functions by name.

A target such as ``tensor.matmul`` names a function by its defining
module.  Installing the tracer replaces that function under every name a
caller looks it up by (``pdalab.tensor.matmul``, ``pdalab.nets.matmul``,
...) with a wrapper that records a span; uninstalling puts the originals
back.  ``src/`` is never edited.  A target that no longer exists is
reported as absent instead of failing the run.

A span is (name, start, end, parent, run): ``parent`` is the index of
the enclosing span (-1 at the root) and ``run`` the id of the unit of
work it belongs to.  Spans are appended at entry, so a parent's index is
always smaller than its children's.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from array import array

# The public primitives of the autodiff tape, counted one node per call.
PRIMITIVES = ("matmul", "add", "relu", "sigmoid", "softmax_rows", "cross_entropy_rows",
              "binary_cross_entropy", "entropy_rows", "concat_cols", "grad_reverse",
              "slice_rows", "mean", "sum_all", "mul_const", "scale")

TARGETS = (
    *(f"tensor.{op}" for op in PRIMITIVES),
    "tensor.backward",
    "nets.f_forward", "nets.g_forward", "nets.d_forward",
    "losses.supervised_loss", "losses.self_training_loss", "losses.adversarial_loss",
    "losses.compose_objective", "losses.assign_pseudo_labels",
    "selection.class_transferable_probability",
    "bound.check_bound", "bound.estimate_hdh_divergence",
    "trainer.run_experiment", "trainer.train_epoch", "trainer.predict",
    "trainer.extract_features", "trainer.MomentumSGD.step",
    "data.generate_toy", "data.load_csv", "data.save_dataset_csv", "data.batch_iterator",
    "metrics.write_metrics", "config.load_config", "config.dump_config",
    "cli.main",
)

UNIT = "bench.unit"
SETUP = "bench.setup"
SETUP_RUN = -1  # run id of the spans recorded during set-up


def _resolve(target: str):
    """(owner object, attribute name, original) or None if it is gone."""
    module_name, *path = target.split(".")
    try:
        owner = importlib.import_module(f"pdalab.{module_name}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    original = getattr(owner, path[-1], None)
    return None if original is None else (owner, path[-1], original)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        # One entry per span in parallel typed arrays: a few hundred
        # thousand spans fit in a few megabytes.
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._run: int | None = None
        self._pid = os.getpid()

    def __len__(self) -> int:
        return len(self.start)

    # -- recording --------------------------------------------------------

    def _recording(self) -> bool:
        # Worker processes forked while installed inherit the wrappers;
        # their spans could never be collected, so they only pass through.
        return self._run is not None and os.getpid() == self._pid

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _enter(self, code: int) -> int:
        idx = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, run: int):
        """One root span that tags every span below it with ``run``.

        Yields a dict whose ``seconds`` is the span's duration once it ends.
        """
        self._run = run
        idx = self._enter(self._code(name))
        out = {}
        try:
            yield out
        finally:
            self._exit(idx)
            self._run = None
            out["seconds"] = self.end[idx] - self.start[idx]

    def _wrap(self, name: str, fn):
        tracer = self
        code = self._code(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer._recording():
                    yield from gen
                    return
                # Time each resumption: the work a generator does happens
                # inside next(), not in the call that creates it.
                while True:
                    idx = tracer._enter(code)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            idx = tracer._enter(code)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
        return wrapper

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target under each name pdalab modules bind it to."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pdalab" or n.startswith("pdalab."))]
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(target, original)
            sites = [(owner, attr)]
            if inspect.ismodule(owner):
                sites += [(m, a) for m in modules for a, v in vars(m).items()
                          if v is original and (m, a) != (owner, attr)]
            for site, a in sites:
                self._patched.append((site, a, original))
                setattr(site, a, wrapper)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched = []

    # -- analysis ---------------------------------------------------------

    def write_spans(self, path) -> None:
        """Gzipped TSV: id, parent, run (-1 for set-up), name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\trun\tname\tstart\tend\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.run[i]}\t{self.names[self.name[i]]}"
                         f"\t{self.start[i]!r}\t{self.end[i]!r}\n")

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, split set-up/units.

        Also ``in_epoch_calls`` (spans below ``trainer.train_epoch``) and
        ``outside_epoch_s`` (inclusive seconds of unit spans not below
        ``trainer.train_epoch``).
        """
        n = len(self)
        epoch_code = self._codes.get("trainer.train_epoch", -1)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child_s = [0.0] * n
        in_epoch = [False] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_s[p] += dur[i]
                in_epoch[i] = in_epoch[p] or self.name[p] == epoch_code
        stats = [{"setup": {"calls": 0, "s": 0.0, "self_s": 0.0},
                  "units": {"calls": 0, "s": 0.0, "self_s": 0.0},
                  "in_epoch_calls": 0, "outside_epoch_s": 0.0} for _ in self.names]
        for i in range(n):
            s = stats[self.name[i]]
            phase = s["setup" if self.run[i] == SETUP_RUN else "units"]
            phase["calls"] += 1
            phase["s"] += dur[i]
            phase["self_s"] += dur[i] - child_s[i]
            if in_epoch[i]:
                s["in_epoch_calls"] += 1
            elif self.run[i] != SETUP_RUN:
                s["outside_epoch_s"] += dur[i]
        return {name: stats[code] for code, name in enumerate(self.names)
                if stats[code]["setup"]["calls"] or stats[code]["units"]["calls"]}
