"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper under every name in every ``medn`` module that holds
the original, so ``medn.optimize.loss_augmented_decode`` and
``medn.chain.loss_augmented_decode`` both record.  Spans are kept in memory
(name, start, end, parent, pass id, and a small per-call note) and written
out once at the end.  A layer's self time is its span's duration minus the
time its child spans cover.  The package is single-threaded, so no layer
ever waits for another: the time each layer waited is zero, and no queue
metric is reported.
"""

import contextlib
import csv
import importlib
import inspect
import math
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("chain", "optimize", "models", "synth", "dataio", "metrics")

# Trainer spans: a loss-augmented decode inside one of these is an update.
TRAINERS = ("optimize.subgradient_train", "optimize.l1_constrained_train")
# Spans that each stand for one whole training; the outermost one counts.
TRAININGS = TRAINERS + ("models.train_gaussian", "models.train_laplace", "models.train_l1m3n")
SPAN_FILE_COLUMNS = ["id", "name", "start_s", "end_s", "parent", "pass", "note"]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _violated(args, kwargs, result):
    return int(not np.array_equal(result[0], _arg(args, kwargs, 1, "instance").labels))


def _path_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _epochs(args, kwargs, result):
    return _arg(args, kwargs, 3, "cfg").iterations


def _sweeps(args, kwargs, result):
    return _arg(args, kwargs, 2, "sweeps")


# Per-call notes taken after the span has ended: violated flag, file size,
# epochs, sweeps.  A note that cannot be taken (the signature moved) stays 0.
NOTES = {
    "chain.loss_augmented_decode": _violated,
    "dataio.read_dataset": _path_bytes,
    "dataio.write_dataset": _path_bytes,
    "optimize.subgradient_train": _epochs,
    "optimize.l1_constrained_train": _epochs,
    "synth.gibbs_label": _sweeps,
}


def layer_functions():
    """(span name, function) for every public function of every layer module."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"medn.{layer}")
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found.append((f"{layer}.{name}", fn))
    return found


class Tracer:
    """In-memory span recorder; one per traced run.

    Spans live in parallel flat arrays rather than one object per span, so
    recording adds no objects for the garbage collector to traverse.
    """

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_ids = array("q")
        self.notes = array("q")
        self.stack = []
        self.pass_id = -1

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.pass_ids.append(self.pass_id)
        self.notes.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        open_span, close_span, notes, note_of = self._open, self._close, self.notes, NOTES.get(name)

        def traced(*args, **kwargs):
            i = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(i)
            if note_of is not None:
                try:
                    notes[i] = note_of(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Rebind every layer function, wherever a medn module holds it."""
        wrappers = {fn: self._wrap(name, fn) for name, fn in layer_functions()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "medn" and not mod_name.startswith("medn."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a call into the package."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def rows(self):
        """(name, start, end, parent, pass id, note) of every span, in opening order."""
        return zip(self.names, self.start, self.end, self.parent, self.pass_ids, self.notes)

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(SPAN_FILE_COLUMNS)
            for i, row in enumerate(self.rows()):
                out.writerow([i, *row])


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """Highest of p50..p99.9 with at least ten samples beyond it, or None."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def summarize(spans, pass_walls, pass_scales):
    """Per-layer metrics from the spans of the traced passes.

    ``pass_walls`` holds each traced pass's wall time, and a span's pass id
    indexes it.  ``pass_scales`` holds each pass's factor from wall time to
    CPU time at the nominal core speed; every time reported is scaled by
    the factor of its pass.  Times are per pass (total over the passes
    divided by their number); counts are those of the first pass.  Returns
    (metrics, counts_by_pass, details), where counts_by_pass lists every
    exact count of each pass so the caller can check that passes agree.
    """
    n_pass = len(pass_walls)
    trainers, trainings = set(TRAINERS), set(TRAININGS)
    dur = [(s[2] - s[1]) * pass_scales[s[4]] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def ancestors(i):
        names, p = set(), spans[i][3]
        while p >= 0:
            names.add(spans[p][0])
            p = spans[p][3]
        return names

    counts = [dict.fromkeys(("optimize.updates", "optimize.violated", "trace.spans",
                             "chain.feature_vector.in_trainer",
                             "models.train_laplace.inner_solves"), 0) for _ in range(n_pass)]
    incl, self_by_name, self_by_layer, notes = {}, {}, {}, {}
    root_s = trainer_s = 0.0
    trainings_ms = []
    for i, (name, _, _, parent, pass_id, note) in enumerate(spans):
        c = counts[pass_id]
        c[name + ".calls"] = c.get(name + ".calls", 0) + 1
        c["trace.spans"] += 1
        incl[name] = incl.get(name, 0.0) + dur[i]
        self_by_name[name] = self_by_name.get(name, 0.0) + dur[i] - child[i]
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[i] - child[i]
        notes[name] = notes.get(name, 0) + note
        if parent < 0:
            root_s += dur[i]
        if name in trainers:
            trainer_s += dur[i]
        if name == "chain.loss_augmented_decode" and ancestors(i) & trainers:
            c["optimize.updates"] += 1
            c["optimize.violated"] += note
        elif name == "chain.feature_vector" and ancestors(i) & trainers:
            c["chain.feature_vector.in_trainer"] += 1
        elif name == "optimize.subgradient_train" and "models.train_laplace" in ancestors(i):
            c["models.train_laplace.inner_solves"] += 1
        if name in trainings and not ancestors(i) & trainings:
            trainings_ms.append(dur[i] * 1e3)

    first = counts[0]

    def ratio(num, den):
        return num / den if den else 0.0

    def per_pass(name):
        return incl.get(name, 0.0) / n_pass

    def us_per_call(name):
        return ratio(incl.get(name, 0.0) * 1e6, sum(c.get(name + ".calls", 0) for c in counts))

    metrics = {}
    for name in ("chain.loss_augmented_decode", "chain.feature_vector", "chain.decode",
                 "optimize.l1_ball_project", "synth.gibbs_label"):
        metrics[f"{name}.calls"] = (first.get(name + ".calls", 0), "count")
        metrics[f"{name}.us_per_call"] = (us_per_call(name), "us")
    metrics["chain.feature_vector.calls_per_update"] = (
        ratio(first["chain.feature_vector.in_trainer"], first["optimize.updates"]), "ratio")
    metrics["chain.score.calls"] = (first.get("chain.score.calls", 0), "count")
    for name in TRAINERS:
        metrics[f"{name}.calls"] = (first.get(name + ".calls", 0), "count")
        metrics[f"{name}.s"] = (per_pass(name), "s")
        metrics[f"{name}.self_s"] = (self_by_name.get(name, 0.0) / n_pass, "s")
    metrics["optimize.updates"] = (first["optimize.updates"], "count")
    metrics["optimize.violation_rate"] = (
        ratio(first["optimize.violated"], first["optimize.updates"]), "ratio")
    epochs = sum(notes.get(name, 0) for name in TRAINERS)
    metrics["optimize.epoch_ms"] = (ratio(trainer_s * 1e3, epochs), "ms")
    metrics["optimize.structured_hinge_objective.s"] = (
        per_pass("optimize.structured_hinge_objective"), "s")
    for name in ("models.train_gaussian", "models.train_laplace", "metrics.evaluate_weights"):
        metrics[f"{name}.calls"] = (first.get(name + ".calls", 0), "count")
        metrics[f"{name}.s"] = (per_pass(name), "s")
    metrics["models.train_laplace.inner_solves"] = (
        ratio(first["models.train_laplace.inner_solves"],
              first.get("models.train_laplace.calls", 0)), "count")
    trainings_ms.sort()
    tail = tail_percentile(len(trainings_ms)) or 100.0
    metrics["models.train_ms_p50"] = (
        percentile(trainings_ms, 50.0) if trainings_ms else 0.0, "ms")
    metrics["models.train_ms_tail"] = (
        percentile(trainings_ms, tail) if trainings_ms else 0.0, "ms")
    for name in ("synth.gen_dataset", "synth.gen_features", "dataio.read_dataset",
                 "dataio.write_dataset", "dataio.read_model_file", "dataio.write_model_file"):
        metrics[f"{name}.s"] = (per_pass(name), "s")
    metrics["synth.sweep_us"] = (
        ratio(incl.get("synth.gibbs_label", 0.0) * 1e6, notes.get("synth.gibbs_label", 0)), "us")
    for name in ("dataio.read_dataset", "dataio.write_dataset"):
        metrics[f"{name}.mb_per_s"] = (
            ratio(notes.get(name, 0) / 1e6, incl.get(name, 0.0)), "MB/s")
    for layer in ("cli",) + LAYERS:
        metrics[f"{layer}.self_s"] = (self_by_layer.get(layer, 0.0) / n_pass, "s")
    scaled_walls = sum(w * k for w, k in zip(pass_walls, pass_scales))
    metrics["trace.unattributed_s"] = ((scaled_walls - root_s) / n_pass, "s")
    metrics["trace.spans"] = (first["trace.spans"], "count")
    details = {"trainings": len(trainings_ms), "train_ms_tail_percentile": tail}
    return metrics, counts, details
