"""Spans and counts recorded around the calls one ``wst`` module makes into another.

The tracer replaces module-level names (for example ``wst.toytrain.batched_grid_loss``)
with thin wrappers. Each wrapper records a span (name, start, end, parent) and
updates counters in memory; nothing is written until the run ends. The program
itself is not modified: removing the wrappers restores the original objects.

A target that no longer exists is recorded as missing instead of raising, and
every metric that depends on it is reported as missing.
"""

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# span name -> the (module, attribute) lookups that lead to it. A function is
# wrapped in every namespace it is called through, so calls from inside its own
# module (run_experiment -> train) and from other modules are both seen.
TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "loss.batched_grid_loss": (("wst.loss", "batched_grid_loss"),
                               ("wst.toytrain", "batched_grid_loss")),
    "loss.log_softmax": (("wst.loss", "log_softmax"),),
    "toytrain.train": (("wst.toytrain", "train"),),
    "toytrain.decode": (("wst.toytrain", "greedy_decode"),),
    "toytrain.generate_task_data": (("wst.toytrain", "generate_task_data"),),
    "corruption.corrupt_dataset": (("wst.toytrain", "corrupt_dataset"),
                                   ("wst.corruption", "corrupt_dataset")),
    "corruption.edit_counts": (("wst.toytrain", "edit_counts"),
                               ("wst.corruption", "edit_counts")),
}

# per-layer metric -> (unit, spans it is computed from)
METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "loss.batched_grid_loss.s": ("s", ("loss.batched_grid_loss",)),
    "loss.batched_grid_loss.calls": ("count", ("loss.batched_grid_loss",)),
    "loss.log_softmax.s": ("s", ("loss.log_softmax",)),
    "loss.grid_cells": ("count", ("loss.batched_grid_loss",)),
    "loss.dense_mb": ("MB", ("loss.batched_grid_loss",)),
    "toytrain.train.s": ("s", ("toytrain.train",)),
    "toytrain.model.s": ("s", ("toytrain.train", "loss.batched_grid_loss",
                               "toytrain.generate_task_data", "corruption.corrupt_dataset")),
    "toytrain.batches": ("count", ("toytrain.train", "loss.batched_grid_loss")),
    "toytrain.batch_fill": ("ratio", ("toytrain.train", "loss.batched_grid_loss")),
    "toytrain.decode.s": ("s", ("toytrain.decode",)),
    "toytrain.decode.calls": ("count", ("toytrain.decode",)),
    "toytrain.generate_task_data.s": ("s", ("toytrain.generate_task_data",)),
    "corruption.corrupt_dataset.s": ("s", ("corruption.corrupt_dataset",)),
    "corruption.edit_counts.s": ("s", ("corruption.edit_counts",)),
    "corruption.edit_counts.calls": ("count", ("corruption.edit_counts",)),
    "trace.overhead_s": ("s", ()),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    items: int = 0  # batch size of a loss call, 0 otherwise


@dataclass
class Tracer:
    """Wraps the names in ``targets`` while installed and keeps their spans."""

    targets: Dict[str, Tuple[Tuple[str, str], ...]] = field(default_factory=lambda: dict(TARGETS))
    spans: List[Span] = field(default_factory=list, init=False)
    counts: Dict[str, float] = field(default_factory=dict, init=False)
    missing: List[str] = field(default_factory=list, init=False)  # "module.attr" not found
    _stack: List[int] = field(default_factory=list, init=False)
    _saved: List[Tuple[object, str, object]] = field(default_factory=list, init=False)

    def install(self) -> None:
        for name, lookups in self.targets.items():
            for mod_name, attr in lookups:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    mod = None
                original = getattr(mod, attr, None)
                if not callable(original):
                    target = f"{mod_name}.{attr}"
                    if target not in self.missing:
                        self.missing.append(target)
                    continue
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def missing_spans(self) -> List[str]:
        return [name for name, lookups in self.targets.items()
                if any(f"{m}.{a}" in self.missing for m, a in lookups)]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counts_items = name == "loss.batched_grid_loss"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = 0
            if counts_items:
                items = self._count_loss_call(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, items)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _count_loss_call(self, args, kwargs) -> int:
        logits = args[0] if args else kwargs.get("logits")
        shape = getattr(logits, "shape", ())
        if len(shape) != 4:
            return 0
        b, t, cols, v = shape
        self.counts["loss.grid_cells"] = self.counts.get("loss.grid_cells", 0) + b * t * cols
        # computed size of one float64 [B, T, U+1, V] array, not a measurement
        self.counts["loss.dense_mb"] = self.counts.get("loss.dense_mb", 0.0) + b * t * cols * v * 8 / 1e6
        return b


def layer_metrics(tracer: Tracer, rounds: int, batch_size: int, overhead_s: float) -> Dict[str, dict]:
    """Per-layer metrics averaged over ``rounds`` traced rounds.

    Times are inclusive span durations except ``toytrain.model.s``, which is
    the self time of ``train``: its duration minus its direct child spans.
    Metrics whose spans could not be installed are left out.
    """
    by_name: Dict[str, List[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    train_ids = {i for i, s in enumerate(tracer.spans) if s.name == "toytrain.train"}
    train_children = [s for s in tracer.spans if s.parent in train_ids]
    train_losses = [s for s in train_children if s.name == "loss.batched_grid_loss"]
    fill = (sum(s.items for s in train_losses) / len(train_losses) / batch_size
            if train_losses else 0.0)
    values = {
        "loss.batched_grid_loss.s": total("loss.batched_grid_loss"),
        "loss.batched_grid_loss.calls": calls("loss.batched_grid_loss"),
        "loss.log_softmax.s": total("loss.log_softmax"),
        "loss.grid_cells": tracer.counts.get("loss.grid_cells", 0),
        "loss.dense_mb": tracer.counts.get("loss.dense_mb", 0.0),
        "toytrain.train.s": total("toytrain.train"),
        "toytrain.model.s": total("toytrain.train") - sum(s.end - s.start for s in train_children),
        "toytrain.batches": len(train_losses),
        "toytrain.decode.s": total("toytrain.decode"),
        "toytrain.decode.calls": calls("toytrain.decode"),
        "toytrain.generate_task_data.s": total("toytrain.generate_task_data"),
        "corruption.corrupt_dataset.s": total("corruption.corrupt_dataset"),
        "corruption.edit_counts.s": total("corruption.edit_counts"),
        "corruption.edit_counts.calls": calls("corruption.edit_counts"),
    }
    values = {k: v / rounds for k, v in values.items()}
    values["toytrain.batch_fill"] = fill
    values["trace.overhead_s"] = overhead_s
    gone = set(tracer.missing_spans())
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, needs) in METRICS.items() if not gone.intersection(needs)}


def trace_record(tracer: Tracer) -> dict:
    """The spans and counts as a JSON-serialisable dict."""
    return {
        "spans": [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                   "items": s.items} for s in tracer.spans],
        "counts": tracer.counts,
        "missing": tracer.missing,
    }
