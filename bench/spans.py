"""Spans recorded from outside the program, and the layer table built
from them.

:func:`install` wraps each layer's public entry points at the attribute
its caller looks up: class attributes for methods, module attributes
for functions called through their module, and the importing module's
own name for functions bound by ``from ... import``.  Each call becomes
one span ``[name, start, end, parent, pass_id, attrs]`` kept in memory
and written out with the pass record.  Spans are recorded only in the
process that installs them, so traced passes run serially (``jobs=1``).

Python's cyclic garbage collector is a layer of its own: a collection
inside a pass is a ``python.gc`` span, a child of the span it
interrupted, so the allocating layer's self time leaves it out.

A span's self time is its duration minus the time its child spans
cover; :func:`layer_table` sums self times per layer name.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import time
from typing import Callable, Dict, List, Optional

#: Span name of the whole traced pass (engine, harness and rendering
#: glue are its self time).
ROOT_SPAN = "pass"
GC_SPAN = "python.gc"


def _committed(args, kwargs, result) -> Dict:
    return {"committed": result.stats.committed}


def _declined(args, kwargs, result) -> Dict:
    return {"declined": int(result is None)}


def _got_bytes(args, kwargs, result) -> Dict:
    return {"bytes": len(result) if result is not None else 0}


def _put_bytes(args, kwargs, result) -> Dict:
    blob = args[2] if len(args) > 2 else kwargs["blob"]
    return {"bytes": len(blob)}


#: (module, attribute path, span name, attribute extractor).
TARGETS = (
    ("repro.uarch.core", "InOrderCore.run", "uarch.core", _committed),
    ("repro.uarch.ooo", "OutOfOrderCore.run", "uarch.core", _committed),
    ("repro.uarch.trace", "TraceCapture.finish", "uarch.trace.encode", None),
    ("repro.uarch.trace", "Trace.to_bytes", "uarch.trace.encode", None),
    ("repro.uarch.trace", "Trace.from_bytes", "uarch.trace.decode", None),
    ("repro.experiments.store", "FileStore.get", "experiments.store.get",
     _got_bytes),
    ("repro.experiments.store", "FileStore.put", "experiments.store.put",
     _put_bytes),
    ("repro.experiments.artifacts", "ArtifactStore.simulate_inorder_sweep",
     "experiments.artifacts", None),
    ("repro.experiments.artifacts", "ArtifactStore.simulate_ooo",
     "experiments.artifacts", None),
    ("repro.experiments.artifacts", "ArtifactStore.profile",
     "experiments.artifacts", None),
    ("repro.uarch.replay_vec", "build_prep_slice",
     "uarch.replay_vec.prep_build", None),
    ("repro.uarch.replay_vec", "attach_prep_slice",
     "uarch.replay_vec.prep_attach", None),
    ("repro.uarch.replay_vec", "replay_inorder_stats",
     "uarch.replay_vec.inorder", _declined),
    ("repro.uarch.replay_vec", "replay_ooo_stats",
     "uarch.replay_vec.ooo", _declined),
    ("repro.uarch.replay_multi", "replay_inorder_multi_stats",
     "uarch.replay_multi", None),
    ("repro.workloads.synthetic", "WorkloadSpec.build", "workloads.build",
     None),
    ("repro.experiments.artifacts", "collect_branch_trace",
     "uarch.functional", None),
    ("repro.experiments.artifacts", "measure_trace", "branchpred.measure",
     None),
) + tuple(
    (f"repro.experiments.{module}", attr, span, None)
    for module in ("harness", "sensitivity", "motivation")
    for attr, span in (
        ("lower", "ir.lower"),
        ("compile_baseline", "compiler.baseline"),
        ("compile_decomposed", "compiler.decomposed"),
    )
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._pass_id = -1
        self._gc: Optional[list] = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self._pass_id, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """Span covering one whole pass; starts a new pass id."""
        self._pass_id += 1
        span = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(span)

    def on_gc(self, phase: str, info: Dict) -> None:
        """``gc.callbacks`` hook: a collection inside a pass is a span."""
        if phase == "start":
            if self._stack:
                self._gc = self._open(GC_SPAN)
        elif self._gc is not None:
            self._close(self._gc)
            self._gc = None

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`TARGETS` and hook the garbage
    collector (for this process)."""
    gc.callbacks.append(tracer.on_gc)
    for module_name, path, name, attrs in TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, attrs))
        else:
            wrapped = tracer.wrap(name, raw, attrs)
        setattr(owner, attr, wrapped)


def layer_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``self_s``, ``calls`` and summed attributes.

    Spans are recorded in one thread, so a span's children never
    overlap and the time they cover is the sum of their durations.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    table: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _, _, attrs) in enumerate(spans):
        row = table.setdefault(name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += end - start - child_s[index]
        row["calls"] += 1
        for key, value in attrs.items():
            row[key] = row.get(key, 0) + value
    return table


def traced_wall_s(spans: List[list]) -> float:
    """Total duration of the root (whole-pass) spans."""
    return sum(end - start for name, start, end, *_ in spans
               if name == ROOT_SPAN)
