"""In-memory span recording around the public entry points of each layer.

The traced run wraps, from this file only, the callables a workload
calls into:

* ``md.backends`` — every kernel of the ``cext`` :class:`ForceBackend`,
  re-registered through ``register_backend`` as a copy whose callables
  are timing wrappers;
* ``md.batch`` — ``BatchedEngine.step/add/remove/prime``;
* ``core.checkpoint`` — ``save_checkpoint_v2`` and
  ``CheckpointManager.save``.

The workloads wrap each ``step()`` themselves.  A span is
``[layer, name, start, end, parent, items]``; ``parent`` is the index
of the span open when it started (``-1`` at the top), so a layer's
self time is its spans' durations minus the part their direct children
cover.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import time
from typing import Callable, Dict, Iterator, List, Optional

#: Kernels of the ``cext`` backend that the benchmark reports, with the
#: argument that counts one call's items (pairs, rows or keys).
KERNEL_ITEMS: Dict[str, int] = {
    "admit_flat": 3,    # ia: candidate pairs of the band lists
    "rom_eval": 0,      # r2: admitted pairs
    "scatter_cols": 1,  # idx: admitted pairs scattered into a bank
    "traffic_flat": 0,  # keys: rows grouped
    "ring_charge": 2,   # src: record spans charged onto the ring
    "screen_dr": 1,     # ii: candidate pairs of one chunk
    "lj_flat_seg": 3,   # ia: candidate pairs of the packed batch
}


class Tracer:
    """Record nested spans; summarize them per layer and name."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        items: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``items(args, kwargs, result)`` counts the work one call did.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if items is not None:
                rec[5] = items(args, kwargs, result)
            return result

        return traced

    def mark(self) -> int:
        """Position to summarize from (see ``since`` below)."""
        return len(self.spans)

    def select(self, layer: str, name: Optional[str] = None, since: int = 0):
        return [
            s for s in self.spans[since:]
            if s[0] == layer and (name is None or s[1] == name)
        ]

    def total(self, layer: str, name: Optional[str] = None, since: int = 0):
        """``(calls, seconds, items)`` over the matching spans."""
        sel = self.select(layer, name, since)
        return (
            len(sel),
            sum(s[3] - s[2] for s in sel),
            sum(s[5] for s in sel),
        )

    def outer_seconds(self, layer: str, since: int = 0) -> float:
        """Seconds of the layer's spans not nested in another of its own."""
        spans = self.spans
        return sum(
            s[3] - s[2] for s in spans[since:]
            if s[0] == layer and (s[4] < 0 or spans[s[4]][0] != layer)
        )

    def self_seconds(self, layer: str, since: int = 0) -> float:
        """The layer's span time minus the time of their direct children."""
        child: Dict[int, float] = {}
        for s in self.spans[since:]:
            if s[4] >= 0:
                child[s[4]] = child.get(s[4], 0.0) + (s[3] - s[2])
        return sum(
            (s[3] - s[2]) - child.get(since + i, 0.0)
            for i, s in enumerate(self.spans[since:])
            if s[0] == layer
        )

    def dump(self, path: str, extra: dict) -> None:
        """Write every span (times relative to the first) plus ``extra``."""
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = dict(extra)
        doc["span_fields"] = ["layer", "name", "start_s", "end_s", "parent", "items"]
        doc["spans"] = [
            [s[0], s[1], s[2] - t0, s[3] - t0, s[4], s[5]] for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _arg_len(pos: int) -> Callable:
    return lambda args, kwargs, result: len(args[pos])


@contextlib.contextmanager
def traced_backend(tracer: Tracer, name: str) -> Iterator[None]:
    """Re-register backend ``name`` with every reported kernel wrapped.

    Consumers that resolve the backend while this is active (every
    machine force pass, every new ``BatchedEngine``) call the wrappers.
    """
    from repro.md.backends import register_backend, resolve_backend

    original = resolve_backend(name)
    wrapped = {
        kernel: tracer.wrap(
            "backends", kernel, getattr(original, kernel), _arg_len(pos)
        )
        for kernel, pos in KERNEL_ITEMS.items()
        if getattr(original, kernel) is not None
    }
    register_backend(dataclasses.replace(original, **wrapped))
    try:
        yield
    finally:
        register_backend(original)


def _engine_steps(args, kwargs, result) -> int:
    return args[1] if len(args) > 1 else kwargs.get("n_steps", 1)


def _system_n(args, kwargs, result) -> int:
    return args[1].n


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(result)


@contextlib.contextmanager
def traced_service_layers(tracer: Tracer) -> Iterator[None]:
    """Wrap the batch-engine and checkpoint entry points the job service
    calls; restore the originals on exit."""
    from repro.core import checkpoint
    from repro.md.batch import BatchedEngine

    patches = [
        (BatchedEngine, "step", "batch", _engine_steps),
        (BatchedEngine, "add", "batch", _system_n),
        (BatchedEngine, "remove", "batch", None),
        (BatchedEngine, "prime", "batch", None),
        (checkpoint.CheckpointManager, "save", "checkpoint", None),
        (checkpoint, "save_checkpoint_v2", "checkpoint", _file_bytes),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    for owner, attr, layer, items in patches:
        setattr(owner, attr, tracer.wrap(layer, attr, getattr(owner, attr), items))
    try:
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
