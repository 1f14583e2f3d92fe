"""In-memory span tracing around the public functions of each layer.

The traced run wraps the functions and methods listed in SPANS: each call
records a span (name, start, end, parent span, operation id).  Calls to
the methods in COUNTERS are only counted, because they are too frequent to
time one by one.  Nothing inside the library changes; the wrappers are
installed on the module and class attributes and removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (layer, attribute path inside nashreduce.<module>); the layer names the
# module, except that ``rational`` is ``_rational``
SPANS = (
    ("model", "PolymatrixGame.verify_wsne"),
    ("model", "BimatrixGame.verify_wsne"),
    ("model", "BimatrixGame.to_dense"),
    ("reductions", "linearize"),
    ("reductions", "bimatrixify"),
    ("reductions", "lift_to_polymatrix"),
    ("reductions", "recover_from_bimatrix"),
    ("reductions", "recover_from_polymatrix"),
    ("gadgets", "GadgetCircuit.combine"),
    ("gadgets", "GadgetCircuit.lift"),
    ("multipliers", "build_multiplication_chain"),
    ("multipliers", "build_unary_multiplier"),
    ("multipliers", "build_robust_multiplier"),
    ("solvers", "support_enumeration_bimatrix"),
    ("solvers", "lift_to_bimatrix"),
    ("solvers", "realized_eps"),
    ("sweep", "sweep_gadget"),
    ("fileio", "write_game"),
    ("fileio", "write_mapping"),
    ("fileio", "read_game"),
    ("fileio", "read_mapping"),
)
COUNTERS = (("model", "PolymatrixGame.out_edges"),)

OP_SPAN = "op"
NAME, START, END, PARENT, OP = range(5)


def _module(layer: str):
    return importlib.import_module(f"nashreduce.{'_rational' if layer == 'rational' else layer}")


class Tracer:
    """Spans are lists ``[name, start, end, parent index, op id]`` kept in
    ``spans`` until the run ends; ``counts[(name, op id)]`` holds counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._undo: list[tuple] = []

    @contextmanager
    def installed(self):
        try:
            for layer, path in SPANS:
                self._patch(layer, path, self._timed)
            for layer, path in COUNTERS:
                self._patch(layer, path, self._counted)
            yield self
        finally:
            for owner, attr, value in reversed(self._undo):
                setattr(owner, attr, value)
            self._undo.clear()

    @contextmanager
    def op(self, op_id: int):
        """The root span of one operation; library spans inside it carry its id."""
        self._op = op_id
        record = [OP_SPAN, 0.0, 0.0, None, op_id]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[START] = perf_counter()
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()
            self._op = None

    def _patch(self, layer: str, path: str, make) -> None:
        module = _module(layer)
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make(f"{layer}.{path}", original)
        targets = [(owner, attr)]
        if owner is module:
            # modules import functions by name, so rebind every alias
            for name, mod in list(sys.modules.items()):
                if name == "nashreduce" or name.startswith("nashreduce."):
                    targets += [
                        (mod, key)
                        for key, value in vars(mod).items()
                        if value is original and (mod, key) != (owner, attr)
                    ]
        for target, key in targets:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, wrapper)

    def _timed(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self._op]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(name, self._op)] += 1
            return fn(*args, **kwargs)

        return counted


def self_times(spans: list[list], durations: list[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (children of one span never overlap: the loop has one thread)."""
    own = list(durations)
    for span, duration in zip(spans, durations):
        if span[PARENT] is not None:
            own[span[PARENT]] -= duration
    return own
