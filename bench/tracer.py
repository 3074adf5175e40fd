"""Span tracing of qincomp from outside the package.

Tracer.install() replaces every public function of the qincomp modules, at
every module that binds it (qincomp.states.eigenvalues_hermitian_jacobi,
qincomp.sweep.spectrum_from_ab, qincomp.cases.spectrum_from_ab, ...), with
a wrapper that records one span: name, operation id, start, end and parent
span.  Spans stay in memory and are written once, by write().

A few per-value helpers are left unwrapped (UNTRACED).  They run many times
inside a single layer call, so wrapping them would move their cost out of
the layer that pays it (normalization re-checks inside tensor_product,
number formatting inside records_to_csv) and multiply the overhead.
"""

from __future__ import annotations

import functools
import inspect
import time
from pathlib import Path
from types import ModuleType

import numpy as np

UNTRACED = frozenset({"is_normalized", "is_hermitian", "format_float"})


class Tracer:
    def __init__(self, modules: list[ModuleType]) -> None:
        self.modules = modules
        self.names: list[str] = []
        self.op = -1
        self._name = []
        self._op = []
        self._parent = []
        self._start = []
        self._end = []
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []

    def install(self) -> None:
        defined = {
            obj: f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            for module in self.modules
            for name, obj in vars(module).items()
            if inspect.isfunction(obj)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
            and name not in UNTRACED
        }
        wrappers = {}
        for fn, span_name in defined.items():
            self.names.append(span_name)
            wrappers[fn] = self._wrap(fn, len(self.names) - 1)
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name_id: int):
        names, ops, parents, starts, ends = self._name, self._op, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            ops.append(tracer.op)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def mark(self) -> int:
        return len(self._start)

    def discard_from(self, mark: int) -> None:
        """Drop the spans of an operation that failed, so counts stay per success."""
        for column in (self._name, self._op, self._parent, self._start, self._end):
            del column[mark:]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.int32),
            "op": np.array(self._op, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int64),
            "start_ns": np.array(self._start, dtype=np.int64),
            "end_ns": np.array(self._end, dtype=np.int64),
        }

    def write(self, path: Path, **extra: np.ndarray) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays(), **extra)


def layer_totals(
    names: list[str], spans: dict[str, np.ndarray], scale: np.ndarray
) -> dict[str, tuple[int, float]]:
    """(calls, total self time in ns) per span name.

    Self time is a span's duration minus the durations of its direct
    children; each span's time is multiplied by its entry in scale.
    """
    duration = (spans["end_ns"] - spans["start_ns"]) * scale
    has_parent = spans["parent"] >= 0
    children = np.bincount(
        spans["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
    )
    self_ns = np.bincount(spans["name"], weights=duration - children, minlength=len(names))
    calls = np.bincount(spans["name"], minlength=len(names))
    return {name: (int(calls[i]), float(self_ns[i])) for i, name in enumerate(names)}
