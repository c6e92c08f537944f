"""In-memory span recorder, installed around a program from outside.

A :class:`Tracer` wraps callables named by a declarative table of
``(import path, attribute, span name, count hook)`` rows.  Every call
of a wrapped callable is one span: name, start, end, the span that
caused it (the innermost open span) and the id of the benchmark
operation it belongs to.  Counts are taken by the hook at the same
wrapper, from the call's own arguments and return value.

Two views are kept.  ``ops`` aggregates, per operation and span name,
the *self* time (duration minus the part child spans cover), the call
count and the hook counts; every per-layer metric is derived from it.
``spans`` keeps the raw records, but only for set-up and for the
operations the caller asks it to: a serving replay opens ~10^4 spans,
and writing all of them would cost more than the run they describe.

Time a hook spends is charged to no layer: the interval a child hands
to its parent runs to the end of the child's hook, so hooks show up in
``trace.overhead_share`` and nowhere else.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Operation id of spans opened outside every operation (set-up).
SETUP_OP = "setup"

#: ``hook(args, kwargs, result) -> {count name: value}``
Hook = Callable[[tuple, dict, Any], Dict[str, float]]
#: ``(import path, dotted attribute, span name, hook or None)``
Target = Tuple[str, str, str, Optional[Hook]]

_clock = time.perf_counter


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self) -> None:
        #: op id -> span name -> [self seconds, calls, {count: value}]
        self.ops: Dict[Any, Dict[str, list]] = {SETUP_OP: {}}
        #: raw records: (id, parent id, op, name, start, end, counts)
        self.spans: List[tuple] = []
        #: "module:attribute" of every target that could not be found
        self.missing: List[str] = []
        self._stack: List[list] = []  # open spans: [id, child seconds]
        self._op = SETUP_OP
        self._agg = self.ops[SETUP_OP]
        self._keep = True
        self._next_id = 0
        self._installed: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for module_name, attr, name, hook in targets:
            try:
                owner: Any = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{attr}")
                continue
            own = leaf in vars(owner)
            raw = vars(owner)[leaf] if own else original
            if isinstance(raw, property):
                wrapped: Any = property(
                    self._wrap(raw.fget, name, hook), raw.fset, raw.fdel
                )
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(original, name, hook))
            else:
                wrapped = self._wrap(original, name, hook)
            self._installed.append((owner, leaf, raw, own))
            setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, leaf, raw, own in reversed(self._installed):
            if own:
                setattr(owner, leaf, raw)
            else:  # inherited: drop the override
                delattr(owner, leaf)
        self._installed.clear()

    def _wrap(self, fn: Callable, name: str, hook: Optional[Hook]):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                raise
            end = _clock()
            stack.pop()
            counts = hook(args, kwargs, result) if hook else None
            self._close(name, frame, start, end, counts)
            return result

        return traced

    def _close(self, name, frame, start, end, counts) -> None:
        entry = self._agg.get(name)
        if entry is None:
            entry = self._agg[name] = [0.0, 0, {}]
        entry[0] += (end - start) - frame[1]
        entry[1] += 1
        if counts:
            totals = entry[2]
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
        stack = self._stack
        if self._keep:
            parent = stack[-1][0] if stack else None
            self.spans.append(
                (frame[0], parent, self._op, name, start, end, counts)
            )
        if stack:
            stack[-1][1] += _clock() - start

    # ------------------------------------------------------------------
    # Operation boundaries (the root span of everything inside)
    # ------------------------------------------------------------------
    def begin_op(self, op: int, keep: bool) -> None:
        """Open operation ``op``; ``keep`` its raw spans or not."""
        self._op = op
        self._agg = self.ops[op] = {}
        self._keep = keep
        self._stack.append([self._next_id, 0.0])
        self._next_id += 1

    def end_op(self, start: float, end: float) -> None:
        """Close the operation's root span over ``[start, end]``."""
        frame = self._stack.pop()
        self._close("op", frame, start, end, None)
        self._op = SETUP_OP
        self._agg = self.ops[SETUP_OP]
        self._keep = True

    def abort_op(self) -> None:
        """Drop the root span of an operation that raised."""
        del self._stack[:]
        self.ops.pop(self._op, None)
        self._op = SETUP_OP
        self._agg = self.ops[SETUP_OP]
        self._keep = True

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def self_seconds(self, op: Any, name: str) -> float:
        entry = self.ops.get(op, {}).get(name)
        return entry[0] if entry else 0.0

    def calls(self, op: Any, name: str) -> int:
        entry = self.ops.get(op, {}).get(name)
        return entry[1] if entry else 0

    def count(self, op: Any, name: str, key: str) -> float:
        entry = self.ops.get(op, {}).get(name)
        return entry[2].get(key, 0) if entry else 0

    def dump(self, path: str, **header: Any) -> None:
        """Write the kept spans and the per-operation aggregates."""
        doc = dict(header)
        doc["trace_missing"] = list(self.missing)
        doc["span_fields"] = [
            "id", "parent", "op", "name", "start_s", "end_s", "counts",
        ]
        doc["spans"] = self.spans
        doc["ops"] = {
            str(op): {
                name: {"self_s": e[0], "calls": e[1], "counts": e[2]}
                for name, e in agg.items()
            }
            for op, agg in self.ops.items()
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
