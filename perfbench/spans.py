"""An in-memory span tracer that wraps library calls from outside.

The benchmark never edits ``src/``: :meth:`Tracer.install` replaces the
public functions and methods named by a :class:`Target` with timing
wrappers, and :meth:`Tracer.uninstall` puts every original back.  A
function imported by name into other ``repro`` modules is replaced in
each of them, so callers that bound the name at import time are traced
too.

Each call records a span (id, name, parent id, start, end).  Spans are
kept in memory; per-name aggregates (calls, total seconds, self
seconds) are updated as each span closes, so the metrics stay exact
even when the span list itself is capped.  A span's self time is its
duration minus the time covered by its child spans.

Generator functions (``CQAutomaton.successors``) are traced by the
time spent inside the generator's own frames: every resumption is a
slice, and the slices add up to one span per generator.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept for the span file; aggregates are exact past this cap.
MAX_KEPT_SPANS = 100_000


@dataclass(frozen=True)
class Target:
    """One library callable to wrap.

    ``where`` is ``"module:qualname"`` (``Class.method`` for methods);
    ``span`` names the spans its calls record; ``count`` (optional)
    maps ``(tracer, args, kwargs, result, seconds)`` to counter
    increments; ``generator`` marks a generator function (``count``
    then receives the number of items it yielded as ``result``).
    """

    where: str
    span: str
    count: Optional[Callable[..., Dict[str, float]]] = None
    generator: bool = False


class Tracer:
    """Nested spans and counters for one traced run."""

    def __init__(self):
        #: span name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[Tuple[int, str, int, float, float]] = []
        self.dropped = 0
        # Open frames: [span id, name, start, child seconds].
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------

    def _close(self, sid: int, name: str, parent: int, start: float,
               duration: float, child: float) -> None:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((sid, name, parent, start, start + duration))
        else:
            self.dropped += 1

    def _open(self, name: str) -> Tuple[list, int]:
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), name, perf_counter(), 0.0]
        stack.append(frame)
        return frame, parent

    def _end(self, frame: list, parent: int) -> float:
        duration = perf_counter() - frame[2]
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][3] += duration
        self._close(frame[0], frame[1], parent, frame[2], duration, frame[3])
        return duration

    def span(self, name: str) -> "_SpanContext":
        """A manual span around a block (the benchmark's own steps)."""
        return _SpanContext(self, name)

    def inside(self, name: str) -> bool:
        """Whether a span called *name* is currently open."""
        return any(frame[1] == name for frame in self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def _call_wrapper(self, fn: Callable, target: Target) -> Callable:
        tracer, name, counter = self, target.span, target.count

        def traced(*args, **kwargs):
            frame, parent = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._end(frame, parent)
            if counter is not None:
                for key, amount in counter(tracer, args, kwargs, result,
                                           duration).items():
                    tracer.count(key, amount)
            return result

        traced.__wrapped__ = fn
        traced.perfbench_tracer = tracer
        return traced

    def _generator_wrapper(self, fn: Callable, target: Target) -> Callable:
        tracer, name, counter = self, target.span, target.count
        stack = self._stack

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            parent = stack[-1][0] if stack else 0
            # One frame for the whole generator, pushed for each slice.
            frame = [next(tracer._ids), name, 0.0, 0.0]
            start, busy, items = None, 0.0, 0
            try:
                while True:
                    began = perf_counter()
                    if start is None:
                        start = began
                    stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        piece = perf_counter() - began
                        busy += piece
                        if stack:
                            stack[-1][3] += piece
                    items += 1
                    yield item
            finally:
                inner.close()
                tracer._close(frame[0], name, parent,
                              start or perf_counter(), busy, frame[3])
                if counter is not None:
                    for key, amount in counter(tracer, args, kwargs, items,
                                               busy).items():
                        tracer.count(key, amount)

        traced.__wrapped__ = fn
        traced.perfbench_tracer = tracer
        return traced

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        if target.generator:
            return self._generator_wrapper(fn, target)
        return self._call_wrapper(fn, target)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets) -> None:
        """Wrap every target; a second install without uninstall is an
        error (wrappers must never stack)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for target in targets:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, target: Target) -> None:
        module_name, _, qualname = target.where.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._set(owner, attr, wrapped)
            return
        original = getattr(module, qualname)
        wrapped = self._wrap(original, target)
        # Every repro module that bound the function by name.
        for name, other in sorted(sys.modules.items()):
            if other is None or not (name == "repro"
                                     or name.startswith("repro.")):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._set(other, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original, newest patch first, then unbind any
        wrapper a module imported while the tracer was installed."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for owner, attr, value in wrapper_bindings():
            if value.perfbench_tracer is self and \
                    not isinstance(owner, type):
                setattr(owner, attr, value.__wrapped__)

    # -- results -----------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    def calls(self, *names: str) -> int:
        return int(sum(self.totals.get(name, (0, 0.0, 0.0))[0]
                       for name in names))

    def write(self, path) -> None:
        """Write the kept spans (JSON lines, times relative to the
        first span) followed by one summary line."""
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, parent, start, end in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "parent": parent,
                    "start_s": round(start - origin, 9),
                    "end_s": round(end - origin, 9)}) + "\n")
            out.write(json.dumps({
                "summary": {name: {"calls": int(calls), "total_s": total,
                                   "self_s": own}
                            for name, (calls, total, own)
                            in sorted(self.totals.items())},
                "counters": self.counters,
                "dropped_spans": self.dropped}) + "\n")


def wrapper_bindings():
    """Every ``(module-or-class, attribute, wrapper)`` still bound in a
    loaded ``repro`` module -- empty once all tracers are uninstalled."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, "perfbench_tracer"):
                found.append((module, attr, value))
            elif isinstance(value, type) and value.__module__ == name:
                for key, member in list(vars(value).items()):
                    member = getattr(member, "__func__", member)
                    if hasattr(member, "perfbench_tracer"):
                        found.append((value, key, member))
    return found


class _SpanContext:
    __slots__ = ("tracer", "name", "frame", "parent")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame, self.parent = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._end(self.frame, self.parent)
        return False


class NoTracer:
    """The untraced stand-in: the same span API, doing nothing."""

    def span(self, name: str) -> "NoTracer":
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
