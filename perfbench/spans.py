"""In-memory span recording around the public calls between layers.

A traced run patches a public function or method of each layer with a
wrapper that records a span: name, start, end, parent span and the id of the
job or request it belongs to.  Nothing under ``src/`` knows about this; the
patches are installed from the benchmark and removed again when tracing ends.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


_ABSENT = object()


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of the benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- context ------------------------------------------------------- #
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: str, parent: int | None = None):
        """Attribute spans opened on this thread to job or request ``op_id``;
        ``parent`` links them to a span recorded on another thread."""
        previous = getattr(self._local, "op", None), getattr(self._local, "root", None)
        self._local.op, self._local.root = op_id, parent
        try:
            yield
        finally:
            self._local.op, self._local.root = previous

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else getattr(self._local, "root", None)
        record = Span(
            next(self._ids), name, time.perf_counter(), 0.0, parent,
            getattr(self._local, "op", None),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    # -- patching ------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        annotate: Callable[[Any, tuple, dict], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until
        :meth:`restore`.  ``annotate(result, args, kwargs)`` adds attributes
        to the span from the call's result."""
        # a class's own function, or the bound method an instance resolves
        function = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        if isinstance(function, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {attr}: static and class methods are not wrapped")

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if annotate is not None:
                    record.attrs.update(annotate(result, args, kwargs))
                return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output -------------------------------------------------------- #
    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                    **({"attrs": span.attrs} if span.attrs else {}),
                }) + "\n")


def children(spans: list[Span]) -> dict[int, list[Span]]:
    by_parent: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            by_parent.setdefault(span.parent, []).append(span)
    return by_parent


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_seconds(span: Span, by_parent: dict[int, list[Span]]) -> float:
    """A span's duration minus the part its child spans cover."""
    kids = by_parent.get(span.id, [])
    return span.seconds - covered([(kid.start, kid.end) for kid in kids])
