"""Span recording from outside the program.

The benchmark measures per-layer time without editing the program: it
replaces a public function with a timing wrapper *where its caller looks
it up* (``setattr(module, name, wrapper)`` on the caller's module, or on
the class for methods), records one span per call, and restores the
original on :meth:`Tracer.uninstall`.

Each span records its name, start, end, parent span and the request or
event id current on its thread.  Spans stay in memory until the run ends;
:meth:`Tracer.summary` then folds them into per-name call counts, total
time and *self* time (duration minus the part of it covered by child
spans).
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None       # index of the parent span, or None
    op: str | None           # request / event id
    child_time: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return max(0.0, self.duration - self.child_time)


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._undo: list = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set_op(self, op: str | None) -> None:
        """Tag the spans this thread records next with *op*."""
        self._local.op = op

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn):
        """*fn* wrapped so each call records a span named *name*."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(Span(
                    name, time.perf_counter(), 0.0,
                    stack[-1] if stack else None,
                    getattr(tracer._local, "op", None),
                ))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end = time.perf_counter()
                with tracer._lock:
                    span = tracer.spans[index]
                    span.end = end
                    if span.parent is not None:
                        tracer.spans[span.parent].child_time += (
                            end - span.start
                        )

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a module function or a class method)."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if getattr(original, "__wrapped_by_tracer__", False):
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original))

    def on_uninstall(self, fn) -> None:
        """Call *fn* when the patches are removed (custom restores)."""
        self._undo.append(fn)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._undo:
            self._undo.pop()()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """``{name: {"calls", "total_s", "self_s"}}`` over finished spans."""
        out: dict[str, dict] = {}
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            if span.end <= 0.0:
                continue
            row = out.setdefault(span.name,
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.self_time
        return out

    def dump(self) -> list[dict]:
        """The spans as JSON-compatible dicts (for writing out at the end)."""
        with self._lock:
            return [
                {"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op}
                for s in self.spans
            ]
