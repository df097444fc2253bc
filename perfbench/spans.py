"""In-memory span recorder for traced runs.

Spans are recorded from the benchmark's side only: the recorder wraps
the calls the epoch drivers make into each layer's public functions
(``run_epoch``, ``pending_files``, ``read_parquet``, the synchronous Ray
Data boundaries ``materialize``/``take_all``/``sum``/``max``/``schema``,
``write_deterministic``, ``CheckpointStore.commit``). Ray Data is lazy,
so a span at one of those boundaries covers every layer whose plan that
call executes; each span is named by the layer whose plan it executes.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import uuid
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    poll: int  # run_epoch call (epoch attempt) the span belongs to


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.executions: dict[int, int] = {}  # poll -> Ray Data executions
        self._stack: list[int] = []
        self._poll = -1
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, poll: int | None = None):
        if poll is not None:
            self._poll = poll
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.monotonic(), 0.0, parent, self._poll))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.monotonic()

    def wrap(self, owner: object, attr: str, namer: Callable[[tuple, dict], "str | None"]) -> None:
        """Record a span around ``owner.attr`` for calls made directly by
        an epoch driver (depth 1 under the root span); ``namer`` maps the
        call's arguments to the span name (None: no span)."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*a, **kw):
            name = namer(a, kw) if len(self._stack) == 1 else None
            if name is None:
                return orig(*a, **kw)
            with self.span(name):
                return orig(*a, **kw)

        self.replace(owner, attr, wrapper)

    def count_executions(self, owner: object, attr: str) -> None:
        """Count calls of ``owner.attr`` (a Ray Data execution entry point)
        made while an epoch span is open."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*a, **kw):
            if self._stack:
                self.executions[self._poll] = self.executions.get(self._poll, 0) + 1
            return orig(*a, **kw)

        self.replace(owner, attr, wrapper)

    def replace(self, owner: object, attr: str, new: object) -> None:
        """Set ``owner.attr`` to ``new`` until ``restore``."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_time(self, idx: int) -> float:
        s = self.spans[idx]
        kids = sum(c.end - c.start for c in self.spans if c.parent == idx)
        return (s.end - s.start) - kids


class RowCounter:
    """Pass-through batch function that leaves one small file per batch
    holding the batch's row count; runs inside Ray tasks, so it reports
    through the file system."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def __call__(self, tbl):
        with open(os.path.join(self.out_dir, uuid.uuid4().hex), "w") as fh:
            fh.write(str(tbl.num_rows))
        return tbl

    def drain(self) -> int:
        n = 0
        for f in os.listdir(self.out_dir):
            p = os.path.join(self.out_dir, f)
            with open(p) as fh:
                n += int(fh.read())
            os.remove(p)
        return n
