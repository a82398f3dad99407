"""Span recording from outside the program.

The benchmark never edits the program to trace it.  A traced run either
opens a span around a call it makes itself (:meth:`SpanRecorder.span`)
or, for calls the program makes internally (the serving loop calling
admission, the engine calling the cache), temporarily replaces a class
attribute with a timing wrapper (:meth:`SpanRecorder.patched`) and puts
the original back afterwards.

Spans live in flat in-memory arrays (name id, start, end, parent, batch)
and are written out once, at exit, by :meth:`SpanRecorder.dump`.  Self
time -- a span's duration minus the part its child spans cover -- is
accumulated online per span name and per phase, so the report needs no
second pass over the spans.

An untraced run uses :data:`NULL_RECORDER`, whose ``span`` is a shared
no-op context and which never patches anything.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: One patch target: (owner class, attribute, span name, optional
#: post-hook called as ``post(recorder, self_obj)`` after each call).
Target = Tuple[type, str, str, Optional[Callable]]

_NULL_CONTEXT = contextlib.nullcontext()

#: Spans stored per run; the aggregates keep counting past it and
#: ``SpanRecorder.dropped`` says how many were not stored.
MAX_SPANS = 500_000


class NullRecorder:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    enabled = False

    def span(self, name: str):
        return _NULL_CONTEXT

    def start_phase(self, phase: str) -> None:
        pass

    def next_batch(self) -> None:
        pass

    @contextlib.contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator[None]:
        yield


NULL_RECORDER = NullRecorder()


class SpanRecorder:
    """Records nested spans and per-name self time.

    ``phase`` names the root the current work belongs to (``setup``,
    ``batch``, ``check``); self time and call counts accumulate per
    (phase, span name).  ``batch`` is the index stamped on each span.
    At most :data:`MAX_SPANS` spans are stored.
    """

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._batch = array("i")
        self._count = 0
        # The sentinel frame keeps ``stack[-1]`` valid outside any root.
        self._stack: List[List[int]] = [[-1, 0]]
        self.batch = 0
        self.phase = "setup"
        self.self_ns: Dict[str, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.calls: Dict[str, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.maxima: Dict[str, float] = defaultdict(float)

    def start_phase(self, phase: str) -> None:
        self.phase = phase

    def next_batch(self) -> None:
        self.batch += 1

    @property
    def dropped(self) -> int:
        return max(0, self._count - MAX_SPANS)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, start: int) -> int:
        idx = self._count
        self._count = idx + 1
        if idx < MAX_SPANS:
            self._name.append(nid)
            self._start.append(start)
            self._end.append(start)
            self._parent.append(self._stack[-1][0])
            self._batch.append(self.batch)
        return idx

    def _close(self, idx: int, nid: int, end: int, self_ns: int) -> None:
        if idx < MAX_SPANS:
            self._end[idx] = end
        self.self_ns[self.phase][nid] += self_ns
        self.calls[self.phase][nid] += 1

    def _wrap(self, fn: Callable, name: str, post: Optional[Callable]) -> Callable:
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter_ns
        open_, close = self._open, self._close
        recorder = self

        def traced(*args, **kwargs):
            start = clock()
            frame = [open_(nid, start), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                close(frame[0], nid, end, duration - frame[1])
                stack[-1][1] += duration
                if post is not None:
                    post(recorder, args[0])

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        nid = self._id(name)
        start = time.perf_counter_ns()
        frame = [self._open(nid, start), 0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self._close(frame[0], nid, end, duration - frame[1])
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator[None]:
        """Wrap each target's class attribute for the duration."""
        saved = []
        try:
            for owner, attr, name, post in targets:
                original = owner.__dict__[attr]
                if isinstance(original, (staticmethod, classmethod)):
                    wrapped = type(original)(
                        self._wrap(original.__func__, name, None)
                    )
                else:
                    wrapped = self._wrap(original, name, post)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def totals(self, phase: str) -> Dict[str, Tuple[int, float]]:
        """{span name: (calls, self seconds)} accumulated in ``phase``."""
        calls = self.calls.get(phase, {})
        return {
            self.names[nid]: (calls.get(nid, 0), ns / 1e9)
            for nid, ns in self.self_ns.get(phase, {}).items()
        }

    def dump(self, path) -> None:
        """Write the stored spans (one row each) as a NumPy archive."""
        import numpy as np

        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            start_ns=np.frombuffer(self._start, dtype=np.int64),
            end_ns=np.frombuffer(self._end, dtype=np.int64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            batch=np.frombuffer(self._batch, dtype=np.int32),
        )
