"""In-memory span tracer used by the traced benchmark runs.

Spans are recorded around calls into the program's public functions by
patching module or class attributes for the duration of a traced
iteration (:meth:`Tracer.patched`); nothing under ``src/`` knows it is
being traced.  Each span keeps ``(name, start, end, parent, run id)``
plus counters; :func:`self_times` subtracts child coverage and
:func:`chrome_trace` writes the Chrome trace-event format with the
standard library only.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed call.  Times are ``time.perf_counter()`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: str
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread of one process."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.missing_hooks: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[dict[str, Any]]:
        """Time the body; the yielded dict becomes the span's ``args``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        started = time.perf_counter()
        try:
            yield args
        finally:
            ended = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, started, ended, parent, self.run,
                        threading.current_thread().name, args)
            with self._lock:
                self.spans.append(span)

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        on_result: Callable[[dict[str, Any], tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """A span-recording stand-in for ``function``.

        ``on_result(args, call_args, result)`` may add counters to the
        span; it runs inside the span, so its cost shows as overhead.
        Generator functions get one span per resumption.
        """
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_wrapper(*call_args: Any, **kwargs: Any) -> Any:
                inner = function(*call_args, **kwargs)
                while True:
                    with self.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*call_args: Any, **kwargs: Any) -> Any:
            with self.span(name) as args:
                result = function(*call_args, **kwargs)
                if on_result is not None:
                    on_result(args, call_args, result)
            return result
        return wrapper

    def bump(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the process-wide counter ``name``."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    @contextlib.contextmanager
    def patched(self, hooks: list[tuple[Any, str, Callable[[Any], Any]]]
                ) -> Iterator[None]:
        """Install ``(owner, attribute, make_wrapper)`` hooks, then undo.

        A hook whose attribute no longer exists is skipped and listed in
        :attr:`missing_hooks`, so a renamed function shows up as a
        missing layer instead of a crash.
        """
        originals: list[tuple[Any, str, Any]] = []
        try:
            for owner, attribute, make_wrapper in hooks:
                original = owner.__dict__.get(attribute) if isinstance(
                    owner, type) else getattr(owner, attribute, None)
                if original is None:
                    label = f"{getattr(owner, '__name__', owner)}.{attribute}"
                    if label not in self.missing_hooks:
                        self.missing_hooks.append(label)
                    continue
                originals.append((owner, attribute, original))
                setattr(owner, attribute, make_wrapper(original))
            yield
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, []), key=lambda s: s.start):
            begin = max(child.start, cursor)
            finish = min(child.end, span.end)
            if finish > begin:
                covered += finish - begin
                cursor = finish
        result[span.id] = span.duration - covered
    return result


def chrome_trace(path: Path, processes: dict[int, list[Span]]) -> None:
    """Write spans (pid -> spans) as Chrome trace-event JSON.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so
    spans from different processes share one time origin.
    """
    origin = min((span.start for spans in processes.values()
                  for span in spans), default=0.0)
    events: list[dict[str, Any]] = []
    for pid, spans in sorted(processes.items()):
        threads: dict[str, int] = {}
        for span in spans:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"id": span.id, "parent": span.parent,
                         "run": span.run, **span.args},
            })
        for name, tid in threads.items():
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": name}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


def spans_to_records(spans: list[Span]) -> list[dict[str, Any]]:
    """Plain-dict form, for handing spans across a process boundary."""
    return [span.__dict__.copy() for span in spans]


def spans_from_records(records: list[dict[str, Any]]) -> list[Span]:
    """Inverse of :func:`spans_to_records`."""
    return [Span(**record) for record in records]
