"""Cross-process trace spans with context-propagated trace ids.

One trace = one `/query` request. The HTTP front opens a **root span**
(:func:`Tracer.trace`) and stores the active trace in a
:class:`contextvars.ContextVar`, so child spans opened anywhere below —
routing, plan compile, factorize, merge, contract build — attach to the
right trace without any plumbing through call signatures. Context
propagation follows Python's rules:

* ``asyncio.to_thread`` **does** carry the context, so spans opened
  inside the blocking service call land in the request's trace.
* ``ThreadPoolExecutor.submit`` does **not** — the sharded front's
  scatter path therefore submits fan-out work via
  ``contextvars.copy_context().run(...)`` (see
  ``warehouse/scatter.py``).
* Process boundaries carry nothing — the pipe protocol ships the
  ``trace_id`` in the ``partials`` payload, the worker records spans
  against that id with :func:`remote_span`, returns them as dicts in
  the response, and the front :meth:`Tracer.graft`\\ s them into the
  live trace. Graft dedupes by ``span_id`` because the in-process shard
  client shares the front's tracer and would otherwise double-record.

Everything is a no-op when no trace is active: :func:`Tracer.span`
checks the contextvar once and hands back a shared null span, so
library use (tests, benchmarks, direct ``AQPSession`` calls) pays one
dict-free attribute check per instrumented site.

Finished traces land in a bounded ring (default 256) served by
``GET /debug/traces``.
"""

from __future__ import annotations

import collections
import contextvars
import os
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "default_tracer",
    "current_trace_id",
]


def _new_id(nbytes: int = 8) -> str:
    return uuid.uuid4().hex[: nbytes * 2]


class Span:
    """One timed operation inside a trace.

    Used as a context manager; ``tags`` may be set at open time or via
    :meth:`set_tag` while open. Records wall-clock start plus a
    monotonic duration.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_time",
        "duration",
        "tags",
        "_t0",
        "_trace",
    )

    def __init__(
        self,
        trace_id: str,
        name: str,
        parent_id: Optional[str] = None,
        tags: Optional[Dict[str, Any]] = None,
        trace: Optional["Trace"] = None,
        span_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id or _new_id()
        self.parent_id = parent_id
        self.name = name
        self.start_time = time.time()
        self.duration: Optional[float] = None
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self._t0 = time.perf_counter()
        self._trace = trace

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def finish(self) -> None:
        if self.duration is None:
            self.duration = time.perf_counter() - self._t0

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        self.finish()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_time": self.start_time,
            "duration": self.duration,
            "tags": dict(self.tags),
        }


class _NullSpan:
    """Shared do-nothing span returned when no trace is active."""

    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Trace:
    """A root span plus every child recorded under one trace id."""

    def __init__(self, trace_id: str, root: Span) -> None:
        self.trace_id = trace_id
        self.root = root
        self._spans: List[Span] = [root]
        self._remote: List[Dict[str, Any]] = []
        self._seen: set = {root.span_id}
        self._lock = threading.Lock()

    def add(self, span: Span) -> None:
        with self._lock:
            if span.span_id in self._seen:
                return
            self._seen.add(span.span_id)
            self._spans.append(span)

    def add_remote(self, span_dict: Dict[str, Any]) -> None:
        span_id = span_dict.get("span_id")
        with self._lock:
            if span_id is not None and span_id in self._seen:
                return
            if span_id is not None:
                self._seen.add(span_id)
            self._remote.append(dict(span_dict))

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            spans = [s.to_dict() for s in self._spans]
            spans.extend(dict(r) for r in self._remote)
        return {
            "trace_id": self.trace_id,
            "name": self.root.name,
            "start_time": self.root.start_time,
            "duration": self.root.duration,
            "tags": dict(self.root.tags),
            "spans": spans,
        }


class _ActiveTrace:
    """Contextvar payload: the trace plus the innermost open span."""

    __slots__ = ("trace", "span")

    def __init__(self, trace: Trace, span: Span) -> None:
        self.trace = trace
        self.span = span


_current: contextvars.ContextVar[Optional[_ActiveTrace]] = (
    contextvars.ContextVar("repro_obs_trace", default=None)
)


def current_trace_id() -> Optional[str]:
    """Trace id of the active trace in this context, if any."""
    active = _current.get()
    return active.trace.trace_id if active is not None else None


class _TraceContext:
    """Context manager for a root span; pushes/pops the contextvar."""

    __slots__ = ("_tracer", "_trace", "_token")

    def __init__(self, tracer: "Tracer", trace: Trace) -> None:
        self._tracer = tracer
        self._trace = trace
        self._token: Optional[contextvars.Token] = None

    @property
    def trace(self) -> Trace:
        return self._trace

    @property
    def trace_id(self) -> str:
        return self._trace.trace_id

    @property
    def root(self) -> Span:
        return self._trace.root

    def __enter__(self) -> "_TraceContext":
        self._token = _current.set(
            _ActiveTrace(self._trace, self._trace.root)
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._trace.root.tags.setdefault("error", exc_type.__name__)
        self._trace.root.finish()
        if self._token is not None:
            _current.reset(self._token)
        self._tracer._record(self._trace)


class _SpanContext:
    """Context manager for a child span; nests via the contextvar."""

    __slots__ = ("_span", "_active", "_token")

    def __init__(self, span: Span, active: _ActiveTrace) -> None:
        self._span = span
        self._active = active
        self._token: Optional[contextvars.Token] = None

    def set_tag(self, key: str, value: Any) -> None:
        self._span.set_tag(key, value)

    def finish(self) -> None:
        self._span.finish()

    def __enter__(self) -> "_SpanContext":
        self._token = _current.set(
            _ActiveTrace(self._active.trace, self._span)
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.tags.setdefault("error", exc_type.__name__)
        self._span.finish()
        if self._token is not None:
            _current.reset(self._token)


class Tracer:
    """Opens spans against the context-active trace; keeps a ring of
    finished traces for ``GET /debug/traces``."""

    def __init__(self, max_traces: int = 256) -> None:
        self._ring: collections.deque = collections.deque(
            maxlen=max_traces
        )
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------
    def trace(self, name: str, **tags) -> _TraceContext:
        """Open a root span / new trace (the front calls this per query)."""
        trace_id = _new_id()
        root = Span(trace_id, name, parent_id=None, tags=tags or None)
        return _TraceContext(self, Trace(trace_id, root))

    def span(self, name: str, **tags):
        """Open a child span under the active trace, or a shared no-op
        span when no trace is active (the common library-use case)."""
        active = _current.get()
        if active is None:
            return _NULL_SPAN
        span = Span(
            active.trace.trace_id,
            name,
            parent_id=active.span.span_id,
            tags=tags or None,
        )
        active.trace.add(span)
        return _SpanContext(span, active)

    def annotate(self, **tags) -> None:
        """Tag the innermost open span of the active trace (no-op
        otherwise). Lets deep layers report facts — answer-cache hit,
        route decision — without owning a span."""
        active = _current.get()
        if active is not None:
            active.span.tags.update(tags)

    # ------------------------------------------------------------------
    # cross-process grafting
    # ------------------------------------------------------------------
    def remote_span(
        self, trace_id: Optional[str], name: str, **tags
    ) -> Span:
        """A standalone span recorded in a *worker* process against the
        front's trace id. Always real (never null) so the worker can
        return it over the pipe; tagged with the worker ``pid`` so
        tests and humans can see it crossed a process boundary."""
        span = Span(trace_id or "-", name, parent_id=None, tags=tags)
        span.set_tag("pid", os.getpid())
        return span

    def graft(self, span_dicts: List[Dict[str, Any]]) -> None:
        """Attach worker-returned span dicts to the active trace.

        Dedupes by span_id — the in-process shard client lives in the
        front's process, so its spans may arrive twice."""
        active = _current.get()
        if active is None or not span_dicts:
            return
        root_id = active.trace.root.span_id
        for d in span_dicts:
            if not isinstance(d, dict):
                continue
            d = dict(d)
            d["trace_id"] = active.trace.trace_id
            d.setdefault("parent_id", root_id)
            if d["parent_id"] is None:
                d["parent_id"] = root_id
            active.trace.add_remote(d)

    # ------------------------------------------------------------------
    # ring access
    # ------------------------------------------------------------------
    def _record(self, trace: Trace) -> None:
        with self._lock:
            self._ring.append(trace)

    def recent_traces(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Most-recent-first list of finished traces as dicts."""
        with self._lock:
            traces = list(self._ring)
        return [t.to_dict() for t in reversed(traces[-limit:])]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


_DEFAULT = Tracer()


def default_tracer() -> Tracer:
    """The process-wide tracer the serving layers share."""
    return _DEFAULT
