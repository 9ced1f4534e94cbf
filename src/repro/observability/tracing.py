"""Structured event tracing for the scan pipeline.

An :class:`EventTracer` records span-style events — ``scan.stage``,
``quic.handshake``, ``tls.handshake`` — with free-form tags (outcome
classes, error codes, record counts).  Traces are an *operator*
artefact: they carry wall-clock durations and are therefore never part
of the deterministic ``metrics.json`` (see
:mod:`repro.observability.metrics` for the deterministic layer).

Sampling is deterministic, not random: the decision for the *n*-th
event of a given name hashes ``"name:n"`` (CRC-32) against the sample
rate, so the same tracer configuration over the same event sequence
always keeps the same subset — re-running a campaign with tracing
enabled yields comparable traces, and tests can assert on sampling
exactly.  A rate of ``0.0`` (the default) short-circuits to a shared
no-op span, keeping disabled tracing free on the hot path.

Traces dump as JSONL (one event object per line) via
:func:`EventTracer.dump_jsonl`; the ``repro report --trace`` flag
wires this up end to end.  In parallel runs each chunk task traces
into a fresh tracer and the parent appends the drained events in
chunk order.
"""

from __future__ import annotations

import json
import time
import zlib
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, List, Optional

__all__ = ["EventTracer", "get_tracer", "set_tracer", "use_tracer"]

_HASH_SPACE = float(2**32)


class _NullSpan:
    """The no-op span returned for unsampled (or disabled) events."""

    __slots__ = ()

    def tag(self, **_tags) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A sampled span: tags accumulate, duration closes on exit."""

    __slots__ = ("_tracer", "name", "seq", "tags", "_start")

    def __init__(self, tracer: "EventTracer", name: str, seq: int, tags: Dict):
        self._tracer = tracer
        self.name = name
        self.seq = seq
        self.tags = tags
        self._start = time.perf_counter()

    def tag(self, **tags) -> None:
        self.tags.update(tags)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        self._tracer._record(
            self.name,
            self.seq,
            self.tags,
            wall_ms=round((time.perf_counter() - self._start) * 1000.0, 3),
        )
        return False


class EventTracer:
    """A sampling, bounded, JSONL-dumpable event buffer."""

    def __init__(self, sample_rate: float = 0.0, max_events: int = 100_000):
        self.sample_rate = float(sample_rate)
        self.max_events = max_events
        self.dropped = 0
        self._events: List[Dict] = []
        self._sequences: Dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    @property
    def events(self) -> List[Dict]:
        return self._events

    def _sampled(self, name: str) -> Optional[int]:
        """The event's per-name sequence number if kept, else None."""
        seq = self._sequences.get(name, 0)
        self._sequences[name] = seq + 1
        if self.sample_rate >= 1.0:
            return seq
        digest = zlib.crc32(f"{name}:{seq}".encode())
        return seq if digest / _HASH_SPACE < self.sample_rate else None

    def _record(self, name: str, seq: int, tags: Dict, wall_ms: Optional[float] = None) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        event: Dict = {"name": name, "seq": seq}
        if wall_ms is not None:
            event["wall_ms"] = wall_ms
        if tags:
            event["tags"] = tags
        self._events.append(event)

    # -- recording API -------------------------------------------------------
    def span(self, name: str, **tags):
        """A context manager timing one operation; tags may be added inside."""
        if not self.enabled:
            return _NULL_SPAN
        seq = self._sampled(name)
        if seq is None:
            return _NULL_SPAN
        return _Span(self, name, seq, dict(tags))

    def event(self, name: str, **tags) -> None:
        """A point event (no duration)."""
        if not self.enabled:
            return
        seq = self._sampled(name)
        if seq is not None:
            self._record(name, seq, dict(tags))

    # -- buffer management ---------------------------------------------------
    def drain(self) -> List[Dict]:
        """Remove and return the buffered events (worker → parent hand-off)."""
        events, self._events = self._events, []
        return events

    def extend(self, events: List[Dict]) -> None:
        """Append already-recorded events (parent side of the hand-off)."""
        room = self.max_events - len(self._events)
        if room < len(events):
            self.dropped += len(events) - max(0, room)
        self._events.extend(events[: max(0, room)])

    def dump_jsonl(self, path) -> int:
        """Write one JSON object per line; returns the event count."""
        with open(path, "w", encoding="utf-8") as stream:
            for event in self._events:
                stream.write(json.dumps(event, sort_keys=True) + "\n")
        return len(self._events)


# -- current-tracer context ----------------------------------------------------

_DEFAULT_TRACER = EventTracer(0.0)
# A ContextVar for the same reason as the metrics registry: concurrent
# fleet campaign threads each need their own current tracer.
_CURRENT: "ContextVar[EventTracer]" = ContextVar(
    "repro_tracer", default=_DEFAULT_TRACER
)


def get_tracer() -> EventTracer:
    """The tracer instrumented code records into right now."""
    return _CURRENT.get()


def set_tracer(tracer: EventTracer) -> EventTracer:
    """Install ``tracer`` as current; returns the previous one."""
    previous = _CURRENT.get()
    _CURRENT.set(tracer)
    return previous


@contextmanager
def use_tracer(tracer: EventTracer):
    """Scoped :func:`set_tracer`."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
