"""Dependency-free metrics primitives for the scan pipeline.

A :class:`MetricsRegistry` holds three metric kinds behind
Prometheus-style string keys (``name{label=value,...}``):

- :class:`Counter` — monotonically increasing integers (probes sent,
  handshake outcomes, cache hits),
- :class:`Gauge` — last-written values (stage target counts, wall
  times); gauges may be marked *volatile* when they carry wall-clock
  or host-dependent readings that must never enter the deterministic
  ``metrics.json`` artefact,
- :class:`Histogram` — fixed-bucket distributions (handshake RTTs,
  datagrams per connection).

Two design constraints shape the implementation:

1. **Hot-path cost.**  A counter increment is one integer addition on
   a pre-resolved handle; scanners resolve their handles once per
   stage (or batch per-loop tallies locally and flush at the end), so
   the stateless sweeps pay near zero per probe.
2. **Mergeable snapshots.**  The parallel scheduler runs scan stages
   in worker processes; each chunk task snapshots its local registry
   and the parent merges the snapshots in chunk order.
   Merging is associative and commutative for every kind — counters
   and histogram buckets are integer sums, histogram value sums are
   accumulated in integer nanos (float addition order would otherwise
   leak into the bytes of ``metrics.json``), and min/max are
   order-independent — so a parallel campaign produces *byte-identical*
   merged metrics to a serial run of the same configuration
   (``tests/test_observability.py``).

The module-level *current registry* (:func:`get_metrics` /
:func:`use_metrics`) lets deeply nested code record metrics without
threading a registry through every constructor; the campaign runner
installs its own registry around each stage, and worker processes
install a fresh one per task.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "metric_key",
    "parse_metric_key",
    "get_metrics",
    "set_metrics",
    "use_metrics",
]

# Histogram value sums are accumulated in integer nanos so that merges
# are exact regardless of observation order.
_NANOS = 1_000_000_000

# Upper bucket bounds (seconds) for handshake/stage durations; the
# final implicit bucket is +inf.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

# Upper bucket bounds for small-integer distributions (datagrams or
# packets per connection).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64)


def metric_key(name: str, labels: Optional[Dict[str, object]] = None) -> str:
    """Canonical string key: ``name`` or ``name{k=v,...}``, labels sorted."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`metric_key` (label values come back as strings)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


class Counter:
    """A monotonically increasing integer metric.

    Counters may be marked *volatile* when they measure host-dependent
    transport behaviour (bytes pickled to workers, broadcast cache
    hits) that varies with worker count and so must stay out of the
    deterministic ``metrics.json`` artefact.
    """

    kind = "counter"
    __slots__ = ("key", "value", "volatile")

    def __init__(self, key: str, volatile: bool = False):
        self.key = key
        self.value = 0
        self.volatile = volatile

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins value; merges take the maximum."""

    kind = "gauge"
    __slots__ = ("key", "value", "volatile")

    def __init__(self, key: str, volatile: bool = False):
        self.key = key
        self.value: Optional[object] = None
        self.volatile = volatile

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket distribution with exact (integer) merge state."""

    kind = "histogram"
    __slots__ = ("key", "bounds", "counts", "count", "sum_nanos", "min", "max")

    def __init__(self, key: str, bounds: Sequence[float]):
        self.key = key
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds!r}")
        # counts[i] counts values <= bounds[i]; the final slot is +inf.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum_nanos = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum_nanos += round(value * _NANOS)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def sum(self) -> float:
        """The (nanos-quantized) sum of observed values."""
        return self.sum_nanos / _NANOS

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None


class MetricsRegistry:
    """A flat collection of metrics with mergeable snapshots."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def clear(self) -> None:
        self._metrics.clear()

    # -- handle accessors (get-or-create) -----------------------------------
    def _resolve(self, key: str, kind: str, factory):
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        elif metric.kind != kind:
            raise TypeError(f"metric {key!r} is a {metric.kind}, not a {kind}")
        return metric

    def counter(self, name: str, volatile: bool = False, **labels) -> Counter:
        key = metric_key(name, labels)
        return self._resolve(key, "counter", lambda: Counter(key, volatile=volatile))

    def gauge(self, name: str, volatile: bool = False, **labels) -> Gauge:
        key = metric_key(name, labels)
        return self._resolve(key, "gauge", lambda: Gauge(key, volatile=volatile))

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS, **labels
    ) -> Histogram:
        key = metric_key(name, labels)
        metric = self._resolve(key, "histogram", lambda: Histogram(key, buckets))
        if metric.bounds != tuple(buckets):
            raise ValueError(f"histogram {key!r} re-registered with different buckets")
        return metric

    def get(self, key: str):
        """Look up a metric by its canonical string key (or None)."""
        return self._metrics.get(key)

    def counter_value(self, name: str, **labels) -> int:
        metric = self._metrics.get(metric_key(name, labels))
        return metric.value if metric is not None and metric.kind == "counter" else 0

    # -- snapshots -----------------------------------------------------------
    def snapshot(self, include_volatile: bool = True) -> Dict:
        """A plain-dict, JSON-able view of every metric (keys sorted).

        ``include_volatile=False`` drops metrics flagged volatile —
        the deterministic view written to ``metrics.json``.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, Dict] = {}
        volatile: List[str] = []
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if getattr(metric, "volatile", False):
                if not include_volatile:
                    continue
                volatile.append(key)
            if metric.kind == "counter":
                counters[key] = metric.value
            elif metric.kind == "gauge":
                gauges[key] = metric.value
            else:
                histograms[key] = {
                    "buckets": list(metric.bounds),
                    "counts": list(metric.counts),
                    "count": metric.count,
                    "sum_nanos": metric.sum_nanos,
                    "min": metric.min,
                    "max": metric.max,
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "volatile": volatile,
        }

    def merge_snapshot(self, snapshot: Dict) -> None:
        """Fold a snapshot into this registry (associative, commutative).

        Counters and histogram state add; gauges keep the maximum of
        both sides (chunk workers are expected to leave gauges to the
        parent, so this only matters for ties).
        """
        volatile = set(snapshot.get("volatile", ()))
        for key, value in snapshot.get("counters", {}).items():
            name, labels = parse_metric_key(key)
            self.counter(name, volatile=key in volatile, **labels).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            name, labels = parse_metric_key(key)
            gauge = self.gauge(name, volatile=key in volatile, **labels)
            if gauge.value is None or (value is not None and value > gauge.value):
                gauge.set(value)
        for key, state in snapshot.get("histograms", {}).items():
            name, labels = parse_metric_key(key)
            histogram = self.histogram(name, buckets=state["buckets"], **labels)
            histogram.counts = [
                mine + theirs for mine, theirs in zip(histogram.counts, state["counts"])
            ]
            histogram.count += state["count"]
            histogram.sum_nanos += state["sum_nanos"]
            for side, pick in (("min", min), ("max", max)):
                theirs = state[side]
                if theirs is not None:
                    mine = getattr(histogram, side)
                    setattr(histogram, side, theirs if mine is None else pick(mine, theirs))


# -- current-registry context -------------------------------------------------

_DEFAULT_REGISTRY = MetricsRegistry()
# A ContextVar, not a module global: the fleet scheduler runs several
# campaigns' parent-side stages on concurrent threads, and each thread
# must see only its own campaign's registry.
_CURRENT: "ContextVar[MetricsRegistry]" = ContextVar(
    "repro_metrics", default=_DEFAULT_REGISTRY
)


def get_metrics() -> MetricsRegistry:
    """The registry instrumented code records into right now."""
    return _CURRENT.get()


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as current; returns the previous one."""
    previous = _CURRENT.get()
    _CURRENT.set(registry)
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry):
    """Scoped :func:`set_metrics` (the campaign wraps each stage in this)."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
