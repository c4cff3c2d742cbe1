"""Process-local metrics: counters, gauges, histograms, Prometheus text.

The fabric needed numbers before it needed dashboards, so this module
is deliberately dependency-free: a :class:`MetricsRegistry` holds
named metrics, every mutation is a dict update under one lock (cheap
enough for per-frame and per-request counters, atomic under the
``ThreadingHTTPServer`` / asyncio threading mix the fabric runs on),
and :meth:`MetricsRegistry.render` emits the Prometheus text
exposition format (``text/plain; version=0.0.4``) that ``GET
/metrics`` serves.

Conventions (matching the Prometheus client ecosystem):

* counters end in ``_total`` and only go up;
* histograms expose cumulative ``_bucket{le="..."}`` series plus
  ``_sum`` and ``_count``;
* label sets are fixed per metric at registration; a metric registered
  twice with the same name returns the existing instance, so module-
  level ``counter(...)`` declarations are safe to re-import.

The module-level default registry (:func:`default_registry`) is what
the instrumented seams -- service, protocol, runner, batch engine,
store -- share within one process.  Registries are process local by
design: a forked sweep worker counts in its own copy, and
cross-process aggregation happens where it belongs, in the ledger
(replayed by the service's ``/metrics`` gauges) and the span JSONL.
The coordinator and the worker count nothing here: every fact they
know is a ledger record or part of ``run_worker``'s return value.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "default_registry",
    "gauge",
    "histogram",
    "render",
    "timed",
]

#: Fixed latency bucket layout (seconds).  Spans request handling
#: (sub-millisecond stats) through sweep points (seconds); fixed so
#: every process's histograms aggregate cleanly.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers bare, floats as repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_key(
    labels: Sequence[str], supplied: Mapping[str, str]
) -> tuple[str, ...]:
    if set(supplied) != set(labels):
        raise ValueError(
            f"metric labels {sorted(labels)} != supplied "
            f"{sorted(supplied)}"
        )
    return tuple(str(supplied[name]) for name in labels)


def _render_labels(
    labels: Sequence[str], values: Sequence[str], extra: str | None = None
) -> str:
    parts = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labels, values)
    ]
    if extra is not None:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Shared shape: name, help, fixed label names, a samples dict."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        lock: threading.Lock,
    ) -> None:
        if not _NAME_OK.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self.labels = tuple(labels)
        self._lock = lock
        self._samples: dict[tuple[str, ...], Any] = {}

    def _render_header(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """Monotonically increasing count (``..._total``)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = _label_key(self.labels, labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current count for one label set (0 if never incremented)."""
        key = _label_key(self.labels, labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))

    def render(self) -> list[str]:
        lines = self._render_header()
        with self._lock:
            items = sorted(self._samples.items())
        for values, count in items:
            lines.append(
                f"{self.name}{_render_labels(self.labels, values)} "
                f"{_format_value(count)}"
            )
        return lines


class Gauge(_Metric):
    """A value that goes up and down (queue depths, sizes, stamps)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(self.labels, labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(self.labels, labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = _label_key(self.labels, labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))

    def render(self) -> list[str]:
        lines = self._render_header()
        with self._lock:
            items = sorted(self._samples.items())
        for values, value in items:
            lines.append(
                f"{self.name}{_render_labels(self.labels, values)} "
                f"{_format_value(value)}"
            )
        return lines


class Histogram(_Metric):
    """Fixed-bucket distribution (cumulative ``le`` buckets + sum/count).

    The bucket layout is fixed at registration so every observation is
    one bisect + three dict updates -- no allocation on the hot path.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labels, lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.labels, labels)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                sample = {
                    "buckets": [0] * len(self.buckets),
                    "sum": 0.0,
                    "count": 0,
                }
                self._samples[key] = sample
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    sample["buckets"][index] += 1
            sample["sum"] += float(value)
            sample["count"] += 1

    @contextmanager
    def time(self, **labels: str) -> Iterator[None]:
        """Observe the wall time of a ``with`` block."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - started, **labels)

    def count(self, **labels: str) -> int:
        """Observations so far for one label set."""
        key = _label_key(self.labels, labels)
        with self._lock:
            sample = self._samples.get(key)
            return int(sample["count"]) if sample else 0

    def render(self) -> list[str]:
        lines = self._render_header()
        with self._lock:
            items = sorted(
                (key, dict(s, buckets=list(s["buckets"])))
                for key, s in self._samples.items()
            )
        for values, sample in items:
            for bound, cumulative in zip(self.buckets, sample["buckets"]):
                extra = 'le="%g"' % bound
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(self.labels, values, extra)}"
                    f" {cumulative}"
                )
            inf = 'le="+Inf"'
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(self.labels, values, inf)}"
                f" {sample['count']}"
            )
            suffix = _render_labels(self.labels, values)
            lines.append(
                f"{self.name}_sum{suffix} {_format_value(sample['sum'])}"
            )
            lines.append(f"{self.name}_count{suffix} {sample['count']}")
        return lines


class MetricsRegistry:
    """Named metrics + the text encoder; one per process by default."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, name: str, factory) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> Counter:
        metric = self._register(
            name,
            lambda: Counter(name, help_text, labels, threading.Lock()),
        )
        if not isinstance(metric, Counter):
            raise TypeError(f"{name} is already a {metric.kind}")
        return metric

    def gauge(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> Gauge:
        metric = self._register(
            name,
            lambda: Gauge(name, help_text, labels, threading.Lock()),
        )
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name} is already a {metric.kind}")
        return metric

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._register(
            name,
            lambda: Histogram(
                name, help_text, labels, threading.Lock(), buckets
            ),
        )
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name} is already a {metric.kind}")
        return metric

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented seam shares."""
    return _DEFAULT


def counter(
    name: str, help_text: str, labels: Sequence[str] = ()
) -> Counter:
    """Register (or fetch) a counter on the default registry."""
    return _DEFAULT.counter(name, help_text, labels)


def gauge(name: str, help_text: str, labels: Sequence[str] = ()) -> Gauge:
    """Register (or fetch) a gauge on the default registry."""
    return _DEFAULT.gauge(name, help_text, labels)


def histogram(
    name: str,
    help_text: str,
    labels: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    """Register (or fetch) a histogram on the default registry."""
    return _DEFAULT.histogram(name, help_text, labels, buckets)


def render() -> str:
    """Render the default registry (what ``GET /metrics`` serves)."""
    return _DEFAULT.render()


@contextmanager
def timed(
    seconds: Counter, calls: Counter | None = None, **labels: str
) -> Iterator[None]:
    """Accumulate a block's wall time into counters (phase timers).

    The batch engine uses counter pairs (``..._seconds_total`` +
    ``..._calls_total``) instead of histograms on its per-chunk
    phases: two adds per chunk is cheap enough to leave on always,
    which is the whole point of the 3% overhead gate.
    """
    started = time.perf_counter()
    try:
        yield
    finally:
        seconds.inc(time.perf_counter() - started, **labels)
        if calls is not None:
            calls.inc(**labels)
