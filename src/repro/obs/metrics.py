"""Lock-safe metrics registry: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a named bag of instruments.  Instruments
are created idempotently (``registry.counter("x", ...)`` twice returns
the same object; re-registering under a different type raises) and may
be labeled: ``counter.labels(event="retry").inc()`` keeps one value per
label combination.  ``snapshot()`` returns a plain JSON-able dict and
``render_text()`` emits Prometheus text exposition, so the same
registry backs both the wire-level ``MetricsReply`` snapshot and the
scrape endpoint.

Two usage modes:

* **Per-component registries** -- the gateway and each site server own
  one (``Gateway.registry`` / ``SiteServer.registry``) that is always
  on; recording costs one dict update under a lock, negligible next to
  a network round trip.
* **Process-global registry** -- in-process components on the query hot
  path (resident executors, stream maintainer, sessions) record *only*
  when :func:`install` has been called, guarded by a single module
  attribute check (``if _REGISTRY is not None``) so the uninstrumented
  hot path stays within the ``bench_hotpath.py`` regression gate.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "histogram_percentiles",
    "install",
    "installed",
    "uninstall",
]

# Seconds-scale latency buckets: sub-millisecond site kernels up to
# multi-second cold batches.  Fixed at registration so snapshots from
# different processes merge cleanly.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
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
)


def _label_key(labelnames: Sequence[str], labels: Mapping[str, str]) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared labelnames {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Instrument:
    """Common shell: name, help text, label plumbing, shared lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str], lock: threading.Lock):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._values: Dict[Tuple[str, ...], object] = {}

    def _child(self, key: Tuple[str, ...]):
        raise NotImplementedError

    def labels(self, **labels: str):
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._values.get(key)
            if child is None:
                child = self._child(key)
                self._values[key] = child
        return child

    def _bare(self):
        if self.labelnames:
            raise ValueError(f"metric {self.name!r} is labeled; use .labels(...)")
        return self.labels()

    def _snapshot_values(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for key, child in sorted(self._values.items()):
            label_str = ",".join(
                f"{name}={value}" for name, value in zip(self.labelnames, key)
            )
            out[label_str] = child._snapshot()  # type: ignore[attr-defined]
        return out


class _CounterChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def _snapshot(self) -> float:
        return self.value


class Counter(_Instrument):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def _child(self, key):
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._bare().inc(amount)


class _GaugeChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def _snapshot(self) -> float:
        return self.value


class Gauge(_Instrument):
    """A value that goes up and down (set / inc / dec), optionally labelled."""

    kind = "gauge"

    def _child(self, key):
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._bare().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._bare().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._bare().dec(amount)


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock, buckets: Tuple[float, ...]):
        self._lock = lock
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            idx = bisect.bisect_left(self.buckets, value)
            if idx < len(self.counts):
                self.counts[idx] += 1

    def _snapshot(self) -> Dict[str, object]:
        # Cumulative bucket counts, Prometheus-style; the final +Inf
        # bucket is implied by "count".
        cumulative = []
        running = 0
        for le, n in zip(self.buckets, self.counts):
            running += n
            cumulative.append([le, running])
        return {"buckets": cumulative, "sum": self.sum, "count": self.count}


class Histogram(_Instrument):
    """Observations counted into fixed cumulative buckets, plus sum and count."""

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock, buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames, lock)
        ordered = tuple(sorted(float(b) for b in buckets))
        if not ordered:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = ordered

    def _child(self, key):
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._bare().observe(value)


def histogram_percentiles(
    snapshot_value: Mapping[str, object], quantiles: Iterable[float]
) -> Dict[float, Optional[float]]:
    """Estimate quantiles from one histogram snapshot value.

    ``snapshot_value`` is the ``{"buckets": [[le, cumulative], ...],
    "sum": s, "count": n}`` dict produced by :meth:`MetricsRegistry.snapshot`.
    Uses linear interpolation within the containing bucket (lower edge 0
    for the first); observations beyond the last bucket clamp to its
    upper edge.  Returns None per quantile when the histogram is empty.
    """
    buckets = list(snapshot_value.get("buckets", ()))  # type: ignore[union-attr]
    count = int(snapshot_value.get("count", 0))  # type: ignore[union-attr]
    out: Dict[float, Optional[float]] = {}
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} out of [0, 1]")
        if count == 0 or not buckets:
            out[q] = None
            continue
        rank = q * count
        result = float(buckets[-1][0])
        prev_le, prev_cum = 0.0, 0
        for le, cum in buckets:
            if cum >= rank:
                if cum == prev_cum:
                    result = float(le)
                else:
                    frac = (rank - prev_cum) / (cum - prev_cum)
                    result = prev_le + (float(le) - prev_le) * max(frac, 0.0)
                break
            prev_le, prev_cum = float(le), cum
        out[q] = result
    return out


class MetricsRegistry:
    """A named, lock-safe collection of instruments."""

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}
        #: Callables run before every snapshot, for instruments whose
        #: truth is kept elsewhere and read in at scrape time.
        self.collectors: list = []

    def _register(self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, labelnames, self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def snapshot(self) -> Dict[str, object]:
        """Plain-container snapshot, safe for the restricted unpickler."""
        for collect in self.collectors:
            collect()
        with self._lock:
            instruments = list(self._instruments.values())
        out: Dict[str, object] = {}
        for instrument in instruments:
            out[instrument.name] = {
                "type": instrument.kind,
                "help": instrument.help,
                "labelnames": list(instrument.labelnames),
                "values": instrument._snapshot_values(),
            }
        return out

    def render_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        return render_snapshot_text(self.snapshot())


def _format_labels(labelnames: Sequence[str], label_str: str, extra: str = "") -> str:
    parts: List[str] = []
    if label_str:
        values = label_str.split(",")
        for pair in values:
            name, _, value = pair.partition("=")
            parts.append(f'{name}="{value}"')
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_snapshot_text(snapshot: Mapping[str, object]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text."""
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["type"]  # type: ignore[index]
        help_text = entry.get("help", "")  # type: ignore[union-attr]
        labelnames = entry.get("labelnames", [])  # type: ignore[union-attr]
        values = entry.get("values", {})  # type: ignore[union-attr]
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for label_str in sorted(values):
            value = values[label_str]
            if kind == "histogram":
                for le, cum in value["buckets"]:
                    labels = _format_labels(labelnames, label_str, f'le="{le}"')
                    lines.append(f"{name}_bucket{labels} {cum}")
                inf_labels = _format_labels(labelnames, label_str, 'le="+Inf"')
                lines.append(f"{name}_bucket{inf_labels} {value['count']}")
                labels = _format_labels(labelnames, label_str)
                lines.append(f"{name}_sum{labels} {value['sum']}")
                lines.append(f"{name}_count{labels} {value['count']}")
            else:
                labels = _format_labels(labelnames, label_str)
                lines.append(f"{name}{labels} {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Optional process-global registry.  Hot-path components guard every
# record with ``if _REGISTRY is not None`` -- one attribute load when
# nobody is collecting.

_REGISTRY: Optional[MetricsRegistry] = None


def install(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (or create and install) the process-global registry."""
    global _REGISTRY
    if registry is None:
        registry = MetricsRegistry(namespace="process")
    _REGISTRY = registry
    return registry


def uninstall() -> None:
    """Remove the process-global registry (hot-path records become no-ops)."""
    global _REGISTRY
    _REGISTRY = None


def installed() -> Optional[MetricsRegistry]:
    """The process-global registry, or None when nobody is collecting."""
    return _REGISTRY
