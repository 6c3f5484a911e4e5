"""Process-wide metrics registry: counters, gauges, histograms.

Instruments are created lazily through the registry and keyed by a
Prometheus-style series name — ``wire_bytes{link=cross,scheme=3lc}`` —
with labels sorted so the same logical series always lands on the same
instrument regardless of call-site keyword order.

Nothing on a hot path holds a registry: the engine's series are built
after training (:func:`~repro.telemetry.training.trace_training`), and
the simulators gate their tracing on a ``None`` tracer.
"""

from __future__ import annotations

from bisect import bisect_right

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "series_key",
]


def series_key(name: str, labels: dict) -> str:
    """``name{k=v,...}`` with labels sorted by key; bare name if none."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing total (bytes, seconds, messages)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        self.value += amount


class Gauge:
    """Last-written value (learning rate, loss, link utilization)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Power-of-two buckets spanning microseconds to ~hundreds of units —
#: wide enough for seconds-valued codec costs and integer staleness alike.
BOUNDS = tuple(2.0**k for k in range(-20, 11))


class Histogram:
    """Distribution sketch: count/sum/min/max plus bucketed counts."""

    __slots__ = ("bucket_counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        # One extra overflow bucket for values above the last bound.
        self.bucket_counts = [0] * (len(BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.bucket_counts[bisect_right(BOUNDS, value)] += 1

    def snapshot(self) -> dict:
        """JSON-ready stats; only occupied buckets are listed."""
        labels = [f"le={b:g}" for b in BOUNDS] + [f"gt={BOUNDS[-1]:g}"]
        buckets = {
            label: occupancy
            for label, occupancy in zip(labels, self.bucket_counts)
            if occupancy
        }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": (self.total / self.count) if self.count else None,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Get-or-create instrument store keyed by labeled series name."""

    def __init__(self) -> None:
        self._series: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, key: str):
        instrument = self._series.get(key)
        if instrument is None:
            instrument = self._series[key] = cls()
        elif type(instrument) is not cls:
            raise TypeError(
                f"series {key!r} is a {type(instrument).__name__}, "
                f"requested as {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, series_key(name, labels))

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, series_key(name, labels))

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, series_key(name, labels))

    def snapshot(self) -> dict:
        """All series, grouped by kind, as plain JSON-ready values."""
        counters, gauges, histograms = {}, {}, {}
        for key, instrument in sorted(self._series.items()):
            if isinstance(instrument, Histogram):
                histograms[key] = instrument.snapshot()
            elif isinstance(instrument, Gauge):
                gauges[key] = instrument.value
            else:
                counters[key] = instrument.value
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
