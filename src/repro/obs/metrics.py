"""Deterministic metrics: counters, gauges, bucketed histograms.

One :class:`MetricsRegistry` serves both sides of the toolkit:

* **sim-side** — cycle-windowed series derived from a telemetry sink
  (:func:`timeseries_metrics`) and record-derived outcome statistics
  (:func:`record_metrics`), which are pure functions of the simulated
  machine and therefore reproducible bit-for-bit;
* **host-side** — wall-clock timings from the execution layer
  (:class:`~repro.exec.runner.JobRunner` queue-wait / run /
  cache-lookup, pool occupancy), which are real measurements and vary
  run to run.

The two kinds coexist in one registry but are kept distinguishable:
host-side timing metrics are registered with ``volatile=True`` and the
exporters can exclude them (``deterministic=True``), so the remaining
export is **byte-identical** for the same batch regardless of
``--jobs`` fan-out, caching, or host speed — asserted by
``tests/exec/test_metrics_determinism.py``.

Determinism rules baked in:

* histograms use *fixed, explicit bucket boundaries* chosen at
  registration (never adapted to the data), so bucket counts depend
  only on the samples;
* every exporter emits keys in sorted order with a stable float
  rendering (``repr``), never wall-clock timestamps;
* sample-order independence: only order-free aggregates (count, sum,
  min/max, exact percentiles, cumulative bucket counts) are exported,
  so a parallel batch that completes in a different order exports the
  same bytes.

Exporters: :meth:`MetricsRegistry.to_dict` / :meth:`to_json` (machine
consumption, ``BENCH_*.json`` artifacts) and :meth:`to_prometheus`
(the ``text/plain; version=0.0.4`` exposition format, ready for the
simulation-as-a-service scrape endpoint in ROADMAP item 2).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: Default boundaries for wall-clock second histograms (Prometheus'
#: conventional latency ladder, seconds).
SECONDS_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   30.0, 60.0)

#: Default boundaries for simulated-cycle histograms (powers of four).
CYCLES_BUCKETS = tuple(4 ** k for k in range(2, 16))


def _fmt(value: Union[int, float]) -> str:
    """Stable text rendering: ints verbatim, floats via ``repr``."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _sanitize(name: str) -> str:
    """Prometheus metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    out = "".join(c if c.isalnum() or c in "_:" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "help", "volatile", "value")

    def __init__(self, name: str, help: str = "",
                 volatile: bool = False) -> None:
        self.name = name
        self.help = help
        self.volatile = volatile
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-written point-in-time value."""

    __slots__ = ("name", "help", "volatile", "value")

    def __init__(self, name: str, help: str = "",
                 volatile: bool = False) -> None:
        self.name = name
        self.help = help
        self.volatile = volatile
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Raw samples with exact statistics and fixed export buckets.

    Samples are kept verbatim, so count/sum/min/max/mean and nearest-rank
    percentiles are exact and two histograms :meth:`merge` losslessly.
    The exporters also emit *fixed-boundary cumulative bucket counts*:
    boundaries are chosen at registration and never adapt to the data,
    so the exported shape is reproducible.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "samples",
                 "help", "volatile", "buckets", "bucket_counts")

    def __init__(self, name: str, buckets: Sequence[float] = SECONDS_BUCKETS,
                 help: str = "", volatile: bool = False) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.samples: List[float] = []
        self.help = help
        self.volatile = volatile
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name!r} needs >= 1 bucket bound")
        # One slot per finite boundary plus the implicit +Inf overflow.
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)

    def record(self, sample) -> None:
        self.count += 1
        self.total += sample
        self.samples.append(sample)
        if self.minimum is None or sample < self.minimum:
            self.minimum = sample
        if self.maximum is None or sample > self.maximum:
            self.maximum = sample
        for i, bound in enumerate(self.buckets):
            if sample <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> Optional[float]:
        """Exact nearest-rank percentile (``p`` in [0, 100]) over the
        recorded samples; ``None`` when nothing was recorded."""
        return self.percentiles((p,))[f"p{p:g}"]

    def percentiles(self, ps: Sequence[float] = (50, 95, 99)
                    ) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` (exact, sorted once)."""
        if not self.samples:
            return {f"p{p:g}": None for p in ps}
        ordered = sorted(self.samples)
        out: Dict[str, Optional[float]] = {}
        for p in ps:
            rank = min(len(ordered),
                       max(1, math.ceil(p / 100.0 * len(ordered))))
            out[f"p{p:g}"] = float(ordered[rank - 1])
        return out

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(+Inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    def merge(self, other: "Histogram") -> None:
        """Merge by replaying samples (lossless), so bucket counts stay
        consistent even when ``other`` used different boundaries."""
        for sample in other.samples:
            self.record(sample)

    def summary(self) -> Dict[str, object]:
        """JSON-safe aggregate view (order-independent)."""
        out: Dict[str, object] = {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }
        out.update(self.percentiles((50, 95, 99)))
        out["buckets"] = {
            _fmt(bound): n for bound, n in self.cumulative_buckets()
        }
        return out

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}: n={self.count}, mean={self.mean:.2f}, "
            f"min={self.minimum}, max={self.maximum})"
        )


class MetricsRegistry:
    """Named collection of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` get-or-create — instruments
    are cheap to look up from hot paths and re-registration returns the
    existing instrument (its options win; later calls may omit them).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- registration ---------------------------------------------------
    def counter(self, name: str, help: str = "",
                volatile: bool = False) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name, help, volatile)
        return self.counters[name]

    def gauge(self, name: str, help: str = "",
              volatile: bool = False) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name, help, volatile)
        return self.gauges[name]

    def histogram(self, name: str, buckets: Sequence[float] = SECONDS_BUCKETS,
                  help: str = "", volatile: bool = False) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name, buckets, help, volatile)
        return self.histograms[name]

    # -- aggregation ----------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters add, gauges last-write,
        histograms merge sample-by-sample."""
        for name, counter in other.counters.items():
            self.counter(name, counter.help, counter.volatile).inc(
                counter.value)
        for name, gauge in other.gauges.items():
            self.gauge(name, gauge.help, gauge.volatile).set(gauge.value)
        for name, hist in other.histograms.items():
            self.histogram(name, hist.buckets, hist.help,
                           hist.volatile).merge(hist)

    # -- exporters ------------------------------------------------------
    def to_dict(self, deterministic: bool = False) -> Dict[str, dict]:
        """Nested JSON-safe dict, keys sorted; ``deterministic=True``
        drops every metric registered ``volatile`` (wall-clock)."""

        def keep(metric) -> bool:
            return not (deterministic and metric.volatile)

        return {
            "counters": {n: c.value
                         for n, c in sorted(self.counters.items())
                         if keep(c)},
            "gauges": {n: g.value
                       for n, g in sorted(self.gauges.items())
                       if keep(g)},
            "histograms": {n: h.summary()
                           for n, h in sorted(self.histograms.items())
                           if keep(h)},
        }

    def to_json(self, deterministic: bool = False) -> str:
        return json.dumps(self.to_dict(deterministic), sort_keys=True,
                          indent=1)

    def to_prometheus(self, deterministic: bool = False) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []

        def emit(metric, kind: str, body: Iterable[str]) -> None:
            if deterministic and metric.volatile:
                return
            name = _sanitize(metric.name)
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(body)

        for _, counter in sorted(self.counters.items()):
            emit(counter, "counter",
                 [f"{_sanitize(counter.name)} {_fmt(counter.value)}"])
        for _, gauge in sorted(self.gauges.items()):
            emit(gauge, "gauge",
                 [f"{_sanitize(gauge.name)} {_fmt(gauge.value)}"])
        for _, hist in sorted(self.histograms.items()):
            name = _sanitize(hist.name)
            body = [
                f'{name}_bucket{{le="{_fmt(bound)}"}} {n}'
                for bound, n in hist.cumulative_buckets()
            ]
            body.append(f"{name}_sum {_fmt(hist.total)}")
            body.append(f"{name}_count {hist.count}")
            emit(hist, "histogram", body)
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: Union[str, Path],
              deterministic: bool = False) -> Path:
        """Export to ``path``; ``.prom``/``.txt`` suffixes select the
        Prometheus text format, everything else JSON."""
        path = Path(path)
        if path.suffix in (".prom", ".txt"):
            text = self.to_prometheus(deterministic)
        else:
            text = self.to_json(deterministic) + "\n"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def __repr__(self) -> str:
        return (f"MetricsRegistry({len(self.counters)} counters, "
                f"{len(self.gauges)} gauges, "
                f"{len(self.histograms)} histograms)")


# ----------------------------------------------------------------------
# Sim-side feeders: pure functions of the simulated machine.

def record_metrics(registry: MetricsRegistry, record,
                   prefix: str = "sim.") -> None:
    """Fold one :class:`~repro.exec.record.RunRecord` into ``registry``.

    Everything recorded here derives from simulated time and counters,
    so it is deterministic for a given spec — safe for the
    byte-identical export guarantee.
    """
    registry.histogram(f"{prefix}run.cycles", CYCLES_BUCKETS,
                       "simulated cycles per job").record(record.cycles)
    registry.counter(f"{prefix}tasks.executed",
                     "tasks executed across jobs").inc(
        record.tasks_executed)
    registry.counter(f"{prefix}steals.hits",
                     "successful steals across jobs").inc(
        record.total_steals)
    registry.counter(f"{prefix}steals.attempts",
                     "steal attempts across jobs").inc(
        record.total_steal_attempts)


def timeseries_metrics(registry: MetricsRegistry, series,
                       prefix: str = "sim.epoch.") -> None:
    """Fold a sampler :class:`~repro.obs.sampler.TimeSeries` into
    ``registry`` as per-epoch histograms plus end-state gauges.

    The cycle-windowed series (per-epoch PE utilization, queue depth,
    steal rate...) become fixed-bucket histograms whose samples are the
    epoch values — percentiles over *epochs*, answering "how deep do
    queues get" / "how bursty is stealing" without keeping the event
    log around.
    """
    unit_buckets = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    count_buckets = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096)
    for name, values in sorted(series.series.items()):
        fractional = name in ("pe_utilization", "mem_outstanding")
        buckets = unit_buckets if fractional else count_buckets
        hist = registry.histogram(f"{prefix}{name}", buckets,
                                  f"per-epoch {name}")
        for value in values:
            hist.record(value)
    registry.gauge(f"{prefix}epochs", "sampled epochs").set(
        series.num_epochs)
    registry.gauge(f"{prefix}epoch_cycles", "cycles per epoch").set(
        series.epoch_cycles)
    registry.gauge(f"{prefix}end_cycle", "sampled run length").set(
        series.end_cycle)
