"""Process-wide metrics registry with Prometheus text exposition.

Three instrument kinds, the minimum a serving deployment needs:

- **Counter** — monotone totals (requests, journal appends). ``inc()``
  rejects negative amounts.
- **Gauge** — point-in-time values (queue depth, uptime). Either set
  directly or backed by a zero-argument callback sampled at render
  time, so liveness probes never hold application locks.
- **Histogram** — fixed exponential buckets (latency, batch size,
  fsync time). Cumulative ``_bucket{le=...}`` samples plus ``_sum`` /
  ``_count``, exactly the Prometheus classic-histogram contract.

"Atomic enough": every instrument serializes mutation under one
``threading.Lock``. Spawned workers never touch the parent registry —
their deltas ride the existing result-pipe stat dicts and are folded
in by the parent (see ``SessionStats``), which is what keeps the
registry's counts and the session's counts the *same numbers* instead
of two drifting copies. Per-session counters (``SessionStats``,
resilience totals) are therefore exposed as render-time **views**
(:func:`render_simple` blocks built from ``SessionStats.to_dict()``)
rather than registered twice.

The default registry is a module global (:func:`get_registry`);
``histogram()``/``counter()``/``gauge()`` are get-or-create and
validate that a name keeps one kind and one label set for the life of
the process.

:func:`parse_prometheus` is the inverse used by tests and the CI
scrape gate: it either parses the exposition or raises ``ValueError``
naming the offending line.
"""

from __future__ import annotations

import math
import re
import threading

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Metric",
    "MetricsRegistry",
    "exponential_buckets",
    "get_registry",
    "parse_prometheus",
    "render_simple",
]

_KINDS = ("counter", "gauge", "histogram")

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def exponential_buckets(
    start: float = 0.001, factor: float = 2.0, count: int = 14
) -> tuple[float, ...]:
    """``count`` upper bounds growing by ``factor`` from ``start``.

    The default spans 1ms .. ~8.2s, bracketing everything from a warm
    single-task explain to the p95 the ROADMAP perf check flagged.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("buckets need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


DEFAULT_LATENCY_BUCKETS = exponential_buckets()


def _escape(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


class Metric:
    """One named family of samples (optionally split by labels)."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        if kind == "histogram":
            buckets = tuple(buckets or DEFAULT_LATENCY_BUCKETS)
            if list(buckets) != sorted(buckets) or len(set(buckets)) != len(
                buckets
            ):
                raise ValueError("histogram buckets must strictly increase")
            self.buckets = buckets
        else:
            self.buckets = ()
        self._lock = threading.Lock()
        #: counter/gauge: key -> float; histogram: key -> [counts, sum]
        self._samples: dict[tuple, object] = {}
        self._fn = None

    def _key(self, labels: dict) -> tuple:
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{self.label_names}, got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def inc(self, amount: float = 1.0, **labels) -> None:
        if self.kind != "counter":
            raise ValueError(f"{self.name} is a {self.kind}, not a counter")
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def set(self, value: float, **labels) -> None:
        if self.kind != "gauge":
            raise ValueError(f"{self.name} is a {self.kind}, not a gauge")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def set_fn(self, fn) -> None:
        """Back an unlabelled gauge with a render-time callback."""
        if self.kind != "gauge":
            raise ValueError(f"{self.name} is a {self.kind}, not a gauge")
        if self.label_names:
            raise ValueError("callback gauges cannot take labels")
        self._fn = fn

    def observe(self, value: float, **labels) -> None:
        if self.kind != "histogram":
            raise ValueError(
                f"{self.name} is a {self.kind}, not a histogram"
            )
        key = self._key(labels)
        with self._lock:
            slot = self._samples.get(key)
            if slot is None:
                slot = [[0] * (len(self.buckets) + 1), 0.0]
                self._samples[key] = slot
            counts, _total = slot
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            slot[1] = _total + value

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value(self, **labels) -> float:
        """Current counter/gauge value (0 when never touched)."""
        if self.kind == "histogram":
            raise ValueError("use sample_count()/sample_sum() on histograms")
        if self._fn is not None:
            return float(self._fn())
        key = self._key(labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))

    def sample_count(self, **labels) -> int:
        key = self._key(labels)
        with self._lock:
            slot = self._samples.get(key)
            return sum(slot[0]) if slot else 0

    def sample_sum(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            slot = self._samples.get(key)
            return slot[1] if slot else 0.0

    def render(self) -> str:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        with self._lock:
            samples = dict(self._samples)
        if self.kind == "gauge" and self._fn is not None:
            samples = {(): float(self._fn())}
        if self.kind != "histogram":
            if not samples and not self.label_names:
                samples = {(): 0.0}
            for key, value in sorted(samples.items()):
                labels = dict(zip(self.label_names, key))
                lines.append(
                    f"{self.name}{_label_str(labels)} "
                    f"{_format_value(value)}"
                )
            return "\n".join(lines)
        if not samples and not self.label_names:
            samples = {(): [[0] * (len(self.buckets) + 1), 0.0]}
        for key, (counts, total) in sorted(samples.items()):
            labels = dict(zip(self.label_names, key))
            running = 0
            for bound, count in zip(self.buckets, counts):
                running += count
                le = dict(labels, le=_format_value(float(bound)))
                lines.append(
                    f"{self.name}_bucket{_label_str(le)} {running}"
                )
            running += counts[-1]
            le = dict(labels, le="+Inf")
            lines.append(f"{self.name}_bucket{_label_str(le)} {running}")
            lines.append(
                f"{self.name}_sum{_label_str(labels)} "
                f"{_format_value(total)}"
            )
            lines.append(f"{self.name}_count{_label_str(labels)} {running}")
        return "\n".join(lines)


class MetricsRegistry:
    """Name -> :class:`Metric`, get-or-create, kind-checked."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(
        self, name, kind, help, labels, buckets=None
    ) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if metric.kind != kind or metric.label_names != tuple(
                    labels
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind} with labels {metric.label_names}"
                    )
                return metric
            metric = Metric(name, kind, help, tuple(labels), buckets)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels=()) -> Metric:
        return self._get_or_create(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels=()) -> Metric:
        return self._get_or_create(name, "gauge", help, labels)

    def histogram(
        self, name: str, help: str = "", labels=(), buckets=None
    ) -> Metric:
        return self._get_or_create(
            name, "histogram", help, labels, buckets
        )

    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def families(self) -> list[Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    def family_count(self) -> int:
        with self._lock:
            return len(self._metrics)

    def render(self) -> str:
        blocks = [metric.render() for metric in self.families()]
        return "\n".join(blocks) + ("\n" if blocks else "")

    def reset(self) -> None:
        """Drop every registered family (tests only)."""
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def render_simple(name: str, kind: str, help: str, samples) -> str:
    """Render one exposition block from ``[(labels_dict, value), ...]``.

    The render-time "view" path: per-session counters that already live
    on ``SessionStats`` (and would double-count if also registered)
    are exposed by building their block directly from ``to_dict()``.
    """
    if kind not in ("counter", "gauge"):
        raise ValueError("render_simple handles counters and gauges only")
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    lines = []
    if help:
        lines.append(f"# HELP {name} {help}")
    lines.append(f"# TYPE {name} {kind}")
    for labels, value in samples:
        lines.append(
            f"{name}{_label_str(labels)} {_format_value(float(value))}"
        )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse text exposition into ``{name: [(labels, value), ...]}``.

    Strict on sample lines: anything that is neither a comment, blank,
    nor a well-formed ``name{labels} value`` line raises ``ValueError``
    — this *is* the CI scrape assertion.
    """
    out: dict[str, list[tuple[dict, float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(
                f"unparseable exposition line {lineno}: {raw!r}"
            )
        name, label_body, value_str = match.groups()
        labels: dict[str, str] = {}
        if label_body:
            consumed = 0
            for pair in _LABEL_RE.finditer(label_body):
                labels[pair.group(1)] = (
                    pair.group(2)
                    .replace('\\"', '"')
                    .replace("\\n", "\n")
                    .replace("\\\\", "\\")
                )
                consumed += 1
            if consumed != len(
                [p for p in label_body.split(",") if p.strip()]
            ):
                raise ValueError(
                    f"malformed labels on line {lineno}: {raw!r}"
                )
        if value_str == "+Inf":
            value = math.inf
        elif value_str == "-Inf":
            value = -math.inf
        else:
            try:
                value = float(value_str)
            except ValueError:
                raise ValueError(
                    f"bad sample value on line {lineno}: {raw!r}"
                ) from None
        out.setdefault(name, []).append((labels, value))
    return out
