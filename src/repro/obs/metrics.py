"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Dependency-free and deliberately small.  Three family kinds, optional
labels, and two exposition formats:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` comments, ``name{label="value"} 42`` samples,
  ``_bucket``/``_sum``/``_count`` series for histograms);
* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict mirror of the
  same data.

Thread-safety contract: every family guards its sample map with a
small per-family lock, and the registry guards family declaration with
its own lock.  Any number of worker threads may ``inc``/``set``/
``observe`` concurrently while the scrape thread (the observability
server) renders — increments are never lost, histogram ``sum``/
``count``/bucket series are internally consistent in every exposition,
and no iteration races a mutation.  The locks are uncontended in the
single-threaded case; ``docs/observability.md`` reports the measured
overhead of a recording run.

>>> registry = MetricsRegistry()
>>> registry.counter("repro_demo_total", "Demo counter.").inc(3)
>>> registry.counter_total("repro_demo_total")
3.0
>>> print(registry.to_prometheus().splitlines()[-1])
repro_demo_total 3
"""

from __future__ import annotations

import json
import re
import threading
from collections.abc import Iterable, Mapping
from typing import TextIO

from repro.common.errors import ValidationError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

#: latency-oriented default buckets (seconds), 100 us .. 10 s
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _format_number(value: float) -> str:
    """Render a sample value the way Prometheus expects (no ``1.0`` noise)."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: tuple[str, ...], values: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*zip(names, values), *extra]
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in pairs)
    return "{" + body + "}"


class _Family:
    """Base class for one named metric family (all label variants)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Iterable[str]) -> None:
        if not _NAME_RE.match(name):
            raise ValidationError(f"invalid metric name: {name!r}")
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValidationError(f"invalid label name: {label!r}")
        self.name = name
        self.help_text = help_text
        # guards the sample map: mutators hold it for the read-modify-write,
        # exposition holds it while copying, so snapshots are never torn
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object] | None) -> tuple[str, ...]:
        if not self.labelnames:
            if labels:
                raise ValidationError(f"{self.name} takes no labels, got {labels!r}")
            return ()
        if labels is None or set(labels) != set(self.labelnames):
            raise ValidationError(
                f"{self.name} expects labels {self.labelnames}, got "
                f"{tuple(labels) if labels else ()}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def header_lines(self) -> list[str]:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Family):
    """Monotonically increasing sum, one value per label combination."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Iterable[str]) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple[str, ...], float] = {}
        if not self.labelnames:
            # an unlabeled counter always has exactly one sample; starting
            # it at zero makes the exposition deterministic (the family is
            # visible even before the first increment)
            self._values[()] = 0.0

    def inc(self, value: float = 1.0, labels: Mapping[str, object] | None = None) -> None:
        if value < 0:
            raise ValidationError(f"counter {self.name} cannot decrease ({value})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def expose(self, lines: list[str]) -> None:
        with self._lock:
            samples = list(self._values.items())
        for key, value in samples:
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_number(value)}")

    def sample_dicts(self) -> list[dict]:
        with self._lock:
            samples = list(self._values.items())
        return [
            {"labels": dict(zip(self.labelnames, key)), "value": value}
            for key, value in samples
        ]


class Gauge(Counter):
    """A value that can go up and down (``set`` replaces, ``inc`` adds)."""

    kind = "gauge"

    def inc(self, value: float = 1.0, labels: Mapping[str, object] | None = None) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def set(self, value: float, labels: Mapping[str, object] | None = None) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)


class Histogram(_Family):
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str],
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(float(edge) for edge in buckets))
        if not self.buckets:
            raise ValidationError(f"histogram {self.name} needs at least one bucket")
        self._series: dict[tuple[str, ...], list] = {}
        if not self.labelnames:
            self._series[()] = self._fresh_series()

    def _fresh_series(self) -> list:
        # [per-bucket counts..., +Inf count, sum]
        return [0] * (len(self.buckets) + 1) + [0.0]

    def observe(self, value: float, labels: Mapping[str, object] | None = None) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._fresh_series()
            for i, edge in enumerate(self.buckets):
                if value <= edge:
                    series[i] += 1
                    break
            else:
                series[len(self.buckets)] += 1
            series[-1] += value

    def _copy_series(self) -> list[tuple[tuple[str, ...], list]]:
        """Deep-copy every series under the lock: exposition then renders
        from frozen data, so ``sum``/``count``/buckets can never tear."""
        with self._lock:
            return [(key, list(series)) for key, series in self._series.items()]

    def expose(self, lines: list[str]) -> None:
        for key, series in self._copy_series():
            cumulative = 0
            for i, edge in enumerate(self.buckets):
                cumulative += series[i]
                labels = _render_labels(
                    self.labelnames, key, (("le", _format_number(edge)),)
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            count = cumulative + series[len(self.buckets)]
            labels = _render_labels(self.labelnames, key, (("le", "+Inf"),))
            lines.append(f"{self.name}_bucket{labels} {count}")
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_number(series[-1])}")
            lines.append(f"{self.name}_count{plain} {count}")

    def sample_dicts(self) -> list[dict]:
        """JSON samples carrying the bucket *bounds*, not just counts.

        ``bounds`` is the upper edge of each finite bucket (the ``le``
        labels of the text format); ``counts`` aligns with it and ends
        with the ``+Inf`` overflow, and ``cumulative`` is the running
        Prometheus-convention total (its last element equals ``count``).
        The legacy ``buckets`` mapping (formatted edge -> count) is kept
        for existing consumers.
        """
        samples = []
        for key, series in self._copy_series():
            counts = dict(zip(map(_format_number, self.buckets), series))
            counts["+Inf"] = series[len(self.buckets)]
            raw = list(series[: len(self.buckets) + 1])
            cumulative = []
            running = 0
            for value in raw:
                running += value
                cumulative.append(running)
            samples.append(
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "bounds": list(self.buckets),
                    "counts": raw,
                    "cumulative": cumulative,
                    "buckets": counts,
                    "sum": series[-1],
                    "count": sum(raw),
                }
            )
        return samples


class MetricsRegistry:
    """Holds metric families and renders them.

    Families are created explicitly (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) or implicitly by the convenience mutators
    (:meth:`inc`, :meth:`set_gauge`, :meth:`observe`), which auto-declare
    a family on first use with label names inferred from the call.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        # guards the family map itself; per-family sample locks guard values
        self._lock = threading.RLock()

    # -- declaration --------------------------------------------------

    def _declare(self, cls, name, help_text, labelnames, **kwargs) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if type(family) is not cls or family.labelnames != tuple(labelnames):
                    raise ValidationError(
                        f"metric {name} already declared as {family.kind}"
                        f"{family.labelnames}"
                    )
                return family
            family = cls(name, help_text, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._declare(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._declare(Histogram, name, help_text, labelnames, buckets=buckets)

    # -- mutation -----------------------------------------------------

    def inc(self, name: str, value: float = 1.0,
            labels: Mapping[str, object] | None = None) -> None:
        family = self._families.get(name)
        if family is None:
            family = self.counter(name, labelnames=sorted(labels) if labels else ())
        family.inc(value, labels)

    def set_gauge(self, name: str, value: float,
                  labels: Mapping[str, object] | None = None) -> None:
        family = self._families.get(name)
        if family is None:
            family = self.gauge(name, labelnames=sorted(labels) if labels else ())
        family.set(value, labels)

    def observe(self, name: str, value: float,
                labels: Mapping[str, object] | None = None) -> None:
        family = self._families.get(name)
        if family is None:
            family = self.histogram(name, labelnames=sorted(labels) if labels else ())
        family.observe(value, labels)

    # -- introspection ------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def get(self, name: str) -> _Family | None:
        return self._families.get(name)

    def counter_values(self) -> dict[str, float]:
        """Flat ``{'name' | 'name{a="x"}': value}`` map of all counters."""
        values: dict[str, float] = {}
        with self._lock:
            families = list(self._families.values())
        for family in families:
            if type(family) is not Counter:
                continue
            for sample in family.sample_dicts():
                key = tuple(
                    sample["labels"][name] for name in family.labelnames
                )
                labels = _render_labels(family.labelnames, key)
                values[f"{family.name}{labels}"] = sample["value"]
        return values

    def counter_total(self, name: str) -> float:
        """Sum of one counter family across all label combinations."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        if not isinstance(family, Counter) or isinstance(family, Gauge):
            raise ValidationError(f"{name} is a {family.kind}, not a counter")
        return family.total()

    # -- exposition ---------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format, one family per block."""
        lines: list[str] = []
        with self._lock:
            families = list(self._families.values())
        for family in families:
            lines.extend(family.header_lines())
            family.expose(lines)
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """JSON-safe mirror of every family and sample."""
        with self._lock:
            items = list(self._families.items())
        return {
            name: {
                "type": family.kind,
                "help": family.help_text,
                "labelnames": list(family.labelnames),
                "samples": family.sample_dicts(),
            }
            for name, family in items
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent) + "\n"

    def write(self, stream: TextIO, fmt: str = "prom") -> None:
        if fmt == "prom":
            stream.write(self.to_prometheus())
        elif fmt == "json":
            stream.write(self.to_json())
        else:
            raise ValidationError(f"unknown metrics format: {fmt!r}")
