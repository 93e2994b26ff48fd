"""Counters and latency histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments:

- :class:`Counter` — a monotonically increasing count (requests served,
  violations detected, retries attempted);
- :class:`Histogram` — a distribution of observations (VEP mediation
  latency, instance durations), keeping exact running aggregates plus a
  bounded window of recent samples for percentiles. Histograms may
  additionally be created with explicit bucket bounds, in which case each
  bucket keeps a bounded ring of **exemplars** — ``(value, trace_id,
  correlation_id, span_id)`` samples linking an outlier observation back
  to its cross-layer trace (and the exact span inside it).

Instrument names may carry Prometheus-style labels inline —
``wsbus.endpoint.requests{endpoint="http://scm/retailerA"}`` (see
:func:`labeled_name`) — which :meth:`MetricsRegistry.render_prometheus`
splits back into label sets on the exposition format.

Like the tracer, the default everywhere is the no-op
:data:`NULL_METRICS`; instrumented code guards on ``metrics.enabled``
before building metric names so the disabled path allocates nothing.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "labeled_name",
]


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote and newline are the three characters the
    format requires escaping (in that order — escaping the escapes
    first). Values are stored escaped inside the composed instrument
    name, so the fragment is exposition-valid verbatim and the inline
    ``key="value"`` encoding stays unambiguous even for hostile values.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def labeled_name(base: str, **labels: str) -> str:
    """Compose an instrument name carrying an inline label set.

    Labels are sorted so the same logical series always maps to the same
    registry key; :meth:`MetricsRegistry.render_prometheus` splits them
    back out into the exposition format. Label *values* are escaped here
    (see :func:`_escape_label_value`), never at render time.
    """
    if not labels:
        return base
    rendered = ",".join(
        f'{key}="{_escape_label_value(labels[key])}"' for key in sorted(labels)
    )
    return f"{base}{{{rendered}}}"


_LABELED = re.compile(r"^(?P<base>[^{]+)\{(?P<labels>.*)\}$")


def split_labeled_name(name: str) -> tuple[str, str]:
    """``(base, "{labels}")`` of an instrument name; labels may be ``""``."""
    match = _LABELED.match(name)
    if match is None:
        return name, ""
    return match.group("base"), "{" + match.group("labels") + "}"


def _prom_name(base: str) -> str:
    """Sanitize a dotted instrument name to the Prometheus charset."""
    return re.sub(r"[^a-zA-Z0-9_:]", "_", base)


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """A named distribution with exact aggregates + windowed percentiles.

    ``count``/``total``/``min``/``max`` cover *every* observation ever
    made; percentiles are computed over the most recent ``window``
    samples so memory stays bounded under production-scale traffic.

    When ``buckets`` (sorted upper bounds) is given, observations are
    additionally counted per bucket, and each bucket keeps a bounded ring
    of recent exemplars — ``(value, trace_id, correlation_id, span_id)`` — so an
    operator can jump from a p99 outlier straight to the trace that
    produced it. Histograms created without buckets pay nothing for the
    feature beyond a single ``is None`` check per observation.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "min",
        "max",
        "_recent",
        "bucket_bounds",
        "bucket_counts",
        "_exemplars",
    )

    #: Exemplars retained per bucket (most recent win).
    EXEMPLARS_PER_BUCKET = 2

    def __init__(
        self,
        name: str,
        window: int = 8192,
        buckets: Iterable[float] | None = None,
    ) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._recent: deque[float] = deque(maxlen=window)
        if buckets is None:
            self.bucket_bounds: tuple[float, ...] | None = None
            self.bucket_counts: list[int] | None = None
            self._exemplars: list[deque] | None = None
        else:
            self.bucket_bounds = tuple(sorted(buckets))
            # One extra bucket for observations beyond the last bound (+Inf).
            self.bucket_counts = [0] * (len(self.bucket_bounds) + 1)
            self._exemplars = [
                deque(maxlen=self.EXEMPLARS_PER_BUCKET)
                for _ in range(len(self.bucket_bounds) + 1)
            ]

    def observe(
        self,
        value: float,
        trace_id: str | None = None,
        correlation_id: str | None = None,
        span_id: str | None = None,
    ) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._recent.append(value)
        bounds = self.bucket_bounds
        if bounds is not None:
            index = bisect_right(bounds, value)
            self.bucket_counts[index] += 1
            if trace_id is not None:
                self._exemplars[index].append((value, trace_id, correlation_id, span_id))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """The ``q``-th percentile (0–100) of the recent window.

        Interpolation rule: **nearest rank** — the window is sorted and
        the sample at index ``round(q/100 * (n-1))`` is returned, clamped
        to the window. Consequences worth relying on:

        - an empty histogram returns ``None`` (never raises);
        - a single-sample histogram returns that sample for every ``q``
          (p50 == p99 == the value);
        - percentiles are always actual observed samples, never values
          interpolated between two samples.
        """
        if not self._recent:
            return None
        ordered = sorted(self._recent)
        index = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[index]

    def exemplars(self) -> list[dict]:
        """Recorded exemplars, one dict per sample, highest buckets last."""
        if self._exemplars is None:
            return []
        bounds = self.bucket_bounds
        out = []
        for index, ring in enumerate(self._exemplars):
            bound = bounds[index] if index < len(bounds) else float("inf")
            for value, trace_id, correlation_id, span_id in ring:
                out.append(
                    {
                        "bucket_le": bound,
                        "value": value,
                        "trace_id": trace_id,
                        "correlation_id": correlation_id,
                        "span_id": span_id,
                    }
                )
        return out

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """A namespace of counters and histograms, created on first use."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(
        self, name: str, window: int = 8192, buckets: Iterable[float] | None = None
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, window=window, buckets=buckets
            )
        return histogram

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """All instrument values as plain data (experiment reports)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """A human-readable dump of every instrument."""
        lines = []
        for name, counter in sorted(self._counters.items()):
            lines.append(f"{name}: {counter.value}")
        for name, histogram in sorted(self._histograms.items()):
            s = histogram.summary()
            p95 = "n/a" if s["p95"] is None else f"{s['p95']:.6f}"
            lines.append(
                f"{name}: n={s['count']} mean={s['mean']:.6f} "
                f"p95={p95} max={s['max']:.6f}"
            )
        return "\n".join(lines)

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format of every instrument.

        Counters become ``<name>_total`` samples; histograms emit
        ``_count``/``_sum``, summary quantiles over the recent window,
        and — when the histogram has buckets — cumulative ``_bucket``
        series with OpenMetrics-style exemplar annotations
        (``# {trace_id="...",correlation_id="..."} value``).
        """
        lines: list[str] = []
        typed: set[str] = set()

        def type_line(base: str, kind: str) -> None:
            if base not in typed:
                typed.add(base)
                lines.append(f"# TYPE {base} {kind}")

        for name, counter in sorted(self._counters.items()):
            base, labels = split_labeled_name(name)
            prom = _prom_name(base) + "_total"
            type_line(prom, "counter")
            lines.append(f"{prom}{labels} {counter.value}")

        for name, histogram in sorted(self._histograms.items()):
            base, labels = split_labeled_name(name)
            prom = _prom_name(base)
            type_line(prom, "histogram" if histogram.bucket_bounds else "summary")
            label_body = labels[1:-1] if labels else ""

            def with_label(extra: str) -> str:
                if not label_body and not extra:
                    return ""
                joined = ",".join(part for part in (label_body, extra) if part)
                return "{" + joined + "}"

            if histogram.bucket_bounds is not None:
                cumulative = 0
                for index, bound in enumerate(histogram.bucket_bounds):
                    cumulative += histogram.bucket_counts[index]
                    le = 'le="%g"' % bound
                    sample = f"{prom}_bucket{with_label(le)} {cumulative}"
                    sample += _exemplar_suffix(histogram._exemplars[index])
                    lines.append(sample)
                cumulative += histogram.bucket_counts[-1]
                inf_label = 'le="+Inf"'
                sample = f"{prom}_bucket{with_label(inf_label)} {cumulative}"
                sample += _exemplar_suffix(histogram._exemplars[-1])
                lines.append(sample)
            else:
                for q in (50, 95, 99):
                    value = histogram.percentile(q)
                    if value is not None:
                        quantile = 'quantile="%g"' % (q / 100)
                        lines.append(f"{prom}{with_label(quantile)} {value:.6f}")
            lines.append(f"{prom}_count{labels} {histogram.count}")
            lines.append(f"{prom}_sum{labels} {histogram.total:.6f}")
        return "\n".join(lines) + ("\n" if lines else "")


def _exemplar_suffix(ring) -> str:
    """The OpenMetrics exemplar annotation for one bucket (latest sample)."""
    if not ring:
        return ""
    value, trace_id, correlation_id, span_id = ring[-1]
    label = f'trace_id="{_escape_label_value(trace_id)}"'
    if span_id is not None:
        label += f',span_id="{_escape_label_value(span_id)}"'
    if correlation_id is not None:
        label += f',correlation_id="{_escape_label_value(correlation_id)}"'
    return f" # {{{label}}} {value:.6f}"


class _NullInstrument:
    """Shared no-op counter/histogram."""

    __slots__ = ()

    name = "null"
    value = 0
    count = 0
    total = 0.0
    mean = 0.0
    min = None
    max = None
    bucket_bounds = None

    def inc(self, amount: int = 1) -> None:
        return None

    def observe(self, value: float, trace_id=None, correlation_id=None, span_id=None) -> None:
        return None

    def percentile(self, q: float) -> float | None:
        return None

    def exemplars(self) -> list:
        return []

    def summary(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The default, disabled registry: hands out a shared no-op."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, window: int = 8192, buckets=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "histograms": {}}

    def render(self) -> str:
        return ""

    def render_prometheus(self) -> str:
        return ""


NULL_METRICS = NullMetrics()
