"""Zero-dependency metrics registry: counters and histograms.

One :class:`MetricsRegistry` holds every instrument a backend emits.
Instruments are created through the registry (``registry.counter(...)``)
so both execution backends -- the discrete-event simulator and the
asyncio/TCP runtime -- share one metric *schema*: the same names, the
same label sets, the same exposition formats.

Design notes:

* **Families and children.**  ``registry.counter(name, labelnames=...)``
  returns a :class:`MetricFamily`; ``family.labels(device="A")`` returns
  the child instrument for that label combination (created on first
  use).  A family with no label names acts as its own single child.
* **Registration is idempotent** when the signature matches; declaring
  the same name with a different kind or label set raises
  :class:`MetricError` -- schema drift between backends must fail
  loudly, not fork silently.
* **One exposition.**  ``render_text()`` emits the Prometheus text
  format (close enough for scraping and for humans): what ``/metrics``
  serves and what ``repro trace`` writes as ``metrics.prom``.
* **Histograms** use fixed upper bounds (``le``) and record count + sum.

Updates are plain attribute arithmetic (atomic enough under the GIL for
the single-writer patterns both backends use); only registry mutation
takes a lock.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
]


class MetricError(ValueError):
    """Invalid metric declaration or use (schema drift, label mismatch)."""


#: Default histogram bounds: 1 us .. 60 s, roughly geometric.  Covers
#: everything from a single BDD operation to a full-network convergence.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    5e-3,
    1e-2,
    5e-2,
    1e-1,
    5e-1,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
)

LabelValues = Tuple[str, ...]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("labels_map", "value")

    def __init__(self, labels_map: Mapping[str, str]) -> None:
        self.labels_map = dict(labels_map)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with count and sum.

    ``bucket_counts[i]`` counts observations with
    ``value <= bounds[i]``, *non*-cumulative (each observation lands in
    exactly one bucket; the overflow bucket is ``+Inf``).  The text
    exposition converts to Prometheus's cumulative ``le`` convention.
    """

    __slots__ = ("labels_map", "bounds", "bucket_counts", "overflow", "count", "sum")

    def __init__(
        self,
        labels_map: Mapping[str, str],
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        ordered = tuple(bounds)
        if list(ordered) != sorted(ordered) or len(set(ordered)) != len(ordered):
            raise MetricError("histogram bounds must be strictly increasing")
        if not ordered:
            raise MetricError("histogram needs at least one bound")
        self.labels_map = dict(labels_map)
        self.bounds: Tuple[float, ...] = ordered
        self.bucket_counts: List[int] = [0] * len(ordered)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.overflow += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            pairs.append((bound, running))
        pairs.append((float("inf"), running + self.overflow))
        return pairs


_KINDS = {"counter": Counter, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name, keyed by label values."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if kind not in _KINDS:
            raise MetricError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: Dict[LabelValues, object] = {}
        self._lock = threading.Lock()
        if not labelnames:
            # A label-less family is its own single time series; create
            # it eagerly so a declared-but-never-observed histogram
            # still exposes ``_sum``/``_count`` (and all-zero buckets)
            # on /metrics instead of vanishing from the exposition.
            self.labels()

    def signature(self) -> Tuple[str, Tuple[str, ...], Tuple[float, ...]]:
        return (self.kind, self.labelnames, self.buckets)

    def labels(self, **labels: str) -> object:
        """The child for this label combination (created on first use)."""
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise MetricError(
                f"{self.name}: labels {sorted(labels)} do not match "
                f"declared label names {sorted(self.labelnames)}"
            )
        key: LabelValues = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    labels_map = dict(zip(self.labelnames, key))
                    if self.kind == "histogram":
                        child = Histogram(labels_map, self.buckets)
                    else:
                        child = Counter(labels_map)
                    self._children[key] = child
        return child

    def children(self) -> List[object]:
        with self._lock:
            return list(self._children.values())

    # -- label-less convenience (the family is its own single child) -------

    def _solo(self) -> object:
        if self.labelnames:
            raise MetricError(
                f"{self.name} declares labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        child = self._solo()
        assert isinstance(child, Counter)
        child.inc(amount)

    def observe(self, value: float) -> None:
        child = self._solo()
        assert isinstance(child, Histogram)
        child.observe(value)

    # -- aggregation --------------------------------------------------------

    def total(self, **match: str) -> float:
        """Sum of child values whose labels include ``match``."""
        total = 0.0
        for child in self.children():
            labels_map: Dict[str, str] = child.labels_map  # type: ignore[attr-defined]
            if all(labels_map.get(k) == str(v) for k, v in match.items()):
                if isinstance(child, Histogram):
                    total += child.sum
                else:
                    total += child.value  # type: ignore[union-attr]
        return total


class MetricsRegistry:
    """The instrument namespace one backend (or one process) exports."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # -- declaration ---------------------------------------------------------

    def _declare(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        family = MetricFamily(
            name, kind, help_text, tuple(labelnames), tuple(buckets)
        )
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.signature() != family.signature():
                    raise MetricError(
                        f"metric {name!r} re-declared with a different "
                        f"signature: {existing.signature()} vs "
                        f"{family.signature()}"
                    )
                return existing
            self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._declare(name, "counter", help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._declare(name, "histogram", help_text, labelnames, buckets)

    # -- lookup --------------------------------------------------------------

    def get(self, name: str) -> MetricFamily:
        try:
            return self._families[name]
        except KeyError:
            raise MetricError(f"unknown metric {name!r}") from None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def families(self) -> Iterator[MetricFamily]:
        for name in self.names():
            yield self._families[name]

    # -- exposition ----------------------------------------------------------

    def render_text(self) -> str:
        """Prometheus text exposition (one ``# TYPE`` block per family)."""
        lines: List[str] = []
        for family in self.families():
            if family.help_text:
                lines.append(f"# HELP {family.name} {family.help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                labels_map: Dict[str, str] = child.labels_map  # type: ignore[attr-defined]
                rendered = _render_labels(labels_map)
                if isinstance(child, Histogram):
                    for bound, cumulative in child.cumulative():
                        le = "+Inf" if bound == float("inf") else _fmt(bound)
                        bucket_labels = _render_labels(
                            dict(labels_map, le=le)
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{rendered} {_fmt(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{rendered} {child.count}"
                    )
                else:
                    value = child.value  # type: ignore[union-attr]
                    lines.append(f"{family.name}{rendered} {_fmt(value)}")
        return "\n".join(lines) + "\n"


def _escape_label_value(value: str) -> str:
    """Prometheus text-format escaping for a label value.

    The exposition format requires ``\\`` -> ``\\\\``, ``"`` -> ``\\"``
    and newline -> ``\\n`` inside the double-quoted value; anything else
    passes through verbatim.  Without this, a hostile device name (or
    any label carrying a quote) breaks every scraper of ``/metrics``.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels_map: Mapping[str, str]) -> str:
    if not labels_map:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in sorted(labels_map.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
