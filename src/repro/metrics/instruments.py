"""Metric instruments: counters, gauges, histograms, and their families.

An *instrument* is one time series — a :class:`Counter`, :class:`Gauge`
or :class:`Histogram` holding one value (or one bucket map) for one
label combination.  A :class:`Family` groups every labeled child of one
metric name, owns the metadata (help text, label names), and hands out
children via :meth:`Family.labels`.

Design constraints, in order:

* **Cheap updates.** ``Counter.inc`` is one attribute add; histogram
  ``observe`` is one bucket-floor computation plus a few adds and
  compares.  Hot paths pre-bind children once (see
  :class:`repro.metrics.sink.MetricsSink`) so label resolution is paid
  at wiring time, not per event.
* **One histogram type.** :class:`Histogram` is
  :class:`repro.trace.histogram.Histogram` itself, so trace and metrics
  histograms share buckets by construction, and a family's snapshot
  rows are that class's ``to_dict``.
* **No clock reads, no locks.** The solver is single-threaded per run;
  cross-thread aggregation happens at registry level by merging
  snapshots.  Exposition readers see a consistent-enough view without
  synchronization (Python's GIL makes single attribute updates atomic).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..trace.histogram import Histogram

#: Instrument type names as they appear in snapshots and ``# TYPE``.
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class Counter:
    """A monotonically increasing value (float-valued; seconds count)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        self.value += amount

    def to_value(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (last-write-wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def to_value(self) -> float:
        return self.value


_TYPE_CLASSES = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}

#: Prometheus metric / label name grammar (exposition format 0.0.4).
_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)
_LABEL_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


def valid_metric_name(name: str) -> bool:
    return bool(name) and name[0] not in "0123456789" and (
        set(name) <= _NAME_OK
    )


def valid_label_name(name: str) -> bool:
    return bool(name) and name[0] not in "0123456789" and (
        set(name) <= _LABEL_OK
    ) and not name.startswith("__")


class Family:
    """Every labeled child of one metric name, plus its metadata."""

    __slots__ = ("name", "type", "help", "labelnames", "_children")

    def __init__(self, name: str, type_: str, help_: str,
                 labelnames: Iterable[str] = ()) -> None:
        if type_ not in _TYPE_CLASSES:
            raise ValueError(f"unknown instrument type {type_!r}")
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        names = tuple(labelnames)
        for label in names:
            if not valid_label_name(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate label names in {names!r}")
        self.name = name
        self.type = type_
        self.help = help_
        self.labelnames = names
        #: label-value tuple -> child instrument
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, *values: str, **kwvalues: str):
        """The child instrument for one label-value combination.

        Accepts either positional values (in ``labelnames`` order) or
        keyword values; creates the child on first use.
        """
        if kwvalues:
            if values:
                raise ValueError(
                    "pass label values positionally or by keyword, not both"
                )
            try:
                values = tuple(
                    str(kwvalues.pop(name)) for name in self.labelnames
                )
            except KeyError as missing:
                raise ValueError(
                    f"{self.name}: missing label {missing.args[0]!r}"
                ) from None
            if kwvalues:
                raise ValueError(
                    f"{self.name}: unexpected labels {sorted(kwvalues)}"
                )
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {len(values)} values"
            )
        child = self._children.get(values)
        if child is None:
            child = _TYPE_CLASSES[self.type]()
            self._children[values] = child
        return child

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        """All ``(label_values, child)`` pairs, label-sorted."""
        return sorted(self._children.items())

    # -- snapshots ------------------------------------------------------
    def to_dict(self) -> dict:
        rows = []
        for values, child in self.series():
            row: Dict[str, object] = {
                "labels": dict(zip(self.labelnames, values)),
            }
            if self.type == HISTOGRAM:
                row.update(child.to_dict())
            else:
                row["value"] = child.to_value()
            rows.append(row)
        return {
            "name": self.name,
            "type": self.type,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": rows,
        }

    def merge_dict(self, payload: dict) -> None:
        """Fold one snapshot of this family back into the live children.

        Counters and histograms accumulate; gauges take the snapshot
        value (last write wins, matching their semantics).
        """
        for row in payload.get("series", ()):
            labels = row.get("labels", {})
            values = tuple(
                str(labels.get(name, "")) for name in self.labelnames
            )
            child = self.labels(*values)
            if self.type == HISTOGRAM:
                child.merge(_histogram_of(row))
            elif self.type == COUNTER:
                child.inc(float(row["value"]))
            else:
                child.set(float(row["value"]))


def _histogram_of(row: dict) -> Histogram:
    """One histogram snapshot row as a :class:`Histogram`.

    Rows written before histograms kept ``min``/``max`` carry neither;
    they merge as count, sum and buckets alone.
    """
    hist = Histogram()
    hist.count = int(row["count"])
    hist.sum = int(row["sum"])
    hist.min = row.get("min")
    hist.max = row.get("max")
    hist.buckets = {
        int(floor): int(count)
        for floor, count in row.get("buckets", {}).items()
    }
    return hist
