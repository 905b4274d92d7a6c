"""The process-wide metrics registry.

A :class:`MetricsRegistry` owns metric families
(:class:`~repro.metrics.instruments.Family`) and provides the three
operations every exporter needs: :meth:`~MetricsRegistry.expose`
(Prometheus text), :meth:`~MetricsRegistry.snapshot` (JSON-ready dict)
and :meth:`~MetricsRegistry.flush_to` (snapshot to file).  Registration
is idempotent — asking twice for the same (name, type, labelnames)
returns the same family, so independent subsystems can wire themselves
without coordination — while re-registering a name with *different*
metadata raises, because silently forking a metric is how dashboards
end up lying.

:func:`default_registry` is the process-wide instance.  It exists so
loosely coupled subsystems (the fuzz harness counts its disagreements
there) share one registry without threading it through every call
path.  Solver instrumentation proper always goes through an explicit
:class:`~repro.metrics.sink.MetricsSink`, so the default registry stays
empty unless something is actually being measured.

The overhead contract mirrors tracing: a registry that is
:meth:`disabled <MetricsRegistry.disable>` makes every attached
:class:`~repro.metrics.sink.MetricsSink` drop events after one
attribute check, and a solver with no sink attached never reaches
metrics code at all.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterable, List, Optional

from .exposition import render
from .instruments import COUNTER, GAUGE, HISTOGRAM, Family

#: Format version of :meth:`MetricsRegistry.snapshot` payloads.
SNAPSHOT_SCHEMA_VERSION = 1


class MetricsRegistry:
    """A named collection of metric families with export operations."""

    def __init__(self, enabled: bool = True) -> None:
        #: read by MetricsSink before every event; flip with
        #: :meth:`enable`/:meth:`disable`
        self.enabled = enabled
        self._families: Dict[str, Family] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------
    def _register(self, name: str, type_: str, help_: str,
                  labelnames: Iterable[str]) -> Family:
        names = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (existing.type != type_
                        or existing.labelnames != names):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.type} with labels "
                        f"{existing.labelnames}, cannot re-register as "
                        f"{type_} with labels {names}"
                    )
                return existing
            family = Family(name, type_, help_, names)
            self._families[name] = family
            return family

    def counter(self, name: str, help_: str,
                labelnames: Iterable[str] = ()) -> Family:
        """Register (or fetch) a counter family."""
        return self._register(name, COUNTER, help_, labelnames)

    def gauge(self, name: str, help_: str,
              labelnames: Iterable[str] = ()) -> Family:
        """Register (or fetch) a gauge family."""
        return self._register(name, GAUGE, help_, labelnames)

    def histogram(self, name: str, help_: str,
                  labelnames: Iterable[str] = ()) -> Family:
        """Register (or fetch) a histogram family."""
        return self._register(name, HISTOGRAM, help_, labelnames)

    # -- state ----------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def collect(self) -> List[Family]:
        """All families, name-sorted (the exposition order)."""
        with self._lock:
            return [
                self._families[name] for name in sorted(self._families)
            ]

    def clear(self) -> None:
        """Drop every family (tests and process recycling)."""
        with self._lock:
            self._families.clear()

    # -- exporters ------------------------------------------------------
    def expose(self) -> str:
        """Prometheus text exposition of every family."""
        return render(self.collect())

    def snapshot(self, meta: Optional[dict] = None) -> dict:
        """JSON-ready dump of every family (plus optional metadata)."""
        payload = {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "families": [family.to_dict() for family in self.collect()],
        }
        if meta:
            payload["meta"] = dict(meta)
        return payload

    def load_snapshot(self, payload: dict) -> None:
        """Merge a :meth:`snapshot` payload into this registry.

        Families are registered on demand from the snapshot metadata;
        counters and histogram buckets accumulate, gauges take the
        snapshot value — so loading N per-run snapshots into one
        registry, in run order, yields what one registry shared by
        those runs would hold.
        """
        version = payload.get("schema_version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported metrics snapshot schema {version!r} "
                f"(expected {SNAPSHOT_SCHEMA_VERSION})"
            )
        for entry in payload.get("families", ()):
            family = self._register(
                entry["name"], entry["type"], entry.get("help", ""),
                entry.get("labelnames", ()),
            )
            family.merge_dict(entry)

    def flush_to(self, path: str, meta: Optional[dict] = None) -> str:
        """Write :meth:`snapshot` to ``path`` atomically; returns path.

        The snapshot is written to a sibling temp file and renamed into
        place, so a reader or a crash mid-flush never observes a torn
        JSON document.
        """
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(meta), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        return path


_default_registry: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (created enabled on first use)."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry(enabled=True)
        return _default_registry


def reset_default_registry() -> None:
    """Discard the process-wide registry (test isolation)."""
    global _default_registry
    with _default_lock:
        _default_registry = None
