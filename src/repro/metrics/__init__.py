"""Aggregated solver metrics: registry, exporters, dashboard.

Where :mod:`repro.trace` answers "what did this one run do, event by
event", ``repro.metrics`` answers "what has this *process* done so
far" — the always-on, low-overhead aggregation layer a long-running
service is monitored through:

* **Instruments** (:mod:`repro.metrics.instruments`): ``Counter``,
  ``Gauge`` and ``Histogram`` families labeled by graph form, cycle
  policy, suite and benchmark.  ``Histogram`` is
  :class:`repro.trace.Histogram`: the repo has one histogram type.
* **Registry** (:mod:`repro.metrics.registry`): a process-wide
  :class:`MetricsRegistry` with Prometheus text exposition
  (:meth:`~MetricsRegistry.expose`), JSON snapshots, and periodic
  flush-to-file for batch runs.
* **Sink** (:mod:`repro.metrics.sink`): :class:`MetricsSink` adapts
  the registry onto the :class:`repro.trace.sinks.TraceSink` protocol,
  so metrics reuse the solver's existing instrumentation points; its
  counters are folded from ``SolverStats`` once per solve segment, so
  enabled metrics add no per-operation work.
* **Exporters** (:mod:`repro.metrics.exposition`,
  :mod:`repro.metrics.server`): exposition rendering + validation and
  a stdlib-only HTTP scrape endpoint
  (``python -m repro.metrics serve``).
* **Dashboard** (:mod:`repro.metrics.dashboard`): ingests
  ``benchmarks/BASELINE.json``, ``BENCH_<n>.json`` reports and metric
  snapshots into a self-contained static HTML view of the benchmark
  trajectory (``python -m repro.metrics dashboard``).

Quick use::

    from repro import solve
    from repro.metrics import MetricsRegistry, MetricsSink

    registry = MetricsRegistry()
    options = options.replace(
        sink=MetricsSink.for_options(options, registry, suite="adhoc")
    )
    solve(system, options)
    print(registry.expose())

See ``docs/METRICS.md`` for the instrument catalog and workflows.
"""

from __future__ import annotations

from .exposition import (
    CONTENT_TYPE,
    ExpositionError,
    render,
    validate_exposition,
)
from .instruments import Counter, Family, Gauge, Histogram
from .registry import (
    SNAPSHOT_SCHEMA_VERSION,
    MetricsRegistry,
    PeriodicFlusher,
    default_registry,
    reset_default_registry,
)
from .sink import BASE_LABELS, MetricsSink
from .server import serve, serve_in_thread

__all__ = [
    "BASE_LABELS",
    "CONTENT_TYPE",
    "Counter",
    "ExpositionError",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "PeriodicFlusher",
    "SNAPSHOT_SCHEMA_VERSION",
    "default_registry",
    "render",
    "reset_default_registry",
    "serve",
    "serve_in_thread",
    "validate_exposition",
]
