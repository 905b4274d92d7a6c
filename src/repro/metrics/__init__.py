"""Aggregated solver metrics: registry, exporters, dashboard.

Where :mod:`repro.trace` answers "what did this one run do, event by
event", ``repro.metrics`` answers "what did these runs do in total" —
the low-overhead aggregation layer behind ``repro.bench --metrics``:

* **Instruments** (:mod:`repro.metrics.instruments`): ``Counter``,
  ``Gauge`` and ``Histogram`` families labeled by graph form, cycle
  policy, suite and benchmark.  ``Histogram`` is
  :class:`repro.trace.Histogram`: the repo has one histogram type.
* **Registry** (:mod:`repro.metrics.registry`): a
  :class:`MetricsRegistry` with Prometheus text exposition
  (:meth:`~MetricsRegistry.expose`) and JSON snapshots that load back
  and accumulate (:meth:`~MetricsRegistry.load_snapshot`).
* **Sink** (:mod:`repro.metrics.sink`): :class:`MetricsSink` adapts
  the registry onto the :class:`repro.trace.sinks.TraceSink` protocol,
  so metrics reuse the solver's existing instrumentation points; its
  counters are folded from ``SolverStats`` once per solve segment, so
  enabled metrics add no per-operation work.
* **Exposition** (:mod:`repro.metrics.exposition`): Prometheus text
  rendering + validation (``python -m repro.metrics check``).
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
    default_registry,
    reset_default_registry,
)
from .sink import BASE_LABELS, MetricsSink

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
    "SNAPSHOT_SCHEMA_VERSION",
    "default_registry",
    "render",
    "reset_default_registry",
    "validate_exposition",
]
