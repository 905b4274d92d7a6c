"""Registry lifecycle, snapshots, and the default registry."""

import json

import pytest

from repro.metrics import (
    MetricsRegistry,
    SNAPSHOT_SCHEMA_VERSION,
    default_registry,
    reset_default_registry,
)


class TestRegistration:
    def test_idempotent_registration(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", ("a",))
        second = registry.counter("x_total", "help", ("a",))
        assert first is second

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "help")

    def test_labelnames_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help", ("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "help", ("b",))

    def test_collect_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z_total", "help")
        registry.counter("a_total", "help")
        assert [f.name for f in registry.collect()] == [
            "a_total", "z_total",
        ]

    def test_enable_disable(self):
        registry = MetricsRegistry()
        assert registry.enabled
        registry.disable()
        assert not registry.enabled
        registry.enable()
        assert registry.enabled


class TestSnapshots:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help", ("k",)).labels("v").inc(3)
        registry.gauge("g", "help").labels().set(7)
        hist = registry.histogram("h", "help").labels()
        hist.observe(2)
        hist.observe(40)
        return registry

    def test_snapshot_round_trip_accumulates(self):
        registry = self.build()
        snapshot = registry.snapshot(meta={"suite": "quick"})
        assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert snapshot["meta"]["suite"] == "quick"
        fresh = MetricsRegistry()
        fresh.load_snapshot(snapshot)
        fresh.load_snapshot(snapshot)
        families = {f.name: f for f in fresh.collect()}
        assert families["c_total"].labels("v").to_value() == 6.0
        # Gauges are last-write-wins, not additive.
        assert families["g"].labels().to_value() == 7.0
        hist = families["h"].labels()
        assert hist.count == 4
        assert hist.sum == 84

    def test_unsupported_snapshot_version_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.load_snapshot({"schema_version": 999, "families": []})

    def test_flush_to_writes_loadable_json(self, tmp_path):
        registry = self.build()
        path = str(tmp_path / "metrics.json")
        registry.flush_to(path, meta={"seed": 0})
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        fresh = MetricsRegistry()
        fresh.load_snapshot(payload)
        assert {f.name for f in fresh.collect()} == {
            "c_total", "g", "h",
        }

    def test_clear_empties_registry(self):
        registry = self.build()
        registry.clear()
        assert registry.collect() == []


class TestDefaultRegistry:
    def test_process_wide_singleton(self):
        reset_default_registry()
        try:
            assert default_registry() is default_registry()
        finally:
            reset_default_registry()

    def test_reset_gives_fresh_registry(self):
        first = default_registry()
        reset_default_registry()
        try:
            assert default_registry() is not first
        finally:
            reset_default_registry()
