"""Instrument and family semantics."""

import json
import os
import subprocess
import sys
import urllib.request

import pytest
from hypothesis import given, strategies as st

from repro.metrics import MetricsRegistry, validate_exposition
from repro.metrics.instruments import (
    Counter,
    Family,
    Gauge,
    Histogram,
    valid_label_name,
    valid_metric_name,
)


class TestCounter:
    def test_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.to_value() == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.to_value() == 12


class TestHistogram:
    def test_observe_accumulates(self):
        hist = Histogram()
        for value in (1, 1, 17, 300):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 319
        assert hist.mean == 319 / 4

    def test_buckets_shared_with_trace(self):
        """Metrics histograms are the trace-side histogram type."""
        from repro.trace import Histogram as TraceHistogram

        assert Histogram is TraceHistogram
        hist = Histogram()
        hist.observe(17)
        assert list(hist.buckets) == [16]

    def test_cumulative_monotone(self):
        hist = Histogram()
        for value in (1, 2, 2, 40, 100, 1000):
            hist.observe(value)
        cumulative = hist.cumulative()
        counts = [count for _, count in cumulative]
        assert counts == sorted(counts)
        assert counts[-1] == hist.count


class TestFamily:
    def test_label_values_create_children(self):
        family = Family("x_total", "counter", "help", ("a", "b"))
        child = family.labels("1", "2")
        child.inc()
        assert family.labels("1", "2") is child
        assert family.labels(a="1", b="2") is child
        assert len(family.series()) == 1

    def test_label_arity_checked(self):
        family = Family("x_total", "counter", "help", ("a",))
        with pytest.raises(ValueError):
            family.labels("1", "2")

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Family("0bad", "counter", "help", ())
        with pytest.raises(ValueError):
            Family("ok_total", "counter", "help", ("0bad",))

    def test_to_dict_merge_dict_round_trip(self):
        family = Family("x_total", "counter", "help", ("a",))
        family.labels("1").inc(3)
        other = Family("x_total", "counter", "help", ("a",))
        other.merge_dict(family.to_dict())
        other.merge_dict(family.to_dict())
        assert other.labels("1").to_value() == 6.0

    def test_histogram_merge_accumulates(self):
        family = Family("h", "histogram", "help", ())
        family.labels().observe(5)
        family.labels().observe(100)
        other = Family("h", "histogram", "help", ())
        other.merge_dict(family.to_dict())
        child = other.labels()
        assert child.count == 2
        assert child.sum == 105


class TestNames:
    def test_metric_name_grammar(self):
        assert valid_metric_name("repro_solver_edges_total")
        assert valid_metric_name(":colons_ok")
        assert not valid_metric_name("9starts_with_digit")
        assert not valid_metric_name("has-dash")

    def test_label_name_grammar(self):
        assert valid_label_name("form")
        assert not valid_label_name("__reserved")
        assert not valid_label_name("has-dash")


#: (sample, multiplicity) streams for the one histogram type.
SAMPLES = st.lists(
    st.tuples(st.integers(0, 5000), st.integers(1, 3)), max_size=40,
)


def parent_format(family_dict):
    """A family snapshot as written before histograms kept min/max."""
    for row in family_dict["series"]:
        del row["min"], row["max"]
    return family_dict


class TestOneHistogram:
    @given(SAMPLES, st.integers(0, 40))
    def test_split_then_merge_equals_whole_stream(self, samples, cut):
        left, right, whole = Histogram(), Histogram(), Histogram()
        for value, count in samples[:cut]:
            left.observe(value, count)
        for value, count in samples[cut:]:
            right.observe(value, count)
        for value, count in samples:
            whole.observe(value, count)
        left.merge(right)
        assert left.to_dict() == whole.to_dict()

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 5000)),
                    max_size=40))
    def test_snapshot_into_fresh_registry_exposes_same_text(self, samples):
        registry = MetricsRegistry()
        family = registry.histogram("h", "help", ("k",))
        for label, value in samples:
            family.labels(label).observe(value)
        fresh = MetricsRegistry()
        fresh.histogram("h", "help", ("k",)).merge_dict(family.to_dict())
        assert fresh.expose() == registry.expose()
        assert fresh.snapshot() == registry.snapshot()

    @given(SAMPLES)
    def test_parent_format_row_still_merges(self, samples):
        registry = MetricsRegistry()
        family = registry.histogram("h", "help")
        for value, count in samples:
            family.labels().observe(value, count)
        fresh = MetricsRegistry()
        fresh.histogram("h", "help").merge_dict(
            parent_format(family.to_dict())
        )
        loaded = fresh.histogram("h", "help").labels()
        original = family.labels()
        assert (loaded.count, loaded.sum, loaded.buckets) == (
            original.count, original.sum, original.buckets
        )
        assert fresh.expose() == registry.expose()

    def test_parent_format_snapshot_serves(self, tmp_path):
        registry = MetricsRegistry()
        family = registry.histogram("h", "help", ("k",))
        for value in (1, 17, 300):
            family.labels("v").observe(value)
        snapshot = registry.snapshot()
        snapshot["families"] = [
            parent_format(entry) for entry in snapshot["families"]
        ]
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.metrics", "serve",
             "--port", "0", "--snapshot", str(path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = ""
            while "serving metrics on" not in line:
                line = server.stdout.readline()
                assert line, "server exited before serving"
            url = line.split("serving metrics on ", 1)[1].strip()
            with urllib.request.urlopen(url, timeout=10) as response:
                text = response.read().decode("utf-8")
        finally:
            server.terminate()
            server.wait(timeout=10)
            server.stdout.close()
        assert validate_exposition(text) == []
        assert text == registry.expose()
