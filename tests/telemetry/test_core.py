"""Unit tests of the telemetry instrumentation core."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    SNAPSHOT_SCHEMA,
    Histogram,
    NullTelemetry,
    Telemetry,
    merge_snapshots,
    validate_snapshot,
)


class TestInstruments:
    def test_counter_accumulates(self):
        tel = Telemetry()
        c = tel.counter("x")
        c.add()
        c.add(41)
        assert tel.snapshot()["counters"]["x"] == 42

    def test_counter_is_get_or_create(self):
        tel = Telemetry()
        assert tel.counter("x") is tel.counter("x")
        assert tel.histogram("h") is tel.histogram("h")
        assert tel.gauge("g") is tel.gauge("g")

    def test_gauge_tracks_last_max_updates(self):
        tel = Telemetry()
        g = tel.gauge("depth")
        g.set(3)
        g.set(7)
        g.set(2)
        snap = tel.snapshot()["gauges"]["depth"]
        assert snap == {"last": 2, "max": 7, "updates": 3}

    def test_histogram_percentiles_cover_observations(self):
        h = Histogram("lat")
        for value in (1e-5, 2e-5, 1e-4, 1e-3, 1e-2):
            h.observe(value)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == pytest.approx(1e-5)
        assert snap["max"] == pytest.approx(1e-2)
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]

    def test_histogram_empty_snapshot_is_zeros(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0
        assert snap["buckets"] == []

    def test_histogram_overflow_attributed_to_maximum(self):
        h = Histogram("lat", bounds=(1e-6, 2e-6))
        h.observe(5.0)  # beyond the last bound
        snap = h.snapshot()
        assert snap["overflow"] == 1
        assert snap["p99"] == pytest.approx(5.0)


class TestTelemetryRegistry:
    def test_span_context_manager_records_event(self):
        tel = Telemetry(rank=3)
        with tel.span("allreduce", nbytes=64) as span:
            span.set(outcome="ok")
        snap = tel.snapshot(events=True)
        (event,) = snap["events"]
        assert event["name"] == "allreduce"
        assert event["dur"] >= 0.0
        assert event["args"]["nbytes"] == 64
        assert event["args"]["outcome"] == "ok"

    def test_event_cap_counts_drops_instead_of_growing(self):
        tel = Telemetry(max_events=2)
        for i in range(5):
            tel.record_span("s", "c", float(i), i + 1.0)
        snap = tel.snapshot(events=True)
        assert snap["events_recorded"] == 2
        assert snap["events_dropped"] == 3
        # Flight-recorder order: the ring overwrote its oldest events.
        assert [event["ts"] for event in snap["events"]] == [3.0, 4.0]

    def test_a_ring_of_zero_keeps_nothing_and_still_counts(self):
        tel = Telemetry(max_events=0)
        for _ in range(3):
            tel.record_span("s", "c", 0.0, 1.0)
        snap = tel.snapshot(events=True)
        assert (snap["events_recorded"], snap["events_dropped"]) == (0, 3)
        assert snap["events"] == []

    def test_event_args_are_a_dict_in_the_snapshot_however_recorded(self):
        tel = Telemetry()
        tel.record_span("a", "c", 1.0, 3.0, {"k": 1})
        tel.record_span("b", "c", 1.0, 3.0, ("k", 1, "why", "flat"))
        tel.record_span("c", "c", 1.0, 3.0)
        events = tel.snapshot(events=True)["events"]
        assert [e["args"] for e in events] == [{"k": 1}, {"k": 1, "why": "flat"}, {}]
        assert all(e["ts"] == 1.0 and e["dur"] == 2.0 for e in events)
        validate_snapshot(tel.snapshot(events=True))

    def test_an_aliased_histogram_is_one_instrument_under_two_names(self):
        tel = Telemetry()
        wait = tel.histogram("runtime.wait_s")
        tel.alias("pipeline.chunk_wait_s", wait)
        wait.observe(0.25)
        histograms = tel.snapshot()["histograms"]
        assert tel.histogram("pipeline.chunk_wait_s") is wait
        assert histograms["pipeline.chunk_wait_s"] == histograms["runtime.wait_s"]
        assert histograms["runtime.wait_s"]["count"] == 1

    def test_snapshot_is_json_serialisable_and_valid(self):
        tel = Telemetry(rank=1)
        tel.counter("a").add(2)
        tel.gauge("b").set(1.5)
        tel.histogram("c").observe(0.001)
        snap = tel.snapshot(events=True)
        validate_snapshot(snap)
        assert json.loads(json.dumps(snap)) == snap


class TestDisabledPath:
    def test_null_registry_is_disabled_and_shared(self):
        assert not NULL_TELEMETRY.enabled
        assert isinstance(NULL_TELEMETRY, NullTelemetry)

    def test_null_instruments_have_zero_side_effects(self):
        before = NULL_TELEMETRY.snapshot(events=True)
        NULL_TELEMETRY.counter("x").add(10)
        NULL_TELEMETRY.gauge("g").set(5)
        NULL_TELEMETRY.histogram("h").observe(1.0)
        NULL_TELEMETRY.record_span("s", "c", 0.0, 1.0)
        with NULL_TELEMETRY.span("collective") as span:
            span.set(outcome="ok")
        after = NULL_TELEMETRY.snapshot(events=True)
        assert after == before
        assert after["counters"] == {}
        assert after["events"] == []

    def test_null_snapshot_matches_schema(self):
        snap = NULL_TELEMETRY.snapshot()
        validate_snapshot(snap)
        assert snap["schema"] == SNAPSHOT_SCHEMA


class TestMerge:
    def _rank_snapshot(self, rank: int) -> dict:
        tel = Telemetry(rank=rank)
        tel.counter("runtime.writes").add(10 * (rank + 1))
        tel.gauge("progress.queue_depth").set(rank)
        tel.histogram("runtime.wait_s").observe(0.001 * (rank + 1))
        tel.record_span("allreduce", "collective", 1.0 + rank, 2.0 + rank)
        return tel.snapshot(events=True)

    def test_merge_sums_counters_and_keeps_per_rank(self):
        merged = merge_snapshots([self._rank_snapshot(r) for r in range(3)])
        validate_snapshot(merged)
        assert merged["ranks"] == [0, 1, 2]
        assert merged["counters"]["runtime.writes"] == 60
        assert merged["per_rank"]["1"]["counters"]["runtime.writes"] == 20

    def test_merge_max_merges_gauges_and_merges_histograms(self):
        merged = merge_snapshots([self._rank_snapshot(r) for r in range(3)])
        assert merged["gauges"]["progress.queue_depth"]["max"] == 2
        hist = merged["histograms"]["runtime.wait_s"]
        assert hist["count"] == 3
        assert hist["min"] == pytest.approx(0.001)
        assert hist["max"] == pytest.approx(0.003)
        assert hist["min"] <= hist["p50"] <= hist["p99"] <= hist["max"]

    def test_merge_tags_events_with_rank_and_sorts_by_time(self):
        merged = merge_snapshots([self._rank_snapshot(r) for r in (2, 0, 1)])
        events = merged["events"]
        assert [e["rank"] for e in events] == [0, 1, 2]
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
