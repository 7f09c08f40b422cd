"""The fault-experiment sweeps in repro.bench.faults."""

from __future__ import annotations

import math

import pytest

from repro.bench.faults import (
    crash_sweep,
    detection_sweep,
    elasticity_sweep,
    measure_crash_errors,
    skew_sweep,
)


class TestCrashSweep:
    def test_simulated_time_falls_with_crash_count(self):
        result = crash_sweep(
            num_ranks=8, crash_counts=(0, 1, 2), measure_errors=False
        )
        rows = result["rows"]
        assert [r["crashes"] for r in rows] == [0, 1, 2]
        times = [r["simulated_us"] for r in rows]
        assert times[2] < times[1] < times[0]
        assert "crash count" in result["table"]

    def test_threaded_errors_and_correction(self):
        rows = measure_crash_errors(
            num_ranks=4, crash_counts=(0, 1), elements=128, threshold=0.5
        )
        by_crashes = {r["crashes"]: r for r in rows}
        assert by_crashes[0]["degraded_error"] < 1e-12
        assert by_crashes[0]["missing"] == 0
        assert by_crashes[1]["missing"] == 1
        assert by_crashes[1]["contributors"] == 3
        assert by_crashes[1]["degraded_error"] > 1e-3
        assert by_crashes[1]["corrected_error"] < 1e-12

    def test_infeasible_crash_count_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            measure_crash_errors(num_ranks=4, crash_counts=(4,), threshold=0.75)


class TestElasticitySweep:
    def test_measures_shrink_and_respawn_times(self):
        result = elasticity_sweep(rank_counts=(4,), elements=256)
        rows = result["rows"]
        assert [r["ranks"] for r in rows] == [4]
        assert rows[0]["time_to_shrink_s"] > 0
        assert rows[0]["time_to_respawn_s"] > 0
        assert not math.isnan(rows[0]["time_to_shrink_s"])
        assert "shrink" in result["table"]

    def test_rejects_single_rank(self):
        with pytest.raises(ValueError, match="2 ranks"):
            elasticity_sweep(rank_counts=(1,))


class TestDetectionSweep:
    def test_detection_confirms_inside_the_degraded_window(self):
        """The perf gate on supervised recovery: the detector confirms a
        silent rank (p95) before the collectives' own missing-rank window
        (``DEFAULT_DETECT_TIMEOUT``) would have declared it."""
        result = detection_sweep(
            periods=(0.01, 0.02), confirm_phis=(3.0, 6.0), trials=2
        )
        rows = result["rows"]
        assert len(rows) == 4  # period x confirm_phi
        assert all(r["within_budget"] for r in rows), result["table"]


class TestSkewSweep:
    def test_completion_grows_with_skew(self):
        result = skew_sweep(num_ranks=8, skews_us=(0.0, 100.0, 1000.0))
        times = [r["simulated_us"] for r in result["rows"]]
        assert times == sorted(times)
        assert times[-1] > times[0]
        assert not any(math.isnan(t) for t in times)

    def test_scenario_shapes_differ(self):
        sorted_t = skew_sweep(num_ranks=8, skews_us=(500.0,), scenario="sorted_arrival")
        random_t = skew_sweep(num_ranks=8, skews_us=(500.0,), scenario="random_arrival")
        assert sorted_t["rows"][0]["simulated_us"] > 0
        assert random_t["rows"][0]["simulated_us"] > 0
