"""Tests of the benchmark harness and report rendering."""

import pytest

from repro.bench import (
    TimingExperiment,
    format_comparison,
    format_series_table,
    run_node_sweep,
    run_size_sweep,
    series_to_rows,
    time_algorithm,
)
from repro.bench.harness import crossover_point
from repro.simulate import skylake_fdr


class TestHarness:
    def _experiment(self):
        return TimingExperiment(
            name="t",
            machine=skylake_fdr(),
            algorithms={"gaspi": "gaspi_allreduce_ring", "mpi": "mpi_allreduce_default"},
        )

    def test_time_algorithm_positive(self):
        t = time_algorithm("gaspi_allreduce_ring", 8, 80_000, skylake_fdr(8))
        assert t > 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            time_algorithm("nope", 8, 100, skylake_fdr(8))

    def test_node_sweep_structure(self):
        series = run_node_sweep(self._experiment(), [2, 4, 8], 80_000)
        assert set(series) == {"gaspi", "mpi"}
        assert [p.parameter for p in series["gaspi"]] == [2, 4, 8]
        assert all(p.seconds > 0 for p in series["mpi"])

    def test_size_sweep_structure(self):
        series = run_size_sweep(self._experiment(), [8_000, 80_000], 8)
        assert [p.payload_bytes for p in series["gaspi"]] == [8_000, 80_000]
        # time grows with message size
        assert series["gaspi"][1].seconds > series["gaspi"][0].seconds

    def test_threshold_kwargs_change_results(self):
        exp = TimingExperiment(
            name="t",
            machine=skylake_fdr(),
            algorithms={"a": "gaspi_bcast_bst", "b": "gaspi_bcast_bst"},
            algorithm_kwargs={"a": {"threshold": 0.25}, "b": {"threshold": 1.0}},
        )
        series = run_node_sweep(exp, [16], 8_000_000)
        assert series["a"][0].seconds < series["b"][0].seconds

    def test_crossover_point(self):
        series = run_size_sweep(
            self._experiment(), [8 * 1024, 8 * 131072, 8 * 2_097_152], 16
        )
        crossover = crossover_point(series["gaspi"], series["mpi"])
        assert crossover is not None
        assert crossover > 8 * 1024  # gaspi does not win at tiny sizes


class TestReport:
    def _series(self):
        return run_node_sweep(
            TimingExperiment(
                name="t",
                machine=skylake_fdr(),
                algorithms={"gaspi": "gaspi_allreduce_ring", "mpi": "mpi_allreduce_default"},
            ),
            [2, 4],
            80_000,
        )

    def test_series_to_rows(self):
        rows = series_to_rows(self._series())
        assert len(rows) == 4
        assert {"algorithm", "parameter", "seconds"} <= set(rows[0])

    def test_format_series_table_contains_labels(self):
        text = format_series_table(self._series(), "nodes", "us", title="demo")
        assert "demo" in text and "gaspi" in text and "mpi" in text
        assert "us" in text

    def test_format_comparison(self):
        text = format_comparison(self._series(), "gaspi")
        assert "relative to 'gaspi'" in text
        with pytest.raises(KeyError):
            format_comparison(self._series(), "missing")


class TestExperimentsSmallScale:
    def test_fig08_structure(self):
        from repro.bench.experiments import fig08_bcast

        result = fig08_bcast("small", elements=10_000)
        assert result["figure"] == "fig08"
        assert "25% gaspi" in result["series"]
        assert len(result["series"]) == 6

    def test_fig11_includes_all_variants(self):
        from repro.bench.experiments import fig11_allreduce_nodes

        result = fig11_allreduce_nodes("small", elements=10_000)
        assert "gaspi" in result["series"]
        assert sum(1 for k in result["series"] if k.startswith("mpi")) == 12

    def test_fig12_reports_crossovers(self):
        from repro.bench.experiments import fig12_allreduce_sizes

        result = fig12_allreduce_sizes("small")
        assert result["crossover_bytes"]
        assert any(v is not None for v in result["crossover_bytes"].values())

    def test_fig13_structure(self):
        from repro.bench.experiments import fig13_alltoall

        result = fig13_alltoall("small")
        assert set(result["series"]) == {4, 8}
        assert result["series"][4]["crossover_bytes"] is not None

    def test_invalid_scale_rejected(self):
        from repro.bench.experiments import fig08_bcast

        with pytest.raises(ValueError):
            fig08_bcast("huge")
