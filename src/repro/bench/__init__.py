"""Benchmark harness: one experiment definition per paper figure.

``benchmarks/`` (pytest-benchmark) calls into this package; every figure
of the paper's evaluation section has a function in
:mod:`repro.bench.experiments` that regenerates its data — either by
simulating collective schedules on a machine model (Figures 8–13) or by
running the threaded SSP/ML experiment (Figures 6–7) — and
:mod:`repro.bench.report` renders the same rows/series the paper plots.
:mod:`repro.bench.faults` holds the fault-tolerance sweeps.  Wall-clock
performance of the library itself is measured and gated by ``perf/`` at
the repository root (``perf/README.md``), not here.
"""

from .harness import (
    SweepPoint,
    TimingExperiment,
    run_node_sweep,
    run_size_sweep,
    time_algorithm,
)
from .report import (
    format_comparison,
    format_kv_table,
    format_series_table,
    series_to_rows,
)
from . import experiments
from . import faults

__all__ = [
    "SweepPoint",
    "TimingExperiment",
    "run_node_sweep",
    "run_size_sweep",
    "time_algorithm",
    "format_series_table",
    "format_comparison",
    "format_kv_table",
    "series_to_rows",
    "experiments",
    "faults",
]
