"""Figure-regeneration benchmarks (pytest-benchmark based).

A package so the benchmark modules can import the shared helpers with
``from .conftest import run_once`` under pytest's default import mode.
Run with ``pytest benchmarks/ -s``.
"""
