"""Shared helpers for the figure benchmarks.

Every module in this directory regenerates the data behind one figure of
the paper (the figure number is in the module name).  Benchmarks run the
experiment once under ``benchmark.pedantic`` (the experiment itself is
the measured unit) and print the same rows/series the paper plots, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the
figure-regeneration harness.
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def scale() -> str:
    """Experiment scale for benchmark runs.

    ``small`` keeps the suite fast; switch to ``paper`` by editing this
    fixture (or calling the experiment functions directly) to reproduce the
    exact node counts and message sizes of the paper for the simulated
    figures.
    """
    return "small"
