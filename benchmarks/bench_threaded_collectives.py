"""Wall-clock microbenchmarks of the threaded (functional) collectives.

Not a paper figure: these measure the in-process runtime itself so
regressions in the substrate (locking, copies) are visible.  They use
pytest-benchmark's statistics (the paper-style mean ± CI of repeated runs).
"""

import numpy as np
import pytest

from repro.core import Communicator
from repro.gaspi import run_spmd


def _allreduce_job(num_ranks, elements):
    def worker(rt):
        comm = Communicator(rt)
        data = np.full(elements, float(comm.rank + 1))
        out = comm.allreduce(data, algorithm="ring")
        return float(out[0])

    return run_spmd(num_ranks, worker, timeout=60)


def _ssp_job(num_ranks, elements, slack, iterations=5):
    def worker(rt):
        comm = Communicator(rt)
        for _ in range(iterations):
            comm.allreduce_ssp(np.ones(elements), slack=slack)
        comm.close()
        return True

    return run_spmd(num_ranks, worker, timeout=60)


@pytest.mark.parametrize("elements", [1_000, 100_000])
def test_threaded_ring_allreduce(benchmark, elements):
    results = benchmark.pedantic(
        _allreduce_job, args=(4, elements), rounds=3, iterations=1
    )
    assert results == [sum(range(1, 5))] * 4


@pytest.mark.parametrize("slack", [0, 2])
def test_threaded_ssp_allreduce(benchmark, slack):
    results = benchmark.pedantic(_ssp_job, args=(4, 4_096, slack), rounds=3, iterations=1)
    assert all(results)


def test_threaded_alltoall(benchmark):
    def job():
        def worker(rt):
            comm = Communicator(rt)
            send = np.arange(comm.size * 512, dtype=np.float64)
            return comm.alltoall(send).sum()

        return run_spmd(4, worker, timeout=60)

    totals = benchmark.pedantic(job, rounds=3, iterations=1)
    assert len(totals) == 4
