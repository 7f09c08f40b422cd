#!/usr/bin/env python
"""Quickstart: the policy-driven collective library in ~70 lines.

Runs an 8-rank in-process GASPI world and exercises the paper's
collectives through the v2 API: registry-routed dispatch with
``algorithm="auto"``, first-class :class:`ConsistencyPolicy` objects for
the eventually consistent modes, sub-communicators via ``split()``, and
the SSP Allreduce.

Run with:  python examples/quickstart.py [num_ranks]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import Communicator, ConsistencyPolicy, run_spmd


def worker(runtime):
    comm = Communicator(runtime)
    rank, size = comm.rank, comm.size

    # --- consistent Allreduce: "auto" picks the algorithm by payload ------- #
    # (latency-optimal hypercube for small vectors, the paper's segmented
    # pipelined ring (§IV-A) for large ones — check comm.last_result).
    gradient = np.full(100_000, float(rank + 1))
    total = comm.allreduce(gradient, op="sum")
    allreduce_algo = comm.last_result.algorithm
    assert np.allclose(total, size * (size + 1) / 2)

    # --- eventually consistent Broadcast (25 % of the data, paper §III-B) -- #
    model = np.linspace(0.0, 1.0, 10_000) if rank == 0 else np.zeros(10_000)
    bcast_status = comm.bcast(
        model, root=0, policy=ConsistencyPolicy.data_threshold(0.25)
    )

    # --- eventually consistent Reduce (half of the processes, Figure 10) --- #
    result = np.zeros(10_000)
    reduce_status = comm.reduce(
        np.full(10_000, 1.0),
        result,
        root=0,
        policy=ConsistencyPolicy.process_threshold(0.5),
    )

    # --- AlltoAll (paper §IV-B, the Quantum-Espresso FFT pattern) ---------- #
    blocks = np.arange(size * 16, dtype=np.float64) + 1000.0 * rank
    exchanged = comm.alltoall(blocks)

    # --- sub-communicators: collectives over a rank subset ----------------- #
    half = comm.split(rank % 2, key=rank)
    half_total = half.allreduce(np.full(10, float(rank + 1)))

    # --- SSP Allreduce (Algorithm 1) with a slack of 2 --------------------- #
    # The cached plan keeps the mailboxes and the logical clock until
    # comm.close(); each call's clocks and waits are result.detail.
    ssp = comm.allreduce_ssp(gradient, policy=ConsistencyPolicy.ssp(2)).detail
    comm.close()

    return {
        "rank": rank,
        "allreduce[0]": float(total[0]),
        "allreduce_algorithm": allreduce_algo,
        "bcast_elements_received": bcast_status.elements_received,
        "reduce_participated": reduce_status.participated,
        "alltoall_first_block_from_last_rank": float(exchanged[-16]),
        "half_group_sum": float(half_total[0]),
        "ssp_result_clock": ssp.result_clock,
        "ssp_staleness": ssp.staleness,
    }


def main() -> None:
    num_ranks = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    results = run_spmd(num_ranks, worker)
    print(f"ran {num_ranks} ranks in one process (threaded GASPI runtime)\n")
    for row in results:
        print(
            f"rank {row['rank']}: allreduce={row['allreduce[0]']:.0f} "
            f"(via {row['allreduce_algorithm']}), "
            f"bcast received {row['bcast_elements_received']} elems, "
            f"reduce participated={row['reduce_participated']}, "
            f"half-group sum={row['half_group_sum']:.0f}, "
            f"ssp clock={row['ssp_result_clock']} (staleness {row['ssp_staleness']})"
        )


if __name__ == "__main__":
    main()
