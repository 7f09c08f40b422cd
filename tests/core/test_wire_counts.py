"""Wire counts per collective call, pinned: a count moves only with this table.

Each row is one warm (plan-cached) call on an ``immediate``-delivery
threaded world — deterministic, so the counts are exact — summed over
the ranks, from the same :class:`~repro.telemetry.Telemetry` counters the
benchmark's ``gaspi.*_per_op`` metrics read.  A change that moves a count
edits its row and says why in CHANGES.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communicator
from repro.gaspi.threaded import WorldConfig
from repro.telemetry import Telemetry

from tests.helpers import spmd

KIB = 1 << 10
MIB = 1 << 20
COUNTERS = (
    "runtime.writes",
    "runtime.notifications_posted",
    "runtime.bytes_written",
    "runtime.barriers",
    "runtime.segments_created",
)

#: (collective, ranks, payload bytes) -> (algorithm, writes, notifications,
#: bytes, barriers, segments created) of one warm call.  The pipelined ring
#: writes each of its 2(P-1) steps in sub-chunks to one neighbour, one
#: notification per sub-chunk; its bytes are 2(P-1) x the payload,
#: wherever the allgather lands.
WIRE_TABLE = {
    ("allreduce", 2, 1 * MIB): ("gaspi_allreduce_ring_pipelined", 4, 4, 2 * MIB, 0, 0),
    ("allreduce", 2, 4 * MIB): ("gaspi_allreduce_ring_pipelined", 16, 16, 8 * MIB, 0, 0),
    ("allreduce", 8, 1 * MIB): ("gaspi_allreduce_ring_pipelined", 112, 112, 14 * MIB, 0, 0),
    ("allreduce", 8, 4 * MIB): ("gaspi_allreduce_ring_pipelined", 112, 112, 56 * MIB, 0, 0),
}

#: (ranks, slack) -> (writes, notifications, bytes, barriers, segments
#: created) of one warm 64 KiB ``allreduce_ssp``: log2 P posts of the whole
#: running partial per rank, each its own notification, at every slack.
SSP_WIRE_TABLE = {
    (2, 0): (2, 2, 128 * KIB, 0, 0),
    (2, 2): (2, 2, 128 * KIB, 0, 0),
    (8, 0): (24, 24, 1536 * KIB, 0, 0),
    (8, 2): (24, 24, 1536 * KIB, 0, 0),
}


def _warm_call(rt, collective, nbytes, **kwargs):
    telemetry = Telemetry(rank=rt.rank, max_events=0)
    comm = Communicator(rt, telemetry=telemetry)
    send, recv = np.ones(nbytes // 8), np.zeros(nbytes // 8)
    if collective == "allreduce_ssp":
        def call(send, recv):
            comm.allreduce_ssp(send, **kwargs)
    else:
        call = getattr(comm, collective)
    call(send, recv)  # compiles the plan: a segment create and its barrier
    before = [telemetry.counter(name).value for name in COUNTERS]
    call(send, recv)
    counts = [telemetry.counter(name).value - b for name, b in zip(COUNTERS, before)]
    algorithm = comm.last_result.algorithm
    comm.close()
    return algorithm, counts


@pytest.mark.parametrize(
    "collective,ranks,nbytes", list(WIRE_TABLE), ids=[f"{c}-{r}-{n // MIB}m" for c, r, n in WIRE_TABLE]
)
def test_wire_counts_per_warm_call(collective, ranks, nbytes):
    outcomes = spmd(
        ranks, _warm_call, collective, nbytes,
        world_config=WorldConfig(delivery="immediate"), timeout=60.0,
    )  # fmt: skip
    assert {algorithm for algorithm, _ in outcomes} == {WIRE_TABLE[collective, ranks, nbytes][0]}
    totals = tuple(sum(counts[i] for _, counts in outcomes) for i in range(len(COUNTERS)))
    assert totals == WIRE_TABLE[collective, ranks, nbytes][1:]


@pytest.mark.parametrize("ranks,slack", list(SSP_WIRE_TABLE), ids=[f"{r}-s{k}" for r, k in SSP_WIRE_TABLE])
def test_ssp_wire_counts_per_warm_call(ranks, slack):
    outcomes = spmd(
        ranks, _warm_call, "allreduce_ssp", 64 * KIB, slack=slack,
        world_config=WorldConfig(delivery="immediate"), timeout=60.0,
    )  # fmt: skip
    assert {algorithm for algorithm, _ in outcomes} == {"gaspi_allreduce_ssp_hypercube"}
    totals = tuple(sum(counts[i] for _, counts in outcomes) for i in range(len(COUNTERS)))
    assert totals == SSP_WIRE_TABLE[ranks, slack]
