"""The tolerant trio's wire traffic and Küttler-style convergence.

Two properties that hold whatever implements the flat exchanges:

* a count table — writes, notifications and bytes per call of each
  tolerant collective at 4 and 8 ranks, with every rank present and with
  the last one absent — pins what goes over the wire;
* Küttler & Härtig's correction property, drawn by hypothesis: survivors of
  any crash set below the process threshold report exactly that set
  missing and hold the fold over the others, and after the crashed ranks
  recover and re-send, ``DegradedResult.correct()`` gives every survivor
  the exact full-participation value.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Communicator, ConsistencyPolicy, FaultPlan, RankCrashedError
from repro.faults import (
    FAULT_SEGMENT_ID,
    FaultyRuntime,
    send_late_contribution,
    tolerant_allreduce,
    tolerant_reduce,
)
from repro.gaspi.runtime import RuntimeWrapper
from repro.gaspi.threaded import WorldConfig

from tests.helpers import spmd

#: Detection window of the count table: only a rank that is absent waits it out.
DETECT = 0.2
#: float64 elements per call (128-byte slots).
ELEMENTS = 16


class _WireCounts(RuntimeWrapper):
    """Counts the posts that reached their target: (writes, notifications, bytes).

    A write is a post that carries data; a notification is a post that sets
    a notification, with or without data.  A post rejected because its
    target has no workspace (a rank that never entered) moved nothing.
    """

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.writes = self.notifications = self.bytes = 0

    def _count(self, nbytes: int, notified: bool) -> None:
        self.writes += nbytes > 0
        self.notifications += notified
        self.bytes += nbytes

    def write_notify(self, segment_id_local, offset_local, target_rank, segment_id_remote,
                     offset_remote, size, notification_id, notification_value=1, queue=0):
        self.inner.write_notify(
            segment_id_local, offset_local, target_rank, segment_id_remote,
            offset_remote, size, notification_id, notification_value, queue,
        )  # fmt: skip
        self._count(size, True)

    def write_notify_from(self, source, target_rank, segment_id_remote, offset_remote,
                          notification_id, notification_value=1, queue=0):
        self.inner.write_notify_from(
            source, target_rank, segment_id_remote, offset_remote, notification_id,
            notification_value, queue,
        )  # fmt: skip
        self._count(np.asarray(source).nbytes, True)

    def write(self, segment_id_local, offset_local, target_rank, segment_id_remote,
              offset_remote, size, queue=0):
        self.inner.write(
            segment_id_local, offset_local, target_rank, segment_id_remote,
            offset_remote, size, queue,
        )  # fmt: skip
        self._count(size, False)

    def notify(self, target_rank, segment_id_remote, notification_id,
               notification_value=1, queue=0):
        self.inner.notify(target_rank, segment_id_remote, notification_id,
                          notification_value, queue)
        self._count(0, True)


def _one_call(rt, collective: str, absent):
    if rt.rank == absent:
        return None  # never enters: no workspace, no posts
    counted = _WireCounts(rt)
    comm = Communicator(counted, detect_timeout=DETECT)
    policy = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")
    data = np.full(ELEMENTS, float(rt.rank + 1))
    if collective == "allreduce":
        comm.allreduce(data, policy=policy, algorithm="tolerant")
        result = comm.last_result
    elif collective == "reduce":
        result = comm.reduce(data, root=0, policy=policy, algorithm="tolerant")
    else:
        result = comm.bcast(data, root=0, policy=policy, algorithm="tolerant")
    assert result.algorithm == f"gaspi_{collective}_tolerant"
    missing = result.missing_ranks
    if result.detail is not None:
        result.detail.close()
    comm.close()
    return counted.writes, counted.notifications, counted.bytes, missing


#: (collective, ranks, absent rank) -> (writes, notifications, bytes) per
#: call, summed over the ranks.  An allreduce writes every live peer, a
#: reduce writes the root, a broadcast's root writes the payload and each
#: receiver acknowledges it with a bare notification.
WIRE_TABLE = {
    ("allreduce", 4, None): (12, 12, 12 * 128),
    ("allreduce", 4, 3): (6, 6, 6 * 128),
    ("allreduce", 8, None): (56, 56, 56 * 128),
    ("allreduce", 8, 7): (42, 42, 42 * 128),
    ("reduce", 4, None): (3, 3, 3 * 128),
    ("reduce", 4, 3): (2, 2, 2 * 128),
    ("reduce", 8, None): (7, 7, 7 * 128),
    ("reduce", 8, 7): (6, 6, 6 * 128),
    ("bcast", 4, None): (3, 6, 3 * 128),
    ("bcast", 4, 3): (2, 4, 2 * 128),
    ("bcast", 8, None): (7, 14, 7 * 128),
    ("bcast", 8, 7): (6, 12, 6 * 128),
}


@pytest.mark.parametrize(
    "collective,ranks,absent",
    list(WIRE_TABLE),
    ids=[f"{c}-{r}-absent{a}" for c, r, a in WIRE_TABLE],
)
def test_wire_counts_per_call(collective, ranks, absent):
    outcomes = spmd(
        ranks, _one_call, collective, absent,
        world_config=WorldConfig(delivery="immediate"), timeout=30.0,
    )  # fmt: skip
    live = [o for o in outcomes if o is not None]
    writes, notifications, nbytes = (sum(o[i] for o in live) for i in range(3))
    assert (writes, notifications, nbytes) == WIRE_TABLE[collective, ranks, absent]
    # Who names the absent rank: everybody who waits for it.
    waiting = live if collective == "allreduce" else live[:1]
    assert all(o[3] == (() if absent is None else (absent,)) for o in waiting)


# --------------------------------------------------------------------------- #
# Küttler & Härtig: degraded completion, then correction to the exact value
# --------------------------------------------------------------------------- #
KUTTLER_DETECT = 0.25


@st.composite
def _crash_scenarios(draw):
    ranks = draw(st.integers(2, 8))
    collective = draw(st.sampled_from(["allreduce", "reduce"]))
    root = draw(st.integers(0, ranks - 1))
    crashable = [r for r in range(ranks) if collective == "allreduce" or r != root]
    # Somebody survives (a reduce's root always does); the threshold is
    # set to what survives, so the crash set is never above it.
    crashed = draw(
        st.lists(st.sampled_from(crashable), unique=True, min_size=1, max_size=ranks - 1)
    )
    op = draw(st.sampled_from(["sum", "max"]))
    return ranks, collective, root, sorted(crashed), op


def _contribution(rank: int) -> np.ndarray:
    # Integer-valued floats: every fold order gives the exact same bits.
    return (np.arange(ELEMENTS) * (rank + 3) % 11 + rank).astype(np.float64)


def _fold(op: str, ranks) -> np.ndarray:
    parts = [_contribution(r) for r in ranks]
    return np.sum(parts, axis=0) if op == "sum" else np.max(parts, axis=0)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_crash_scenarios())
def test_corrections_converge_to_the_exact_result(scenario):
    ranks, collective, root, crashed, op = scenario
    survivors = [r for r in range(ranks) if r not in crashed]
    holders = survivors if collective == "allreduce" else [root]
    finished = threading.Barrier(len(survivors))
    resend = threading.Event()
    threshold = len(survivors) / ranks
    call = tolerant_allreduce if collective == "allreduce" else tolerant_reduce

    def worker(rt):
        faulty = FaultyRuntime(rt, FaultPlan.crashes(crashed, at_op=0))
        data = _contribution(rt.rank)
        kwargs = {} if collective == "allreduce" else {"root": root}
        try:
            detail = call(
                faulty, data, op=op, threshold=threshold, on_failure="complete",
                detect_timeout=KUTTLER_DETECT, **kwargs,
            )  # fmt: skip
        except RankCrashedError:
            resend.wait(30.0)
            faulty.recover()
            targets = None if collective == "allreduce" else [root]
            send_late_contribution(faulty, data, FAULT_SEGMENT_ID, targets=targets)
            return None
        degraded = None if detail.value is None else detail.value.copy()
        missing = detail.missing_ranks
        finished.wait(30.0)
        resend.set()
        corrected = detail.correct(timeout=10.0)
        exact = None if corrected is None else corrected.copy()
        return missing, degraded, exact, detail.complete

    outcomes = spmd(ranks, worker, timeout=60.0)
    partial, exact = _fold(op, survivors), _fold(op, range(ranks))
    for rank in holders:
        missing, degraded, corrected, complete = outcomes[rank]
        assert missing == tuple(crashed)
        assert np.array_equal(degraded, partial)
        assert np.array_equal(corrected, exact)
        assert complete
