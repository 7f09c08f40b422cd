"""Property: a recycled workspace is indistinguishable from a fresh one.

Every collective of a communicator leases its workspace from one
:class:`~repro.core.workspace.WorkspacePool`: cold calls give theirs back
at once, compiled plans at eviction, and the next lessee — possibly a
different algorithm with a different notification-id map — finds the
segment scrubbed behind a barrier.  For a random sequence of collectives
over a small plan cache (so plans are evicted all the time), with a
persistent handle pinned across the evictions, a tagged ``iallreduce`` in
flight during the first of them and optionally one rank made a straggler
by a fault plan, every result must equal the same call on a fresh
communicator's cold path and the NumPy reference, and closing the
communicator must leave no segment, descriptor or shared-memory block
behind.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Communicator, ConsistencyPolicy, FaultPlan, run_backend
from repro.core.bcast import threshold_elements
from repro.core.topology import BinomialTree
from repro.core.workspace import WorkspacePool, size_class
from repro.faults.injection import FaultyRuntime
from repro.gaspi.group import Group

from tests.helpers import spmd

COLLECTIVES = ("bcast", "reduce", "allreduce", "alltoall")
POLICIES = {
    "strict": ConsistencyPolicy(),
    "data": ConsistencyPolicy.data_threshold(0.5),
    "processes": ConsistencyPolicy.process_threshold(0.5),
}


@st.composite
def cases(draw):
    ranks = draw(st.integers(min_value=2, max_value=8))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(COLLECTIVES),
                st.integers(min_value=0, max_value=ranks - 1),  # root
                st.integers(min_value=1, max_value=4096),  # elements
            ),
            min_size=4,
            max_size=9,
        )
    )
    return {
        "ranks": ranks,
        "ops": ops,
        "plan_cache": draw(st.sampled_from([0, 1, 2, 16])),
        "policy": draw(st.sampled_from(sorted(POLICIES))),
        "straggler": draw(st.integers(min_value=0, max_value=ranks - 1)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


def _payload(case, rank, index, elements):
    """Small-integer float64: every sum is exact in any order."""
    rng = np.random.default_rng((case["seed"], rank, index))
    return rng.integers(-8, 9, size=elements).astype(np.float64)


def _policy_for(case, collective):
    """The drawn policy where the collective supports it, else strict."""
    kind = case["policy"]
    if (collective == "reduce" and kind != "strict") or (
        collective == "bcast" and kind == "data"
    ):
        return POLICIES[kind]
    return POLICIES["strict"]


def _call(comm, case, index):
    """Issue op ``index`` on fresh buffers; this rank's output bytes."""
    collective, root, elements = case["ops"][index]
    rank, size = comm.rank, comm.size
    policy = _policy_for(case, collective)
    if collective == "alltoall":
        block = max(1, elements // size)
        out = comm.alltoall(_payload(case, rank, index, block * size))
        return out.tobytes()
    send = _payload(case, rank, index, elements)
    if collective == "bcast":
        buffer = send if rank == root else np.full(elements, 77.0)
        comm.bcast(buffer, root=root, policy=policy)
        return buffer.tobytes()
    if collective == "reduce":
        out = np.full(elements, 77.0) if rank == root else None
        comm.reduce(send, out, root=root, policy=policy)
        return None if out is None else out.tobytes()
    return comm.allreduce(send, np.empty(elements)).tobytes()


def _reference(case, index):
    collective, root, elements = case["ops"][index]
    size = case["ranks"]
    policy = _policy_for(case, collective)
    if collective == "alltoall":
        block = max(1, elements // size)
        sent = [_payload(case, r, index, block * size) for r in range(size)]
        return [
            np.concatenate([s[r * block : (r + 1) * block] for s in sent]).tobytes()
            for r in range(size)
        ]
    sent = [_payload(case, r, index, elements) for r in range(size)]
    if collective == "allreduce":
        return [sum(sent).tobytes()] * size
    prefix = elements
    contributors = range(size)
    if policy.threshold < 1.0 and policy.mode.value == "data":
        prefix = threshold_elements(elements, policy.threshold)
    elif policy.threshold < 1.0:
        contributors = BinomialTree(size, root).participating_ranks(policy.threshold)
    out = np.full(elements, 77.0)
    if collective == "bcast":
        out[:prefix] = sent[root][:prefix]
        return [sent[root].tobytes() if r == root else out.tobytes() for r in range(size)]
    out[:prefix] = sum(sent[r] for r in contributors)[:prefix]
    return [out.tobytes() if r == root else None for r in range(size)]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _worker(rt, case):
    fds_before = _open_fds()
    faults = None
    if case["policy"] == "processes":
        # One straggler: its posts land long after the ranks that did not
        # have to wait for them returned (and moved on to the next miss).
        faults = FaultPlan(delay={case["straggler"]: 2e-4})
    comm = Communicator(rt, plan_cache=case["plan_cache"], faults=faults)
    pinned = in_flight = None
    pinned_send = _payload(case, rt.rank, 1000, 48)
    flight_send, flight_out = _payload(case, rt.rank, 1001, 300), np.empty(300)
    if case["plan_cache"]:
        pinned = comm.persistent("allreduce", np.empty(48))
        # Cached but not pinned: the first miss below evicts its plan and
        # has to drain this handle first.
        in_flight = comm.iallreduce(flight_send, flight_out, tag=7)
    planned, cold = [], []
    for index in range(len(case["ops"])):
        planned.append(_call(comm, case, index))
        fresh = Communicator(rt, segment_base=1 << 20, plan_cache=0)
        cold.append(_call(fresh, case, index))
        fresh.close()
    extras = None
    if pinned is not None:
        in_flight.wait(timeout=60)
        extras = (pinned(pinned_send).value.tobytes(), flight_out.tobytes())
        pinned.close()
    leased = range(comm._segment_base, comm._pool.next_id)
    comm.close()
    leaks = [sid for sid in leased if rt.segment_exists(sid)]
    world = getattr(rt, "world", None)
    if hasattr(world, "stale_segments"):  # shm: this rank's /dev/shm blocks
        leaks += world.stale_segments(rt.rank)
        leaks += ["fd"] * abs(_open_fds() - fds_before)
    return planned, cold, extras, leaks


def _check(case, backend):
    results = run_backend(case["ranks"], _worker, case, backend=backend, timeout=120)
    size = case["ranks"]
    for index in range(len(case["ops"])):
        expected = _reference(case, index)
        for rank, (planned, cold, _extras, _leaks) in enumerate(results):
            assert planned[index] == expected[rank], (rank, index, "numpy")
            assert cold[index] == expected[rank], (rank, index, "cold")
    for rank, (_planned, _cold, extras, leaks) in enumerate(results):
        assert leaks == [], (rank, leaks)
        if extras is not None:
            pinned_sum = sum(_payload(case, r, 1000, 48) for r in range(size))
            flight_sum = sum(_payload(case, r, 1001, 300) for r in range(size))
            assert extras == (pinned_sum.tobytes(), flight_sum.tobytes()), rank


@given(case=cases())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_recycled_workspaces_are_exact_on_threaded(case):
    _check(case, "threaded")


@given(case=cases())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_recycled_workspaces_are_exact_on_shm(case):
    _check(case, "shm")


# --------------------------------------------------------------------------- #
# pool units
# --------------------------------------------------------------------------- #
@given(nbytes=st.integers(min_value=1, max_value=1 << 34))
def test_size_classes_waste_at_most_a_quarter(nbytes):
    served = size_class(nbytes)
    assert served >= nbytes
    assert served <= max(64, nbytes + nbytes // 4 + 1)
    assert size_class(served) == served


def test_a_segment_is_leasable_one_release_after_its_own():
    def worker(rt):
        pool = WorkspacePool(rt, 50, 8)
        a = pool.lease(1000, 4)
        b = pool.lease(1000, 4)
        pool.release(a)  # a: cooling
        c = pool.lease(1000, 4)  # not a — nobody proved a scrubbed yet
        pool.release(b)  # barrier: a is free, b cooling
        d = pool.lease(1000, 4)
        pool.close()
        return a, b, c, d, pool.next_id, [s for s in (a, b, c) if rt.segment_exists(s)]

    for a, b, c, d, next_id, left in spmd(3, worker):
        assert len({a, b, c}) == 3 and d == a
        assert next_id == 53 and left == []


def test_a_crashed_rank_releases_best_effort_and_never_hangs():
    crashed = 3

    def worker(rt):
        faulty = FaultyRuntime(rt, FaultPlan.single_crash(crashed, at_op=0))
        pool = WorkspacePool(faulty, 60, 8)
        sid = pool.lease(256, 4)  # everyone is still alive here
        if rt.rank == crashed:
            with pytest.raises(Exception):
                faulty.notify(0, sid, 0)  # first data-plane op: the crash
            pool.release(sid)  # cannot synchronise: deletes, pools nothing
            idle = (pool._cooling, pool._free)
            pool.close()
        else:
            idle = ([], {})
            # The survivors bound their teardown: the dead rank never joins.
            pool.close(Group([r for r in range(rt.size) if r != crashed]), timeout=5.0)
        return idle, rt.segment_exists(sid)

    for idle, exists in spmd(4, worker):
        assert idle == ([], {}) and not exists
