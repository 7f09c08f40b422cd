"""Property: a recycled workspace is indistinguishable from a fresh one.

Every collective of a communicator leases its workspace from one
:class:`~repro.core.workspace.WorkspacePool`: cold calls give theirs back
at once, compiled plans at eviction, and the next lessee — possibly a
different algorithm with a different notification-id map — finds the
segment scrubbed behind a barrier.  For a random sequence of collectives
— longer than a batch of releases, so the pool recycles — over a small
plan cache (so plans are evicted all the time), with a
persistent handle pinned across the evictions, a tagged ``iallreduce`` in
flight during the first of them and optionally one rank made a straggler
by a fault plan, every result must equal the same call on a fresh
communicator's cold path and the NumPy reference, and closing the
communicator must leave no segment, descriptor or shared-memory block
behind.

The pool's lifecycle is also checked as a state machine: drawn SPMD
programs of cold, cached and exact leases, optionally with one rank falling
silent, under a runtime wrapper that counts barriers and checks the pool
after every operation — see ``_Lifecycle``.  Every pool and teardown wait
is bounded by ``PLAN_WAIT_TIMEOUT``, one test per wait site.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Communicator, ConsistencyPolicy, FaultPlan, Telemetry, run_backend
from repro.core import plan
from repro.core.bcast import threshold_elements
from repro.core.topology import BinomialTree
from repro.core.workspace import MAX_IDLE, POOL_BYTES, RETIRE_BATCH, WorkspacePool, size_class
from repro.faults.injection import FaultyRuntime
from repro.gaspi.constants import DEFAULT_NOTIFICATION_COUNT, GASPI_BLOCK
from repro.gaspi.errors import GaspiError
from repro.gaspi.group import Group
from repro.gaspi.runtime import RuntimeWrapper
from repro.telemetry import TelemetryRuntime

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
            min_size=RETIRE_BATCH + 1,
            max_size=RETIRE_BATCH + 5,
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


def _barriers(tel):
    return tel.snapshot()["counters"].get("runtime.barriers", 0)


def test_a_segment_is_leasable_one_barrier_after_its_batch():
    def worker(rt):
        tel = Telemetry(rank=rt.rank, max_events=0)
        pool = WorkspacePool(TelemetryRuntime(rt, tel), 50, 64)
        batch = [pool.lease(1000, 4) for _ in range(RETIRE_BATCH)]  # misses
        synced = _barriers(tel)
        for sid in batch[:-1]:
            pool.release(sid)  # retired: no barrier
        short = _barriers(tel) - synced
        pool.release(batch[-1])  # the batch's barrier: all of it cooling
        full = _barriers(tel) - synced
        fresh = pool.lease(1000, 4)  # a miss — nobody proved a scrub yet ...
        recycled = pool.lease(1000, 4)  # ... behind whose barrier the batch is free
        pool.close()
        left = [s for s in batch + [fresh] if rt.segment_exists(s)]
        return batch, short, full, fresh, recycled, pool.next_id, left

    for batch, short, full, fresh, recycled, next_id, left in spmd(3, worker):
        assert (short, full) == (0, 1)
        assert fresh not in batch and recycled in batch
        assert next_id == 50 + RETIRE_BATCH + 1 and left == []


@pytest.mark.parametrize("backend", ["threaded", "shm"])
def test_close_quiesces_a_partial_batch_behind_one_barrier(backend):
    def worker(rt):
        tel = Telemetry(rank=rt.rank, max_events=0)
        pool = WorkspacePool(TelemetryRuntime(rt, tel), 70, 16)
        retired = [pool.lease(1000, 4) for _ in range(RETIRE_BATCH - 1)]
        for sid in retired:
            pool.release(sid)
        synced = _barriers(tel)
        pool.close()
        left = [s for s in retired if rt.segment_exists(s)]
        world = getattr(rt, "world", None)
        if hasattr(world, "stale_segments"):  # shm: this rank's /dev/shm blocks
            left += world.stale_segments(rt.rank)
        return _barriers(tel) - synced, left

    for barriers, left in run_backend(3, worker, backend=backend, timeout=60):
        assert barriers == 1 and left == []


def test_a_crashed_rank_releases_best_effort_and_never_hangs():
    crashed = 3

    def worker(rt):
        faulty = FaultyRuntime(rt, FaultPlan.single_crash(crashed, at_op=0))
        pool = WorkspacePool(faulty, 60, 16)
        # Everyone is still alive here: a batch and one more, all misses.
        sids = [pool.lease(256, 4) for _ in range(RETIRE_BATCH + 1)]
        pool.release(sids.pop(0))  # retired, as on any runtime
        started = time.perf_counter()
        if rt.rank == crashed:
            with pytest.raises(Exception):
                faulty.notify(0, sids[0], 0)  # first data-plane op: the crash
            for sid in sids:  # the batch's barrier fails: deleted, not pooled
                pool.release(sid)
            pool.close()
        else:
            # The survivors close over their group: the dead rank never joins.
            pool.close(Group([r for r in range(rt.size) if r != crashed]))
        elapsed = time.perf_counter() - started
        return elapsed, [sid for sid in range(60, 76) if rt.segment_exists(sid)]

    for elapsed, left in spmd(4, worker):
        assert elapsed < plan.PLAN_WAIT_TIMEOUT and left == []


class _BrokenBarrier(RuntimeWrapper):
    """A runtime that is not fault-injected but whose barrier breaks."""

    broken = False

    def barrier(self, group=None, timeout=GASPI_BLOCK):
        if self.broken:
            raise GaspiError("barrier broken")
        self.inner.barrier(group, timeout)


def test_a_broken_barrier_deletes_the_batch_it_held_back():
    def worker(rt):
        runtime = _BrokenBarrier(rt)
        pool = WorkspacePool(runtime, 60, 32)
        sids = [pool.lease(256, 4) for _ in range(2 * RETIRE_BATCH - 1)]
        runtime.broken = True
        for sid in sids[:RETIRE_BATCH]:
            pool.release(sid)  # the batch's barrier fails: the batch is gone
        batch = (pool._retired, pool._cooling, pool._free)
        gone = [sid for sid in sids[:RETIRE_BATCH] if rt.segment_exists(sid)]
        for sid in sids[RETIRE_BATCH:]:
            pool.release(sid)  # short of a batch: retired
        held = len(pool._retired)
        pool.close()  # cannot synchronise either: deletes the retired
        return batch, gone, held, [sid for sid in sids if rt.segment_exists(sid)]

    for batch, gone, held, left in spmd(2, worker):
        assert batch == ([], [], {}) and gone == []
        assert held == RETIRE_BATCH - 1 and left == []


def test_a_workspace_of_the_byte_budget_is_synchronised_at_its_release():
    def worker(rt):
        tel = Telemetry(rank=rt.rank, max_events=0)
        pool = WorkspacePool(TelemetryRuntime(rt, tel), 80, 16)
        synced = []
        for _ in range(4):
            sid = pool.lease(POOL_BYTES + 1, 4)
            before = _barriers(tel)
            pool.release(sid)
            synced.append(_barriers(tel) - before)
        live = [s for s in range(80, pool.next_id) if rt.segment_exists(s)]
        pool.close()
        return synced, live
    # A stream of workspaces above the budget holds two, one cooling and
    # one idle.
    for synced, live in spmd(2, worker):
        assert synced == [1] * 4 and live == [80, 81]


def test_a_stream_of_large_cold_alltoalls_holds_two_segments():
    def worker(rt):
        tel = Telemetry(rank=rt.rank, max_events=0)
        comm = Communicator(rt, plan_cache=0, telemetry=tel)
        send = np.full((8 << 20) // 8, float(rt.rank))  # 8 MiB
        counts, live = [], []
        for _ in range(20):
            before = _runtime_counts(tel)
            comm.alltoall(send)
            counts.append(tuple(b - a for a, b in zip(before, _runtime_counts(tel))))
            ids = range(comm._segment_base, comm._pool.next_id)
            live.append(sum(map(rt.segment_exists, ids)))
        comm.close()
        return counts[2:], max(live[2:])

    for counts, live in spmd(2, worker):
        assert live <= 2
        assert set(counts) == {(1, 0)}  # per call: one barrier, no create


def _runtime_counts(tel):
    counters = tel.snapshot()["counters"]
    return tuple(counters.get(f"runtime.{name}", 0) for name in ("barriers", "segments_created"))


def _held(pool):
    """Bytes a pool holds unleased (idle, cooling, retired) and its largest class."""
    sizes = [key[0] for key, ids in pool._free.items() for _ in ids]
    sizes += [key[0] for key, _ in pool._cooling]
    sizes += [key[0] for key, _, _ in pool._retired]
    return sum(sizes), max(sizes, default=0)


@pytest.mark.parametrize("backend", ["threaded", "shm"])
def test_a_size_sweep_holds_the_byte_budget_plus_two_of_its_largest_class(backend):
    # Eight sizes per octave from 1 KiB to 8 MiB: without a budget over idle
    # bytes, class high-water marks stay idle (78 MiB threaded, 115 MiB shm).
    sizes = sorted({int(1024 * 2 ** (i / 8)) // 8 for i in range(8 * 13 + 1)})

    def worker(rt):
        comm = Communicator(rt)
        peak = 0
        for elements in sizes:
            buffer = np.full(elements, float(rt.rank))
            comm.allreduce(buffer)
            peak = max(peak, _held(comm._pool)[0])
            comm.bcast(buffer, root=0)
            peak = max(peak, _held(comm._pool)[0])
        comm.close()
        return peak

    for peak in run_backend(2, worker, backend=backend, timeout=120):
        assert peak <= POOL_BYTES + 2 * (8 << 20), peak


@pytest.mark.parametrize("backend", ["threaded", "shm"])
def test_survivors_close_after_a_crash_that_follows_a_pooled_cold_call(backend):
    crashed = 2
    policy = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")

    def worker(rt):
        # A cold alltoall is two data-plane ops per rank: the crash fires
        # at the first op after it.
        faults = FaultPlan.single_crash(crashed, at_op=2)
        comm = Communicator(rt, faults=faults, detect_timeout=1.0)
        comm.alltoall(np.arange(3.0 * comm.size))  # everyone alive: released
        missing = None
        if rt.rank == crashed:
            with pytest.raises(Exception):
                comm.allreduce(np.full(8, 1.0), policy=policy)
        else:
            comm.allreduce(np.full(8, 1.0), policy=policy)
            missing = tuple(comm.last_result.missing_ranks)
        leased = range(comm._segment_base, comm._pool.next_id)
        comm.close()  # no world barrier the dead rank would miss
        left = [sid for sid in leased if rt.segment_exists(sid)]
        world = getattr(rt, "world", None)
        if hasattr(world, "stale_segments"):  # shm: this rank's /dev/shm blocks
            left += world.stale_segments(rt.rank)
        return missing, left

    results = run_backend(3, worker, backend=backend, timeout=60)
    del results[crashed]  # a crashed rank cannot free what it holds
    for missing, left in results:
        assert missing == (crashed,) and left == []


# --------------------------------------------------------------------------- #
# every pool and teardown wait is bounded
# --------------------------------------------------------------------------- #
class _SilentPeer:
    """Rank 0 runs an action while rank 1 stays out of every barrier.

    :meth:`run` returns ``(outcome, seconds)`` on rank 0 (``outcome`` is
    the action's result, or the :class:`TimeoutError` it raised) and
    ``None`` on rank 1, which waits until rank 0 is done.
    """

    def __init__(self):
        self.done = threading.Event()

    def run(self, rt, action):
        if rt.rank == 1:
            self.done.wait(30)
            return None
        started = time.perf_counter()
        try:
            outcome = action()
        except TimeoutError as exc:
            outcome = exc
        self.done.set()
        return outcome, time.perf_counter() - started


def test_a_miss_whose_peer_never_arrives_raises_a_named_timeout(monkeypatch):
    monkeypatch.setattr("repro.core.plan.PLAN_WAIT_TIMEOUT", 0.2)

    silent = _SilentPeer()

    def worker(rt):
        outcome = silent.run(rt, lambda: WorkspacePool(rt, 90, 4).lease(1000, 4))
        return outcome, [sid for sid in range(90, 94) if rt.segment_exists(sid)]

    (error, elapsed), left = spmd(2, worker)[0]
    assert isinstance(error, TimeoutError) and elapsed < 5.0 and left == []
    for part in ("rank 0", "workspace miss 90", "timed out"):
        assert part in str(error)


def test_a_batch_barrier_whose_peer_never_arrives_deletes_the_batch(monkeypatch):
    silent = _SilentPeer()

    def worker(rt):
        pool = WorkspacePool(rt, 90, 16)
        sids = [pool.lease(256, 4) for _ in range(RETIRE_BATCH)]  # together

        def release_batch():
            for sid in sids:
                pool.release(sid)  # the last one fills the batch: its barrier
            return (pool._retired, pool._cooling, pool._free)

        rt.barrier()
        monkeypatch.setattr("repro.core.plan.PLAN_WAIT_TIMEOUT", 0.2)
        outcome = silent.run(rt, release_batch)
        if rt.rank == 1:
            pool.close()  # rank 0 holds nothing: this barrier times out too
        return outcome, [sid for sid in sids if rt.segment_exists(sid)]

    (held, elapsed), left = spmd(2, worker)[0]
    assert held == ([], [], {}) and elapsed < 5.0 and left == []


def test_closing_with_a_silent_peer_returns_within_the_bound(monkeypatch):
    monkeypatch.setattr("repro.core.plan.PLAN_WAIT_TIMEOUT", 0.2)
    silent = _SilentPeer()

    def worker(rt):
        comm = Communicator(rt)
        comm.allreduce(np.ones(64))  # a cached plan: its workspace is leased
        comm.alltoall(np.ones(64))  # a cold call: its workspace is retired
        leased = range(comm._segment_base, comm._pool.next_id)
        outcome = silent.run(rt, comm.close)
        if rt.rank == 1:
            comm.close()
        return outcome, [sid for sid in leased if rt.segment_exists(sid)]

    results = spmd(2, worker)
    (_, elapsed), _ = results[0]
    assert elapsed < 5.0
    assert [left for _, left in results] == [[], []]


# --------------------------------------------------------------------------- #
# the pool's lifecycle as a state machine, on both backends
# --------------------------------------------------------------------------- #
class _Lifecycle(RuntimeWrapper):
    """Counts one rank's barriers and tracks the state of its pool's segments.

    A segment is leased, or released at some barrier count.  One leased
    again without being created anew — a recycled segment — must have
    waited out two barriers since its release: one after which nobody
    posts at it any more, one after which every rank has scrubbed it.
    Once ``stopped`` is set the rank is silent: its barriers fail, as a
    crashed rank's do.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.barriers = 0
        self.stopped = False
        self.created = set()
        self.released = {}  # segment id -> barriers before its release
        self.violations = []

    def barrier(self, group=None, timeout=GASPI_BLOCK):
        if self.stopped:
            raise GaspiError(f"rank {self.rank} stopped")
        self.inner.barrier(group, timeout)
        self.barriers += 1

    def segment_create(self, segment_id, size, num_notifications=DEFAULT_NOTIFICATION_COUNT):
        self.inner.segment_create(segment_id, size, num_notifications)
        self.created.add(segment_id)

    def watch(self, pool):
        lease, release = pool.lease, pool.release

        def watched_lease(nbytes, notification_ids, exact=False):
            self.created.clear()
            sid = lease(nbytes, notification_ids, exact)
            waited = self.barriers - self.released.pop(sid, self.barriers - 2)
            if sid not in self.created and waited < 2:
                self.violations.append(f"segment {sid} leased {waited} barriers after release")
            return sid

        def watched_release(sid):
            self.released[sid] = self.barriers
            release(sid)

        pool.lease, pool.release = watched_lease, watched_release

    def check(self, pool, step):
        idle = sum(map(len, pool._free.values()))
        held, largest = _held(pool)
        if idle > MAX_IDLE:
            self.violations.append(f"step {step}: {idle} idle segments")
        if held > POOL_BYTES + 2 * largest:
            self.violations.append(f"step {step}: {held} bytes held, largest class {largest}")
        if held != pool._held:
            self.violations.append(f"step {step}: {held} bytes held, pool counts {pool._held}")


OPERATIONS = ("alltoall", "bcast", "allreduce", "alltoallv")


@st.composite
def programs(draw):
    ranks = draw(st.integers(min_value=2, max_value=4))
    exponents = st.integers(min_value=3, max_value=23)  # 8 B .. 8 MiB
    sizes = exponents.flatmap(lambda e: st.integers(1 << e, min(1 << 23, (2 << e) - 1)))
    palette = draw(st.lists(sizes, min_size=1, max_size=4))  # so segments recycle
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(OPERATIONS), st.sampled_from(palette).map(lambda n: n // 8)),
            min_size=RETIRE_BATCH,
            max_size=2 * RETIRE_BATCH,
        )
    )
    stop = draw(st.none() | st.tuples(st.integers(0, ranks - 1), st.integers(1, len(steps))))
    return {
        "ranks": ranks,
        "steps": steps,
        "plan_cache": draw(st.sampled_from([0, 2])),
        "stop": stop,
    }


def _step(comm, operation, elements):
    size, rank = comm.size, comm.rank
    if operation == "alltoall":
        comm.alltoall(np.ones(max(1, elements // size) * size))
    elif operation == "bcast":
        comm.bcast(np.full(elements, float(rank)), root=0)
    elif operation == "allreduce":
        comm.allreduce(np.ones(elements))
    else:  # every rank receives a different total: an exact lease
        block = min(elements, 4096) // size + 1
        comm.alltoallv(np.ones(size * (block + rank)), [block + rank] * size,
                       [block + r for r in range(size)])


def _run_program(rt, program, stopped_now, survivors_done):
    runtime = _Lifecycle(rt)
    comm = Communicator(runtime, plan_cache=program["plan_cache"])
    runtime.watch(comm._pool)
    stopped, stop_at = program["stop"] or (None, len(program["steps"]))
    for index, (operation, elements) in enumerate(program["steps"][:stop_at]):
        _step(comm, operation, elements)
        runtime.check(comm._pool, index)
    leased = range(comm._segment_base, comm._pool.next_id)
    bound, closing = plan.PLAN_WAIT_TIMEOUT, None
    if rt.rank == stopped:
        # Silent from here on; its memory outlives the survivors' teardown.
        stopped_now.set()
        for _ in range(rt.size - 1):
            survivors_done.acquire(timeout=bound)
        runtime.stopped = True
        comm.close()
    else:
        if stopped is not None:  # as a failure detector would, once it stopped
            stopped_now.wait(bound)
            comm.suspect(stopped)
        started = time.perf_counter()
        comm.close()
        closing = time.perf_counter() - started
        if stopped is not None:
            survivors_done.release()
    left = [sid for sid in leased if rt.segment_exists(sid)]
    world = getattr(rt, "world", None)
    if hasattr(world, "stale_segments"):  # shm: this rank's /dev/shm blocks
        left += world.stale_segments(rt.rank)
    return runtime.violations, closing, bound, left


def _check_program(program, backend):
    blocks = set(glob.glob("/dev/shm/repro-*"))
    stopped_now, survivors_done = multiprocessing.Event(), multiprocessing.Semaphore(0)
    results = run_backend(
        program["ranks"], _run_program, program, stopped_now, survivors_done,
        backend=backend, timeout=90,
    )
    for rank, (violations, closing, bound, left) in enumerate(results):
        assert violations == [], (rank, violations)
        assert closing is None or closing < bound, (rank, closing)
        assert left == [], (rank, left)
    assert set(glob.glob("/dev/shm/repro-*")) <= blocks


@given(program=programs())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_pool_lifecycle_holds_on_threaded(program):
    _check_program(program, "threaded")


@given(program=programs())
@settings(max_examples=24, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_pool_lifecycle_holds_on_shm(program):
    _check_program(program, "shm")
