"""Shared-memory runtime (:mod:`repro.gaspi.shm`): semantics, harness, cleanup."""

from __future__ import annotations

import gc
import os
import time
import warnings

import numpy as np
import pytest

from repro import (
    Communicator,
    ConsistencyPolicy,
    FaultPlan,
    run_backend,
    run_shm,
)
from repro.core.workspace import RETIRE_BATCH
from repro.gaspi import (
    GaspiInvalidArgumentError,
    GaspiSegmentError,
    GaspiTimeoutError,
    Group,
    SpmdError,
)
from repro.gaspi.shm import _BULK_WRITE_BYTES, ShmConfig, ShmWorld

from tests.helpers import expected_sum, rank_vector


def _shm_entries(uid: str):
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    return [n for n in os.listdir(shm_dir) if n.startswith(uid)]


def _run_clean(num_ranks, fn, **kwargs):
    """run_shm asserting that no shared-memory block had to be swept."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = run_shm(num_ranks, fn, **kwargs)
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]
    return results


# --------------------------------------------------------------------------- #
# GASPI semantics across processes
# --------------------------------------------------------------------------- #
class TestShmSemantics:
    def test_write_notify_data_visible_before_notification(self):
        def worker(rt):
            rt.segment_create(7, 256)
            rt.barrier()
            if rt.rank == 0:
                staged = rt.segment_view(7, np.float64, count=4)
                staged[:] = [1.0, 2.0, 3.0, 4.0]
                for target in range(1, rt.size):
                    rt.write_notify(7, 0, target, 7, 64, 32, notification_id=5,
                                    notification_value=9)
                rt.wait()
                rt.barrier()
                return None
            nid = rt.notify_waitsome(7, 5, 1, timeout=30.0)
            assert nid == 5
            # GASPI guarantee: the data is already visible at this point.
            got = rt.segment_view(7, np.float64, offset=64, count=4).copy()
            value = rt.notify_reset(7, 5)
            rt.barrier()
            return got.tolist(), value

        results = _run_clean(3, worker, timeout=60)
        for out in results[1:]:
            assert out == ([1.0, 2.0, 3.0, 4.0], 9)

    def test_notify_wait_probe_peek_drain(self):
        def worker(rt):
            rt.segment_create(3, 64, num_notifications=32)
            rt.barrier()
            if rt.rank == 0:
                rt.notify(1, 3, 4, notification_value=2)
                rt.notify(1, 3, 9, notification_value=7)
                rt.barrier()
                return None
            out = {}
            assert rt.notify_waitsome(3, 0, 32, timeout=30.0) is not None
            out["peek"] = rt.notify_peek(3, 4)
            out["probe_hit"] = rt.notify_probe(3, 4, 1)
            out["probe_miss"] = rt.notify_probe(3, 20, 5)
            out["timeout"] = rt.notify_waitsome(3, 20, 5, timeout=0.05)
            # Wait until both posts are visible, then drain atomically.
            assert rt.notify_waitsome(3, 9, 1, timeout=30.0) == 9
            out["drain"] = rt.notify_drain(3)
            out["after"] = rt.notify_probe(3, 0, 32)
            rt.barrier()
            return out

        out = _run_clean(2, worker, timeout=60)[1]
        assert out["peek"] == 2
        assert out["probe_hit"] is True and out["probe_miss"] is False
        assert out["timeout"] is None
        assert out["drain"] == {4: 2, 9: 7}
        assert out["after"] is False

    def test_atomic_fetch_add_across_processes(self):
        def worker(rt):
            rt.segment_create(2, 64)
            rt.barrier()
            old = [rt.atomic_fetch_add(2, 0, 0, 1) for _ in range(5)]
            rt.barrier()
            counter = int(rt.segment_view(2, np.int64, count=1)[0]) if rt.rank == 0 else None
            rt.barrier()
            return old, counter

        results = _run_clean(4, worker, timeout=60)
        assert results[0][1] == 20  # every increment landed exactly once
        seen = sorted(v for olds, _ in results for v in olds)
        assert seen == list(range(20))  # each fetch saw a unique old value

    def test_group_barrier_and_broken_barrier_recovers(self):
        def worker(rt):
            import time

            evens = Group([0, 2])
            out = {}
            if rt.rank % 2 == 0:
                rt.barrier(evens)  # subgroup barrier must not involve odds
            rt.barrier()
            if rt.rank == 3:
                # Play dead for this round: the others' finite timeout
                # breaks the barrier instead of hanging on us...
                time.sleep(1.2)
            else:
                try:
                    rt.barrier(timeout=0.3)
                    out["broke"] = False
                except GaspiTimeoutError:
                    out["broke"] = True
            # ...and once the broken round drained, a full-world barrier
            # (the "recovered" rank included) works again.
            rt.barrier(timeout=30.0)
            out["recovered"] = True
            return out

        results = _run_clean(4, worker, timeout=60)
        assert all(r["recovered"] for r in results)
        assert all(results[r]["broke"] for r in range(3))

    def test_segment_errors_match_threaded_semantics(self):
        def worker(rt):
            rt.segment_create(1, 128)
            with pytest.raises(Exception):  # duplicate id
                rt.segment_create(1, 128)
            with pytest.raises(GaspiSegmentError):
                rt.segment_view(99)
            with pytest.raises(GaspiSegmentError):
                rt.segment_delete(99)
            with pytest.raises(GaspiInvalidArgumentError):
                rt.write(1, 0, 99, 1, 0, 8)  # target outside the world
            with pytest.raises(GaspiInvalidArgumentError):
                rt.wait(queue=10_000)
            rt.barrier()
            with pytest.raises(GaspiSegmentError):
                # Peer never created segment 55: fail fast, like threaded.
                rt.write(1, 0, (rt.rank + 1) % rt.size, 55, 0, 8)
            with pytest.raises(GaspiSegmentError):
                rt.write(1, 0, (rt.rank + 1) % rt.size, 1, 120, 64)  # OOB
            assert rt.supports_bind is False
            rt.barrier()
            rt.segment_delete(1)
            return True

        assert _run_clean(2, worker, timeout=60) == [True, True]

    def test_segment_delete_invalidates_remote_attachments(self):
        def worker(rt):
            rt.segment_create(4, 64)
            rt.barrier()
            peer = (rt.rank + 1) % rt.size
            rt.write(4, 0, peer, 4, 0, 8)  # caches the remote attachment
            rt.barrier()
            rt.segment_delete(4)
            rt.segment_create(4, 64)  # same id, fresh block
            rt.barrier()
            staged = rt.segment_view(4, np.float64, count=1)
            staged[0] = float(rt.rank) + 0.5
            rt.write_notify(4, 0, peer, 4, 8, 8, notification_id=1)
            assert rt.notify_waitsome(4, 1, 1, timeout=30.0) == 1
            got = float(rt.segment_view(4, np.float64, offset=8, count=1)[0])
            rt.barrier()
            return got

        results = _run_clean(2, worker, timeout=60)
        # The write landed in the *new* block, not the stale mapping.
        assert results == [1.5, 0.5]


# --------------------------------------------------------------------------- #
# the split segment lock: board ops never wait for a bulk copy, reads never tear
# --------------------------------------------------------------------------- #
class TestSplitSegmentLock:
    def test_segment_read_never_sees_a_half_applied_bulk_write(self):
        """The SSP mailbox property: one rank alternates two 1 MiB patterns
        into a peer's segment while the peer snapshots it — every snapshot
        is one whole pattern (or the initial zeros), never a mix."""
        size = 1 << 20
        assert size >= _BULK_WRITE_BYTES

        def worker(rt):
            rt.segment_create(1, size, num_notifications=4)
            rt.barrier()
            if rt.rank == 0:
                patterns = [np.full(size, fill, np.uint8) for fill in (0x11, 0xEE)]
                writes = 0
                while not rt.notify_probe(1, 1, 1):  # until the reader says stop
                    rt.write_notify_from(patterns[writes & 1], 1, 1, 0, 0)
                    writes += 1
                rt.barrier()
                return writes
            torn, seen = 0, set()
            until = time.monotonic() + 1.0
            while time.monotonic() < until:
                snapshot = rt.segment_read(1, np.uint8, 0, size)
                low, high = int(snapshot.min()), int(snapshot.max())
                torn += low != high
                seen.add(low)
            rt.notify(0, 1, 1)
            rt.barrier()
            return torn, seen

        writes, (torn, seen) = _run_clean(2, worker, timeout=60)
        assert torn == 0
        assert writes > 10 and {0x11, 0xEE} <= seen  # the two really interleaved

    def test_board_ops_and_bulk_copies_do_not_share_a_lock(self):
        """Structural, both directions.  With a bulk copy into rank 1's
        segment held in progress (its data lock taken), an incoming small
        notify, a small ``write_notify``, ``notify_reset`` and
        ``notify_drain`` on that segment all complete.  And with the
        segment's board lock held, a bulk write still lands its data —
        only its notification waits."""
        bulk = 4 * _BULK_WRITE_BYTES

        def worker(rt):
            rt.segment_create(1, bulk, num_notifications=8)
            rt.barrier()
            world = rt.world
            if rt.rank == 0:
                with world.data_lock(1, 1):  # "a bulk copy into (1, 1) is in progress"
                    rt.notify(1, 1, 2)
                    rt.write_notify_from(np.full(64, 5, np.uint8), 1, 1, 0, 3)
                    acked = rt.notify_waitsome(1, 0, 1, timeout=20.0)
                assert acked == 0, "board ops on the segment waited for the data lock"
                rt.barrier()  # rank 1 now holds its board lock
                rt.write_notify_from(np.full(bulk, 9, np.uint8), 1, 1, 0, 4)
                rt.barrier()
                return True
            assert rt.notify_waitsome(1, 2, 1, timeout=20.0) == 2
            assert rt.notify_waitsome(1, 3, 1, timeout=20.0) == 3
            assert rt.notify_reset(1, 2) == 1
            assert rt.notify_drain(1) == {3: 1}
            rt.notify(0, 1, 0)
            data = rt.segment_view(1, np.uint8)
            with world.segment_lock(1, 1):
                rt.barrier()
                until = time.monotonic() + 20.0
                while data[-1] != 9 and time.monotonic() < until:
                    time.sleep(0.001)
                landed = bool((data == 9).all())
                early = rt.notify_peek(1, 4)
            assert landed, "the bulk copy waited for the board lock"
            assert early == 0, "the notification overtook the board lock"
            assert rt.notify_waitsome(1, 4, 1, timeout=20.0) == 4
            del data
            rt.barrier()
            return True

        assert _run_clean(2, worker, timeout=90) == [True, True]


# --------------------------------------------------------------------------- #
# waiting: poll with a core per rank, park when oversubscribed
# --------------------------------------------------------------------------- #
def _cores(monkeypatch, count):
    """Make the worlds created in this test see ``count`` usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestWaitPolicy:
    def test_oversubscribed_budget_is_exactly_spin(self, monkeypatch):
        _cores(monkeypatch, 1)
        with ShmWorld(2, ShmConfig(spin=7)) as world:
            assert not world.dedicated_cores
            registered = []  # waiters registered at each poll

            def poll():
                registered.append(world._notify_waiters.value)

            assert world.hybrid_wait(poll, timeout=0.05) is None
            assert registered.count(0) == 1 + 7  # the entry probe + spin yields
            assert set(registered[8:]) == {1}  # every later poll is a parked one
            assert (world.waits_spun, world.waits_parked) == (0, 1)

    def test_dedicated_polls_for_a_wait_slice_before_parking(self, monkeypatch):
        _cores(monkeypatch, 2)
        with ShmWorld(2, ShmConfig(spin=7, wait_slice=0.02)) as world:
            assert world.dedicated_cores
            spins = parked_polls = 0
            last_spin = 0.0

            def poll():  # allocates no container: a GC pause would skew the clock
                nonlocal spins, parked_polls, last_spin
                if world._notify_waiters.value:
                    parked_polls += 1
                else:
                    spins += 1
                    last_spin = time.monotonic()

            start = time.monotonic()
            assert world.hybrid_wait(poll, timeout=0.1) is None
            assert spins > 1 + 7  # not bounded by ``spin``
            assert 0.019 <= last_spin - start < 0.06  # polled for one wait_slice
            assert parked_polls >= 1  # and then it parked
            assert (world.waits_spun, world.waits_parked) == (0, 1)
            assert world.hybrid_wait(lambda: 3, timeout=1.0) == 3  # no wait at all
            assert (world.waits_spun, world.waits_parked) == (0, 1)
            assert "waits_spun=0, waits_parked=1" in repr(world.runtime(0))

    def test_a_caller_that_slices_its_wait_parks_in_every_slice(self, monkeypatch):
        """The progress thread waits in bites shorter than ``wait_slice``:
        each bite gets the ``spin`` budget and then parks (releasing the
        GIL), or a late peer would make the bites add up to one long spin."""
        _cores(monkeypatch, 2)
        with ShmWorld(2, ShmConfig(spin=7, wait_slice=0.02)) as world:
            assert world.dedicated_cores
            registered = []

            def poll():
                registered.append(world._notify_waiters.value)

            for bite in range(1, 4):
                del registered[:]
                assert world.hybrid_wait(poll, timeout=0.005) is None
                assert registered.count(0) == 1 + 7
                assert set(registered[8:]) == {1}
                assert (world.waits_spun, world.waits_parked) == (0, bite)

    @staticmethod
    def _late_root_bcast(rt):
        """A planned 4 MiB bcast whose root arrives 20 ms late."""
        comm = Communicator(rt)
        buf = np.full(1 << 19, float(rt.rank))
        comm.bcast(buf, root=0)  # compile the plan
        rt.barrier()
        world = rt.world  # the counters are this rank process's own
        spun, parked = world.waits_spun, world.waits_parked
        if rt.rank == 0:
            time.sleep(0.02)
            buf[:] = 7.0
        comm.bcast(buf, root=0)
        counts = world.waits_spun - spun, world.waits_parked - parked
        delivered = bool((buf == 7.0).all())
        comm.close()
        return counts, delivered

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="needs a core per rank"
    )
    def test_receiver_with_a_core_to_itself_never_parks(self):
        # wait_slice far above the root's delay: scheduling noise cannot
        # push a wait past the polling phase.
        results = _run_clean(
            2, self._late_root_bcast, config=ShmConfig(wait_slice=0.25), timeout=60
        )
        (spun, parked), delivered = results[1]
        assert delivered and parked == 0 and spun >= 1

    def test_oversubscribed_receiver_parks(self, monkeypatch):
        _cores(monkeypatch, 1)
        (spun, parked), delivered = _run_clean(2, self._late_root_bcast, timeout=60)[1]
        assert delivered and parked >= 1

    @pytest.mark.parametrize("cores", [1, 64], ids=["oversubscribed", "dedicated"])
    def test_finite_deadlines_hold_in_both_modes(self, monkeypatch, cores):
        _cores(monkeypatch, cores)

        def worker(rt):
            rt.segment_create(1, 64, num_notifications=8)
            rt.barrier()
            start = time.monotonic()
            got = rt.notify_waitsome(1, 3, 1, timeout=0.05)  # never posted
            elapsed = time.monotonic() - start
            rt.barrier()
            broke = None
            if rt.rank == rt.size - 1:
                time.sleep(0.8)  # play dead for one round
            else:
                try:
                    rt.barrier(timeout=0.2)
                    broke = False
                except GaspiTimeoutError:
                    broke = True
            rt.barrier(timeout=30.0)  # the broken round drained
            return got, elapsed, broke, rt.world.dedicated_cores

        results = _run_clean(3, worker, timeout=60)
        for got, elapsed, broke, dedicated in results:
            assert got is None and 0.05 <= elapsed < 0.15
            assert dedicated == (cores >= 3)
        assert [r[2] for r in results] == [True, True, None]


# --------------------------------------------------------------------------- #
# the run_shm harness
# --------------------------------------------------------------------------- #
class TestRunShm:
    def test_exceptions_propagate_with_rank(self):
        def worker(rt):
            if rt.rank == 2:
                raise ValueError("boom on rank 2")
            rt.barrier(timeout=1.0)
            return rt.rank

        with pytest.raises(SpmdError) as excinfo:
            run_shm(4, worker, timeout=60)
        assert any(rank == 2 and "boom" in str(exc)
                   for rank, exc, _ in excinfo.value.failures)

    def test_stuck_rank_is_terminated_and_reported(self):
        def worker(rt):
            if rt.rank == 1:
                import time

                time.sleep(60.0)
            return rt.rank

        with pytest.raises(SpmdError) as excinfo:
            run_shm(2, worker, timeout=1.5)
        assert any(isinstance(exc, TimeoutError) and rank == 1
                   for rank, exc, _ in excinfo.value.failures)

    def test_leaked_segments_are_swept_and_warned(self):
        def worker(rt):
            rt.segment_create(11, 256)  # never deleted by the worker...
            rt.barrier()
            return True

        # ...but ShmRuntime.close() in the harness still unlinks owned
        # segments, so a *forgotten delete* is not a leak.
        _run_clean(2, worker, timeout=60)

        def leaky(rt):
            rt.segment_create(12, 256)
            rt.barrier()
            # Simulate a rank losing track of its mapping entirely.
            rt._local.clear()
            return True

        with pytest.warns(ResourceWarning, match="swept"):
            run_shm(2, leaky, timeout=60)

    def test_nothing_left_in_dev_shm_after_close(self):
        world = ShmWorld(2, ShmConfig())
        uid = world.uid
        assert _shm_entries(uid)  # the control block exists while open
        world.close()
        assert _shm_entries(uid) == []

    def test_run_backend_dispatches_and_validates(self):
        def worker(rt):
            return type(rt).__name__

        assert run_backend(2, worker, backend="threaded", timeout=60) == [
            "ThreadedRuntime",
            "ThreadedRuntime",
        ]
        assert run_backend(2, worker, backend="shm", timeout=60) == [
            "ShmRuntime",
            "ShmRuntime",
        ]
        with pytest.raises(GaspiInvalidArgumentError, match="unknown backend"):
            run_backend(2, worker, backend="quantum")


# --------------------------------------------------------------------------- #
# the stack above the runtime, cross-process
# --------------------------------------------------------------------------- #
class TestShmStack:
    def test_communicator_run_selects_backend(self):
        def worker(comm):
            value = comm.allreduce(np.full(64, float(comm.rank) + 1.0))
            return float(value[0]), type(comm.runtime).__name__

        shm = Communicator.run(4, worker, backend="shm", timeout=90)
        threaded = Communicator.run(4, worker, backend="threaded", timeout=90)
        assert [v for v, _ in shm] == [10.0] * 4 == [v for v, _ in threaded]
        assert {name for _, name in shm} == {"ShmRuntime"}
        assert {name for _, name in threaded} == {"ThreadedRuntime"}

    def test_communicator_split_runs_cross_process(self):
        def worker(rt):
            comm = Communicator(rt)
            half = comm.split(rt.rank % 2)
            total = half.allreduce(np.full(32, float(rt.rank)))
            half.close()
            comm.close()
            return float(total[0])

        results = _run_clean(4, worker, timeout=90)
        assert results == [2.0, 4.0, 2.0, 4.0]  # 0+2 and 1+3

    def test_fault_injection_delay_and_drop_cross_process(self):
        """Pure-delay plans perturb timing only; results stay exact."""

        def worker(rt):
            comm = Communicator(
                rt, faults=FaultPlan(delay={0: 0.002}, jitter=0.001)
            )
            value = comm.allreduce(rank_vector(rt.rank, 64))
            comm.close()
            return value.tobytes()

        results = _run_clean(4, worker, timeout=90)
        assert all(r == results[0] for r in results)  # ranks agree bitwise
        np.testing.assert_allclose(
            np.frombuffer(results[0]), expected_sum(4, 64), rtol=1e-12
        )

    def test_degraded_completion_after_cross_process_crash(self):
        """A crashed rank process: survivors complete at the process
        threshold, report the missing rank, and nothing leaks."""
        crash = 3
        policy = ConsistencyPolicy(
            threshold=0.5, mode="processes", on_failure="complete"
        )

        def worker(rt):
            comm = Communicator(
                rt,
                faults=FaultPlan.single_crash(crash, at_op=0),
                detect_timeout=1.0,
                policy=policy,
            )
            if rt.rank == crash:
                with pytest.raises(Exception):
                    comm.allreduce(rank_vector(rt.rank, 50))
                comm.close()
                return None
            value = comm.allreduce(rank_vector(rt.rank, 50))
            missing = tuple(comm.last_result.missing_ranks)
            comm.close()
            return value.tobytes(), missing

        results = _run_clean(4, worker, timeout=90)
        assert results[crash] is None
        survivors = np.zeros(50)
        for rank in range(4):
            if rank != crash:
                survivors += rank_vector(rank, 50)
        for rank, out in enumerate(results):
            if rank == crash:
                continue
            value, missing = out
            assert missing == (crash,)
            np.testing.assert_allclose(
                np.frombuffer(value), survivors, rtol=1e-12
            )


# --------------------------------------------------------------------------- #
# descriptor hygiene: segments come and go, /proc/self/fd stays flat
# --------------------------------------------------------------------------- #
def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
class TestShmDescriptors:
    """Every created and every peer-attached block holds a mapping and two
    descriptors; both must go when the segment is deleted, or a loop of
    cold collectives walks into ``RLIMIT_NOFILE`` and wedges the world."""

    def test_cold_calls_do_not_leak_descriptors(self):
        def worker(rt):
            comm = Communicator(rt, plan_cache=0)
            small, big = np.ones(128), np.ones(1 << 15)
            calls = [
                lambda: comm.allreduce(small),
                lambda: comm.bcast(small, root=0),
                lambda: comm.reduce(small, np.empty_like(small)),
                lambda: comm.alltoall(small),
                lambda: comm.allreduce(big, algorithm="ring_pipelined"),
                lambda: comm.bcast(big, root=1, algorithm="bst_pipelined"),
            ]
            # First use of every code path, and past the pool's rotation:
            # released workspaces come back two batch barriers later, and
            # the classes of the six paths share every batch.
            for i in range(4 * RETIRE_BATCH * len(calls)):
                calls[i % len(calls)]()
            before = _open_fds()
            for i in range(300):
                calls[i % len(calls)]()
            after = _open_fds()
            comm.close()
            return before, after

        for before, after in _run_clean(2, worker, timeout=120):
            assert after == before

    def test_plan_cache_evictions_do_not_leak_descriptors(self):
        def worker(rt):
            comm = Communicator(rt, plan_cache=4)
            shapes = [np.ones(64 + 8 * i) for i in range(12)]
            shapes.append(np.ones(1 << 15))  # a pipelined plan in the cycle
            for _ in range(2 * RETIRE_BATCH):  # past the pool's rotation
                for x in shapes:
                    comm.allreduce(x)
            # The forked worker inherits the pytest process's uncollected
            # SharedMemory garbage (earlier tests' worlds); collect it now,
            # or a GC pass between the two snapshots closes its descriptors.
            gc.collect()
            before = _open_fds()
            evictions0 = comm.plan_cache_stats().evictions
            while comm.plan_cache_stats().evictions - evictions0 < 300:
                for x in shapes:
                    comm.allreduce(x)
            after = _open_fds()
            comm.close()
            return before, after

        for before, after in _run_clean(2, worker, timeout=120):
            assert after == before

    def test_cold_barrier_loop_survives_a_low_descriptor_limit(self):
        import resource

        def worker(rt):
            _soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))
            comm = Communicator(rt)
            for _ in range(2000):
                comm.barrier(algorithm="auto")
            comm.close()
            return _open_fds()

        assert max(_run_clean(2, worker, timeout=120)) < 256
