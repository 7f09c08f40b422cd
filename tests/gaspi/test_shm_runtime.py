"""Shared-memory runtime (:mod:`repro.gaspi.shm`): semantics, harness, cleanup."""

from __future__ import annotations

import os
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
from repro.gaspi import (
    GaspiInvalidArgumentError,
    GaspiSegmentError,
    GaspiTimeoutError,
    Group,
    SpmdError,
)
from repro.gaspi.shm import ShmConfig, ShmWorld

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
            for call in calls:  # first use of every code path
                call()
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
            for x in shapes:
                comm.allreduce(x)
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
