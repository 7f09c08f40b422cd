"""ProgressEngine background-thread lifecycle and mid-flight error handling.

The asynchronous progress thread (``comm.start_progress_thread()``) must:
complete outstanding handles without the caller pumping, be joined
exactly once by ``close()`` (idempotently), and survive a handle that
errors mid-flight — the error surfaces on ``handle.wait()``, the engine
drains, and later collectives on the same plan still work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communicator
from repro.gaspi import GaspiError
from repro.gaspi.runtime import RuntimeWrapper

from tests.helpers import expected_sum, rank_vector, spmd


def _exploding(name):
    def post(self, *args, **kwargs):
        if self.armed:
            raise GaspiError(f"rank {self.rank}: injected mid-flight failure")
        return getattr(self.inner, name)(*args, **kwargs)

    return post


class ArmableExplodingRuntime(RuntimeWrapper):
    """Fails every data-plane op while armed; everything else is ``inner``'s."""

    armed = False
    write = _exploding("write")
    notify = _exploding("notify")
    write_notify = _exploding("write_notify")
    write_notify_from = _exploding("write_notify_from")


def test_background_thread_drives_handles_and_close_joins_once():
    """start_progress_thread → handles complete unpumped → close() joins."""
    elements = 256

    def worker(rt):
        comm = Communicator(rt)
        comm.start_progress_thread()
        handles = [
            comm.iallreduce(rank_vector(rt.rank, elements) * (tag + 1), tag=tag)
            for tag in range(3)
        ]
        # No manual pumping: the background thread must finish these.
        values = [h.wait(timeout=30.0).value.copy() for h in handles]
        engine = comm._progress
        thread = engine._thread
        assert engine.threaded and thread is not None and thread.is_alive()
        assert engine.active == 0
        comm.close()
        first_join = (not engine.threaded) and not thread.is_alive()
        comm.close()  # idempotent: the already-joined thread stays joined
        second_ok = not engine.threaded and not thread.is_alive()
        return values, first_join, second_ok

    expected = expected_sum(4, elements)
    for values, first_join, second_ok in spmd(4, worker):
        assert first_join and second_ok
        for tag, value in enumerate(values):
            np.testing.assert_allclose(value, expected * (tag + 1), rtol=1e-12)


def test_stop_and_restart_progress_thread_is_idempotent():
    def worker(rt):
        comm = Communicator(rt)
        comm.start_progress_thread()
        comm.start_progress_thread()  # second start is a no-op
        t1 = comm._progress._thread
        comm.stop_progress_thread()
        comm.stop_progress_thread()  # second stop is a no-op
        assert comm._progress._thread is None and not t1.is_alive()
        comm.start_progress_thread()  # restart after stop works
        h = comm.iallreduce(rank_vector(rt.rank, 64))
        h.wait(timeout=30.0)
        comm.close()
        return True

    assert all(spmd(4, worker))


def test_handle_error_mid_flight_surfaces_on_wait_and_engine_recovers():
    """A handle that errors mid-flight: wait() raises, the engine drains,
    the background thread survives, and the same plan works again."""
    elements = 128

    def worker(rt):
        wrapper = ArmableExplodingRuntime(rt)
        comm = Communicator(wrapper)
        comm.start_progress_thread()
        # Call 1 compiles the plan and completes normally.
        comm.iallreduce(rank_vector(rt.rank, elements)).wait(timeout=30.0)
        # Call 2 fails on its first data-plane operation, on every rank.
        wrapper.armed = True
        handle = comm.iallreduce(rank_vector(rt.rank, elements))
        with pytest.raises(GaspiError, match="injected mid-flight"):
            handle.wait(timeout=30.0)
        assert handle.done and handle.result is None
        assert isinstance(handle.error, GaspiError)
        assert comm._progress.active == 0  # the failed handle was retired
        # Call 3 (disarmed): the engine and the plan still work.
        wrapper.armed = False
        value = comm.iallreduce(rank_vector(rt.rank, elements)).wait(
            timeout=30.0
        ).value.copy()
        thread = comm._progress._thread
        assert thread is not None and thread.is_alive()  # survived the error
        comm.close()
        assert not thread.is_alive()
        return value

    expected = expected_sum(4, elements)
    for value in spmd(4, worker):
        np.testing.assert_allclose(value, expected, rtol=1e-12)


def test_wait_all_completes_after_a_mid_flight_error():
    """close()/wait_all() must not hang when a handle failed mid-flight."""

    def worker(rt):
        wrapper = ArmableExplodingRuntime(rt)
        comm = Communicator(wrapper)
        comm.iallreduce(rank_vector(rt.rank, 64)).wait(timeout=30.0)
        wrapper.armed = True
        failed = comm.iallreduce(rank_vector(rt.rank, 64))
        comm.wait_all(timeout=30.0)  # drains the failed handle, no raise
        assert failed.done and failed.error is not None
        wrapper.armed = False
        comm.close()
        return True

    assert all(spmd(4, worker))
