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
from repro.gaspi.runtime import GaspiRuntime

from tests.helpers import expected_sum, rank_vector, spmd


class ArmableExplodingRuntime(GaspiRuntime):
    """Delegating wrapper that fails every data-plane op while armed."""

    def __init__(self, base):
        self._base = base
        self.armed = False

    # -- identity -------------------------------------------------------- #
    @property
    def rank(self):
        return self._base.rank

    @property
    def size(self):
        return self._base.size

    # -- fault trigger ---------------------------------------------------- #
    def _maybe_explode(self):
        if self.armed:
            raise GaspiError(f"rank {self.rank}: injected mid-flight failure")

    # -- data plane (armed) ------------------------------------------------ #
    def write(self, *args, **kwargs):
        self._maybe_explode()
        return self._base.write(*args, **kwargs)

    def notify(self, *args, **kwargs):
        self._maybe_explode()
        return self._base.notify(*args, **kwargs)

    def write_notify(self, *args, **kwargs):
        self._maybe_explode()
        return self._base.write_notify(*args, **kwargs)

    def write_notify_from(self, *args, **kwargs):
        self._maybe_explode()
        return self._base.write_notify_from(*args, **kwargs)

    # -- everything else delegates ----------------------------------------- #
    def segment_create(self, *args, **kwargs):
        return self._base.segment_create(*args, **kwargs)

    def segment_delete(self, *args, **kwargs):
        return self._base.segment_delete(*args, **kwargs)

    def segment_bind(self, *args, **kwargs):
        return self._base.segment_bind(*args, **kwargs)

    @property
    def supports_bind(self):
        return self._base.supports_bind

    def segment_view(self, *args, **kwargs):
        return self._base.segment_view(*args, **kwargs)

    def segment_size(self, *args, **kwargs):
        return self._base.segment_size(*args, **kwargs)

    def segment_read(self, *args, **kwargs):
        return self._base.segment_read(*args, **kwargs)

    def notify_waitsome(self, *args, **kwargs):
        return self._base.notify_waitsome(*args, **kwargs)

    def notify_reset(self, *args, **kwargs):
        return self._base.notify_reset(*args, **kwargs)

    def notify_peek(self, *args, **kwargs):
        return self._base.notify_peek(*args, **kwargs)

    def notify_probe(self, *args, **kwargs):
        return self._base.notify_probe(*args, **kwargs)

    def notify_drain(self, *args, **kwargs):
        return self._base.notify_drain(*args, **kwargs)

    def wait(self, *args, **kwargs):
        return self._base.wait(*args, **kwargs)

    def barrier(self, *args, **kwargs):
        return self._base.barrier(*args, **kwargs)

    def atomic_fetch_add(self, *args, **kwargs):
        return self._base.atomic_fetch_add(*args, **kwargs)


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
