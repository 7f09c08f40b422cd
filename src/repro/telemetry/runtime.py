"""Instrumented runtime wrapper: traffic counters, wait histograms, wait events.

:class:`TelemetryRuntime` is a
:class:`~repro.gaspi.runtime.RuntimeWrapper` around any
:class:`~repro.gaspi.runtime.GaspiRuntime` (threaded, shm, fault-injected
stacks): it overrides the ten operations it counts or times, every other
one is the inner runtime's own.  It feeds a
:class:`~repro.telemetry.core.Telemetry` registry:

* ``runtime.writes`` / ``runtime.bytes_written`` — one-sided posts;
* ``runtime.notifications_posted`` / ``runtime.notifications_consumed``;
* ``runtime.wait_s`` — latency histogram of every *blocking*
  ``notify_waitsome`` that returned a notification.  This is the one
  place a wait is measured — a plan waits the same way with or without a
  registry — so the same clock pair also is the wait's ``"chunk"`` event
  (``segment`` / ``first`` / ``count``: which notification range) on the
  timeline and its ``pipeline.chunks`` count, and ``pipeline.chunk_wait_s``
  is this histogram under its second name.  Blocking ``execute`` and the
  progress engine's ``wait_until`` record identically.  Zero-timeout
  probes are forwarded untimed (the progress engine polls them by the
  thousand), and a wait that timed out records nothing: the progress
  thread parks 200 µs at a time, and a collective that gives up is an
  ``outcome="error"`` span;
* ``runtime.barriers`` / ``runtime.barrier_s`` — barrier count and wait
  time, the cheapest live arrival-skew signal a rank has;
* ``runtime.segments_created`` / ``runtime.segments_deleted`` — segment
  registrations, which a warm workspace pool keeps at zero.

Counters are bumped in place (``counter.value += 1``): per operation the
wrapper costs its frame and an add per counter, nothing else.

The wrapper sits *outside* any fault-injection layer (the communicator
wraps faults first, telemetry last), so posts that a fault plan swallows
still count as posted — telemetry observes what the rank attempted, the
fault plan decides what the wire delivers.  ``notify_drain`` forwards to
the inner runtime's optimised sweep and counts the drained slots
afterwards, unlike tracing, which needs every reset individually.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gaspi.constants import (
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_NOTIFICATION_VALUE,
    GASPI_BLOCK,
)
from ..gaspi.group import Group
from ..gaspi.runtime import GaspiRuntime, RuntimeWrapper
from .core import CLOCK, Telemetry


class TelemetryRuntime(RuntimeWrapper):
    """Wrapper that counts traffic into a telemetry registry."""

    def __init__(self, inner: GaspiRuntime, telemetry: Telemetry) -> None:
        super().__init__(inner)
        self._telemetry = telemetry
        # Instrument handles are resolved once; the hot path then pays an
        # integer add per counter.
        self._c_writes = telemetry.counter("runtime.writes")
        self._c_bytes = telemetry.counter("runtime.bytes_written")
        self._c_posted = telemetry.counter("runtime.notifications_posted")
        self._c_consumed = telemetry.counter("runtime.notifications_consumed")
        self._c_barriers = telemetry.counter("runtime.barriers")
        self._c_created = telemetry.counter("runtime.segments_created")
        self._c_deleted = telemetry.counter("runtime.segments_deleted")
        self._c_chunks = telemetry.counter("pipeline.chunks")
        self._h_wait = telemetry.histogram("runtime.wait_s")
        telemetry.alias("pipeline.chunk_wait_s", self._h_wait)
        self._h_barrier = telemetry.histogram("runtime.barrier_s")

    @property
    def telemetry(self) -> Telemetry:
        """The live registry (discovered by downstream instrumentation)."""
        return self._telemetry

    # -- segments ------------------------------------------------------- #
    def segment_create(
        self,
        segment_id: int,
        size: int,
        num_notifications: int = DEFAULT_NOTIFICATION_COUNT,
    ) -> None:
        self.inner.segment_create(segment_id, size, num_notifications)
        self._c_created.value += 1

    def segment_delete(self, segment_id: int) -> None:
        self.inner.segment_delete(segment_id)
        self._c_deleted.value += 1

    # -- one-sided ------------------------------------------------------ #
    def write(
        self,
        segment_id_local: int,
        offset_local: int,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        size: int,
        queue: int = 0,
    ) -> None:
        self.inner.write(
            segment_id_local, offset_local, target_rank, segment_id_remote,
            offset_remote, size, queue,
        )
        self._c_writes.value += 1
        self._c_bytes.value += size

    def notify(
        self,
        target_rank: int,
        segment_id_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        self.inner.notify(
            target_rank, segment_id_remote, notification_id, notification_value, queue
        )
        self._c_posted.value += 1

    def write_notify(
        self,
        segment_id_local: int,
        offset_local: int,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        size: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        self.inner.write_notify(
            segment_id_local, offset_local, target_rank, segment_id_remote,
            offset_remote, size, notification_id, notification_value, queue,
        )
        self._c_writes.value += 1
        self._c_bytes.value += size
        self._c_posted.value += 1

    def write_notify_from(
        self,
        source: np.ndarray,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        self.inner.write_notify_from(
            source, target_rank, segment_id_remote, offset_remote,
            notification_id, notification_value, queue,
        )
        self._c_writes.value += 1
        self._c_bytes.value += source.nbytes
        self._c_posted.value += 1

    # -- weak synchronisation ------------------------------------------- #
    def notify_waitsome(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
        timeout: float = GASPI_BLOCK,
    ) -> Optional[int]:
        if timeout == 0.0:
            # Zero-timeout polls are the progress engine's pump; counting
            # them would swamp the wait histogram with zeros.
            return self.inner.notify_waitsome(
                segment_id_local, notification_begin, notification_count, timeout
            )
        t0 = CLOCK()
        got = self.inner.notify_waitsome(
            segment_id_local, notification_begin, notification_count, timeout
        )
        if got is not None:
            t1 = CLOCK()
            self._h_wait.observe(t1 - t0)
            self._c_chunks.value += 1
            self._telemetry.record_span(
                "chunk", "chunk", t0, t1,
                ("segment", segment_id_local, "first", notification_begin,
                 "count", notification_count),
            )  # fmt: skip
        return got

    def notify_reset(self, segment_id_local: int, notification_id: int) -> int:
        value = self.inner.notify_reset(segment_id_local, notification_id)
        if value > 0:
            self._c_consumed.value += 1
        return value

    def notify_drain(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
    ) -> dict:
        drained = self.inner.notify_drain(
            segment_id_local, notification_begin, notification_count
        )
        if drained:
            self._c_consumed.value += len(drained)
        return drained

    # -- synchronisation ------------------------------------------------ #
    def barrier(
        self, group: Optional[Group] = None, timeout: float = GASPI_BLOCK
    ) -> None:
        t0 = CLOCK()
        self.inner.barrier(group, timeout)
        self._h_barrier.observe(CLOCK() - t0)
        self._c_barriers.value += 1
