"""Record real executions as protocol traces (`TracingRuntime`).

:class:`TracingRuntime` is a :class:`~repro.gaspi.runtime.RuntimeWrapper`
around any :class:`~repro.gaspi.runtime.GaspiRuntime` (threaded, shm,
fault-injected stacks): it overrides the seven operations it records —
every post, consume, barrier and segment registration goes into a shared
:class:`TraceSink` — and every other one is the inner runtime's own.  The
sink assembles a :class:`~repro.analysis.events.ProtocolTrace`, so a
*real* 8-rank run can be replayed through the identical checkers —
validating the model against reality in one direction, and catching
protocol bugs that only a live interleaving exposes in the other.  The
static model records through this class too (its
:class:`~repro.analysis.model.ModelTracingRuntime` subclass).

Two deliberate differences from model traces:

* Local stores through :meth:`segment_view` are invisible (the wrapper
  hands out the inner runtime's views; only the model's subclass tracks
  them), so race checking on live traces covers remote writes only.
* :meth:`notify_drain` is *not* the inner runtime's optimised sweep: the
  :class:`~repro.gaspi.runtime.GaspiRuntime` loop runs instead, so every
  reset is individually observed.  That costs a few waitsome calls per
  drain — part of the documented tracing overhead.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..gaspi.constants import (
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_NOTIFICATION_VALUE,
    GASPI_BLOCK,
)
from ..gaspi.group import Group
from ..gaspi.runtime import GaspiRuntime, RuntimeWrapper
from .events import (
    BARRIER,
    CONSUME,
    POST,
    Event,
    ProtocolTrace,
    SegmentMeta,
)


class TraceSink:
    """Thread-safe collector for one traced multi-rank execution.

    Each rank appends only to its own sequence (rank threads never share
    a :class:`TracingRuntime`), so event appends are lock-free; the
    segment-metadata map is the only shared structure.
    """

    def __init__(self, num_ranks: int) -> None:
        self.num_ranks = num_ranks
        self.events: List[List[Event]] = [[] for _ in range(num_ranks)]
        self.segments: Dict[Tuple[int, int], SegmentMeta] = {}
        self._lock = threading.Lock()

    def record(self, event: Event) -> None:
        self.events[event.rank].append(event)

    def add_segment(self, meta: SegmentMeta) -> None:
        with self._lock:
            self.segments[(meta.rank, meta.segment_id)] = meta

    def trace(
        self, name: str = "traced-run", overwrite_tolerant: bool = False
    ) -> ProtocolTrace:
        """Snapshot the recorded execution as a checkable trace."""
        return ProtocolTrace(
            name=name,
            num_ranks=self.num_ranks,
            events=[list(sequence) for sequence in self.events],
            segments=dict(self.segments),
            overwrite_tolerant=overwrite_tolerant,
        )


class TracingRuntime(RuntimeWrapper):
    """Wrapper that records protocol events into a sink."""

    def __init__(self, inner: GaspiRuntime, sink: TraceSink) -> None:
        super().__init__(inner)
        self.sink = sink

    # -- segments ------------------------------------------------------- #
    def segment_create(
        self,
        segment_id: int,
        size: int,
        num_notifications: int = DEFAULT_NOTIFICATION_COUNT,
    ) -> None:
        self.inner.segment_create(segment_id, size, num_notifications)
        self.sink.add_segment(
            SegmentMeta(
                rank=self.inner.rank,
                segment_id=segment_id,
                size=max(int(size), 1),
                num_notifications=num_notifications,
            )
        )

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
        self.sink.record(
            Event(
                kind=POST,
                rank=self.inner.rank,
                segment=segment_id_remote,
                dst=target_rank,
                offset=offset_remote,
                length=size,
                local_offset=offset_local,
                note="write",
            )
        )

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
        self.sink.record(
            Event(
                kind=POST,
                rank=self.inner.rank,
                segment=segment_id_remote,
                dst=target_rank,
                notif_id=notification_id,
                value=notification_value,
            )
        )

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
        self.sink.record(
            Event(
                kind=POST,
                rank=self.inner.rank,
                segment=segment_id_remote,
                dst=target_rank,
                offset=offset_remote,
                length=size,
                notif_id=notification_id,
                value=notification_value,
                local_offset=offset_local,
            )
        )

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
        # The same event kind as write_notify; the source is caller
        # memory, so there is no local segment offset to budget-check.
        self.sink.record(
            Event(
                kind=POST,
                rank=self.inner.rank,
                segment=segment_id_remote,
                dst=target_rank,
                offset=offset_remote,
                length=source.nbytes,
                notif_id=notification_id,
                value=notification_value,
            )
        )

    # -- weak synchronisation ------------------------------------------- #
    def notify_reset(self, segment_id_local: int, notification_id: int) -> int:
        value = self.inner.notify_reset(segment_id_local, notification_id)
        if value > 0:
            self.sink.record(
                Event(
                    kind=CONSUME,
                    rank=self.inner.rank,
                    segment=segment_id_local,
                    dst=self.inner.rank,
                    notif_id=notification_id,
                    value=value,
                )
            )
        return value

    # Every consume individually observed: the ABC's loop over this
    # class's notify_waitsome / notify_reset, not the inner sweep.
    notify_drain = GaspiRuntime.notify_drain

    # -- synchronisation ------------------------------------------------ #
    def barrier(
        self, group: Optional[Group] = None, timeout: float = GASPI_BLOCK
    ) -> None:
        self.inner.barrier(group, timeout)
        self.sink.record(Event(kind=BARRIER, rank=self.inner.rank))
