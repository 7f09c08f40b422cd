"""Record real executions as protocol traces (`TracingRuntime`).

:class:`TracingRuntime` wraps any concrete
:class:`~repro.gaspi.runtime.GaspiRuntime` (threaded, shm, fault-injected
stacks — the same wrapper idiom as :mod:`repro.faults.injection`) and
records every post, consume and barrier into a shared
:class:`TraceSink`.  The sink assembles the same
:class:`~repro.analysis.events.ProtocolTrace` the static model produces,
so a *real* 8-rank run can be replayed through the identical checkers —
validating the model against reality in one direction, and catching
protocol bugs that only a live interleaving exposes in the other.

Two deliberate differences from model traces:

* Local stores through :meth:`segment_view` are invisible (the wrapper
  hands out the inner runtime's views), so race checking on recorded
  traces covers remote writes only.
* :meth:`notify_drain` is *not* forwarded to the inner runtime's
  optimised sweep: the base-class loop runs instead, so every reset is
  individually observed.  That costs a few waitsome calls per drain —
  part of the documented tracing overhead.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..gaspi.constants import (
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_NOTIFICATION_VALUE,
    GASPI_BLOCK,
)
from ..gaspi.group import Group
from ..gaspi.runtime import GaspiRuntime
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


class TracingRuntime(GaspiRuntime):
    """Forwarding wrapper that records protocol events into a sink."""

    def __init__(self, inner: GaspiRuntime, sink: TraceSink) -> None:
        self.inner = inner
        self.sink = sink

    # -- identity ------------------------------------------------------- #
    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def fault_injected(self) -> bool:
        return self.inner.fault_injected

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

    def segment_delete(self, segment_id: int) -> None:
        self.inner.segment_delete(segment_id)

    def segment_view(
        self,
        segment_id: int,
        dtype: Any = np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        return self.inner.segment_view(segment_id, dtype, offset, count)

    def segment_size(self, segment_id: int) -> int:
        return self.inner.segment_size(segment_id)

    def segment_read(
        self,
        segment_id: int,
        dtype: Any = np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        return self.inner.segment_read(segment_id, dtype, offset, count)

    def segment_bind(self, segment_id: int, array: np.ndarray) -> None:
        self.inner.segment_bind(segment_id, array)

    @property
    def supports_bind(self) -> bool:
        # Defining segment_bind above would otherwise make the base-class
        # probe report bind support the inner runtime may not have.
        return self.inner.supports_bind

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
    def notify_waitsome(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
        timeout: float = GASPI_BLOCK,
    ) -> Optional[int]:
        return self.inner.notify_waitsome(
            segment_id_local, notification_begin, notification_count, timeout
        )

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

    def notify_peek(self, segment_id_local: int, notification_id: int) -> int:
        return self.inner.notify_peek(segment_id_local, notification_id)

    def notify_probe(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
    ) -> bool:
        return self.inner.notify_probe(
            segment_id_local, notification_begin, notification_count
        )

    # notify_drain is intentionally NOT forwarded: the inherited loop runs
    # through self.notify_waitsome/self.notify_reset so every consume is
    # recorded (see module docstring).

    # -- queues / synchronisation --------------------------------------- #
    def wait(self, queue: int = 0, timeout: float = GASPI_BLOCK) -> None:
        self.inner.wait(queue, timeout)

    def barrier(
        self, group: Optional[Group] = None, timeout: float = GASPI_BLOCK
    ) -> None:
        self.inner.barrier(group, timeout)
        self.sink.record(Event(kind=BARRIER, rank=self.inner.rank))

    def atomic_fetch_add(
        self, segment_id: int, offset: int, target_rank: int, value: int
    ) -> int:
        return self.inner.atomic_fetch_add(segment_id, offset, target_rank, value)
