"""Thread-per-rank GASPI runtime with real data movement.

:class:`ThreadedWorld` owns the shared state (each rank's segments,
barriers, counters); :class:`ThreadedRuntime` is the per-rank facade
implementing :class:`~repro.gaspi.runtime.GaspiRuntime`.

Semantics implemented:

* ``write`` / ``notify`` / ``write_notify`` / ``write_notify_from`` are one
  post (:meth:`ThreadedRuntime._post`): validate, then :func:`_deliver` —
  copy the bytes (a view of the caller's local segment, or of any
  contiguous caller array) into the target rank's segment under that
  segment's write lock, then store the notification.  The data copy always
  precedes the notification post, which is the GASPI visibility guarantee
  (Section II of the paper).  In ``immediate`` delivery mode the posting
  thread calls :func:`_deliver` inline: one copy, one board store, the two
  locks those need and nothing else.  In ``async`` mode the same call is
  handed to a delivery thread together with its queue completion.  A
  rejected post raises in the posting thread in both modes and changes
  nothing.
* ``notify_waitsome`` / ``notify_reset`` operate on the local segment's
  notification board; a blocked wait yields the GIL before it parks (see
  :mod:`repro.gaspi.notifications`).
* ``wait`` flushes a queue (blocks until all locally posted requests have
  been applied at their targets).
* ``barrier`` uses a reusable threading barrier per group.
* ``atomic_fetch_add`` provides GASPI's atomic counter on int64 slots.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .constants import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_NOTIFICATION_VALUE,
    DEFAULT_QUEUE_COUNT,
    DEFAULT_QUEUE_DEPTH,
    GASPI_BLOCK,
)
from .errors import (
    GaspiInvalidArgumentError,
    GaspiResourceError,
    GaspiSegmentError,
    GaspiTimeoutError,
)
from .group import Group
from .queue import CommunicationQueue, DeliveryWorker
from .runtime import GaspiRuntime, source_bytes
from .segment import Segment


@dataclass
class WorldConfig:
    """Configuration of a :class:`ThreadedWorld`.

    Attributes
    ----------
    delivery:
        ``"immediate"`` applies remote writes synchronously in the posting
        thread (deterministic, fast).  ``"async"`` routes them through a
        delivery thread, exercising true communication/computation overlap.
    delivery_delay:
        Artificial per-request delay (seconds) in ``async`` mode, useful to
        stress-test notification semantics and the SSP stale-read path.
    queue_count / queue_depth:
        Number of communication queues per rank and their depth.
    max_segments:
        Maximum number of segments per rank.
    collect_stats:
        Record per-rank traffic statistics (bytes/messages sent).
    """

    delivery: str = "immediate"
    delivery_delay: float = 0.0
    queue_count: int = DEFAULT_QUEUE_COUNT
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    max_segments: int = DEFAULT_MAX_SEGMENTS
    collect_stats: bool = True

    def __post_init__(self) -> None:
        if self.delivery not in ("immediate", "async"):
            raise GaspiInvalidArgumentError(
                f"delivery must be 'immediate' or 'async', got {self.delivery!r}"
            )
        if self.queue_count <= 0:
            raise GaspiInvalidArgumentError("queue_count must be positive")


@dataclass
class TrafficStats:
    """Per-rank communication counters collected by the threaded world."""

    messages_sent: int = 0
    bytes_sent: int = 0
    notifications_sent: int = 0
    barriers: int = 0
    by_peer: Dict[int, int] = field(default_factory=dict)

    def record_send(self, target: int, nbytes: int, notified: bool) -> None:
        self.messages_sent += 1
        self.bytes_sent += int(nbytes)
        if notified:
            self.notifications_sent += 1
        self.by_peer[target] = self.by_peer.get(target, 0) + int(nbytes)


def _deliver(
    segment: Segment,
    offset: int,
    data: Optional[np.ndarray],
    notification_id: Optional[int],
    value: int,
) -> None:
    """Apply one post at its target: data first, then the notification.

    Everything is checked before anything is touched, so a rejected post
    leaves the target's bytes and board as they were.  ``data`` is a flat
    ``uint8`` array or ``None``; ``notification_id`` is ``None`` for a
    bare ``write``.  Both delivery modes run through here.
    """
    board = segment.notifications
    if notification_id is not None:
        value = board.check_post(notification_id, value)
    if data is not None and data.size:
        segment.write_bytes(offset, data)
    if notification_id is not None:
        board.store(notification_id, value)


class ThreadedWorld:
    """Shared state of an in-process GASPI world with ``size`` ranks."""

    def __init__(self, size: int, config: Optional[WorldConfig] = None) -> None:
        if size <= 0:
            raise GaspiInvalidArgumentError(f"world size must be positive, got {size}")
        self.size = int(size)
        self.config = config or WorldConfig()
        # segments[rank][segment_id]
        self._segments: Dict[int, Dict[int, Segment]] = {r: {} for r in range(size)}
        self._segments_lock = threading.Lock()
        # queues[rank][queue_id]
        self._queues: Dict[int, Dict[int, CommunicationQueue]] = {
            r: {
                q: CommunicationQueue(q, self.config.queue_depth)
                for q in range(self.config.queue_count)
            }
            for r in range(size)
        }
        self._barriers: Dict[Group, threading.Barrier] = {}
        self._barriers_lock = threading.Lock()
        self._atomic_lock = threading.Lock()
        self.stats: Dict[int, TrafficStats] = {r: TrafficStats() for r in range(size)}
        self._delivery: Optional[DeliveryWorker] = None
        if self.config.delivery == "async":
            self._delivery = DeliveryWorker(delay=self.config.delivery_delay)
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def runtime(self, rank: int) -> "ThreadedRuntime":
        """Return the per-rank runtime facade."""
        if not (0 <= rank < self.size):
            raise GaspiInvalidArgumentError(
                f"rank {rank} outside world of size {self.size}"
            )
        return ThreadedRuntime(self, rank)

    def runtimes(self) -> list["ThreadedRuntime"]:
        """Per-rank runtime facades for every rank in the world."""
        return [self.runtime(r) for r in range(self.size)]

    def close(self) -> None:
        """Stop background delivery threads (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._delivery is not None:
            self._delivery.shutdown()
            self._delivery = None

    def __enter__(self) -> "ThreadedWorld":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # segment registry, queues
    # ------------------------------------------------------------------ #
    def create_segment(
        self, rank: int, segment_id: int, size: int, num_notifications: int
    ) -> Segment:
        with self._segments_lock:
            table = self._segments[rank]
            if segment_id in table:
                raise GaspiResourceError(
                    f"rank {rank}: segment {segment_id} already exists"
                )
            if len(table) >= self.config.max_segments:
                raise GaspiResourceError(
                    f"rank {rank}: segment limit {self.config.max_segments} reached"
                )
            seg = Segment(segment_id, size, rank, num_notifications)
            table[segment_id] = seg
            return seg

    def rebind_segment(self, rank: int, segment_id: int, array: np.ndarray) -> None:
        with self._segments_lock:
            try:
                seg = self._segments[rank][segment_id]
            except KeyError as exc:
                raise GaspiSegmentError(
                    f"rank {rank}: cannot bind unknown segment {segment_id}"
                ) from exc
        seg.rebind(array)

    def delete_segment(self, rank: int, segment_id: int) -> None:
        with self._segments_lock:
            table = self._segments[rank]
            if segment_id not in table:
                raise GaspiSegmentError(
                    f"rank {rank}: cannot delete unknown segment {segment_id}"
                )
            del table[segment_id]

    def get_segment(self, rank: int, segment_id: int) -> Segment:
        """Lock-free lookup: one dict read is atomic under the GIL.

        A lookup that races a create / delete is no less racy for taking
        ``_segments_lock``; only those check-then-mutate paths need it.
        """
        try:
            return self._segments[rank][segment_id]
        except KeyError as exc:
            raise GaspiSegmentError(
                f"rank {rank} has no segment with id {segment_id}"
            ) from exc

    def queue_of(self, rank: int, queue_id: int) -> CommunicationQueue:
        try:
            return self._queues[rank][queue_id]
        except KeyError as exc:
            raise GaspiInvalidArgumentError(
                f"rank {rank} has no queue {queue_id} "
                f"(queue_count={self.config.queue_count})"
            ) from exc

    # ------------------------------------------------------------------ #
    # barrier
    # ------------------------------------------------------------------ #
    def barrier_for(self, group: Group) -> threading.Barrier:
        with self._barriers_lock:
            barrier = self._barriers.get(group)
            if barrier is None or barrier.broken:
                # A barrier broken by a timed-out waiter (the degraded
                # collectives' entry handshake) stays broken; hand out a
                # fresh one so later collectives on the group still work.
                barrier = threading.Barrier(group.size)
                self._barriers[group] = barrier
            return barrier

    # ------------------------------------------------------------------ #
    # atomics
    # ------------------------------------------------------------------ #
    def atomic_fetch_add(
        self, target_rank: int, segment_id: int, offset: int, value: int
    ) -> int:
        seg = self.get_segment(target_rank, segment_id)
        with self._atomic_lock:
            slot = seg.view(np.int64, offset=offset, count=1)
            old = int(slot[0])
            slot[0] = old + int(value)
            return old


class ThreadedRuntime(GaspiRuntime):
    """Per-rank facade over a :class:`ThreadedWorld`."""

    def __init__(self, world: ThreadedWorld, rank: int) -> None:
        self._world = world
        self._rank = int(rank)

    # -- identity ------------------------------------------------------- #
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.size

    @property
    def world(self) -> ThreadedWorld:
        """The shared world this runtime belongs to."""
        return self._world

    # -- segments ------------------------------------------------------- #
    def segment_create(
        self,
        segment_id: int,
        size: int,
        num_notifications: int = DEFAULT_NOTIFICATION_COUNT,
    ) -> None:
        self._world.create_segment(self._rank, segment_id, size, num_notifications)

    def segment_delete(self, segment_id: int) -> None:
        self._world.delete_segment(self._rank, segment_id)

    def segment_bind(self, segment_id: int, array: np.ndarray) -> None:
        self._world.rebind_segment(self._rank, segment_id, array)

    def segment_view(
        self,
        segment_id: int,
        dtype=np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        return self._world.get_segment(self._rank, segment_id).view(
            dtype=dtype, offset=offset, count=count
        )

    def segment_size(self, segment_id: int) -> int:
        return self._world.get_segment(self._rank, segment_id).size

    def segment_read(
        self,
        segment_id: int,
        dtype=np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        dtype = np.dtype(dtype)
        seg = self._world.get_segment(self._rank, segment_id)
        if count is None:
            count = (seg.size - offset) // dtype.itemsize
        raw = seg.read_bytes(offset, count * dtype.itemsize)
        return raw.view(dtype)

    # -- one-sided communication ---------------------------------------- #
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
        data = self._read_local(segment_id_local, offset_local, size)
        self._post(data, target_rank, segment_id_remote, offset_remote, None, 0, queue)

    def notify(
        self,
        target_rank: int,
        segment_id_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        self._post(
            None, target_rank, segment_id_remote, 0,
            notification_id, notification_value, queue,
        )  # fmt: skip

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
        self._post(
            self._read_local(segment_id_local, offset_local, size),
            target_rank, segment_id_remote, offset_remote,
            notification_id, notification_value, queue,
        )  # fmt: skip

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
        # The same post as write_notify: the delivery reads the caller's
        # memory instead of a view of the local segment.
        self._post(
            source_bytes(source),
            target_rank, segment_id_remote, offset_remote,
            notification_id, notification_value, queue,
        )  # fmt: skip

    def _post(
        self,
        data: Optional[np.ndarray],
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        notification_id: Optional[int],
        notification_value: int,
        queue: int,
    ) -> None:
        """The one post behind the four calls above."""
        world = self._world
        self._check_target(target_rank)
        posting_queue = world._queues[self._rank][queue]
        segment = world.get_segment(target_rank, segment_id_remote)
        nbytes = 0 if data is None else data.size
        args = (segment, offset_remote, data, notification_id, notification_value)
        if world._delivery is None:
            _deliver(*args)
            posting_queue.count()
        else:
            # Reject here, in the poster, what _deliver would reject later
            # in the worker; then the queue slot, then the hand-over.
            if nbytes:
                segment.view_bytes(offset_remote, nbytes)
            if notification_id is not None:
                segment.notifications.check_post(notification_id, notification_value)
            posting_queue.post()
            world._delivery.submit(_deliver, args, posting_queue.complete)
        if world.config.collect_stats:
            world.stats[self._rank].record_send(
                target_rank, nbytes, notification_id is not None
            )

    # -- weak synchronisation ------------------------------------------- #
    def notify_waitsome(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
        timeout: float = GASPI_BLOCK,
    ) -> Optional[int]:
        seg = self._world.get_segment(self._rank, segment_id_local)
        return seg.notifications.wait_some(
            notification_begin, notification_count, timeout
        )

    def notify_reset(self, segment_id_local: int, notification_id: int) -> int:
        seg = self._world.get_segment(self._rank, segment_id_local)
        return seg.notifications.reset(notification_id)

    def notify_peek(self, segment_id_local: int, notification_id: int) -> int:
        seg = self._world.get_segment(self._rank, segment_id_local)
        return seg.notifications.peek(notification_id)

    def notify_probe(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
    ) -> bool:
        seg = self._world.get_segment(self._rank, segment_id_local)
        return seg.notifications.probe(notification_begin, notification_count)

    def notify_drain(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
    ) -> Dict[int, int]:
        seg = self._world.get_segment(self._rank, segment_id_local)
        return seg.notifications.drain(notification_begin, notification_count)

    # -- queues / barriers ----------------------------------------------- #
    def wait(self, queue: int = 0, timeout: float = GASPI_BLOCK) -> None:
        self._world.queue_of(self._rank, queue).wait(timeout)

    def barrier(
        self, group: Optional[Group] = None, timeout: float = GASPI_BLOCK
    ) -> None:
        group = group or self.group_all
        if not group.contains(self._rank):
            raise GaspiInvalidArgumentError(
                f"rank {self._rank} called barrier on group {group} it is not part of"
            )
        barrier = self._world.barrier_for(group)
        try:
            if timeout == GASPI_BLOCK:
                barrier.wait()
            else:
                barrier.wait(timeout=timeout)
        except threading.BrokenBarrierError as exc:
            # Either this waiter timed out (breaking the barrier) or another
            # one did; surface both as the GASPI timeout condition so a
            # finite-timeout barrier can never hang on a dead rank.
            raise GaspiTimeoutError(
                f"barrier over {group} timed out after {timeout} s"
            ) from exc
        if self._world.config.collect_stats:
            self._world.stats[self._rank].barriers += 1

    # -- atomics ---------------------------------------------------------- #
    def atomic_fetch_add(
        self,
        segment_id: int,
        offset: int,
        target_rank: int,
        value: int,
    ) -> int:
        self._check_target(target_rank)
        return self._world.atomic_fetch_add(target_rank, segment_id, offset, value)

    # -- internals -------------------------------------------------------- #
    def _read_local(self, segment_id: int, offset: int, size: int) -> np.ndarray:
        # Zero-copy: hand the delivery layer a view of the source segment
        # instead of an intermediate bytes copy.  GASPI requires the source
        # region to stay stable until wait() flushes the queue, so the view
        # is still valid (and unmodified) when an async worker applies it.
        seg = self._world.get_segment(self._rank, segment_id)
        return seg.view_bytes(offset, size)

    def _check_target(self, target_rank: int) -> None:
        if not (0 <= target_rank < self._world.size):
            raise GaspiInvalidArgumentError(
                f"target rank {target_rank} outside world of size {self._world.size}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadedRuntime(rank={self._rank}, size={self.size})"
