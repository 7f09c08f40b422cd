"""Workspace pool: registered segments are recycled, not re-registered.

Every collective needs a workspace — a registered segment its peers write
into.  Registering one is the expensive part of a call that is not data
movement: ``segment_create``, a barrier before the first remote write, a
barrier before ``segment_delete``.  A :class:`WorkspacePool` pays that
once per *size class* instead of once per call or compiled plan, and it is
the only place in :mod:`repro.core` that creates or deletes a segment
(:mod:`repro.faults.recovery` keeps its own: a correction-capable
workspace is held open past the call by design).

Protocol — every rank runs the same ``lease``/``release`` sequence with
the same arguments, so pool state evolves in SPMD lock-step and hits and
misses agree everywhere:

* ``lease(nbytes, notification_ids)`` pops a free segment of the request's
  geometric size class (at most 25 % larger than asked for).  A miss is
  the one remaining ``segment_create`` + ``barrier`` pair.
* ``release(segment_id)`` of a pooled workspace takes no barrier: the
  segment is *retired* — a slow peer may still be posting at it — and
  held back until the pool next synchronises: at the release that fills a
  batch of :data:`RETIRE_BATCH`, at one that leaves the pool over its byte
  budget (below), or at a miss's barrier if one comes first.
* Behind that barrier every rank has finished every earlier call, so
  nothing more will be posted at a retired segment — and every segment
  parked before the *previous* barrier has been scrubbed on every rank.
  So the ``cooling`` list is promoted to ``free``, then each retired
  segment is scrubbed (the notification ids its layout declared are
  drained, its bytes zeroed: a pooled segment must be indistinguishable
  from a fresh one — hypercube mailboxes start unposted, broadcast
  consume-acks too) and parked in ``cooling``.
* A segment retired before one barrier is therefore leasable after the
  *next* one, which separates the slowest rank's scrub from the fastest
  rank's first write into the recycled segment — the one-segment cooling
  epoch, applied to a batch.  An exact workspace (below) is deleted, so
  its release still takes its barrier at once.

One budget bounds what a pool holds unleased — idle, cooling and retired
alike: :data:`POOL_BYTES`, and :data:`MAX_IDLE` idle segments.  A miss and
a release first delete the least recently released idle segments of the
other size classes until both hold (safe: an idle segment cooled behind a
barrier, and every rank deletes the same ones); a release still over budget
synchronises.  Every pool barrier is bounded by
:data:`~repro.core.plan.PLAN_WAIT_TIMEOUT`: a miss whose peer never arrives
raises :class:`TimeoutError`, and a batch, or a :meth:`WorkspacePool.close`
over the live ranks, whose barrier fails deletes its segments best-effort.

Two lifetimes, one code path: a :class:`~repro.core.api.Communicator`
owns one pool over its segment-id range; a standalone plan (a cold call
with a bare ``segment_id``, a plan compiled outside a communicator) opens
a pool of its own over that single id, which lives exactly as long as
the plan (:meth:`~repro.core.plan.CollectivePlan.release`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..gaspi.errors import GaspiError
from ..gaspi.group import Group
from ..gaspi.runtime import GaspiRuntime
from ..utils.validation import require

#: Smallest pooled segment and notification board (tiny requests share them).
_MIN_BYTES = 64
_MIN_SLOTS = 64

#: Idle segments a pool keeps, summed over size classes: two per plan of a
#: default-capacity plan cache (16) plus 16 for cold calls.
MAX_IDLE = 48

#: Pooled releases a pool holds back before it synchronises; one barrier
#: then quiesces the whole batch.  Picked from a sweep of 4 / 8 / 16 on the
#: ``shape_churn`` benchmark workload (2-core Xeon, 2 ranks, 4 seeds each):
#: median threaded p50 latency 119 / 110 / 112 µs, peak RSS 139 / 144 /
#: 152 MB — beyond 8, a batch only adds live segments.
RETIRE_BATCH = 8

#: Bytes a pool holds unleased (idle, cooling and retired); above the peaks
#: of the benchmark's workloads (``large_msgs``: 6.5 MiB), so none trims.
POOL_BYTES = 8 << 20

#: (segment bytes, notification slots) — what a free segment is matched on.
_Key = Tuple[int, int]


def size_class(nbytes: int) -> int:
    """Pooled segment size serving a request of ``nbytes``.

    Four classes per octave — the next multiple of a quarter of the
    leading power of two — so a class is never more than 25 % larger than
    the request it serves.
    """
    n = max(int(nbytes), _MIN_BYTES)
    step = 1 << (n.bit_length() - 3)
    return -(-n // step) * step


def board_class(notification_ids: int) -> int:
    """Notification-board slots (a power of two) serving ``notification_ids``."""
    return max(_MIN_SLOTS, 1 << (max(int(notification_ids), 1) - 1).bit_length())


class WorkspacePool:
    """Recycling allocator of registered segments over one id range.

    ``next_id`` is the high-water mark of ids drawn so far (what elastic
    checkpoints record as ``next_segment``); ``last_id`` is the id most
    recently handed out, by :meth:`lease` or :meth:`reserve_id`.
    """

    def __init__(self, runtime: GaspiRuntime, first_id: int, span: int = 1) -> None:
        self.runtime = runtime
        self._first = int(first_id)
        self._limit = self._first + int(span)
        self.next_id = self._first
        self.last_id: Optional[int] = None
        self._spare_ids: List[int] = []
        #: segment id -> (key, notification ids declared, exact?)
        self._leased: Dict[int, Tuple[_Key, int, bool]] = {}
        #: Released since the last barrier: (key, segment id, notification ids).
        self._retired: List[Tuple[_Key, int, int]] = []
        self._cooling: List[Tuple[_Key, int]] = []
        #: Idle segments by class, least recently released class first.
        self._free: Dict[_Key, List[int]] = {}
        #: Bytes of the idle, cooling and retired segments (the budget's count).
        self._held = 0

    # ------------------------------------------------------------------ #
    def reserve_id(self) -> int:
        """Draw a fresh id for a segment its caller manages itself.

        Always the high-water mark, never a recycled id: a rank restored
        from a checkpoint knows the mark but not which ids were recycled.
        """
        require(
            self.next_id < self._limit,
            f"communicator exhausted its segment-id range "
            f"[{self._first}, {self._limit})",
        )
        self.last_id = self.next_id
        self.next_id += 1
        return self.last_id

    def lease(self, nbytes: int, notification_ids: int, exact: bool = False) -> int:
        """Segment id of a clean workspace of at least ``nbytes`` bytes.

        ``notification_ids`` is how many ids the caller's
        :class:`~repro.core.notifmap.NotificationLayout` declares; it
        sizes the board and bounds the scrub.  ``exact`` is for a request
        that cannot be served from a size class: ``nbytes`` differs
        between ranks (so a hit could not be agreed on without
        communicating), or the segment is re-pointed at caller memory of
        exactly that size.  Such a workspace is registered for this lease
        and deleted by its release; only its id is recycled.
        """
        slots = board_class(notification_ids)
        key = (max(int(nbytes), 8), slots) if exact else (size_class(nbytes), slots)
        idle = None if exact else self._free.get(key)
        if idle:
            segment_id = idle.pop()
            self._held -= key[0]
        else:
            self._trim(key)
            segment_id = self._spare_ids.pop() if self._spare_ids else self.reserve_id()
            self.runtime.segment_create(segment_id, key[0], key[1])
            if not self._barrier():
                self._delete(segment_id)
                raise TimeoutError(
                    f"rank {self.runtime.rank}: the barrier of workspace miss "
                    f"{segment_id} failed or timed out"
                )
            self._advance()
        self._leased[segment_id] = (key, int(notification_ids), exact)
        self.last_id = segment_id
        return segment_id

    def release(self, segment_id: int) -> None:
        """Give a leased workspace back (collective).

        A pooled workspace is retired; the release that fills a batch or
        leaves the pool over budget takes the barrier that recycles it.  An
        exact one takes its barrier at once and is deleted.  A barrier that
        fails or times out deletes what it held back, best-effort.
        """
        key, notification_ids, exact = self._leased.pop(segment_id)
        if exact:
            self._synchronise()
            self._delete(segment_id)
            return
        self._retired.append((key, segment_id, notification_ids))
        self._held += key[0]
        self._trim(key)
        if self._held > POOL_BYTES or len(self._retired) >= RETIRE_BATCH:
            self._synchronise()

    def _synchronise(self) -> None:
        """Barrier, then recycle; a failed barrier deletes the retired."""
        if self._barrier():
            self._advance()
            return
        for key, segment_id, _ in self._retired:
            self._delete(segment_id, key[0])
        self._retired.clear()

    def _barrier(self, group: Optional[Group] = None, timeout: Optional[float] = None) -> bool:
        """Barrier bounded by ``timeout`` or ``PLAN_WAIT_TIMEOUT``; False if it failed."""
        from .plan import PLAN_WAIT_TIMEOUT  # read now: ``plan`` imports this module

        try:
            self.runtime.barrier(group, PLAN_WAIT_TIMEOUT if timeout is None else timeout)
        except GaspiError:
            return False
        return True

    def _advance(self) -> None:
        """Right after a barrier: cooling becomes free, retired cools."""
        for idle_key, idle_id in self._cooling:
            idle = self._free.pop(idle_key, [])
            idle.append(idle_id)
            self._free[idle_key] = idle  # most recently released class last
        self._cooling.clear()
        for key, segment_id, notification_ids in self._retired:
            self._scrub(segment_id, notification_ids)
            self._cooling.append((key, segment_id))
        self._retired.clear()

    def _trim(self, keep: _Key) -> None:
        """Delete LRU idle segments of classes but ``keep`` while over
        :data:`MAX_IDLE` or :data:`POOL_BYTES`."""
        idle = sum(map(len, self._free.values()))
        if idle > MAX_IDLE or self._held > POOL_BYTES:
            for key, ids in self._free.items():
                while ids and key != keep and (idle > MAX_IDLE or self._held > POOL_BYTES):
                    self._delete(ids.pop(0), key[0])
                    idle -= 1

    def _scrub(self, segment_id: int, notification_ids: int) -> None:
        """Make a released segment indistinguishable from a fresh one."""
        self.runtime.notify_drain(segment_id, 0, notification_ids)
        self.runtime.segment_view(segment_id, np.uint8)[:] = 0

    # ------------------------------------------------------------------ #
    def close(self, group: Optional[Group] = None, timeout: Optional[float] = None) -> None:
        """Delete every segment behind one barrier over ``group`` (the live
        ranks), bounded by ``timeout`` (default ``PLAN_WAIT_TIMEOUT``).

        Only a leased or retired workspace needs the barrier (a peer may
        still be posting at it).  Idempotent; a barrier that fails or times
        out (dead peer, crashed rank) does not stop the deletes.
        """
        if self._leased or self._retired:
            self._barrier(group, timeout)
        self.drop()

    def drop(self) -> None:
        """Delete every segment without synchronising (local).

        For an owner that has synchronised already — the documented
        contract of closing a plan compiled outside a communicator.
        """
        for segment_id in (
            list(self._leased)
            + [sid for _, sid, _ in self._retired]
            + [sid for _, sid in self._cooling]
            + [sid for idle in self._free.values() for sid in idle]
        ):
            self._delete(segment_id)
        self._leased.clear()
        self._retired.clear()
        self._cooling.clear()
        self._free.clear()
        self._held = 0

    def _delete(self, segment_id: int, held: int = 0) -> None:
        self._held -= held  # the bytes it counted against the budget
        try:
            self.runtime.segment_delete(segment_id)
        except GaspiError:  # crashed/vanished runtime: nothing left to free
            pass
        self._spare_ids.append(segment_id)
