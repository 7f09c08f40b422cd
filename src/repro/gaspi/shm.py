"""Process-per-rank GASPI runtime over POSIX shared memory.

:class:`ShmRuntime` is the second concrete implementation of
:class:`~repro.gaspi.runtime.GaspiRuntime` — one OS *process* per rank
instead of one thread, with segments allocated in
:mod:`multiprocessing.shared_memory` blocks.  It is the closest Python
analogue to real GPI-2 segments: a ``write_notify`` is a direct memcpy
into the target rank's registered memory followed by a single 8-byte
store into its notification board, with no interpreter lock shared
between ranks.  The GIL-bound :class:`~repro.gaspi.threaded.ThreadedWorld`
serialises every rank's Python bookkeeping; here each rank owns a whole
interpreter, so the collectives' protocol overhead runs truly in
parallel (on multi-core hosts) and is never convoyed behind another
rank's bytecode.

Implementation notes, mirroring the GASPI guarantees the collectives in
:mod:`repro.core` rely on:

* **Segments** are one shared-memory block each, created by the owning
  rank under a deterministic name (``{uid}-r{rank}-s{segment_id}``):
  a small int64 header, the notification board (one int64 per slot),
  then the data bytes.  Remote ranks attach lazily on first use and
  cache the mapping; a validity word in the header invalidates cached
  attachments when the owner deletes the segment.  Every collective in
  this repository fences ``segment_create`` with a barrier before the
  segment is used as a remote target (and barriers again before
  ``segment_delete``), exactly as GPI-2 requires — a missing remote
  segment therefore raises :class:`~repro.gaspi.errors.GaspiSegmentError`
  immediately, as the threaded runtime does.
* **Two (striped) cross-process locks per segment.**  The *board lock*
  guards the notification board: every notification store,
  ``notify_reset``, ``notify_drain`` and the ``adopt_segment`` drain.
  The *data lock* guards bulk payload copies.  A write below
  ``_BULK_WRITE_BYTES`` copies and notifies inside one board-lock
  section; a bulk write copies under the data lock only, releases it,
  and then stores its notification under the board lock — so a receiver
  that was told "chunk k is here" resets and drains while chunk k+1 is
  still being copied in, instead of queueing behind that copy.
  ``segment_read`` takes both (data, then board: the only nesting, so
  the order cannot deadlock) and therefore still never observes a
  half-applied remote write of either kind.
* **Write-before-notify visibility**: the data copy completes and its
  lock is released before the notification store's lock is taken; the
  release/acquire pairs order the stores, so the notification can never
  be observed before the data of the same request.
* **Notification waits** (``notify_waitsome``) and barrier waits are a
  busy-wait/condvar hybrid (:meth:`ShmWorld.hybrid_wait`): a
  yield-polling phase, then the waiter parks on a world-global
  cross-process condition variable that posters signal only while
  waiters are registered — so the posting fast path stays a single slot
  store plus one shared counter read.  The length of the polling phase
  follows from what the world can observe: when every rank can own a
  core (``world.size <= len(os.sched_getaffinity(0))``) a waiter polls
  for up to ``wait_slice`` before it parks, because a futex wake-up
  costs more than the wait it would save; when the world is
  oversubscribed it polls ``config.spin`` times and parks, because the
  core it would burn is the one its peer needs.  A wait with a timeout
  shorter than ``wait_slice`` gets the ``config.spin`` budget either
  way: its caller loops over short waits (the progress thread), and
  polling each of them out would never park.
* **Barrier** is a sense-reversing counter in a preallocated shared
  table, one slot per distinct group (claimed deterministically by a
  hash of the member ranks).  A finite-timeout barrier with a dead
  participant breaks for every current waiter — the degraded
  collectives' entry handshake — and leaves the slot clean for the
  next round, like the threaded world's replaced barrier.
* **``atomic_fetch_add``** is a read-modify-write of an int64 in the
  target segment under a single world-wide lock word.
* ``segment_bind`` is **not** supported (user memory of another process
  cannot be registered); :attr:`ShmRuntime.supports_bind` is False and
  the pipelined broadcast's receivers transparently use their
  staged-slot fallback, exactly as on any bind-less runtime.  The
  *source* of a write needs no registration: ``write_notify_from`` copies
  from the posting process's private memory into the target's block.

:func:`run_shm` is the process-world analogue of
:func:`~repro.gaspi.spmd.run_spmd`: fork one process per rank, run
``fn(runtime, *args, **kwargs)`` on each, propagate exceptions as
:class:`~repro.gaspi.spmd.SpmdError`, and sweep any leaked shared-memory
blocks afterwards.  It requires the ``fork`` start method (Linux/macOS):
worker closures and the world's synchronisation primitives are inherited
by the children instead of pickled.  Every rank process — :func:`run_shm`'s
and :class:`~repro.elastic.world.ElasticShmWorld`'s alike — comes from
:meth:`ShmWorld.fork`, which first returns the parent's free heap to the
OS (glibc ``malloc_trim``; nothing where libc lacks it): a child maps
every resident page of its parent, so heap the parent freed but kept
would otherwise count in each rank's resident set.
"""

from __future__ import annotations

import ctypes
import itertools
import mmap
import os
import pickle
import time
import traceback
import uuid
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import multiprocessing
from multiprocessing import shared_memory

import numpy as np

from .constants import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_NOTIFICATION_VALUE,
    DEFAULT_QUEUE_COUNT,
    GASPI_BLOCK,
    WAIT_SLICE,
    WAIT_SPIN,
)
from .errors import (
    GaspiInvalidArgumentError,
    GaspiResourceError,
    GaspiSegmentError,
    GaspiTimeoutError,
)
from .group import Group
from .runtime import GaspiRuntime, source_bytes
from .spmd import SpmdError
from .threaded import TrafficStats

# --------------------------------------------------------------------------- #
# shared-memory layout constants
# --------------------------------------------------------------------------- #
#: int64 header words preceding the notification board of a segment block.
_HEADER_SLOTS = 8
_HEADER_BYTES = _HEADER_SLOTS * 8
_H_VALID = 0  # 1 while the segment is live, 0 once deleted
_H_SIZE = 1  # data size in bytes
_H_NOTIF = 2  # number of notification slots
_H_POSTED = 3  # diagnostic: notifications posted into this segment

#: Barrier table geometry in the control block: per slot
#: ``[group_key, count, round, broken_round]``.
_BARRIER_SLOTS = 256
_BARRIER_FIELDS = 4

#: Cross-process locks striped over segments; the world holds two such
#: sets (notification board, bulk data).
_SEGMENT_LOCK_STRIPES = 16

#: Payload size from which a write copies under the data lock instead of
#: inside the board-lock section.  The split costs a second uncontended
#: lock round trip (0.36 us measured on the 2-core reference box) and buys
#: the receiver a board lock it never waits a memcpy for; a 64 KiB copy
#: takes 2.2 us there (1 MiB: 50 us), so from here on the copy, not the
#: extra round trip, is what a queued ``notify_reset`` would pay for.
_BULK_WRITE_BYTES = 64 * 1024


def _segment_lock_index(owner_rank: int, segment_id: int) -> int:
    return (owner_rank * 7919 + segment_id) % _SEGMENT_LOCK_STRIPES


def _group_key(group: Group) -> int:
    """Deterministic nonzero 63-bit key of a group's member set."""
    key = 1469598103934665603  # FNV-1a
    for rank in group.ranks:
        key = ((key ^ (rank + 1)) * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return key or 1


try:  # glibc's; musl and macOS have no malloc_trim
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):  # pragma: no cover - not glibc
    _malloc_trim = lambda pad: 0  # noqa: E731


def _quiet_close(shm: shared_memory.SharedMemory) -> None:
    """Close a block's mapping, tolerating still-exported NumPy views.

    A segment view still alive somewhere (a user-held ``segment_view``
    array) keeps the mmap's buffer exported, in which case ``close``
    raises :class:`BufferError` before it has released anything.  The
    mapping then has to outlive this call — it is unmapped, and the
    mmap's own descriptor closed, when the last view dies — but the
    block's second descriptor (``shm._fd``) is closed here; left to
    ``close`` it would leak once per segment created or attached.
    ``SharedMemory.__del__`` would retry the close at garbage collection
    and print an "Exception ignored" notice, so the instance's ``close``
    is neutralised after the first failure.
    """
    try:
        shm.close()
    except (BufferError, OSError):
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            shm._fd = -1
        shm.close = lambda: None  # __del__ retries close; make it a no-op


class _Attachment(shared_memory.SharedMemory):
    """An existing block, mapped without telling the resource tracker.

    Every rank process is forked after the world's control block started
    the tracker, so all ranks share one, and only the owner registers a
    block (its crash is what the tracker cleans up after).  A registration
    sent by an attacher could reach the tracker after the owner's unlink
    unregistered the name: the tracker would then try to unlink it again
    at exit and warn ``[Errno 2]``, hiding real leak reports among false
    ones.  What ``SharedMemory(name, track=False)`` does from Python 3.13
    on.
    """

    _track = False

    def __init__(self, name: str) -> None:
        # Not super().__init__: that is where the registration is sent.
        import _posixshmem  # POSIX only, like the fork this backend needs

        self._name = "/" + name
        self._fd = _posixshmem.shm_open(self._name, os.O_RDWR, mode=self._mode)
        try:
            self._size = os.fstat(self._fd).st_size
            self._mmap = mmap.mmap(self._fd, self._size)
        except OSError:
            os.close(self._fd)
            self._fd = -1
            raise
        self._buf = memoryview(self._mmap)


@dataclass
class ShmConfig:
    """Configuration of a :class:`ShmWorld`.

    Attributes
    ----------
    queue_count:
        Number of communication queues per rank (writes apply
        synchronously, so queues only validate ids and count traffic).
    max_segments:
        Maximum number of live segments per rank.
    spin:
        The *oversubscribed* polling budget: yield-polling iterations
        before a waiter parks on the shared condition variable when the
        world has more ranks than the process may use cores.  Each miss
        yields the CPU, so even on a single core the poller cannot
        starve the rank it is waiting on.  A world whose ranks can each
        own a core polls for up to ``wait_slice`` instead — except in a
        wait whose timeout is shorter than ``wait_slice``, which gets
        this budget too (see :meth:`ShmWorld.hybrid_wait`).
    wait_slice:
        Maximum single park on the condition variable (seconds); bounds
        the latency of a wake-up racing the waiter's registration.  Also
        the longest a rank with a core to itself polls before it parks,
        i.e. the CPU one blocked wait may burn before it sleeps.
    collect_stats:
        Record per-rank traffic statistics (process-local).
    """

    queue_count: int = DEFAULT_QUEUE_COUNT
    max_segments: int = DEFAULT_MAX_SEGMENTS
    spin: int = WAIT_SPIN
    wait_slice: float = WAIT_SLICE
    collect_stats: bool = True

    def __post_init__(self) -> None:
        if self.queue_count <= 0:
            raise GaspiInvalidArgumentError("queue_count must be positive")
        if self.spin < 0:
            raise GaspiInvalidArgumentError("spin must be non-negative")
        if self.wait_slice <= 0:
            raise GaspiInvalidArgumentError("wait_slice must be positive")


class _SegmentBlock:
    """One mapped shared-memory block: header + notification board + data."""

    __slots__ = (
        "name",
        "owner_rank",
        "segment_id",
        "shm",
        "header",
        "notif",
        "data",
        "num_notifications",
        "size",
        "owned",
    )

    def __init__(
        self,
        name: str,
        owner_rank: int,
        segment_id: int,
        shm: shared_memory.SharedMemory,
        owned: bool,
    ) -> None:
        self.name = name
        self.owner_rank = owner_rank
        self.segment_id = segment_id
        self.shm = shm
        self.owned = owned
        header = np.frombuffer(shm.buf, dtype=np.int64, count=_HEADER_SLOTS)
        self.header = header
        self.num_notifications = int(header[_H_NOTIF])
        self.size = int(header[_H_SIZE])
        self.notif = np.frombuffer(
            shm.buf, dtype=np.int64, count=self.num_notifications, offset=_HEADER_BYTES
        )
        data_offset = _HEADER_BYTES + self.num_notifications * 8
        self.data = np.frombuffer(
            shm.buf, dtype=np.uint8, count=self.size, offset=data_offset
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls, name: str, owner_rank: int, segment_id: int, size: int, num_notifications: int
    ) -> "_SegmentBlock":
        total = _HEADER_BYTES + num_notifications * 8 + size
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        except FileExistsError as exc:
            raise GaspiResourceError(
                f"shared-memory block {name!r} already exists "
                f"(segment {segment_id} of rank {owner_rank} not cleaned up?)"
            ) from exc
        header = np.frombuffer(shm.buf, dtype=np.int64, count=_HEADER_SLOTS)
        header[_H_SIZE] = size
        header[_H_NOTIF] = num_notifications
        header[_H_POSTED] = 0
        header[_H_VALID] = 1  # published last: attachers check this word
        return cls(name, owner_rank, segment_id, shm, owned=True)

    @classmethod
    def attach(cls, name: str, owner_rank: int, segment_id: int) -> "_SegmentBlock":
        shm = _Attachment(name)
        block = cls(name, owner_rank, segment_id, shm, owned=False)
        if not block.valid:
            block.release()
            raise GaspiSegmentError(
                f"rank {owner_rank}'s segment {segment_id} was deleted"
            )
        return block

    # ------------------------------------------------------------------ #
    @property
    def valid(self) -> bool:
        return bool(self.header[_H_VALID] == 1)

    def check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise GaspiSegmentError(
                f"byte range [{offset}, {offset + size}) outside segment "
                f"{self.segment_id} of {self.size} bytes"
            )

    def check_notification(self, notification_id: int) -> None:
        if not (0 <= notification_id < self.num_notifications):
            raise GaspiInvalidArgumentError(
                f"notification id {notification_id} outside "
                f"[0, {self.num_notifications})"
            )

    # ------------------------------------------------------------------ #
    def release(self) -> None:
        """Drop the NumPy views and unmap (never raises)."""
        self.header = self.notif = self.data = None  # release exported buffers
        _quiet_close(self.shm)

    def destroy(self) -> None:
        """Owner-side teardown: invalidate, unmap and unlink."""
        if self.header is not None:
            self.header[_H_VALID] = 0
        self.release()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            pass


class ShmWorld:
    """Shared state of a process-per-rank GASPI world.

    Create the world *before* forking the rank processes (``fork`` start
    method): the control block, the lock stripes and the notification
    condition variable are inherited by every child.  :meth:`fork` starts
    a rank process; :func:`run_shm` and
    :class:`~repro.elastic.world.ElasticShmWorld` both use it, and tests
    can also drive a world manually.
    """

    def __init__(
        self,
        size: int,
        config: Optional[ShmConfig] = None,
        uid: Optional[str] = None,
    ) -> None:
        if size <= 0:
            raise GaspiInvalidArgumentError(f"world size must be positive, got {size}")
        self.size = int(size)
        self.config = config or ShmConfig()
        self.uid = uid or f"repro-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self._ctx = multiprocessing.get_context("fork")
        ctl_bytes = _BARRIER_SLOTS * _BARRIER_FIELDS * 8
        self._ctl = shared_memory.SharedMemory(
            name=f"{self.uid}-ctl", create=True, size=ctl_bytes
        )
        self._barrier_table = np.frombuffer(self._ctl.buf, dtype=np.int64)
        self._atomic_lock = self._ctx.Lock()
        self._segment_locks = tuple(
            self._ctx.Lock() for _ in range(_SEGMENT_LOCK_STRIPES)
        )
        self._data_locks = tuple(
            self._ctx.Lock() for _ in range(_SEGMENT_LOCK_STRIPES)
        )
        self._notify_cond = self._ctx.Condition()
        self._notify_waiters = self._ctx.RawValue("i", 0)
        #: True when every rank can own a core; decides how long a
        #: blocked wait polls before it parks (see :meth:`hybrid_wait`).
        self.dedicated_cores = self.size <= len(os.sched_getaffinity(0))
        #: Blocked waits of *this process* that ended while polling /
        #: that went on to park.  Plain ints: the world object is
        #: inherited by fork, so every rank process counts its own.
        self.waits_spun = 0
        self.waits_parked = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    def runtime(self, rank: int) -> "ShmRuntime":
        """Per-rank runtime facade (construct inside the rank's process)."""
        if not (0 <= rank < self.size):
            raise GaspiInvalidArgumentError(
                f"rank {rank} outside world of size {self.size}"
            )
        return ShmRuntime(self, rank)

    def fork(
        self, rank: int, fn: Callable[..., Any], args: tuple, kwargs: dict, name: str
    ) -> Tuple[Any, Any]:
        """Fork the process of ``rank``, running ``fn(runtime, *args, **kwargs)``.

        Returns the started process and the read end of its result pipe,
        which yields ``("ok", value)`` or ``("err", exc, traceback)`` once,
        or EOF if the rank died without reporting.  The parent first hands
        its heap's free pages back to the OS: a forked rank maps every
        resident page of its parent, so memory the parent freed but its
        allocator kept would sit in every rank's resident set.
        """
        parent_end, child_end = self._ctx.Pipe(duplex=False)
        _malloc_trim(0)  # the heap's free pages back to the OS
        proc = self._ctx.Process(
            target=_shm_child_main,
            args=(self, rank, fn, args, kwargs, child_end),
            name=name,
            daemon=True,
        )
        proc.start()
        child_end.close()  # the parent only reads
        return proc, parent_end

    def segment_name(self, rank: int, segment_id: int) -> str:
        return f"{self.uid}-r{rank}-s{segment_id}"

    def segment_lock(self, owner_rank: int, segment_id: int):
        """The lock guarding a segment's notification board."""
        return self._segment_locks[_segment_lock_index(owner_rank, segment_id)]

    def data_lock(self, owner_rank: int, segment_id: int):
        """The lock bulk writers into a segment and ``segment_read`` take."""
        return self._data_locks[_segment_lock_index(owner_rank, segment_id)]

    # ------------------------------------------------------------------ #
    # notification wake-up (busy-wait/condvar hybrid, posting side)
    # ------------------------------------------------------------------ #
    def wake_waiters(self) -> None:
        """Signal parked waiters; a no-op while nobody is registered."""
        if self._notify_waiters.value:
            with self._notify_cond:
                self._notify_cond.notify_all()

    def hybrid_wait(self, poll: Callable[[], Any], timeout: float):
        """Run ``poll`` until it returns non-``None`` or ``timeout`` expires.

        Phase one yield-polls.  With a core per rank
        (:attr:`dedicated_cores`) it does so for up to ``wait_slice``
        seconds: nobody else wants the core, a poll notices a post within
        a microsecond, and the poster skips ``notify_all`` because no
        waiter is registered — parking would add a futex wake-up to every
        wait longer than a few dozen yields, which on a pipelined
        transfer is every chunk.  Otherwise the budget is ``config.spin``
        iterations.  That is the oversubscribed world — the notification
        is either already there or a scheduling quantum away, and the
        peer needs the core — and also any wait whose own ``timeout`` is
        shorter than ``wait_slice``: such a caller slices a long wait
        into short ones itself (the progress thread's 200 us parks on the
        head pipeline), so polling each slice out would add up to an
        unbounded spin that holds the GIL against the thread it is meant
        to overlap with.
        Phase two registers as a waiter and parks on the shared condition
        variable in ``wait_slice`` bites (the slice bounds the race of a
        post landing between the poster's waiter check and this waiter's
        registration).
        """
        hit = poll()
        if hit is not None:
            return hit
        if timeout == 0.0:
            return None
        now = time.monotonic()
        deadline = None if timeout == GASPI_BLOCK else now + timeout
        wait_slice = self.config.wait_slice
        if self.dedicated_cores and (deadline is None or timeout >= wait_slice):
            polls = itertools.repeat(None)
            spin_until = now + wait_slice
        else:
            polls = range(self.config.spin)
            spin_until = deadline
        for _ in polls:
            os.sched_yield()
            hit = poll()
            if hit is not None:
                self.waits_spun += 1
                return hit
            if spin_until is not None:
                now = time.monotonic()
                if now >= spin_until:
                    if deadline is not None and now >= deadline:
                        self.waits_spun += 1
                        return None
                    break
        self.waits_parked += 1
        cond = self._notify_cond
        waiters = self._notify_waiters
        with cond:
            waiters.value += 1
            try:
                while True:
                    hit = poll()
                    if hit is not None:
                        return hit
                    slice_ = self.config.wait_slice
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return None
                        slice_ = min(slice_, remaining)
                    cond.wait(slice_)
            finally:
                waiters.value -= 1

    # ------------------------------------------------------------------ #
    # barrier slots
    # ------------------------------------------------------------------ #
    def barrier_slot(self, group: Group) -> int:
        """Find or claim the barrier slot of a group (deterministic).

        Every rank computes the same key from the member set and probes
        the shared table in the same order under the atomic lock, so all
        members agree on the slot without any out-of-band exchange.
        """
        key = _group_key(group)
        table = self._barrier_table
        with self._atomic_lock:
            for probe in range(_BARRIER_SLOTS):
                base = ((key + probe) % _BARRIER_SLOTS) * _BARRIER_FIELDS
                slot_key = int(table[base])
                if slot_key == key:
                    return base
                if slot_key == 0:
                    table[base] = key
                    return base
        raise GaspiResourceError(
            f"barrier table exhausted ({_BARRIER_SLOTS} distinct groups)"
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def leaked_blocks(self) -> List[str]:
        """Names of this world's shared-memory blocks still in ``/dev/shm``.

        The control block is excluded — it lives for the world's whole
        lifetime and is unlinked by :meth:`close`.
        """
        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
            return []
        prefix = self.uid
        return sorted(
            name
            for name in os.listdir(shm_dir)
            if name.startswith(prefix) and not name.endswith("-ctl")
        )

    def stale_segments(self, rank: int) -> List[int]:
        """Segment ids of ``rank``'s blocks still present in ``/dev/shm``.

        After a rank process dies hard its owned blocks persist under
        their deterministic names; a replacement process lists them here
        to decide what to adopt (:meth:`ShmRuntime.adopt_segment`) and
        what to discard (:meth:`unlink_segment`).
        """
        prefix = f"{self.uid}-r{int(rank)}-s"
        ids: List[int] = []
        for name in self.leaked_blocks():
            if not name.startswith(prefix):
                continue
            try:
                ids.append(int(name[len(prefix):]))
            except ValueError:  # pragma: no cover - foreign name collision
                continue
        return sorted(ids)

    def unlink_segment(self, rank: int, segment_id: int) -> bool:
        """Unlink one dead rank's leftover block; True if it existed.

        Invalidates the header first so peers holding a cached attachment
        observe the deletion, exactly as the owner's ``segment_delete``
        would have.
        """
        name = self.segment_name(int(rank), int(segment_id))
        try:
            stale = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            return False
        try:
            header = np.frombuffer(stale.buf, dtype=np.int64, count=_HEADER_SLOTS)
            header[_H_VALID] = 0
            del header
        except (ValueError, IndexError):  # pragma: no cover - truncated block
            pass
        _quiet_close(stale)
        try:
            stale.unlink()
        except FileNotFoundError:  # pragma: no cover - raced cleanup
            return False
        return True

    def sweep(self) -> List[str]:
        """Unlink any leaked segment blocks; returns their names."""
        leaked = self.leaked_blocks()
        for name in leaked:
            try:
                stale = shared_memory.SharedMemory(name=name, create=False)
                stale.close()
                stale.unlink()
            except FileNotFoundError:  # pragma: no cover - raced cleanup
                pass
        return leaked

    def close(self) -> None:
        """Unlink the control block and sweep leftovers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.sweep()
        self._barrier_table = None
        _quiet_close(self._ctl)
        try:
            self._ctl.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

    def __enter__(self) -> "ShmWorld":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShmRuntime(GaspiRuntime):
    """Per-rank facade over an :class:`ShmWorld` (one process per rank)."""

    def __init__(self, world: ShmWorld, rank: int) -> None:
        self._world = world
        self._rank = int(rank)
        self._local: Dict[int, _SegmentBlock] = {}
        self._remote: Dict[Tuple[int, int], _SegmentBlock] = {}
        self._barrier_slots: Dict[Group, int] = {}
        self.stats = TrafficStats()

    # -- identity ------------------------------------------------------- #
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.size

    @property
    def world(self) -> ShmWorld:
        """The shared world this runtime belongs to."""
        return self._world

    # -- segments ------------------------------------------------------- #
    def segment_create(
        self,
        segment_id: int,
        size: int,
        num_notifications: int = DEFAULT_NOTIFICATION_COUNT,
    ) -> None:
        if size <= 0:
            raise GaspiInvalidArgumentError(f"segment size must be > 0, got {size}")
        if segment_id < 0:
            raise GaspiInvalidArgumentError(
                f"segment id must be non-negative, got {segment_id}"
            )
        if num_notifications <= 0:
            raise GaspiInvalidArgumentError(
                "notification board needs at least one slot, "
                f"got {num_notifications}"
            )
        if segment_id in self._local:
            raise GaspiResourceError(
                f"rank {self._rank}: segment {segment_id} already exists"
            )
        if len(self._local) >= self._world.config.max_segments:
            raise GaspiResourceError(
                f"rank {self._rank}: segment limit "
                f"{self._world.config.max_segments} reached"
            )
        self._local[segment_id] = _SegmentBlock.create(
            self._world.segment_name(self._rank, segment_id),
            self._rank,
            segment_id,
            int(size),
            int(num_notifications),
        )

    def adopt_segment(self, segment_id: int) -> Dict[int, int]:
        """Re-attach a dead predecessor's block as this rank's own segment.

        A respawned rank inherits the shared-memory block its previous
        incarnation left behind in ``/dev/shm`` (same deterministic name,
        since names key on rank and segment id, not process identity):
        the block is mapped, the header word re-validated, and any stale
        notifications the survivors posted at the dead incarnation are
        drained under the segment lock.  Returns the drained
        ``{notification_id: value}`` map — the survivors' contributions
        are still in the data bytes, but the replacement re-drives the
        exchange itself, so leftover arrival flags must not be mistaken
        for fresh ones.

        Raises :class:`GaspiSegmentError` when no such block exists (the
        predecessor never created it, or it was swept) and
        :class:`GaspiResourceError` on a duplicate id or segment-limit
        breach, mirroring :meth:`segment_create`.
        """
        segment_id = int(segment_id)
        if segment_id in self._local:
            raise GaspiResourceError(
                f"rank {self._rank}: segment {segment_id} already exists"
            )
        if len(self._local) >= self._world.config.max_segments:
            raise GaspiResourceError(
                f"rank {self._rank}: segment limit "
                f"{self._world.config.max_segments} reached"
            )
        name = self._world.segment_name(self._rank, segment_id)
        try:
            shm = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError as exc:
            raise GaspiSegmentError(
                f"rank {self._rank}: no leftover block to adopt for "
                f"segment {segment_id}"
            ) from exc
        block = _SegmentBlock(name, self._rank, segment_id, shm, owned=True)
        if not block.valid:
            block.release()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - raced cleanup
                pass
            raise GaspiSegmentError(
                f"rank {self._rank}: leftover segment {segment_id} was "
                f"invalidated before adoption"
            )
        with self._world.segment_lock(self._rank, segment_id):
            pending = np.flatnonzero(block.notif > 0)
            drained = {int(i): int(block.notif[i]) for i in pending}
            block.notif[pending] = 0
        self._local[segment_id] = block
        return drained

    def segment_delete(self, segment_id: int) -> None:
        block = self._local.pop(segment_id, None)
        if block is None:
            raise GaspiSegmentError(
                f"rank {self._rank}: cannot delete unknown segment {segment_id}"
            )
        block.destroy()
        # Segment ids are symmetric across ranks, so deleting the local
        # copy ends this rank's use of the peers' copies too.  Unmap them
        # now: ids are rarely reused, and an attachment kept until its id
        # comes round again holds a mapping and two descriptors.  (A peer
        # copy that is written again is simply re-attached.)
        for key in [k for k in self._remote if k[1] == segment_id]:
            self._remote.pop(key).release()

    def segment_view(
        self,
        segment_id: int,
        dtype=np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        block = self._local_segment(segment_id)
        dtype = np.dtype(dtype)
        if offset < 0 or offset > block.size:
            raise GaspiSegmentError(
                f"offset {offset} outside segment of {block.size} bytes"
            )
        avail = block.size - offset
        if count is None:
            count = avail // dtype.itemsize
        nbytes = count * dtype.itemsize
        if nbytes > avail:
            raise GaspiSegmentError(
                f"requested {nbytes} bytes at offset {offset} but only "
                f"{avail} bytes remain in segment {segment_id}"
            )
        return block.data[offset : offset + nbytes].view(dtype)

    def segment_size(self, segment_id: int) -> int:
        return self._local_segment(segment_id).size

    def segment_read(
        self,
        segment_id: int,
        dtype=np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        dtype = np.dtype(dtype)
        block = self._local_segment(segment_id)
        if count is None:
            count = (block.size - offset) // dtype.itemsize
        nbytes = count * dtype.itemsize
        block.check_range(offset, nbytes)
        # Snapshot under both of the segment's locks — bulk writers copy
        # under the data lock, small ones under the board lock — so a
        # half-applied remote write (the SSP mailbox race) is never
        # observed.  Data before board is the only nesting anywhere.
        with self._world.data_lock(self._rank, segment_id):
            with self._world.segment_lock(self._rank, segment_id):
                raw = block.data[offset : offset + nbytes].copy()
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
        self._check_target(target_rank)
        self._check_queue(queue)
        source = self._read_local(segment_id_local, offset_local, size)
        self._apply_write(target_rank, segment_id_remote, offset_remote, source)
        if self._world.config.collect_stats:
            self.stats.record_send(target_rank, size, notified=False)

    def notify(
        self,
        target_rank: int,
        segment_id_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        self._check_target(target_rank)
        self._check_queue(queue)
        self._apply_notify(
            target_rank, segment_id_remote, notification_id, notification_value
        )
        if self._world.config.collect_stats:
            self.stats.record_send(target_rank, 0, notified=True)

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
        self._post_write_notify(
            self._read_local(segment_id_local, offset_local, size),
            target_rank,
            segment_id_remote,
            offset_remote,
            notification_id,
            notification_value,
            queue,
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
        # Caller memory need not be shared: this process does the copy.
        self._post_write_notify(
            source_bytes(source),
            target_rank,
            segment_id_remote,
            offset_remote,
            notification_id,
            notification_value,
            queue,
        )

    def _post_write_notify(
        self,
        source: np.ndarray,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        notification_id: int,
        notification_value: int,
        queue: int,
    ) -> None:
        self._check_target(target_rank)
        self._check_queue(queue)
        value = int(notification_value)
        if value <= 0:
            raise GaspiInvalidArgumentError(
                f"notification values must be > 0, got {value}"
            )
        block = self._segment_of(target_rank, segment_id_remote)
        block.check_range(offset_remote, source.size)
        block.check_notification(notification_id)
        # Data first, then the notification; each lock release orders the
        # stores before it, so the GASPI visibility guarantee holds even
        # under weak memory ordering.  A small write does both inside ONE
        # board-lock section (the hottest protocol op: one lock round
        # trip).  A bulk write copies under the data lock and takes the
        # board lock for the two stores only, so the target's
        # notify_reset/notify_drain never wait for a memcpy.
        size = source.size
        bulk = size >= _BULK_WRITE_BYTES
        if bulk:
            with self._world.data_lock(target_rank, segment_id_remote):
                block.data[offset_remote : offset_remote + size] = source
        with self._world.segment_lock(target_rank, segment_id_remote):
            if size and not bulk:
                block.data[offset_remote : offset_remote + size] = source
            block.notif[notification_id] = value
            block.header[_H_POSTED] += 1
        self._world.wake_waiters()
        if self._world.config.collect_stats:
            self.stats.record_send(target_rank, source.size, notified=True)

    def _apply_write(
        self, target_rank: int, segment_id: int, offset: int, source: np.ndarray
    ) -> None:
        block = self._segment_of(target_rank, segment_id)
        block.check_range(offset, source.size)
        if source.size:
            world = self._world
            bulk = source.size >= _BULK_WRITE_BYTES
            lock = world.data_lock if bulk else world.segment_lock
            with lock(target_rank, segment_id):
                block.data[offset : offset + source.size] = source

    def _apply_notify(
        self, target_rank: int, segment_id: int, notification_id: int, value: int
    ) -> None:
        value = int(value)
        if value <= 0:
            raise GaspiInvalidArgumentError(
                f"notification values must be > 0, got {value}"
            )
        block = self._segment_of(target_rank, segment_id)
        block.check_notification(notification_id)
        with self._world.segment_lock(target_rank, segment_id):
            block.notif[notification_id] = value
            block.header[_H_POSTED] += 1
        self._world.wake_waiters()

    # -- weak synchronisation ------------------------------------------- #
    def _notification_window(
        self, segment_id: int, begin: int, count: Optional[int]
    ) -> Tuple[_SegmentBlock, int, int]:
        block = self._local_segment(segment_id)
        if count is None:
            count = block.num_notifications - begin
        if count <= 0:
            raise GaspiInvalidArgumentError(f"count must be positive, got {count}")
        block.check_notification(begin)
        block.check_notification(begin + count - 1)
        return block, begin, count

    @staticmethod
    def _first_pending(values: np.ndarray, begin: int, count: int) -> Optional[int]:
        if count == 1:  # the common "wait for this one id" fast path
            return begin if values[begin] > 0 else None
        hits = np.flatnonzero(values[begin : begin + count] > 0)
        return int(begin + hits[0]) if hits.size else None

    def notify_waitsome(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
        timeout: float = GASPI_BLOCK,
    ) -> Optional[int]:
        block, begin, count = self._notification_window(
            segment_id_local, notification_begin, notification_count
        )
        values = block.notif
        return self._world.hybrid_wait(
            lambda: self._first_pending(values, begin, count), timeout
        )

    def notify_reset(self, segment_id_local: int, notification_id: int) -> int:
        block = self._local_segment(segment_id_local)
        block.check_notification(notification_id)
        with self._world.segment_lock(self._rank, segment_id_local):
            old = int(block.notif[notification_id])
            block.notif[notification_id] = 0
        return old

    def notify_peek(self, segment_id_local: int, notification_id: int) -> int:
        block = self._local_segment(segment_id_local)
        block.check_notification(notification_id)
        return int(block.notif[notification_id])

    def notify_probe(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
    ) -> bool:
        block, begin, count = self._notification_window(
            segment_id_local, notification_begin, notification_count
        )
        values = block.notif
        if count == 1:
            return bool(values[begin] > 0)
        return bool(values[begin : begin + count].max(initial=0) > 0)

    def notify_drain(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
    ) -> Dict[int, int]:
        block, begin, count = self._notification_window(
            segment_id_local, notification_begin, notification_count
        )
        end = begin + count
        with self._world.segment_lock(self._rank, segment_id_local):
            window = block.notif[begin:end]
            pending = np.flatnonzero(window > 0)
            hits = {int(begin + i): int(window[i]) for i in pending}
            window[pending] = 0
        return hits

    # -- queues / barriers ----------------------------------------------- #
    def wait(self, queue: int = 0, timeout: float = GASPI_BLOCK) -> None:
        # Writes apply synchronously in the posting process (immediate
        # delivery, like the threaded world's default mode); a queue
        # flush has nothing left to wait for.
        self._check_queue(queue)

    def barrier(
        self, group: Optional[Group] = None, timeout: float = GASPI_BLOCK
    ) -> None:
        group = group or self.group_all
        if not group.contains(self._rank):
            raise GaspiInvalidArgumentError(
                f"rank {self._rank} called barrier on group {group} "
                f"it is not part of"
            )
        if group.size > 1:
            self._counter_barrier(group, timeout)
        if self._world.config.collect_stats:
            self.stats.barriers += 1

    def _counter_barrier(self, group: Group, timeout: float) -> None:
        """Sense-reversing counter barrier with broken-barrier semantics.

        The classic two-state sense is generalised to a monotonic round
        number (the sense is the round's parity): arrivals join the
        current round, the last one resets the counter and advances the
        round, which releases every waiter.

        A waiter that exhausts a finite timeout marks the round *broken*;
        every other waiter of the round observes the mark and fails the
        same way (the cross-process analogue of a broken
        ``threading.Barrier``), and the last one to leave retires the
        round by advancing the round number.  New arrivals never join a
        broken round — they wait for it to drain first — so a rank that
        re-enters the barrier right after its timeout cannot cascade the
        breakage into the next round.
        """
        slot = self._barrier_slots.get(group)
        if slot is None:
            slot = self._world.barrier_slot(group)
            self._barrier_slots[group] = slot
        table = self._world._barrier_table
        lock = self._world._atomic_lock
        count_i, round_i, broken_i = slot + 1, slot + 2, slot + 3
        deadline = None if timeout == GASPI_BLOCK else time.monotonic() + timeout

        # Join a round, waiting out a draining broken round if needed.
        while True:
            with lock:
                my_round = int(table[round_i])
                if int(table[broken_i]) != my_round + 1:
                    arrived = int(table[count_i]) + 1
                    if arrived == group.size:
                        table[count_i] = 0
                        table[round_i] = my_round + 1  # releases every waiter
                        released = True
                    else:
                        table[count_i] = arrived
                        released = False
                    break
            if deadline is not None and time.monotonic() >= deadline:
                raise GaspiTimeoutError(
                    f"barrier over {group} timed out after {timeout} s "
                    f"(previous broken round still draining)"
                )
            os.sched_yield()
        if released:
            self._world.wake_waiters()
            return

        def poll() -> Optional[int]:
            if int(table[round_i]) > my_round:
                return 1
            if int(table[broken_i]) == my_round + 1:
                return 2
            return None

        outcome = self._world.hybrid_wait(poll, timeout)
        if outcome == 1:
            return
        with lock:
            if int(table[round_i]) > my_round:
                return  # released while we were timing out
            # ``broken_round + 1`` so round 0 is distinguishable from
            # "no broken round" (slot memory starts zeroed).
            table[broken_i] = my_round + 1
            remaining = int(table[count_i]) - 1
            table[count_i] = remaining
            if remaining <= 0:  # last leaver retires the broken round
                table[count_i] = 0
                table[round_i] = my_round + 1
                table[broken_i] = 0
        self._world.wake_waiters()
        raise GaspiTimeoutError(
            f"barrier over {group} timed out after {timeout} s"
        )

    # -- atomics ---------------------------------------------------------- #
    def atomic_fetch_add(
        self,
        segment_id: int,
        offset: int,
        target_rank: int,
        value: int,
    ) -> int:
        self._check_target(target_rank)
        block = self._segment_of(target_rank, segment_id)
        block.check_range(offset, 8)
        slot = block.data[offset : offset + 8].view(np.int64)
        with self._world._atomic_lock:
            old = int(slot[0])
            slot[0] = old + int(value)
        return old

    # -- internals -------------------------------------------------------- #
    def _local_segment(self, segment_id: int) -> _SegmentBlock:
        block = self._local.get(segment_id)
        if block is None:
            raise GaspiSegmentError(
                f"rank {self._rank} has no segment with id {segment_id}"
            )
        return block

    def _segment_of(self, target_rank: int, segment_id: int) -> _SegmentBlock:
        if target_rank == self._rank:
            return self._local_segment(segment_id)
        key = (target_rank, segment_id)
        block = self._remote.get(key)
        if block is not None:
            if block.valid:
                return block
            # The owner deleted (and possibly recreated) the segment:
            # drop the stale mapping and re-attach by name.
            self._remote.pop(key).release()
        try:
            block = _SegmentBlock.attach(
                self._world.segment_name(target_rank, segment_id),
                target_rank,
                segment_id,
            )
        except FileNotFoundError as exc:
            raise GaspiSegmentError(
                f"rank {target_rank} has no segment with id {segment_id}"
            ) from exc
        self._remote[key] = block
        return block

    def _read_local(self, segment_id: int, offset: int, size: int) -> np.ndarray:
        # Zero-copy view of the posting rank's own segment, mirroring
        # ThreadedRuntime._read_local: GASPI requires the source region
        # to stay stable until wait(), and writes apply synchronously
        # here, so the view is consumed before this call returns.
        block = self._local_segment(segment_id)
        block.check_range(offset, size)
        return block.data[offset : offset + size]

    def _check_target(self, target_rank: int) -> None:
        if not (0 <= target_rank < self._world.size):
            raise GaspiInvalidArgumentError(
                f"target rank {target_rank} outside world of size {self._world.size}"
            )

    def _check_queue(self, queue: int) -> None:
        if not (0 <= queue < self._world.config.queue_count):
            raise GaspiInvalidArgumentError(
                f"rank {self._rank} has no queue {queue} "
                f"(queue_count={self._world.config.queue_count})"
            )

    # -- lifecycle -------------------------------------------------------- #
    def close(self) -> None:
        """Release every mapping this rank holds (idempotent).

        Owned segments are invalidated and unlinked; remote attachments
        are merely unmapped — their owners unlink them.  Call this before
        the rank process exits so no shared-memory block outlives the
        world (:func:`run_shm` does it in a ``finally``).
        """
        for key in list(self._remote):
            self._remote.pop(key).release()
        for segment_id in list(self._local):
            self._local.pop(segment_id).destroy()

    def __repr__(self) -> str:
        world = self._world
        return (
            f"ShmRuntime(rank={self._rank}, size={self.size}, "
            f"waits_spun={world.waits_spun}, waits_parked={world.waits_parked})"
        )


# --------------------------------------------------------------------------- #
# SPMD launcher over processes
# --------------------------------------------------------------------------- #
def _picklable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round-trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _shm_child_main(world: ShmWorld, rank: int, fn, args, kwargs, conn) -> None:
    """Entry point of every rank process (inherits everything via fork)."""
    # The child's copy of the control block dies with the process; its
    # barrier-table view keeps the buffer exported, so a garbage-collected
    # close would only print an ignored BufferError.  Only the parent
    # closes and unlinks the control block.
    world._ctl.close = lambda: None
    runtime = world.runtime(rank)
    try:
        try:
            payload: Tuple[Any, ...] = ("ok", fn(runtime, *args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            payload = ("err", _picklable_exception(exc), traceback.format_exc())
    finally:
        runtime.close()
    try:
        conn.send(payload)
    except Exception as exc:  # result not picklable, broken pipe, ...
        try:
            conn.send(
                ("err", RuntimeError(f"rank {rank} could not ship its result: {exc}"), "")
            )
        except Exception:  # pragma: no cover - parent is gone
            pass
    conn.close()


def run_shm(
    num_ranks: int,
    fn: Callable[..., Any],
    *args: Any,
    config: Optional[ShmConfig] = None,
    timeout: Optional[float] = 120.0,
    warn_leaks: bool = True,
    **kwargs: Any,
) -> List[Any]:
    """Run ``fn(runtime, *args, **kwargs)`` on ``num_ranks`` rank *processes*.

    The process-world analogue of :func:`~repro.gaspi.spmd.run_spmd`:
    one OS process per rank, forked by :meth:`ShmWorld.fork` (which
    trims the parent's heap first), each with an :class:`ShmRuntime`
    whose segments live in POSIX shared memory, so ranks run truly in
    parallel (no shared GIL).  Per-rank return values are shipped back
    over pipes (they must be picklable); exceptions are collected and
    re-raised as :class:`~repro.gaspi.spmd.SpmdError`, and a rank that
    exceeds ``timeout`` is terminated and reported the same way.

    After the ranks exit, any shared-memory block they leaked (e.g. a
    crashed rank that never reached its cleanup) is unlinked; with
    ``warn_leaks`` a :class:`ResourceWarning` names the swept blocks, so
    tests can assert clean teardown.
    """
    if num_ranks <= 0:
        raise ValueError(f"num_ranks must be positive, got {num_ranks}")
    world = ShmWorld(num_ranks, config)
    results: List[Any] = [None] * num_ranks
    failures: List[tuple] = []
    stuck: List[int] = []
    try:
        launched = [
            world.fork(rank, fn, args, kwargs, f"gaspi-shm-rank-{rank}")
            for rank in range(num_ranks)
        ]
        deadline = None if timeout is None else time.monotonic() + timeout
        for rank, (_, parent_end) in enumerate(launched):
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                ready = parent_end.poll(remaining)
            except (EOFError, OSError):
                ready = False
            if not ready:
                stuck.append(rank)
                continue
            try:
                payload = parent_end.recv()
            except (EOFError, OSError):
                failures.append(
                    (
                        rank,
                        RuntimeError(
                            f"rank {rank} exited without reporting a result "
                            "(killed or crashed hard?)"
                        ),
                        "",
                    )
                )
                continue
            if payload[0] == "ok":
                results[rank] = payload[1]
            else:
                failures.append((rank, payload[1], payload[2]))
        for rank, (proc, _) in enumerate(launched):
            proc.join(0.0 if rank in stuck else 5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
    finally:
        leaked = world.leaked_blocks()
        world.close()
        if leaked and warn_leaks and not stuck:
            warnings.warn(
                f"run_shm swept {len(leaked)} leaked shared-memory "
                f"block(s): {leaked}",
                ResourceWarning,
                stacklevel=2,
            )
    if stuck:
        raise SpmdError(
            [
                (
                    rank,
                    TimeoutError(
                        f"rank {rank} did not finish within {timeout} s "
                        "(deadlocked collective?)"
                    ),
                    "",
                )
                for rank in stuck
            ]
            + failures
        )
    if failures:
        failures.sort(key=lambda item: item[0])
        raise SpmdError(failures)
    return results
