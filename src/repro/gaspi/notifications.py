"""Notification board: GASPI's weak synchronisation primitive.

GASPI complements one-sided writes with *notifications*: small integer
values attached to a segment that a remote rank can set atomically.  The
receiver polls or blocks on a range of notification ids
(``gaspi_notify_waitsome``) and atomically resets a slot
(``gaspi_notify_reset``), which returns the old value.

The crucial guarantee — restated in Section II of the paper — is that when
a notification posted by ``gaspi_write_notify`` becomes visible at the
receiver, the data of the same request is already visible in the target
segment.  :class:`NotificationBoard` enforces exactly this ordering because
the threaded runtime always applies the data copy *before* calling
:meth:`NotificationBoard.post`.

A blocked wait polls, then parks.  Rank threads share one GIL, so the peer
a waiter is blocked on can only post once it holds it: ``os.sched_yield()``
hands the GIL over and takes it back in a third of the time a
``threading.Condition`` park and wake-up cost, and the poster's
``notify_all`` then finds nobody to wake.  So a waiter yields and probes
(lock-free) ``WAIT_SPIN`` times — a count, no clock is read — and only then
parks, re-checking under the condition :meth:`NotificationBoard.post`
stores under, so a post between the last probe and the park is never lost.
``timeout == 0`` probes once and never yields.  A finite timeout under
``WAIT_SLICE`` parks at once: its caller is slicing a longer wait (the
progress thread's 200 us parks), and polling every slice out would hold the
GIL against the compute that thread overlaps.  A finite deadline is taken
before the poll phase, so the timeout stays a bound.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, Optional

import numpy as np

from .constants import DEFAULT_NOTIFICATION_COUNT, GASPI_BLOCK, WAIT_SLICE, WAIT_SPIN
from .errors import GaspiInvalidArgumentError, GaspiTimeoutError


class NotificationBoard:
    """Thread-safe array of notification slots attached to one segment.

    Parameters
    ----------
    num_slots:
        Number of notification ids available (``0 .. num_slots - 1``).

    Notes
    -----
    Slot values follow GASPI semantics:

    * a value of ``0`` means "no notification pending";
    * remote ranks post values ``> 0`` with :meth:`post`;
    * :meth:`reset` atomically swaps a slot back to ``0`` and returns the
      previous value, so a waiter can consume a notification exactly once
      even when several threads race on the same slot.

    The slot store is a preallocated flat ``int64`` array indexed by
    notification id — the board is touched on every message, and hashing
    ids into a dict while holding the condition lock was pure overhead.
    (An array also makes the allocation free: ``np.zeros`` is
    calloc-backed, so creating a segment does not pay for 64k slots up
    front the way a Python list would.)  Validation and coercion happen
    *outside* the lock; the critical sections in :meth:`post` and
    :meth:`reset` are a single slot assignment (plus the waiter wake-up),
    and range scans (:meth:`drain`, :meth:`pending_ids`) are vectorized.
    """

    def __init__(self, num_slots: int = DEFAULT_NOTIFICATION_COUNT) -> None:
        if num_slots <= 0:
            raise GaspiInvalidArgumentError(
                f"notification board needs at least one slot, got {num_slots}"
            )
        self._num_slots = int(num_slots)
        self._values = np.zeros(self._num_slots, dtype=np.int64)
        self._cond = threading.Condition()
        #: Monotonic counter of post() calls, useful for tests and tracing.
        self.posted_count = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_slots(self) -> int:
        """Number of notification ids this board provides."""
        return self._num_slots

    def peek(self, notification_id: int) -> int:
        """Return the current value of a slot without consuming it.

        Lock-free: reading one array element is atomic under the GIL, and
        a peek is by nature a racy snapshot anyway.
        """
        self._check_id(notification_id)
        return int(self._values[notification_id])

    def probe(self, begin: int = 0, count: Optional[int] = None) -> bool:
        """Lock-free probe: is any slot in ``[begin, begin + count)`` set?

        The nonblocking progress engine polls with this between compute
        steps; like :meth:`peek` it is a racy snapshot by nature, so it
        takes no lock — a pump that misses a just-posted notification
        simply catches it on the next pump.
        """
        if count is None:
            count = self._num_slots - begin
        self._check_id(begin)
        values = self._values
        if count == 1:
            return bool(values[begin] > 0)
        return bool(values[begin : begin + count].max(initial=0) > 0)

    def pending_ids(self) -> list[int]:
        """Return the sorted list of slots that currently hold a value > 0."""
        with self._cond:
            return [int(nid) for nid in np.flatnonzero(self._values > 0)]

    # ------------------------------------------------------------------ #
    # GASPI operations
    # ------------------------------------------------------------------ #
    def post(self, notification_id: int, value: int = 1) -> None:
        """Set a notification slot (remote side of ``gaspi_notify``).

        GASPI requires notification values to be strictly positive; a zero
        value would be indistinguishable from "not notified".  Validation
        and coercion run outside the lock; the lock-held region is the
        slot assignment and the waiter wake-up only.
        """
        self.store(notification_id, self.check_post(notification_id, value))

    def check_post(self, notification_id: int, value: int) -> int:
        """Validate a post without applying it; returns the coerced value."""
        self._check_id(notification_id)
        value = int(value)
        if value <= 0:
            raise GaspiInvalidArgumentError(
                f"notification values must be > 0, got {value}"
            )
        return value

    def store(self, notification_id: int, value: int) -> None:
        """The lock-held half of :meth:`post`, for what :meth:`check_post` passed.

        Apart, because the runtime checks a whole ``write_notify`` before it
        copies a byte, and stores after.
        """
        with self._cond:
            self._values[notification_id] = value
            self.posted_count += 1
            self._cond.notify_all()

    def reset(self, notification_id: int) -> int:
        """Atomically reset a slot to zero and return its previous value.

        Mirrors ``gaspi_notify_reset``.  Returns 0 when the slot was empty.
        The critical section is the read-and-clear swap only.
        """
        self._check_id(notification_id)
        values = self._values
        with self._cond:
            old = int(values[notification_id])
            values[notification_id] = 0
        return old

    def drain(self, begin: int = 0, count: Optional[int] = None) -> Dict[int, int]:
        """Atomically consume every pending slot in ``[begin, begin + count)``.

        Returns ``{id: value}`` for the slots that held a value > 0; all of
        them are reset in one critical section, so a concurrent ``post``
        either lands entirely before (and is drained) or entirely after
        (and stays pending).  This is the timeout-free sweep the degraded
        collectives run after their detection deadline.
        """
        if count is None:
            count = self._num_slots - begin
        if count <= 0:
            raise GaspiInvalidArgumentError(f"count must be positive, got {count}")
        self._check_id(begin)
        self._check_id(begin + count - 1)
        end = begin + count
        values = self._values
        with self._cond:
            window = values[begin:end]
            pending = np.flatnonzero(window > 0)
            hits = {int(begin + i): int(window[i]) for i in pending}
            window[pending] = 0
            return hits

    def wait_some(
        self,
        begin: int = 0,
        count: Optional[int] = None,
        timeout: float = GASPI_BLOCK,
    ) -> Optional[int]:
        """Wait until any slot in ``[begin, begin + count)`` is non-zero.

        Mirrors ``gaspi_notify_waitsome``.

        Returns
        -------
        The id of one pending notification in the range, or ``None`` when a
        finite ``timeout`` expired without any notification
        (``GASPI_TIMEOUT`` in the specification).  With ``timeout == 0``
        (``GASPI_TEST``) the board is probed exactly once.  A timeout never
        raises here: the SSP collective falls back to stale data on ``None``,
        and a caller to whom it is fatal raises :class:`GaspiTimeoutError`.
        """
        if count is None:
            count = self._num_slots - begin
        if count <= 0:
            raise GaspiInvalidArgumentError(f"count must be positive, got {count}")
        self._check_id(begin)
        self._check_id(begin + count - 1)

        hit = self._first_pending(begin, count)
        if hit is not None or timeout == 0.0:
            return hit
        return self._blocked_wait(lambda: self._first_pending(begin, count), timeout)

    def wait_all(
        self,
        ids: Iterable[int],
        timeout: float = GASPI_BLOCK,
    ) -> None:
        """Wait until *every* slot in ``ids`` is non-zero (helper, not GASPI).

        Convenience used by collectives that need all children to have
        contributed (e.g. the BST reduce root).  Raises
        :class:`GaspiTimeoutError` on a finite timeout.
        """
        wanted = list(ids)
        for nid in wanted:
            self._check_id(nid)
        values = self._values

        def all_set() -> Optional[bool]:
            return True if all(values[nid] > 0 for nid in wanted) else None

        if all_set() or (timeout != 0.0 and self._blocked_wait(all_set, timeout)):
            return
        missing = [n for n in wanted if values[n] == 0]
        raise GaspiTimeoutError(f"timed out waiting for notifications {missing}")

    def _blocked_wait(self, poll: Callable[[], Any], timeout: float) -> Any:
        """Poll, then park (module docstring), after a first probe missed.

        Returns ``poll``'s first non-``None`` result, or ``None`` when a
        finite non-zero ``timeout`` — the only kind that reads the clock —
        ran out.
        """
        deadline = None if timeout == GASPI_BLOCK else time.monotonic() + timeout
        if deadline is None or timeout >= WAIT_SLICE:
            for _ in range(WAIT_SPIN):
                os.sched_yield()
                hit = poll()
                if hit is not None:
                    return hit
        cond = self._cond
        with cond:
            while True:
                hit = poll()
                if hit is not None:
                    return hit
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                cond.wait(remaining)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _first_pending(self, begin: int, count: int) -> Optional[int]:
        values = self._values
        if count == 1:  # the common "wait for this one id" fast path
            return begin if values[begin] > 0 else None
        hits = np.flatnonzero(values[begin : begin + count] > 0)
        return int(begin + hits[0]) if hits.size else None

    def _check_id(self, notification_id: int) -> None:
        if not (0 <= notification_id < self._num_slots):
            raise GaspiInvalidArgumentError(
                f"notification id {notification_id} outside [0, {self._num_slots})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NotificationBoard(slots={self._num_slots}, "
            f"pending={len(self.pending_ids())})"
        )
