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
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, Optional

import numpy as np

from .constants import DEFAULT_NOTIFICATION_COUNT, GASPI_BLOCK
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
            return values[begin] > 0
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
        self._check_id(notification_id)
        value = int(value)
        if value <= 0:
            raise GaspiInvalidArgumentError(
                f"notification values must be > 0, got {value}"
            )
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
        (``GASPI_TEST``) the board is probed exactly once.

        Raises
        ------
        GaspiTimeoutError
            Never raised directly here — timeouts are reported by returning
            ``None`` so the SSP collective can fall back to stale data
            without exception-driven control flow.  Callers that consider a
            timeout fatal should raise :class:`GaspiTimeoutError` themselves.
        """
        if count is None:
            count = self._num_slots - begin
        if count <= 0:
            raise GaspiInvalidArgumentError(f"count must be positive, got {count}")
        self._check_id(begin)
        self._check_id(begin + count - 1)

        with self._cond:
            deadline = None  # the clock is read only by a finite wait that blocks
            while True:
                hit = self._first_pending(begin, count)
                if hit is not None or timeout == 0.0:
                    return hit
                if timeout == GASPI_BLOCK:
                    self._cond.wait()
                    continue
                now = time.monotonic()
                if deadline is None:
                    deadline = now + timeout
                if now >= deadline:
                    return None
                self._cond.wait(deadline - now)

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
        with self._cond:
            deadline = None
            while not all(self._values[nid] > 0 for nid in wanted):
                if timeout == GASPI_BLOCK:
                    self._cond.wait()  # pragma: no cover - blocking path
                    continue
                now = time.monotonic()
                if deadline is None:
                    deadline = now + timeout
                if now >= deadline:
                    missing = [n for n in wanted if self._values[n] == 0]
                    raise GaspiTimeoutError(
                        f"timed out waiting for notifications {missing}"
                    )
                self._cond.wait(deadline - now)

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
