"""Communication queues and outstanding-request bookkeeping.

GASPI posts one-sided operations onto *queues*; ``gaspi_wait`` flushes a
queue, after which the local source buffers may be reused.  The threaded
runtime supports two delivery modes, both of which apply a post through
the one ``repro.gaspi.threaded._deliver``:

* ``immediate`` — the posting call delivers inline.  Nothing is ever
  outstanding, so the queue only counts (:meth:`CommunicationQueue.count`,
  no lock) and ``wait`` returns at once.  Deterministic and fast; the
  default for tests and benchmarks.
* ``async`` — the posting call validates, takes a queue slot
  (:meth:`CommunicationQueue.post`) and hands the same delivery plus the
  slot's :meth:`CommunicationQueue.complete` to a per-world
  :class:`DeliveryWorker`, which applies them later (optionally with a
  small delay).  This mode exercises the real GASPI overlap semantics:
  posting returns immediately, data and notification become visible
  asynchronously, and ``wait`` genuinely blocks until local completion.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Tuple

from .constants import DEFAULT_QUEUE_DEPTH, GASPI_BLOCK
from .errors import GaspiQueueFullError, GaspiTimeoutError


class CommunicationQueue:
    """Tracks outstanding requests posted by one rank on one queue id."""

    def __init__(self, queue_id: int, depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        self.queue_id = int(queue_id)
        self.depth = int(depth)
        self._outstanding = 0
        self._posted_total = 0
        self._cond = threading.Condition()

    # ------------------------------------------------------------------ #
    @property
    def outstanding(self) -> int:
        """Number of posted but not yet completed requests."""
        return self._outstanding

    @property
    def posted_total(self) -> int:
        """Total number of requests ever posted to this queue."""
        return self._posted_total

    def count(self) -> None:
        """Account for a post that was delivered inline (never outstanding).

        Lock-free: one rank's posts are its only writers, and like
        ``TrafficStats`` it is a diagnostic count that nothing waits on.
        """
        self._posted_total += 1

    def post(self) -> None:
        """Take a slot for a request handed to the delivery worker."""
        with self._cond:
            if self._outstanding >= self.depth:
                raise GaspiQueueFullError(
                    f"queue {self.queue_id} already has {self._outstanding} "
                    f"outstanding requests (depth {self.depth}); call wait()"
                )
            self._outstanding += 1
            self._posted_total += 1

    def complete(self) -> None:
        """Mark one outstanding request as locally complete."""
        with self._cond:
            if self._outstanding <= 0:
                raise RuntimeError(
                    f"queue {self.queue_id}: complete() without outstanding request"
                )
            self._outstanding -= 1
            if self._outstanding == 0:
                self._cond.notify_all()

    def wait(self, timeout: float = GASPI_BLOCK) -> None:
        """Block until every outstanding request on this queue completed.

        Mirrors ``gaspi_wait``: after it returns, the local source buffers of
        all posted operations may be reused.
        """
        if not self._outstanding:
            # Lock-free: the count only rises through the caller's own
            # posts, and reading one int is atomic under the GIL.
            return
        with self._cond:
            deadline = None  # the clock is read only by a finite wait that blocks
            while self._outstanding > 0:
                if timeout == GASPI_BLOCK:
                    self._cond.wait()
                    continue
                now = time.monotonic()
                if deadline is None:
                    deadline = now + timeout
                if now >= deadline:
                    raise GaspiTimeoutError(
                        f"gaspi_wait on queue {self.queue_id} timed out with "
                        f"{self._outstanding} outstanding requests"
                    )
                self._cond.wait(deadline - now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommunicationQueue(id={self.queue_id}, outstanding={self.outstanding})"


class DeliveryWorker:
    """Background thread delivering asynchronously posted requests in order.

    A single worker per world preserves per-(source, target) ordering, which
    GASPI guarantees for requests posted to the same queue.  A request is
    ``(deliver, args, done)``: the worker calls ``deliver(*args)`` and then
    ``done()`` — the queue completion — whether or not the delivery raised.
    """

    def __init__(self, delay: float = 0.0) -> None:
        self._delay = float(delay)
        self._pending: List[Tuple[Callable[..., None], tuple, Callable[[], None]]] = []
        self._cond = threading.Condition()
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, name="gaspi-delivery", daemon=True
        )
        self._thread.start()

    def submit(
        self, deliver: Callable[..., None], args: tuple, done: Callable[[], None]
    ) -> None:
        with self._cond:
            if self._stop:
                raise RuntimeError("delivery worker already stopped")
            self._pending.append((deliver, args, done))
            self._cond.notify_all()

    def shutdown(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stop:
                    self._cond.wait()
                if self._stop and not self._pending:
                    return
                deliver, args, done = self._pending.pop(0)
            if self._delay > 0:
                time.sleep(self._delay)
            try:
                deliver(*args)
            finally:
                # The poster validated the request, so a raise is a defect:
                # free the poster's wait(), then die with the traceback.
                done()
