"""Communication queues and outstanding-request bookkeeping.

GASPI posts one-sided operations onto *queues*; ``gaspi_wait`` flushes a
queue, after which the local source buffers may be reused.  The threaded
runtime supports two delivery modes:

* ``immediate`` — the data copy happens synchronously inside the posting
  call (the queue only counts requests).  Deterministic and fast; the
  default for tests and benchmarks.
* ``async`` — requests are handed to a per-world delivery thread which
  applies them later (optionally with a small jitter).  This mode exercises
  the real GASPI overlap semantics: posting returns immediately, data and
  notification become visible asynchronously, and ``wait`` genuinely blocks
  until local completion.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .constants import DEFAULT_QUEUE_DEPTH, GASPI_BLOCK
from .errors import GaspiQueueFullError, GaspiTimeoutError


@dataclass
class WriteRequest:
    """One posted one-sided operation (write, notify or write_notify)."""

    source_rank: int
    target_rank: int
    segment_id: int
    offset: int
    data: Optional[np.ndarray]
    notification_id: Optional[int]
    notification_value: int
    queue: int
    #: sequence number within the posting queue, for tracing
    sequence: int = 0
    #: callback applying the request at the target (set by the runtime)
    apply: Optional[Callable[[], None]] = field(default=None, repr=False)

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (0 for a pure notification)."""
        return 0 if self.data is None else int(self.data.size)


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
        with self._cond:
            return self._outstanding

    @property
    def posted_total(self) -> int:
        """Total number of requests ever posted to this queue."""
        with self._cond:
            return self._posted_total

    def post(self) -> int:
        """Account for a newly posted request; returns its sequence number."""
        with self._cond:
            if self._outstanding >= self.depth:
                raise GaspiQueueFullError(
                    f"queue {self.queue_id} already has {self._outstanding} "
                    f"outstanding requests (depth {self.depth}); call wait()"
                )
            self._outstanding += 1
            self._posted_total += 1
            return self._posted_total

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
    GASPI guarantees for requests posted to the same queue.
    """

    def __init__(self, delay: float = 0.0) -> None:
        self._delay = float(delay)
        self._pending: List[WriteRequest] = []
        self._cond = threading.Condition()
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, name="gaspi-delivery", daemon=True
        )
        self._thread.start()

    def submit(self, request: WriteRequest) -> None:
        with self._cond:
            if self._stop:
                raise RuntimeError("delivery worker already stopped")
            self._pending.append(request)
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
                request = self._pending.pop(0)
            if self._delay > 0:
                time.sleep(self._delay)
            try:
                if request.apply is not None:
                    request.apply()
            except Exception:  # pragma: no cover - defensive: surfaced via queue
                # The posting rank will observe the failure as a hung wait();
                # re-raise in the worker so the test harness sees a traceback.
                raise
