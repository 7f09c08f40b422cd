"""Constants mirroring the GASPI specification / GPI-2 header values.

Only the subset required by the collectives in this repository is
provided, with the same meaning as in the GASPI standard:

* ``GASPI_BLOCK`` — block until the operation completes.
* ``GASPI_TEST`` — return immediately (poll once).
* ``GASPI_GROUP_ALL`` — the implicit group containing every rank.
"""

from __future__ import annotations

#: Block until the requested condition is satisfied (infinite timeout).
GASPI_BLOCK: float = float("inf")

#: Non-blocking probe: check once and return immediately.
GASPI_TEST: float = 0.0

#: Identifier of the implicit group that contains all ranks.
GASPI_GROUP_ALL: int = 0

#: Number of notification slots available per segment.  GPI-2 provides
#: 65536 per segment; we default to a smaller, configurable number that is
#: still far larger than what any collective in this repository uses.
DEFAULT_NOTIFICATION_COUNT: int = 65536

#: Number of communication queues available to each rank.
DEFAULT_QUEUE_COUNT: int = 8

#: Maximum number of outstanding (not yet waited-for) requests per queue.
#: GPI-2 exposes a similar per-queue depth limit; exceeding it raises
#: :class:`repro.gaspi.errors.GaspiQueueFullError`.
DEFAULT_QUEUE_DEPTH: int = 4096

#: Upper bound on the number of memory segments per rank (GPI-2 uses 32 by
#: default; we are more generous because the SSP allreduce keeps one mailbox
#: region per hypercube dimension).
DEFAULT_MAX_SEGMENTS: int = 256

#: Notification value used to signal "data arrived" when the caller does not
#: provide an explicit value.  GASPI requires notification values > 0.
DEFAULT_NOTIFICATION_VALUE: int = 1

#: Yield-and-probe iterations before a blocked notification wait parks: the
#: threaded board's poll phase and the default of ``ShmConfig.spin``.
WAIT_SPIN: int = 64

#: A finite wait shorter than this (seconds) is a slice of a longer one its
#: caller cuts up (the progress thread's 200 us parks) and parks at once.
#: The default of ``ShmConfig.wait_slice``.
WAIT_SLICE: float = 0.002
