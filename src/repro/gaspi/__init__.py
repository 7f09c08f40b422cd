"""GASPI runtime substrate (a GPI-2 stand-in).

The paper implements its collectives on top of GPI-2, the reference
implementation of the GASPI standard: one-sided RDMA ``write`` /
``write_notify`` into remote *segments*, weak synchronisation through
*notifications* (``notify_waitsome`` / ``notify_reset``), communication
*queues* and *groups*.

This package provides the same API surface in pure Python so the
collectives in :mod:`repro.core` can be written exactly as the paper
describes them and executed for real inside a single process:

* :class:`~repro.gaspi.runtime.GaspiRuntime` — the abstract API every
  collective is written against.
* :class:`~repro.gaspi.threaded.ThreadedWorld` /
  :class:`~repro.gaspi.threaded.ThreadedRuntime` — a thread-per-rank
  implementation with NumPy-backed segments and condition-variable
  notifications.  Data written by ``write_notify`` is guaranteed to be
  visible in the target segment before the matching notification becomes
  visible, which is the core GASPI guarantee the paper's algorithms rely
  on (Table I / Figure 1 of the paper).
* :class:`~repro.gaspi.shm.ShmWorld` /
  :class:`~repro.gaspi.shm.ShmRuntime` — a process-per-rank
  implementation over POSIX shared memory (the closest analogue to real
  GPI-2 segments): no shared GIL, so ranks run truly in parallel, with
  the same write-before-notify visibility guarantee.
* :func:`~repro.gaspi.spmd.run_spmd` / :func:`~repro.gaspi.shm.run_shm`
  — ``mpiexec``-like launchers that run one Python callable per rank
  (thread or process) and return the per-rank results;
  :func:`~repro.gaspi.launch.run_backend` dispatches between them.
"""

from .constants import (
    GASPI_BLOCK,
    GASPI_TEST,
    GASPI_GROUP_ALL,
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_QUEUE_COUNT,
)
from .errors import (
    GaspiError,
    GaspiTimeoutError,
    GaspiInvalidArgumentError,
    GaspiResourceError,
    GaspiQueueFullError,
    GaspiSegmentError,
)
from .segment import Segment
from .notifications import NotificationBoard
from .queue import CommunicationQueue
from .group import Group
from .runtime import GaspiRuntime
from .subruntime import GroupRuntime
from .threaded import ThreadedWorld, ThreadedRuntime, WorldConfig
from .spmd import run_spmd, SpmdError
from .shm import ShmConfig, ShmRuntime, ShmWorld, run_shm
from .launch import BACKENDS, run_backend

__all__ = [
    "GASPI_BLOCK",
    "GASPI_TEST",
    "GASPI_GROUP_ALL",
    "DEFAULT_NOTIFICATION_COUNT",
    "DEFAULT_QUEUE_COUNT",
    "GaspiError",
    "GaspiTimeoutError",
    "GaspiInvalidArgumentError",
    "GaspiResourceError",
    "GaspiQueueFullError",
    "GaspiSegmentError",
    "Segment",
    "NotificationBoard",
    "CommunicationQueue",
    "Group",
    "GroupRuntime",
    "GaspiRuntime",
    "ThreadedWorld",
    "ThreadedRuntime",
    "WorldConfig",
    "ShmConfig",
    "ShmRuntime",
    "ShmWorld",
    "BACKENDS",
    "run_spmd",
    "run_shm",
    "run_backend",
    "SpmdError",
]
