"""Abstract GASPI runtime interface.

Every collective algorithm in :mod:`repro.core` is written against this
interface, exactly as the paper's collectives are written against the
GASPI API.  The method names follow GPI-2 (``gaspi_write_notify`` →
:meth:`GaspiRuntime.write_notify`, …) with Pythonic signatures:

* byte offsets and sizes, as in GASPI;
* NumPy arrays for typed access through :meth:`segment_view`;
* timeouts in seconds, ``GASPI_BLOCK`` meaning "block forever" and
  ``GASPI_TEST`` meaning "poll once".
"""

from __future__ import annotations

import abc
import functools
from typing import Any, Callable, Iterator, Optional

import numpy as np

from .constants import (
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_NOTIFICATION_VALUE,
    GASPI_BLOCK,
)
from .errors import GaspiInvalidArgumentError
from .group import Group


def source_bytes(source: np.ndarray) -> np.ndarray:
    """Flat ``uint8`` view of the caller memory a ``write_notify_from`` posts."""
    if not source.flags["C_CONTIGUOUS"]:
        raise GaspiInvalidArgumentError(
            "write_notify_from requires a C-contiguous source"
        )
    return source.reshape(-1).view(np.uint8)


class GaspiRuntime(abc.ABC):
    """One rank's handle onto the GASPI world.

    Concrete implementations:

    * :class:`repro.gaspi.threaded.ThreadedRuntime` — real data movement
      between rank threads inside one process;
    * :class:`repro.gaspi.shm.ShmRuntime` — real data movement between
      rank processes over POSIX shared memory.

    Everything else that is a ``GaspiRuntime`` (fault injection,
    telemetry, tracing, rank-subset views, the static verifier's
    single-thread tracing layer) is a :class:`RuntimeWrapper` around one
    of those.
    """

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def rank(self) -> int:
        """This process's rank (``gaspi_proc_rank``)."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of ranks in the world (``gaspi_proc_num``)."""

    @functools.cached_property
    def group_all(self) -> Group:
        """The group containing every rank (``GASPI_GROUP_ALL``).

        Built once per runtime — a world's size is fixed and a group is an
        immutable value — since every default barrier asks for it.
        """
        return Group.world(self.size)

    @property
    def fault_injected(self) -> bool:
        """True when this runtime (or a layer it wraps) injects faults
        that can lose contributions (crashes or message drops).

        Group-scoped views forward it, so a sub-communicator carved out of
        a fault-injected world still dispatches fault-tolerant algorithms
        even though the fault plan itself lives at the world layer.  Pure
        timing perturbations (delays, arrival skew) do not set it: they
        make ranks late, not absent, and the tuned regular algorithms
        remain the right choice under them.
        """
        return False

    # ------------------------------------------------------------------ #
    # segments
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def segment_create(
        self,
        segment_id: int,
        size: int,
        num_notifications: int = DEFAULT_NOTIFICATION_COUNT,
    ) -> None:
        """Allocate and register a segment (collective over all ranks in GPI-2).

        In this substrate every rank creates its own copy of the segment; the
        call is local but every communicating rank must create the same
        ``segment_id`` before it is used as a remote target.
        """

    @abc.abstractmethod
    def segment_delete(self, segment_id: int) -> None:
        """Release a segment."""

    @abc.abstractmethod
    def segment_view(
        self,
        segment_id: int,
        dtype=np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Typed NumPy view of the *local* copy of a segment."""

    @abc.abstractmethod
    def segment_size(self, segment_id: int) -> int:
        """Size in bytes of a local segment."""

    @abc.abstractmethod
    def segment_read(
        self,
        segment_id: int,
        dtype=np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Consistent *copy* of a byte range of the local segment.

        Unlike :meth:`segment_view`, the returned array is a snapshot taken
        atomically with respect to incoming remote writes — the read a rank
        performs on its SSP mailbox (``rcv_data_vec``) while a peer may be
        overwriting it.
        """

    def segment_bind(self, segment_id: int, array: np.ndarray) -> None:
        """Bind user memory as the registered window of an existing segment.

        The analogue of ``gaspi_segment_bind``: the segment's notification
        board is untouched, only the backing memory is replaced, so remote
        ``write_notify`` calls land directly in (and local posts read
        directly from) application buffers — the zero-copy data path of the
        pipelined collectives.  The caller must guarantee no remote write
        is in flight toward the segment when the memory is swapped.
        Runtimes without bind support raise :class:`NotImplementedError`;
        callers probe :attr:`supports_bind` first.
        """
        raise NotImplementedError

    @property
    def supports_bind(self) -> bool:
        """True when :meth:`segment_bind` is available on this runtime."""
        return type(self).segment_bind is not GaspiRuntime.segment_bind

    def segment_exists(self, segment_id: int) -> bool:
        """True if this rank has created ``segment_id``."""
        try:
            self.segment_size(segment_id)
            return True
        except Exception:
            return False

    def layers(self) -> Iterator["GaspiRuntime"]:
        """The wrapper stack this handle stands for, outermost first.

        A concrete runtime is its own only layer; a
        :class:`RuntimeWrapper` yields itself and then its inner
        runtime's layers, so the last layer is always the concrete one.
        """
        yield self

    def traced(self, sink: Any) -> "GaspiRuntime":
        """Wrap this runtime so every post/consume is recorded into ``sink``.

        ``sink`` is a :class:`repro.analysis.tracing.TraceSink`; the
        returned wrapper forwards all operations to ``self`` while
        recording the protocol events the static checkers consume
        (:func:`repro.analysis.analyze`).  Imported lazily so the core
        runtime stack carries no dependency on the analysis package.
        """
        from ..analysis.tracing import TracingRuntime

        return TracingRuntime(self, sink)

    def instrumented(self, telemetry: Any) -> "GaspiRuntime":
        """Wrap this runtime so traffic and wait times feed ``telemetry``.

        ``telemetry`` is a :class:`repro.telemetry.Telemetry` registry; the
        returned wrapper forwards all operations to ``self`` while counting
        writes, bytes, notifications, and wait/barrier latencies (a disabled
        registry has nothing to feed: ``self`` is returned as is).  Imported
        lazily so the core runtime stack carries no dependency on the
        telemetry package.
        """
        from ..telemetry.runtime import TelemetryRuntime

        return TelemetryRuntime(self, telemetry) if telemetry.enabled else self

    @property
    def telemetry(self) -> Any:
        """The attached telemetry registry, or None when uninstrumented.

        Overridden by :class:`repro.telemetry.runtime.TelemetryRuntime`
        (returns the live registry) and forwarded by the wrapping runtimes
        so downstream instrumentation (the fault vertical, the health
        layer) can discover the registry with one attribute read.
        """
        return None

    # ------------------------------------------------------------------ #
    # one-sided communication
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
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
        """Post a one-sided write (``gaspi_write``)."""

    @abc.abstractmethod
    def notify(
        self,
        target_rank: int,
        segment_id_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        """Post a remote notification (``gaspi_notify``)."""

    @abc.abstractmethod
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
        """Post a write followed by a notification (``gaspi_write_notify``).

        GASPI guarantees the data is visible at the target before the
        notification is.
        """

    @abc.abstractmethod
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
        """Post a ``write_notify`` whose source is caller memory.

        The ``gaspi_segment_use`` model: only the remote *target* must be
        registered segment memory.  ``source`` is any C-contiguous array
        (a user buffer, a slice of one) and all of its bytes are written;
        like the source region of :meth:`write_notify` it must stay
        unmodified until :meth:`wait` on ``queue`` returns.  This is the
        single-copy data path of the large-message collectives: payloads
        go from the caller's buffer to the peer's segment without being
        staged in the local one.
        """

    # ------------------------------------------------------------------ #
    # weak synchronisation
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def notify_waitsome(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
        timeout: float = GASPI_BLOCK,
    ) -> Optional[int]:
        """Wait for any notification in a range (``gaspi_notify_waitsome``).

        Returns the id of a pending notification, or ``None`` on timeout.
        """

    @abc.abstractmethod
    def notify_reset(self, segment_id_local: int, notification_id: int) -> int:
        """Atomically reset a local notification, returning its old value."""

    def notify_peek(self, segment_id_local: int, notification_id: int) -> int:
        """Read a notification value without resetting it (convenience)."""
        raise NotImplementedError

    def notify_probe(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
    ) -> bool:
        """Cheap non-consuming probe: any notification pending in a range?

        The nonblocking progress engine calls this once per pump per
        in-flight pipeline, so implementations should make it lock-free
        where possible (a stale answer is fine — the next pump retries).
        The default delegates to a zero-timeout :meth:`notify_waitsome`,
        which wrappers forward transparently.
        """
        return (
            self.notify_waitsome(
                segment_id_local, notification_begin, notification_count, timeout=0.0
            )
            is not None
        )

    def notify_drain(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
    ) -> dict:
        """Consume every pending notification in a range, without blocking.

        Returns ``{notification_id: value}`` for all slots of the range
        that held a value > 0 (each reset exactly once).  The degraded
        collectives use this as a final non-blocking sweep after their
        detection deadline, so a contribution racing the timeout is still
        credited rather than misreported as missing.
        """
        drained: dict = {}
        while True:
            nid = self.notify_waitsome(
                segment_id_local,
                notification_begin,
                notification_count,
                timeout=0.0,
            )
            if nid is None:
                return drained
            value = self.notify_reset(segment_id_local, nid)
            if value > 0:
                drained[nid] = drained.get(nid, 0) + value

    # ------------------------------------------------------------------ #
    # queues and global synchronisation
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def wait(self, queue: int = 0, timeout: float = GASPI_BLOCK) -> None:
        """Flush a queue: block until all posted requests are locally complete."""

    @abc.abstractmethod
    def barrier(self, group: Optional[Group] = None, timeout: float = GASPI_BLOCK) -> None:
        """Barrier over a group (``gaspi_barrier``)."""

    # ------------------------------------------------------------------ #
    # atomics (used by a few collectives and by tests)
    # ------------------------------------------------------------------ #
    def atomic_fetch_add(
        self,
        segment_id: int,
        offset: int,
        target_rank: int,
        value: int,
    ) -> int:
        """Atomic fetch-and-add of an int64 at a remote segment offset."""
        raise NotImplementedError


def _forward(name: str) -> Callable[..., Any]:
    """Class-level forwarder of operation ``name`` to ``self.inner``."""

    # updated=(): copying the ABC method's __dict__ would copy its
    # __isabstractmethod__ mark along with it.
    @functools.wraps(getattr(GaspiRuntime, name), updated=())
    def forward(self: "RuntimeWrapper", *args: Any, **kwargs: Any) -> Any:
        return getattr(self.inner, name)(*args, **kwargs)

    return forward


class RuntimeWrapper(GaspiRuntime):
    """A runtime layered over another one: the base of every wrapper.

    It holds the wrapped runtime as :attr:`inner` and forwards the whole
    :class:`GaspiRuntime` surface to it — every operation in
    :attr:`FORWARDED` and the discovery properties (:attr:`rank`,
    :attr:`size`, :attr:`fault_injected`, :attr:`telemetry`,
    :attr:`supports_bind`) — so a subclass body is only what it changes.
    Subclasses override operations with the ABC's explicit signatures and
    call ``self.inner.<operation>(...)`` themselves.

    ``inner`` is fixed at construction: an operation the subclass leaves
    alone *is* the inner runtime's bound method, installed on the
    instance, so a pass-through costs no frame however deep the stack.
    """

    #: Every operation of the ABC (all but the stack builders ``traced`` /
    #: ``instrumented`` and ``layers``); ``tests/gaspi/test_runtime_wrapper.py``
    #: holds this table against the ABC.
    FORWARDED = (
        "segment_create", "segment_delete", "segment_view", "segment_size",
        "segment_read", "segment_bind", "segment_exists",
        "write", "notify", "write_notify", "write_notify_from",
        "notify_waitsome", "notify_reset", "notify_peek", "notify_probe",
        "notify_drain", "wait", "barrier", "atomic_fetch_add",
    )  # fmt: skip
    # What ``super().<operation>(...)`` reaches, and what makes the class
    # concrete; instances bypass these for the operations they pass through.
    locals().update((name, _forward(name)) for name in FORWARDED)

    def __init__(self, inner: GaspiRuntime) -> None:
        self.inner = inner
        cls = type(self)
        for name in self.FORWARDED:
            if getattr(cls, name) is getattr(RuntimeWrapper, name):
                setattr(self, name, getattr(inner, name))

    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def fault_injected(self) -> bool:
        return self.inner.fault_injected

    @property
    def telemetry(self) -> Any:
        return self.inner.telemetry

    @property
    def supports_bind(self) -> bool:
        return self.inner.supports_bind

    def layers(self) -> Iterator[GaspiRuntime]:
        yield self
        yield from self.inner.layers()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.inner!r})"
