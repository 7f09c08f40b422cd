"""Pipelined chunked data path and the nonblocking collective engine.

The paper's collectives win by letting ranks proceed on partial data, yet
the compiled plans of PR 3 still move every tree/ring edge as a single
monolithic ``write_notify``: each BST level (or ring step) waits for the
*entire* payload of the previous one.  This module segments large payloads
into chunks and pipelines them — the classic large-message optimisation of
Open MPI / Intel MPI tuning tables (segmented binomial broadcast, bucket
ring allreduce) — and builds a nonblocking request API on top.

Three pipelined planned executors (registered in
:mod:`repro.core.registry`, selected by the tuning tables for large
payloads).  Large messages are memcpy-bound, so all three move each
payload byte as few times as the protocol allows: a rank that *originates*
data posts it straight from the caller's buffer with
:meth:`~repro.gaspi.runtime.GaspiRuntime.write_notify_from` (only the
remote target of a one-sided write has to be segment memory), and the
pooled segment holds only what peers write into it.

* :class:`PipelinedBstBcastPlan` — a parent forwards chunk ``k`` while
  chunk ``k+1`` is still in flight; the root writes every chunk from the
  user's buffer.  On runtimes with
  :meth:`~repro.gaspi.runtime.GaspiRuntime.segment_bind` support a
  receiver's buffer *is* its segment (the ``gaspi_segment_bind``
  zero-copy path): chunks land directly in the destination buffer,
  per-chunk notification ids mark arrivals, and a per-call readiness
  handshake is the consume-ack that makes cross-call reuse safe.  Without
  bind support the same protocol runs over per-chunk staging slots on the
  receivers (one copy-out per chunk).
* :class:`PipelinedBstReducePlan` — per-chunk fused folds
  (:func:`repro.core.kernels.fold`: the first reads ``sendbuf``, the
  root's last lands in ``recvbuf``) with each completed chunk pushed up
  the tree while later chunks are still arriving.  An inner rank's
  accumulator lives in the pooled segment — in front of the child slots,
  where no child writes — and is pushed from there; a leaf has nothing to
  fold and pushes ``sendbuf`` itself.  Flow control is the end-of-call
  credit of :mod:`repro.core.reduce`: a child pushes without waiting for
  its parent to enter the call, at most one call ahead.
* :class:`PipelinedRingAllreducePlan` — the ring with multiple in-flight
  sub-chunk slots per step.  ``recvbuf`` is the working vector: step-0
  sends read ``sendbuf``, every scatter fold is
  ``recvbuf[c] = op(sendbuf[c], slot)``, allgather sub-chunks land at
  their global offsets — straight in ``recvbuf`` where a second segment
  can be bound to it, else in the pooled segment, copied into ``recvbuf``
  as they arrive — and later sends read ``recvbuf``: no entry copy, no
  staging, no copy back.

Buffer ownership follows from that (the MPI rule): ``sendbuf`` is read and
``recvbuf`` written until the call — or, for the nonblocking API, the
handle — completed.

The same chunk machinery drives the **nonblocking API**:
:meth:`~repro.core.api.Communicator.ibcast` / ``ireduce`` /
``iallreduce`` return a :class:`CollectiveHandle` whose
``test()/wait()/progress()`` advance the pipeline incrementally through a
per-communicator :class:`ProgressEngine`, so callers overlap compute with
communication (the ML/SGD layer uses this for overlapping gradient
allreduce).

Like every plan, a pipelined executor is a generator that yields a
:class:`~repro.core.plan.WaitSpec` wherever it cannot progress without a
notification; :mod:`repro.core.plan` owns the protocol that runs it
(blocking, incremental, cold).  The engine here is the incremental
discipline: it polls with ``timeout=0`` from ``progress()``, for *any*
compiled plan, pipelined or not.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..gaspi.constants import GASPI_BLOCK
from ..telemetry.core import NULL_TELEMETRY
from ..utils.logging import get_logger
from ..utils.validation import require
from . import kernels
from .allreduce_ring import RingAllreduceStats, ring_allreduce_schedule
from .bcast import BroadcastResult, _require_vector, threshold_bytes, threshold_elements
from .notifmap import NotificationLayout
from .plan import CollectivePlan, PipelineGen, PlanKey, WaitSpec
from .policy import CollectiveResult
from .reduce import ReduceMode, ReduceResult
from .reduction_ops import get_op
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import BinomialTree, Ring, chunk_bounds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .policy import CollectiveRequest

logger = get_logger("core.pipeline")


# --------------------------------------------------------------------------- #
# chunk layout
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChunkLayout:
    """Frozen segmentation of a payload into pipeline chunks.

    Bounds are in *elements*; :meth:`byte_bounds` converts to the byte
    offsets the one-sided operations use.  Chunk sizes come from the
    tuning tables (:func:`repro.core.tuning.select_chunk_bytes`) unless
    the policy pins them (``ConsistencyPolicy.chunk_bytes``).
    """

    total_elements: int
    itemsize: int
    chunk_elements: int
    bounds: Tuple[Tuple[int, int], ...]

    @classmethod
    def for_elements(
        cls, elements: int, itemsize: int, chunk_bytes: Optional[int]
    ) -> "ChunkLayout":
        """Layout over ``elements`` items with ``chunk_bytes``-sized chunks.

        ``chunk_bytes`` of ``None`` (or >= the payload) yields a single
        chunk — the degenerate pipeline, which is exactly the zero-copy
        monolithic transfer.
        """
        require(elements >= 0, "elements must be non-negative")
        require(itemsize >= 1, "itemsize must be >= 1")
        nbytes = elements * itemsize
        if chunk_bytes is None or chunk_bytes >= nbytes or elements <= 1:
            chunk_elements = max(elements, 1)
        else:
            chunk_elements = max(1, int(chunk_bytes) // itemsize)
        num_chunks = max(1, -(-elements // chunk_elements))
        bounds = tuple(
            (k * chunk_elements, min((k + 1) * chunk_elements, elements))
            for k in range(num_chunks)
        )
        return cls(
            total_elements=int(elements),
            itemsize=int(itemsize),
            chunk_elements=int(chunk_elements),
            bounds=bounds,
        )

    @property
    def num_chunks(self) -> int:
        return len(self.bounds)

    @property
    def chunk_bytes(self) -> int:
        return self.chunk_elements * self.itemsize

    def byte_bounds(self, index: int) -> Tuple[int, int]:
        begin, end = self.bounds[index]
        return begin * self.itemsize, end * self.itemsize


def resolve_chunk_bytes(nbytes: int, policy) -> Optional[int]:
    """Chunk size for a payload: the policy override, else the tuning table."""
    if policy is not None and policy.chunk_bytes is not None:
        return policy.chunk_bytes
    from .tuning import select_chunk_bytes

    return select_chunk_bytes(nbytes)


# --------------------------------------------------------------------------- #
# nonblocking handles and the progress engine
# --------------------------------------------------------------------------- #
class CollectiveHandle:
    """Nonblocking collective request (the ``MPI_Request`` analogue).

    Returned by :meth:`~repro.core.api.Communicator.ibcast` /
    ``ireduce`` / ``iallreduce``.  The pipeline advances when the caller
    pumps it — :meth:`progress` and :meth:`test` poll without blocking,
    :meth:`wait` drives it (and every handle issued before it, in order)
    to completion.  Handles sharing one compiled plan are serialised in
    issue order by the :class:`ProgressEngine`, so several in-flight
    requests of the same shape are safe.
    """

    def __init__(
        self,
        engine: Optional["ProgressEngine"],
        runtime,
        plan: Optional[CollectivePlan],
        gen: Optional[PipelineGen],
        result=None,
        on_complete=None,
    ) -> None:
        self._engine = engine
        self._runtime = runtime
        self._plan = plan
        self._gen = gen
        self._spec: Optional[WaitSpec] = None
        self._started = False
        self._result = result
        self._done = gen is None
        self._error: Optional[BaseException] = None
        self._on_complete = on_complete
        if self._done and on_complete is not None:
            on_complete(self._result)

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """True once the collective completed on this rank."""
        return self._done

    @property
    def result(self):
        """The :class:`CollectiveResult`, or ``None`` while in flight."""
        return self._result

    @property
    def error(self) -> Optional[BaseException]:
        """The exception that failed this handle mid-flight, if any.

        A failed handle is *done* (it can never complete) but has no
        result; :meth:`wait` re-raises the stored exception.
        """
        return self._error

    # ------------------------------------------------------------------ #
    def _finish(self, stop: StopIteration) -> None:
        self._result = stop.value
        self._done = True
        self._gen = None
        self._spec = None
        if self._on_complete is not None:
            self._on_complete(self._result)

    def _fail(self, exc: BaseException) -> None:
        """Mark the handle failed: done, no result, exception stored.

        The generator is closed so the plan's per-call state is not left
        suspended mid-protocol; peers of a failed collective see missing
        notifications, which their own fault handling (timeouts, fault
        plans) is responsible for.  :meth:`wait` re-raises ``exc``.
        """
        self._error = exc
        self._done = True
        logger.debug(
            "rank %d: nonblocking collective failed mid-flight: %s",
            getattr(self._runtime, "rank", -1), exc, exc_info=exc,
        )
        gen = self._gen
        self._gen = None
        self._spec = None
        if gen is not None:
            try:
                gen.close()
            except Exception:  # pragma: no cover - generator cleanup races
                pass

    def _step(self, timeout: float) -> bool:
        """Advance until blocked (``timeout=0``) or done; returns done.

        The ``timeout=0`` pump path uses the runtime's lock-free
        :meth:`~repro.gaspi.runtime.GaspiRuntime.notify_probe` — a pump
        over many idle pipelines must cost nanoseconds per handle, not a
        condition-lock round trip each.
        """
        if self._done:
            return True
        rt = self._runtime
        try:
            if not self._started:
                self._started = True
                self._spec = next(self._gen)
            while True:
                spec = self._spec
                if timeout == 0.0:
                    if not rt.notify_probe(spec.segment_id, spec.first, spec.count):
                        return False
                elif (
                    rt.notify_waitsome(
                        spec.segment_id, spec.first, spec.count, timeout=timeout
                    )
                    is None
                ):
                    return False
                self._spec = next(self._gen)
        except StopIteration as stop:
            self._finish(stop)
            return True
        except Exception as exc:  # noqa: BLE001 - stored, re-raised by wait()
            # A handle erroring mid-flight (crashed runtime, torn-down
            # segment, a bug in a pipelined executor) must not leave the
            # engine wedged: record the failure, retire the handle, and
            # let wait() surface the exception to the issuing caller.
            self._fail(exc)
            return True

    # ------------------------------------------------------------------ #
    def progress(self) -> bool:
        """Advance every in-flight handle without blocking; returns done.

        Pumps the whole engine (in issue order, the SPMD order every rank
        shares) rather than just this handle — progress of an earlier
        handle is often what unblocks this one on a peer.
        """
        if self._engine is not None:
            self._engine.progress()
        return self._done

    def test(self) -> bool:
        """Nonblocking completion probe (``MPI_Test``)."""
        return self.progress()

    def wait(self, timeout: float = GASPI_BLOCK):
        """Block until complete; returns the :class:`CollectiveResult`.

        Re-raises the stored exception when the collective failed
        mid-flight (see :attr:`error`).
        """
        if not self._done:
            self._engine.wait_until(self, timeout)
        if self._error is not None:
            raise self._error
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else ("active" if self._started else "pending")
        name = type(self._plan).__name__ if self._plan is not None else "completed"
        return f"CollectiveHandle({name}, {state})"


class ProgressEngine:
    """Per-communicator scheduler of in-flight nonblocking collectives.

    Keeps the live handles in issue order (the SPMD program order, which
    every rank shares) and enforces one rule: two handles over the *same*
    compiled plan never interleave — the later one does not start until
    the earlier one finished, because they would otherwise race on the
    plan's notification ids and workspace.  Distinct plans (e.g. tagged
    per-bucket gradient exchanges) advance independently, which is what
    makes the ML gradient-bucket overlap pattern work.

    Progress is caller-driven by default (pump via
    :meth:`Communicator.progress` between compute steps, like
    core-direct GASPI).  :meth:`start_thread` adds *asynchronous*
    progress — a daemon thread that pumps whenever handles are in flight,
    the analogue of GPI-2's progress threads / MPI asynchronous progress:
    pipelines then advance even while the application thread is busy (or,
    on this one-core-per-rank substrate, idle in accelerator-style
    offloaded compute).  All engine state is guarded by one lock, so the
    thread and the caller never race on a generator.
    """

    def __init__(self, runtime, telemetry=None) -> None:
        self._runtime = runtime
        self._handles: List[CollectiveHandle] = []
        self._lock = threading.RLock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._work = threading.Event()
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._g_depth = tel.gauge("progress.queue_depth")
        self._c_registered = tel.counter("progress.handles")

    @property
    def active(self) -> int:
        """Number of handles still in flight."""
        return len(self._handles)

    @property
    def threaded(self) -> bool:
        """True while a background progress thread is running."""
        return self._thread is not None

    def register(self, handle: CollectiveHandle) -> None:
        if handle.done:
            return
        self._c_registered.add()
        with self._lock:
            self._handles.append(handle)
            self._g_depth.set(len(self._handles))
            # Start eagerly: post the entry handshake and the first sends
            # now, so peer writes can land while the caller computes.
            self._pump()
        self._work.set()

    def _runnable(self) -> List[CollectiveHandle]:
        """Live handles whose plan is not busy with an earlier handle."""
        busy = set()
        out = []
        for handle in self._handles:
            plan_id = id(handle._plan)
            if plan_id not in busy:
                out.append(handle)
                busy.add(plan_id)
        return out

    def _pump(self) -> int:
        """One nonblocking pass over all runnable handles (lock held)."""
        advanced = True
        while advanced:
            advanced = False
            for handle in self._runnable():
                if handle._step(timeout=0.0):
                    self._handles.remove(handle)
                    advanced = True  # a successor on the same plan may start
        depth = len(self._handles)
        self._g_depth.set(depth)
        return depth

    def progress(self) -> int:
        """One nonblocking pump over all runnable handles; returns #live."""
        with self._lock:
            return self._pump()

    # ------------------------------------------------------------------ #
    # asynchronous progress
    # ------------------------------------------------------------------ #
    def start_thread(self, interval: float = 2e-4) -> None:
        """Start the background progress thread (idempotent).

        ``interval`` is the pause between pump rounds while handles are in
        flight — small enough that a pipeline advances at data speed,
        large enough that the thread does not monopolise the GIL.  The
        thread parks on an event while nothing is in flight.
        """
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._thread_loop,
            args=(float(interval),),
            name=f"gaspi-progress-{self._runtime.rank}",
            daemon=True,
        )
        self._thread.start()
        if self._handles:
            self._work.set()

    def stop_thread(self) -> None:
        """Stop the background progress thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        self._work.set()
        thread.join()
        self._thread = None

    def _thread_loop(self, interval: float) -> None:
        while not self._stop.is_set():
            self._work.wait(timeout=0.05)
            if self._stop.is_set():
                return
            try:
                with self._lock:
                    live = self._pump()
                    spec = None
                    if live:
                        head = self._runnable()[0]
                        spec = head._spec
                if not live:
                    self._work.clear()
                elif spec is not None:
                    # Event-driven: park on the head pipeline's pending
                    # notification (bounded by ``interval``) so the critical
                    # chain advances at data speed, not at a polling cadence.
                    # The spec may be stale by the time we wait — a spurious
                    # or missed wake just means one ``interval`` of delay.
                    self._runtime.notify_waitsome(
                        spec.segment_id, spec.first, spec.count, timeout=interval
                    )
                else:
                    time.sleep(interval)
            except Exception:  # noqa: BLE001 - park instead of dying silently
                # Handle errors are captured per handle in _step; what can
                # still raise here is the runtime itself (crashed by a
                # fault plan, segment torn down under the park).  Asynch
                # progress must survive that: park until new work arrives
                # or the engine stops, and keep the thread joinable.
                self._work.clear()

    # ------------------------------------------------------------------ #
    # completion
    # ------------------------------------------------------------------ #
    def wait_until(self, target: CollectiveHandle, timeout: float = GASPI_BLOCK) -> None:
        """Drive handles in issue order until ``target`` completed.

        Earlier handles are completed first (they may be what the target —
        or a peer's copy of the target — transitively depends on); because
        every rank issues the same sequence, the blocking order is
        identical everywhere and cannot deadlock.  The caller drives with
        *blocking* notification waits while holding the engine lock — a
        running progress thread simply pauses for the duration (waits at
        condition-variable speed beat any polling cadence); peers' writes
        are delivered by their own threads regardless.
        """
        with self._lock:
            while target in self._handles:
                head = self._runnable()[0]
                if not head._step(timeout=timeout):
                    raise TimeoutError(
                        f"rank {self._runtime.rank}: nonblocking collective did "
                        f"not complete within {timeout} s"
                    )
                if head.done:
                    self._handles.remove(head)

    def wait_all(self, timeout: float = GASPI_BLOCK) -> None:
        """Complete every in-flight handle (``MPI_Waitall``)."""
        while self._handles:
            self.wait_until(self._handles[-1], timeout)

    def wait_plan(self, plan, timeout: float = GASPI_BLOCK) -> None:
        """Complete every in-flight handle that uses ``plan``.

        The blocking dispatch path calls this before executing through a
        cached plan: a blocking call racing an in-flight handle on the
        same plan would consume each other's notifications and deadlock.
        Driving the FIFO (earlier handles first) keeps the blocking order
        identical on every rank, exactly as :meth:`wait_until`.
        """
        with self._lock:
            while any(handle._plan is plan for handle in self._handles):
                head = self._runnable()[0]
                if not head._step(timeout=timeout):
                    raise TimeoutError(
                        f"rank {self._runtime.rank}: nonblocking collective did "
                        f"not complete within {timeout} s"
                    )
                if head.done:
                    self._handles.remove(head)


# --------------------------------------------------------------------------- #
# pipelined BST broadcast
# --------------------------------------------------------------------------- #
class PipelinedBstBcastPlan(CollectivePlan):
    """Chunked, pipelined BST broadcast over a (bindable) workspace.

    A parent forwards chunk ``k`` to its children the moment chunk ``k``'s
    notification arrives, while chunk ``k+1`` is still travelling from its
    own parent — tree levels overlap instead of serialising on the full
    payload.  Per-chunk notification ids (allocated through
    :class:`~repro.core.notifmap.NotificationLayout`) mark arrivals; a
    per-call readiness notification from every child is the consume-ack
    that allows the parent to overwrite the child's chunk slots for the
    next call.

    On runtimes with ``segment_bind`` the segment *is* the user's buffer
    (``gaspi_segment_bind``): no staging copy at the root, no copy-out at
    the receivers, and forwards post straight from the destination buffer.
    The readiness notification doubles as the rebind fence — a child
    announces only after (re)binding, so a parent can never write into a
    stale binding — which is why this entry handshake stays where the
    reduce plans moved to an end-of-call credit.  Without bind support the
    identical protocol runs over per-chunk staging slots in the pooled
    segment.
    """

    _segment_views = ("_staging",)

    def __init__(
        self, runtime, key: PlanKey, segment_id: int, policy, pool=None, throwaway=False
    ) -> None:
        super().__init__(runtime, key, segment_id, pool, throwaway)
        self.dtype = np.dtype(key.dtype)
        self.elements = key.nbytes // self.dtype.itemsize
        self.send_elems = threshold_elements(self.elements, policy.threshold)
        self.chunks = ChunkLayout.for_elements(
            self.send_elems,
            self.dtype.itemsize,
            resolve_chunk_bytes(self.send_elems * self.dtype.itemsize, policy),
        )
        self.tree = BinomialTree(runtime.size, key.root)
        rank = runtime.rank
        self.children = self.tree.children(rank)
        self.parent = self.tree.parent(rank)
        self.stage = self.tree.stage_of(rank)
        self.my_child_index = (
            None
            if self.parent is None
            else self.tree.children(self.parent).index(rank)
        )
        layout = NotificationLayout()
        self.notif_ready = layout.add("ready", 64)
        self.notif_data = layout.add("data", self.chunks.num_chunks)
        # Per-call constants, precomputed: notification ids and byte
        # bounds per chunk (method calls and f-strings are measurable at
        # plan-cached call rates, GIL-serialised across every rank).
        self._child_ready_ids = [
            self.notif_ready.id(ci) for ci in range(len(self.children))
        ]
        self._parent_ready_id = (
            None
            if self.my_child_index is None
            else self.notif_ready.id(self.my_child_index)
        )
        self._byte_bounds = [
            self.chunks.byte_bounds(k) for k in range(self.chunks.num_chunks)
        ]
        # A bound buffer must fill its segment exactly, and a segment is
        # at least 8 bytes: smaller payloads take the staged protocol.  So
        # does a throwaway plan: an exact window costs a create and a
        # barrier at the lease and a barrier and a delete at the release.
        self.zero_copy = runtime.supports_bind and key.nbytes >= 8 and not self.throwaway
        self._bound: Optional[np.ndarray] = None
        # Budget check: the chunk map is sliced by hand below, so prove
        # here — once, on every rank alike — that the last chunk ends
        # inside the workspace the next line creates.
        require(
            not self._byte_bounds
            or self._byte_bounds[-1][1] <= max(key.nbytes, 8),
            f"pipelined bcast chunk map overruns the workspace: last chunk "
            f"ends at byte {self._byte_bounds[-1][1]} of {max(key.nbytes, 8)}",
        )
        # A bound window must be exactly the user buffer's size and is
        # re-pointed at caller memory: not a segment the pool can recycle.
        self._lease_workspace(key.nbytes, layout.used, exact=self.zero_copy)
        # Receive staging of the bind-less protocol.  The root never
        # receives: it posts every chunk straight from the user's buffer.
        self._staging = (
            None
            if self.zero_copy or rank == key.root
            else runtime.segment_view(
                self.segment_id, dtype=self.dtype, count=self.elements
            )
        )

    # ------------------------------------------------------------------ #
    def _run(self, request: "CollectiveRequest", poll_timeout: float) -> PipelineGen:
        buffer = self._check_payload(_require_vector(request.sendbuf), "bcast buffer")
        rt = self.runtime
        rank = rt.rank
        root = self.key.root
        sid = self.segment_id
        queue = request.queue
        data = self.notif_data
        chunks = self.chunks

        if self.zero_copy and rank != root and self._bound is not buffer:
            # Swap the registered window to this call's buffer.  Safe: no
            # write can be in flight — the parent only writes after
            # consuming the readiness notification posted *below*.
            rt.segment_bind(sid, buffer)
            self._bound = buffer

        # Entry handshake: announce that this call's chunk slots (and, in
        # zero-copy mode, this call's binding) are writable.  This is the
        # cross-call consume-ack: it is posted only once the previous
        # call's chunks were fully consumed on this rank.
        if self._parent_ready_id is not None:
            rt.notify(self.parent, sid, self._parent_ready_id, queue=queue)
            rt.wait(queue)
        for nid in self._child_ready_ids:
            while rt.notify_waitsome(sid, nid, 1, timeout=poll_timeout) is None:
                yield WaitSpec(sid, nid, 1)
            rt.notify_reset(sid, nid)

        bounds = self._byte_bounds
        children = self.children
        if rank == root:
            # Single copy: every chunk goes from the caller's buffer
            # straight into the children's segments.
            for k, ((eb, ee), (bb, _be)) in enumerate(zip(chunks.bounds, bounds)):
                chunk = buffer[eb:ee]
                for child in children:
                    rt.write_notify_from(
                        chunk, child, sid, bb, data.base + k, queue=queue
                    )
            if children:
                rt.wait(queue)
        else:
            pending = chunks.num_chunks
            while pending:
                got = rt.notify_drain(sid, data.base, data.count)
                if not got:
                    if (
                        rt.notify_waitsome(sid, data.base, data.count, timeout=poll_timeout)
                        is None
                    ):
                        yield WaitSpec(sid, data.base, data.count)
                    continue
                for nid in sorted(got):
                    bb, be = bounds[nid - data.base]
                    for child in children:
                        rt.write_notify(sid, bb, child, sid, bb, be - bb, nid, queue=queue)
                    if self._staging is not None:
                        eb, ee = chunks.bounds[nid - data.base]
                        buffer[eb:ee] = self._staging[eb:ee]
                if children:
                    rt.wait(queue)
                pending -= len(got)

        self.calls += 1
        detail = BroadcastResult(
            rank=rank,
            root=root,
            elements_total=buffer.size,
            elements_received=buffer.size if rank == root else self.send_elems,
            bytes_received=(
                0 if rank == root else self.send_elems * self.dtype.itemsize
            ),
            threshold=self.key.policy[0],
            stage=self.stage,
        )
        return CollectiveResult(value=request.sendbuf, detail=detail)


# --------------------------------------------------------------------------- #
# pipelined BST reduce
# --------------------------------------------------------------------------- #
class PipelinedBstReducePlan(CollectivePlan):
    """Chunked, pipelined BST reduce with per-chunk folds and push-ups.

    A parent folds chunk ``k`` of each child (vectorised
    :func:`~repro.core.kernels.reduce_into` straight from the child's
    segment slot) while chunk ``k+1`` is still arriving, and pushes every
    completed chunk to its own parent without waiting for the rest of the
    vector.  The accumulator lives *inside* the pooled segment, so the
    push-up posts directly from it — the staging copy of the monolithic
    plan is gone.

    Reuse safety: the credit of :class:`~repro.core.reduce.BstReducePlan`.
    A parent notifies each child at the *end* of a call, which certifies
    that all of the call's child slots were folded; a child consumes it
    before the first push of its next call (none precedes its first), so
    it pushes without waiting for its parent to enter the call and is at
    most one call ahead.  The credits go out only after the call's last
    ``notify_drain``: that sweep covers every child's ids, so a child
    credited earlier could post its next call's chunks into a sweep still
    collecting its siblings' — consumed, ignored, lost.  The child's
    accumulator needs no acknowledgement — its pushes are flushed
    (``wait(queue)``) before the call returns, so the data has left the
    accumulator before the next call can overwrite it.
    """

    _segment_views = ("_acc", "_child_slots")

    def __init__(
        self, runtime, key: PlanKey, segment_id: int, policy, pool=None, throwaway=False
    ) -> None:
        super().__init__(runtime, key, segment_id, pool, throwaway)
        self.dtype = np.dtype(key.dtype)
        self.elements = key.nbytes // self.dtype.itemsize
        self.mode = ReduceMode(policy.mode)
        self.tree = BinomialTree(runtime.size, key.root)
        rank = runtime.rank
        if self.mode is ReduceMode.DATA:
            self.reduce_elems = threshold_elements(self.elements, policy.threshold)
            participants = list(range(runtime.size))
        else:
            self.reduce_elems = self.elements
            participants = self.tree.participating_ranks(policy.threshold)
        self.reduce_bytes = self.reduce_elems * self.dtype.itemsize
        self.participants = participants
        self.participating = rank in participants
        self.children_all = self.tree.children(rank)
        self.children = [c for c in self.children_all if c in participants]
        self.child_indices = [self.children_all.index(c) for c in self.children]
        self.parent = self.tree.parent(rank)
        self.my_index = (
            None
            if self.parent is None
            else self.tree.children(self.parent).index(rank)
        )
        #: Contributors below (and including) this rank — static for the
        #: fault-free plans; carried as the push-up notification value.
        self.subtree_contributors = 1 + sum(
            1 for r in self.tree.descendants(rank) if r in participants
        )
        self.chunks = ChunkLayout.for_elements(
            self.reduce_elems,
            self.dtype.itemsize,
            resolve_chunk_bytes(self.reduce_bytes, policy),
        )
        layout = NotificationLayout()
        self.notif_credit = layout.add("credit", 1)
        # Slot (i, k): chunk k of the i-th child.  Sized by the global
        # 64-child fan-out bound (not this rank's own child count): a rank
        # computes ids for its *parent's* slot table, so the map must be
        # identical on every rank.
        self.notif_data = layout.add("data", 64 * self.chunks.num_chunks)
        self._credit_id = self.notif_credit.id(0)
        C = self.chunks.num_chunks
        self._byte_bounds = [self.chunks.byte_bounds(k) for k in range(C)]
        # Segment layout: the accumulator in [0, reduce_bytes), then one
        # full-width slot per child — as many as the widest fan-out of the
        # tree (the root's) on every rank: a lease must ask for the same
        # size everywhere.
        workspace_bytes = (1 + max(1, self.tree.num_stages())) * max(key.nbytes, 8)
        # Per-call constants for the push-up to the parent.
        if self.my_index is not None:
            self._push_ids = [self._data_id(self.my_index, k) for k in range(C)]
            self._push_offsets = [
                (1 + self.my_index) * self.reduce_bytes + bb
                for bb, _ in self._byte_bounds
            ]
            # Budget check: the push offsets index the *parent's* slot
            # table — prove every push lands inside the workspace every
            # rank leases below before any call posts.
            last_bb, last_be = self._byte_bounds[-1]
            require(
                self._push_offsets[-1] + (last_be - last_bb)
                <= workspace_bytes,
                f"pipelined reduce push-up overruns the parent's workspace: "
                f"slot {self.my_index} chunk {C - 1} ends at byte "
                f"{self._push_offsets[-1] + (last_be - last_bb)} of "
                f"{workspace_bytes}",
            )
        self._lease_workspace(workspace_bytes, layout.used)
        self._acc = runtime.segment_view(
            self.segment_id, dtype=self.dtype, count=self.reduce_elems
        )
        self._child_slots = {
            index: runtime.segment_view(
                self.segment_id,
                dtype=self.dtype,
                offset=(1 + index) * self.reduce_bytes,
                count=self.reduce_elems,
            )
            for index in self.child_indices
        }

    def _data_id(self, child_index: int, chunk: int) -> int:
        return self.notif_data.id(child_index * self.chunks.num_chunks + chunk)

    # ------------------------------------------------------------------ #
    def _run(self, request: "CollectiveRequest", poll_timeout: float) -> PipelineGen:
        sendbuf = self._check_payload(np.asarray(request.sendbuf), "reduce sendbuf")
        require(
            sendbuf.ndim == 1 and sendbuf.flags["C_CONTIGUOUS"],
            "reduce sendbuf must be a contiguous vector",
        )
        operator = get_op(request.op)
        rt = self.runtime
        rank = rt.rank
        root = self.key.root
        sid = self.segment_id
        queue = request.queue
        chunks = self.chunks
        C = chunks.num_chunks
        recvbuf = request.recvbuf

        if self.participating:
            acc = self._acc
            own = sendbuf[: self.reduce_elems]
            # Fused folds: the first fold of each chunk reads straight
            # from the caller's sendbuf (no upfront accumulator copy) and
            # the root's last fold lands straight in recvbuf.  A rank with
            # nothing to fold (a leaf) pushes sendbuf itself — its data
            # never touches the local segment.
            push_src = acc if self.children else own
            root_out = None
            if self.parent is None and recvbuf is not None:
                recvbuf = np.asarray(recvbuf)
                require(
                    recvbuf.size >= self.reduce_elems,
                    "recvbuf too small for the reduced prefix",
                )
                if (
                    self.children
                    and recvbuf.dtype == self.dtype
                    and recvbuf.flags["C_CONTIGUOUS"]
                ):
                    root_out = recvbuf

            # Our slots at the parent are writable once it credited the
            # previous call's pushes (before the first call they just are).
            parent_ready = self.parent is None or not self.calls
            completed: List[int] = []
            # Deterministic fold order: drained notifications arrive in
            # whatever order the children raced in, but floating-point
            # reduction is not associative — so arrivals are *recorded*
            # out of order and *folded* strictly in child order per
            # chunk, keeping the result bit-identical to the monolithic
            # (and the cold) path.
            arrived = [set() for _ in range(C)]
            next_fold = [0] * C
            remaining = C if self.children else 0
            if not self.children:
                completed = list(range(C))
            data_base = self.notif_data.base
            data_count = self.notif_data.count
            bounds = chunks.bounds
            fold_order = self.child_indices
            n_children = len(fold_order)

            def try_push() -> None:
                # Push every completed chunk up, once the parent's credit
                # declared our slots writable.
                for k in completed:
                    eb, ee = bounds[k]
                    rt.write_notify_from(
                        push_src[eb:ee],
                        self.parent,
                        sid,
                        self._push_offsets[k],
                        self._push_ids[k],
                        self.subtree_contributors,
                        queue=queue,
                    )
                completed.clear()

            while remaining:
                got = rt.notify_drain(sid, data_base, data_count)
                if not got:
                    if completed and not parent_ready:
                        # Nothing to fold; see whether the parent freed our
                        # slots so the completed chunks can move now.
                        if (
                            rt.notify_waitsome(sid, self._credit_id, 1, timeout=0.0)
                            is not None
                        ):
                            rt.notify_reset(sid, self._credit_id)
                            parent_ready = True
                            try_push()
                            continue
                    if (
                        rt.notify_waitsome(sid, data_base, data_count, timeout=poll_timeout)
                        is None
                    ):
                        yield WaitSpec(sid, data_base, data_count)
                    continue
                for nid in got:
                    child_index, k = divmod(nid - data_base, C)
                    arrived[k].add(child_index)
                for k in range(C):
                    position = next_fold[k]
                    if position >= n_children:
                        continue
                    eb, ee = bounds[k]
                    while position < n_children and fold_order[position] in arrived[k]:
                        slot = self._child_slots[fold_order[position]][eb:ee]
                        first = position == 0
                        last = position == n_children - 1
                        fold_src = own[eb:ee] if first else acc[eb:ee]
                        fold_out = (
                            root_out[eb:ee]
                            if (last and root_out is not None)
                            else acc[eb:ee]
                        )
                        kernels.fold(operator, fold_src, slot, fold_out)
                        position += 1
                    next_fold[k] = position
                    if position == n_children:
                        next_fold[k] = n_children + 1  # fold done, marker
                        remaining -= 1
                        completed.append(k)
                if self.parent is not None and completed:
                    if not parent_ready:
                        if (
                            rt.notify_waitsome(sid, self._credit_id, 1, timeout=0.0)
                            is not None
                        ):
                            rt.notify_reset(sid, self._credit_id)
                            parent_ready = True
                    if parent_ready:
                        try_push()

            # Every child slot of this call is folded and the last drain is
            # behind us: the children may push their next call.
            for child in self.children:
                rt.notify(child, sid, self._credit_id, queue=queue)
            if self.parent is not None:
                if not parent_ready:
                    nid = self._credit_id
                    while rt.notify_waitsome(sid, nid, 1, timeout=poll_timeout) is None:
                        yield WaitSpec(sid, nid, 1)
                    rt.notify_reset(sid, nid)
                    parent_ready = True
                try_push()
            elif recvbuf is not None and root_out is None:
                # The root's last fold could not land in recvbuf (strided
                # or differently typed), or there was nothing to fold.
                recvbuf[: self.reduce_elems] = push_src
            rt.wait(queue)  # the credits and the pushes

        self.calls += 1
        contributors = len(self.participants) if rank == root else 0
        detail = ReduceResult(
            rank=rank,
            root=root,
            mode=self.mode,
            threshold=self.key.policy[0],
            participated=self.participating,
            elements_reduced=self.reduce_elems if self.participating else 0,
            contributors=contributors if self.participating else 0,
        )
        return CollectiveResult(value=request.recvbuf, detail=detail)


# --------------------------------------------------------------------------- #
# pipelined (chunked) ring allreduce
# --------------------------------------------------------------------------- #
class PipelinedRingAllreducePlan(CollectivePlan):
    """Ring allreduce with in-flight sub-chunk slots and a single-copy path.

    Differences from the monolithic :class:`~repro.core.allreduce_ring.RingAllreducePlan`:

    * the caller's ``recvbuf`` is the working vector and every send posts
      straight from caller memory
      (:meth:`~repro.gaspi.runtime.GaspiRuntime.write_notify_from`):
      step 0 sends read ``sendbuf``, each scatter fold is the fused
      ``recvbuf[c] = op(sendbuf[c], slot)``, later sends read ``recvbuf``
      — no entry copy into a work region, no per-step staging copy, no
      copy back.  Only a non-contiguous ``recvbuf`` goes through a private
      contiguous vector, copied out once;
    * each ring step's 1/P chunk is split into up to ``M`` sub-chunks
      (``policy.chunk_bytes`` / the tuning table), all in flight at once
      with per-sub-chunk notification ids;
    * the pooled segment holds only what peers write: one slot per
      scatter sub-chunk, and, unless the plan binds it (below), the
      allgather *landing zone*, where sub-chunks arrive at their global
      offsets (the same on every rank) and are copied into ``recvbuf`` as
      they arrive.  With ``segment_bind``, on a plan leased from a pool
      that outlives one call (not a standalone or throwaway plan), the
      landing zone is a second, exact workspace bound to the working
      vector: allgather sub-chunks and their notifications land straight
      in ``recvbuf``, and nothing is copied out.  No fence guards the
      landing zone across calls: the predecessor's first allgather write
      of a call follows its last scatter receive of that call, which
      depends transitively on this rank's step-0 send of the same call —
      and that send comes after this rank's previous copy-out and after
      its rebinding to this call's vector.  The scatter-phase slots are
      serialised across calls by the same step chain, exactly as for the
      monolithic plan.

    A landing write into the working vector never meets a value the
    receiver still needs: it carries a fully reduced chunk, which exists
    only after the receiver sent its own share of that chunk on (its
    step-0 send, or the fold it forwarded).
    """

    _segment_views = ("_slot_views",)

    def __init__(
        self, runtime, key: PlanKey, segment_id: int, policy, pool=None, throwaway=False
    ) -> None:
        super().__init__(runtime, key, segment_id, pool, throwaway)
        self.dtype = np.dtype(key.dtype)
        self.elements = key.nbytes // self.dtype.itemsize
        size = runtime.size
        rank = runtime.rank
        self.ring = Ring(size)
        self.next_rank = self.ring.next_rank(rank)
        itemsize = self.dtype.itemsize
        max_chunk = -(-self.elements // size) if size else 0
        max_chunk_bytes = max(max_chunk * itemsize, itemsize)
        chunk_bytes = resolve_chunk_bytes(max_chunk_bytes, policy)
        if chunk_bytes is None:
            self.subs = 1
        else:
            self.subs = max(1, min(64, -(-max_chunk_bytes // max(chunk_bytes, 1))))
        self.scatter_steps = size - 1
        self.total_steps = 2 * (size - 1)
        # One slot holds the largest sub-chunk: a whole number of elements
        # (rounding the *byte* quotient up leaves the slot short of — and
        # the next slot inside — a sub-chunk one element larger).
        self.sub_slot_bytes = max(-(-max_chunk // self.subs), 1) * itemsize
        # The bound zone is a second segment, so a pooled plan's: a
        # standalone one owns the single id ``segment_id``.  It is exact —
        # a create and a barrier at the lease, a barrier and a delete at the
        # release — so a throwaway plan, which runs one call, lands in the
        # staged zone.  A bound window must fill its segment exactly, and a
        # segment is at least 8 bytes: smaller payloads are staged too.
        self.bind_landing = (
            pool is not None
            and not self.throwaway
            and runtime.supports_bind
            and key.nbytes >= 8
            and size > 1
        )
        self._bound: Optional[np.ndarray] = None
        # Scatter slots sit past the staged landing zone, or alone.
        self._slot_base = 0 if self.bind_landing else key.nbytes
        layout = NotificationLayout()
        self.notif_steps = layout.add(
            "steps", max(1, self.total_steps * self.subs)
        )
        # Step table: per global step, the fully precomputed send and
        # receive actions.  Sends: (notif id, element bounds in the
        # caller's vector, remote byte offset).  Receives: (notif id,
        # element bounds) — a scatter arrival sits in ``_slot_views[nid]``,
        # an allgather one at its global offset of the landing zone.
        # Sub-bounds slice the *global* vector; sender and receiver cut
        # the same global chunk, so they always agree.
        self.steps: List[Tuple[List[tuple], List[tuple], bool]] = []
        for gstep in range(self.total_steps):
            fold = gstep < self.scatter_steps
            step = gstep if fold else gstep - self.scatter_steps
            if fold:
                send_chunk = self.ring.scatter_reduce_send_chunk(rank, step)
                recv_chunk = self.ring.scatter_reduce_recv_chunk(rank, step)
            else:
                send_chunk = self.ring.allgather_send_chunk(rank, step)
                recv_chunk = self.ring.allgather_recv_chunk(rank, step)
            sends = [
                (self._step_id(gstep, m), sb, se, self._arrival_offset(gstep, m, sb))
                for m, (sb, se) in enumerate(self._sub_bounds(send_chunk))
            ]
            recvs = [
                (self._step_id(gstep, m), rb, re)
                for m, (rb, re) in enumerate(self._sub_bounds(recv_chunk))
            ]
            self.steps.append((sends, recvs, fold))
        if size > 1:
            slot_bytes = self.scatter_steps * self.subs * self.sub_slot_bytes
            workspace_bytes = max(self._slot_base + slot_bytes, 8)
            # Budget check: the step table's remote offsets are computed by
            # hand (allgather arrivals at their global offsets, scatter
            # slots after the staged landing zone) — prove every send of
            # every step lands inside the workspace created just below.
            for sends, _recvs, fold in self.steps:
                for nid, sb, se, remote in sends:
                    send_bytes = (se - sb) * itemsize
                    end = workspace_bytes if fold else key.nbytes
                    require(
                        not fold or send_bytes <= self.sub_slot_bytes,
                        f"ring scatter sub-chunk of {send_bytes} bytes "
                        f"(notification {nid}) overflows its "
                        f"{self.sub_slot_bytes}-byte slot",
                    )
                    require(
                        0 <= remote and remote + send_bytes <= end,
                        f"ring step table overruns the workspace: send for "
                        f"notification {nid} covers bytes "
                        f"[{remote}, {remote + send_bytes}) of {end}",
                    )
            self._lease_workspace(workspace_bytes, layout.used)
            #: Where allgather sub-chunks land: the bound workspace, or the
            #: staged zone at the front of the pooled one.
            self.landing_id = (
                self._lease_workspace(key.nbytes, layout.used, exact=True)
                if self.bind_landing
                else self.segment_id
            )
            # Frozen views of where each sub-chunk arrives in the pooled
            # segment (keyed by notification id) — no per-call lookups.
            self._slot_views = {
                nid: runtime.segment_view(
                    self.segment_id,
                    dtype=self.dtype,
                    offset=self._arrival_offset(gstep, m, rb),
                    count=re - rb,
                )
                for gstep, (_sends, recvs, fold) in enumerate(self.steps)
                for m, (nid, rb, re) in enumerate(recvs)
                if re > rb and (fold or not self.bind_landing)
            }

    def _sub_bounds(self, chunk_index: int) -> List[Tuple[int, int]]:
        """Element bounds of every sub-chunk of one rank-chunk."""
        begin, end = chunk_bounds(self.elements, self.runtime.size, chunk_index)
        out = []
        for m in range(self.subs):
            sb, se = chunk_bounds(end - begin, self.subs, m)
            out.append((begin + sb, begin + se))
        return out

    def _arrival_offset(self, gstep: int, sub: int, begin: int) -> int:
        """Byte offset where sub-chunk ``sub`` of ``gstep`` lands.

        Scatter sub-chunks get one slot each of the pooled segment;
        allgather sub-chunks land at their global offset ``begin``
        (elements) of the landing zone — identical on sender and receiver.
        """
        if gstep < self.scatter_steps:
            return self._slot_base + (gstep * self.subs + sub) * self.sub_slot_bytes
        return begin * self.dtype.itemsize

    def _step_id(self, step: int, sub: int) -> int:
        return self.notif_steps.id(step * self.subs + sub)

    # ------------------------------------------------------------------ #
    def _run(self, request: "CollectiveRequest", poll_timeout: float) -> PipelineGen:
        sendbuf = self._check_payload(np.asarray(request.sendbuf), "allreduce sendbuf")
        require(
            sendbuf.ndim == 1 and sendbuf.flags["C_CONTIGUOUS"],
            "allreduce sendbuf must be a contiguous vector",
        )
        operator = get_op(request.op)
        rt = self.runtime
        rank = rt.rank
        size = rt.size
        recvbuf = request.recvbuf
        if recvbuf is None:
            recvbuf = np.empty_like(sendbuf)
        else:
            recvbuf = np.asanyarray(recvbuf)  # the bound zone is this very object
            require(
                recvbuf.shape == sendbuf.shape and recvbuf.dtype == sendbuf.dtype,
                "recvbuf must match sendbuf in shape and dtype",
            )
        if size == 1:
            recvbuf[:] = sendbuf
            self.calls += 1
            return CollectiveResult(
                value=recvbuf, detail=RingAllreduceStats(rank, 1, 0, 0, 0)
            )

        sid = self.segment_id
        landing = self.landing_id
        queue = request.queue
        nxt = self.next_rank
        # recvbuf is the working vector: every element is written exactly
        # once per phase (a fold out of sendbuf, or an allgather arrival)
        # before it is sent on, so nothing is staged and nothing is copied
        # back.  Posted sources must be contiguous; a strided recvbuf
        # reduces into a private vector and is filled once at the end.
        out = recvbuf if recvbuf.flags["C_CONTIGUOUS"] else np.empty_like(sendbuf)
        arrivals = self._slot_views
        staged = not self.bind_landing
        if not staged and self._bound is not out:
            # Point the landing zone at this call's vector.  Safe: the
            # predecessor's allgather writes of the previous call were all
            # consumed, and it writes this call's only after its last
            # scatter receive, which follows this rank's step-0 send below.
            rt.segment_bind(landing, out)
            self._bound = out

        bytes_sent = 0
        bytes_received = 0
        itemsize = self.dtype.itemsize
        source = sendbuf  # step 0 sends the caller's own chunk
        target = sid  # the segment a step writes to and waits on
        for sends, recvs, fold in self.steps:
            if not fold:
                target = landing
            for nid, sb, se, remote in sends:
                if se > sb:
                    rt.write_notify_from(
                        source[sb:se], nxt, target, remote, nid, queue=queue
                    )
                else:
                    rt.notify(nxt, target, nid, queue=queue)
                bytes_sent += (se - sb) * itemsize
            rt.wait(queue)
            source = out  # every later send forwards what the last step produced
            for nid, rb, re in recvs:
                while rt.notify_waitsome(target, nid, 1, timeout=poll_timeout) is None:
                    yield WaitSpec(target, nid, 1)
                rt.notify_reset(target, nid)
                bytes_received += (re - rb) * itemsize
                if re > rb:
                    if fold:
                        kernels.fold(
                            operator, sendbuf[rb:re], arrivals[nid], out[rb:re]
                        )
                    elif staged:
                        out[rb:re] = arrivals[nid]

        if out is not recvbuf:
            recvbuf[:] = out
        self.calls += 1
        detail = RingAllreduceStats(
            rank=rank,
            num_chunks=size,
            steps=self.total_steps,
            bytes_sent=bytes_sent,
            bytes_received=bytes_received,
        )
        return CollectiveResult(value=recvbuf, detail=detail)


# --------------------------------------------------------------------------- #
# schedule builders (simulator models of the per-chunk pipelines)
# --------------------------------------------------------------------------- #
def _chunk_count(nbytes: int, chunk_bytes: Optional[int]) -> int:
    """Number of pipeline chunks the schedule models for a payload."""
    if chunk_bytes is None:
        from .tuning import select_chunk_bytes

        chunk_bytes = select_chunk_bytes(nbytes)
    if not nbytes or chunk_bytes is None or chunk_bytes >= nbytes:
        return 1
    return max(1, -(-nbytes // int(chunk_bytes)))


def pipelined_bst_bcast_schedule(
    num_ranks: int,
    nbytes: int,
    threshold: float = 1.0,
    chunk_bytes: Optional[int] = None,
    root: int = 0,
    protocol: Protocol = Protocol.ONESIDED,
    name: str | None = None,
) -> CommunicationSchedule:
    """Per-chunk schedule of the pipelined BST broadcast.

    Round ``r`` carries chunk ``k`` across tree stage ``s`` wherever
    ``(s - 1) + k == r`` — the wavefront of the pipeline.  Because the
    simulator orders each rank's rounds, this models exactly the overlap
    the pipelining buys: with ``C`` chunks and ``S`` stages the depth is
    ``S + C - 1`` chunk times instead of ``S`` full-payload times.
    """
    require(nbytes >= 0, "nbytes must be non-negative")
    send_bytes = threshold_bytes(nbytes, threshold)
    chunks = _chunk_count(send_bytes, chunk_bytes)
    tree = BinomialTree(num_ranks, root)
    sched = CommunicationSchedule(
        name=name or f"gaspi_bcast_bst_pipelined[{chunks}ch]",
        num_ranks=num_ranks,
        metadata={
            "threshold": threshold,
            "payload_bytes": nbytes,
            "shipped_bytes": send_bytes,
            "chunks": chunks,
            "algorithm": "pipelined_binomial_spanning_tree",
        },
    )
    stages = tree.ranks_by_stage()
    max_stage = max(stages) if num_ranks > 1 else 0
    per_chunk = [
        chunk_bounds(send_bytes, chunks, k)[1] - chunk_bounds(send_bytes, chunks, k)[0]
        for k in range(chunks)
    ]
    for wave in range(max_stage + chunks - 1):
        messages = []
        for stage in sorted(s for s in stages if s > 0):
            k = wave - (stage - 1)
            if not (0 <= k < chunks):
                continue
            messages.extend(
                Message(
                    src=tree.parent(child),
                    dst=child,
                    nbytes=per_chunk[k],
                    protocol=protocol,
                    tag=f"bcast-stage-{stage}-chunk-{k}",
                )
                for child in stages[stage]
            )
        if messages:
            sched.add_round(messages, label=f"wave-{wave}")
    sched.validate()
    return sched


def pipelined_bst_reduce_schedule(
    num_ranks: int,
    nbytes: int,
    threshold: float = 1.0,
    mode: ReduceMode | str = ReduceMode.DATA,
    chunk_bytes: Optional[int] = None,
    root: int = 0,
    protocol: Protocol = Protocol.ONESIDED,
    name: str | None = None,
) -> CommunicationSchedule:
    """Per-chunk schedule of the pipelined BST reduce (inverse wavefront).

    The deepest stage pushes chunk ``k`` at round ``(S_max - s) + k``;
    every hop pays the per-chunk reduction, modelled through the messages'
    ``reduce_bytes``.  Data movement only: the shipped executor's flow
    control is an end-of-call credit, off the critical path.
    """
    from ..utils.validation import check_fraction

    mode = ReduceMode(mode)
    check_fraction(threshold, "threshold")
    require(nbytes >= 0, "nbytes must be non-negative")
    tree = BinomialTree(num_ranks, root)
    if mode is ReduceMode.DATA:
        send_bytes = threshold_bytes(nbytes, threshold)
        participants = set(range(num_ranks))
    else:
        send_bytes = nbytes
        participants = set(tree.participating_ranks(threshold))
    chunks = _chunk_count(send_bytes, chunk_bytes)
    sched = CommunicationSchedule(
        name=name or f"gaspi_reduce_bst_pipelined[{chunks}ch]",
        num_ranks=num_ranks,
        metadata={
            "threshold": threshold,
            "mode": mode.value,
            "payload_bytes": nbytes,
            "shipped_bytes": send_bytes,
            "chunks": chunks,
            "participants": len(participants),
            "algorithm": "pipelined_binomial_spanning_tree",
        },
    )
    stages = tree.ranks_by_stage()
    max_stage = max(stages) if num_ranks > 1 else 0
    per_chunk = [
        chunk_bounds(send_bytes, chunks, k)[1] - chunk_bounds(send_bytes, chunks, k)[0]
        for k in range(chunks)
    ]
    for wave in range(max_stage + chunks - 1):
        messages = []
        for stage in sorted((s for s in stages if s > 0), reverse=True):
            k = wave - (max_stage - stage)
            if not (0 <= k < chunks):
                continue
            for child in stages[stage]:
                parent = tree.parent(child)
                if child in participants and parent in participants:
                    messages.append(
                        Message(
                            src=child,
                            dst=parent,
                            nbytes=per_chunk[k],
                            protocol=protocol,
                            reduce_bytes=per_chunk[k],
                            tag=f"reduce-stage-{stage}-chunk-{k}",
                        )
                    )
        if messages:
            sched.add_round(messages, label=f"wave-{wave}")
    sched.validate()
    return sched


def pipelined_ring_allreduce_schedule(
    num_ranks: int,
    nbytes: int,
    chunk_bytes: Optional[int] = None,
    protocol: Protocol = Protocol.ONESIDED,
    name: str | None = None,
) -> CommunicationSchedule:
    """Schedule of the chunked ring: the ring builder with sub-splitting."""
    per_rank_chunk = -(-nbytes // num_ranks) if num_ranks else nbytes
    subs = _chunk_count(per_rank_chunk, chunk_bytes)
    sched = ring_allreduce_schedule(
        num_ranks,
        nbytes,
        protocol=protocol,
        segment_messages=subs,
        name=name or f"gaspi_allreduce_ring_pipelined[{subs}sub]",
    )
    sched.metadata["chunks"] = subs
    sched.metadata["algorithm"] = "pipelined_segmented_ring"
    return sched
