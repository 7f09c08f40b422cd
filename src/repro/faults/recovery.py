"""Degraded-mode collectives: detect missing ranks, complete, correct.

The paper's eventually consistent collectives complete once a threshold of
the data or the processes has arrived; this module closes the loop for the
*failure* regimes: thresholded broadcast / reduce / allreduce variants
that

1. **detect** non-contributing ranks through a detection window that
   expires instead of blocking forever,
2. **complete** at the consistency policy's process threshold, recording
   exactly who was missing (:attr:`DegradedResult.missing_ranks`), and
3. **correct**: a Küttler-style correction pass
   (:meth:`DegradedResult.correct`) folds contributions that arrive late
   (a recovered crash, a healed partition, an extreme straggler) into the
   already-published result, re-converging the survivors onto the exact
   full-participation value.

All three are one plan, :class:`TolerantPlan`: a flat, rank-indexed
exchange — the contribution of rank ``r`` lands in slot ``r`` and posts
notification ``r`` — because the slot/notification identity is what lets
a late contribution be attributed and folded in after the collective
formally completed.  The detection window is a
:class:`~repro.core.plan.WaitSpec` with a deadline, so a call (blocking,
or nonblocking: that one runs at issue) and the verifier's model
(``python -m repro.analysis --all``) end it the same way; the call and its
correction pass run one collect step.  The plan is never cached (a degraded call keeps its
workspace for correction) and takes no world barrier after its bounded
entry handshake: a dead rank must not be able to hang a survivor.

It is registered as ``gaspi_{bcast,reduce,allreduce}_tolerant`` with the
``fault_tolerant`` capability flag, so ``Communicator(..., faults=plan)``
auto-routes to it; :func:`tolerant_allreduce`, :func:`tolerant_reduce`
and :func:`tolerant_bcast` are cold calls of it.
"""

from __future__ import annotations

import math
import time
from typing import AbstractSet, Generator, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import kernels
from ..core.bcast import threshold_bytes, threshold_elements
from ..core.plan import CollectivePlan, PipelineGen, WaitSpec, drive_pipeline
from ..core.policy import CollectiveRequest, CollectiveResult, ConsistencyPolicy, ReduceMode
from ..core.reduction_ops import ReductionOp, get_op
from ..core.registry import REGISTRY, AlgorithmCapabilities
from ..core.schedule import CommunicationSchedule, Message, Protocol
from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.errors import GaspiError, GaspiSegmentError
from ..gaspi.group import Group
from ..gaspi.runtime import GaspiRuntime
from ..telemetry.core import CLOCK
from ..utils.backoff import Backoff, BackoffPolicy
from ..utils.logging import get_logger
from ..utils.validation import require

logger = get_logger("faults.recovery")

#: Default segment id of the standalone (non-Communicator) entry points.
FAULT_SEGMENT_ID = 140

#: How long a collective waits for missing contributions before declaring
#: them absent.  Deliberately short: detection is supposed to be cheaper
#: than waiting a failed rank out.
DEFAULT_DETECT_TIMEOUT = 0.5

#: Default budget of one :meth:`DegradedResult.correct` pass.
DEFAULT_CORRECTION_TIMEOUT = 2.0

#: Entry-handshake retry shape: the detection timeout is spent in a few
#: barrier slices with jittered pauses between them, so a straggler can
#: still synchronize mid-window instead of missing one full-budget try.
_HANDSHAKE_BACKOFF = BackoffPolicy(
    initial=0.005, factor=2.0, max_pause=0.05, jitter=0.5
)


class DegradedCollectiveError(GaspiError):
    """A degraded collective fell below its process threshold.

    Raised only under ``on_failure="abort"``.  Carries the
    :class:`DegradedResult` (as :attr:`detail`) so the caller can inspect
    the missing ranks and still run a correction pass.
    """

    def __init__(self, detail: "DegradedResult") -> None:
        self.detail = detail
        super().__init__(
            f"{detail.collective}: only {detail.contributors}/{detail.required} "
            f"required contributors arrived (missing ranks: "
            f"{list(detail.missing_ranks)}); pass on_failure='complete' to "
            f"accept degraded results"
        )


class DegradedResult:
    """Status and correction handle of one degraded-mode collective call.

    Plays the role of the paper's *status* output parameter, extended for
    faults: which ranks never contributed, whether the process threshold
    was met, and — while the workspace segment is kept alive — a
    :meth:`correct` pass that folds late contributions in.

    ``participants`` are the ranks this rank's result is made of: every
    rank for an allreduce, a reduce root and a broadcast root; the root and
    itself for a broadcast receiver; itself for a reduce child.

    Call :meth:`close` (or let a successful :meth:`correct` do it) once no
    late contribution is expected anymore; it releases the workspace
    segment.  Results without missing ranks need no closing.
    """

    def __init__(
        self,
        plan: "TolerantPlan",
        value: Optional[np.ndarray],
        participants: Iterable[int],
        contributed: AbstractSet[int],
        required: int,
    ) -> None:
        self.collective = plan.key.collective
        self.rank = plan.runtime.rank
        self.root: Optional[int] = None if self.collective == "allreduce" else plan.key.root
        self.threshold = plan.threshold
        self.required = int(required)
        self.value = value
        self.corrected_ranks: Tuple[int, ...] = ()
        self._plan = plan
        self._participants = frozenset(participants)
        self._closed = False
        self._count(contributed)

    def _count(self, contributed: AbstractSet[int]) -> None:
        self.contributors = len(contributed)
        self.missing_ranks: Tuple[int, ...] = tuple(sorted(self._participants - contributed))

    # ------------------------------------------------------------------ #
    @property
    def complete(self) -> bool:
        """True when every rank's contribution has been folded in."""
        return not self.missing_ranks

    @property
    def met_threshold(self) -> bool:
        """True when enough contributors arrived for the policy."""
        return self.contributors >= self.required

    @property
    def correctable(self) -> bool:
        """True while the workspace is alive and contributions are missing."""
        return bool(self.missing_ranks) and not self._closed

    # ------------------------------------------------------------------ #
    def correct(self, timeout: float = DEFAULT_CORRECTION_TIMEOUT):
        """Küttler-style correction pass: fold in late contributions.

        Waits up to ``timeout`` seconds for contributions of the ranks in
        :attr:`missing_ranks`; each one that arrives is reduced into (or,
        for a broadcast receiver, copied into) the already-returned buffer
        in place, so every holder of the result re-converges without a new
        collective.  Returns the (possibly updated) value; when nothing is
        missing anymore the workspace segment is released.
        """
        if not self.correctable:
            return self.value
        return drive_pipeline(self._plan.runtime, self.correction(timeout, math.inf))

    def correction(
        self, timeout: float, poll_timeout: float = 0.0
    ) -> Generator[WaitSpec, Optional[bool], Optional[np.ndarray]]:
        """:meth:`correct` as a plan generator: the call's collect step
        again, over the missing ranks, in a window of ``timeout`` seconds
        (each inline wait bounded by ``poll_timeout``, as in
        :meth:`TolerantPlan._run`).  Returns the value."""
        missing = set(self.missing_ranks)
        contributed = self._participants - missing
        arrived = yield from self._plan._collect(
            self.value, missing, contributed, time.monotonic() + timeout, poll_timeout
        )
        if arrived:
            logger.info(
                "rank %d: correction folded late contribution(s) from "
                "ranks %s into %s result%s",
                self.rank, sorted(arrived), self.collective,
                "" if arrived == missing else " (still incomplete)",
            )
            tel = getattr(self._plan.runtime, "telemetry", None)
            if tel is not None and tel.enabled:
                tel.counter("faults.corrections").add(len(arrived))
        self.corrected_ranks = tuple(sorted(set(self.corrected_ranks) | arrived))
        self._count(contributed | arrived)
        if self.complete:
            self.close()
        return self.value

    def close(self) -> None:
        """Release the workspace segment kept alive for correction."""
        if self._closed:
            return
        self._closed = True
        try:
            self._plan.runtime.segment_delete(self._plan.segment_id)
        except GaspiError:  # pragma: no cover - already gone
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "complete" if self.complete else f"missing={list(self.missing_ranks)}"
        return (
            f"DegradedResult({self.collective}, rank={self.rank}, "
            f"{self.contributors}/{self.required} contributors, {state})"
        )


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #
def _entry_handshake(
    runtime: GaspiRuntime, alive: Sequence[int], timeout: float
) -> None:
    """Bounded readiness handshake over the believed-live ranks.

    A plain group barrier would deadlock whenever the participants'
    ``known_failed`` views diverge (e.g. a rank crashed *mid*-send, so
    some survivors received its contribution and some did not):
    mismatched groups wait on mismatched barriers forever.  Instead the
    barrier is retried in jittered-backoff slices of the detection timeout
    (:class:`~repro.utils.backoff.Backoff`) and a final miss is tolerated —
    a straggler that arrives mid-window still synchronizes on a later
    slice, every rank that entered the collective has already created its
    workspace, and a post to a rank that never entered surfaces as a
    segment error the senders catch (:func:`_reaches`), turning
    disagreement into a detection latency cost rather than a hang.  So no
    step of the protocol may rely on it: the verifier records it as no
    synchronisation at all.
    """
    if len(alive) <= 1:
        return
    group = Group(alive)
    backoff = Backoff(
        _HANDSHAKE_BACKOFF, timeout=timeout, seed=runtime.rank
    )
    while True:
        slice_timeout = max(timeout / 4.0, backoff.remaining() / 2.0)
        try:
            runtime.barrier(group, timeout=min(slice_timeout, backoff.remaining()))
            return
        except GaspiError:
            if not backoff.sleep():
                return


def _reaches(post, *args, **kwargs) -> bool:
    """Run one post, tolerating an unreachable target.

    Returns False when the target rank has no workspace (it is dead,
    suspects a different rank set, or released it already) — RDMA into
    nothing; the sender simply moves on and the target shows up as
    missing.  Injected crashes (:class:`~repro.faults.injection.RankCrashedError`)
    still propagate: the *sender* dying is not an unreachable target.
    """
    try:
        post(*args, **kwargs)
        return True
    except GaspiSegmentError:
        return False


# --------------------------------------------------------------------------- #
# the plan
# --------------------------------------------------------------------------- #
class TolerantPlan(CollectivePlan):
    """The tolerant trio's one protocol: a flat, rank-slot-indexed exchange.

    Three roles, one send step and one collect step (:meth:`_collect`):

    * **allreduce** — every rank writes its vector into slot ``rank`` of
      every live peer (notification ``rank``) and folds what arrives;
    * **reduce** — the children write slot ``rank`` of the root, which
      folds; a child is done once its write is flushed, so a dead root
      cannot hang it;
    * **bcast** — the root writes the payload (the leading ``threshold``
      fraction in DATA mode, all of it in PROCESSES mode) to every live
      rank under notification ``size``, and collects their data-free
      acknowledgements (notification ``rank``).

    Posts go out in rank order.  The collect step waits in a detection
    window (a :class:`~repro.core.plan.WaitSpec` with a deadline) and
    completes at the process threshold with the missing ranks named in a
    :class:`DegradedResult`, whose correction pass runs the same step again.
    Ranks in the request's ``known_failed`` metadata are neither written
    to nor waited for; its ``detect_timeout`` is the window (default: the
    request's timeout, or :data:`DEFAULT_DETECT_TIMEOUT` when unbounded).

    Never cached: a degraded call keeps its workspace for correction, so
    each call registers a segment of its own — under a communicator a
    ``reserve_id`` one — which the result releases (at once when nothing
    is missing).  There is no world barrier, only the bounded entry
    handshake (:func:`_entry_handshake`).  A rank that crashes mid-call
    keeps its segment.
    """

    def __init__(
        self, runtime, key, segment_id: int, policy, pool=None, throwaway=False
    ) -> None:
        super().__init__(runtime, key, segment_id, pool, throwaway)
        size = runtime.size
        require(0 <= key.root < size, f"root {key.root} outside world of {size}")
        self.threshold = policy.threshold
        self.on_failure = policy.on_failure
        self.operator: ReductionOp = get_op(key.op)
        self.queue = 0
        elements = key.nbytes // self.key_dtype.itemsize
        #: Contributors the process threshold asks of a collecting rank
        #: (``None``: every participant — a DATA-mode broadcast).
        self.quorum: Optional[int] = max(1, math.ceil(policy.threshold * size - 1e-9))
        if key.collective == "bcast" and policy.mode is ReduceMode.DATA:
            elements = threshold_elements(elements, policy.threshold)
            self.quorum = None
        self.elements = elements
        self.slot_bytes = elements * self.key_dtype.itemsize
        workspace = self.slot_bytes if key.collective == "bcast" else size * self.slot_bytes
        if pool is not None:
            self.segment_id = pool.reserve_id()
        runtime.segment_create(self.segment_id, max(workspace, 8))

    def _run(self, request: CollectiveRequest, poll_timeout: float) -> PipelineGen:
        rt, sid = self.runtime, self.segment_id
        rank, size, root = rt.rank, rt.size, self.key.root
        collective = self.key.collective
        sendbuf = np.ascontiguousarray(request.sendbuf)
        known = {int(r) for r in request.metadata.get("known_failed", ())}
        try:
            require(sendbuf.ndim == 1 and sendbuf.size > 0, "sendbuf must be a non-empty vector")
            require(
                rank not in known,
                f"rank {rank} cannot run a collective it is itself suspected dead in",
            )
            require(
                collective == "allreduce" or root not in known,
                f"root {root} is in known_failed; pick a live root",
            )
        except ValueError:
            rt.segment_delete(sid)  # nobody posts to a call that never started
            raise
        alive = [r for r in range(size) if r not in known]
        default = DEFAULT_DETECT_TIMEOUT if request.timeout == GASPI_BLOCK else request.timeout
        window = float(request.metadata.get("detect_timeout", default))
        self.queue = queue = request.queue
        _entry_handshake(rt, alive, window)

        gathers = collective == "allreduce" or rank == root
        if collective == "bcast":
            value = sendbuf
            source, offset, nid = sendbuf[: self.elements], 0, size
        else:
            value = None
            if gathers:
                value = sendbuf.copy() if request.recvbuf is None else np.asarray(request.recvbuf)
                require(value.size == sendbuf.size, "recvbuf must match sendbuf's length")
                value[:] = sendbuf
            source, offset, nid = sendbuf, rank * self.slot_bytes, rank
        # Send step (an allreduce, a reduce child, a broadcast root).  An
        # injected crash propagates as RankCrashedError from here; the
        # rank's segment stays behind for the survivors.
        if collective == "allreduce" or (rank == root) == (collective == "bcast"):
            peers = [r for r in alive if r != rank] if gathers else [root]
            for peer in peers:
                _reaches(rt.write_notify_from, source, peer, sid, offset, nid, queue=queue)
            if peers:
                rt.wait(queue)

        receiver = collective == "bcast" and not gathers
        expected = {root} if receiver else set(alive) - {rank} if gathers else set()
        arrived: Set[int] = set()
        if expected:
            arrived = yield from self._collect(
                value, expected, {rank}, time.monotonic() + window, poll_timeout
            )
        participants = range(size) if gathers else {rank, root} if receiver else {rank}
        required = self.quorum if gathers and self.quorum is not None else len(participants)
        self.calls += 1
        detail = DegradedResult(self, value, participants, arrived | {rank}, required)
        if detail.complete:
            detail.close()
        else:
            logger.info(
                "rank %d: %s completed degraded, missing_ranks=%s "
                "(%d/%d contributors, threshold %s)",
                rank, collective, list(detail.missing_ranks),
                detail.contributors, detail.required,
                "met" if detail.met_threshold else "NOT met",
            )
        if not detail.met_threshold and self.on_failure == "abort":
            raise DegradedCollectiveError(detail)
        return CollectiveResult(value=value, detail=detail)

    def _collect(
        self,
        value: Optional[np.ndarray],
        expected: Set[int],
        counted: AbstractSet[int],
        deadline: float,
        poll_timeout: float,
    ) -> Generator[WaitSpec, Optional[bool], Set[int]]:
        """The collect step of a call and of its correction pass.

        Waits for the contributions of ``expected`` until they all arrived
        or ``deadline`` passed, and takes each one that arrives from a rank
        not in ``counted``: folds it into ``value`` (allreduce, reduce),
        copies the payload into ``value`` and acknowledges it (a broadcast
        receiver), or counts the acknowledgement (a broadcast root).  Only
        ``expected`` is waited for, but a rank wrongly suspected dead — it
        merely straggled past an earlier window — must not have its
        notification consumed and its data discarded.  Ends with a
        non-blocking drain, so an arrival racing the deadline is not
        declared missing.  Returns the ranks taken.
        """
        rt, sid = self.runtime, self.segment_id
        rank, size, root = rt.rank, rt.size, self.key.root
        receiver = self.key.collective == "bcast" and rank != root
        first, count = (size, 1) if receiver else (0, size)
        taken: Set[int] = set()

        def take(nid: int) -> None:
            source = root if receiver else nid
            if source in taken or source in counted:
                return
            if receiver:
                value[: self.elements] = rt.segment_read(
                    sid, dtype=self.key_dtype, count=self.elements
                )
                _reaches(rt.notify, root, sid, rank, queue=self.queue)
                rt.wait(self.queue)
            elif self.key.collective != "bcast":
                # Copied out, unlike the fault-free folds: a recovered rank
                # may re-send into the slot while this rank folds.  Read in
                # the contribution's dtype, whatever the accumulator's.
                slot = rt.segment_read(
                    sid, dtype=self.key_dtype, offset=nid * self.slot_bytes,
                    count=self.elements,
                )  # fmt: skip
                kernels.reduce_into(self.operator, value, slot)
            taken.add(source)

        what = f"{self.key.collective} contributions of ranks {sorted(expected)}"
        t_detect = CLOCK()
        while expected - taken:
            left = deadline - time.monotonic()
            nid = rt.notify_waitsome(sid, first, count, timeout=max(0.0, min(poll_timeout, left)))
            if nid is None:
                if (yield WaitSpec(sid, first, count, what, deadline)):
                    break
            elif rt.notify_reset(sid, nid):
                take(nid)
        for nid, posted in rt.notify_drain(sid, first, count).items():
            if posted:
                take(nid)
        absent = expected - taken
        if absent:
            # Suspicion latency: how long the detection window actually ran
            # before these ranks were declared missing.
            elapsed = CLOCK() - t_detect
            logger.info(
                "rank %d: declaring ranks %s missing after %.3fs detection window",
                rank, sorted(absent), elapsed,
            )
            tel = getattr(rt, "telemetry", None)
            if tel is not None and tel.enabled:
                tel.counter("faults.suspicions").add(len(absent))
                tel.histogram("faults.suspicion_latency_s").observe(elapsed)
        return taken


# --------------------------------------------------------------------------- #
# entry points (cold calls of the plan)
# --------------------------------------------------------------------------- #
def _cold_call(
    collective: str,
    runtime: GaspiRuntime,
    sendbuf: np.ndarray,
    recvbuf: Optional[np.ndarray],
    root: int,
    op: str | ReductionOp,
    policy: ConsistencyPolicy,
    detect_timeout: float,
    known_failed: Iterable[int],
    segment_id: int,
    queue: int,
) -> DegradedResult:
    request = CollectiveRequest(
        collective, sendbuf, recvbuf, root, op, policy, segment_id=segment_id,
        queue=queue, metadata={"detect_timeout": detect_timeout, "known_failed": known_failed},
    )  # fmt: skip
    return REGISTRY.get(f"gaspi_{collective}_tolerant").run(runtime, request).detail


def tolerant_allreduce(
    runtime: GaspiRuntime,
    sendbuf: np.ndarray,
    recvbuf: Optional[np.ndarray] = None,
    op: str | ReductionOp = "sum",
    threshold: float = 1.0,
    on_failure: str = "abort",
    detect_timeout: float = DEFAULT_DETECT_TIMEOUT,
    known_failed: Iterable[int] = (),
    segment_id: int = FAULT_SEGMENT_ID,
    queue: int = 0,
) -> DegradedResult:
    """Fault-tolerant flat-exchange allreduce with degraded completion.

    Every live rank pushes its contribution into slot ``rank`` of every
    peer and collects peer slots until all arrived or ``detect_timeout``
    expired.  Completion requires ``ceil(threshold * size)`` contributors
    (the process-threshold semantics of the paper's Figure 10); the
    returned :class:`DegradedResult` records who was missing and supports
    a correction pass.  Ranks in ``known_failed`` are skipped outright —
    they are neither written to nor waited for.
    """
    policy = ConsistencyPolicy(threshold, ReduceMode.PROCESSES, on_failure=on_failure)
    return _cold_call(
        "allreduce", runtime, sendbuf, recvbuf, 0, op, policy, detect_timeout,
        known_failed, segment_id, queue,
    )  # fmt: skip


def send_late_contribution(
    runtime: GaspiRuntime,
    sendbuf: np.ndarray,
    segment_id: int,
    targets: Optional[Iterable[int]] = None,
    queue: int = 0,
) -> list:
    """Push this rank's contribution into an earlier degraded exchange.

    The late half of the correction protocol: a recovered rank (see
    :meth:`~repro.faults.injection.FaultyRuntime.recover`) re-sends its
    slot-indexed contribution to the survivors, whose
    :meth:`DegradedResult.correct` passes fold it in.  ``segment_id`` must
    be the segment of the degraded collective (for Communicator dispatch:
    :attr:`~repro.core.api.Communicator.last_segment_id`).

    Peers that have already released their workspace — every peer of a
    completed exchange, the non-root children of a reduce — are skipped
    silently, so the default ``targets`` (everyone) is always safe; after
    a degraded *reduce* only the root holds a workspace, so
    ``targets=[root]`` merely avoids the wasted attempts.

    Returns the sorted list of peer ranks actually reached (their
    workspace accepted the write).  A caller racing the survivors'
    workspace creation — the elastic rejoin path — retries the remainder;
    the survivors' dedup of already-counted slots makes duplicate sends
    idempotent.
    """
    sendbuf = np.ascontiguousarray(sendbuf)
    rank = runtime.rank
    peers = range(runtime.size) if targets is None else targets
    reached = [
        int(peer)
        for peer in peers
        if int(peer) != rank
        and _reaches(
            runtime.write_notify_from, sendbuf, int(peer), segment_id,
            rank * sendbuf.nbytes, rank, queue=queue,
        )  # fmt: skip
    ]
    runtime.wait(queue)
    return sorted(reached)


def tolerant_reduce(
    runtime: GaspiRuntime,
    sendbuf: np.ndarray,
    recvbuf: Optional[np.ndarray] = None,
    root: int = 0,
    op: str | ReductionOp = "sum",
    threshold: float = 1.0,
    on_failure: str = "abort",
    detect_timeout: float = DEFAULT_DETECT_TIMEOUT,
    known_failed: Iterable[int] = (),
    segment_id: int = FAULT_SEGMENT_ID,
    queue: int = 0,
) -> DegradedResult:
    """Fault-tolerant flat-gather reduce onto ``root``.

    Children write their full vector into slot ``rank`` of the root; the
    root folds contributions until all live children arrived or the
    timeout expired, then applies the process-threshold verdict.  Only the
    root learns who was missing (and owns the correction handle); children
    complete as soon as their send is flushed, so a dead root cannot hang
    them.
    """
    policy = ConsistencyPolicy(threshold, ReduceMode.PROCESSES, on_failure=on_failure)
    return _cold_call(
        "reduce", runtime, sendbuf, recvbuf, root, op, policy, detect_timeout,
        known_failed, segment_id, queue,
    )  # fmt: skip


def tolerant_bcast(
    runtime: GaspiRuntime,
    buffer: np.ndarray,
    root: int = 0,
    threshold: float = 1.0,
    mode: ReduceMode | str = ReduceMode.DATA,
    on_failure: str = "abort",
    detect_timeout: float = DEFAULT_DETECT_TIMEOUT,
    known_failed: Iterable[int] = (),
    segment_id: int = FAULT_SEGMENT_ID,
    queue: int = 0,
) -> DegradedResult:
    """Fault-tolerant flat broadcast with acknowledgement timeouts.

    The root pushes the payload (the leading ``threshold`` fraction in
    DATA mode, all of it in PROCESSES mode) to every live rank and
    collects per-rank acknowledgements until the timeout; receivers that
    see no payload within the timeout complete degraded with the root
    recorded missing (their buffer is left untouched until a correction
    pass delivers the late payload).
    """
    policy = ConsistencyPolicy(threshold, ReduceMode(mode), on_failure=on_failure)
    return _cold_call(
        "bcast", runtime, buffer, None, root, "sum", policy, detect_timeout,
        known_failed, segment_id, queue,
    )  # fmt: skip


# --------------------------------------------------------------------------- #
# schedule builders (simulator replay of the degraded patterns)
# --------------------------------------------------------------------------- #
def tolerant_allreduce_schedule(
    num_ranks: int,
    nbytes: int,
    threshold: float = 1.0,
    failed: Iterable[int] = (),
    name: Optional[str] = None,
) -> CommunicationSchedule:
    """Flat all-pairs exchange among the live ranks (one round)."""
    failed_set = {int(r) for r in failed}
    alive = [r for r in range(num_ranks) if r not in failed_set]
    sched = CommunicationSchedule(
        name=name or f"gaspi_allreduce_tolerant[{len(alive)}/{num_ranks}]",
        num_ranks=num_ranks,
        metadata={
            "threshold": threshold,
            "failed": sorted(failed_set),
            "participants": len(alive),
            "algorithm": "tolerant_flat_exchange",
        },
    )
    messages = [
        Message(
            src=s,
            dst=d,
            nbytes=nbytes,
            protocol=Protocol.ONESIDED,
            reduce_bytes=nbytes,
            tag="exchange",
        )
        for s in alive
        for d in alive
        if s != d
    ]
    if messages:
        sched.add_round(messages, label="exchange")
    sched.validate()
    return sched


def tolerant_reduce_schedule(
    num_ranks: int,
    nbytes: int,
    threshold: float = 1.0,
    root: int = 0,
    failed: Iterable[int] = (),
    name: Optional[str] = None,
) -> CommunicationSchedule:
    """Flat gather of the live children onto the root (one round)."""
    failed_set = {int(r) for r in failed}
    alive = [r for r in range(num_ranks) if r not in failed_set]
    sched = CommunicationSchedule(
        name=name or f"gaspi_reduce_tolerant[{len(alive)}/{num_ranks}]",
        num_ranks=num_ranks,
        metadata={
            "threshold": threshold,
            "failed": sorted(failed_set),
            "participants": len(alive),
            "algorithm": "tolerant_flat_gather",
        },
    )
    messages = [
        Message(
            src=r,
            dst=root,
            nbytes=nbytes,
            protocol=Protocol.ONESIDED,
            reduce_bytes=nbytes,
            tag="gather",
        )
        for r in alive
        if r != root
    ]
    if messages:
        sched.add_round(messages, label="gather")
    sched.validate()
    return sched


def tolerant_bcast_schedule(
    num_ranks: int,
    nbytes: int,
    threshold: float = 1.0,
    mode: ReduceMode | str = ReduceMode.DATA,
    root: int = 0,
    failed: Iterable[int] = (),
    name: Optional[str] = None,
) -> CommunicationSchedule:
    """Flat fan-out of the (possibly partial) payload plus an ack round."""
    mode = ReduceMode(mode)
    failed_set = {int(r) for r in failed}
    alive = [r for r in range(num_ranks) if r not in failed_set]
    send_bytes = threshold_bytes(nbytes, threshold) if mode is ReduceMode.DATA else nbytes
    sched = CommunicationSchedule(
        name=name or f"gaspi_bcast_tolerant[{len(alive)}/{num_ranks}]",
        num_ranks=num_ranks,
        metadata={
            "threshold": threshold,
            "mode": mode.value,
            "failed": sorted(failed_set),
            "participants": len(alive),
            "shipped_bytes": send_bytes,
            "algorithm": "tolerant_flat_fanout",
        },
    )
    data = [
        Message(src=root, dst=r, nbytes=send_bytes, protocol=Protocol.ONESIDED, tag="payload")
        for r in alive
        if r != root
    ]
    if data:
        sched.add_round(data, label="payload")
        acks = [
            Message(src=r, dst=root, nbytes=0, protocol=Protocol.ONESIDED, tag="ack")
            for r in alive
            if r != root
        ]
        sched.add_round(acks, label="ack")
    sched.validate()
    return sched


# --------------------------------------------------------------------------- #
# registry integration
# --------------------------------------------------------------------------- #
def _register_fault_tolerant_algorithms() -> None:
    if "gaspi_allreduce_tolerant" in REGISTRY:
        return
    for collective, builder, modes, description in (
        ("allreduce", tolerant_allreduce_schedule, ("processes",),
         "Flat-exchange allreduce with failure detection, degraded "
         "completion at the process threshold, and correction"),
        ("reduce", tolerant_reduce_schedule, ("processes",),
         "Flat-gather reduce with failure detection at the root and "
         "Küttler-style correction of late contributions"),
        ("bcast", tolerant_bcast_schedule, ("data", "processes"),
         "Flat broadcast with acknowledgement timeouts and late-payload "
         "correction on receivers"),
    ):  # fmt: skip
        REGISTRY.register(
            f"gaspi_{collective}_tolerant",
            collective=collective,
            family="gaspi",
            builder=builder,
            planner=TolerantPlan,
            capabilities=AlgorithmCapabilities(
                supports_threshold=True,
                modes=modes,
                supports_op=collective != "bcast",
                fault_tolerant=True,
                verified=True,
            ),
            description=description,
        )


_register_fault_tolerant_algorithms()
