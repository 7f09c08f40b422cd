"""Degraded-mode collectives: detect missing ranks, complete, correct.

The paper's eventually consistent collectives complete once a threshold of
the data or the processes has arrived; this module closes the loop for the
*failure* regimes: thresholded broadcast / reduce / allreduce variants
that

1. **detect** non-contributing ranks through notification timeouts instead
   of blocking forever,
2. **complete** at the consistency policy's process threshold, recording
   exactly who was missing (:attr:`DegradedResult.missing_ranks`), and
3. **correct**: a Küttler-style correction pass
   (:meth:`DegradedResult.correct`) folds contributions that arrive late
   (a recovered crash, a healed partition, an extreme straggler) into the
   already-published result, re-converging the survivors onto the exact
   full-participation value.

All three collectives use flat, rank-indexed exchanges — contribution of
rank ``r`` lands in slot ``r`` and posts notification ``r`` — because the
slot/notification identity is what lets a late contribution be attributed
and folded in after the collective formally completed.  They never take a
full-world barrier after the entry handshake: a dead rank must not be able
to hang a survivor.

The variants are registered in the algorithm registry as
``gaspi_{bcast,reduce,allreduce}_tolerant`` with the ``fault_tolerant``
capability flag, so ``Communicator(..., faults=plan)`` auto-routes to them.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import kernels
from ..core.bcast import threshold_elements
from ..core.policy import CollectiveRequest, CollectiveResult
from ..core.reduce import ReduceMode
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
from ..utils.validation import check_fraction, require

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

#: Accepted ``on_failure`` policy values (see ConsistencyPolicy).
ON_FAILURE_MODES = ("abort", "complete")


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

    Call :meth:`close` (or let a successful :meth:`correct` do it) once no
    late contribution is expected anymore; it releases the workspace
    segment.  Results without missing ranks need no closing.
    """

    def __init__(
        self,
        collective: str,
        rank: int,
        root: Optional[int],
        threshold: float,
        contributors: int,
        required: int,
        missing_ranks: Iterable[int],
        value: Optional[np.ndarray],
        *,
        runtime: Optional[GaspiRuntime] = None,
        segment_id: Optional[int] = None,
        operator: Optional[ReductionOp] = None,
        elements: int = 0,
        slot_bytes: int = 0,
        data_notification: Optional[int] = None,
        queue: int = 0,
    ) -> None:
        self.collective = collective
        self.rank = int(rank)
        self.root = root
        self.threshold = float(threshold)
        self.contributors = int(contributors)
        self.required = int(required)
        self.missing_ranks: Tuple[int, ...] = tuple(sorted(int(r) for r in missing_ranks))
        self.corrected_ranks: Tuple[int, ...] = ()
        self.value = value
        self._runtime = runtime
        self._segment_id = segment_id
        self._operator = operator
        self._elements = int(elements)
        self._slot_bytes = int(slot_bytes)
        self._data_notification = data_notification
        self._queue = int(queue)
        self._closed = runtime is None

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
        if self._closed or not self.missing_ranks:
            return self.value
        rt = self._runtime
        sid = self._segment_id
        deadline = time.monotonic() + float(timeout)
        missing: Set[int] = set(self.missing_ranks)
        corrected = set(self.corrected_ranks)

        if self.collective == "bcast" and self.rank != self.root:
            # Receiver that never got the payload: wait for the late root.
            remaining = deadline - time.monotonic()
            got = rt.notify_waitsome(
                sid, self._data_notification, 1, timeout=max(remaining, 0.0)
            )
            if got is not None and rt.notify_reset(sid, got) > 0:
                self.value[: self._elements] = rt.segment_read(
                    sid, dtype=self.value.dtype, offset=0, count=self._elements
                )
                try:
                    rt.notify(self.root, sid, self.rank, queue=self._queue)
                    rt.wait(self._queue)
                except GaspiError:
                    pass  # the root may have released its workspace already
                missing.discard(self.root)
                corrected.add(self.root)
                self.contributors += 1
        else:
            # Gather-style correction (allreduce everywhere, reduce at the
            # root, broadcast-root ack collection): same collect loop as
            # the main detection phase, over the still-missing ranks.
            remaining = deadline - time.monotonic()
            arrived = _gather_contributions(
                rt,
                sid,
                self.value,
                self._operator,
                self._elements,
                self._slot_bytes,
                set(missing),
                max(remaining, 0.0),
                already_counted=set(range(rt.size)) - set(missing),
            )
            missing -= arrived
            corrected |= arrived
            self.contributors += len(arrived)

        newly = corrected - set(self.corrected_ranks)
        if newly:
            logger.info(
                "rank %d: correction folded late contribution(s) from "
                "ranks %s into %s result%s",
                self.rank, sorted(newly), self.collective,
                "" if missing else " (now complete)",
            )
            tel = getattr(rt, "telemetry", None)
            if tel is not None and tel.enabled:
                tel.counter("faults.corrections").add(len(newly))
        self.missing_ranks = tuple(sorted(missing))
        self.corrected_ranks = tuple(sorted(corrected))
        if not missing:
            self.close()
        return self.value

    def close(self) -> None:
        """Release the workspace segment kept alive for correction."""
        if self._closed:
            return
        self._closed = True
        try:
            self._runtime.segment_delete(self._segment_id)
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
def _required_contributors(size: int, threshold: float) -> int:
    """Minimum contributor count for a process threshold over ``size`` ranks."""
    return max(1, math.ceil(threshold * size - 1e-9))


def _alive_ranks(size: int, rank: int, known_failed) -> list:
    known = {int(r) for r in known_failed}
    require(
        rank not in known,
        f"rank {rank} cannot run a collective it is itself suspected dead in",
    )
    return [r for r in range(size) if r not in known]


def _entry_handshake(
    runtime: GaspiRuntime, alive: Sequence[int], timeout: float
) -> None:
    """Bounded readiness handshake over the believed-live ranks.

    A plain group barrier would deadlock whenever the participants'
    ``known_failed`` views diverge (e.g. a rank crashed *mid*-send, so
    some survivors received its contribution and some did not): mismatched
    groups wait on mismatched barriers forever.  Instead the barrier is
    retried in jittered-backoff slices of the detection timeout
    (:class:`~repro.utils.backoff.Backoff`) and a final miss is tolerated
    — a straggler that arrives mid-window still synchronizes on a later
    slice, every rank that entered the collective has already created its
    workspace, and a write to a rank that never entered surfaces as a
    segment error the senders catch (:func:`_safe_write_notify`), turning
    disagreement into a detection latency cost rather than a hang.
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


def _safe_write_notify(runtime: GaspiRuntime, **kwargs) -> bool:
    """Post a write_notify, tolerating an unreachable target.

    Returns False when the target rank never created the workspace (it is
    dead, or suspects a different rank set) — RDMA into nothing; the
    sender simply moves on and the target shows up as missing.  Injected
    crashes (:class:`~repro.faults.injection.RankCrashedError`) still
    propagate: the *sender* dying is not an unreachable target.
    """
    try:
        runtime.write_notify(**kwargs)
        return True
    except GaspiSegmentError:
        return False


def _gather_contributions(
    runtime: GaspiRuntime,
    segment_id: int,
    accumulator: np.ndarray,
    operator: Optional[ReductionOp],
    elements: int,
    slot_bytes: int,
    expected: Set[int],
    detect_timeout: float,
    already_counted: Set[int],
) -> Set[int]:
    """Collect slot-indexed contributions until all arrived or the timeout.

    Returns the set of ranks whose contribution was folded into
    ``accumulator`` (``operator=None`` collects pure notifications, e.g.
    broadcast acks).  Only the ranks in ``expected`` are *waited* for, but
    any arriving contribution not in ``already_counted`` is folded — a
    rank wrongly suspected dead (it merely straggled past an earlier
    detection window) must not have its notification consumed and its
    data discarded.  Ends with a non-blocking drain so an arrival racing
    the deadline is not misclassified as missing.
    """
    size = runtime.size
    received: Set[int] = set()
    t_detect = CLOCK()

    def fold(nid: int) -> None:
        if operator is not None:
            # The slot must be copied out (unlike the fault-free folds): a
            # recovered rank may re-send its late contribution into the same
            # slot while we reduce, and a torn read here would corrupt the
            # accumulator.  The fold itself still runs the vectorized kernel.
            slot = runtime.segment_read(
                segment_id,
                dtype=accumulator.dtype,
                offset=nid * slot_bytes,
                count=elements,
            )
            kernels.reduce_into(operator, accumulator, slot)
        received.add(nid)

    deadline = time.monotonic() + float(detect_timeout)
    while expected - received:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        nid = runtime.notify_waitsome(segment_id, 0, size, timeout=remaining)
        if nid is None:
            break
        if runtime.notify_reset(segment_id, nid) == 0:
            continue
        if nid not in received and nid not in already_counted:
            fold(nid)
    for nid, value in runtime.notify_drain(segment_id, 0, size).items():
        if value > 0 and nid not in received and nid not in already_counted:
            fold(nid)
    absent = expected - received
    if absent:
        # Suspicion latency: how long the detection window actually ran
        # before these ranks were declared missing (≤ detect_timeout).
        elapsed = CLOCK() - t_detect
        logger.info(
            "rank %d: declaring ranks %s missing after %.3fs detection window",
            runtime.rank, sorted(absent), elapsed,
        )
        tel = getattr(runtime, "telemetry", None)
        if tel is not None and tel.enabled:
            tel.counter("faults.suspicions").add(len(absent))
            tel.histogram("faults.suspicion_latency_s").observe(elapsed)
    return received


def _resolve_on_failure(on_failure: str) -> str:
    require(
        on_failure in ON_FAILURE_MODES,
        f"on_failure must be one of {ON_FAILURE_MODES}, got {on_failure!r}",
    )
    return on_failure


def _finish(detail: DegradedResult, on_failure: str) -> DegradedResult:
    """Apply the threshold verdict and decide the workspace's fate.

    The segment is released immediately only when nothing is missing;
    otherwise it stays alive so :meth:`DegradedResult.correct` can absorb
    late contributions (and a late writer never hits a deleted segment).
    """
    if detail.missing_ranks:
        logger.info(
            "rank %d: %s completed degraded, missing_ranks=%s "
            "(%d/%d contributors, threshold %s)",
            detail.rank, detail.collective, list(detail.missing_ranks),
            detail.contributors, detail.required,
            "met" if detail.met_threshold else "NOT met",
        )
    if detail.complete:
        detail.close()
    if not detail.met_threshold and on_failure == "abort":
        raise DegradedCollectiveError(detail)
    return detail


# --------------------------------------------------------------------------- #
# allreduce
# --------------------------------------------------------------------------- #
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
    sendbuf = np.ascontiguousarray(sendbuf)
    require(sendbuf.ndim == 1 and sendbuf.size > 0, "sendbuf must be a non-empty vector")
    check_fraction(threshold, "threshold")
    on_failure = _resolve_on_failure(on_failure)
    operator = get_op(op)
    rank, size = runtime.rank, runtime.size
    alive = _alive_ranks(size, rank, known_failed)
    elements = sendbuf.size
    slot_bytes = sendbuf.nbytes

    runtime.segment_create(segment_id, max(size * slot_bytes, 8))
    _entry_handshake(runtime, alive, detect_timeout)

    if recvbuf is not None:
        out = np.asarray(recvbuf)
        require(out.size == elements, "recvbuf must match sendbuf's length")
        out[:] = sendbuf
    else:
        out = sendbuf.copy()

    # Send phase: an injected crash propagates as RankCrashedError from
    # here; the rank's segment stays behind for the survivors.
    staged = runtime.segment_view(
        segment_id, dtype=sendbuf.dtype, offset=rank * slot_bytes, count=elements
    )
    staged[:] = sendbuf
    for peer in alive:
        if peer == rank:
            continue
        _safe_write_notify(
            runtime,
            segment_id_local=segment_id,
            offset_local=rank * slot_bytes,
            target_rank=peer,
            segment_id_remote=segment_id,
            offset_remote=rank * slot_bytes,
            size=slot_bytes,
            notification_id=rank,
            queue=queue,
        )
    runtime.wait(queue)

    expected = set(alive) - {rank}
    received = _gather_contributions(
        runtime, segment_id, out, operator, elements, slot_bytes, expected,
        detect_timeout, already_counted={rank},
    )
    contributed = received | {rank}
    detail = DegradedResult(
        collective="allreduce",
        rank=rank,
        root=None,
        threshold=threshold,
        contributors=len(contributed),
        required=_required_contributors(size, threshold),
        missing_ranks=set(range(size)) - contributed,
        value=out,
        runtime=runtime,
        segment_id=segment_id,
        operator=operator,
        elements=elements,
        slot_bytes=slot_bytes,
        queue=queue,
    )
    return _finish(detail, on_failure)


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
    slot_bytes = sendbuf.nbytes
    peers = range(runtime.size) if targets is None else targets
    staged = runtime.segment_view(
        segment_id, dtype=sendbuf.dtype, offset=rank * slot_bytes, count=sendbuf.size
    )
    staged[:] = sendbuf
    reached = []
    for peer in peers:
        if int(peer) == rank:
            continue
        if _safe_write_notify(
            runtime,
            segment_id_local=segment_id,
            offset_local=rank * slot_bytes,
            target_rank=int(peer),
            segment_id_remote=segment_id,
            offset_remote=rank * slot_bytes,
            size=slot_bytes,
            notification_id=rank,
            queue=queue,
        ):
            reached.append(int(peer))
    runtime.wait(queue)
    return sorted(reached)


# --------------------------------------------------------------------------- #
# reduce
# --------------------------------------------------------------------------- #
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
    sendbuf = np.ascontiguousarray(sendbuf)
    require(sendbuf.ndim == 1 and sendbuf.size > 0, "sendbuf must be a non-empty vector")
    require(0 <= root < runtime.size, f"root {root} outside world of {runtime.size}")
    check_fraction(threshold, "threshold")
    on_failure = _resolve_on_failure(on_failure)
    require(
        int(root) not in {int(r) for r in known_failed},
        f"root {root} is in known_failed; pick a live root",
    )
    operator = get_op(op)
    rank, size = runtime.rank, runtime.size
    alive = _alive_ranks(size, rank, known_failed)
    elements = sendbuf.size
    slot_bytes = sendbuf.nbytes

    runtime.segment_create(segment_id, max(size * slot_bytes, 8))
    _entry_handshake(runtime, alive, detect_timeout)

    if rank != root:
        staged = runtime.segment_view(
            segment_id, dtype=sendbuf.dtype, offset=rank * slot_bytes, count=elements
        )
        staged[:] = sendbuf
        _safe_write_notify(
            runtime,
            segment_id_local=segment_id,
            offset_local=rank * slot_bytes,
            target_rank=root,
            segment_id_remote=segment_id,
            offset_remote=rank * slot_bytes,
            size=slot_bytes,
            notification_id=rank,
            queue=queue,
        )
        runtime.wait(queue)
        # Nothing is ever written into a child's workspace: release it now.
        runtime.segment_delete(segment_id)
        return DegradedResult(
            collective="reduce",
            rank=rank,
            root=root,
            threshold=threshold,
            contributors=1,
            required=1,
            missing_ranks=(),
            value=None,
        )

    if recvbuf is not None:
        out = np.asarray(recvbuf)
        require(out.size == elements, "recvbuf must match sendbuf's length")
        out[:] = sendbuf
    else:
        out = sendbuf.copy()
    expected = set(alive) - {root}
    received = _gather_contributions(
        runtime, segment_id, out, operator, elements, slot_bytes, expected,
        detect_timeout, already_counted={root},
    )
    contributed = received | {root}
    detail = DegradedResult(
        collective="reduce",
        rank=rank,
        root=root,
        threshold=threshold,
        contributors=len(contributed),
        required=_required_contributors(size, threshold),
        missing_ranks=set(range(size)) - contributed,
        value=out,
        runtime=runtime,
        segment_id=segment_id,
        operator=operator,
        elements=elements,
        slot_bytes=slot_bytes,
        queue=queue,
    )
    return _finish(detail, on_failure)


# --------------------------------------------------------------------------- #
# bcast
# --------------------------------------------------------------------------- #
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
    buffer = np.ascontiguousarray(buffer)
    require(buffer.ndim == 1 and buffer.size > 0, "buffer must be a non-empty vector")
    require(0 <= root < runtime.size, f"root {root} outside world of {runtime.size}")
    check_fraction(threshold, "threshold")
    mode = ReduceMode(mode)
    on_failure = _resolve_on_failure(on_failure)
    require(
        int(root) not in {int(r) for r in known_failed},
        f"root {root} is in known_failed; pick a live root",
    )
    rank, size = runtime.rank, runtime.size
    alive = _alive_ranks(size, rank, known_failed)
    if mode is ReduceMode.DATA:
        elements = threshold_elements(buffer.size, threshold)
        required = size
    else:
        elements = buffer.size
        required = _required_contributors(size, threshold)
    payload_bytes = elements * buffer.itemsize
    data_notification = size  # beyond the rank-indexed ack ids

    runtime.segment_create(segment_id, max(payload_bytes, 8))
    _entry_handshake(runtime, alive, detect_timeout)

    if rank == root:
        staged = runtime.segment_view(segment_id, dtype=buffer.dtype, count=elements)
        staged[:] = buffer[:elements]
        for peer in alive:
            if peer == root:
                continue
            _safe_write_notify(
                runtime,
                segment_id_local=segment_id,
                offset_local=0,
                target_rank=peer,
                segment_id_remote=segment_id,
                offset_remote=0,
                size=payload_bytes,
                notification_id=data_notification,
                queue=queue,
            )
        runtime.wait(queue)
        expected = set(alive) - {root}
        acked = _gather_contributions(
            runtime, segment_id, buffer, None, elements, payload_bytes, expected,
            detect_timeout, already_counted={root},
        )
        contributed = acked | {root}
        detail = DegradedResult(
            collective="bcast",
            rank=rank,
            root=root,
            threshold=threshold,
            contributors=len(contributed),
            required=required,
            missing_ranks=set(range(size)) - contributed,
            value=buffer,
            runtime=runtime,
            segment_id=segment_id,
            operator=None,
            elements=elements,
            slot_bytes=payload_bytes,
            queue=queue,
        )
        return _finish(detail, on_failure)

    got = runtime.notify_waitsome(segment_id, data_notification, 1, timeout=detect_timeout)
    if got is not None and runtime.notify_reset(segment_id, got) > 0:
        buffer[:elements] = runtime.segment_read(
            segment_id, dtype=buffer.dtype, offset=0, count=elements
        )
        runtime.notify(root, segment_id, rank, queue=queue)
        runtime.wait(queue)
        detail = DegradedResult(
            collective="bcast",
            rank=rank,
            root=root,
            threshold=threshold,
            contributors=2,  # the root's payload and this rank
            required=2,
            missing_ranks=(),
            value=buffer,
            runtime=runtime,
            segment_id=segment_id,
            operator=None,
            elements=elements,
            slot_bytes=payload_bytes,
            data_notification=data_notification,
            queue=queue,
        )
        return _finish(detail, on_failure)

    detail = DegradedResult(
        collective="bcast",
        rank=rank,
        root=root,
        threshold=threshold,
        contributors=1,
        required=2,
        missing_ranks=(root,),
        value=buffer,
        runtime=runtime,
        segment_id=segment_id,
        operator=None,
        elements=elements,
        slot_bytes=payload_bytes,
        data_notification=data_notification,
        queue=queue,
    )
    return _finish(detail, on_failure)


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
    send_bytes = (
        max(1, int(nbytes * threshold)) if (mode is ReduceMode.DATA and nbytes) else nbytes
    )
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
def _detect_timeout_for(request: CollectiveRequest) -> float:
    override = request.metadata.get("detect_timeout")
    if override is not None:
        return float(override)
    if request.timeout != GASPI_BLOCK:
        return float(request.timeout)
    return DEFAULT_DETECT_TIMEOUT


def _run_allreduce_tolerant(runtime, request: CollectiveRequest) -> CollectiveResult:
    detail = tolerant_allreduce(
        runtime,
        request.sendbuf,
        recvbuf=request.recvbuf,
        op=request.op,
        threshold=request.policy.threshold,
        on_failure=request.policy.on_failure,
        detect_timeout=_detect_timeout_for(request),
        known_failed=request.metadata.get("known_failed", ()),
        segment_id=request.own_segment_id(),
        queue=request.queue,
    )
    return CollectiveResult(
        value=detail.value, detail=detail, missing_ranks=detail.missing_ranks
    )


def _run_reduce_tolerant(runtime, request: CollectiveRequest) -> CollectiveResult:
    detail = tolerant_reduce(
        runtime,
        request.sendbuf,
        recvbuf=request.recvbuf,
        root=request.root,
        op=request.op,
        threshold=request.policy.threshold,
        on_failure=request.policy.on_failure,
        detect_timeout=_detect_timeout_for(request),
        known_failed=request.metadata.get("known_failed", ()),
        segment_id=request.own_segment_id(),
        queue=request.queue,
    )
    return CollectiveResult(
        value=detail.value, detail=detail, missing_ranks=detail.missing_ranks
    )


def _run_bcast_tolerant(runtime, request: CollectiveRequest) -> CollectiveResult:
    detail = tolerant_bcast(
        runtime,
        request.sendbuf,
        root=request.root,
        threshold=request.policy.threshold,
        mode=request.policy.mode,
        on_failure=request.policy.on_failure,
        detect_timeout=_detect_timeout_for(request),
        known_failed=request.metadata.get("known_failed", ()),
        segment_id=request.own_segment_id(),
        queue=request.queue,
    )
    return CollectiveResult(
        value=request.sendbuf, detail=detail, missing_ranks=detail.missing_ranks
    )


def _register_fault_tolerant_algorithms() -> None:
    if "gaspi_allreduce_tolerant" in REGISTRY:
        return
    REGISTRY.register(
        "gaspi_allreduce_tolerant",
        collective="allreduce",
        family="gaspi",
        builder=tolerant_allreduce_schedule,
        runner=_run_allreduce_tolerant,
        capabilities=AlgorithmCapabilities(
            supports_threshold=True,
            modes=("processes",),
            supports_op=True,
            fault_tolerant=True,
        ),
        description=(
            "Flat-exchange allreduce with failure detection, degraded "
            "completion at the process threshold, and correction"
        ),
    )
    REGISTRY.register(
        "gaspi_reduce_tolerant",
        collective="reduce",
        family="gaspi",
        builder=tolerant_reduce_schedule,
        runner=_run_reduce_tolerant,
        capabilities=AlgorithmCapabilities(
            supports_threshold=True,
            modes=("processes",),
            supports_op=True,
            fault_tolerant=True,
        ),
        description=(
            "Flat-gather reduce with failure detection at the root and "
            "Küttler-style correction of late contributions"
        ),
    )
    REGISTRY.register(
        "gaspi_bcast_tolerant",
        collective="bcast",
        family="gaspi",
        builder=tolerant_bcast_schedule,
        runner=_run_bcast_tolerant,
        capabilities=AlgorithmCapabilities(
            supports_threshold=True,
            modes=("data", "processes"),
            fault_tolerant=True,
        ),
        description=(
            "Flat broadcast with acknowledgement timeouts and late-payload "
            "correction on receivers"
        ),
    )


_register_fault_tolerant_algorithms()
