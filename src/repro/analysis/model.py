"""Cooperative execution of compiled collective plans on one thread.

This module runs the *real* plan classes — the same ``__init__`` that
freezes topology, offsets and notification layouts in production — over
the *shipped* runtime: every rank of one ``immediate``-delivery
:class:`~repro.gaspi.threaded.ThreadedWorld`, driven from a single thread
and wrapped in the :class:`~repro.analysis.tracing.TracingRuntime` that
records live runs.  Every protocol action becomes an
:class:`~repro.analysis.events.Event`; the result is one event sequence per
rank, over real payload bytes, for the checkers in
:mod:`repro.analysis.deadlock`, :mod:`repro.analysis.races` and
:mod:`repro.analysis.budget`.  A verified cell is verified on the shipped
notification board, segment bounds checks and data-then-notification
delivery order.

Every plan is a generator: ``begin(request)`` yields a
:class:`~repro.core.plan.WaitSpec` whenever a wait would block, so the
model simply drives the shipped generator cooperatively.  There is no
second copy of any protocol here — the code the checkers see is the code
that runs.  The only verifier-specific code is
:class:`ModelTracingRuntime`, the tracing layer one cooperative thread
needs.

All rank programs run under a round-robin cooperative scheduler.  Because
the model executes real NumPy payloads, callers can additionally check
the *numerical* result of the modelled collective.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

import numpy as np

from ..core.plan import CollectivePlan, PipelineGen, PlanKey, WaitSpec, policy_fingerprint
from ..core.policy import CollectiveRequest, ConsistencyPolicy, documented_result
from ..core.registry import REGISTRY
from ..core.workspace import RETIRE_BATCH, WorkspacePool
from ..gaspi.constants import DEFAULT_NOTIFICATION_VALUE, GASPI_BLOCK
from ..gaspi.group import Group
from ..gaspi.runtime import GaspiRuntime
from ..gaspi.threaded import ThreadedWorld, WorldConfig
from ..utils.validation import require
from .events import (
    BARRIER,
    CONSUME,
    LOCAL_READ,
    LOCAL_WRITE,
    Event,
    ProtocolTrace,
)
from .tracing import TraceSink, TracingRuntime

#: A rank program: yields whenever it cannot progress — the
#: :class:`~repro.core.plan.WaitSpec` it is blocked on, or ``None`` when
#: it merely gives up a turn — and is resumed with ``True`` when the window
#: it waits in expires.
Program = Generator[Optional[WaitSpec], Optional[bool], None]

#: Records one local access: ``(event kind, the array accessed)``.
_Recorder = Callable[[str, np.ndarray], None]


# --------------------------------------------------------------------------- #
# model substrate: the shipped threaded runtime, one thread, traced
# --------------------------------------------------------------------------- #
class _TrackedView(np.ndarray):
    """Segment view that records stores as ``write`` events.

    Captures the two store idioms of the collectives: slice/scalar
    assignment (staging copies) and ufunc calls with a segment-resident
    ``out=`` (the fused folds of :mod:`repro.core.kernels`, which call
    ``func(acc, contrib, out=acc)``) — and a fold's segment-resident
    *operands* as ``read`` events.
    """

    _record: Optional[_Recorder]

    def __array_finalize__(self, obj: Optional[np.ndarray]) -> None:
        self._record = getattr(obj, "_record", None)

    def __setitem__(self, key: Any, value: Any) -> None:
        np.ndarray.__setitem__(self, key, value)
        record = getattr(self, "_record", None)
        if record is None:
            return
        if isinstance(key, (int, np.integer)):
            target = np.ndarray.__getitem__(self, slice(int(key), int(key) + 1))
        else:
            target = np.ndarray.__getitem__(self, key)
        if isinstance(target, np.ndarray) and target.nbytes:
            record(LOCAL_WRITE, target)

    def __array_ufunc__(
        self, ufunc: np.ufunc, method: str, *inputs: Any, **kwargs: Any
    ) -> Any:
        out = kwargs.get("out", ())
        if out:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, _TrackedView) else o for o in out
            )
        plain = tuple(
            x.view(np.ndarray) if isinstance(x, _TrackedView) else x for x in inputs
        )
        for operand in inputs:
            if isinstance(operand, _TrackedView) and operand.nbytes:
                record = getattr(operand, "_record", None)
                if record is not None:
                    record(LOCAL_READ, operand)
        result = getattr(ufunc, method)(*plain, **kwargs)
        for original in out:
            if isinstance(original, _TrackedView):
                record = getattr(original, "_record", None)
                if record is not None and original.nbytes:
                    record(LOCAL_WRITE, original)
        return result


def _address(array: np.ndarray) -> int:
    return int(array.__array_interface__["data"][0])


class ModelTracingRuntime(TracingRuntime):
    """The tracing layer of one rank of the model.

    Everything that moves bytes or notifications is the wrapped
    :class:`~repro.gaspi.threaded.ThreadedRuntime`'s; this layer changes
    only what one cooperative thread running every rank needs:

    * segment views are tracked, so local stores, fold operands and the
      sources of ``write_notify_from`` posts are recorded as ``write`` /
      ``read`` events;
    * :attr:`supports_bind` is ``bind``.  Off, the pipelined broadcast's
      receivers and the pipelined ring's allgather take their staging
      path, whose copies the views observe.  On, :meth:`segment_bind`
      records the rebind as a store over the whole segment — a remote
      write it is not ordered against is a data race — and a bound
      :class:`_TrackedView` (the model passes them as result buffers)
      records its accesses against that segment from then on;
    * ``barrier`` records and returns, counted in :attr:`barriers`: the
      scheduler holds a rank where a real barrier would.  A barrier over a
      named group — the tolerant plans' entry handshake — records nothing:
      it is bounded and its caller goes on when it fails, so no step of a
      protocol may lean on it;
    * a ``notify_waitsome`` with a non-zero timeout raises instead of
      parking the thread every rank runs on — plans must poll and yield.
    """

    def __init__(self, inner: GaspiRuntime, sink: TraceSink, bind: bool = False) -> None:
        super().__init__(inner, sink)
        self._bind = bind
        #: Barriers entered so far.
        self.barriers = 0

    @property
    def supports_bind(self) -> bool:
        return self._bind

    def segment_bind(self, segment_id: int, array: np.ndarray) -> None:
        require(self._bind, "segment_bind on a model world without bind")
        self.inner.segment_bind(segment_id, array)
        record = functools.partial(self._record_access, segment_id, _address(array))
        record(LOCAL_WRITE, array)
        if isinstance(array, _TrackedView):
            array._record = record

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
        record = getattr(source, "_record", None)
        if record is not None and source.nbytes:
            record(LOCAL_READ, source)
        super().write_notify_from(
            source, target_rank, segment_id_remote, offset_remote,
            notification_id, notification_value, queue,
        )  # fmt: skip

    def segment_view(
        self,
        segment_id: int,
        dtype: Any = np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        view = self.inner.segment_view(segment_id, dtype, offset, count)
        tracked = view.view(_TrackedView)
        tracked._record = functools.partial(
            self._record_access, segment_id, _address(view) - offset
        )
        return tracked

    def _record_access(
        self, segment_id: int, base: int, kind: str, target: np.ndarray
    ) -> None:
        self.sink.record(
            Event(
                kind=kind,
                rank=self.rank,
                segment=segment_id,
                dst=self.rank,
                offset=_address(target) - base,
                length=int(target.nbytes),
            )
        )

    def notify_waitsome(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
        timeout: float = GASPI_BLOCK,
    ) -> Optional[int]:
        if timeout != 0.0:
            raise RuntimeError(
                f"rank {self.rank}: notify_waitsome(from id {notification_begin}, "
                f"timeout={timeout}) on segment {segment_id_local} inside the model "
                "— plans must poll with timeout=0 and yield"
            )
        return self.inner.notify_waitsome(
            segment_id_local, notification_begin, notification_count, 0.0
        )

    def barrier(
        self, group: Optional[Group] = None, timeout: float = GASPI_BLOCK
    ) -> None:
        self.barriers += 1
        if group is None:
            self.sink.record(Event(kind=BARRIER, rank=self.rank))


class ModelWorld:
    """Every rank of one threaded world, traced into one sink (with
    ``segment_bind`` where ``bind``)."""

    def __init__(self, num_ranks: int, bind: bool = False) -> None:
        self.num_ranks = num_ranks
        self.sink = TraceSink(num_ranks)
        threaded = ThreadedWorld(num_ranks, WorldConfig(delivery="immediate"))
        self.runtimes = [
            ModelTracingRuntime(rt, self.sink, bind) for rt in threaded.runtimes()
        ]
        #: Scheduler turns sat out (see :func:`_idle`).
        self.idles = 0

    def progress(self) -> int:
        """Monotone progress counter of the cooperative scheduler."""
        return self.idles + sum(len(sequence) for sequence in self.sink.events)


# --------------------------------------------------------------------------- #
# cooperative scheduler and entry point
# --------------------------------------------------------------------------- #
def _drive(rt: GaspiRuntime, gen: PipelineGen) -> Generator[Optional[WaitSpec], Any, Any]:
    """Cooperatively drive one plan generator — a call's ``begin()``, a
    correction pass — and return what it returns.

    A window (:attr:`~repro.core.plan.WaitSpec.deadline`) ends when the
    scheduler resumes the program with ``True``: once no rank can progress.
    """
    expired: Optional[bool] = None
    while True:
        try:
            spec = gen.send(expired)
        except StopIteration as stop:
            return stop.value
        expired = False
        while rt.notify_waitsome(spec.segment_id, spec.first, spec.count, timeout=0.0) is None:
            if (yield spec) and spec.deadline is not None:
                expired = True
                break


@dataclass
class ModelRun:
    """A completed model execution: the trace plus the data it computed."""

    trace: ProtocolTrace
    world: ModelWorld
    plans: List[CollectivePlan]
    sendbufs: List[np.ndarray]
    recvbufs: List[Optional[np.ndarray]]
    algorithm: str = ""
    stalled_ranks: List[int] = field(default_factory=list)
    #: Results that differ from what
    #: :func:`~repro.core.policy.documented_result` owes (or that make the
    #: cell vacuous), and barrier calls left early.
    wrong_values: List[str] = field(default_factory=list)
    #: How many delivered results the run held against the oracle.
    value_checks: int = 0


def _run_cooperative(world: ModelWorld, programs: List[Program]) -> List[int]:
    """Round-robin the rank programs to completion; return stalled ranks.

    A step progresses when it records an event or idles.  When none does,
    the open window (a fault-tolerant plan's detection window) with the
    earliest deadline expires; only a state without one is a stall.  A
    rank that stalls inside a wait gets that wait recorded as its next
    consume (of the first id of a range wait), so the replay names the
    starved slot — ``unmatched-notification`` or ``deadlock`` — instead of
    seeing a trace that merely ends early.
    """
    live: Dict[int, Program] = dict(enumerate(programs))
    blocked: Dict[int, Optional[WaitSpec]] = {}
    while live:
        progressed = False
        for rank in sorted(live):
            before = world.progress()
            try:
                blocked[rank] = next(live[rank])
            except StopIteration:
                del live[rank]
                progressed = True
                continue
            if world.progress() != before:
                progressed = True
        if not progressed:
            # Nothing can arrive any more: the open window that would expire
            # first in real time expires, and the others run on from there.
            windows = sorted(
                (spec.deadline, rank)
                for rank, spec in blocked.items()
                if rank in live and spec is not None and spec.deadline is not None
            )
            if windows:
                rank = windows[0][1]
                try:
                    blocked[rank] = live[rank].send(True)
                except StopIteration:
                    del live[rank]
                continue
            for rank in sorted(live):
                spec = blocked[rank]
                if spec is not None:
                    world.sink.record(
                        Event(
                            kind=CONSUME,
                            rank=rank,
                            segment=spec.segment_id,
                            dst=rank,
                            notif_id=spec.first,
                        )
                    )
            return sorted(live)
    return []


def _idle(world: ModelWorld, turns: int = 8) -> Program:
    """Sit out ``turns`` scheduler rounds: a rank arriving late at a call,
    so the others run as far ahead as the protocol lets them."""
    for _ in range(turns):
        world.idles += 1  # idling is progress, not a stall
        yield


def _trace(
    world: ModelWorld, name: str, stalled: List[int], overwrite_tolerant: bool = False
) -> ProtocolTrace:
    return ProtocolTrace(
        name=name,
        num_ranks=world.num_ranks,
        events=world.sink.events,
        segments=world.sink.segments,
        overwrite_tolerant=overwrite_tolerant,
        stalled_ranks=stalled,
    )


def _payloads(
    collective: str, num_ranks: int, elements: int, root: int
) -> Tuple[List[np.ndarray], List[Optional[np.ndarray]]]:
    """Per-rank (sendbufs, recvbufs) of one modelled collective: a
    broadcast's receivers hold zeros, every other payload is
    :func:`_payload` of the first call."""
    if collective == "barrier":
        return [None] * num_ranks, [None] * num_ranks
    sendbufs = [
        np.zeros(elements) if collective == "bcast" and r != root
        else _payload(r, 0, elements, num_ranks)
        for r in range(num_ranks)
    ]  # fmt: skip
    if collective == "bcast":
        return sendbufs, [None] * num_ranks
    gathered = elements * num_ranks if collective == "allgather" else elements
    return sendbufs, [np.zeros(gathered) for _ in range(num_ranks)]


def _payload(rank: int, call: int, elements: int, num_ranks: int) -> np.ndarray:
    """Rank ``rank``'s integer-valued payload of call ``call``: distinct per
    (rank, call), so a block, a fold or a stale slot from the wrong one
    shows in the value."""
    return np.arange(elements, dtype=np.float64) + 1.0 + rank + call * num_ranks


def _ssp_payload(rank: int, clock: int, elements: int, fields: Tuple[int, int]) -> np.ndarray:
    """A slack cell's payload: rank ``rank``'s contribution of clock
    ``clock`` holds ``clock`` in its own bit field, so a sum decodes back
    to the clock of every contribution it holds (:func:`_decode`).
    ``fields`` is (bits per field, groups): element ``i`` holds the fields
    of the ranks ``r`` with ``r % groups == i % groups``, as many as a
    float64 holds exactly."""
    bits, groups = fields
    out = np.zeros(elements)
    out[rank % groups :: groups] = float(clock << bits * (rank // groups))
    return out


def _decode(value: np.ndarray, num_ranks: int, fields: Tuple[int, int]) -> Dict[int, int]:
    """Rank -> clock of its contribution in a sum of slack-cell payloads."""
    bits, groups = fields
    return {
        r: int(value[r % groups]) >> bits * (r // groups) & (1 << bits) - 1
        for r in range(num_ranks)
    }


def build_model(
    algorithm: str,
    num_ranks: int,
    nbytes: int = 256,
    *,
    root: int = 0,
    op: str = "sum",
    chunk_bytes: Optional[int] = None,
    threshold: float = 1.0,
    mode: str = "data",
    slack: int = 0,
    calls: int = 2,
    laggard: Optional[int] = None,
    segment_id: int = 23,
    mutate_plan: Optional[Callable[[CollectivePlan], None]] = None,
    bind: bool = False,
    fresh_buffers: bool = False,
) -> ModelRun:
    """Execute ``calls`` back-to-back planned collectives cooperatively.

    Builds the real compiled plan of ``algorithm`` on every rank of a
    ``num_ranks``-rank :class:`ModelWorld` (float64 payloads of ``nbytes``
    bytes, under the ``threshold`` / ``mode`` / ``slack`` consistency
    policy), runs
    ``calls`` consecutive calls per rank under the cooperative scheduler —
    two calls exercise every cross-call consume-ack handshake, a third
    every credit that bounds a rank to one call ahead — and returns the
    recorded :class:`~repro.analysis.events.ProtocolTrace` together with
    the payload buffers for numerical validation.  Rank ``laggard`` idles
    before every call (see :func:`_idle`).  ``mutate_plan`` is applied to
    every rank's freshly compiled plan before the calls run — the hook of
    the plan-level seeded defects in :mod:`repro.analysis.mutations`.
    ``bind`` gives the world ``segment_bind``, so the pipelined broadcast
    and ring take their bound branch; ``fresh_buffers`` passes a new
    result buffer to every call, so that branch rebinds on every call.
    Each call's payloads are integer-valued and distinct per (rank, call)
    — under slack, bit fields that decode to the clock of every
    contribution a sum holds — and every workspace starts out as 0xFF
    bytes, a NaN in every float64.  Every result is checked as its call
    finishes against :func:`~repro.core.policy.documented_result`, and
    barrier calls too: nobody leaves before everybody entered.  What
    fails lands in the run's ``wrong_values``, as does a relaxed cell in
    which no result was owed less than the strict one (a vacuous cell).
    A trace under slack is ``overwrite_tolerant``: an SSP partner
    overwrites its mailbox's notification by design.
    """
    info = REGISTRY.get(algorithm)
    if not info.plannable:
        raise ValueError(f"algorithm {algorithm!r} has no compiled plan to verify")
    dtype = np.dtype(np.float64)
    elements = 0 if info.collective == "barrier" else max(1, nbytes // dtype.itemsize)
    nbytes = elements * dtype.itemsize
    policy = ConsistencyPolicy(
        threshold=threshold, mode=mode, slack=slack, chunk_bytes=chunk_bytes
    )
    key = PlanKey(
        collective=info.collective,
        algorithm=algorithm,
        size=num_ranks,
        root=root,
        nbytes=nbytes,
        dtype=dtype.str,
        op=op,
        policy=policy_fingerprint(policy),
    )

    world = ModelWorld(num_ranks, bind)
    # Compiled as under a communicator: from a pool, which may lease a
    # second segment (a bound landing zone) after ``segment_id``.
    plans = [
        info.plan(rt, key, segment_id, policy, WorkspacePool(rt, segment_id, 2))
        for rt in world.runtimes
    ]
    if mutate_plan is not None:
        for plan in plans:
            mutate_plan(plan)

    # A fresh segment's bytes are unspecified: none a call did not write
    # may reach a result.
    for (rank, segment), meta in world.sink.segments.items():
        world.runtimes[rank].inner.segment_view(segment, np.uint8, 0, meta.size)[:] = 0xFF

    collective = info.collective
    sendbufs, recvbufs = _payloads(collective, num_ranks, elements, root)
    bits = max(1, calls.bit_length())
    fields = (bits, -(-num_ranks // (52 // bits)))
    if slack:
        require(op == "sum" and elements >= fields[1], "a slack cell decodes sums")
    entered = [0] * num_ranks
    wrong: List[str] = []
    checks = [0, 0]  # results held against the oracle; those owed less than strict

    def fresh(buffer: np.ndarray) -> np.ndarray:
        """A zeroed result buffer; under bind, one that records its stores."""
        return np.zeros_like(buffer).view(_TrackedView) if bind else np.zeros_like(buffer)

    if bind:
        recvbufs = [None if buffer is None else fresh(buffer) for buffer in recvbufs]

    def contribution(rank: int, call: int) -> np.ndarray:
        if slack:
            return _ssp_payload(rank, call + 1, elements, fields)
        return _payload(rank, call, elements, num_ranks)

    def check(rank: int, call: int, got: np.ndarray, before: Optional[np.ndarray]) -> None:
        """Hold one delivered result against :func:`documented_result`."""
        owed_before = [None] * num_ranks
        owed_before[rank] = before
        held: Any = None
        try:
            if slack:
                if not np.isfinite(got).all():
                    raise ValueError("is not a sum of contributions")
                held = _decode(got, num_ranks, fields)
                inputs: List[Any] = [
                    [contribution(r, c) for c in range(entered[r])] for r in range(num_ranks)
                ]
            else:
                inputs = [contribution(r, call) for r in range(num_ranks)]
            owed = documented_result(
                collective, policy, inputs, root=root, op=op, before=owed_before,
                contributors=held, clock=call + 1,
            )[rank]  # fmt: skip
        except ValueError as error:
            wrong.append(f"rank {rank}: {algorithm} call {call} delivered a value that {error}")
            return
        if owed is None:
            return
        checks[0] += 1
        if not np.array_equal(np.asarray(got), owed):
            wrong.append(f"rank {rank}: {algorithm} call {call} delivered a wrong value")
        elif slack:
            checks[1] += any(clock != call + 1 for clock in held.values())
        elif not policy.is_strict:
            exact = documented_result(
                collective, ConsistencyPolicy(), inputs, root=root, op=op, before=owed_before
            )[rank]
            checks[1] += not np.array_equal(owed, exact)

    def rank_program(rank: int) -> Program:
        for call in range(calls):
            if rank == laggard:
                yield from _idle(world)
            entered[rank] += 1
            if fresh_buffers and recvbufs[rank] is not None:
                recvbufs[rank] = fresh(recvbufs[rank])
            elif fresh_buffers and collective == "bcast" and rank != root:
                sendbufs[rank] = fresh(sendbufs[rank])
            if sendbufs[rank] is not None and (collective != "bcast" or rank == root):
                sendbufs[rank][:] = contribution(rank, call)
            result = sendbufs[rank] if collective == "bcast" else recvbufs[rank]
            before = None if result is None else np.array(result)
            request = CollectiveRequest(
                collective=collective,
                sendbuf=sendbufs[rank],
                recvbuf=recvbufs[rank],
                root=root,
                op=op,
                policy=policy,
                segment_id=segment_id,
            )
            yield from _drive(plans[rank].runtime, plans[rank].begin(request))
            if collective == "barrier":
                checks[0] += 1
                late = [r for r, count in enumerate(entered) if count <= call]
                if late:
                    wrong.append(f"rank {rank} left barrier call {call} before {late} entered it")
            else:
                got = sendbufs[rank] if collective == "bcast" else recvbufs[rank]
                check(rank, call, np.asarray(got), before)

    stalled = _run_cooperative(world, [rank_program(r) for r in range(num_ranks)])
    if not stalled and not policy.is_strict and not checks[1]:
        wrong.append(f"{algorithm}: no result was owed less than strict (a vacuous cell)")

    chunk_label = "-" if chunk_bytes is None else str(chunk_bytes)
    relaxed = "" if threshold >= 1.0 else f", {int(threshold * 100)}% {policy.mode.value}"
    relaxed += f", slack={slack}" if slack else ""
    lagging = "" if laggard is None else f", laggard={laggard}"
    lagging += ", bound" if bind else ""
    lagging += ", fresh buffers" if fresh_buffers else ""
    name = (
        f"{algorithm}[ranks={num_ranks}, root={root}, nbytes={nbytes}, "
        f"chunk_bytes={chunk_label}, calls={calls}{relaxed}{lagging}]"
    )
    return ModelRun(
        trace=_trace(world, name, stalled, overwrite_tolerant=slack > 0),
        world=world,
        plans=plans,
        sendbufs=sendbufs,
        recvbufs=[None if buffer is None else np.asarray(buffer) for buffer in recvbufs],
        algorithm=algorithm,
        stalled_ranks=stalled,
        wrong_values=wrong,
        value_checks=checks[0],
    )


#: How a tolerant cell's faulty rank misbehaves (:func:`build_tolerant_model`).
TOLERANT_FAULTS = ("absent", "crash", "late")


def build_tolerant_model(
    algorithm: str,
    num_ranks: int,
    nbytes: int = 256,
    *,
    fault: str = "absent",
    root: int = 0,
    mutate_plan: Optional[Callable[[CollectivePlan], None]] = None,
) -> ModelRun:
    """One call of a fault-tolerant plan with a faulty rank, value-checked.

    The call sums float64 vectors.  The faulty rank is the last one (a
    broadcast's root when it crashes or is late), and ``fault`` is what it
    does:

    * ``"absent"`` — it never enters: no workspace, no post;
    * ``"crash"`` — it crashes at its post ``k`` under a
      :class:`~repro.faults.injection.FaultyRuntime`: ``k = 1`` where it
      posts to several peers (its first peer got the post, the others did
      not), else ``k = 0``;
    * ``"late"`` — as ``"crash"``, and once every survivor completed it
      recovers and calls :func:`~repro.faults.recovery.send_late_contribution`;
      a broadcast root instead enters only then.  Every survivor that
      completed degraded then runs :meth:`DegradedResult.correct`'s
      generator.

    Windows expire when no rank can progress (:func:`_run_cooperative`).
    The run's ``wrong_values`` get every survivor whose ``missing_ranks``
    are not the documented set or whose value is not the fold over the
    contributors it reports; a cell where nobody completed degraded
    (vacuous); and, after the late cell's correction, any survivor short of
    the exact result.
    """
    from ..faults.injection import FaultPlan, FaultyRuntime, RankCrashedError
    from ..faults.recovery import (
        DEFAULT_CORRECTION_TIMEOUT,
        TolerantPlan,
        send_late_contribution,
    )

    info = REGISTRY.get(algorithm)
    require(info.capabilities.fault_tolerant, f"{algorithm!r} is not a fault-tolerant algorithm")
    require(fault in TOLERANT_FAULTS, f"fault must be one of {TOLERANT_FAULTS}, got {fault!r}")
    collective = info.collective
    elements = max(1, nbytes // 8)
    segment_id = 23
    policy = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")
    key = PlanKey(
        collective=collective, algorithm=algorithm, size=num_ranks, root=root,
        nbytes=elements * 8, dtype="<f8", op="sum", policy=policy_fingerprint(policy),
    )  # fmt: skip
    faulty = root if collective == "bcast" and fault != "absent" else num_ranks - 1
    # The faulty rank's posts in the plan's order; the first ``crash_at`` land.
    peers = [root] if collective == "reduce" else [r for r in range(num_ranks) if r != faulty]
    crash_at = 1 if len(peers) > 1 else 0
    crashes = fault == "crash" or (fault == "late" and collective != "bcast")
    reached = set(peers[:crash_at]) if crashes else set()

    world = ModelWorld(num_ranks)
    runtimes: List[GaspiRuntime] = list(world.runtimes)
    if crashes:
        runtimes[faulty] = FaultyRuntime(
            runtimes[faulty], FaultPlan.single_crash(faulty, at_op=crash_at)
        )
    entering = [r for r in range(num_ranks) if fault != "absent" or r != faulty]
    plans = {r: TolerantPlan(runtimes[r], key, segment_id, policy) for r in entering}
    if mutate_plan is not None:
        for plan in plans.values():
            mutate_plan(plan)
    sendbufs, recvbufs = _payloads(collective, num_ranks, elements, root)
    results: Dict[int, Any] = {}
    degraded: Set[int] = set()  # survivors that completed with ranks missing
    finished: Set[int] = set()
    wrong: List[str] = []
    checks = [0]

    def check(rank: int, when: str, missing: Tuple[int, ...]) -> None:
        result = results[rank].detail  # its DegradedResult, which a correction updates
        if result.missing_ranks != missing:
            wrong.append(
                f"rank {rank}: {algorithm} {when} reports missing ranks "
                f"{list(result.missing_ranks)}, not {list(missing)}"
            )
        reported = set(range(num_ranks)) - set(result.missing_ranks)
        want = documented_result(
            collective, policy, sendbufs, root=root, contributors=reported
        )[rank]
        if want is None:
            return
        checks[0] += 1
        if not np.array_equal(result.value, want):
            wrong.append(
                f"rank {rank}: {algorithm} {when} holds a value that is not "
                "the fold over its contributors"
            )

    def rank_program(rank: int) -> Program:
        rt = runtimes[rank]
        if fault == "late" and rank == faulty and not crashes:
            while len(finished) < len(plans) - 1:  # a root entering late
                yield
        request = CollectiveRequest(
            collective, sendbufs[rank], recvbufs[rank], root, "sum", policy,
            segment_id=segment_id,
        )  # fmt: skip
        try:
            results[rank] = yield from _drive(rt, plans[rank].begin(request))
        except RankCrashedError:
            finished.add(rank)
            if fault == "late":
                while len(finished) < len(plans):  # every survivor completed
                    yield
                rt.recover()  # type: ignore[attr-defined]
                send_late_contribution(rt, sendbufs[rank], plans[rank].segment_id)
            return
        finished.add(rank)
        if results[rank].missing_ranks:
            degraded.add(rank)
        gathers = collective == "allreduce" or rank == root
        involved = gathers or (collective == "bcast" and faulty == root)
        lost = involved and rank != faulty and rank not in reached
        check(rank, "call", (faulty,) if lost else ())
        detail = results[rank].detail
        if fault == "late" and detail.correctable:
            yield from _drive(rt, detail.correction(DEFAULT_CORRECTION_TIMEOUT))
            check(rank, "correction", ())

    # An absent rank's program ends at once.
    programs = [rank_program(r) if r in plans else _idle(world, 0) for r in range(num_ranks)]
    stalled = _run_cooperative(world, programs)
    if not stalled and not degraded:
        wrong.append(f"{algorithm}: nobody completed degraded (a vacuous cell)")
    name = (
        f"{algorithm}[ranks={num_ranks}, root={root}, nbytes={elements * 8}, "
        f"{fault} rank {faulty}]"
    )
    return ModelRun(
        trace=_trace(world, name, stalled),
        world=world,
        plans=list(plans.values()),
        sendbufs=sendbufs,
        recvbufs=recvbufs,
        algorithm=algorithm,
        stalled_ranks=stalled,
        wrong_values=wrong,
        value_checks=checks[0],
    )


def build_recycle_model(
    first: str,
    other: str,
    num_ranks: int,
    nbytes: int = 256,
    *,
    laggard: Optional[int] = None,
    calls: int = 2,
    mutate_pool: Optional[Callable[[WorkspacePool], None]] = None,
) -> ModelRun:
    """Two different plans back to back on recycled workspace segments.

    Every rank drives one :class:`~repro.core.workspace.WorkspacePool`
    through the misses of a one-entry plan cache over the sequence
    ``first, other, other, first, other, first``: each miss releases the
    evicted plan, then compiles the next.  ``other`` moves ``nbytes``;
    ``first`` — a broadcast, whose workspace is its payload, or any plan
    whose workspace is a multiple of it — moves what makes its workspace as
    large as ``other``'s, so the two share a size class.  After the first
    plan, every rank leases and releases ``RETIRE_BATCH - 1`` fillers of
    another class, so the second plan's release takes the barrier that
    quiesces a full batch; the misses after it take the others.  The third
    plan thereby runs on the segment the first one released, and the sixth
    on that segment again, released by the third: both orders of the pair,
    each on a segment scrubbed behind one barrier and leased after the
    next.  Rank ``laggard`` (the last one by default) idles before every
    call, so the others run as far ahead as the protocol lets them.

    The model's barrier records and returns, so the programs wait where a
    real barrier would hold them: until every rank arrived, before a pool
    operation that synchronises; until every rank entered it, after a
    miss.  Which operations synchronise comes from a dry run of the same
    operations on a scratch pool.  A recycled lease and a release short of
    its batch take no barrier and nothing holds a rank back — which is
    what exposes the seeded pool defects of :mod:`repro.analysis.mutations`
    (applied to every pool, the dry run's included, through
    ``mutate_pool``).
    """

    def workspace_of(algorithm: str) -> int:
        sized = build_model(algorithm, num_ranks, nbytes, calls=0)
        return sized.world.runtimes[0].segment_size(sized.plans[0].segment_id)

    if laggard is None:
        laggard = num_ranks - 1
    scaled = nbytes * workspace_of(other) // workspace_of(first)
    head, tail = (first, scaled - scaled % 8), (other, nbytes)
    policy = ConsistencyPolicy()
    sequence = [head, tail, tail, head, tail, head]

    def compile_plan(rt: GaspiRuntime, pool: WorkspacePool, step: int) -> CollectivePlan:
        algorithm, size = sequence[step]
        info = REGISTRY.get(algorithm)
        key = PlanKey(
            collective=info.collective,
            algorithm=algorithm,
            size=num_ranks,
            root=0,
            nbytes=max(1, size // 8) * 8,
            dtype="<f8",
            op="sum",
            policy=policy_fingerprint(policy),
        )
        return info.plan(rt, key, 0, policy, pool)

    def operations(
        rt: GaspiRuntime, pool: WorkspacePool, plans: List[CollectivePlan]
    ) -> List[Tuple[str, Callable[[], None]]]:
        """One rank's pool operations in program order: (kind, operation)."""
        fillers: List[int] = []
        short = RETIRE_BATCH - 1  # releases one short of a batch
        ops: List[Tuple[str, Callable[[], None]]] = []
        for step in range(len(sequence)):
            if step:
                ops.append(("release", lambda: plans[-1].release()))
            ops.append(("plan", lambda s=step: plans.append(compile_plan(rt, pool, s))))
            if step == 0:
                ops += [("lease", lambda: fillers.append(pool.lease(8, 1)))] * short
                ops += [("release", lambda: pool.release(fillers.pop()))] * short
        return ops

    def make_pool(rt: GaspiRuntime) -> WorkspacePool:
        pool = WorkspacePool(rt, 23, 64)
        if mutate_pool is not None:
            mutate_pool(pool)
        return pool

    probe = ModelWorld(num_ranks).runtimes[0]
    synchronises = []
    batched = False  # whether a release took a batch's barrier
    for kind, operation in operations(probe, make_pool(probe), []):
        entered = probe.barriers
        operation()
        synchronises.append(probe.barriers > entered)
        batched |= synchronises[-1] and kind == "release"

    world = ModelWorld(num_ranks)
    runtimes = world.runtimes
    pools = [make_pool(rt) for rt in runtimes]
    arrived = [0] * num_ranks
    plans: List[List[CollectivePlan]] = [[] for _ in range(num_ranks)]
    wrong: List[str] = []
    checks = [0]
    buffers: Dict[int, Tuple[List[np.ndarray], List[Optional[np.ndarray]]]] = {}

    def rank_program(rank: int) -> Program:
        rt = runtimes[rank]
        ops = operations(rt, pools[rank], plans[rank])
        for (kind, operation), barrier in zip(ops, synchronises):
            if barrier:  # held until every rank arrived
                arrived[rank] += 1
                while min(arrived) < arrived[rank]:
                    yield
            operation()
            if barrier and kind != "release":  # a miss: every rank created
                while min(peer.barriers for peer in runtimes) < rt.barriers:
                    yield
            if kind == "plan":
                yield from run_plan(rank, len(plans[rank]) - 1)

    def run_plan(rank: int, step: int) -> Program:
        plan = plans[rank][step]
        algorithm, size = sequence[step]
        info = REGISTRY.get(algorithm)
        elements = max(1, size // 8)
        sendbufs, recvbufs = buffers.setdefault(
            step, _payloads(info.collective, num_ranks, elements, 0)
        )
        inputs = _payloads(info.collective, num_ranks, elements, 0)[0]
        for call in range(calls):
            if rank == laggard:
                yield from _idle(world)
            request = CollectiveRequest(
                collective=info.collective,
                sendbuf=sendbufs[rank],
                recvbuf=recvbufs[rank],
                op="sum",
                policy=policy,
                segment_id=plan.segment_id,
            )
            yield from _drive(plan.runtime, plan.begin(request))
            want = documented_result(info.collective, policy, inputs)[rank]
            if want is None:
                continue
            checks[0] += 1
            got = sendbufs[rank] if info.collective == "bcast" else recvbufs[rank]
            if not np.array_equal(got, want):
                wrong.append(
                    f"rank {rank}: plan {step} ({algorithm}) call {call} "
                    f"computed a wrong result"
                )

    stalled = _run_cooperative(world, [rank_program(r) for r in range(num_ranks)])
    if not stalled and mutate_pool is None and not (
        batched and all(_recycled_both_ways(p, sequence) for p in plans)
    ):
        raise ValueError(f"{first} and {other} recycled nothing at {num_ranks} ranks")
    name = (
        f"recycle[{first} <-> {other}, ranks={num_ranks}, "
        f"nbytes={head[1]}/{nbytes}, laggard={laggard}]"
    )
    return ModelRun(
        trace=_trace(world, name, stalled),
        world=world,
        plans=[p[-1] for p in plans if p],
        sendbufs=[],
        recvbufs=[],
        algorithm=f"{first}<->{other}",
        stalled_ranks=stalled,
        wrong_values=wrong,
        value_checks=checks[0],
    )


def _recycled_both_ways(
    plans: List[CollectivePlan], sequence: List[Tuple[str, int]]
) -> bool:
    """Whether each plan of the pair ran on a segment the other one released."""
    last_user: Dict[int, str] = {}
    inherited = set()
    for plan, (algorithm, _) in zip(plans, sequence):
        previous = last_user.get(plan.segment_id, algorithm)
        if previous != algorithm:
            inherited.add(algorithm)
        last_user[plan.segment_id] = algorithm
    return len(inherited) == 2
