"""Symbolic execution of compiled collective plans.

This module runs the *real* plan classes — the same ``__init__`` that
freezes topology, offsets and notification layouts in production — over
an in-memory :class:`ModelRuntime` whose operations are deterministic and
instantaneous, and records every protocol action as an
:class:`~repro.analysis.events.Event`.  The result is one event sequence
per rank, over real payload bytes, for the checkers in
:mod:`repro.analysis.deadlock`, :mod:`repro.analysis.races` and
:mod:`repro.analysis.budget`.

Every plan is a generator: ``begin(request)`` yields a
:class:`~repro.core.plan.WaitSpec` whenever a wait would block, so the
model simply drives the shipped generator cooperatively.  There is no
second copy of any protocol here — the code the checkers see is the code
that runs.

All rank programs run under a round-robin cooperative scheduler.  Because
the model executes real NumPy payloads, callers can additionally check
the *numerical* result of the modelled collective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.plan import CollectivePlan, PlanKey, WaitSpec, policy_fingerprint
from ..core.policy import CollectiveRequest, ConsistencyPolicy
from ..core.registry import REGISTRY
from ..core.workspace import WorkspacePool
from ..gaspi.constants import (
    DEFAULT_NOTIFICATION_COUNT,
    DEFAULT_NOTIFICATION_VALUE,
    GASPI_BLOCK,
)
from ..gaspi.runtime import GaspiRuntime, source_bytes
from .events import (
    BARRIER,
    CONSUME,
    LOCAL_READ,
    LOCAL_WRITE,
    POST,
    Event,
    ProtocolTrace,
    SegmentMeta,
)

#: A rank program: yields whenever it cannot progress — the
#: :class:`~repro.core.plan.WaitSpec` it is blocked on, or ``None`` when
#: it merely gives up a turn.
Program = Generator[Optional[WaitSpec], None, None]


# --------------------------------------------------------------------------- #
# model substrate
# --------------------------------------------------------------------------- #
class _TrackedView(np.ndarray):
    """Segment view that records stores as ``write`` events.

    Captures the two store idioms of the collectives: slice/scalar
    assignment (staging copies) and ufunc calls with a segment-resident
    ``out=`` (the fused folds of :mod:`repro.core.kernels`, which call
    ``func(acc, contrib, out=acc)``) — and a fold's segment-resident
    *operands* as ``read`` events.
    """

    _segment: Optional["ModelSegment"]

    def __array_finalize__(self, obj: Optional[np.ndarray]) -> None:
        self._segment = getattr(obj, "_segment", None)

    def __setitem__(self, key: Any, value: Any) -> None:
        np.ndarray.__setitem__(self, key, value)
        segment = getattr(self, "_segment", None)
        if segment is None:
            return
        if isinstance(key, (int, np.integer)):
            target = np.ndarray.__getitem__(self, slice(int(key), int(key) + 1))
        else:
            target = np.ndarray.__getitem__(self, key)
        if isinstance(target, np.ndarray) and target.nbytes:
            segment.record_access(LOCAL_WRITE, target)

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
                segment = getattr(operand, "_segment", None)
                if segment is not None:
                    segment.record_access(LOCAL_READ, operand)
        result = getattr(ufunc, method)(*plain, **kwargs)
        for original in out:
            if isinstance(original, _TrackedView):
                segment = getattr(original, "_segment", None)
                if segment is not None and original.nbytes:
                    segment.record_access(LOCAL_WRITE, original)
        return result


class ModelSegment:
    """One rank's copy of a segment: bytes + notification slots."""

    def __init__(
        self, world: "ModelWorld", rank: int, segment_id: int, size: int, slots: int
    ) -> None:
        self.world = world
        self.rank = rank
        self.segment_id = segment_id
        self.buffer = np.zeros(max(int(size), 1), dtype=np.uint8)
        self.num_notifications = slots
        #: Pending notification values, board semantics: a post *overwrites*
        #: the slot — exactly the behaviour the double-post checker audits.
        self.pending: Dict[int, int] = {}

    @property
    def base_address(self) -> int:
        return int(self.buffer.__array_interface__["data"][0])

    def view(self, dtype: Any, offset: int, count: Optional[int]) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        if count is None:
            count = (self.buffer.size - offset) // itemsize
        raw = self.buffer[offset : offset + count * itemsize]
        tracked = raw.view(dtype).view(_TrackedView)
        tracked._segment = self
        return tracked

    def record_access(self, kind: str, target: np.ndarray) -> None:
        offset = int(target.__array_interface__["data"][0]) - self.base_address
        self.world.record(
            Event(
                kind=kind,
                rank=self.rank,
                segment=self.segment_id,
                dst=self.rank,
                offset=offset,
                length=int(target.nbytes),
            )
        )


class ModelWorld:
    """All ranks' segments plus the recorded event sequences."""

    def __init__(self, num_ranks: int) -> None:
        self.num_ranks = num_ranks
        self.events: List[List[Event]] = [[] for _ in range(num_ranks)]
        self.segments: Dict[Tuple[int, int], ModelSegment] = {}
        #: Barriers entered so far, per rank (the model's barrier records
        #: and returns; programs that must not run ahead of one wait on
        #: these counts — see :func:`build_recycle_model`).
        self.barriers: List[int] = [0] * num_ranks
        #: Monotone progress counter for the cooperative scheduler.
        self.op_count = 0
        self._runtimes = [ModelRuntime(self, r) for r in range(num_ranks)]

    def runtime(self, rank: int) -> "ModelRuntime":
        return self._runtimes[rank]

    def record(self, event: Event) -> None:
        self.events[event.rank].append(event)
        self.op_count += 1

    def segment(self, rank: int, segment_id: int) -> ModelSegment:
        try:
            return self.segments[(rank, segment_id)]
        except KeyError:
            raise KeyError(
                f"rank {rank} references segment {segment_id} before creating it"
            ) from None

    def segment_metas(self) -> Dict[Tuple[int, int], SegmentMeta]:
        return {
            key: SegmentMeta(
                rank=seg.rank,
                segment_id=seg.segment_id,
                size=seg.buffer.size,
                num_notifications=seg.num_notifications,
            )
            for key, seg in self.segments.items()
        }


class ModelRuntime(GaspiRuntime):
    """Deterministic in-memory :class:`GaspiRuntime` used by the model.

    Data movement is immediate and in order; waits never block (a blocking
    wait with nothing pending is a model bug and raises).  ``segment_bind``
    is deliberately *not* implemented so ``supports_bind`` is False and the
    pipelined broadcast's receivers take their staging path, whose local
    copies the tracked views can observe.  ``write_notify_from`` is a post
    from an anonymous local source: caller memory is not a segment, so
    there is nothing on the sending side to track or budget-check.
    """

    def __init__(self, world: ModelWorld, rank: int) -> None:
        self._world = world
        self._rank = rank

    # -- identity ------------------------------------------------------- #
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.num_ranks

    # -- segments ------------------------------------------------------- #
    def segment_create(
        self,
        segment_id: int,
        size: int,
        num_notifications: int = DEFAULT_NOTIFICATION_COUNT,
    ) -> None:
        key = (self._rank, segment_id)
        if key in self._world.segments:
            raise ValueError(f"rank {self._rank}: segment {segment_id} already exists")
        self._world.segments[key] = ModelSegment(
            self._world, self._rank, segment_id, size, num_notifications
        )

    def segment_delete(self, segment_id: int) -> None:
        self._world.segments.pop((self._rank, segment_id), None)

    def segment_view(
        self,
        segment_id: int,
        dtype: Any = np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        return self._world.segment(self._rank, segment_id).view(dtype, offset, count)

    def segment_size(self, segment_id: int) -> int:
        return self._world.segment(self._rank, segment_id).buffer.size

    def segment_read(
        self,
        segment_id: int,
        dtype: Any = np.float64,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> np.ndarray:
        segment = self._world.segment(self._rank, segment_id)
        itemsize = np.dtype(dtype).itemsize
        if count is None:
            count = (segment.buffer.size - offset) // itemsize
        return segment.buffer[offset : offset + count * itemsize].view(dtype).copy()

    # -- one-sided ------------------------------------------------------ #
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
        self._transfer(
            segment_id_local, offset_local, target_rank, segment_id_remote,
            offset_remote, size,
        )
        self._world.record(
            Event(
                kind=POST,
                rank=self._rank,
                segment=segment_id_remote,
                dst=target_rank,
                offset=offset_remote,
                length=size,
                local_offset=offset_local,
                note="write",
            )
        )

    def notify(
        self,
        target_rank: int,
        segment_id_remote: int,
        notification_id: int,
        notification_value: int = DEFAULT_NOTIFICATION_VALUE,
        queue: int = 0,
    ) -> None:
        target = self._world.segment(target_rank, segment_id_remote)
        target.pending[notification_id] = notification_value
        self._world.record(
            Event(
                kind=POST,
                rank=self._rank,
                segment=segment_id_remote,
                dst=target_rank,
                notif_id=notification_id,
                value=notification_value,
            )
        )

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
        self._transfer(
            segment_id_local, offset_local, target_rank, segment_id_remote,
            offset_remote, size,
        )
        target = self._world.segment(target_rank, segment_id_remote)
        target.pending[notification_id] = notification_value
        self._world.record(
            Event(
                kind=POST,
                rank=self._rank,
                segment=segment_id_remote,
                dst=target_rank,
                offset=offset_remote,
                length=size,
                notif_id=notification_id,
                value=notification_value,
                local_offset=offset_local,
            )
        )

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
        # A post from an anonymous local source: caller memory is not a
        # segment, so the event carries no ``local_offset`` to budget-check.
        data = source_bytes(source)
        target = self._world.segment(target_rank, segment_id_remote)
        target.buffer[offset_remote : offset_remote + data.size] = data
        target.pending[notification_id] = notification_value
        self._world.record(
            Event(
                kind=POST,
                rank=self._rank,
                segment=segment_id_remote,
                dst=target_rank,
                offset=offset_remote,
                length=data.size,
                notif_id=notification_id,
                value=notification_value,
            )
        )

    def _transfer(
        self,
        segment_id_local: int,
        offset_local: int,
        target_rank: int,
        segment_id_remote: int,
        offset_remote: int,
        size: int,
    ) -> None:
        source = self._world.segment(self._rank, segment_id_local)
        target = self._world.segment(target_rank, segment_id_remote)
        data = source.buffer[offset_local : offset_local + size]
        target.buffer[offset_remote : offset_remote + size] = data

    # -- weak synchronisation ------------------------------------------- #
    def notify_waitsome(
        self,
        segment_id_local: int,
        notification_begin: int = 0,
        notification_count: Optional[int] = None,
        timeout: float = GASPI_BLOCK,
    ) -> Optional[int]:
        segment = self._world.segment(self._rank, segment_id_local)
        if notification_count is None:
            notification_count = segment.num_notifications - notification_begin
        end = notification_begin + notification_count
        pending = [
            nid
            for nid, value in segment.pending.items()
            if value > 0 and notification_begin <= nid < end
        ]
        if pending:
            return min(pending)
        if timeout == GASPI_BLOCK or timeout > 0:
            raise RuntimeError(
                f"rank {self._rank}: blocking notify_waitsome([{notification_begin}, "
                f"{end}) on segment {segment_id_local}) inside the model — plans "
                "must poll with timeout=0 and yield"
            )
        return None

    def notify_reset(self, segment_id_local: int, notification_id: int) -> int:
        segment = self._world.segment(self._rank, segment_id_local)
        value = segment.pending.pop(notification_id, 0)
        if value > 0:
            self._world.record(
                Event(
                    kind=CONSUME,
                    rank=self._rank,
                    segment=segment_id_local,
                    dst=self._rank,
                    notif_id=notification_id,
                    value=value,
                )
            )
        return value

    def notify_peek(self, segment_id_local: int, notification_id: int) -> int:
        segment = self._world.segment(self._rank, segment_id_local)
        return segment.pending.get(notification_id, 0)

    # -- queues / synchronisation --------------------------------------- #
    def wait(self, queue: int = 0, timeout: float = GASPI_BLOCK) -> None:
        return None

    def barrier(self, group: Any = None, timeout: float = GASPI_BLOCK) -> None:
        self._world.barriers[self._rank] += 1
        self._world.record(Event(kind=BARRIER, rank=self._rank))


# --------------------------------------------------------------------------- #
# cooperative scheduler and entry point
# --------------------------------------------------------------------------- #
def _drive(plan: CollectivePlan, request: CollectiveRequest) -> Program:
    """Cooperatively drive one call of a plan's own ``begin()`` generator."""
    rt = plan.runtime
    gen = plan.begin(request)
    while True:
        try:
            spec = next(gen)
        except StopIteration:
            return
        while (
            rt.notify_waitsome(spec.segment_id, spec.first, spec.count, timeout=0.0)
            is None
        ):
            yield spec


@dataclass
class ModelRun:
    """A completed symbolic execution: the trace plus the data it computed."""

    trace: ProtocolTrace
    world: ModelWorld
    plans: List[CollectivePlan]
    sendbufs: List[np.ndarray]
    recvbufs: List[Optional[np.ndarray]]
    algorithm: str = ""
    stalled_ranks: List[int] = field(default_factory=list)
    #: Results that differ from the NumPy reference (recycling cells check
    #: every plan of their sequence themselves — the buffers are reused).
    wrong_values: List[str] = field(default_factory=list)


def _run_cooperative(world: ModelWorld, programs: List[Program]) -> List[int]:
    """Round-robin the rank programs to completion; return stalled ranks.

    A rank that stalls inside a wait gets that wait recorded as its next
    consume (of the first id of a range wait), so the replay names the
    starved slot — ``unmatched-notification`` or ``deadlock`` — instead of
    seeing a trace that merely ends early.
    """
    live: Dict[int, Program] = dict(enumerate(programs))
    blocked: Dict[int, Optional[WaitSpec]] = {}
    while live:
        progressed = False
        for rank in sorted(live):
            before = world.op_count
            try:
                blocked[rank] = next(live[rank])
            except StopIteration:
                del live[rank]
                progressed = True
                continue
            if world.op_count != before:
                progressed = True
        if not progressed:
            for rank in sorted(live):
                spec = blocked[rank]
                if spec is not None:
                    world.events[rank].append(
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
        world.op_count += 1  # idling is progress, not a stall
        yield


def _payloads(
    collective: str, num_ranks: int, elements: int, root: int
) -> Tuple[List[np.ndarray], List[Optional[np.ndarray]]]:
    """Per-rank (sendbufs, recvbufs) of one modelled collective."""
    ramp = np.arange(elements, dtype=np.float64)
    if collective == "bcast":
        return (
            [ramp + 1.0 if r == root else np.zeros(elements) for r in range(num_ranks)],
            [None] * num_ranks,
        )
    return (
        [ramp + r + 1.0 for r in range(num_ranks)],
        [np.zeros(elements) for _ in range(num_ranks)],
    )


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
    calls: int = 2,
    laggard: Optional[int] = None,
    segment_id: int = 23,
    mutate_plan: Optional[Callable[[CollectivePlan], None]] = None,
) -> ModelRun:
    """Symbolically execute ``calls`` back-to-back planned collectives.

    Builds the real compiled plan of ``algorithm`` on every rank of a
    ``num_ranks``-rank :class:`ModelWorld` (float64 payloads of ``nbytes``
    bytes, under the ``threshold`` / ``mode`` consistency policy), runs
    ``calls`` consecutive calls per rank under the cooperative scheduler —
    two calls exercise every cross-call consume-ack handshake, a third
    every credit that bounds a rank to one call ahead — and returns the
    recorded :class:`~repro.analysis.events.ProtocolTrace` together with
    the payload buffers for numerical validation.  Rank ``laggard`` idles
    before every call (see :func:`_idle`).  ``mutate_plan`` is applied to
    every rank's freshly compiled plan before the calls run — the hook of
    the plan-level seeded defects in :mod:`repro.analysis.mutations`.
    """
    info = REGISTRY.get(algorithm)
    if not info.plannable:
        raise ValueError(f"algorithm {algorithm!r} has no compiled plan to verify")
    dtype = np.dtype(np.float64)
    elements = max(1, nbytes // dtype.itemsize)
    nbytes = elements * dtype.itemsize
    policy = ConsistencyPolicy(threshold=threshold, mode=mode, chunk_bytes=chunk_bytes)
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

    world = ModelWorld(num_ranks)
    plans = [
        info.plan(world.runtime(rank), key, segment_id, policy)
        for rank in range(num_ranks)
    ]
    if mutate_plan is not None:
        for plan in plans:
            mutate_plan(plan)

    sendbufs, recvbufs = _payloads(info.collective, num_ranks, elements, root)

    def rank_program(rank: int) -> Program:
        for _ in range(calls):
            if rank == laggard:
                yield from _idle(world)
            request = CollectiveRequest(
                collective=info.collective,
                sendbuf=sendbufs[rank],
                recvbuf=recvbufs[rank],
                root=root,
                op=op,
                policy=policy,
                segment_id=segment_id,
            )
            yield from _drive(plans[rank], request)

    stalled = _run_cooperative(world, [rank_program(r) for r in range(num_ranks)])

    chunk_label = "-" if chunk_bytes is None else str(chunk_bytes)
    relaxed = "" if threshold >= 1.0 else f", {int(threshold * 100)}% {policy.mode.value}"
    lagging = "" if laggard is None else f", laggard={laggard}"
    trace = ProtocolTrace(
        name=(
            f"{algorithm}[ranks={num_ranks}, root={root}, nbytes={nbytes}, "
            f"chunk_bytes={chunk_label}, calls={calls}{relaxed}{lagging}]"
        ),
        num_ranks=num_ranks,
        events=world.events,
        segments=world.segment_metas(),
        stalled_ranks=stalled,
    )
    return ModelRun(
        trace=trace,
        world=world,
        plans=plans,
        sendbufs=sendbufs,
        recvbufs=recvbufs,
        algorithm=algorithm,
        stalled_ranks=stalled,
    )


def build_recycle_model(
    first: str,
    other: str,
    num_ranks: int,
    nbytes: int = 256,
    *,
    laggard: int = 1,
    calls: int = 2,
    mutate_pool: Optional[Callable[[WorkspacePool], None]] = None,
) -> ModelRun:
    """Two different plans back to back on recycled workspace segments.

    Every rank drives one :class:`~repro.core.workspace.WorkspacePool`
    through the misses of a one-entry plan cache over the sequence
    ``first, other, other, first``: each miss releases the evicted plan,
    then compiles the next.  ``other`` moves ``nbytes``; ``first`` — a
    broadcast, whose workspace is its payload, or any plan whose workspace
    is a multiple of it — moves what makes its workspace as large as
    ``other``'s, so the two share a size class.  The third plan thereby
    runs on the segment the first one released two misses earlier and the
    fourth on the second one's: both orders of the pair, each on a
    scrubbed segment behind the cooling barrier.  Rank ``laggard`` idles
    before every call, so the others run as far ahead as the protocol
    lets them.

    The model's barrier records and returns, so the programs wait where a
    real barrier would hold them: until every rank arrived, before a
    release; until every rank entered it, after a pool miss.  A recycled
    lease takes no barrier and nothing holds a rank back — which is what
    exposes the seeded pool defects of :mod:`repro.analysis.mutations`
    (applied to every rank's pool through ``mutate_pool``).
    """

    def workspace_of(algorithm: str) -> int:
        sized = build_model(algorithm, num_ranks, nbytes, calls=0)
        return sized.world.segment(0, sized.plans[0].segment_id).buffer.size

    scaled = nbytes * workspace_of(other) // workspace_of(first)
    head, tail = (first, scaled - scaled % 8), (other, nbytes)
    policy = ConsistencyPolicy()
    world = ModelWorld(num_ranks)
    pools = [WorkspacePool(world.runtime(r), 23, 64) for r in range(num_ranks)]
    if mutate_pool is not None:
        for pool in pools:
            mutate_pool(pool)
    sequence = [head, tail, tail, head]
    arrived = [0] * num_ranks
    plans: List[List[CollectivePlan]] = [[] for _ in range(num_ranks)]
    wrong: List[str] = []
    buffers: Dict[int, Tuple[List[np.ndarray], List[Optional[np.ndarray]]]] = {}

    def rank_program(rank: int) -> Program:
        rt = world.runtime(rank)
        for step, (algorithm, nbytes) in enumerate(sequence):
            info = REGISTRY.get(algorithm)
            elements = max(1, nbytes // 8)
            key = PlanKey(
                collective=info.collective,
                algorithm=algorithm,
                size=num_ranks,
                root=0,
                nbytes=elements * 8,
                dtype="<f8",
                op="sum",
                policy=policy_fingerprint(policy),
            )
            if plans[rank]:
                arrived[rank] += 1
                while min(arrived) < arrived[rank]:
                    yield
                plans[rank][-1].release()
            entered = world.barriers[rank]
            plan = info.plan(rt, key, 0, policy, pools[rank])
            plans[rank].append(plan)
            if world.barriers[rank] > entered:  # a pool miss: hold at its barrier
                while min(world.barriers) < world.barriers[rank]:
                    yield
            sendbufs, recvbufs = buffers.setdefault(
                step, _payloads(info.collective, num_ranks, elements, 0)
            )
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
                yield from _drive(plan, request)
                if info.collective == "bcast":
                    got, want = sendbufs[rank], np.arange(elements) + 1.0
                elif info.collective == "allreduce" or rank == 0:
                    got = recvbufs[rank]
                    want = sum(np.arange(elements) + r + 1.0 for r in range(num_ranks))
                else:
                    continue
                if not np.array_equal(got, want):
                    wrong.append(
                        f"rank {rank}: plan {step} ({algorithm}) call {call} "
                        f"computed a wrong result"
                    )

    stalled = _run_cooperative(world, [rank_program(r) for r in range(num_ranks)])
    recycled = [
        len(p) == 4 and (p[2].segment_id, p[3].segment_id)
        == (p[0].segment_id, p[1].segment_id)
        for p in plans
    ]
    if not stalled and mutate_pool is None and not all(recycled):
        raise ValueError(f"{first} and {other} recycled nothing at {num_ranks} ranks")
    trace = ProtocolTrace(
        name=(
            f"recycle[{first} <-> {other}, ranks={num_ranks}, "
            f"nbytes={head[1]}/{nbytes}, laggard={laggard}]"
        ),
        num_ranks=num_ranks,
        events=world.events,
        segments=world.segment_metas(),
        stalled_ranks=stalled,
    )
    return ModelRun(
        trace=trace,
        world=world,
        plans=[p[-1] for p in plans if p],
        sendbufs=[],
        recvbufs=[],
        algorithm=f"{first}<->{other}",
        stalled_ranks=stalled,
        wrong_values=wrong,
    )
