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
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.plan import CollectivePlan, PlanKey, WaitSpec, policy_fingerprint
from ..core.policy import CollectiveRequest, ConsistencyPolicy
from ..core.registry import REGISTRY
from ..core.workspace import RETIRE_BATCH, WorkspacePool
from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.group import Group
from ..gaspi.runtime import GaspiRuntime
from ..gaspi.threaded import ThreadedWorld, WorldConfig
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
#: it merely gives up a turn.
Program = Generator[Optional[WaitSpec], None, None]

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

    * segment views are tracked, so local stores and fold operands are
      recorded as ``write`` / ``read`` events;
    * :attr:`supports_bind` is False, so the pipelined broadcast's
      receivers take their staging path, whose copies the views observe;
    * ``barrier`` records and returns, counted in :attr:`barriers`: the
      scheduler holds a rank where a real barrier would;
    * a ``notify_waitsome`` with a non-zero timeout raises instead of
      parking the thread every rank runs on — plans must poll and yield.
    """

    def __init__(self, inner: GaspiRuntime, sink: TraceSink) -> None:
        super().__init__(inner, sink)
        #: Barriers entered so far.
        self.barriers = 0

    @property
    def supports_bind(self) -> bool:
        return False

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
        self.sink.record(Event(kind=BARRIER, rank=self.rank))


class ModelWorld:
    """Every rank of one threaded world, traced into one sink."""

    def __init__(self, num_ranks: int) -> None:
        self.num_ranks = num_ranks
        self.sink = TraceSink(num_ranks)
        threaded = ThreadedWorld(num_ranks, WorldConfig(delivery="immediate"))
        self.runtimes = [
            ModelTracingRuntime(rt, self.sink) for rt in threaded.runtimes()
        ]
        #: Scheduler turns sat out (see :func:`_idle`).
        self.idles = 0

    def progress(self) -> int:
        """Monotone progress counter of the cooperative scheduler."""
        return self.idles + sum(len(sequence) for sequence in self.sink.events)


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
    """A completed model execution: the trace plus the data it computed."""

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

    A step progresses when it records an event or idles.  A rank that
    stalls inside a wait gets that wait recorded as its next consume (of
    the first id of a range wait), so the replay names the starved slot —
    ``unmatched-notification`` or ``deadlock`` — instead of seeing a trace
    that merely ends early.
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


def _trace(world: ModelWorld, name: str, stalled: List[int]) -> ProtocolTrace:
    return ProtocolTrace(
        name=name,
        num_ranks=world.num_ranks,
        events=world.sink.events,
        segments=world.sink.segments,
        stalled_ranks=stalled,
    )


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
    """Execute ``calls`` back-to-back planned collectives cooperatively.

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
    plans = [info.plan(rt, key, segment_id, policy) for rt in world.runtimes]
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
    name = (
        f"{algorithm}[ranks={num_ranks}, root={root}, nbytes={nbytes}, "
        f"chunk_bytes={chunk_label}, calls={calls}{relaxed}{lagging}]"
    )
    return ModelRun(
        trace=_trace(world, name, stalled),
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
