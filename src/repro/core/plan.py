"""Compiled collective plans: the persistent fast path of the hot loop.

The paper's pitch is *efficient* eventually consistent collectives, but a
naive dispatch re-derives everything per call: topology objects are
rebuilt, notification layouts are recomputed and the simulator schedule is
rebuilt — for every single ``comm.allreduce(x)`` of an iterative
application.  Production MPI amortises exactly this setup through
*persistent* (initialised) collectives; this module brings the same idea
here.  (Registering a workspace is not part of that bill: cold calls and
plans alike lease theirs from the communicator's
:class:`~repro.core.workspace.WorkspacePool` — one barrier per cold call
or plan-cache miss, no segment created or deleted in the steady state.)

A :class:`CollectivePlan` freezes, for one :class:`PlanKey` — the tuple
``(collective, algorithm, world size, root, payload bytes, dtype, op,
policy fingerprint)`` — everything about a collective that does not depend
on the payload *values*:

* the topology (binomial tree / ring / hypercube neighbour lists),
* the per-round send/receive offsets and the notification-id layout,
* the communication schedule for the simulator backend (built once), and
* a workspace segment leased from the pool for the plan's lifetime.

Concrete plans live next to their algorithms
(:class:`~repro.core.bcast.BstBcastPlan`,
:class:`~repro.core.reduce.BstReducePlan`,
:class:`~repro.core.allreduce_ring.RingAllreducePlan`, …) and are built
through the registry's planner entry points
(:meth:`~repro.core.registry.AlgorithmInfo.plan`).  The
:class:`~repro.core.api.Communicator` keeps them in a bounded
:class:`PlanCache` (transparent LRU; hits observable through
:meth:`~repro.core.api.Communicator.plan_cache_stats`), and exposes an
explicit MPI-persistent-style handle API via
:meth:`~repro.core.api.Communicator.persistent`.

Plan reuse changes the synchronisation structure: the cold path ends
every call with the barrier of its workspace release, which also
serialises successive calls.  Planned executors must therefore be
*self-synchronising across calls* — each plan documents its reuse argument
(consume-ack handshakes for the broadcast fan-out, one slot and one credit
per tree edge for the BST reduce, the ring's transitive step dependency,
the strict hypercube's call-parity mailboxes).

Every plan is one generator, and :class:`CollectivePlan` owns the protocol
that runs it: a subclass writes only ``_run(request, poll_timeout)``, which
yields a :class:`WaitSpec` where it cannot progress.  One implementation,
three completion disciplines — :meth:`CollectivePlan.execute` drives it with
blocking waits (:func:`drive_pipeline`, every wait bounded by
:data:`PLAN_WAIT_TIMEOUT`), :meth:`CollectivePlan.begin` hands it out to be
advanced incrementally (the nonblocking API, the model checker), and
:func:`_run_cold` is a cold call: a throwaway plan.  Nothing here measures
a wait: an attached metrics registry observes them from the runtime stack
and changes none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..gaspi.constants import GASPI_BLOCK
from ..utils.validation import require
from .reduction_ops import get_op
from .workspace import Lease, WorkspacePool

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..gaspi.runtime import GaspiRuntime
    from .policy import CollectiveRequest, CollectiveResult, ConsistencyPolicy
    from .registry import AlgorithmInfo
    from .schedule import CommunicationSchedule


# --------------------------------------------------------------------------- #
# plan identity
# --------------------------------------------------------------------------- #
PolicyFingerprint = Tuple[float, str, int, str, Optional[int]]


def policy_fingerprint(policy: "ConsistencyPolicy") -> PolicyFingerprint:
    """Hashable fingerprint of the consistency dial a plan is frozen for.

    Includes the pipeline chunk size: two calls that differ only in
    ``chunk_bytes`` freeze different chunk layouts and notification maps,
    so they must not share a compiled plan.
    """
    return (
        policy.threshold,
        policy.mode.value,
        policy.slack,
        policy.on_failure,
        policy.chunk_bytes,
    )


def policy_from_fingerprint(fingerprint: PolicyFingerprint) -> "ConsistencyPolicy":
    """Rebuild the :class:`ConsistencyPolicy` a fingerprint was taken from."""
    from .policy import ConsistencyPolicy, ReduceMode

    threshold, mode, slack, on_failure, chunk_bytes = fingerprint
    return ConsistencyPolicy(
        threshold=threshold,
        mode=ReduceMode(mode),
        slack=slack,
        on_failure=on_failure,
        chunk_bytes=chunk_bytes,
    )


@dataclass(frozen=True)
class PlanKey:
    """Everything that determines a compiled plan, and nothing else.

    Two requests with equal keys are served by the same plan: identical
    topology, offsets, notification layout, workspace and schedule.  The
    payload *values* are deliberately absent — they are the only thing a
    planned call still moves.
    """

    collective: str
    algorithm: str
    size: int
    root: int
    nbytes: int
    dtype: str
    op: str
    policy: PolicyFingerprint
    #: Plan-instance tag (:attr:`CollectiveRequest.tag`): distinct tags
    #: compile distinct plans, giving concurrent nonblocking requests of
    #: the same shape disjoint workspaces.
    tag: int = 0

    @classmethod
    def from_request(
        cls, info: "AlgorithmInfo", runtime: "GaspiRuntime", request: "CollectiveRequest"
    ) -> Optional["PlanKey"]:
        """Key of the plan serving ``request``, or ``None`` if unplannable.

        Data-free requests (barriers), non-array payloads and unknown
        operators cannot be keyed and fall back to the cold path.
        """
        if request.sendbuf is None or np.asarray(request.sendbuf).size == 0:
            return None
        try:
            return _plan_key(info.collective, info.name, runtime, request)
        except ValueError:
            return None

    # ------------------------------------------------------------------ #
    # serialization (checkpoint snapshots)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form of the key (used by elastic checkpoints)."""
        return {
            "collective": self.collective,
            "algorithm": self.algorithm,
            "size": self.size,
            "root": self.root,
            "nbytes": self.nbytes,
            "dtype": self.dtype,
            "op": self.op,
            "policy": list(self.policy),
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PlanKey":
        """Rebuild a key from :meth:`to_dict` output (JSON round-trip safe).

        The policy fingerprint travels as a JSON list; it is coerced back
        to the canonical tuple form so the rebuilt key hashes and compares
        equal to the original.
        """
        threshold, mode, slack, on_failure, chunk_bytes = data["policy"]
        fingerprint: PolicyFingerprint = (
            float(threshold),
            str(mode),
            int(slack),
            str(on_failure),
            None if chunk_bytes is None else int(chunk_bytes),
        )
        return cls(
            collective=str(data["collective"]),
            algorithm=str(data["algorithm"]),
            size=int(data["size"]),
            root=int(data["root"]),
            nbytes=int(data["nbytes"]),
            dtype=str(data["dtype"]),
            op=str(data["op"]),
            policy=fingerprint,
            tag=int(data.get("tag", 0)),
        )


def _plan_key(
    collective: str, algorithm: str, runtime: "GaspiRuntime", request: "CollectiveRequest"
) -> PlanKey:
    """Plan key of ``request`` under ``algorithm`` (the compile and cold paths).

    An unknown operator raises :class:`ValueError`.
    """
    sendbuf = np.asarray(request.sendbuf)
    return _key_of(
        collective, algorithm, runtime.size, request.root, sendbuf.nbytes,
        sendbuf.dtype, request.op, request.policy, request.tag,
    )  # fmt: skip


@lru_cache(maxsize=1024)
def _key_of(collective, algorithm, size, root, nbytes, dtype, op, policy, tag) -> PlanKey:
    """A key is a pure function of the call signature: built on first sight
    only, so a cold call pays one lookup, not a nine-field frozen dataclass."""
    return PlanKey(
        collective=collective,
        algorithm=algorithm,
        size=size,
        root=int(root),
        nbytes=int(nbytes),
        dtype=dtype.str,
        op=get_op(op).name,
        policy=policy_fingerprint(policy),
        tag=int(tag),
    )


# --------------------------------------------------------------------------- #
# plan base class
# --------------------------------------------------------------------------- #
class CollectivePlan:
    """Base class of compiled collectives: leased workspace + frozen layout.

    Subclasses precompute their topology and offsets in ``__init__`` and
    implement :meth:`_run`; the base class owns the executor protocol
    (:meth:`execute`, :meth:`begin`), the workspace lease and the cached
    simulator schedule.

    Construction is collective: every rank builds the plan for the same
    key at the same dispatch, so a pool miss can synchronise its fresh
    segment with a single barrier.  With ``pool=None`` the plan is
    standalone: its workspace is registered under ``segment_id`` and lives
    exactly as long as the plan.
    """

    #: Attributes holding views of the workspace.  Teardown drops them
    #: first: a live view keeps a shared-memory mapping exported, and an
    #: exported mapping cannot be unmapped.
    _segment_views: Tuple[str, ...] = ()

    def __init__(
        self,
        runtime: "GaspiRuntime",
        key: PlanKey,
        segment_id: int,
        pool: Optional[WorkspacePool] = None,
    ) -> None:
        self.runtime = runtime
        self.key = key
        self.key_dtype = np.dtype(key.dtype)
        #: The workspace's segment id (a standalone plan's own id until
        #: :meth:`_lease_workspace` replaces it with the leased one).
        self.segment_id = int(segment_id)
        self.calls = 0
        #: Pin reference count: one per open persistent handle.  A plan is
        #: exempt from LRU eviction while any handle still references it —
        #: a plain boolean would let closing one of two same-shape handles
        #: unpin the plan out from under the other.
        self.pins = 0
        #: Recency stamp of the :class:`PlanCache` holding the plan: a hit
        #: restamps the plan instead of re-inserting (and re-hashing) its key.
        self.last_used = 0
        self._schedule: Optional["CommunicationSchedule"] = None
        self._pool = pool
        self._lease: Optional[Lease] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    def _lease_workspace(
        self, nbytes: int, notification_ids: int, exact: bool = False
    ) -> None:
        """Lease the plan's workspace (``nbytes`` must agree on every rank)."""
        self._lease = Lease(
            self.runtime, self._pool, self.segment_id, nbytes, notification_ids, exact
        )
        self.segment_id = self._lease.segment_id

    # ------------------------------------------------------------------ #
    # executor protocol: one generator body, three ways to complete it
    # ------------------------------------------------------------------ #
    def _run(self, request: "CollectiveRequest", poll_timeout: float) -> "PipelineGen":
        """One call, as a generator (implemented by subclasses).

        A wait that may block is ``while rt.notify_waitsome(..., timeout=
        poll_timeout) is None: yield WaitSpec(...)``: it waits inline for
        up to ``poll_timeout`` seconds and yields what it is blocked on.
        """
        raise NotImplementedError

    def begin(self, request: "CollectiveRequest") -> "PipelineGen":
        """The incremental executor: polls, and yields wherever it is blocked."""
        return self._run(request, 0.0)

    def execute(self, request: "CollectiveRequest") -> "CollectiveResult":
        """Run one planned call to completion.

        The generator waits inline under the bound, so the blocking path
        pays one ``notify_waitsome`` per notification and only a wait that
        timed out reaches the driver — which names it and raises.
        """
        bound = min(request.timeout, PLAN_WAIT_TIMEOUT)
        return drive_pipeline(self.runtime, self._run(request, bound), bound)

    # ------------------------------------------------------------------ #
    def schedule(self, info: "AlgorithmInfo") -> "CommunicationSchedule":
        """The plan's communication schedule, built once and cached.

        Matches what the cold path hands the simulator backend for the
        same request, so plan-cached and cold simulations are identical.
        """
        if self._schedule is None:
            policy = policy_from_fingerprint(self.key.policy)
            self._schedule = info.builder(
                self.key.size, self.key.nbytes, **info.schedule_kwargs(policy)
            )
        return self._schedule

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once the plan gave up its workspace."""
        return self._closed

    def _retire(self) -> Optional[Lease]:
        """Flip to closed exactly once; the lease to give back, if any."""
        if self._closed:
            return None
        self._closed = True
        for name in self._segment_views:
            setattr(self, name, None)
        return self._lease

    def release(self) -> None:
        """Give the workspace back to its pool (collective: the pool retires
        it, and a later batch or miss barrier quiesces it before the scrub).

        What plan-cache eviction and the cold runners call.  Idempotent.
        """
        lease = self._retire()
        if lease is not None:
            lease.release()

    def close(self) -> None:
        """Local teardown (idempotent, never raises, no synchronisation).

        A standalone plan deletes its segment — the caller synchronises
        first, as before.  A pooled plan only forgets its workspace: the
        pool's owner deletes it in bulk (``Communicator.close()``).
        """
        lease = self._retire()
        if lease is not None:
            lease.drop()

    def _check_payload(self, buffer: np.ndarray, name: str = "buffer") -> np.ndarray:
        """Validate that a per-call payload matches the plan's frozen key.

        Hot path: the failure message is built only on mismatch — eager
        f-strings here are measurable at plan-cached call rates.
        """
        buffer = np.asarray(buffer)
        if buffer.nbytes != self.key.nbytes or buffer.dtype != self.key_dtype:
            raise ValueError(
                f"{name} ({buffer.nbytes} bytes, dtype {buffer.dtype}) does not "
                f"match the plan compiled for {self.key.nbytes} bytes of "
                f"{self.key.dtype}"
            )
        return buffer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"calls={self.calls}"
        return f"{type(self).__name__}({self.key.algorithm}, seg={self.segment_id}, {state})"


# --------------------------------------------------------------------------- #
# generator protocol (one executor body, blocking or incremental)
# --------------------------------------------------------------------------- #
#: Upper bound (seconds) on one blocking wait of a plan, whatever the
#: request's timeout: a peer that never posts raises :class:`TimeoutError`
#: instead of hanging.
PLAN_WAIT_TIMEOUT = 60.0


@dataclass(frozen=True)
class WaitSpec:
    """Resume condition of a suspended pipeline: a notification range.

    A pipeline generator yields one of these whenever it cannot progress;
    the driver resumes the generator once *any* notification in
    ``[first, first + count)`` of ``segment_id`` is pending (the generator
    re-checks and consumes what it needs itself, so a spurious resume is
    harmless).  ``what`` says what the range stands for ("DATA from child
    3 in call 7"); a wait that times out is reported with it.
    """

    segment_id: int
    first: int
    count: int = 1
    what: str = ""


PipelineGen = Generator[WaitSpec, None, "CollectiveResult"]


def drive_pipeline(
    runtime: "GaspiRuntime", gen: PipelineGen, timeout: float = GASPI_BLOCK
) -> "CollectiveResult":
    """Run a pipeline generator to completion with blocking waits.

    The one blocking loop, whatever wraps ``runtime``
    (:meth:`CollectivePlan.execute`).  A wait that stays unanswered for
    ``timeout`` seconds raises a :class:`TimeoutError` naming the rank, the
    segment and the notification range nobody posted.
    """
    try:
        spec = next(gen)
        while True:
            got = runtime.notify_waitsome(
                spec.segment_id, spec.first, spec.count, timeout=timeout
            )
            if got is None:
                gen.close()
                raise TimeoutError(
                    f"rank {runtime.rank}: waited longer than {timeout}s for "
                    f"{spec.what or 'a peer'}: nobody posted notifications "
                    f"[{spec.first}, {spec.first + spec.count}) on segment "
                    f"{spec.segment_id}"
                )
            spec = next(gen)
    except StopIteration as stop:
        return stop.value


# --------------------------------------------------------------------------- #
# cold path (registry entry points without a cached plan)
# --------------------------------------------------------------------------- #
def _run_cold(
    plan_cls: Callable[..., CollectivePlan],
    collective: str,
    name: str,
    runtime: "GaspiRuntime",
    request: "CollectiveRequest",
) -> "CollectiveResult":
    """Build a throwaway plan, run one call, release it (cold path).

    The release retires the workspace: the pool's next batch or miss
    barrier drains the handshake notifications (entry fences, credits,
    consume-acks) still in flight from the call before it is scrubbed.
    """
    key = _plan_key(collective, name, runtime, request)
    plan = plan_cls(runtime, key, request.segment_id, request.policy, request.pool)
    try:
        return plan.execute(request)
    finally:
        plan.release()


# --------------------------------------------------------------------------- #
# LRU cache
# --------------------------------------------------------------------------- #
@dataclass
class PlanCacheStats:
    """Counters of one communicator's plan cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    capacity: int = 0
    pinned: int = 0

    @property
    def dispatches(self) -> int:
        """Plannable dispatches observed so far (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of plannable dispatches served from the cache.

        Defined as ``0.0`` before any plannable dispatch — callers and
        reports can always divide/format it without guarding the
        zero-dispatch case themselves.
        """
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        """One-line human-readable summary, safe at zero dispatches."""
        if not self.dispatches:
            return (
                f"plan cache: no plannable dispatches yet "
                f"(capacity {self.capacity})"
            )
        return (
            f"plan cache: {self.hits}/{self.dispatches} hits "
            f"({self.hit_rate:.1%}), {self.entries}/{self.capacity} entries, "
            f"{self.evictions} evictions, {self.pinned} pinned"
        )


class PlanCache:
    """Bounded LRU mapping :class:`PlanKey` → :class:`CollectivePlan`.

    Plans pinned by a persistent handle are exempt from eviction (the cap
    becomes soft while pins exist).  Like the capped degraded-workspace
    tracking on the communicator, the bound exists so a workload that
    never repeats a shape cannot hold workspaces leased without limit.
    Recency is a stamp on each plan (:attr:`CollectivePlan.last_used`), so
    a hit on a plan the caller already holds (:meth:`hit`) hashes no key.
    """

    def __init__(self, capacity: int) -> None:
        require(capacity >= 0, f"plan cache capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._plans: Dict[PlanKey, CollectivePlan] = {}
        self._clock = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: PlanKey) -> Optional[CollectivePlan]:
        """Look up a plan, counting the hit/miss and refreshing recency."""
        plan = self._plans.get(key)
        if plan is None:
            self._misses += 1
            return None
        self.hit(plan)
        return plan

    def hit(self, plan: CollectivePlan) -> None:
        """Count a hit on a cached plan and make it the most recently used."""
        self._clock += 1
        plan.last_used = self._clock
        self._hits += 1

    def lru(self) -> List[CollectivePlan]:
        """The cached plans (each under its own ``key``), least recently used first."""
        return sorted(self._plans.values(), key=attrgetter("last_used"))

    def evict(self) -> List[CollectivePlan]:
        """Make room for one more plan; returns the plans evicted by LRU.

        The caller releases them (eviction happens at a dispatch every
        rank executes, so the releases stay in lock-step) *before*
        compiling the newcomer: the workspaces they retire are quiesced by
        a later barrier — the batch's, or the newcomer's miss — and only
        then scrubbed and leasable again.
        """
        evicted: List[CollectivePlan] = []
        if self.capacity:
            for plan in self.lru():
                if len(self._plans) < self.capacity:
                    break
                if plan.pins > 0:
                    continue
                evicted.append(self._plans.pop(plan.key))
                self._evictions += 1
        return evicted

    def put(self, key: PlanKey, plan: CollectivePlan) -> None:
        """Insert a freshly built plan as the most recently used."""
        self._clock += 1
        plan.last_used = self._clock
        self._plans[key] = plan

    def pin(self, key: PlanKey) -> None:
        """Add one eviction-protection reference (persistent handles)."""
        self._plans[key].pins += 1

    def unpin(self, key: PlanKey) -> None:
        """Drop one pin reference; the plan stays cached until evicted.

        Reference-counted: two persistent handles over the same shape each
        hold their own pin, so closing one never exposes the other to
        eviction.
        """
        plan = self._plans.get(key)
        if plan is not None and plan.pins > 0:
            plan.pins -= 1

    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            entries=len(self._plans),
            capacity=self.capacity,
            pinned=sum(1 for p in self._plans.values() if p.pins > 0),
        )

    def close_all(self) -> None:
        """Close every cached plan exactly once (local, idempotent)."""
        while self._plans:
            _, plan = self._plans.popitem()
            plan.close()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: object) -> bool:
        return key in self._plans
