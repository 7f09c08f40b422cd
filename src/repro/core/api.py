"""High-level user-facing API: the policy-driven :class:`Communicator`.

A :class:`Communicator` wraps one rank's GASPI runtime and exposes the
paper's collectives with an mpi4py-flavoured interface.  Three ideas make
up the v2 API:

1. **Consistency policies.**  The paper's consistency dial — data
   thresholds, process thresholds, SSP slack — is a first-class value
   object, :class:`~repro.core.policy.ConsistencyPolicy`, accepted by
   every collective (and settable as the communicator default) instead of
   loose per-call kwargs::

       from repro import run_spmd, Communicator, ConsistencyPolicy

       def worker(runtime):
           comm = Communicator(runtime)
           data = np.full(1_000, comm.rank, dtype=np.float64)
           total = comm.allreduce(data, op="sum")              # strict
           comm.bcast(data, root=0,
                      policy=ConsistencyPolicy.data_threshold(0.25))
           return total

       results = run_spmd(8, worker)

2. **Registry-routed execution.**  Every collective resolves its
   algorithm through :data:`~repro.core.registry.REGISTRY`; the default
   ``algorithm="auto"`` consults a tuning table
   (:mod:`repro.core.tuning`) that picks latency-optimal algorithms for
   small payloads and bandwidth-optimal ones for large payloads, exactly
   as Intel MPI's ``I_MPI_ADJUST_*`` tables do.  The resolved name is
   recorded on the returned :class:`~repro.core.policy.CollectiveResult`
   and on :attr:`Communicator.last_result`.

3. **Sub-communicators.**  :meth:`Communicator.split` and
   :meth:`Communicator.dup` carve rank subsets out of a communicator
   (built on group-scoped runtimes with disjoint segment-id ranges), so
   workloads can run collectives on rank subsets — and, when a machine
   model is attached (``machine=``), every collective additionally
   replays its registered schedule on the simulator
   (:mod:`repro.simulate.executor`) and reports the simulated time.

Of the v1 loose kwargs only ``allreduce_ssp(slack=)`` and the short
``algorithm=`` aliases are kept; thresholds and modes are ``policy=``.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import replace as dataclass_replace
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.errors import GaspiError
from ..gaspi.group import Group
from ..gaspi.runtime import GaspiRuntime, RuntimeWrapper
from ..gaspi.subruntime import GroupRuntime
from ..telemetry.core import CLOCK, NULL_TELEMETRY, Telemetry
from ..utils.logging import get_logger
from ..utils.validation import require
from .pipeline import CollectiveHandle, ProgressEngine
from .plan import CollectivePlan, PlanCache, PlanCacheStats, PlanKey, schedule_nbytes
from .policy import (
    STRICT,
    CollectiveRequest,
    CollectiveResult,
    ConsistencyPolicy,
    check_policy,
)
from .reduction_ops import ReductionOp
from .registry import REGISTRY, AlgorithmInfo, AlgorithmRegistry
from .tuning import DEFAULT_TABLES, TuningTable
from .workspace import WorkspacePool

#: First segment id handed out by a communicator with ``segment_base=0``.
_SEGMENT_BASE_DEFAULT = 200

#: Width of the segment-id range a default communicator owns.  The lower
#: half serves this communicator's own collectives; the upper half is
#: partitioned among its sub-communicators.
_SEGMENT_SPAN_DEFAULT = 1 << 30

#: Maximum number of ``split()``/``dup()`` calls per communicator: each
#: consumes one child slice of the upper half of the segment-id range.
_MAX_CHILD_SPLITS = 16

#: Degraded-collective workspaces kept open for correction; older handles
#: are closed so a persistent failure cannot grow memory without bound.
_MAX_OPEN_DEGRADED = 8

#: Compiled collective plans kept in the LRU cache; like the degraded
#: workspace cap, this bounds the workspaces a communicator can hold
#: leased — a workload that never repeats a shape evicts the oldest plan
#: (whose workspace goes back to the pool) instead of growing without limit.
_MAX_CACHED_PLANS = 16

#: Call signatures a communicator's dispatch memo holds before it is cleared.
_MAX_MEMO = 256

logger = get_logger("core.api")

#: ``allreduce_ssp(slack=k)``'s policy, built once per slack.
_ssp_policy = lru_cache(maxsize=None)(ConsistencyPolicy.ssp)

#: Shorthand algorithm aliases kept from the v1 API, per collective.
_ALGORITHM_ALIASES: Dict[str, Dict[str, str]] = {
    "allreduce": {
        "ring": "gaspi_allreduce_ring",
        "hypercube": "gaspi_allreduce_ssp_hypercube",
        "ssp_hypercube": "gaspi_allreduce_ssp_hypercube",
        "tolerant": "gaspi_allreduce_tolerant",
    },
    "bcast": {
        "bst": "gaspi_bcast_bst",
        "flat": "gaspi_bcast_flat",
        "tolerant": "gaspi_bcast_tolerant",
    },
    "reduce": {"bst": "gaspi_reduce_bst", "tolerant": "gaspi_reduce_tolerant"},
    "alltoall": {"direct": "gaspi_alltoall"},
    "allgather": {"ring": "gaspi_allgather_ring"},
    "barrier": {"dissemination": "gaspi_barrier_dissemination"},
}


class _Bound:
    """What one call signature, ``sig``, dispatches to (``Communicator._call``).

    ``info`` (the resolved algorithm) and ``key`` (the plan key) are pure
    functions of ``sig`` while the memo lives.  ``plan`` is set while a hit
    needs nothing else (``Communicator._memoize``), with ``request`` its
    reusable request.
    """

    __slots__ = ("sig", "info", "key", "plan", "request")

    def __init__(self, sig: tuple) -> None:
        self.sig = sig
        self.info = self.key = self.plan = self.request = None


class Communicator:
    """Per-rank facade over the collective library.

    Parameters
    ----------
    runtime:
        The rank's :class:`~repro.gaspi.runtime.GaspiRuntime` (or a
        :class:`~repro.gaspi.subruntime.GroupRuntime` view of one).
    segment_base:
        First segment id this communicator may use.  Two communicators
        living on the same world must use disjoint ranges; every rank must
        construct its communicators in the same order with the same bases.
    policy:
        Default :class:`ConsistencyPolicy` for collectives called without
        an explicit one (strict by default).
    tuning:
        :class:`~repro.core.tuning.TuningTable` backing
        ``algorithm="auto"`` (the family default table when ``None``).
    machine:
        Optional :class:`~repro.simulate.machine.MachineModel`.  When set,
        every dispatched collective also replays its registered schedule
        on the simulator and attaches the
        :class:`~repro.simulate.executor.SimulationResult` to the result
        (the "simulator backend": one dispatch path serves correctness
        runs and figure regeneration).
    family:
        Algorithm family ``auto`` selects from (``"gaspi"`` by default).
    registry:
        Algorithm registry to dispatch through (the global one by default).
    faults:
        Optional :class:`~repro.faults.injection.FaultPlan`.  The runtime
        is wrapped in a fault-injecting
        :class:`~repro.faults.injection.FaultyRuntime`, the plan's arrival
        skew is applied at every collective entry, ``algorithm="auto"``
        prefers registered ``fault_tolerant`` algorithms, ranks reported
        missing are remembered (:attr:`suspected_ranks`) and skipped by
        subsequent fault-tolerant collectives, and the simulator backend
        replays the degraded schedule with the plan's arrival offsets.
        Whether the stack can lose contributions is re-read by every call
        but a plan-cache hit, so a recovered crash (``FaultyRuntime.recover``)
        returns the communicator to the tuned, planned algorithms.
    detect_timeout:
        Failure-detection window (seconds) handed to fault-tolerant
        collectives (their module default when ``None``).
    plan_cache:
        Capacity of the compiled-plan LRU cache (``0`` disables planning
        entirely, forcing every call down the cold path).  Repeated calls
        with the same shape — ``(collective, algorithm, size, root,
        nbytes, dtype, op, policy)`` — are served by a compiled
        :class:`~repro.core.plan.CollectivePlan`: frozen topology and
        notification layout, a workspace leased for the plan's lifetime
        and a cached simulator schedule, so the steady-state cost is the
        data movement and the reduction kernels only.  Cold calls and
        evicted plans recycle their workspaces through the communicator's
        :class:`~repro.core.workspace.WorkspacePool`.  Observe it through
        :meth:`plan_cache_stats`; pin plans explicitly with
        :meth:`persistent`.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` registry.  The
        runtime is wrapped in a
        :class:`~repro.telemetry.TelemetryRuntime` (outermost, outside
        any fault layer) and every dispatch records a span plus latency,
        plan-cache, and traffic metrics into the registry.  Off by
        default: without a registry the instrumentation points hit shared
        no-op instruments.  See the README's "Observability" section.
    """

    def __init__(
        self,
        runtime: GaspiRuntime,
        segment_base: int = _SEGMENT_BASE_DEFAULT,
        *,
        policy: Optional[ConsistencyPolicy] = None,
        tuning: Optional[TuningTable] = None,
        machine=None,
        family: str = "gaspi",
        registry: Optional[AlgorithmRegistry] = None,
        segment_span: int = _SEGMENT_SPAN_DEFAULT,
        faults=None,
        detect_timeout: Optional[float] = None,
        plan_cache: int = _MAX_CACHED_PLANS,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if faults is not None:
            from ..faults.injection import FaultyRuntime

            runtime = FaultyRuntime(runtime, faults)
        if telemetry is not None and getattr(runtime, "telemetry", None) is not telemetry:
            # Telemetry wraps outermost (outside any fault layer) so posts
            # a fault plan swallows still count as attempted.  A runtime
            # already carrying this registry — a GroupRuntime over an
            # instrumented parent — is left alone so child collectives are
            # not counted twice.
            runtime = runtime.instrumented(telemetry)
        require(
            detect_timeout is None or detect_timeout > 0,
            f"detect_timeout must be positive, got {detect_timeout!r}",
        )
        self.runtime = runtime
        self._segment_base = int(segment_base)
        self._segment_span = int(segment_span)
        #: Lower half of the id range; children own the upper half.
        self._pool = WorkspacePool(
            self.runtime, self._segment_base, self._segment_span // 2
        )
        self._policy = policy or STRICT
        check_policy(self._policy)
        require(
            tuning is not None or family in DEFAULT_TABLES,
            f"unknown tuning family {family!r} (available: "
            f"{sorted(DEFAULT_TABLES)}); pass an explicit tuning= table to "
            f"use a custom family",
        )
        self._family = family
        self._registry = registry if registry is not None else REGISTRY
        self._tuning = tuning or DEFAULT_TABLES[family]
        self._machine = machine
        self._faults = faults
        self._detect_timeout = detect_timeout
        self._suspected: Set[int] = set()
        self._open_degraded: List = []
        self._collective_seq = 0
        self._split_count = 0
        #: Live child communicators from split()/dup(), as (weakref, members)
        #: pairs, so reinstate() can propagate into their suspicion maps.
        self._children: List[tuple] = []
        #: For a shrink() child: child rank -> parent-communicator rank.
        #: None for a world that was not born from a shrink.
        self._parent_ranks: Optional[Tuple[int, ...]] = None
        #: Observers fired after every completed blocking collective — the
        #: "consistent boundary" hook the recovery supervisor drives its
        #: checkpoint/shrink escalation from.
        self._boundary_hooks: List[Callable[["Communicator"], None]] = []
        self._in_boundary_hook = False
        self._last_result: Optional[CollectiveResult] = None
        self._last_segment_id: Optional[int] = None
        self._plans = PlanCache(plan_cache)
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._telemetry = tel
        # Instrument handles resolved once; with telemetry disabled these
        # are shared no-ops, so the hot path pays one method call each.
        self._c_calls = tel.counter("collective.calls")
        self._c_errors = tel.counter("collective.errors")
        self._c_degraded = tel.counter("collective.degraded")
        self._c_nonblocking = tel.counter("collective.nonblocking")
        self._h_latency = tel.histogram("collective.latency_s")
        self._c_cache_hits = tel.counter("plan_cache.hits")
        self._c_cache_misses = tel.counter("plan_cache.misses")
        self._c_cache_evictions = tel.counter("plan_cache.evictions")
        self._progress = ProgressEngine(self.runtime, telemetry=tel)
        #: A loss-capable fault plan in the runtime stack; re-read by every
        #: call that is not a memo hit (:meth:`_faults_changed`).
        self._injected = self.runtime.fault_injected
        #: Call signature -> its dispatch decision (see :meth:`_call`).
        self._memo: Dict[tuple, _Bound] = {}
        #: A plan-cache hit may skip the per-call dispatch: nothing attached
        #: acts per call (machine model, detection metadata, arrival skew).
        self._bindable = (
            machine is None
            and detect_timeout is None
            and (faults is None or (not faults.skew and faults.skew_fn is None))
        )

    # ------------------------------------------------------------------ #
    # backend-selected launching
    # ------------------------------------------------------------------ #
    @classmethod
    def run(
        cls,
        num_ranks: int,
        worker,
        *,
        backend: str = "threaded",
        timeout: Optional[float] = 120.0,
        **comm_kwargs,
    ) -> list:
        """Launch a rank world on ``backend`` and run ``worker(comm)`` per rank.

        The one-call form of backend selection: picks the substrate
        (``"threaded"`` — thread-per-rank, or ``"shm"`` — process-per-rank
        over POSIX shared memory, true parallelism), builds one
        communicator per rank with ``comm_kwargs`` (``policy=``,
        ``faults=``, ``plan_cache=``, ...), and closes it after the
        worker returns.  Returns the per-rank results, indexed by rank::

            totals = Communicator.run(8, lambda comm:
                comm.allreduce(np.ones(1 << 20)), backend="shm")
        """
        from ..gaspi.launch import run_backend

        def entry(runtime):
            comm = cls(runtime, **comm_kwargs)
            try:
                return worker(comm)
            finally:
                comm.close()

        return run_backend(num_ranks, entry, backend=backend, timeout=timeout)

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self.runtime.rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self.runtime.size

    @property
    def policy(self) -> ConsistencyPolicy:
        """The default consistency policy of this communicator."""
        return self._policy

    @property
    def tuning(self) -> TuningTable:
        """The tuning table backing ``algorithm="auto"``."""
        return self._tuning

    @property
    def machine(self):
        """The attached machine model (``None`` on pure threaded runs)."""
        return self._machine

    @property
    def last_result(self) -> Optional[CollectiveResult]:
        """Full result of the most recent dispatched collective."""
        return self._last_result

    @property
    def last_segment_id(self) -> Optional[int]:
        """Workspace segment id of the most recent dispatched collective.

        A recovered rank needs it to push a late contribution into the
        degraded exchange it crashed out of
        (:func:`~repro.faults.recovery.send_late_contribution`): the pool
        hands out segment ids in SPMD lock-step, so every rank — including
        one whose dispatch raised mid-collective — observes the same id
        here.
        """
        return self._last_segment_id

    @property
    def faults(self):
        """The attached fault plan (``None`` on unperturbed runs)."""
        return self._faults

    @property
    def telemetry(self) -> Telemetry:
        """The attached telemetry registry (a shared no-op when disabled)."""
        return self._telemetry

    @property
    def suspected_ranks(self) -> frozenset:
        """Ranks a fault-tolerant collective has reported missing.

        Subsequent fault-tolerant collectives neither write to nor wait
        for them; :meth:`reinstate` clears entries once a rank recovered.
        """
        return frozenset(self._suspected)

    @property
    def parent_ranks(self) -> Optional[Tuple[int, ...]]:
        """For a :meth:`shrink` child: child rank -> parent rank, in order.

        The agreement round may remove *more* ranks than the caller's
        ``failed`` set (absent voters join the removal), so this is the
        authoritative survivor mapping.  ``None`` for a communicator not
        born from a shrink.
        """
        return self._parent_ranks

    def suspect(self, *ranks: int) -> None:
        """Start suspecting ranks before any collective timed them out.

        The entry point for an external failure detector
        (:class:`repro.health.HeartbeatDetector`): a suspected rank is
        neither written to nor waited for by the fault-tolerant
        collectives, so suspicion fed in here removes the per-call
        detection-timeout wait entirely.  Propagates into child
        communicators like the collective-driven suspicion does;
        :meth:`reinstate` clears it again.
        """
        added: List[int] = []
        for rank in ranks:
            rank = int(rank)
            if rank == self.rank or not (0 <= rank < self.size):
                continue
            if rank not in self._suspected:
                logger.info("rank %d: suspecting rank %d", self.rank, rank)
                self._suspected.add(rank)
                added.append(rank)
        if added:
            self._memo.clear()
        if added and self._children:
            live: List[tuple] = []
            for ref, members in self._children:
                child = ref()
                if child is None:
                    continue
                live.append((ref, members))
                translated = [members.index(r) for r in added if r in members]
                if translated:
                    child.suspect(*translated)
            self._children = live

    def add_boundary_hook(
        self, hook: Callable[["Communicator"], None]
    ) -> Callable[["Communicator"], None]:
        """Fire ``hook(self)`` after every completed blocking collective.

        Collective boundaries are the only points where every rank's
        state is mutually consistent (Xu & Cooperman's collective-clock
        argument), which makes them the safe trigger for checkpoint and
        shrink decisions.  Hooks run on the dispatching thread, after the
        result is published to :attr:`last_result`; a hook that itself
        dispatches collectives (a recovery action) is not re-entered.
        Returns the hook so callers can :meth:`remove_boundary_hook` it.
        """
        self._boundary_hooks.append(hook)
        return hook

    def remove_boundary_hook(
        self, hook: Callable[["Communicator"], None]
    ) -> None:
        """Detach a boundary hook (no-op when absent)."""
        try:
            self._boundary_hooks.remove(hook)
        except ValueError:
            pass

    def _fire_boundary_hooks(self) -> None:
        if not self._boundary_hooks or self._in_boundary_hook:
            return
        self._in_boundary_hook = True
        try:
            for hook in list(self._boundary_hooks):
                hook(self)
        finally:
            self._in_boundary_hook = False

    def reinstate(self, *ranks: int) -> None:
        """Stop suspecting ranks (collective hygiene, call it on all ranks).

        Use after a crashed rank recovered and its late contribution was
        folded in, so the next collectives include it again.  Propagates
        into the suspicion maps of child communicators created by
        :meth:`split`/:meth:`dup` before the reinstate — a recovered rank
        must not stay excluded from sub-communicator collectives.
        """
        cleared: List[int] = []
        for rank in ranks:
            rank = int(rank)
            if rank in self._suspected:
                logger.info("rank %d: reinstating rank %d", self.rank, rank)
                self._memo.clear()
            self._suspected.discard(rank)
            cleared.append(rank)
        if cleared and self._children:
            self._propagate_reinstate(cleared)

    def _propagate_reinstate(self, ranks: Iterable[int]) -> None:
        """Clear reinstated ranks from live children (in child numbering).

        Children track their own children, so the clear recurses through
        the whole sub-communicator tree; dead weakrefs are pruned along
        the way.
        """
        live: List[tuple] = []
        for ref, members in self._children:
            child = ref()
            if child is None:
                continue
            live.append((ref, members))
            translated = [
                members.index(r) for r in ranks if r in members
            ]
            if translated:
                child.reinstate(*translated)
        self._children = live

    @property
    def is_subcommunicator(self) -> bool:
        """True when this communicator covers a strict rank subset."""
        return isinstance(self.runtime, GroupRuntime)

    # ------------------------------------------------------------------ #
    # algorithm resolution and dispatch
    # ------------------------------------------------------------------ #
    def resolve(
        self,
        collective: str,
        nbytes: int = 0,
        algorithm: str = "auto",
        policy: Optional[ConsistencyPolicy] = None,
    ) -> AlgorithmInfo:
        """Resolve which registered algorithm a call would execute.

        ``algorithm="auto"`` consults the tuning table with this
        communicator's size; explicit names accept full registry names
        ("gaspi_allreduce_ring") or the short v1 aliases ("ring").
        Raises :class:`ValueError` for unknown or mismatched names.
        Not memoized here: a dispatch remembers what it resolved per call
        signature (:meth:`_call`).
        """
        policy = policy or self._policy
        if algorithm in (None, "auto"):
            if self.runtime.fault_injected or policy.on_failure != "abort":
                info = self._fault_tolerant_candidate(collective, policy)
                if info is not None:
                    return info
            return self._tuning.select(
                collective,
                self.size,
                nbytes,
                policy=policy,
                registry=self._registry,
                executable=True,
            )
        name = str(algorithm)
        candidates = [
            name,
            _ALGORITHM_ALIASES.get(collective, {}).get(name, ""),
            f"{self._family}_{collective}_{name}",
        ]
        for candidate in candidates:
            if candidate and candidate in self._registry:
                info = self._registry.get(candidate)
                require(
                    info.collective == collective,
                    f"algorithm {candidate!r} implements {info.collective!r}, "
                    f"not {collective!r}",
                )
                return info
        known = self._registry.names(collective=collective)
        raise ValueError(
            f"unknown {collective} algorithm {algorithm!r}; registered: "
            f"{', '.join(known) or '<none>'} (or 'auto')"
        )

    def _fault_tolerant_candidate(
        self, collective: str, policy: ConsistencyPolicy
    ) -> Optional[AlgorithmInfo]:
        """First registered fault-tolerant algorithm serving this request.

        Consulted by ``algorithm="auto"`` when a fault plan is attached or
        the policy asks for degraded completion; ``None`` (fall back to
        the tuning table) when no tolerant implementation fits.
        """
        for name in self._registry.names(collective=collective, executable=True):
            info = self._registry.get(name)
            if not info.capabilities.fault_tolerant:
                continue
            supported, _ = info.supports(self.size, policy)
            if supported:
                return info
        return None

    def _track_degraded(self, detail) -> None:
        """Remember a correction-capable workspace for eventual cleanup.

        A persistent failure would otherwise grow one workspace segment
        per degraded collective; the oldest handles are closed beyond a
        small window — correcting a long-superseded collective is not a
        supported pattern, re-running it is.
        """
        if not getattr(detail, "correctable", False):
            return
        self._open_degraded.append(detail)
        while len(self._open_degraded) > _MAX_OPEN_DEGRADED:
            self._open_degraded.pop(0).close()

    # ------------------------------------------------------------------ #
    # compiled plans
    # ------------------------------------------------------------------ #
    def _plan_for(
        self, info: AlgorithmInfo, request: CollectiveRequest, bound: Optional[_Bound] = None
    ) -> Optional[CollectivePlan]:
        """Cached (or freshly compiled) plan serving this request, or ``None``.

        ``None`` routes the call down the cold path: planning disabled
        (capacity 0), an unplannable algorithm (the fault-tolerant trio,
        whose degraded completions keep their per-call correction
        workspaces), or a loss-capable fault plan.  A slack > 0 key is
        planned whatever the capacity or fault plan, and never evicted:
        the slack is part of the key, and the plan *is* the SSP state —
        its mailboxes and its logical clock, which a cold call would
        restart at 1 every time.  Suspicion reroutes nothing: a strict
        plan never reads ``known_failed``.

        Cache state evolves in SPMD lock-step — every rank dispatches the
        same sequence with the same keys — so hits, builds and evictions
        agree on all ranks and the collective plan construction pairs up.
        """
        if not info.plannable or (
            (self._plans.capacity == 0 or self._injected) and not request.policy.slack
        ):
            return None
        key = bound and bound.key
        if key is None:
            key = PlanKey.from_request(info, self.runtime, request)
            if key is None:
                return None
            if bound is not None:
                bound.key = key
        plan = self._plans.get(key)
        if plan is None:
            self._c_cache_misses.add()
            evicted = self._plans.evict()
            if evicted:
                self._c_cache_evictions.add(len(evicted))
                logger.debug(
                    "rank %d: plan cache evicted %d plan(s) compiling "
                    "%s/%s (capacity %d)",
                    self.rank, len(evicted), info.collective, info.name,
                    self._plans.capacity,
                )
                # Evictions happen at the same dispatch on every rank; the
                # pool retires each workspace, and the next batch or miss
                # barrier drains what a rank a step behind still has in
                # flight (the bcast consume-acks) before the scrub.
                for old in evicted:
                    self._progress.wait_plan(old, request.timeout)
                    old.release()
            plan = info.plan(
                self.runtime, key, self._segment_base, request.policy, self._pool
            )
            self._plans.put(key, plan)
        else:
            self._c_cache_hits.add()
        return plan

    def plan_cache_stats(self) -> PlanCacheStats:
        """Hit/miss/eviction counters of the compiled-plan cache."""
        return self._plans.stats()

    # ------------------------------------------------------------------ #
    # dispatch: one memo lookup, then a bound plan or the compile path
    # ------------------------------------------------------------------ #
    def _call(
        self, collective: str, algorithm: str, sendbuf, recvbuf=None, root: int = 0,
        op: str | ReductionOp = "sum", policy: Optional[ConsistencyPolicy] = None,
    ) -> CollectiveResult:  # fmt: skip
        """One blocking collective.

        The memo key is everything the dispatch decision depends on, the
        policy by value (its hash is computed once, so a policy built per
        call hits like a shared one).  A hit on an entry bound to a plan
        still cached runs :meth:`_run_bound`; anything else is the compile
        path (:meth:`_dispatch_impl`), which fills the entry.
        """
        policy = policy or self._policy
        buf = np.asarray(sendbuf)
        sig = (collective, algorithm, root, op, policy, buf.dtype, buf.nbytes, 0)
        bound = self._memo.get(sig)
        if bound is not None and bound.plan is not None and not bound.plan.closed:
            return self._dispatch(
                collective, buf.nbytes, self._run_bound, bound, policy, sendbuf, recvbuf
            )
        request = CollectiveRequest(collective, sendbuf, recvbuf, root, op, policy)
        payload = request.nbytes
        return self._dispatch(
            collective, payload, self._dispatch_impl, collective, algorithm, request,
            payload, bound or _Bound(sig),
        )  # fmt: skip

    def _dispatch(self, collective: str, payload: int, run, *args) -> CollectiveResult:
        """Run one blocking collective, ``run(*args)``, then the boundary hooks.

        With telemetry attached, the dispatch is recorded as one event per
        call (algorithm, payload bytes, plan-cache outcome, degraded
        outcome with ``missing_ranks``) plus a latency histogram sample,
        both from one pair of clock reads; without it, one attribute check
        routes straight to ``run``.
        """
        tel = self._telemetry
        if not tel.enabled:
            result = run(*args)
            if self._boundary_hooks:
                self._fire_boundary_hooks()
            return result
        self._c_calls.value += 1
        plans = self._plans
        hits0 = plans._hits
        misses0 = plans._misses
        t0 = CLOCK()
        try:
            result = run(*args)
        except Exception as exc:
            self._c_errors.value += 1
            tel.record_span(
                collective, "collective", t0, CLOCK(),
                ("nbytes", payload, "outcome", "error", "error", type(exc).__name__),
            )  # fmt: skip
            raise
        t1 = CLOCK()
        cache = (
            "hit" if plans._hits > hits0
            else "miss" if plans._misses > misses0
            else "bypass"
        )  # fmt: skip
        args = ("nbytes", payload, "algorithm", result.algorithm, "plan_cache", cache)
        if result.missing_ranks:
            self._c_degraded.value += 1
            args += ("outcome", "degraded", "missing_ranks", sorted(result.missing_ranks))
        else:
            args += ("outcome", "ok")
        tel.record_span(collective, "collective", t0, t1, args)
        self._h_latency.observe(t1 - t0)
        self._fire_boundary_hooks()
        return result

    def _run_bound(
        self, bound: _Bound, policy: ConsistencyPolicy, sendbuf, recvbuf
    ) -> CollectiveResult:
        """A memo hit: what a plan-cache hit still does, and nothing else."""
        plan = bound.plan
        self._plans.hit(plan)
        self._c_cache_hits.add()
        self._collective_seq += 1
        if self._progress.active:
            # A nonblocking handle may still be driving this plan; a
            # blocking call must not race it on the plan's workspace and
            # notification ids (both would consume the other's arrivals).
            self._progress.wait_plan(plan)
        request = bound.request
        request.sendbuf = sendbuf
        request.recvbuf = recvbuf
        self._last_segment_id = plan.segment_id
        try:
            result = plan.execute(request)
        finally:
            request.sendbuf = request.recvbuf = None
        result.algorithm = bound.info.name
        result.policy = policy
        self._last_result = result
        return result

    def _memoize(
        self, bound: _Bound, info: AlgorithmInfo, plan: Optional[CollectivePlan],
        request: CollectiveRequest,
    ) -> None:  # fmt: skip
        """Record a compiled call's decision, binding its plan when a hit
        may skip everything else: :attr:`_bindable` and nobody suspected.
        A bound entry keeps ``request`` (a finished call's) for its hits."""
        bound.info, bound.plan = info, None
        if plan is not None and self._bindable and not self._suspected:
            request.sendbuf = request.recvbuf = None
            request.segment_id = plan.segment_id
            bound.plan, bound.request = plan, request
        if bound.sig not in self._memo:
            if len(self._memo) >= _MAX_MEMO:
                self._memo.clear()
            self._memo[bound.sig] = bound

    def _faults_changed(self) -> bool:
        """Re-read ``runtime.fault_injected``; on a change (a recovered crash
        lowers it) forget every decision made under the old value."""
        injected = self.runtime.fault_injected
        if injected == self._injected:
            return False
        self._injected = injected
        self._memo.clear()
        return True

    def _dispatch_impl(
        self, collective: str, algorithm: str, request: CollectiveRequest, payload: int,
        bound: Optional[_Bound] = None,
    ) -> CollectiveResult:  # fmt: skip
        """The compile path: every per-call step, then the memo entry."""
        check_policy(request.policy)
        seq = self._collective_seq
        self._collective_seq += 1
        if self._faults is not None:
            # Arrival skew: the rank enters the collective late, which is
            # the process-arrival-pattern regime of the fault scenarios.
            pause = self._faults.arrival_skew(self.rank, seq)
            if pause > 0.0:
                time.sleep(pause)
        if self._suspected:
            request.metadata.setdefault("known_failed", frozenset(self._suspected))
        if self._detect_timeout is not None:
            request.metadata.setdefault("detect_timeout", self._detect_timeout)
        nbytes = schedule_nbytes(collective, self.size, payload)
        if self._faults_changed() and bound is not None:
            bound = _Bound(bound.sig)
        info = (bound and bound.info) or self.resolve(
            collective, nbytes, algorithm, request.policy
        )
        plan = self._plan_for(info, request, bound)
        if plan is not None:
            if self._progress.active:
                self._progress.wait_plan(plan, request.timeout)
            request.segment_id = plan.segment_id
        else:
            # Cold path: a throwaway plan leases (or reserves an id) from the pool.
            request.pool = self._pool
        try:
            if plan is None:
                result = info.run(self.runtime, request)
            else:
                result = plan.execute(request)
                result.algorithm, result.policy = info.name, request.policy
        except Exception as exc:
            # A below-threshold abort still leaves a correction-capable
            # workspace behind; track it so close() can release it even if
            # the caller never touches exc.detail.
            self._track_degraded(getattr(exc, "detail", None))
            raise
        finally:
            self._last_segment_id = (
                self._pool.last_id if plan is None else plan.segment_id
            )
        if result.missing_ranks:
            newly = set(result.missing_ranks) - self._suspected
            if newly:
                logger.info(
                    "rank %d: %s completed degraded, now suspecting ranks %s",
                    self.rank, collective, sorted(newly),
                )
                self._memo.clear()
            self._suspected.update(result.missing_ranks)
            self._track_degraded(result.detail)
        if self._machine is not None:
            from ..simulate.executor import simulate_schedule

            if plan is not None and self._faults is None:
                # Compiled fast path: the schedule is built once per plan.
                schedule = plan.schedule(info)
            else:
                builder_kwargs = info.schedule_kwargs(request.policy)
                if info.capabilities.fault_tolerant and request.metadata.get(
                    "known_failed"
                ):
                    builder_kwargs["failed"] = sorted(request.metadata["known_failed"])
                schedule = info.builder(self.size, nbytes, **builder_kwargs)
            rank_offsets = None
            if self._faults is not None:
                from ..faults.injection import degrade_schedule

                schedule = degrade_schedule(schedule, self._faults)
                rank_offsets = self._faults.arrival_offsets(self.size, seq)
            result.simulated = simulate_schedule(
                schedule,
                self._machine.with_ranks(self.size),
                rank_offsets=rank_offsets,
            )
        self._last_result = result
        if bound is not None:
            self._memoize(bound, info, plan, request)
        return result

    # ------------------------------------------------------------------ #
    # synchronisation
    # ------------------------------------------------------------------ #
    def barrier(self, algorithm: Optional[str] = None) -> None:
        """Barrier over the communicator's ranks.

        The default uses the runtime's native group barrier; passing
        ``algorithm`` (e.g. ``"auto"`` or ``"dissemination"``) routes
        through the registered notification barrier instead.
        """
        if algorithm is None:
            self.runtime.barrier()
            return
        request = CollectiveRequest(collective="barrier")
        self._dispatch("barrier", 0, self._dispatch_impl, "barrier", algorithm, request, 0)

    # ------------------------------------------------------------------ #
    # broadcast / reduce (eventually consistent)
    # ------------------------------------------------------------------ #
    def bcast(
        self,
        buffer: np.ndarray,
        root: int = 0,
        policy: Optional[ConsistencyPolicy] = None,
        algorithm: str = "auto",
    ) -> CollectiveResult:
        """Broadcast ``buffer`` from ``root`` (in place on non-root ranks).

        A policy with ``threshold < 1`` ships only the leading fraction of
        the payload — the eventually consistent mode of the paper.
        """
        return self._call("bcast", algorithm, buffer, None, root, "sum", policy)

    def reduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        root: int = 0,
        op: str | ReductionOp = "sum",
        policy: Optional[ConsistencyPolicy] = None,
        algorithm: str = "auto",
    ) -> CollectiveResult:
        """Reduce ``sendbuf`` onto ``root`` under a consistency policy.

        ``ConsistencyPolicy.data_threshold(f)`` reduces only the leading
        ``f`` fraction of the vector; ``process_threshold(f)`` reduces the
        full vector over a fraction of the processes (Figures 9 and 10).
        """
        return self._call("reduce", algorithm, sendbuf, recvbuf, root, op, policy)

    # ------------------------------------------------------------------ #
    # allreduce
    # ------------------------------------------------------------------ #
    def allreduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        op: str | ReductionOp = "sum",
        policy: Optional[ConsistencyPolicy] = None,
        algorithm: str = "auto",
    ) -> np.ndarray:
        """Consistent allreduce; returns the reduced vector.

        ``algorithm="auto"`` picks the latency-optimal hypercube for small
        payloads and the paper's segmented pipelined ring for large ones;
        explicit choices ("ring", "hypercube", or any registry name) are
        honoured after a capability check.  The dispatched algorithm and
        status live on :attr:`last_result`.
        """
        return self._call("allreduce", algorithm, sendbuf, recvbuf, 0, op, policy).value

    # ------------------------------------------------------------------ #
    # nonblocking collectives (progress engine)
    # ------------------------------------------------------------------ #
    def ibcast(
        self,
        buffer: np.ndarray,
        root: int = 0,
        policy: Optional[ConsistencyPolicy] = None,
        algorithm: str = "auto",
        tag: int = 0,
    ) -> CollectiveHandle:
        """Nonblocking broadcast; returns a :class:`CollectiveHandle`.

        The transfer advances chunk by chunk whenever the handle (or
        :meth:`progress`) is pumped, and completes in :meth:`CollectiveHandle.wait`
        — so the caller can overlap compute with the payload movement::

            h = comm.ibcast(weights, root=0)
            loss = expensive_forward_pass(batch)   # overlaps the bcast
            h.wait()

        Buffer ownership (the MPI rule): the library posts chunks straight
        from ``buffer`` on the root and writes into it elsewhere, so it
        must not be modified (root) or read (non-root) until the handle
        completed.
        """
        return self._start("bcast", algorithm, buffer, None, root, "sum", policy, tag)

    def ireduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        root: int = 0,
        op: str | ReductionOp = "sum",
        policy: Optional[ConsistencyPolicy] = None,
        algorithm: str = "auto",
        tag: int = 0,
    ) -> CollectiveHandle:
        """Nonblocking reduce onto ``root``; returns a handle.

        ``tag`` keys the compiled plan instance: concurrent same-shape
        requests with distinct tags advance independently.

        Buffer ownership (the MPI rule): ``sendbuf`` is read — folded and
        posted without an entry copy — until the handle completed, and
        ``recvbuf`` is undefined until then; modify neither before
        ``wait()``/``test()`` reports completion.
        """
        return self._start("reduce", algorithm, sendbuf, recvbuf, root, op, policy, tag)

    def iallreduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        op: str | ReductionOp = "sum",
        policy: Optional[ConsistencyPolicy] = None,
        algorithm: str = "auto",
        tag: int = 0,
    ) -> CollectiveHandle:
        """Nonblocking allreduce; returns a handle (``MPI_Iallreduce``).

        The gradient-overlap idiom of the ML layer: issue one handle per
        bucket as its gradient becomes ready (a distinct ``tag`` per
        bucket gives each its own concurrent pipeline), keep computing,
        then drain::

            handles = [comm.iallreduce(g, recvbuf=o, tag=i)
                       for i, (g, o) in enumerate(buckets)]
            more_compute()
            comm.wait_all()

        Buffer ownership (the MPI rule): ``sendbuf`` is read in place —
        step-0 sends and every fold take it straight from the caller's
        memory — and ``recvbuf`` is the working vector, so ``sendbuf`` must
        stay unmodified and ``recvbuf`` unread until the handle completed.
        ``recvbuf`` may be ``sendbuf`` itself (in-place), and a view of a
        live array (one gradient bucket) is fine as long as that slice is
        left alone while in flight.
        """
        return self._start("allreduce", algorithm, sendbuf, recvbuf, 0, op, policy, tag)

    def progress(self) -> int:
        """Advance every in-flight nonblocking collective without blocking.

        Returns the number of handles still in flight.  Call this between
        compute steps to keep pipelines moving (core-direct GASPI style) —
        or enable :meth:`start_progress_thread` for asynchronous progress.
        """
        return self._progress.progress()

    def wait_all(self, timeout: float = GASPI_BLOCK) -> None:
        """Complete every in-flight nonblocking collective (``MPI_Waitall``)."""
        self._progress.wait_all(timeout)

    def start_progress_thread(self, interval: float = 2e-4) -> None:
        """Enable asynchronous progress (GPI-2 progress-thread analogue).

        A daemon thread pumps in-flight nonblocking pipelines whenever the
        application thread is busy or idle — required for real overlap
        when compute does not call :meth:`progress` (e.g. accelerator
        offload).  Idempotent; stopped by :meth:`stop_progress_thread` or
        :meth:`close`.
        """
        self._progress.start_thread(interval)

    def stop_progress_thread(self) -> None:
        """Stop the asynchronous progress thread (idempotent)."""
        self._progress.stop_thread()

    def _start(
        self, collective: str, algorithm: str, sendbuf, recvbuf, root: int,
        op: str | ReductionOp, policy: Optional[ConsistencyPolicy], tag: int,
    ) -> CollectiveHandle:  # fmt: skip
        """Start one collective; return a handle advancing it incrementally.

        Looks up the same memo as the blocking call (:meth:`_call`) and
        advances whatever plan serves the request.  Falls back to
        synchronous execution (returning an already-complete handle)
        whenever no cached plan can — fault plans, planning disabled,
        or an algorithm whose plans are never cached — so ``i*``
        calls are always safe, merely not overlapped, in those regimes.
        """
        policy = policy or self._policy
        buf = np.asarray(sendbuf)
        sig = (collective, algorithm, root, op, policy, buf.dtype, buf.nbytes, tag)
        request = CollectiveRequest(collective, sendbuf, recvbuf, root, op, policy, tag=tag)
        bound = self._memo.get(sig)
        if bound is not None and bound.plan is not None and not bound.plan.closed:
            info, plan = bound.info, bound.plan
            self._plans.hit(plan)
            self._c_cache_hits.add()
        else:
            check_policy(policy)
            if self._faults_changed() or bound is None:
                bound = _Bound(sig)
            info = bound.info or self.resolve(
                collective, schedule_nbytes(collective, self.size, request.nbytes),
                algorithm, policy,
            )  # fmt: skip
            plan = self._plan_for(info, request, bound)
            if plan is None:
                result = self._dispatch(
                    collective, request.nbytes, self._dispatch_impl, collective,
                    algorithm, request, request.nbytes, bound,
                )  # fmt: skip
                return CollectiveHandle(
                    self._progress, self.runtime, None, None, result=result
                )
            # The handle's generator keeps this call's request: a blocking
            # hit gets one of its own.
            hit_request = CollectiveRequest(collective, None, None, root, op, policy)
            self._memoize(bound, info, plan, hit_request)
        # Mirror the blocking dispatch bookkeeping (sequence number,
        # arrival skew does not apply: loss-capable fault plans never get
        # here and pure-delay plans perturb the data plane directly).
        self._collective_seq += 1
        request.segment_id = plan.segment_id
        self._last_segment_id = plan.segment_id
        self._c_nonblocking.add()
        tel = self._telemetry
        issue_t = CLOCK() if tel.enabled else 0.0

        def on_complete(result: CollectiveResult) -> None:
            result.algorithm = info.name
            result.policy = request.policy
            if tel.enabled:
                # Issue→completion window of the overlapped collective; the
                # progress engine drives it, so this is recorded here rather
                # than with a context-managed span.
                tel.record_span(
                    f"i{collective}", "collective", issue_t, CLOCK(),
                    {"algorithm": info.name, "nbytes": plan.key.nbytes,
                     "outcome": "ok", "nonblocking": True},
                )
            if self._machine is not None:
                from ..simulate.executor import simulate_schedule

                result.simulated = simulate_schedule(
                    plan.schedule(info), self._machine.with_ranks(self.size)
                )
            self._last_result = result

        handle = CollectiveHandle(
            self._progress,
            self.runtime,
            plan,
            plan.begin(request),
            on_complete=on_complete,
        )
        self._progress.register(handle)
        return handle

    def allreduce_ssp(
        self,
        contribution: np.ndarray,
        slack: Optional[int] = None,
        op: str | ReductionOp = "sum",
        policy: Optional[ConsistencyPolicy] = None,
    ) -> CollectiveResult:
        """Eventually consistent allreduce following the SSP model (Algorithm 1).

        ``comm.allreduce(contribution, policy=ssp(slack))`` on the hypercube,
        pinned: a fault plan never reroutes it.  The slack comes from
        ``policy.slack``, the ``slack=`` argument, or the communicator's
        default policy.  The plan of each shape and slack keeps the
        mailboxes and the logical clock from call to call, until
        :meth:`close`.  Returns the :class:`CollectiveResult`: ``value``,
        and at slack > 0 ``detail``, the call's
        :class:`~repro.core.allreduce_ssp.SSPCallStats` (clocks, waits).
        """
        if policy is not None:
            require(slack is None, "pass either policy= or slack=, not both")
        elif slack is not None:
            policy = _ssp_policy(int(slack))
        return self._call(
            "allreduce", "gaspi_allreduce_ssp_hypercube", contribution, None, 0, op, policy
        )

    # ------------------------------------------------------------------ #
    # persistent (initialised) collectives
    # ------------------------------------------------------------------ #
    def persistent(
        self,
        collective: str,
        template: np.ndarray,
        *,
        root: int = 0,
        op: str | ReductionOp = "sum",
        algorithm: str = "auto",
        policy: Optional[ConsistencyPolicy] = None,
    ) -> "PersistentCollective":
        """Compile a reusable handle for one collective shape (MPI-style).

        The explicit counterpart of the transparent plan cache, mirroring
        MPI persistent collectives (``MPI_Bcast_init`` & friends): the
        topology, notification layout, workspace lease and simulator
        schedule are compiled once, here, against ``template`` (only its
        shape/dtype matter — e.g. ``np.empty(4096)``), and every
        subsequent ``handle(buf)`` is pure data movement::

            h = comm.persistent("allreduce", np.empty(4096))
            for step in range(iters):
                grads = h(grads).value

        Collective: every rank must create (and close) the handle at the
        same point.  The compiled plan is pinned in the plan cache — LRU
        eviction skips it — until :meth:`PersistentCollective.close`.
        """
        policy = policy or self._policy
        check_policy(policy)
        self._faults_changed()
        template = np.ascontiguousarray(template)
        probe = CollectiveRequest(collective, template, None, root, op, policy)
        info = self.resolve(
            collective, schedule_nbytes(collective, self.size, probe.nbytes), algorithm, policy
        )
        require(
            info.plannable,
            f"algorithm {info.name!r} does not support compiled plans; "
            f"plannable {collective} algorithms: "
            f"{[n for n in self._registry.names(collective=collective) if self._registry.get(n).plannable] or '<none>'}",
        )
        plan = self._plan_for(info, probe)
        require(
            plan is not None,
            "persistent collectives need the plan cache (plan_cache > 0) and "
            "no loss-capable fault plan on the communicator",
        )
        self._plans.pin(plan.key)
        return PersistentCollective(self, plan, root=root, op=op, policy=policy)

    # ------------------------------------------------------------------ #
    # allgather / alltoall
    # ------------------------------------------------------------------ #
    def allgather(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        algorithm: str = "auto",
    ) -> np.ndarray:
        """Gather equal-sized blocks from all ranks onto all ranks."""
        return self._call("allgather", algorithm, sendbuf, recvbuf).value

    def alltoall(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
        algorithm: str = "auto",
    ) -> np.ndarray:
        """Exchange equal-sized blocks between every pair of ranks."""
        return self._call("alltoall", algorithm, sendbuf, recvbuf).value

    def alltoallv(
        self,
        sendbuf: np.ndarray,
        send_counts: Sequence[int],
        recv_counts: Sequence[int],
        recvbuf: Optional[np.ndarray] = None,
        algorithm: str = "auto",
    ) -> np.ndarray:
        """Variable-size AlltoAll (``MPI_Alltoallv`` equivalent)."""
        request = CollectiveRequest(
            collective="alltoall",
            sendbuf=sendbuf,
            recvbuf=recvbuf,
            send_counts=send_counts,
            recv_counts=recv_counts,
            policy=self._policy,
        )
        return self._dispatch(
            "alltoall", request.nbytes, self._dispatch_impl, "alltoall", algorithm, request,
            request.nbytes,
        ).value  # fmt: skip

    # ------------------------------------------------------------------ #
    # sub-communicators
    # ------------------------------------------------------------------ #
    def _child_segment_range(self, split_seq: int) -> tuple[int, int]:
        """Disjoint segment-id slice for the ``split_seq``-th child.

        Children live in the upper half of this communicator's range, so
        parent and child collectives can interleave freely; the same slice
        is reused across the colors of one split because the color groups
        are disjoint rank sets that never address each other's segments.
        """
        require(
            split_seq < _MAX_CHILD_SPLITS,
            f"communicator supports at most {_MAX_CHILD_SPLITS} split()/dup() calls",
        )
        child_span = self._segment_span // (2 * _MAX_CHILD_SPLITS)
        base = self._segment_base + self._segment_span // 2 + split_seq * child_span
        return base, child_span

    def split(self, color: Optional[int], key: int = 0) -> Optional["Communicator"]:
        """Partition the communicator into disjoint sub-communicators.

        Collective over **all** ranks of this communicator (like
        ``MPI_Comm_split``): every rank passes a ``color``; ranks sharing
        a color form a new communicator whose ranks are ordered by
        ``(key, old rank)``.  Ranks passing ``color=None`` opt out and
        receive ``None``.

        The sub-communicator inherits this communicator's default policy,
        tuning table and machine model, and owns a disjoint segment-id
        range, so parent and child collectives never collide.
        """
        require(
            color is None or isinstance(color, (int, np.integer)),
            f"color must be an int or None, got {color!r}",
        )
        # Exchange (participates, color, key) over the current group.
        mine = np.array(
            [0 if color is None else 1, 0 if color is None else int(color), int(key)],
            dtype=np.int64,
        )
        # A cold call on this communicator's pool, outside the dispatch:
        # last_result, last_segment_id and the plan cache stay the caller's.
        request = CollectiveRequest("allgather", mine, pool=self._pool)
        gathered = (
            REGISTRY.get("gaspi_allgather_ring")
            .run(self.runtime, request)
            .value.reshape(self.size, 3)
        )
        split_seq = self._split_count
        self._split_count += 1
        if color is None:
            return None
        members = [
            r
            for r in range(self.size)
            if gathered[r, 0] and gathered[r, 1] == int(color)
        ]
        members.sort(key=lambda r: (int(gathered[r, 2]), r))
        child_base, child_span = self._child_segment_range(split_seq)
        child = Communicator(
            GroupRuntime(self.runtime, members),
            segment_base=child_base,
            segment_span=child_span,
            policy=self._policy,
            tuning=self._tuning,
            machine=self._machine,
            family=self._family,
            registry=self._registry,
            detect_timeout=self._detect_timeout,
            plan_cache=self._plans.capacity,
            # The child shares the parent's registry: the GroupRuntime
            # forwards it, so the double-wrap guard keeps traffic counted
            # once while the child still records its own dispatch spans.
            telemetry=self._telemetry if self._telemetry.enabled else None,
        )
        # Fault injection stays attached through the wrapped runtime (its
        # `fault_injected` flag keeps auto-selection on the tolerant
        # algorithms); per-collective arrival skew is world-scoped and not
        # re-applied at the child level.  Suspected ranks carry over in the
        # child's numbering.
        child._suspected = {
            members.index(r) for r in self._suspected if r in members
        }
        # Weakly tracked so reinstate() can propagate into the child's
        # suspicion map without keeping a closed child alive.
        self._children.append((weakref.ref(child), tuple(members)))
        return child

    def dup(self) -> "Communicator":
        """Duplicate the communicator (same ranks, fresh segment range).

        Collective over all ranks.  Useful to give a library layer its own
        communication context, as ``MPI_Comm_dup`` does.
        """
        dup = self.split(0, key=0)
        assert dup is not None  # every rank participates with the same color
        return dup

    # ------------------------------------------------------------------ #
    # elasticity
    # ------------------------------------------------------------------ #
    def checkpoint(
        self,
        *,
        group: Optional[Group] = None,
        timeout: float = GASPI_BLOCK,
    ):
        """Snapshot this rank's communicator state at a collective boundary.

        Collective: call it on every rank at the same point.  Returns a
        :class:`~repro.elastic.checkpoint.CommSnapshot` that serializes
        to JSON (``snapshot.save(dir)``) and restores into a fresh world
        via :func:`repro.elastic.restore`.  See :mod:`repro.elastic`.
        ``group``/``timeout`` bound the quiesce barrier when some ranks
        are already dead (supervisor checkpoints over the survivors).
        """
        from ..elastic.checkpoint import checkpoint

        return checkpoint(self, group=group, timeout=timeout)

    def shrink(
        self,
        failed: Optional[Iterable[int]] = None,
        *,
        detect_timeout: Optional[float] = None,
        agreement_segment_id: Optional[int] = None,
        remove_missing_voters: bool = True,
        vote_resends: int = 0,
    ) -> "Communicator":
        """Renumber the survivors into a fresh full-strength communicator.

        Collective over the *survivors* (every live rank must call it at
        the same point; crashed ranks obviously do not).  The removal set
        is ``failed`` if given, else the current :attr:`suspected_ranks`.
        The survivors agree on it through one tolerant max-allreduce over
        removal masks — so a rank whose detection window missed a death
        still learns it here — then quiesce this communicator's in-flight
        state and build a new one on a :class:`GroupRuntime` over the
        survivor subset with a disjoint segment-id slice.

        The shrunk communicator runs *non-degraded* collectives: its
        policy resets ``on_failure`` to ``"abort"`` (no dead weight left
        to tolerate), its plan cache and workspace pool start empty (plans
        recompile for the new size), and suspicion not covered by the
        removal carries over in survivor numbering.  The parent communicator remains usable
        only for teardown (``close()``); run collectives on the returned
        child.

        ``agreement_segment_id`` pins the agreement's workspace segment
        to a fixed id outside the pooled lock-step slice.  Supervised
        recovery (:mod:`repro.health`) uses this so survivors reaching
        the heal point a collective apart fold into the same agreement
        instead of colliding with each other's ordinary traffic.

        ``remove_missing_voters`` controls what happens to a survivor
        whose agreement vote never arrives.  The default (``True``)
        folds it into the removal set — safe when every live rank is
        known to reach the agreement.  Supervised recovery passes
        ``False``: its votes are already gated on detector confirmation,
        and a vote lost to a transient link fault must not evict a live
        rank from half the world (split-brain).  A rank that truly died
        mid-heal then survives into the child, where the detector
        re-confirms it and the next boundary heals again — eventual
        consistency instead of divergence.

        ``vote_resends`` re-broadcasts this rank's vote that many times
        (spaced ~50 ms apart) after its own agreement completes.  A vote
        swallowed by a transient link fault (a flap window) gets through
        on a re-send — the fault window has moved on — so peers waiting
        on it complete in milliseconds instead of stalling out their
        whole detection window.
        """
        removing: Set[int] = (
            {int(r) for r in failed} if failed is not None else set(self._suspected)
        )
        for r in removing:
            require(
                0 <= r < self.size,
                f"cannot shrink away rank {r} outside world of size {self.size}",
            )
        require(
            self.rank not in removing,
            f"rank {self.rank} cannot shrink itself away",
        )
        from ..faults.recovery import (
            DEFAULT_DETECT_TIMEOUT,
            send_late_contribution,
            tolerant_allreduce,
        )

        timeout = (
            detect_timeout
            if detect_timeout is not None
            else (self._detect_timeout or DEFAULT_DETECT_TIMEOUT)
        )
        tel = self._telemetry
        t0 = CLOCK() if tel.enabled else 0.0

        # Agreement round: every survivor contributes its removal mask;
        # the max-combine unions the views, and ranks that fail to show
        # up for the agreement itself join the removal set.
        mask = np.zeros(self.size, dtype=np.int64)
        if removing:
            mask[sorted(removing)] = 1
        if agreement_segment_id is None:
            # Lock-step allocation: every survivor calls shrink() at the
            # same collective sequence point, so the reserved id matches.
            self._collective_seq += 1
            agreement_segment_id = self._pool.reserve_id()
        verdict = tolerant_allreduce(
            self.runtime,
            mask,
            op="max",
            threshold=1.0 / self.size,
            on_failure="complete",
            detect_timeout=timeout,
            known_failed=removing,
            segment_id=agreement_segment_id,
        )
        if vote_resends > 0:
            # Re-broadcast our vote while peers may still be gathering:
            # a first send lost to a transient link fault arrives here
            # (the fault window is indexed by send count and has moved
            # on), unblocking the peer well before its detection window.
            peers = [
                r for r in range(self.size)
                if r != self.rank and r not in removing
            ]
            for i in range(vote_resends):
                time.sleep(0.05 * (i + 1))
                send_late_contribution(
                    self.runtime, mask, agreement_segment_id, targets=peers,
                )
        agreed = {r for r in range(self.size) if verdict.value[r] > 0}
        if remove_missing_voters:
            agreed |= set(verdict.missing_ranks)
        verdict.close()
        require(
            self.rank not in agreed,
            f"rank {self.rank} was voted dead by the survivors and cannot "
            f"shrink (checkpoint/respawn instead)",
        )
        survivors = [r for r in range(self.size) if r not in agreed]
        require(
            len(survivors) >= 1 and agreed,
            f"shrink needs at least one removed rank and one survivor "
            f"(removed: {sorted(agreed)})",
        )

        # Quiesce: drain in-flight state, then free every workspace behind
        # one barrier over the survivors, bounded by the detection window
        # (some of them may be gone too).
        self._teardown(Group(survivors), timeout)

        # Unwrap instrumentation and fault layers: the child re-wraps
        # telemetry itself, and injected faults died with the removed
        # ranks (a shrunk world is a fresh, full-strength one).  The
        # structural GroupRuntime layers stay — survivors are expressed
        # in this communicator's numbering.
        base = next(
            layer
            for layer in self.runtime.layers()
            if isinstance(layer, GroupRuntime) or not isinstance(layer, RuntimeWrapper)
        )

        split_seq = self._split_count
        self._split_count += 1
        child_base, child_span = self._child_segment_range(split_seq)
        policy = self._policy
        if policy.on_failure != "abort":
            policy = dataclass_replace(policy, on_failure="abort")
        shrunk = Communicator(
            GroupRuntime(base, survivors),
            segment_base=child_base,
            segment_span=child_span,
            policy=policy,
            tuning=self._tuning,
            machine=self._machine,
            family=self._family,
            registry=self._registry,
            detect_timeout=self._detect_timeout,
            plan_cache=self._plans.capacity,
            telemetry=tel if tel.enabled else None,
        )
        shrunk._suspected = {
            survivors.index(r) for r in self._suspected if r in survivors
        }
        shrunk._parent_ranks = tuple(survivors)
        self._suspected.update(agreed)
        self._memo.clear()
        self._children.append((weakref.ref(shrunk), tuple(survivors)))
        logger.info(
            "rank %d: shrink removed ranks %s, continuing as rank %d/%d",
            self.rank, sorted(agreed), shrunk.rank, shrunk.size,
        )
        if tel.enabled:
            t1 = CLOCK()
            tel.counter("elastic.shrinks").add()
            tel.histogram("elastic.shrink_s").observe(t1 - t0)
            tel.record_span(
                "shrink", "elastic", t0, t1,
                {"removed": sorted(agreed), "survivors": len(survivors)},
            )
        return shrunk

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release all persistent collective state: every cached plan (SSP
        mailboxes and clocks among them), degraded workspaces held open for
        correction, and every pooled workspace.

        Collective over the ranks this communicator does not suspect: one
        barrier (skipped when no workspace is leased or retired), bounded by
        ``PLAN_WAIT_TIMEOUT``, drains whatever is still travelling toward a
        workspace — deferred consume-acks, slack-tolerated SSP writes — then
        every segment is deleted exactly once, whether or not the barrier
        completed.  Idempotent, and never raises after a failure.
        """
        from . import plan  # the bound as it is now (tests lower it)

        live = [r for r in range(self.size) if r not in self._suspected]
        self._teardown(Group(live), plan.PLAN_WAIT_TIMEOUT)

    def _teardown(self, group: Optional[Group], timeout: float) -> None:
        if self._progress.active:
            # Drain in-flight nonblocking collectives before any workspace
            # can be freed under an active pipeline.
            try:
                self._progress.wait_all(timeout)
            except (GaspiError, TimeoutError):  # pragma: no cover - dead peer
                pass
        self._progress.stop_thread()
        for detail in self._open_degraded:
            detail.close()
        self._open_degraded.clear()
        self._memo.clear()
        self._plans.close_all()
        self._pool.close(group, timeout)

    def __enter__(self) -> "Communicator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "subcommunicator" if self.is_subcommunicator else "world"
        return f"Communicator(rank={self.rank}, size={self.size}, {kind})"


class PersistentCollective:
    """Handle over one compiled collective plan (MPI persistent style).

    Created by :meth:`Communicator.persistent`; calling the handle is the
    memo lookup of an implicit call keyed by the compiled algorithm's name,
    so a hit runs the bound plan, and ``last_result``, the simulator backend
    and the cache statistics behave exactly as for implicit calls, with the
    plan guaranteed cached and pinned.  Payloads must match the compiled
    shape — a mismatch is a usage error, reported eagerly instead of
    silently recompiling.
    """

    def __init__(
        self,
        comm: Communicator,
        plan: CollectivePlan,
        root: int,
        op: str | ReductionOp,
        policy: ConsistencyPolicy,
    ) -> None:
        self._comm = comm
        self._plan = plan
        self._root = int(root)
        self._op = op
        self._policy = policy
        self._closed = False

    @property
    def collective(self) -> str:
        return self._plan.key.collective

    @property
    def algorithm(self) -> str:
        """Registry name of the compiled algorithm."""
        return self._plan.key.algorithm

    @property
    def key(self) -> PlanKey:
        """The plan key this handle was compiled for."""
        return self._plan.key

    @property
    def calls(self) -> int:
        """Number of planned executions served so far."""
        return self._plan.calls

    def __call__(
        self,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray] = None,
    ) -> CollectiveResult:
        """Run one planned call; returns the full :class:`CollectiveResult`."""
        if self._closed:
            raise ValueError("persistent collective handle already closed")
        key = self._plan.key
        if self._plan.closed:
            raise ValueError("the compiled plan was torn down")
        sendbuf = np.asarray(sendbuf)
        if sendbuf.nbytes != key.nbytes or sendbuf.dtype.str != key.dtype:
            raise ValueError(
                f"payload ({sendbuf.nbytes} bytes, {sendbuf.dtype}) does not match "
                f"the persistent plan compiled for {key.nbytes} bytes "
                f"of {np.dtype(key.dtype)}"
            )
        return self._comm._call(
            key.collective, key.algorithm, sendbuf, recvbuf, self._root, self._op,
            self._policy,
        )  # fmt: skip

    def close(self) -> None:
        """Unpin the plan (collective hygiene: close on every rank).

        The plan stays cached for transparent reuse; its workspace goes
        back to the pool at LRU eviction or ``Communicator.close()``.
        """
        if self._closed:
            return
        self._closed = True
        self._comm._plans.unpin(self._plan.key)

    def __enter__(self) -> "PersistentCollective":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PersistentCollective({self._plan.key.algorithm}, "
            f"{self._plan.key.nbytes}B, calls={self._plan.calls})"
        )
