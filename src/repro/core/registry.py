"""Registry of collective algorithms: schedule builders *and* executors.

Every registered :class:`AlgorithmInfo` carries up to three things:

* a **schedule builder** ``builder(num_ranks, nbytes, **kwargs)`` returning
  a :class:`~repro.core.schedule.CommunicationSchedule` for the timing
  simulator (all algorithms have one — it is how the paper's figures are
  regenerated);
* an executable path that performs the collective for real on a
  :class:`~repro.gaspi.runtime.GaspiRuntime`, taking a
  :class:`~repro.core.policy.CollectiveRequest` and returning a
  :class:`~repro.core.policy.CollectiveResult`: a **planner** compiling a
  :class:`~repro.core.plan.CollectivePlan` (which also runs cold, as its
  own throwaway plan) — every GASPI collective has one, the fault-tolerant
  trio's (:mod:`repro.faults.recovery`) included, whose plans are never
  cached — or a **runner** ``run(runtime, request)``, which only the
  functional MPI baselines (:mod:`repro.mpi.tuning`) register;
  schedule-only entries raise a descriptive error when asked to execute;
* **capability metadata** (:class:`AlgorithmCapabilities`) describing which
  consistency policies, world sizes and dtypes the algorithm accepts, so
  dispatch failures surface as clear errors *before* any communication and
  the tuning tables can skip unsupported candidates.

The user-facing :class:`~repro.core.api.Communicator` routes every
collective through this registry (``algorithm="auto"`` consults the tuning
table in :mod:`repro.core.tuning`); the benchmark harness resolves the
same names, so the two paths cannot diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..utils.validation import is_power_of_two
from .plan import CollectivePlan, PlanKey, _run_cold
from .workspace import WorkspacePool
from .policy import CollectiveRequest, CollectiveResult, ConsistencyPolicy
from .schedule import CommunicationSchedule

ScheduleBuilder = Callable[..., CommunicationSchedule]
Runner = Callable[..., CollectiveResult]  # runner(runtime, request)
# planner(runtime, key, segment_id, policy, pool, throwaway=False)
Planner = Callable[..., CollectivePlan]


@dataclass(frozen=True)
class AlgorithmCapabilities:
    """What a registered algorithm can and cannot do.

    Attributes
    ----------
    supports_threshold:
        Accepts ``policy.threshold < 1`` (the eventually consistent modes).
    modes:
        Threshold interpretations accepted (``"data"`` and/or
        ``"processes"``).
    supports_slack:
        Accepts ``policy.slack > 0`` (the SSP collectives).
    supports_op:
        Honours the reduction-operator argument (reducing collectives).
    min_ranks / max_ranks:
        Valid communicator-size range (``None`` = unbounded above).
    requires_power_of_two:
        World size must be 2^k (hypercube/recursive-doubling algorithms).
    dtype:
        Required element dtype name, when the implementation is fixed to
        one (the two-sided MPI baselines stage float64 envelopes).
    fault_tolerant:
        The algorithm detects non-contributing ranks (notification
        timeouts), completes degraded at the policy's threshold and
        reports :attr:`~repro.core.policy.CollectiveResult.missing_ranks`.
        ``Communicator(..., faults=plan)`` prefers these entries for
        ``algorithm="auto"``, as does any policy with
        ``on_failure="complete"``.
    plannable:
        The algorithm has a plan-compilation entry point
        (:meth:`AlgorithmInfo.plan`): repeated calls with the same shape
        can run through a compiled :class:`~repro.core.plan.CollectivePlan`
        with a leased workspace and zero per-call setup.  The Communicator
        caches such plans transparently (see
        :meth:`~repro.core.api.Communicator.plan_cache_stats`).
    pipelined:
        The compiled plan is a chunked pipeline
        (:mod:`repro.core.pipeline`): it honours
        ``ConsistencyPolicy.chunk_bytes`` and its schedule builder takes a
        ``chunk_bytes`` kwarg.
    verified:
        The algorithm's plan is covered by the static schedule verifier
        (:mod:`repro.analysis`): ``python -m repro.analysis --all`` models
        it at several rank counts/payloads (a fault-tolerant one under a
        rank that never enters, a crash and a late contribution) and
        checks notification matching, deadlock freedom, happens-before
        data-race freedom, notification/offset budgets and delivered
        values.  Set for every GASPI algorithm; the MPI baselines are not
        modelled and keep the default.
    """

    supports_threshold: bool = False
    modes: Tuple[str, ...] = ("data",)
    supports_slack: bool = False
    supports_op: bool = False
    min_ranks: int = 1
    max_ranks: Optional[int] = None
    requires_power_of_two: bool = False
    dtype: Optional[str] = None
    fault_tolerant: bool = False
    plannable: bool = False
    pipelined: bool = False
    verified: bool = False

    def unsupported_reason(
        self,
        num_ranks: int,
        policy: Optional[ConsistencyPolicy] = None,
        dtype: Optional[np.dtype] = None,
    ) -> Optional[str]:
        """Why a request is unsupported, or ``None`` when it is fine."""
        if num_ranks < self.min_ranks:
            return f"needs at least {self.min_ranks} ranks, got {num_ranks}"
        if self.max_ranks is not None and num_ranks > self.max_ranks:
            return f"supports at most {self.max_ranks} ranks, got {num_ranks}"
        if self.requires_power_of_two and not is_power_of_two(num_ranks):
            return f"requires a power-of-two world size, got {num_ranks}"
        if policy is not None:
            if policy.threshold < 1.0:
                if not self.supports_threshold:
                    return "does not support partial (threshold < 1) delivery"
                if policy.mode.value not in self.modes:
                    return (
                        f"does not support the {policy.mode.value!r} threshold "
                        f"mode (supported: {', '.join(self.modes)})"
                    )
            if policy.slack > 0 and not self.supports_slack:
                return "does not support SSP slack"
        if self.dtype is not None and dtype is not None:
            if np.dtype(dtype) != np.dtype(self.dtype):
                return f"only supports dtype {self.dtype}, got {np.dtype(dtype)}"
        return None


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registered algorithm: identity, builder, runner and capabilities."""

    name: str
    collective: str
    family: str  # "gaspi" or "mpi"
    builder: ScheduleBuilder
    description: str = ""
    runner: Optional[Runner] = None
    capabilities: AlgorithmCapabilities = field(default_factory=AlgorithmCapabilities)
    planner: Optional[Planner] = None

    @property
    def executable(self) -> bool:
        """True when the algorithm can run for real (a runner or a planner)."""
        return self.runner is not None or self.planner is not None

    @property
    def plannable(self) -> bool:
        """True when repeated calls can be served by a compiled plan."""
        return self.planner is not None and self.capabilities.plannable

    # ------------------------------------------------------------------ #
    # capability checking
    # ------------------------------------------------------------------ #
    def supports(
        self,
        num_ranks: int,
        policy: Optional[ConsistencyPolicy] = None,
        dtype: Optional[np.dtype] = None,
    ) -> Tuple[bool, str]:
        """(supported?, reason-if-not) for a prospective request."""
        reason = self.capabilities.unsupported_reason(num_ranks, policy, dtype)
        return (reason is None), (reason or "")

    def check_request(
        self,
        num_ranks: int,
        policy: Optional[ConsistencyPolicy] = None,
        dtype: Optional[np.dtype] = None,
    ) -> None:
        """Raise :class:`ValueError` when the algorithm cannot serve this."""
        reason = self.capabilities.unsupported_reason(num_ranks, policy, dtype)
        if reason is not None:
            raise ValueError(f"algorithm {self.name!r} {reason}")

    def schedule_kwargs(self, policy: Optional[ConsistencyPolicy] = None) -> dict:
        """Builder kwargs encoding the policy, for simulation of this entry."""
        if policy is None:
            return {}
        kwargs: dict = {}
        if self.capabilities.supports_threshold:
            kwargs["threshold"] = policy.threshold
            if len(self.capabilities.modes) > 1:
                kwargs["mode"] = policy.mode
        if self.capabilities.pipelined and policy.chunk_bytes is not None:
            kwargs["chunk_bytes"] = policy.chunk_bytes
        return kwargs

    # ------------------------------------------------------------------ #
    def run(self, runtime, request: CollectiveRequest) -> CollectiveResult:
        """Execute the collective cold on ``runtime``.

        Validates capabilities against the world size, policy and payload
        dtype first so misuse fails fast with a clear message instead of a
        deadlocked collective.  Then runs through the runner, or — an entry
        that has only a planner — as a throwaway plan compiled for this
        call.  A cached plan runs through :meth:`CollectivePlan.execute`
        without this: :meth:`plan` validated its key when it compiled it.
        """
        if not self.executable:
            raise ValueError(
                f"algorithm {self.name!r} is schedule-only (no executable "
                f"runner); simulate it through the benchmark harness instead"
            )
        dtype = None if request.sendbuf is None else np.asarray(request.sendbuf).dtype
        self.check_request(runtime.size, request.policy, dtype)
        if self.runner is not None:
            result = self.runner(runtime, request)
        else:
            result = _run_cold(self.planner, self.collective, self.name, runtime, request)
        result.algorithm = self.name
        result.policy = request.policy
        return result

    def plan(
        self,
        runtime,
        key: PlanKey,
        segment_id: int,
        policy: ConsistencyPolicy,
        pool: Optional[WorkspacePool] = None,
    ) -> CollectivePlan:
        """Compile a :class:`CollectivePlan` for ``key`` on this rank.

        Collective: every rank must compile the plan for the same key at
        the same point of its call sequence (a pool miss registers the
        workspace and synchronises once).  The workspace is leased from
        ``pool``; without one the plan is standalone and registers its
        own under ``segment_id``.
        """
        if not self.plannable:
            raise ValueError(
                f"algorithm {self.name!r} does not support compiled plans"
            )
        self.check_request(runtime.size, policy, np.dtype(key.dtype))
        return self.planner(runtime, key, segment_id, policy, pool)


class AlgorithmRegistry:
    """Name → :class:`AlgorithmInfo` registry with per-collective listing."""

    def __init__(self) -> None:
        self._algorithms: Dict[str, AlgorithmInfo] = {}

    def register(
        self,
        name: str,
        collective: str,
        family: str,
        builder: ScheduleBuilder,
        description: str = "",
        runner: Optional[Runner] = None,
        capabilities: Optional[AlgorithmCapabilities] = None,
        planner: Optional[Planner] = None,
        overwrite: bool = False,
    ) -> None:
        """Register an algorithm under a unique name."""
        if name in self._algorithms and not overwrite:
            raise ValueError(f"algorithm {name!r} is already registered")
        self._algorithms[name] = AlgorithmInfo(
            name, collective, family, builder, description, runner,
            capabilities or AlgorithmCapabilities(), planner,
        )  # fmt: skip

    def get(self, name: str) -> AlgorithmInfo:
        try:
            return self._algorithms[name]
        except KeyError as exc:
            known = ", ".join(sorted(self._algorithms)) or "<none>"
            raise KeyError(f"unknown algorithm {name!r}; registered: {known}") from exc

    def build(self, name: str, num_ranks: int, nbytes: int, **kwargs) -> CommunicationSchedule:
        """Build the schedule of a registered algorithm."""
        return self.get(name).builder(num_ranks, nbytes, **kwargs)

    def names(
        self,
        collective: Optional[str] = None,
        family: Optional[str] = None,
        executable: Optional[bool] = None,
    ) -> List[str]:
        """Registered names, optionally filtered."""
        out = []
        for name, info in sorted(self._algorithms.items()):
            if collective is not None and info.collective != collective:
                continue
            if family is not None and info.family != family:
                continue
            if executable is not None and info.executable != executable:
                continue
            out.append(name)
        return out

    def __contains__(self, name: object) -> bool:
        return name in self._algorithms

    def __len__(self) -> int:
        return len(self._algorithms)

    def items(self) -> Iterable[AlgorithmInfo]:
        return list(self._algorithms.values())


#: Global registry shared by the Communicator and the benchmark harness.
REGISTRY = AlgorithmRegistry()


# --------------------------------------------------------------------------- #
# planners (compiled-plan entry points)
# --------------------------------------------------------------------------- #
def _planner(module: str, plan_class: str) -> Planner:
    """Planner constructing ``plan_class`` of ``repro.core.<module>``.

    Imported on first use: the plan modules import this package.
    """

    def plan(
        runtime, key, segment_id, policy, pool=None, throwaway=False
    ) -> CollectivePlan:
        cls = getattr(import_module(f"{__package__}.{module}"), plan_class)
        return cls(runtime, key, segment_id, policy, pool, throwaway)

    return plan


def _register_core_algorithms() -> None:
    """Register the GASPI collectives described in the paper."""
    from .allgather import ring_allgather_schedule
    from .allreduce_ring import ring_allreduce_schedule
    from .allreduce_ssp import hypercube_allreduce_schedule
    from .alltoall import alltoall_schedule
    from .barrier import dissemination_barrier_schedule
    from .bcast import bst_bcast_schedule, flat_bcast_schedule
    from .reduce import bst_reduce_schedule

    REGISTRY.register(
        "gaspi_bcast_bst",
        collective="bcast",
        family="gaspi",
        builder=bst_bcast_schedule,
        planner=_planner("bcast", "BstBcastPlan"),
        capabilities=AlgorithmCapabilities(
            supports_threshold=True, modes=("data",), plannable=True, verified=True
        ),
        description="Binomial spanning tree broadcast with data threshold (paper III-B)",
    )
    REGISTRY.register(
        "gaspi_bcast_flat",
        collective="bcast",
        family="gaspi",
        builder=flat_bcast_schedule,
        planner=_planner("bcast", "FlatBcastPlan"),
        capabilities=AlgorithmCapabilities(
            supports_threshold=True, modes=("data",), plannable=True, verified=True
        ),
        description="Flat broadcast: the tree plan over a star (P-1 writes from the root)",
    )
    REGISTRY.register(
        "gaspi_reduce_bst",
        collective="reduce",
        family="gaspi",
        builder=bst_reduce_schedule,
        planner=_planner("reduce", "BstReducePlan"),
        capabilities=AlgorithmCapabilities(
            supports_threshold=True,
            modes=("data", "processes"),
            supports_op=True,
            plannable=True,
            verified=True,
        ),
        description="Binomial spanning tree reduce with data/process threshold (paper III-B)",
    )
    REGISTRY.register(
        "gaspi_allreduce_ring",
        collective="allreduce",
        family="gaspi",
        builder=ring_allreduce_schedule,
        planner=_planner("allreduce_ring", "RingAllreducePlan"),
        capabilities=AlgorithmCapabilities(
            supports_op=True, plannable=True, verified=True
        ),
        description="Segmented pipelined ring allreduce with notifications (paper IV-A)",
    )
    REGISTRY.register(
        "gaspi_allreduce_ssp_hypercube",
        collective="allreduce",
        family="gaspi",
        builder=hypercube_allreduce_schedule,
        planner=_planner("allreduce_ssp", "HypercubeAllreducePlan"),
        capabilities=AlgorithmCapabilities(
            supports_op=True,
            supports_slack=True,
            requires_power_of_two=True,
            plannable=True,
            verified=True,
        ),
        description="Hypercube allreduce: strict, or allreduce_SSP under slack (paper III-A)",
    )
    from .pipeline import (
        pipelined_bst_bcast_schedule,
        pipelined_bst_reduce_schedule,
        pipelined_ring_allreduce_schedule,
    )

    REGISTRY.register(
        "gaspi_bcast_bst_pipelined",
        collective="bcast",
        family="gaspi",
        builder=pipelined_bst_bcast_schedule,
        planner=_planner("pipeline", "PipelinedBstBcastPlan"),
        capabilities=AlgorithmCapabilities(
            supports_threshold=True,
            modes=("data",),
            plannable=True,
            pipelined=True,
            verified=True,
        ),
        description=(
            "Chunked pipelined BST broadcast: per-chunk notifications, "
            "zero-copy segment_bind data path, overlapped tree levels"
        ),
    )
    REGISTRY.register(
        "gaspi_reduce_bst_pipelined",
        collective="reduce",
        family="gaspi",
        builder=pipelined_bst_reduce_schedule,
        planner=_planner("pipeline", "PipelinedBstReducePlan"),
        capabilities=AlgorithmCapabilities(
            supports_threshold=True,
            modes=("data", "processes"),
            supports_op=True,
            plannable=True,
            pipelined=True,
            verified=True,
        ),
        description=(
            "Chunked pipelined BST reduce: per-chunk folds pushed up the "
            "tree while later chunks arrive"
        ),
    )
    REGISTRY.register(
        "gaspi_allreduce_ring_pipelined",
        collective="allreduce",
        family="gaspi",
        builder=pipelined_ring_allreduce_schedule,
        planner=_planner("pipeline", "PipelinedRingAllreducePlan"),
        capabilities=AlgorithmCapabilities(
            supports_op=True, plannable=True, pipelined=True, verified=True
        ),
        description=(
            "Chunked ring allreduce: multiple in-flight sub-chunk slots, "
            "sends posted straight from the caller's buffers"
        ),
    )
    REGISTRY.register(
        "gaspi_alltoall",
        collective="alltoall",
        family="gaspi",
        builder=alltoall_schedule,
        planner=_planner("alltoall", "AlltoallPlan"),
        capabilities=AlgorithmCapabilities(plannable=True, verified=True),
        description="Direct write_notify AlltoAll (paper IV-B)",
    )
    REGISTRY.register(
        "gaspi_allgather_ring",
        collective="allgather",
        family="gaspi",
        builder=ring_allgather_schedule,
        planner=_planner("allgather", "RingAllgatherPlan"),
        capabilities=AlgorithmCapabilities(plannable=True, verified=True),
        description="Ring allgather (second stage of the pipelined ring allreduce)",
    )
    REGISTRY.register(
        "gaspi_barrier_dissemination",
        collective="barrier",
        family="gaspi",
        builder=lambda num_ranks, nbytes=0, **kw: dissemination_barrier_schedule(
            num_ranks, **kw
        ),
        planner=_planner("barrier", "DisseminationBarrierPlan"),
        capabilities=AlgorithmCapabilities(plannable=True, verified=True),
        description="Dissemination barrier built on notifications",
    )


_register_core_algorithms()
