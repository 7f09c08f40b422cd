"""The paper's collectives: eventually consistent and consistent variants.

Public surface:

* :class:`~repro.core.api.Communicator` — the one per-rank API, driven
  by :class:`~repro.core.policy.ConsistencyPolicy` objects and routed
  through the algorithm :data:`~repro.core.registry.REGISTRY`
  (``algorithm="auto"`` consults the :mod:`~repro.core.tuning` tables).
  Every collective returns, or records on ``comm.last_result``, a
  :class:`~repro.core.policy.CollectiveResult` whose ``detail`` is the
  paper's status output (:class:`BroadcastResult`, :class:`ReduceResult`,
  :class:`RingAllreduceStats`, :class:`SSPCallStats`).
* Compiled plans: every GASPI collective is written once, as the ``_run``
  generator of a :class:`~repro.core.plan.CollectivePlan`, which runs it
  blocking, incrementally (the ``i*`` API, the verifier) or cold (a
  throwaway plan); registry runners are left to the MPI baselines (the
  fault-tolerant trio in :mod:`repro.faults.recovery` is one such plan,
  never cached).  The SSP allreduce's state — its mailboxes and logical
  clock — is its cached plan.
* Schedule builders for the timing simulator and the algorithm
  :data:`~repro.core.registry.REGISTRY` the benchmark harness uses.
"""

from .api import Communicator, PersistentCollective
from .notifmap import NotificationLayout, NotifRange
from .pipeline import (
    ChunkLayout,
    CollectiveHandle,
    ProgressEngine,
    pipelined_bst_bcast_schedule,
    pipelined_bst_reduce_schedule,
    pipelined_ring_allreduce_schedule,
)
from .plan import CollectivePlan, PlanCache, PlanCacheStats, PlanKey
from .policy import (
    CollectiveRequest,
    CollectiveResult,
    ConsistencyPolicy,
)
from .tuning import TuningRule, TuningTable, select_algorithm, select_chunk_bytes
from .allgather import ring_allgather_schedule
from .allreduce_ring import RingAllreduceStats, ring_allreduce_schedule
from .allreduce_ssp import SSPCallStats, hypercube_allreduce_schedule
from .alltoall import alltoall_schedule
from .barrier import dissemination_barrier_schedule
from .bcast import (
    BroadcastResult,
    bst_bcast_schedule,
    flat_bcast_schedule,
    threshold_elements,
)
from .compression import (
    CompressedVector,
    ThresholdCompressor,
    TopKCompressor,
    compression_error,
)
from .reduce import ReduceMode, ReduceResult, bst_reduce_schedule
from .reduction_ops import MAX, MIN, PROD, SUM, ReductionOp, available_ops, get_op, register_op
from .registry import (
    REGISTRY,
    AlgorithmCapabilities,
    AlgorithmInfo,
    AlgorithmRegistry,
)
from .schedule import (
    CommunicationSchedule,
    LocalCompute,
    Message,
    Protocol,
    Round,
    merge_sequential,
)
from .topology import (
    BinomialTree,
    Hypercube,
    KnomialTree,
    Ring,
    chunk_bounds,
    chunk_sizes,
    dissemination_schedule,
)

__all__ = [
    "Communicator",
    "PersistentCollective",
    "CollectivePlan",
    "PlanCache",
    "PlanCacheStats",
    "PlanKey",
    "CollectiveRequest",
    "CollectiveResult",
    "ConsistencyPolicy",
    "TuningRule",
    "TuningTable",
    "select_algorithm",
    "AlgorithmCapabilities",
    "ring_allgather_schedule",
    "RingAllreduceStats",
    "ring_allreduce_schedule",
    "SSPCallStats",
    "hypercube_allreduce_schedule",
    "alltoall_schedule",
    "dissemination_barrier_schedule",
    "BroadcastResult",
    "bst_bcast_schedule",
    "flat_bcast_schedule",
    "threshold_elements",
    "CompressedVector",
    "ThresholdCompressor",
    "TopKCompressor",
    "compression_error",
    "ReduceMode",
    "ReduceResult",
    "bst_reduce_schedule",
    "ReductionOp",
    "SUM",
    "PROD",
    "MIN",
    "MAX",
    "available_ops",
    "get_op",
    "register_op",
    "REGISTRY",
    "AlgorithmInfo",
    "AlgorithmRegistry",
    "CommunicationSchedule",
    "LocalCompute",
    "Message",
    "Protocol",
    "Round",
    "merge_sequential",
    "BinomialTree",
    "Hypercube",
    "KnomialTree",
    "Ring",
    "chunk_bounds",
    "chunk_sizes",
    "dissemination_schedule",
]
