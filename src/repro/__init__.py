"""repro — reproduction of "Efficient and Eventually Consistent Collective Operations".

The package is organised as follows (see DESIGN.md for the full map):

* :mod:`repro.gaspi` — GASPI runtime substrate (segments, one-sided
  write_notify, notifications, queues), executed by one thread per rank.
* :mod:`repro.core` — the paper's collectives: eventually consistent
  Broadcast/Reduce (data/process thresholds), the SSP Allreduce
  (Algorithm 1), the segmented pipelined ring Allreduce, AlltoAll(V) and a
  notification barrier — each a compiled plan behind the
  :class:`~repro.core.api.Communicator`, with a communication-schedule
  builder for the simulator.
* :mod:`repro.mpi` — the Intel-MPI baseline algorithms the paper compares
  against (twelve Allreduce variants, binomial/default Bcast and Reduce,
  Bruck/pairwise/default AlltoAll) plus a two-sided messaging layer.
* :mod:`repro.simulate` — the network timing model and machine presets
  used to regenerate the paper's figures.
* :mod:`repro.ssp`, :mod:`repro.ml` — the Stale Synchronous Parallel
  machinery and the Matrix Factorization / SGD workload of Figures 6–7.
* :mod:`repro.apps` — the FFT mini-app whose AlltoAll traffic motivates
  Figure 13.
* :mod:`repro.bench` — the experiment harness behind ``benchmarks/``.
* :mod:`repro.telemetry` — off-by-default runtime metrics: per-rank span
  timelines, counters/gauges/latency histograms and Chrome-trace export.

Quick start::

    import numpy as np
    from repro import run_spmd, Communicator, ConsistencyPolicy

    def worker(runtime):
        comm = Communicator(runtime)
        grad = np.random.default_rng(comm.rank).random(1 << 20)
        total = comm.allreduce(grad, op="sum")     # algorithm="auto"
        comm.bcast(grad, root=0,
                   policy=ConsistencyPolicy.data_threshold(0.25))
        half = comm.split(comm.rank % 2)           # sub-communicator
        return total

    results = run_spmd(8, worker)
"""

__version__ = "1.0.0"

from .gaspi import (
    BACKENDS,
    GaspiError,
    GaspiRuntime,
    GaspiTimeoutError,
    Group,
    GroupRuntime,
    ShmConfig,
    ShmRuntime,
    ShmWorld,
    ThreadedRuntime,
    ThreadedWorld,
    WorldConfig,
    run_backend,
    run_shm,
    run_spmd,
)
from .core import (
    REGISTRY,
    AlgorithmCapabilities,
    AlgorithmInfo,
    ChunkLayout,
    CollectiveHandle,
    CollectiveRequest,
    CollectiveResult,
    Communicator,
    CommunicationSchedule,
    ConsistencyPolicy,
    Message,
    PersistentCollective,
    PlanCacheStats,
    PlanKey,
    Protocol,
    ReductionOp,
    TuningTable,
    select_algorithm,
)
from .simulate import (
    MachineModel,
    NetworkParameters,
    ScheduleExecutor,
    SimulationResult,
    galileo,
    get_machine,
    marenostrum4,
    simulate_schedule,
    skylake_fdr,
)

# Importing repro.mpi registers the MPI baselines in REGISTRY.
from . import mpi  # noqa: F401  (import for registration side effect)

# Importing repro.faults registers the fault-tolerant collectives.
from . import faults  # noqa: F401  (import for registration side effect)
from .faults import (
    DegradedCollectiveError,
    DegradedResult,
    FaultPlan,
    FaultyRuntime,
    RankCrashedError,
    get_scenario,
    scenario_names,
)
from .telemetry import (
    Telemetry,
    TelemetryRuntime,
    chrome_trace,
    merge_snapshots,
    render_summary,
    write_chrome_trace,
)

__all__ = [
    "__version__",
    # gaspi
    "GaspiError",
    "GaspiRuntime",
    "GaspiTimeoutError",
    "Group",
    "ThreadedRuntime",
    "ThreadedWorld",
    "WorldConfig",
    "ShmConfig",
    "ShmRuntime",
    "ShmWorld",
    "BACKENDS",
    "run_spmd",
    "run_shm",
    "run_backend",
    # core
    "REGISTRY",
    "AlgorithmCapabilities",
    "AlgorithmInfo",
    "CollectiveRequest",
    "CollectiveResult",
    "Communicator",
    "ConsistencyPolicy",
    "PersistentCollective",
    "PlanCacheStats",
    "PlanKey",
    "TuningTable",
    "select_algorithm",
    "GroupRuntime",
    "CommunicationSchedule",
    "Message",
    "Protocol",
    "ReductionOp",
    # simulate
    "MachineModel",
    "NetworkParameters",
    "ScheduleExecutor",
    "SimulationResult",
    "galileo",
    "get_machine",
    "marenostrum4",
    "simulate_schedule",
    "skylake_fdr",
    "mpi",
    # faults
    "faults",
    "DegradedCollectiveError",
    "DegradedResult",
    "FaultPlan",
    "FaultyRuntime",
    "RankCrashedError",
    "get_scenario",
    "scenario_names",
    # telemetry
    "Telemetry",
    "TelemetryRuntime",
    "chrome_trace",
    "merge_snapshots",
    "render_summary",
    "write_chrome_trace",
]
