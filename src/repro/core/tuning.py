"""Runtime algorithm selection: Intel-MPI-style tuning tables.

Intel MPI picks a collective implementation from the message size and the
communicator size (``I_MPI_ADJUST_*``); the paper's "mpi-def" baselines
are whatever those tables select.  This module generalises that mechanism
into a first-class :class:`TuningTable` that both families use:

* the **GASPI table** backs ``algorithm="auto"`` on the user-facing
  :class:`~repro.core.api.Communicator` — small payloads go to the
  latency-optimal hypercube, large payloads to the bandwidth-optimal
  segmented pipelined ring, exactly the trade-off Figures 11–12 quantify;
* the **MPI table** reproduces the Intel defaults and backs the
  ``mpi_*_default`` registry entries (:mod:`repro.mpi.tuning` imports the
  byte thresholds from here so the two layers cannot drift apart).

A rule matches on the communicator size and payload size; the first
matching rule whose algorithm also *supports* the request (capability
check against the registry) wins, so e.g. the hypercube is skipped
automatically on non-power-of-two worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from ..utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .policy import ConsistencyPolicy
    from .registry import AlgorithmInfo, AlgorithmRegistry

# --------------------------------------------------------------------------- #
# Selection thresholds (bytes) — round numbers in the range the MPI
# literature and the Intel defaults use; deliberately conservative so the
# "default" baseline is a strong competitor, as it is in the paper's figures.
# --------------------------------------------------------------------------- #
ALLREDUCE_SMALL = 8 * 1024
ALLREDUCE_MEDIUM = 256 * 1024
BCAST_SMALL = 12 * 1024
REDUCE_SMALL = 32 * 1024
ALLTOALL_SMALL = 1024
ALLTOALL_MEDIUM = 64 * 1024

# --------------------------------------------------------------------------- #
# Pipelined chunked data path (PR 4).  Payloads at or above
# PIPELINE_MIN_BYTES route to the chunked pipelined variants; the chunk
# size itself comes from PIPELINE_CHUNK_TABLE below.
# --------------------------------------------------------------------------- #
PIPELINE_MIN_BYTES = 128 * 1024

#: The reduce crossover sits higher: the monolithic BST reduce is single
#: copy and one hop per tree level (a credit, no handshake), so chunking
#: has only its own bookkeeping to offer until per-chunk folds overlap
#: multi-hundred-microsecond transfers.  Re-measured in PR 18 (pinned
#: ranks, pipelined / monolithic): at 512 KiB 1.14 on shm and 1.25
#: threaded at 2 ranks, 1.17 / 1.33 at 4; at 768 KiB 1.01 / 1.16; from
#: 1 MiB to 4 MiB 0.94-0.96 on shm, 1.04-1.17 threaded (CHANGES.md).
REDUCE_PIPELINE_MIN_BYTES = 1024 * 1024


@dataclass(frozen=True)
class ChunkRule:
    """One row of the chunk-size table: payloads up to ``max_nbytes``
    (``None`` = unbounded) are cut into ``chunk_bytes``-sized pieces
    (``None`` = a single chunk, the degenerate zero-copy pipeline)."""

    max_nbytes: Optional[int]
    chunk_bytes: Optional[int]


#: Payload-size → chunk-size table of the pipelined data path.  The shape
#: mirrors Open MPI's segmented-collective tuning: no segmentation below
#: the pipelining threshold, then chunk sizes that grow with the payload
#: so the chunk count stays small.  The table was derived by hand on the
#: thread-per-rank substrate, where the per-chunk cost is a
#: condition-variable wakeup (~50 us), not a NIC doorbell, so the
#: crossover sits far higher than on real hardware — chunking pays off
#: only once a chunk's memcpy time clears the wakeup latency.  The shm
#: substrate no longer pays that wakeup when each rank owns a core (a
#: blocked rank polls, see ``ShmWorld.hybrid_wait``); finer chunks on top
#: of that measured inconclusive (+5 % / -4 % over two pairs), so the
#: table stands until a sweep re-derives it (ROADMAP item 7c).
#: ``ConsistencyPolicy.chunk_bytes`` overrides the table, which the
#: nonblocking overlap path uses to force finer chunks.
PIPELINE_CHUNK_TABLE: List[ChunkRule] = [
    ChunkRule(max_nbytes=512 * 1024, chunk_bytes=None),  # single zero-copy chunk
    ChunkRule(max_nbytes=2 * 1024 * 1024, chunk_bytes=512 * 1024),
    ChunkRule(max_nbytes=8 * 1024 * 1024, chunk_bytes=1024 * 1024),
    ChunkRule(max_nbytes=None, chunk_bytes=2 * 1024 * 1024),
]


def select_chunk_bytes(
    nbytes: int, table: Optional[List[ChunkRule]] = None
) -> Optional[int]:
    """Chunk size (bytes) the pipelined data path uses for a payload.

    ``None`` means "do not segment" — the pipeline degenerates to a single
    zero-copy transfer per edge.
    """
    require(nbytes >= 0, f"nbytes must be non-negative, got {nbytes}")
    for rule in table if table is not None else PIPELINE_CHUNK_TABLE:
        if rule.max_nbytes is None or nbytes <= rule.max_nbytes:
            return rule.chunk_bytes
    return None


@dataclass(frozen=True)
class TuningRule:
    """One row of a tuning table.

    A rule applies when ``nbytes <= max_nbytes`` (if set) and
    ``min_ranks <= num_ranks <= max_ranks`` (where set).  Rules are tried
    in order; a rule whose algorithm does not support the request (wrong
    world size, unsupported policy) is skipped rather than failing, so the
    table degrades gracefully.
    """

    collective: str
    algorithm: str
    max_nbytes: Optional[int] = None
    min_nbytes: int = 0
    min_ranks: int = 1
    max_ranks: Optional[int] = None
    reason: str = ""

    def matches(self, num_ranks: int, nbytes: int) -> bool:
        if nbytes < self.min_nbytes:
            return False
        if self.max_nbytes is not None and nbytes > self.max_nbytes:
            return False
        if num_ranks < self.min_ranks:
            return False
        if self.max_ranks is not None and num_ranks > self.max_ranks:
            return False
        return True


class TuningTable:
    """Ordered rule list mapping (collective, size, ranks) → algorithm."""

    def __init__(self, name: str, rules: List[TuningRule]) -> None:
        self.name = name
        self.rules = list(rules)

    def select(
        self,
        collective: str,
        num_ranks: int,
        nbytes: int,
        policy: Optional["ConsistencyPolicy"] = None,
        registry: Optional["AlgorithmRegistry"] = None,
        executable: bool = False,
    ) -> "AlgorithmInfo":
        """Pick the first applicable, supported algorithm for a request.

        Parameters
        ----------
        registry:
            Registry the candidate names are resolved against (the global
            :data:`~repro.core.registry.REGISTRY` when ``None``).
        executable:
            Require the selected algorithm to carry a ``run`` entry point
            (set by the Communicator; the benchmark harness only needs the
            schedule builder and leaves this off).
        """
        from .registry import REGISTRY

        registry = registry if registry is not None else REGISTRY
        candidates = [r for r in self.rules if r.collective == collective]
        require(
            bool(candidates),
            f"tuning table {self.name!r} has no rules for collective "
            f"{collective!r}",
        )
        skipped = []
        for rule in candidates:
            if not rule.matches(num_ranks, nbytes):
                continue
            if rule.algorithm not in registry:
                skipped.append(f"{rule.algorithm} (not registered)")
                continue
            info = registry.get(rule.algorithm)
            if executable and not info.executable:
                skipped.append(f"{rule.algorithm} (no executable runner)")
                continue
            supported, why = info.supports(num_ranks, policy)
            if not supported:
                skipped.append(f"{rule.algorithm} ({why})")
                continue
            return info
        detail = f"; skipped: {', '.join(skipped)}" if skipped else ""
        raise ValueError(
            f"tuning table {self.name!r} found no supported {collective!r} "
            f"algorithm for {num_ranks} ranks / {nbytes} bytes{detail}"
        )


def default_gaspi_table() -> TuningTable:
    """The auto-selection rules for the paper's GASPI collectives.

    Mirrors the shape of the Intel tables: latency-optimal algorithms for
    small payloads (hypercube allreduce — log2(P) rounds; flat broadcast
    for tiny worlds), bandwidth-optimal ones beyond the threshold (the
    segmented pipelined ring, the BST).  The crossover values reuse the
    byte thresholds of the MPI defaults so the two families are tuned on
    the same scale.
    """
    return TuningTable(
        "gaspi-default",
        [
            # Allreduce: hypercube moves the full vector every one of its
            # log2(P) steps — unbeatable latency for small vectors, hopeless
            # bandwidth for large ones (paper Figure 7 left / Figure 12).
            TuningRule(
                "allreduce",
                "gaspi_allreduce_ssp_hypercube",
                max_nbytes=ALLREDUCE_SMALL,
                reason="latency-optimal for small payloads (log2 P rounds)",
            ),
            TuningRule(
                "allreduce",
                "gaspi_allreduce_ring_pipelined",
                min_nbytes=PIPELINE_MIN_BYTES,
                reason="chunked zero-copy ring for large payloads",
            ),
            TuningRule(
                "allreduce",
                "gaspi_allreduce_ring",
                reason="bandwidth-optimal segmented pipelined ring",
            ),
            # Bcast: the flat P-1 write_notify fan-out beats the BST only
            # for very small worlds; the BST wins everywhere else; large
            # payloads take the chunked zero-copy pipeline.
            TuningRule(
                "bcast",
                "gaspi_bcast_flat",
                max_ranks=2,
                max_nbytes=BCAST_SMALL,
                reason="flat fan-out for tiny worlds",
            ),
            TuningRule(
                "bcast",
                "gaspi_bcast_bst_pipelined",
                min_nbytes=PIPELINE_MIN_BYTES,
                reason="chunked pipelined BST for large payloads",
            ),
            TuningRule(
                "bcast",
                "gaspi_bcast_bst",
                reason="binomial spanning tree (paper III-B)",
            ),
            TuningRule(
                "reduce",
                "gaspi_reduce_bst_pipelined",
                min_nbytes=REDUCE_PIPELINE_MIN_BYTES,
                reason="chunked pipelined BST reduce for large payloads",
            ),
            TuningRule("reduce", "gaspi_reduce_bst", reason="BST reduce"),
            TuningRule(
                "alltoall", "gaspi_alltoall", reason="direct write_notify exchange"
            ),
            TuningRule(
                "allgather", "gaspi_allgather_ring", reason="ring allgather"
            ),
            TuningRule(
                "barrier",
                "gaspi_barrier_dissemination",
                reason="dissemination barrier",
            ),
        ],
    )


def default_mpi_table() -> TuningTable:
    """Auto-selection over the MPI baselines (the paper's "mpi-def")."""
    return TuningTable(
        "mpi-default",
        [
            TuningRule(
                "allreduce",
                "mpi_allreduce_mpi1_recursive_doubling",
                max_nbytes=ALLREDUCE_SMALL,
                reason="latency-optimal recursive doubling",
            ),
            TuningRule(
                "allreduce",
                "mpi_allreduce_mpi2_rabenseifner",
                max_nbytes=ALLREDUCE_MEDIUM,
                reason="Rabenseifner for medium payloads",
            ),
            TuningRule(
                "allreduce",
                "mpi_allreduce_mpi7_shumilin_ring",
                reason="bandwidth-optimal ring",
            ),
            # Executable fallbacks: the preferred picks above are
            # schedule-only (no functional two-sided implementation), so an
            # executable=True selection (live Communicator dispatch) falls
            # through to the functional ring; simulation keeps the Intel
            # picks because non-executable selection stops earlier.
            TuningRule(
                "allreduce",
                "mpi_allreduce_mpi8_ring",
                reason="executable fallback: functional two-sided ring",
            ),
            TuningRule(
                "bcast",
                "mpi_bcast_binomial",
                max_nbytes=BCAST_SMALL,
                reason="binomial tree for small payloads",
            ),
            TuningRule("bcast", "mpi_bcast_binomial", max_ranks=4),
            TuningRule(
                "bcast",
                "mpi_bcast_scatter_allgather",
                reason="van de Geijn scatter+allgather",
            ),
            TuningRule(
                "bcast",
                "mpi_bcast_binomial",
                reason="executable fallback: functional binomial tree",
            ),
            TuningRule(
                "reduce",
                "mpi_reduce_binomial",
                max_nbytes=REDUCE_SMALL,
                reason="binomial tree for small payloads",
            ),
            TuningRule("reduce", "mpi_reduce_binomial", max_ranks=4),
            TuningRule(
                "reduce",
                "mpi_reduce_scatter_gather",
                reason="reduce-scatter + gather",
            ),
            TuningRule(
                "reduce",
                "mpi_reduce_binomial",
                reason="executable fallback: functional binomial tree",
            ),
            TuningRule(
                "alltoall",
                "mpi_alltoall_bruck",
                max_nbytes=ALLTOALL_SMALL,
                reason="Bruck for small blocks",
            ),
            TuningRule(
                "alltoall",
                "mpi_alltoall_pairwise",
                reason="pairwise exchange",
            ),
        ],
    )


#: Singleton default tables, keyed by family.
DEFAULT_TABLES = {"gaspi": default_gaspi_table(), "mpi": default_mpi_table()}


def select_algorithm(
    collective: str,
    num_ranks: int,
    nbytes: int,
    policy: Optional["ConsistencyPolicy"] = None,
    family: str = "gaspi",
    registry: Optional["AlgorithmRegistry"] = None,
    executable: bool = False,
) -> "AlgorithmInfo":
    """Module-level convenience over the default per-family tables."""
    require(
        family in DEFAULT_TABLES,
        f"unknown tuning family {family!r}; available: {sorted(DEFAULT_TABLES)}",
    )
    return DEFAULT_TABLES[family].select(
        collective,
        num_ranks,
        nbytes,
        policy=policy,
        registry=registry,
        executable=executable,
    )
