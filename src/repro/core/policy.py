"""First-class consistency policies for the collective API.

The paper's central idea is that a collective should expose a *consistency
dial* rather than a single synchronous semantics: ship only a fraction of
the data (data threshold), engage only a fraction of the processes
(process threshold), or accept bounded-stale contributions (SSP slack).
The seed API scattered these knobs as loose keyword arguments
(``threshold=``, ``mode=``, ``slack=``) across per-collective methods;
this module makes them one value object, :class:`ConsistencyPolicy`, that
every :class:`~repro.core.api.Communicator` collective accepts and every
registered algorithm advertises support for
(:class:`~repro.core.registry.AlgorithmCapabilities`).

The other two dataclasses form the uniform currency of the dispatch path:

* :class:`CollectiveRequest` — everything an executable algorithm needs to
  run one collective (buffers, root, operator, policy, workspace segment);
* :class:`CollectiveResult` — the outcome: the value, the algorithm that
  produced it, the per-algorithm status detail (e.g.
  :class:`~repro.core.bcast.BroadcastResult`) and, when a machine model is
  attached, the simulated :class:`~repro.simulate.executor.SimulationResult`.

``CollectiveResult`` delegates unknown attributes to its ``detail`` so
existing code written against the old per-collective result types
(``result.elements_received``, ``result.participated``, …) keeps working.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Collection, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..gaspi.constants import GASPI_BLOCK
from ..utils.validation import check_fraction, require
from .reduction_ops import ReductionOp, get_op
from .workspace import WorkspacePool


class ReduceMode(enum.Enum):
    """Which eventual-consistency strategy a threshold applies to."""

    DATA = "data"
    PROCESSES = "processes"


@dataclass(frozen=True)
class ConsistencyPolicy:
    """The paper's consistency dial as a single immutable value object.

    Attributes
    ----------
    threshold:
        Fraction in ``(0, 1]`` of the data (``mode="data"``) or of the
        processes (``mode="processes"``) a collective must cover before it
        is considered complete.  ``1.0`` is the fully consistent behaviour.
    mode:
        What the threshold applies to: :data:`ReduceMode.DATA` ships only
        the leading fraction of every vector (paper Figures 8 & 9);
        :data:`ReduceMode.PROCESSES` ships full vectors but lets the ranks
        farthest from the root stay silent (Figure 10).
    slack:
        Stale Synchronous Parallelism slack in iterations for the SSP
        collectives (paper Algorithm 1); ``0`` means fully synchronous.
    on_failure:
        What a fault-tolerant collective does when, after its detection
        timeout, fewer contributors than the threshold requires have
        arrived: ``"abort"`` (the default) raises
        :class:`~repro.faults.recovery.DegradedCollectiveError`;
        ``"complete"`` publishes the degraded result anyway, with the
        absent ranks recorded in
        :attr:`CollectiveResult.missing_ranks`.  Algorithms without the
        ``fault_tolerant`` capability ignore this field.
    chunk_bytes:
        Chunk size (bytes) of the pipelined chunked data path.  ``None``
        (the default) lets the tuning tables pick a payload-dependent
        size (:func:`~repro.core.tuning.select_chunk_bytes`); an explicit
        value overrides them, e.g. to force fine-grained chunks for a
        nonblocking overlap loop.  Algorithms without a pipelined
        implementation ignore this field.
    """

    threshold: float = 1.0
    mode: ReduceMode = ReduceMode.DATA
    slack: int = 0
    on_failure: str = "abort"
    chunk_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        check_fraction(self.threshold, "policy threshold")
        object.__setattr__(self, "mode", ReduceMode(self.mode))
        require(
            isinstance(self.slack, (int, np.integer)) and self.slack >= 0,
            f"policy slack must be a non-negative integer, got {self.slack!r}",
        )
        object.__setattr__(self, "slack", int(self.slack))
        require(
            self.on_failure in ("abort", "complete"),
            f"policy on_failure must be 'abort' or 'complete', got "
            f"{self.on_failure!r}",
        )
        if self.chunk_bytes is not None:
            require(
                isinstance(self.chunk_bytes, (int, np.integer))
                and self.chunk_bytes > 0,
                f"policy chunk_bytes must be a positive integer or None, "
                f"got {self.chunk_bytes!r}",
            )
            object.__setattr__(self, "chunk_bytes", int(self.chunk_bytes))
        # Hashed once, for the dispatch memo; numbers only, so a pickled copy
        # stays valid under another string-hash seed.
        numbers = (self.threshold, self.slack, self.chunk_bytes or 0)
        flags = (self.mode is ReduceMode.PROCESSES, self.on_failure == "complete")
        object.__setattr__(self, "_hash", hash(numbers + flags))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------ #
    # constructors for the three dial positions
    # ------------------------------------------------------------------ #
    @classmethod
    def strict(cls) -> "ConsistencyPolicy":
        """Fully consistent: all data, all processes, zero slack."""
        return cls()

    @classmethod
    def data_threshold(
        cls, threshold: float, on_failure: str = "abort"
    ) -> "ConsistencyPolicy":
        """Eventually consistent in the data: ship the leading ⌊n·t⌋ of a
        vector's ``n`` elements, at least one; the rest of a result buffer
        is left untouched."""
        return cls(threshold=threshold, mode=ReduceMode.DATA, on_failure=on_failure)

    @classmethod
    def process_threshold(
        cls, threshold: float, on_failure: str = "abort"
    ) -> "ConsistencyPolicy":
        """Eventually consistent in the processes: ⌈t·P⌉ of the ``P`` ranks
        reduce, at least one.  The tree drops its deepest stage first and,
        within a stage, the highest virtual rank first; the root stays."""
        return cls(
            threshold=threshold, mode=ReduceMode.PROCESSES, on_failure=on_failure
        )

    @classmethod
    def ssp(cls, slack: int) -> "ConsistencyPolicy":
        """Stale-synchronous: accept contributions up to ``slack`` old."""
        return cls(slack=slack)

    # ------------------------------------------------------------------ #
    @property
    def is_strict(self) -> bool:
        """True when this policy requests the fully consistent semantics."""
        return self.threshold >= 1.0 and self.slack == 0

    def describe(self) -> str:
        """Short human-readable form used in error messages and reports."""
        if self.is_strict and self.on_failure == "abort" and self.chunk_bytes is None:
            return "strict"
        if self.is_strict and self.chunk_bytes is None:
            return f"strict, on_failure={self.on_failure}"
        parts = []
        if self.threshold < 1.0:
            parts.append(f"{int(self.threshold * 100)}% {self.mode.value}")
        if self.slack > 0:
            parts.append(f"slack={self.slack}")
        if self.on_failure != "abort":
            parts.append(f"on_failure={self.on_failure}")
        if self.chunk_bytes is not None:
            parts.append(f"chunk_bytes={self.chunk_bytes}")
        return ", ".join(parts) or "strict"


#: The default policy used when a collective is called without one.
STRICT = ConsistencyPolicy()


def check_policy(policy: object) -> None:
    """Reject non-policy values early with a migration hint.

    Catches v1-style positional calls (``comm.bcast(buf, 0, 0.25)``) where
    a bare threshold float lands in the ``policy`` parameter — without
    this, the mistake surfaces as an AttributeError deep in capability
    checking.
    """
    if not isinstance(policy, ConsistencyPolicy):
        raise TypeError(
            f"policy must be a ConsistencyPolicy, got {policy!r}; a bare "
            f"threshold is no longer accepted positionally — pass "
            f"policy=ConsistencyPolicy.data_threshold(...) instead"
        )


@dataclass
class CollectiveRequest:
    """One collective invocation, as handed to a registered algorithm.

    The request is backend-agnostic: the threaded runners execute it with
    real data movement, while the simulator backend additionally replays
    the algorithm's communication schedule on a machine model.
    """

    collective: str
    sendbuf: Optional[np.ndarray] = None
    recvbuf: Optional[np.ndarray] = None
    root: int = 0
    op: str | ReductionOp = "sum"
    policy: ConsistencyPolicy = field(default_factory=ConsistencyPolicy)
    send_counts: Optional[Sequence[int]] = None
    recv_counts: Optional[Sequence[int]] = None
    #: Workspace id of a call made outside a communicator; under one,
    #: runners lease from its ``pool`` instead.
    segment_id: int = 0
    pool: Optional[WorkspacePool] = None
    queue: int = 0
    timeout: float = GASPI_BLOCK
    #: Plan-instance tag: requests with different tags never share a
    #: compiled plan, so several same-shape nonblocking collectives (the
    #: per-bucket gradient exchanges of the ML overlap path) can be in
    #: flight concurrently, each on its own workspace and notification
    #: space.
    tag: int = 0
    metadata: Dict[str, Any] = field(default_factory=dict)

    def own_segment_id(self) -> int:
        """Segment id for a runner that registers its own workspace (the
        MPI baselines): under a communicator, a fresh id from its pool's
        range, in SPMD lock-step."""
        return self.segment_id if self.pool is None else self.pool.reserve_id()

    @property
    def variable(self) -> bool:
        """True for a variable-count exchange (``alltoallv``)."""
        return self.send_counts is not None or self.recv_counts is not None

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (0 for data-free collectives)."""
        if self.sendbuf is None:
            return 0
        return int(np.asarray(self.sendbuf).nbytes)


@dataclass
class CollectiveResult:
    """Outcome of one dispatched collective on one rank.

    Attributes
    ----------
    value:
        The rank's output buffer (``None`` for pure synchronisation).
    algorithm:
        Registry name of the algorithm that actually ran — with
        ``algorithm="auto"`` this records the tuning table's choice.
    policy:
        The effective consistency policy.
    detail:
        The algorithm's own status object (:class:`BroadcastResult`,
        :class:`ReduceResult`, :class:`RingAllreduceStats`, …).
    simulated:
        :class:`~repro.simulate.executor.SimulationResult` of the
        algorithm's schedule when the communicator carries a machine
        model; ``None`` otherwise.
    missing_ranks:
        Ranks whose contribution is still missing from a fault-tolerant
        collective's result (empty for ordinary collectives): what the
        per-algorithm ``detail`` (:class:`~repro.faults.recovery.DegradedResult`)
        reports, so a successful correction empties it here too.
    """

    value: Optional[np.ndarray]
    algorithm: str = ""
    #: Shared default (policies are immutable): constructing and validating
    #: one per result is measurable at plan-cached call rates.
    policy: ConsistencyPolicy = STRICT
    detail: Any = None
    simulated: Any = None

    @property
    def missing_ranks(self) -> Tuple[int, ...]:
        return getattr(self.detail, "missing_ranks", ())

    @property
    def simulated_seconds(self) -> Optional[float]:
        """Simulated completion time, when a machine model was attached."""
        return None if self.simulated is None else self.simulated.total_time

    def __getattr__(self, name: str) -> Any:
        # Delegate unknown attributes to the per-algorithm detail object so
        # callers written against the old result types keep working
        # (e.g. ``result.elements_received`` on a broadcast).
        detail = object.__getattribute__(self, "detail")
        if detail is not None and not name.startswith("_"):
            try:
                return getattr(detail, name)
            except AttributeError:
                pass
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r} "
            f"(detail is {type(detail).__name__!r})"
        )


# --------------------------------------------------------------------------- #
# the contract: what a policy owes each rank
# --------------------------------------------------------------------------- #
def documented_result(
    collective: str,
    policy: ConsistencyPolicy,
    inputs: Sequence[Any],
    *,
    root: int = 0,
    op: Union[str, ReductionOp] = "sum",
    before: Optional[Sequence[Optional[np.ndarray]]] = None,
    contributors: Union[Collection[int], Mapping[int, int], None] = None,
    clock: int = 1,
) -> List[Optional[np.ndarray]]:
    """What each rank is owed by one call of ``collective`` under ``policy``,
    written from the documented rules, not from the code that ships them.

    * strict: the root's payload (``bcast``), every block at its offset
      (``alltoall``, ``allgather``), the fold of every payload
      (``allreduce``, a ``reduce``'s root).  A reduce folds in binomial
      tree order — each rank folds its children, in the order they join,
      into its own payload — so it is exact for any payload; other folds
      run in rank order, exact for integer-valued payloads;
    * data threshold ``t``: the leading ⌊n·t⌋ of ``n`` elements (at least
      one) as above; the rest of the result buffer stays as ``before``;
    * process threshold ``t``: the fold over ⌈t·P⌉ of ``P`` ranks (at
      least one).  The tree drops its deepest stage first and, within a
      stage, the highest virtual rank first: virtual ranks
      ``0 … ⌈t·P⌉ − 1`` stay, the root among them;
    * degraded (``contributors``, a set of ranks): the fold over the
      reported contributors; a broadcast receiver whose root is not among
      them keeps ``before``;
    * SSP (``policy.slack > 0``): ``contributors`` maps each rank to the
      clock of its contribution in the value, 0 for none.  None may be
      older than ``clock − slack``, and none at all is admissible only
      while that window reaches back before the first call (a mailbox
      nobody wrote is no contribution); else :class:`ValueError`.

    ``inputs[r]`` is rank ``r``'s payload (under slack, its payloads by
    clock: ``inputs[r][c - 1]``); ``before[r]`` its result buffer as the
    call found it (zeros by default).  ``None`` marks a rank owed nothing.
    """
    size = len(inputs)
    if collective == "barrier":
        return [None] * size
    if collective == "allgather":
        return [np.concatenate(inputs)] * size
    if collective == "alltoall":
        blocks = [np.asarray(sent).reshape(size, -1) for sent in inputs]
        return [np.concatenate([block[rank] for block in blocks]) for rank in range(size)]
    func = get_op(op).func
    if policy.slack:
        oldest, folded, clocks = clock - policy.slack, [], dict(contributors or {})
        for rank in range(size):
            call = clocks.get(rank, 0)
            if call or oldest >= 1:  # else its mailbox may be unwritten
                if not max(oldest, 1) <= call <= len(inputs[rank]):
                    raise ValueError(
                        f"holds rank {rank}'s contribution of clock {call}, outside "
                        f"[{max(oldest, 1)}, {len(inputs[rank])}] at clock {clock}"
                    )
                folded.append(inputs[rank][call - 1])
        if not folded:
            raise ValueError("holds no contribution at all")
        return [functools.reduce(func, folded)] * size
    # The fraction as written (3/10, not the float just below it), exactly.
    threshold = Fraction(policy.threshold).limit_denominator(1 << 20)
    payload = np.asarray(inputs[root])
    prefix, kept = payload.size, size
    if policy.mode is ReduceMode.DATA:
        prefix = max(1, math.floor(payload.size * threshold))
    else:
        kept = max(1, math.ceil(threshold * size))
    if collective == "bcast":
        value = payload if contributors is None or root in contributors else None
    elif contributors is not None:
        value = functools.reduce(func, [inputs[rank] for rank in sorted(contributors)])
    elif collective == "reduce":
        value = _tree_fold(func, [np.asarray(x)[:prefix] for x in inputs], root, kept)
    else:
        value = functools.reduce(func, [inputs[(root + v) % size] for v in range(kept)])
    owed: List[Optional[np.ndarray]] = []
    for rank in range(size):
        held = None if before is None else before[rank]
        out = np.zeros_like(payload) if held is None else np.array(held, copy=True)
        if value is not None:
            out[:prefix] = value[:prefix]
        owed.append(None if collective == "reduce" and rank != root else out)
    if collective == "bcast":
        owed[root] = payload
    return owed


def _tree_fold(func: Any, payloads: List[np.ndarray], root: int, kept: int) -> np.ndarray:
    """Fold over virtual ranks ``0 … kept − 1`` in binomial tree order: the
    children of virtual rank ``v`` are ``v + 2**i`` for every ``2**i > v``."""

    def partial(v: int) -> np.ndarray:
        acc = payloads[(v + root) % len(payloads)]
        step = 1 << v.bit_length()  # 1 at the root
        while v + step < kept:
            acc = func(acc, partial(v + step))
            step <<= 1
        return acc

    return partial(0)
