"""Event vocabulary shared by the static model and the runtime tracer.

Every checker in :mod:`repro.analysis` consumes the same structure: a
:class:`ProtocolTrace` holding one *ordered event sequence per rank* plus
the metadata of every segment the sequences touch.  One recorder,
:class:`~repro.analysis.tracing.TracingRuntime`, produces them all, under
two drivers —

* :mod:`repro.analysis.model` runs the compiled plans of every plannable
  algorithm on the shipped threaded runtime, every rank on one
  cooperatively scheduled thread (no timing), through its
  :class:`~repro.analysis.model.ModelTracingRuntime` subclass;
* live threaded/shm executions wrap their runtimes with
  ``runtime.traced(sink)`` —

so a finding means the same thing regardless of where the trace came
from, and the static model can be validated against reality.

Five event kinds cover the one-sided GASPI protocol surface:

``post``
    A notification leaving ``rank`` for ``dst`` (``gaspi_notify`` or the
    notification half of ``gaspi_write_notify``).  ``length > 0`` means
    the post also carried data: ``length`` bytes written to byte
    ``offset`` of segment ``segment`` *at the destination* (GASPI
    guarantees the data is visible before the notification).
``consume``
    A successful ``notify_reset`` at ``rank`` of slot ``notif_id`` on its
    own ``segment`` (``value`` is the swapped-out notification value).
``write``
    A *local* store into ``rank``'s own copy of ``segment`` — staging
    copies, segment-resident accumulator folds.  Only the model records
    these, through the tracked segment views its tracing layer hands out
    (a live run's views are the runtime's plain NumPy arrays).
``read``
    A *local* load of a fold operand from ``rank``'s own copy of
    ``segment`` — a child slot or a mailbox read in place.  What a credit
    or a consume-ack protects is exactly this: the peer's next write
    racing it.  Model only, from the same tracked views as ``write``.
``barrier``
    Participation in a global barrier; barriers with the same per-rank
    ordinal synchronise across all ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

POST = "post"
CONSUME = "consume"
LOCAL_WRITE = "write"
LOCAL_READ = "read"
BARRIER = "barrier"


@dataclass(frozen=True)
class Event:
    """One protocol-relevant action of one rank (see module docstring)."""

    kind: str
    rank: int
    segment: int = -1
    #: Destination rank of a post's notification/data; ``rank`` itself for
    #: local writes and consumes.
    dst: int = -1
    #: Destination byte offset of the data written (posts with data and
    #: local writes); -1 when the event moves no data.
    offset: int = -1
    #: Bytes written at ``offset`` (0 = pure notification).
    length: int = 0
    notif_id: int = -1
    value: int = 0
    #: Source byte offset of a data-carrying post (for budget checks of
    #: the local side of ``write_notify``).
    local_offset: int = -1
    note: str = ""

    def with_notif_id(self, notif_id: int) -> "Event":
        """Copy of this event with a different notification id."""
        return replace(self, notif_id=notif_id)


@dataclass(frozen=True)
class SegmentMeta:
    """Size and notification budget of one rank's copy of a segment."""

    rank: int
    segment_id: int
    size: int
    num_notifications: int


@dataclass
class ProtocolTrace:
    """Per-rank event sequences plus segment metadata — checker input.

    Attributes
    ----------
    name:
        Human-readable label (algorithm and parameters) used in findings.
    num_ranks:
        World size; ``events`` has exactly this many sequences.
    events:
        ``events[r]`` is rank ``r``'s actions in program order.
    segments:
        ``(rank, segment_id)`` → :class:`SegmentMeta` for every segment
        created while the trace was produced.
    overwrite_tolerant:
        True for protocols whose notification slots are idempotent
        freshness hints rather than at-most-once tokens (the SSP
        hypercube: values carry logical clocks and the actual state lives
        in the mailbox, which is re-read after every consume).  The
        double-post check is skipped for such traces — an overwrite loses
        nothing by design.
    stalled_ranks:
        Ranks whose model program could not run to completion (only the
        model sets this; a correct algorithm never does).
    """

    name: str
    num_ranks: int
    events: List[List[Event]]
    segments: Dict[Tuple[int, int], SegmentMeta] = field(default_factory=dict)
    overwrite_tolerant: bool = False
    stalled_ranks: List[int] = field(default_factory=list)

    def copy(self) -> "ProtocolTrace":
        """Shallow-per-sequence copy, safe to mutate (used by fixtures)."""
        return ProtocolTrace(
            name=self.name,
            num_ranks=self.num_ranks,
            events=[list(seq) for seq in self.events],
            segments=dict(self.segments),
            overwrite_tolerant=self.overwrite_tolerant,
            stalled_ranks=list(self.stalled_ranks),
        )

    def total_events(self) -> int:
        return sum(len(seq) for seq in self.events)


# Finding classes (the ``check`` field of :class:`Finding`).
UNMATCHED = "unmatched-notification"
DEADLOCK = "deadlock"
DOUBLE_POST = "double-post"
DATA_RACE = "data-race"
BUDGET = "budget"
MODEL_STUCK = "model-stuck"
WRONG_VALUE = "wrong-value"


@dataclass(frozen=True)
class Finding:
    """One invariant violation, attributed to a trace location."""

    check: str
    message: str
    trace: str = ""
    rank: int = -1
    segment: int = -1
    notif_id: int = -1

    def describe(self) -> str:
        where = []
        if self.trace:
            where.append(self.trace)
        if self.rank >= 0:
            where.append(f"rank {self.rank}")
        if self.segment >= 0:
            where.append(f"segment {self.segment}")
        if self.notif_id >= 0:
            where.append(f"notification {self.notif_id}")
        location = ", ".join(where)
        return f"[{self.check}] {location}: {self.message}"
