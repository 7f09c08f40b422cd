"""Eventually consistent Reduce (paper Section III-B, Figures 9 & 10).

The paper builds Reduce as the inverse of the BST broadcast and proposes
two eventually consistent strategies:

* **data threshold** (:data:`ReduceMode.DATA`, Figure 9) — every child
  contributes only the first ``threshold`` fraction of its vector, so the
  root obtains an exact reduction of a prefix of the data;
* **process threshold** (:data:`ReduceMode.PROCESSES`, Figure 10) — the
  full vector is reduced, but only (at least) a ``threshold`` fraction of
  the processes participate; the leaves farthest from the root stay silent.

Flow control is what is left of the paper's Figure 1 handshake (parent
READY -> child DATA -> parent ACK).  We keep its invariant — a child
``write_notify``-s its (partial) contribution into a dedicated slot of the
parent's segment, and never while the parent still reads that slot — but
not its round trip: the ACK became a *credit* that the child consumes at
its **next** push, and READY is gone.  A child therefore pushes the moment
it has its partial, whether or not its parent has entered the call (the
imbalanced-arrival stall of a rendezvous), and the critical path of a call
is one hop per tree level, like the broadcast's.  One slot and one credit
per tree edge bound a child to one call ahead of its parent; parity slots
would not do instead, because a reduce child never receives from its
parent and nothing else would stop it running further ahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.runtime import GaspiRuntime
from ..utils.validation import check_fraction, require
from . import kernels
from .bcast import threshold_elements
from .notifmap import NotificationLayout
from .plan import CollectivePlan, PipelineGen, WaitSpec, _run_cold
from .policy import CollectiveRequest, CollectiveResult, ConsistencyPolicy, ReduceMode
from .workspace import WorkspacePool
from .reduction_ops import ReductionOp, get_op
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import BinomialTree

#: Default segment id used by the reduce collectives.
REDUCE_SEGMENT_ID = 110

# Notification layout inside the reduce segment (per rank):
#   data + i : i-th child -> parent   "contribution written to slot i"
#              (value: contributors in the child's subtree)
#   credit   : parent -> child        "your slot is folded, push again"
# The 64-slot data range bounds the per-node fan-out (a binomial tree over
# 2**64 ranks — effectively unbounded).
REDUCE_LAYOUT = NotificationLayout()
_NOTIF_DATA_BASE = REDUCE_LAYOUT.add("data", 64).base
_NOTIF_CREDIT = REDUCE_LAYOUT.add("credit", 1).id()


@dataclass
class ReduceResult:
    """Per-rank status of a reduce call."""

    rank: int
    root: int
    mode: ReduceMode
    threshold: float
    participated: bool
    elements_reduced: int
    contributors: int

    @property
    def is_root(self) -> bool:
        return self.rank == self.root


# --------------------------------------------------------------------------- #
# functional implementation
# --------------------------------------------------------------------------- #
def bst_reduce(
    runtime: GaspiRuntime,
    sendbuf: np.ndarray,
    recvbuf: Optional[np.ndarray] = None,
    root: int = 0,
    op: str | ReductionOp = "sum",
    threshold: float = 1.0,
    mode: ReduceMode | str = ReduceMode.DATA,
    segment_id: int = REDUCE_SEGMENT_ID,
    queue: int = 0,
    timeout: float = GASPI_BLOCK,
    pool: Optional[WorkspacePool] = None,
) -> ReduceResult:
    """Binomial-spanning-tree reduction of ``sendbuf`` onto ``root``.

    A cold call: it compiles a :class:`BstReducePlan`, runs it once and
    releases it (a later pool barrier drains the call's credits before the
    workspace is scrubbed).

    Parameters
    ----------
    sendbuf:
        This rank's contribution (1-D, same length/dtype everywhere).
    recvbuf:
        On the root, receives the reduction result (only the reduced prefix
        is written in DATA mode).  Ignored on other ranks; may be ``None``.
    op:
        Reduction operator name or :class:`ReductionOp`.
    threshold:
        Fraction in (0, 1]; interpreted according to ``mode``.
    mode:
        ``ReduceMode.DATA`` — reduce only a prefix of the vector;
        ``ReduceMode.PROCESSES`` — reduce the whole vector over a subset of
        processes (paper Figure 10).

    Returns
    -------
    ReduceResult
        Including whether this rank participated and how many contributors
        reached the root.
    """
    sendbuf = np.asarray(sendbuf)
    require(sendbuf.ndim == 1 and sendbuf.size > 0, "sendbuf must be a non-empty vector")
    require(0 <= root < runtime.size, f"root {root} outside world of {runtime.size}")
    request = CollectiveRequest(
        "reduce",
        sendbuf=sendbuf,
        recvbuf=recvbuf,
        root=root,
        op=op,
        policy=ConsistencyPolicy(threshold=threshold, mode=mode),
        segment_id=segment_id,
        pool=pool,
        queue=queue,
        timeout=timeout,
    )
    return _run_cold(BstReducePlan, "reduce", "gaspi_reduce_bst", runtime, request).detail


# --------------------------------------------------------------------------- #
# compiled plan (persistent workspace, zero per-call setup)
# --------------------------------------------------------------------------- #
class BstReducePlan(CollectivePlan):
    """Compiled BST reduce: frozen tree/participants, one slot + one credit.

    A parent waits for each child's DATA in child order (the fold order,
    hence the bits, never depend on arrival order), resets it, folds the
    child's slot and posts the child's credit.  A child consumes the
    *previous* call's credit — none before its first push — and pushes: no
    wait follows the push, so a call costs one hop per tree level.  The
    credit is the whole reuse argument: it is posted only after the slot
    was folded, and a push happens only after it was consumed, so a child
    is at most one call ahead and never writes a slot that is being read.
    The credit of the last call stays posted; the workspace release scrubs
    it (it lies inside :data:`REDUCE_LAYOUT`).

    Single copy: a leaf posts ``sendbuf`` itself, a folding rank's first
    fold reads ``sendbuf`` and writes the partial result, the root's
    partial result is ``recvbuf`` when that is a contiguous vector of the
    plan's dtype.  Everywhere else the partial result is *private* memory,
    never the segment: a child one call ahead may write any byte a child
    slot covers while this rank's push-up is still reading its partial.
    """

    _segment_views = ("_child_table",)

    def __init__(self, runtime, key, segment_id: int, policy, pool=None) -> None:
        super().__init__(runtime, key, segment_id, pool)
        self.dtype = self.key_dtype
        self.elements = key.nbytes // self.dtype.itemsize
        self.mode = ReduceMode(policy.mode)
        tree = BinomialTree(runtime.size, key.root)
        rank = runtime.rank
        if self.mode is ReduceMode.DATA:
            self.reduce_elems = threshold_elements(self.elements, policy.threshold)
            participants = set(range(runtime.size))
        else:
            self.reduce_elems = self.elements
            participants = set(tree.participating_ranks(policy.threshold))
        self.participating = rank in participants
        self.parent = tree.parent(rank)
        slot_bytes = self.reduce_elems * self.dtype.itemsize
        # Room for the widest fan-out of the tree on every rank: a lease
        # must ask for the same size everywhere.
        self._lease_workspace(
            max(1, tree.num_stages()) * key.nbytes, REDUCE_LAYOUT.used
        )
        if self.parent is not None:
            # Where this rank's pushes land: its slot in the parent's segment.
            my_index = tree.children(self.parent).index(rank)
            self._push = (my_index * slot_bytes, _NOTIF_DATA_BASE + my_index)
        #: Per participating child, frozen: (child, DATA id, view of its slot).
        self._child_table = [
            (
                child,
                _NOTIF_DATA_BASE + index,
                runtime.segment_view(
                    self.segment_id, self.dtype, index * slot_bytes, self.reduce_elems
                ),
            )
            for index, child in enumerate(tree.children(rank))
            if child in participants
        ]
        #: The partial result of a folding rank (see the class docstring).
        self._partial = (
            np.empty(self.reduce_elems, self.dtype) if self._child_table else None
        )

    def _run(self, request, poll_timeout: float) -> PipelineGen:
        sendbuf = self._check_payload(
            np.ascontiguousarray(request.sendbuf), "reduce sendbuf"
        )
        require(sendbuf.ndim == 1, "reduce sendbuf must be a vector")
        operator = get_op(request.op)
        rt = self.runtime
        sid = self.segment_id
        queue = request.queue
        recvbuf = request.recvbuf
        elems = self.reduce_elems

        contributors = 0
        if self.participating:
            contributors = 1
            partial = sendbuf[:elems]  # this rank's own data until the first fold
            out = self._partial
            direct = False
            if self.parent is None and recvbuf is not None:
                recvbuf = np.asarray(recvbuf)
                require(recvbuf.size >= elems, "recvbuf too small for the reduced prefix")
                direct = (
                    out is not None
                    and recvbuf.ndim == 1
                    and recvbuf.dtype == self.dtype
                    and recvbuf.flags["C_CONTIGUOUS"]
                )
                if direct:
                    out = recvbuf[:elems]  # the folds land in the caller's memory
            for child, notif, slot in self._child_table:
                while rt.notify_waitsome(sid, notif, 1, timeout=poll_timeout) is None:
                    yield WaitSpec(
                        sid, notif, 1, f"DATA from child {child} in call {self.calls}"
                    )
                contributors += rt.notify_reset(sid, notif) or 1
                kernels.fold(operator, partial, slot, out)
                partial = out
                # The slot is folded: the child may push its next call.
                rt.notify(child, sid, _NOTIF_CREDIT, queue=queue)
            if self.parent is None:
                if recvbuf is not None and not direct:
                    recvbuf[:elems] = partial  # strided, other dtype, or nothing folded
            else:
                if self.calls:
                    # The parent folded the previous call's push out of our slot.
                    while (
                        rt.notify_waitsome(sid, _NOTIF_CREDIT, 1, timeout=poll_timeout)
                        is None
                    ):
                        yield WaitSpec(
                            sid,
                            _NOTIF_CREDIT,
                            1,
                            f"the credit from parent {self.parent} before the "
                            f"push of call {self.calls}",
                        )
                    rt.notify_reset(sid, _NOTIF_CREDIT)
                offset, notif = self._push
                rt.write_notify_from(
                    partial, self.parent, sid, offset, notif, contributors, queue=queue
                )
            # Flush the credits and the push: ``partial`` (the caller's
            # sendbuf on a leaf) is reusable when the call returns.
            rt.wait(queue)

        self.calls += 1
        detail = ReduceResult(
            rank=rt.rank,
            root=self.key.root,
            mode=self.mode,
            threshold=self.key.policy[0],
            participated=self.participating,
            elements_reduced=elems if self.participating else 0,
            contributors=contributors if self.parent is None else 0,
        )
        return CollectiveResult(value=request.recvbuf, detail=detail)


# --------------------------------------------------------------------------- #
# schedule builders (Figures 9 and 10)
# --------------------------------------------------------------------------- #
def bst_reduce_schedule(
    num_ranks: int,
    nbytes: int,
    threshold: float = 1.0,
    mode: ReduceMode | str = ReduceMode.DATA,
    root: int = 0,
    protocol: Protocol = Protocol.ONESIDED,
    include_handshake: bool = True,
    name: str | None = None,
) -> CommunicationSchedule:
    """Schedule of the BST reduce for the timing simulator.

    Children from the deepest stage send first; a parent that itself joins
    at stage ``s`` forwards its partial result in the round of stage ``s``.
    The zero-byte ready/ack handshake is modelled by one extra round before
    and after the data movement when ``include_handshake`` is true: the
    schedule models the paper's Figure 1 handshake (what Figures 9 and 10
    were measured with), whereas the shipped executors replace it with a
    credit that is off the critical path.
    """
    mode = ReduceMode(mode)
    check_fraction(threshold, "threshold")
    require(nbytes >= 0, "nbytes must be non-negative")
    tree = BinomialTree(num_ranks, root)

    if mode is ReduceMode.DATA:
        send_bytes = max(1, int(nbytes * threshold)) if nbytes else 0
        participants = set(range(num_ranks))
        label = f"gaspi_reduce_bst[data {int(threshold * 100)}%]"
    else:
        send_bytes = nbytes
        participants = set(tree.participating_ranks(threshold))
        label = f"gaspi_reduce_bst[procs {int(threshold * 100)}%]"

    sched = CommunicationSchedule(
        name=name or label,
        num_ranks=num_ranks,
        metadata={
            "threshold": threshold,
            "mode": mode.value,
            "payload_bytes": nbytes,
            "shipped_bytes": send_bytes,
            "participants": len(participants),
            "algorithm": "binomial_spanning_tree",
        },
    )

    if include_handshake and num_ranks > 1:
        ready = [
            Message(src=tree.parent(child), dst=child, nbytes=0, protocol=protocol, tag="ready")
            for child in range(num_ranks)
            if child in participants
            and tree.parent(child) is not None
            and tree.parent(child) in participants
        ]
        if ready:
            sched.add_round(ready, label="ready")

    stages = tree.ranks_by_stage()
    for stage in sorted((s for s in stages if s > 0), reverse=True):
        messages: List[Message] = []
        for child in stages[stage]:
            parent = tree.parent(child)
            if child in participants and parent in participants:
                messages.append(
                    Message(
                        src=child,
                        dst=parent,
                        nbytes=send_bytes,
                        protocol=protocol,
                        reduce_bytes=send_bytes,
                        tag=f"reduce-stage-{stage}",
                    )
                )
        if messages:
            sched.add_round(messages, label=f"stage-{stage}")

    if include_handshake and num_ranks > 1:
        acks = [
            Message(src=tree.parent(child), dst=child, nbytes=0, protocol=protocol, tag="ack")
            for child in range(num_ranks)
            if child in participants
            and tree.parent(child) is not None
            and tree.parent(child) in participants
        ]
        if acks:
            sched.add_round(acks, label="ack")

    sched.validate()
    return sched
