"""Eventually consistent Reduce (paper Section III-B, Figures 9 & 10).

The paper builds Reduce as the inverse of the BST broadcast and proposes
two eventually consistent strategies:

* **data threshold** (:data:`ReduceMode.DATA`, Figure 9) — every child
  contributes only the first ``threshold`` fraction of its vector, so the
  root obtains an exact reduction of a prefix of the data;
* **process threshold** (:data:`ReduceMode.PROCESSES`, Figure 10) — the
  full vector is reduced, but only (at least) a ``threshold`` fraction of
  the processes participate; the leaves farthest from the root stay silent.

The handshake follows the paper and Figure 1: a parent first notifies each
child that its receive slot is valid, the child then ``write_notify``-s its
(partial) contribution into a dedicated slot of the parent's segment, and
the parent acknowledges the completed write so the child may reuse its
buffer.
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
from .plan import CollectivePlan
from .policy import CollectiveResult, ReduceMode
from .workspace import Lease, WorkspacePool
from .reduction_ops import ReductionOp, get_op
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import BinomialTree

#: Default segment id used by the reduce collectives.
REDUCE_SEGMENT_ID = 110

# Notification layout inside the reduce segment (per rank):
#   ready + i   : parent -> i-th child           "your slot is writable"
#   data  + i   : i-th child -> parent           "contribution written"
#   ack         : parent -> child                "write consumed"
# The 64-slot ready/data ranges bound the per-node fan-out (a binomial
# tree over 2**64 ranks — effectively unbounded).
REDUCE_LAYOUT = NotificationLayout()
_NOTIF_READY_BASE = REDUCE_LAYOUT.add("ready", 64).base
_NOTIF_DATA_BASE = REDUCE_LAYOUT.add("data", 64).base
_NOTIF_ACK = REDUCE_LAYOUT.add("ack", 1).id()


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
    sendbuf = np.ascontiguousarray(sendbuf)
    require(sendbuf.ndim == 1 and sendbuf.size > 0, "sendbuf must be a non-empty vector")
    require(0 <= root < runtime.size, f"root {root} outside world of {runtime.size}")
    mode = ReduceMode(mode)
    check_fraction(threshold, "threshold")
    operator = get_op(op)

    tree = BinomialTree(runtime.size, root)
    rank = runtime.rank
    size = runtime.size

    if mode is ReduceMode.DATA:
        reduce_elems = threshold_elements(sendbuf.size, threshold)
        participants = list(range(size))
    else:
        reduce_elems = sendbuf.size
        participants = tree.participating_ranks(threshold)
    reduce_bytes = reduce_elems * sendbuf.itemsize
    participating = rank in participants

    children_all = tree.children(rank)
    children = [c for c in children_all if c in participants]
    parent = tree.parent(rank)

    # Segment layout: slot i (i-th child) at offset i * reduce_bytes, with
    # room for the widest fan-out of the tree (the root's) on every rank:
    # a lease must ask for the same size everywhere.
    contributors = 1 if participating else 0
    slots = max(1, tree.num_stages())
    with Lease(
        runtime, pool, segment_id, slots * sendbuf.nbytes, REDUCE_LAYOUT.used
    ) as segment_id:
        try:
            if participating:
                accumulator = sendbuf[:reduce_elems].astype(sendbuf.dtype, copy=True)

                # Tell every participating child its slot may be overwritten; the
                # child waits on READY at its own segment before pushing data up.
                for child in children:
                    runtime.notify(child, segment_id, _NOTIF_READY_BASE, queue=queue)
                if children:
                    runtime.wait(queue)

                # Collect contributions from participating children.
                for child in children:
                    child_index = children_all.index(child)
                    notif = _NOTIF_DATA_BASE + child_index
                    got = runtime.notify_waitsome(segment_id, notif, 1, timeout=timeout)
                    if got is None:
                        raise TimeoutError(
                            f"rank {rank}: contribution of child {child} never arrived"
                        )
                    value = runtime.notify_reset(segment_id, notif)
                    contributors += max(1, value) if value else 1
                    # Zero-copy fold: the notification guarantees the child's
                    # write landed, and each child writes its slot exactly once
                    # per call, so reducing straight from the segment is safe.
                    kernels.reduce_from_segment(
                        operator,
                        accumulator,
                        runtime,
                        segment_id,
                        offset=child_index * reduce_bytes,
                        count=reduce_elems,
                    )
                    # Acknowledge so the child can reuse its buffer (Figure 1).
                    runtime.notify(child, segment_id, _NOTIF_ACK, queue=queue)
                if children:
                    runtime.wait(queue)

                if rank == root:
                    if recvbuf is not None:
                        recvbuf = np.asarray(recvbuf)
                        require(
                            recvbuf.size >= reduce_elems,
                            "recvbuf too small for the reduced prefix",
                        )
                        recvbuf[:reduce_elems] = accumulator
                else:
                    # Wait until the parent declared our slot writable, then push
                    # the partial reduction up and wait for the acknowledgement.
                    got = runtime.notify_waitsome(
                        segment_id, _NOTIF_READY_BASE, 1, timeout=timeout
                    )
                    if got is None:
                        raise TimeoutError(f"rank {rank}: parent {parent} never got ready")
                    runtime.notify_reset(segment_id, _NOTIF_READY_BASE)

                    my_index = tree.children(parent).index(rank)
                    staging = runtime.segment_view(
                        segment_id, dtype=sendbuf.dtype, count=reduce_elems
                    )
                    staging[:] = accumulator
                    runtime.write_notify(
                        segment_id_local=segment_id,
                        offset_local=0,
                        target_rank=parent,
                        segment_id_remote=segment_id,
                        offset_remote=my_index * reduce_bytes,
                        size=reduce_bytes,
                        notification_id=_NOTIF_DATA_BASE + my_index,
                        notification_value=max(1, contributors),
                        queue=queue,
                    )
                    runtime.wait(queue)
                    got = runtime.notify_waitsome(segment_id, _NOTIF_ACK, 1, timeout=timeout)
                    if got is None:
                        raise TimeoutError(f"rank {rank}: parent {parent} never acknowledged")
                    runtime.notify_reset(segment_id, _NOTIF_ACK)
        finally:
            staging = None  # a live view would keep the segment's mapping open

    return ReduceResult(
        rank=rank,
        root=root,
        mode=mode,
        threshold=threshold,
        participated=participating,
        elements_reduced=reduce_elems if participating else 0,
        contributors=contributors if rank == root else 0,
    )


# --------------------------------------------------------------------------- #
# compiled plan (persistent workspace, zero per-call setup)
# --------------------------------------------------------------------------- #
class BstReducePlan(CollectivePlan):
    """Compiled BST reduce: frozen tree/participants, pooled child slots.

    The cold protocol's ready/data/ack handshake is already
    self-synchronising across calls: a child pushes call ``k+1`` data only
    after its parent's ``k+1`` READY, which the parent sends only after it
    consumed *all* of its call-``k`` child slots; and a parent overwrites
    nothing at the child (READY and ACK are pure notifications).  So the
    planned executor runs the identical handshake — it merely skips the
    per-call workspace lease, the barrier of its release, and all
    topology/threshold recomputation.
    """

    _segment_views = ("_staging", "_child_slots")

    def __init__(self, runtime, key, segment_id: int, policy, pool=None) -> None:
        super().__init__(runtime, key, segment_id, pool)
        self.dtype = np.dtype(key.dtype)
        self.elements = key.nbytes // self.dtype.itemsize
        self.mode = ReduceMode(policy.mode)
        self.tree = BinomialTree(runtime.size, key.root)
        rank = runtime.rank
        if self.mode is ReduceMode.DATA:
            self.reduce_elems = threshold_elements(self.elements, policy.threshold)
            participants = list(range(runtime.size))
        else:
            self.reduce_elems = self.elements
            participants = self.tree.participating_ranks(policy.threshold)
        self.reduce_bytes = self.reduce_elems * self.dtype.itemsize
        self.participants = participants
        self.participating = rank in participants
        self.children_all = self.tree.children(rank)
        self.children = [c for c in self.children_all if c in participants]
        self.child_indices = [self.children_all.index(c) for c in self.children]
        self.parent = self.tree.parent(rank)
        self.my_index = (
            None
            if self.parent is None
            else self.tree.children(self.parent).index(rank)
        )
        # Room for the widest fan-out of the tree on every rank: a lease
        # must ask for the same size everywhere.
        self._lease_workspace(
            max(1, self.tree.num_stages()) * key.nbytes, REDUCE_LAYOUT.used
        )
        # Frozen zero-copy views: one staging slot for the push-up, one
        # receive slot per child for the folds.
        self._staging = runtime.segment_view(
            self.segment_id, dtype=self.dtype, count=self.reduce_elems
        )
        self._child_slots = [
            runtime.segment_view(
                self.segment_id,
                dtype=self.dtype,
                offset=index * self.reduce_bytes,
                count=self.reduce_elems,
            )
            for index in self.child_indices
        ]

    def execute(self, request) -> CollectiveResult:
        sendbuf = self._check_payload(np.asarray(request.sendbuf), "reduce sendbuf")
        require(
            sendbuf.ndim == 1 and sendbuf.flags["C_CONTIGUOUS"],
            "reduce sendbuf must be a contiguous vector",
        )
        operator = get_op(request.op)
        rt = self.runtime
        rank = rt.rank
        root = self.key.root
        sid = self.segment_id
        queue = request.queue
        timeout = request.timeout
        reduce_elems = self.reduce_elems
        recvbuf = request.recvbuf

        contributors = 1 if self.participating else 0
        if self.participating:
            accumulator = sendbuf[:reduce_elems].astype(self.dtype, copy=True)

            for child in self.children:
                rt.notify(child, sid, _NOTIF_READY_BASE, queue=queue)
            if self.children:
                rt.wait(queue)

            for child, child_index, slot in zip(
                self.children, self.child_indices, self._child_slots
            ):
                notif = _NOTIF_DATA_BASE + child_index
                got = rt.notify_waitsome(sid, notif, 1, timeout=timeout)
                if got is None:
                    raise TimeoutError(
                        f"rank {rank}: contribution of child {child} never arrived"
                    )
                value = rt.notify_reset(sid, notif)
                contributors += max(1, value) if value else 1
                kernels.reduce_into(operator, accumulator, slot)
                rt.notify(child, sid, _NOTIF_ACK, queue=queue)
            if self.children:
                rt.wait(queue)

            if rank == root:
                if recvbuf is not None:
                    recvbuf = np.asarray(recvbuf)
                    require(
                        recvbuf.size >= reduce_elems,
                        "recvbuf too small for the reduced prefix",
                    )
                    recvbuf[:reduce_elems] = accumulator
            else:
                got = rt.notify_waitsome(sid, _NOTIF_READY_BASE, 1, timeout=timeout)
                if got is None:
                    raise TimeoutError(
                        f"rank {rank}: parent {self.parent} never got ready"
                    )
                rt.notify_reset(sid, _NOTIF_READY_BASE)
                self._staging[:] = accumulator
                rt.write_notify(
                    segment_id_local=sid,
                    offset_local=0,
                    target_rank=self.parent,
                    segment_id_remote=sid,
                    offset_remote=self.my_index * self.reduce_bytes,
                    size=self.reduce_bytes,
                    notification_id=_NOTIF_DATA_BASE + self.my_index,
                    notification_value=max(1, contributors),
                    queue=queue,
                )
                rt.wait(queue)
                got = rt.notify_waitsome(sid, _NOTIF_ACK, 1, timeout=timeout)
                if got is None:
                    raise TimeoutError(
                        f"rank {rank}: parent {self.parent} never acknowledged"
                    )
                rt.notify_reset(sid, _NOTIF_ACK)

        self.calls += 1
        detail = ReduceResult(
            rank=rank,
            root=root,
            mode=self.mode,
            threshold=self.key.policy[0],
            participated=self.participating,
            elements_reduced=reduce_elems if self.participating else 0,
            contributors=contributors if rank == root else 0,
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
    and after the data movement when ``include_handshake`` is true.
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
