"""Eventually consistent Broadcast (paper Section III-B, Figures 3 & 8).

Two GASPI broadcast algorithms are provided:

* :func:`bst_bcast` — the binomial-spanning-tree broadcast the paper
  evaluates (``gaspi_bcast``).  The *threshold* parameter controls which
  fraction of the payload is actually shipped: with ``threshold = 0.25``
  only the first quarter of the buffer reaches the non-root ranks, which is
  the paper's way of mimicking eventual consistency ("the application can
  proceed upon arrival of a part of the data").
* :func:`flat_bcast` — the naive variant mentioned in the paper
  (P-1 ``gaspi_write_notify`` calls issued by the root).

Both also export communication-schedule builders for the timing simulator,
used by the Figure 8 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.runtime import GaspiRuntime
from ..utils.validation import check_fraction, require
from .notifmap import NotificationLayout
from .plan import CollectivePlan
from .policy import CollectiveResult
from .workspace import Lease, WorkspacePool
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import BinomialTree

#: Default segment id used by the broadcast collectives.
BCAST_SEGMENT_ID = 100



def bcast_layout(num_ranks: int) -> NotificationLayout:
    """Ids of a broadcast workspace: one data arrival slot, then one ack
    slot per peer (child position in the BST, rank in the flat fan-out)."""
    layout = NotificationLayout()
    layout.add("data", 1)
    layout.add("ack", max(1, int(num_ranks)))
    return layout


_NOTIF_DATA = bcast_layout(1)["data"].id()
_NOTIF_ACK_BASE = bcast_layout(1)["ack"].base


@dataclass
class BroadcastResult:
    """Outcome of a broadcast call on one rank.

    This plays the role of the *status* output parameter the paper proposes
    for eventually consistent collectives: the caller can inspect how much
    of the payload it actually received.
    """

    rank: int
    root: int
    elements_total: int
    elements_received: int
    bytes_received: int
    threshold: float
    stage: int

    @property
    def complete(self) -> bool:
        """True when the full payload was delivered (threshold == 1)."""
        return self.elements_received == self.elements_total


def threshold_elements(num_elements: int, threshold: float) -> int:
    """Number of leading elements shipped for a given data threshold.

    At least one element is always shipped so a notification is never empty.
    """
    check_fraction(threshold, "threshold")
    return max(1, int(np.floor(num_elements * threshold + 1e-9))) if num_elements else 0


# --------------------------------------------------------------------------- #
# functional implementations (threaded runtime)
# --------------------------------------------------------------------------- #
def bst_bcast(
    runtime: GaspiRuntime,
    buffer: np.ndarray,
    root: int = 0,
    threshold: float = 1.0,
    segment_id: int = BCAST_SEGMENT_ID,
    queue: int = 0,
    timeout: float = GASPI_BLOCK,
    pool: Optional[WorkspacePool] = None,
) -> BroadcastResult:
    """Binomial-spanning-tree broadcast of ``buffer`` from ``root``.

    Parameters
    ----------
    runtime:
        Per-rank GASPI runtime.
    buffer:
        1-D contiguous NumPy array, same length and dtype on every rank.
        On non-root ranks the first ``threshold`` fraction of elements is
        overwritten with the root's data; the rest is left untouched.
    root:
        Broadcasting rank.
    threshold:
        Fraction of the payload (by element count) to ship, in (0, 1].
    segment_id, pool:
        The workspace is leased from ``pool`` (a communicator passes its
        own); without one it is registered under ``segment_id`` (free on
        every rank) for this call only.

    Returns
    -------
    BroadcastResult
        Per-rank status, including how many elements were received.
    """
    buffer = _require_vector(buffer)
    require(0 <= root < runtime.size, f"root {root} outside world of {runtime.size}")
    send_elems = threshold_elements(buffer.size, threshold)
    send_bytes = send_elems * buffer.itemsize

    tree = BinomialTree(runtime.size, root)
    rank = runtime.rank
    children = tree.children(rank)
    parent = tree.parent(rank)

    with Lease(
        runtime, pool, segment_id, buffer.nbytes, bcast_layout(runtime.size).used
    ) as segment_id:
        try:
            staging = runtime.segment_view(
                segment_id, dtype=buffer.dtype, count=buffer.size
            )

            if rank == root:
                staging[:send_elems] = buffer[:send_elems]
            else:
                # Wait for the parent's write_notify: GASPI guarantees the data
                # is already visible once the notification is.
                got = runtime.notify_waitsome(segment_id, _NOTIF_DATA, 1, timeout=timeout)
                if got is None:
                    raise TimeoutError(
                        f"rank {rank}: broadcast data from parent {parent} did not arrive"
                    )
                runtime.notify_reset(segment_id, _NOTIF_DATA)
                buffer[:send_elems] = staging[:send_elems]

            # Forward the (possibly partial) payload down the tree.
            for child in children:
                runtime.write_notify(
                    segment_id_local=segment_id,
                    offset_local=0,
                    target_rank=child,
                    segment_id_remote=segment_id,
                    offset_remote=0,
                    size=send_bytes,
                    notification_id=_NOTIF_DATA,
                    queue=queue,
                )
            if children:
                runtime.wait(queue)

            # Outer (leaf) nodes acknowledge their parent; inner nodes wait for
            # the acknowledgements of their leaf children (paper: "only
            # acknowledge the data transfer from the outer nodes to their
            # parents; the collective is considered complete when the outer
            # nodes receive data").
            if parent is not None and not children:
                ack_slot = _NOTIF_ACK_BASE + tree.children(parent).index(rank)
                runtime.notify(parent, segment_id, ack_slot, queue=queue)
                runtime.wait(queue)
            leaf_children = [c for c in children if not tree.children(c)]
            for child in leaf_children:
                ack_slot = _NOTIF_ACK_BASE + children.index(child)
                got = runtime.notify_waitsome(segment_id, ack_slot, 1, timeout=timeout)
                if got is None:
                    raise TimeoutError(f"rank {rank}: no ack from leaf child {child}")
                runtime.notify_reset(segment_id, ack_slot)
        finally:
            staging = None  # a live view would keep the segment's mapping open

    return BroadcastResult(
        rank=rank,
        root=root,
        elements_total=buffer.size,
        elements_received=buffer.size if rank == root else send_elems,
        bytes_received=0 if rank == root else send_bytes,
        threshold=threshold,
        stage=tree.stage_of(rank),
    )


def flat_bcast(
    runtime: GaspiRuntime,
    buffer: np.ndarray,
    root: int = 0,
    threshold: float = 1.0,
    segment_id: int = BCAST_SEGMENT_ID,
    queue: int = 0,
    timeout: float = GASPI_BLOCK,
    pool: Optional[WorkspacePool] = None,
) -> BroadcastResult:
    """Flat broadcast: the root issues P-1 ``write_notify`` calls directly.

    Mentioned by the paper as the trivial alternative to the BST; it is the
    better choice only for very small worlds.
    """
    buffer = _require_vector(buffer)
    require(0 <= root < runtime.size, f"root {root} outside world of {runtime.size}")
    send_elems = threshold_elements(buffer.size, threshold)
    send_bytes = send_elems * buffer.itemsize
    rank = runtime.rank

    with Lease(
        runtime, pool, segment_id, buffer.nbytes, bcast_layout(runtime.size).used
    ) as segment_id:
        try:
            staging = runtime.segment_view(
                segment_id, dtype=buffer.dtype, count=buffer.size
            )
            if rank == root:
                staging[:send_elems] = buffer[:send_elems]
                for peer in range(runtime.size):
                    if peer == root:
                        continue
                    runtime.write_notify(
                        segment_id, 0, peer, segment_id, 0, send_bytes, _NOTIF_DATA,
                        queue=queue,
                    )
                runtime.wait(queue)
            else:
                got = runtime.notify_waitsome(segment_id, _NOTIF_DATA, 1, timeout=timeout)
                if got is None:
                    raise TimeoutError(f"rank {rank}: flat bcast data never arrived")
                runtime.notify_reset(segment_id, _NOTIF_DATA)
                buffer[:send_elems] = staging[:send_elems]
        finally:
            staging = None  # a live view would keep the segment's mapping open

    return BroadcastResult(
        rank=rank,
        root=root,
        elements_total=buffer.size,
        elements_received=buffer.size if rank == root else send_elems,
        bytes_received=0 if rank == root else send_bytes,
        threshold=threshold,
        stage=0 if rank == root else 1,
    )


# --------------------------------------------------------------------------- #
# schedule builders (timing simulator / Figure 8)
# --------------------------------------------------------------------------- #
def bst_bcast_schedule(
    num_ranks: int,
    nbytes: int,
    threshold: float = 1.0,
    root: int = 0,
    protocol: Protocol = Protocol.ONESIDED,
    include_acks: bool = True,
    name: str | None = None,
) -> CommunicationSchedule:
    """Communication schedule of the BST broadcast for the timing simulator.

    Round ``s`` carries the messages from every stage-``(s-1)``-or-earlier
    parent to its stage-``s`` children; an optional final round models the
    zero-byte leaf acknowledgements.
    """
    check_fraction(threshold, "threshold")
    require(nbytes >= 0, "nbytes must be non-negative")
    send_bytes = max(1, int(nbytes * threshold)) if nbytes else 0
    tree = BinomialTree(num_ranks, root)
    sched = CommunicationSchedule(
        name=name or f"gaspi_bcast_bst[{int(threshold * 100)}%]",
        num_ranks=num_ranks,
        metadata={
            "threshold": threshold,
            "payload_bytes": nbytes,
            "shipped_bytes": send_bytes,
            "algorithm": "binomial_spanning_tree",
        },
    )
    stages = tree.ranks_by_stage()
    for stage in sorted(s for s in stages if s > 0):
        messages = [
            Message(
                src=tree.parent(child),
                dst=child,
                nbytes=send_bytes,
                protocol=protocol,
                tag=f"bcast-stage-{stage}",
            )
            for child in stages[stage]
        ]
        sched.add_round(messages, label=f"stage-{stage}")
    if include_acks and num_ranks > 1:
        acks = [
            Message(
                src=leaf,
                dst=tree.parent(leaf),
                nbytes=0,
                protocol=protocol,
                tag="bcast-ack",
            )
            for leaf in tree.leaves()
            if tree.parent(leaf) is not None
        ]
        if acks:
            sched.add_round(acks, label="leaf-acks")
    sched.validate()
    return sched


def flat_bcast_schedule(
    num_ranks: int,
    nbytes: int,
    threshold: float = 1.0,
    root: int = 0,
    protocol: Protocol = Protocol.ONESIDED,
    name: str | None = None,
) -> CommunicationSchedule:
    """Schedule of the flat (root-writes-to-everyone) broadcast."""
    check_fraction(threshold, "threshold")
    send_bytes = max(1, int(nbytes * threshold)) if nbytes else 0
    sched = CommunicationSchedule(
        name=name or f"gaspi_bcast_flat[{int(threshold * 100)}%]",
        num_ranks=num_ranks,
        metadata={"threshold": threshold, "payload_bytes": nbytes, "algorithm": "flat"},
    )
    messages = [
        Message(src=root, dst=peer, nbytes=send_bytes, protocol=protocol, tag="bcast-flat")
        for peer in range(num_ranks)
        if peer != root
    ]
    if messages:
        sched.add_round(messages, label="flat")
    sched.validate()
    return sched


def _require_vector(buffer: np.ndarray) -> np.ndarray:
    buffer = np.asarray(buffer)
    # Hot path: one combined check; messages are built only on failure.
    if buffer.ndim != 1 or buffer.size == 0 or not buffer.flags["C_CONTIGUOUS"]:
        require(buffer.ndim == 1, f"broadcast buffer must be 1-D, got shape {buffer.shape}")
        require(buffer.flags["C_CONTIGUOUS"], "broadcast buffer must be C-contiguous")
        require(buffer.size > 0, "broadcast buffer must not be empty")
    return buffer


# --------------------------------------------------------------------------- #
# compiled plans (persistent workspace, zero per-call setup)
# --------------------------------------------------------------------------- #
class BstBcastPlan(CollectivePlan):
    """Compiled BST broadcast: frozen tree, leased workspace, no barriers.

    The cold path's release barrier also serialises successive calls;
    without it, reuse needs an explicit hand-shake.  This plan
    uses *consume acknowledgements*: every child acks its parent once it
    has (a) copied the payload out of its staging slot and (b) flushed its
    own forwards, and a parent consumes each child's previous-call ack
    immediately before overwriting that child's staging slot.  A parent
    therefore can never clobber an unconsumed slot, however far ahead the
    root races — and unlike a trailing barrier, the ack wait overlaps with
    the next call's compute (MPI persistent-collective style pipelining).
    """

    _segment_views = ("_staging",)

    def __init__(self, runtime, key, segment_id: int, policy, pool=None) -> None:
        super().__init__(runtime, key, segment_id, pool)
        self.dtype = np.dtype(key.dtype)
        self.elements = key.nbytes // self.dtype.itemsize
        self.send_elems = threshold_elements(self.elements, policy.threshold)
        self.send_bytes = self.send_elems * self.dtype.itemsize
        self.tree = BinomialTree(runtime.size, key.root)
        rank = runtime.rank
        self.children = self.tree.children(rank)
        self.parent = self.tree.parent(rank)
        self.stage = self.tree.stage_of(rank)
        self.parent_ack_slot = (
            None
            if self.parent is None
            else _NOTIF_ACK_BASE + self.tree.children(self.parent).index(rank)
        )
        self.child_ack_slots = [
            _NOTIF_ACK_BASE + i for i in range(len(self.children))
        ]
        self._lease_workspace(key.nbytes, bcast_layout(runtime.size).used)
        # The workspace buffer is stable for the plan's lifetime, so the
        # staging view is computed once — zero per-call segment lookups.
        self._staging = runtime.segment_view(
            self.segment_id, dtype=self.dtype, count=self.elements
        )

    def execute(self, request) -> CollectiveResult:
        buffer = self._check_payload(_require_vector(request.sendbuf), "bcast buffer")
        rt = self.runtime
        rank = rt.rank
        root = self.key.root
        sid = self.segment_id
        queue = request.queue
        timeout = request.timeout
        send = self.send_elems

        if rank == root:
            self._staging[:send] = buffer[:send]
        else:
            got = rt.notify_waitsome(sid, _NOTIF_DATA, 1, timeout=timeout)
            if got is None:
                raise TimeoutError(
                    f"rank {rank}: planned bcast data from parent "
                    f"{self.parent} did not arrive"
                )
            rt.notify_reset(sid, _NOTIF_DATA)
            buffer[:send] = self._staging[:send]

        if self.children:
            if self.calls:
                # Consume each child's previous-call ack before its slot
                # is overwritten (see the class docstring).
                for slot in self.child_ack_slots:
                    got = rt.notify_waitsome(sid, slot, 1, timeout=timeout)
                    if got is None:
                        raise TimeoutError(
                            f"rank {rank}: planned bcast child never acknowledged "
                            f"the previous call"
                        )
                    rt.notify_reset(sid, slot)
            for child in self.children:
                rt.write_notify(
                    segment_id_local=sid,
                    offset_local=0,
                    target_rank=child,
                    segment_id_remote=sid,
                    offset_remote=0,
                    size=self.send_bytes,
                    notification_id=_NOTIF_DATA,
                    queue=queue,
                )
            rt.wait(queue)

        if self.parent is not None:
            # Ack only after wait(queue): the forwards read the staging
            # slot zero-copy, so it must stay stable until they flushed.
            rt.notify(self.parent, sid, self.parent_ack_slot, queue=queue)
            rt.wait(queue)

        self.calls += 1
        detail = BroadcastResult(
            rank=rank,
            root=root,
            elements_total=buffer.size,
            elements_received=buffer.size if rank == root else send,
            bytes_received=0 if rank == root else self.send_bytes,
            threshold=self.key.policy[0],
            stage=self.stage,
        )
        return CollectiveResult(value=request.sendbuf, detail=detail)


class FlatBcastPlan(CollectivePlan):
    """Compiled flat broadcast: root fan-out over a leased workspace.

    Reuse safety mirrors :class:`BstBcastPlan`: every receiver acks the
    root after copying the payload out, and the root consumes all P-1
    previous-call acks before restaging — the cold path's barrier is
    replaced by one ack round that the root overlaps with its next call.
    """

    _segment_views = ("_staging",)

    def __init__(self, runtime, key, segment_id: int, policy, pool=None) -> None:
        super().__init__(runtime, key, segment_id, pool)
        self.dtype = np.dtype(key.dtype)
        self.elements = key.nbytes // self.dtype.itemsize
        self.send_elems = threshold_elements(self.elements, policy.threshold)
        self.send_bytes = self.send_elems * self.dtype.itemsize
        rank = runtime.rank
        self.peers = [r for r in range(runtime.size) if r != key.root]
        self.ack_slot = _NOTIF_ACK_BASE + rank
        self.peer_ack_slots = [_NOTIF_ACK_BASE + r for r in self.peers]
        self._lease_workspace(key.nbytes, bcast_layout(runtime.size).used)
        self._staging = runtime.segment_view(
            self.segment_id, dtype=self.dtype, count=self.elements
        )

    def execute(self, request) -> CollectiveResult:
        buffer = self._check_payload(_require_vector(request.sendbuf), "bcast buffer")
        rt = self.runtime
        rank = rt.rank
        root = self.key.root
        sid = self.segment_id
        queue = request.queue
        timeout = request.timeout
        send = self.send_elems

        if rank == root:
            if self.calls:
                for slot in self.peer_ack_slots:
                    got = rt.notify_waitsome(sid, slot, 1, timeout=timeout)
                    if got is None:
                        raise TimeoutError(
                            f"rank {rank}: planned flat bcast peer never "
                            f"acknowledged the previous call"
                        )
                    rt.notify_reset(sid, slot)
            self._staging[:send] = buffer[:send]
            for peer in self.peers:
                rt.write_notify(
                    sid, 0, peer, sid, 0, self.send_bytes, _NOTIF_DATA, queue=queue
                )
            rt.wait(queue)
        else:
            got = rt.notify_waitsome(sid, _NOTIF_DATA, 1, timeout=timeout)
            if got is None:
                raise TimeoutError(f"rank {rank}: planned flat bcast data never arrived")
            rt.notify_reset(sid, _NOTIF_DATA)
            buffer[:send] = self._staging[:send]
            rt.notify(root, sid, self.ack_slot, queue=queue)
            rt.wait(queue)

        self.calls += 1
        detail = BroadcastResult(
            rank=rank,
            root=root,
            elements_total=buffer.size,
            elements_received=buffer.size if rank == root else send,
            bytes_received=0 if rank == root else self.send_bytes,
            threshold=self.key.policy[0],
            stage=0 if rank == root else 1,
        )
        return CollectiveResult(value=request.sendbuf, detail=detail)
