"""Eventually consistent Broadcast (paper Section III-B, Figures 3 & 8).

One protocol, :class:`BstBcastPlan`: a tree fan-out over a leased staging
segment with consume acknowledgements, written once as a
:class:`~repro.core.plan.WaitSpec` generator.  Everything else here is a
way of running it:

* ``gaspi_bcast_bst`` is the plan over the binomial spanning tree the paper
  evaluates.  The *threshold* parameter controls which fraction of the
  payload is actually shipped: with ``threshold = 0.25`` only the first
  quarter of the buffer reaches the non-root ranks, which is the paper's
  way of mimicking eventual consistency ("the application can proceed upon
  arrival of a part of the data").
* ``gaspi_bcast_flat`` — the naive variant mentioned in the paper (P-1
  ``gaspi_write_notify`` calls issued by the root) — is the same plan over
  a star: :class:`FlatBcastPlan` only chooses the tree.

``comm.bcast`` runs either, cached or cold (``plan_cache=0``).

The module also exports the communication-schedule builders for the timing
simulator, used by the Figure 8 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..utils.validation import check_fraction, require
from .notifmap import NotificationLayout
from .plan import CollectivePlan, PipelineGen, WaitSpec
from .policy import CollectiveResult
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import BinomialTree, KnomialTree


@lru_cache(maxsize=None)
def bcast_layout(num_ranks: int) -> NotificationLayout:
    """Ids of a broadcast workspace: one data arrival slot, then one ack
    slot per child position (a star's root has ``num_ranks - 1``).  A pure
    function of the world size, built once: every compile and every cold
    call asks for it."""
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


def threshold_bytes(nbytes: int, threshold: float, itemsize: int = 8) -> int:
    """Bytes a data threshold ships of ``nbytes``: :func:`threshold_elements`
    of its ``itemsize``-byte elements, as the plans do (under one element: all)."""
    elements = -(-nbytes // itemsize)
    return min(nbytes, threshold_elements(elements, threshold) * itemsize)


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
    require(nbytes >= 0, "nbytes must be non-negative")
    send_bytes = threshold_bytes(nbytes, threshold)
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
    send_bytes = threshold_bytes(nbytes, threshold)
    sched = CommunicationSchedule(
        name=name or f"gaspi_bcast_flat[{int(threshold * 100)}%]",
        num_ranks=num_ranks,
        metadata={"threshold": threshold, "payload_bytes": nbytes,
                  "shipped_bytes": send_bytes, "algorithm": "flat"},
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
    """Compiled tree broadcast: frozen tree, leased workspace, no barriers.

    A cold call's workspace is leased again only after a pool barrier has
    quiesced it; a plan reuses its workspace call after call, so reuse
    needs an explicit hand-shake.  This plan
    uses *consume acknowledgements*: every child acks its parent once it
    has (a) copied the payload out of its staging slot and (b) flushed its
    own forwards, and a parent consumes each child's previous-call ack
    immediately before overwriting that child's staging slot.  A parent
    therefore can never clobber an unconsumed slot, however far ahead the
    root races — and unlike a trailing barrier, the ack wait overlaps with
    the next call's compute (MPI persistent-collective style pipelining).
    The acks of the last call stay posted; the workspace release scrubs
    them.
    """

    _segment_views = ("_staging",)

    #: The fan-out: anything with ``parent`` / ``children`` / ``stage_of``,
    #: a pure function of (world size, root) — built once, not per compile
    #: or cold call.
    _tree = staticmethod(lru_cache(maxsize=None)(BinomialTree))

    def __init__(
        self, runtime, key, segment_id: int, policy, pool=None, throwaway=False
    ) -> None:
        super().__init__(runtime, key, segment_id, pool, throwaway)
        self.dtype = self.key_dtype
        self.elements = key.nbytes // self.dtype.itemsize
        self.send_elems = threshold_elements(self.elements, policy.threshold)
        self.send_bytes = self.send_elems * self.dtype.itemsize
        tree = self._tree(runtime.size, key.root)
        rank = runtime.rank
        self.children = tree.children(rank)
        self.parent = tree.parent(rank)
        self.stage = tree.stage_of(rank)
        self.parent_ack_slot = (
            None
            if self.parent is None
            else _NOTIF_ACK_BASE + tree.children(self.parent).index(rank)
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

    def _run(self, request, poll_timeout: float) -> PipelineGen:
        buffer = self._check_payload(_require_vector(request.sendbuf), "bcast buffer")
        rt = self.runtime
        sid = self.segment_id
        queue = request.queue
        send = self.send_elems

        if self.parent is None:
            self._staging[:send] = buffer[:send]
        else:
            while rt.notify_waitsome(sid, _NOTIF_DATA, 1, timeout=poll_timeout) is None:
                yield WaitSpec(sid, _NOTIF_DATA, 1, f"data from parent {self.parent}")
            rt.notify_reset(sid, _NOTIF_DATA)
            buffer[:send] = self._staging[:send]

        if self.children:
            if self.calls:
                # Consume each child's previous-call ack before its slot
                # is overwritten (see the class docstring).
                for child, slot in zip(self.children, self.child_ack_slots):
                    while rt.notify_waitsome(sid, slot, 1, timeout=poll_timeout) is None:
                        yield WaitSpec(
                            sid, slot, 1, f"child {child}'s ack of the previous call"
                        )
                    rt.notify_reset(sid, slot)
            for child in self.children:
                rt.write_notify(
                    sid, 0, child, sid, 0, self.send_bytes, _NOTIF_DATA, queue=queue
                )
            rt.wait(queue)

        if self.parent is not None:
            # Ack only after wait(queue): the forwards read the staging
            # slot zero-copy, so it must stay stable until they flushed.
            rt.notify(self.parent, sid, self.parent_ack_slot, queue=queue)
            rt.wait(queue)

        self.calls += 1
        received = self.parent is not None
        detail = BroadcastResult(
            rank=rt.rank,
            root=self.key.root,
            elements_total=buffer.size,
            elements_received=send if received else buffer.size,
            bytes_received=self.send_bytes if received else 0,
            threshold=self.key.policy[0],
            stage=self.stage,
        )
        return CollectiveResult(value=request.sendbuf, detail=detail)


class FlatBcastPlan(BstBcastPlan):
    """The flat broadcast is the tree plan over a star: every peer is a
    child of the root, which consumes all P-1 previous-call acks before it
    overwrites their staging slots."""

    @staticmethod
    @lru_cache(maxsize=None)
    def _tree(num_ranks: int, root: int) -> KnomialTree:
        return KnomialTree(num_ranks, radix=max(num_ranks, 2), root=root)
