"""Consistent Allreduce: segmented pipelined ring (paper Section IV-A).

``gaspi_allreduce_ring`` targets the large messages typical of ML/DL
gradient exchanges.  The algorithm has two stages (Figures 4 and 5 of the
paper):

1. **Scatter-Reduce** — P-1 steps; at step ``k`` rank ``i`` sends chunk
   ``(i - k) mod P`` to its clockwise neighbour and reduces the incoming
   chunk ``(i - k - 1) mod P`` into its local data.  Afterwards rank ``i``
   owns the fully reduced chunk ``(i + 1) mod P``.
2. **Allgather** — P-1 further steps circulating the finished chunks, so
   every rank ends with the complete reduced vector.

Each transfer is a ``write_notify`` into a per-step staging slot of the
neighbour's segment; completion is detected with notifications only — no
global synchronisation between or after the two stages, which is the key
difference from the MPI ring implementations the paper compares against.

The protocol is written once, as the :class:`~repro.core.plan.WaitSpec`
generator of :class:`RingAllreducePlan`, which ``comm.allreduce(x,
algorithm="ring")`` runs, cached or cold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.validation import require
from . import kernels
from .notifmap import NotificationLayout, NotifRange
from .plan import CollectivePlan, PipelineGen, WaitSpec
from .policy import CollectiveResult
from .reduction_ops import get_op
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import Ring, chunk_bounds


def ring_notification_layout(total_steps: int) -> NotifRange:
    """Step-notification range of a ring exchange (one id per ring step).

    The ring's notification id *is* the step index; routing the range
    through :class:`~repro.core.notifmap.NotificationLayout` keeps the
    budget check (and any future extra ranges) in one place shared with
    the other collectives.
    """
    layout = NotificationLayout()
    return layout.add("steps", max(1, int(total_steps)))


@dataclass
class RingAllreduceStats:
    """Per-rank counters of one ring allreduce call: the result's ``detail``."""

    rank: int
    num_chunks: int
    steps: int
    bytes_sent: int
    bytes_received: int


# --------------------------------------------------------------------------- #
# compiled plan (persistent workspace, zero per-call setup)
# --------------------------------------------------------------------------- #
class RingAllreducePlan(CollectivePlan):
    """Compiled pipelined-ring allreduce: frozen step table, pooled slots.

    The ring needs no extra cross-call synchronisation: each step's slot
    and notification id are consumed exactly once per call, and before
    rank ``r`` can post its call-``k+1`` step-``s`` write, the transitive
    recv-from-predecessor chain guarantees its successor has already
    finished call-``k`` step ``s + P - 2 >= s`` — i.e. consumed the slot
    being overwritten.  The per-call work is therefore exactly the data
    movement plus the reduction kernels; all offsets, chunk bounds and
    notification ids come from the frozen step table below.
    """

    _segment_views = ("_send_slots", "_recv_slots")

    def __init__(
        self, runtime, key, segment_id: int, policy, pool=None, throwaway=False
    ) -> None:
        super().__init__(runtime, key, segment_id, pool, throwaway)
        self.dtype = np.dtype(key.dtype)
        self.elements = key.nbytes // self.dtype.itemsize
        size = runtime.size
        rank = runtime.rank
        self.ring = Ring(size)
        self.next_rank = self.ring.next_rank(rank)
        itemsize = self.dtype.itemsize
        max_chunk = -(-self.elements // size) if size else 0
        self.slot_bytes = max(max_chunk * itemsize, itemsize)
        self.total_steps = 2 * (size - 1)
        # Budget-checked id map: the step index is the notification id.
        self.step_ids = ring_notification_layout(self.total_steps)
        # Segment layout: the lower half holds one *receive* slot per step
        # (the predecessor writes into slot ``step``), the upper half one
        # *send staging* slot per step.  The regions must be disjoint: a
        # fast predecessor may deliver the step-k chunk before this rank
        # has staged its own step-k send.
        self.send_region = self.slot_bytes * self.total_steps
        # Frozen step table: (step, send bounds, recv bounds, reduce?).
        self.steps = []
        for step in range(size - 1):
            self.steps.append(
                (
                    step,
                    chunk_bounds(self.elements, size, self.ring.scatter_reduce_send_chunk(rank, step)),
                    chunk_bounds(self.elements, size, self.ring.scatter_reduce_recv_chunk(rank, step)),
                    True,
                )
            )
        for step in range(size - 1):
            self.steps.append(
                (
                    (size - 1) + step,
                    chunk_bounds(self.elements, size, self.ring.allgather_send_chunk(rank, step)),
                    chunk_bounds(self.elements, size, self.ring.allgather_recv_chunk(rank, step)),
                    False,
                )
            )
        if size > 1:
            self._lease_workspace(
                self.slot_bytes * self.total_steps * 2, self.step_ids.end
            )
            segment_id = self.segment_id
            # Frozen zero-copy views per step: the send staging slot and
            # the receive slot (the latter sliced to the chunk length).
            self._send_slots = [
                runtime.segment_view(
                    segment_id,
                    dtype=self.dtype,
                    offset=self.send_region + step * self.slot_bytes,
                    count=(s_end - s_begin),
                )
                if s_end > s_begin
                else None
                for step, (s_begin, s_end), _, _ in self.steps
            ]
            self._recv_slots = [
                runtime.segment_view(
                    segment_id,
                    dtype=self.dtype,
                    offset=step * self.slot_bytes,
                    count=(r_end - r_begin),
                )
                if r_end > r_begin
                else None
                for step, _, (r_begin, r_end), _ in self.steps
            ]

    def _run(self, request, poll_timeout: float) -> PipelineGen:
        sendbuf = self._check_payload(np.asarray(request.sendbuf), "allreduce sendbuf")
        require(sendbuf.ndim == 1, "allreduce sendbuf must be a vector")
        operator = get_op(request.op)
        rt = self.runtime
        rank = rt.rank
        size = rt.size
        recvbuf = request.recvbuf
        if recvbuf is None:
            recvbuf = np.empty_like(sendbuf)
        else:
            recvbuf = np.asarray(recvbuf)
            require(
                recvbuf.shape == sendbuf.shape and recvbuf.dtype == sendbuf.dtype,
                "recvbuf must match sendbuf in shape and dtype",
            )

        if size == 1:
            recvbuf[:] = sendbuf
            self.calls += 1
            return CollectiveResult(
                value=recvbuf, detail=RingAllreduceStats(rank, 1, 0, 0, 0)
            )

        # The working vector is a private copy, so any 1-D sendbuf —
        # strided, or recvbuf itself — is fine.
        work = sendbuf.astype(self.dtype, copy=True)
        sid = self.segment_id
        queue = request.queue
        itemsize = self.dtype.itemsize
        bytes_sent = 0
        bytes_received = 0

        for i, (step, (s_begin, s_end), (r_begin, r_end), reduce_step) in enumerate(
            self.steps
        ):
            send_slot = self._send_slots[i]
            if send_slot is not None:
                send_slot[:] = work[s_begin:s_end]
                rt.write_notify(
                    segment_id_local=sid,
                    offset_local=self.send_region + step * self.slot_bytes,
                    target_rank=self.next_rank,
                    segment_id_remote=sid,
                    offset_remote=step * self.slot_bytes,
                    size=(s_end - s_begin) * itemsize,
                    notification_id=step,
                    queue=queue,
                )
            else:
                rt.notify(self.next_rank, sid, step, queue=queue)
            rt.wait(queue)
            bytes_sent += (s_end - s_begin) * itemsize

            while rt.notify_waitsome(sid, step, 1, timeout=poll_timeout) is None:
                yield WaitSpec(sid, step, 1, f"ring step {step}")
            rt.notify_reset(sid, step)
            bytes_received += (r_end - r_begin) * itemsize
            recv_slot = self._recv_slots[i]
            if recv_slot is not None:
                if reduce_step:
                    kernels.reduce_into(operator, work[r_begin:r_end], recv_slot)
                else:
                    work[r_begin:r_end] = recv_slot

        recvbuf[:] = work
        self.calls += 1
        detail = RingAllreduceStats(
            rank=rank,
            num_chunks=size,
            steps=self.total_steps,
            bytes_sent=bytes_sent,
            bytes_received=bytes_received,
        )
        return CollectiveResult(value=recvbuf, detail=detail)


# --------------------------------------------------------------------------- #
# schedule builder (Figures 11 and 12)
# --------------------------------------------------------------------------- #
def ring_allreduce_schedule(
    num_ranks: int,
    nbytes: int,
    protocol: Protocol = Protocol.ONESIDED,
    phase_barriers: bool = False,
    segment_messages: int = 1,
    name: str | None = None,
) -> CommunicationSchedule:
    """Schedule of the segmented pipelined ring allreduce.

    Parameters
    ----------
    phase_barriers:
        Insert a global synchronisation after the Scatter-Reduce and
        Allgather phases.  The GASPI implementation does *not* do this
        (that is one of its selling points); the MPI ring variants in
        :mod:`repro.mpi.allreduce_variants` reuse this builder with
        ``phase_barriers=True`` and two-sided protocol.
    segment_messages:
        Sub-split each 1/P chunk into this many messages (the paper notes
        GPI-2 may split messages internally; 1 keeps one message per chunk).
    """
    require(num_ranks >= 1, "num_ranks must be >= 1")
    require(nbytes >= 0, "nbytes must be non-negative")
    require(segment_messages >= 1, "segment_messages must be >= 1")
    sched = CommunicationSchedule(
        name=name or "gaspi_allreduce_ring",
        num_ranks=num_ranks,
        metadata={
            "payload_bytes": nbytes,
            "algorithm": "segmented_pipelined_ring",
            "phase_barriers": phase_barriers,
        },
    )
    if num_ranks == 1 or nbytes == 0:
        sched.validate()
        return sched

    ring = Ring(num_ranks)
    chunk_nbytes = [
        chunk_bounds(nbytes, num_ranks, c)[1] - chunk_bounds(nbytes, num_ranks, c)[0]
        for c in range(num_ranks)
    ]

    def add_phase(phase: str, reduce: bool) -> None:
        for step in range(num_ranks - 1):
            messages = []
            for rank in range(num_ranks):
                if phase == "scatter-reduce":
                    chunk = ring.scatter_reduce_send_chunk(rank, step)
                else:
                    chunk = ring.allgather_send_chunk(rank, step)
                total = chunk_nbytes[chunk]
                per_msg = -(-total // segment_messages)
                remaining = total
                for s in range(segment_messages):
                    this = min(per_msg, remaining)
                    remaining -= this
                    if this <= 0 and s > 0:
                        continue
                    messages.append(
                        Message(
                            src=rank,
                            dst=ring.next_rank(rank),
                            nbytes=this,
                            protocol=protocol,
                            reduce_bytes=this if reduce else 0,
                            tag=f"{phase}-step-{step}",
                        )
                    )
            sched.add_round(messages, label=f"{phase}-{step}")
        if phase_barriers and sched.rounds:
            sched.rounds[-1].barrier_after = True

    add_phase("scatter-reduce", reduce=True)
    add_phase("allgather", reduce=False)
    sched.validate()
    return sched
