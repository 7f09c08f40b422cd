"""Ring Allgather collective.

The Allgather stage of the pipelined ring Allreduce is useful on its own
(the paper's related work extends the same machinery to Allgather(V)), so
it is exposed here both as a plan, :class:`RingAllgatherPlan`, which
``comm.allgather`` runs, and as a schedule builder.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import require
from .allreduce_ring import ring_notification_layout
from .plan import CollectivePlan, PipelineGen, WaitSpec
from .policy import CollectiveResult
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import Ring


class RingAllgatherPlan(CollectivePlan):
    """Compiled ring allgather: step ``s`` forwards, straight from
    ``recvbuf``, the block received at step ``s - 1`` (its own at step 0).

    The ring allreduce's reuse argument does not carry over: with only P-1
    steps, the last block a rank needs in call ``k`` *is* its successor's
    step-0 send, so it can finish while the successor has not consumed
    step 0 — and its call-``k + 1`` step-0 post would overwrite that slot.
    So slots and ids are keyed by call parity, as the strict hypercube's
    mailboxes are: finishing call ``k + 1`` needs the successor's
    call-``k + 1`` step-0 send, posted only after it consumed every slot of
    call ``k``.  The workspace is 2·(P-1) block slots.
    """

    _segment_views = ("_slots",)

    def __init__(
        self, runtime, key, segment_id: int, policy, pool=None, throwaway=False
    ) -> None:
        super().__init__(runtime, key, segment_id, pool, throwaway)
        size = runtime.size
        self.block = key.nbytes // self.key_dtype.itemsize
        require(self.block > 0, "allgather sendbuf must be a non-empty vector")
        self.next_rank = Ring(size).next_rank(runtime.rank)
        #: First slot (and id) of even and odd calls: slot ``first + step``.
        self._firsts = (0, size - 1)
        if size > 1:
            ids = ring_notification_layout(2 * (size - 1))
            self._lease_workspace(key.nbytes * ids.count, ids.end)
            self._slots = runtime.segment_view(
                self.segment_id, self.key_dtype, 0, ids.count * self.block
            )

    def _run(self, request, poll_timeout: float) -> PipelineGen:
        sendbuf = self._check_payload(
            np.ascontiguousarray(request.sendbuf), "allgather sendbuf"
        )
        require(sendbuf.ndim == 1, "allgather sendbuf must be a vector")
        size, rank, b = self.runtime.size, self.runtime.rank, self.block
        recvbuf = request.recvbuf
        if recvbuf is None:
            recvbuf = np.empty(size * b, dtype=sendbuf.dtype)
        else:
            recvbuf = np.asarray(recvbuf)
            require(
                recvbuf.size == size * b and recvbuf.dtype == sendbuf.dtype,
                "recvbuf must have size P*block and matching dtype",
            )
        # Blocks are posted from the gathered vector: one contiguous array.
        flat = recvbuf.ndim == 1 and recvbuf.flags["C_CONTIGUOUS"]
        out = recvbuf if flat else np.empty(size * b, dtype=sendbuf.dtype)
        out[rank * b : (rank + 1) * b] = sendbuf
        rt = self.runtime
        sid = self.segment_id
        queue = request.queue
        first = self._firsts[self.calls & 1]
        for step in range(size - 1):
            sent, received = (rank - step) % size, (rank - step - 1) % size
            slot = first + step  # also the notification id
            rt.write_notify_from(
                out[sent * b : (sent + 1) * b], self.next_rank, sid, slot * sendbuf.nbytes, slot,
                queue=queue,
            )  # fmt: skip
            rt.wait(queue)
            while rt.notify_waitsome(sid, slot, 1, timeout=poll_timeout) is None:
                yield WaitSpec(sid, slot, 1, f"allgather step {step} of call {self.calls}")
            rt.notify_reset(sid, slot)
            out[received * b : (received + 1) * b] = self._slots[slot * b : (slot + 1) * b]
        if out is not recvbuf:
            recvbuf[...] = out.reshape(recvbuf.shape)
        self.calls += 1
        return CollectiveResult(value=recvbuf)


def ring_allgather_schedule(
    num_ranks: int,
    block_nbytes: int,
    protocol: Protocol = Protocol.ONESIDED,
    name: str | None = None,
) -> CommunicationSchedule:
    """Schedule of the ring allgather: P-1 rounds of neighbour transfers."""
    require(num_ranks >= 1, "num_ranks must be >= 1")
    require(block_nbytes >= 0, "block_nbytes must be non-negative")
    sched = CommunicationSchedule(
        name=name or "gaspi_allgather_ring",
        num_ranks=num_ranks,
        metadata={"block_bytes": block_nbytes, "algorithm": "ring"},
    )
    if num_ranks == 1:
        sched.validate()
        return sched
    ring = Ring(num_ranks)
    for step in range(num_ranks - 1):
        sched.add_round(
            [
                Message(
                    src=rank,
                    dst=ring.next_rank(rank),
                    nbytes=block_nbytes,
                    protocol=protocol,
                    tag=f"allgather-step-{step}",
                )
                for rank in range(num_ranks)
            ],
            label=f"step-{step}",
        )
    sched.validate()
    return sched
