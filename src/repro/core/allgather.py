"""Ring Allgather collective.

The Allgather stage of the pipelined ring Allreduce is useful on its own
(the paper's related work extends the same machinery to Allgather(V)), so
it is exposed here both as a functional collective and as a schedule
builder.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.runtime import GaspiRuntime
from ..utils.validation import require
from .allreduce_ring import ring_notification_layout
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import Ring
from .workspace import Lease, WorkspacePool

#: Default segment id used by the allgather collective.
ALLGATHER_SEGMENT_ID = 130


def ring_allgather(
    runtime: GaspiRuntime,
    sendbuf: np.ndarray,
    recvbuf: Optional[np.ndarray] = None,
    segment_id: int = ALLGATHER_SEGMENT_ID,
    queue: int = 0,
    timeout: float = GASPI_BLOCK,
    pool: Optional[WorkspacePool] = None,
) -> np.ndarray:
    """Gather equal-sized blocks from every rank onto every rank.

    Parameters
    ----------
    sendbuf:
        This rank's block (1-D, same length and dtype on every rank).
    recvbuf:
        Optional output of length ``size * len(sendbuf)``; allocated when
        ``None``.  On return, ``recvbuf[r*b:(r+1)*b]`` holds rank ``r``'s
        block.

    Returns
    -------
    numpy.ndarray
        The gathered vector (the same object as ``recvbuf`` when given).
    """
    sendbuf = np.ascontiguousarray(sendbuf)
    require(sendbuf.ndim == 1 and sendbuf.size > 0, "sendbuf must be a non-empty vector")
    rank, size = runtime.rank, runtime.size
    block = sendbuf.size
    if recvbuf is None:
        recvbuf = np.empty(size * block, dtype=sendbuf.dtype)
    else:
        recvbuf = np.asarray(recvbuf)
        require(
            recvbuf.size == size * block and recvbuf.dtype == sendbuf.dtype,
            "recvbuf must have size P*block and matching dtype",
        )

    recvbuf[rank * block : (rank + 1) * block] = sendbuf
    if size == 1:
        return recvbuf

    ring = Ring(size)
    nxt = ring.next_rank(rank)
    slot_bytes = sendbuf.nbytes

    # Lower half of the segment: receive slots (one per step, written by the
    # predecessor); upper half: local send staging.  Keeping them disjoint
    # avoids clobbering an early-arriving block while staging the outgoing one.
    send_region = slot_bytes * (size - 1)
    step_ids = ring_notification_layout(size - 1).end  # notification id == step
    with Lease(
        runtime, pool, segment_id, slot_bytes * (size - 1) * 2, step_ids
    ) as segment_id:
        try:
            for step in range(size - 1):
                # Send the block received in the previous step (own block first).
                send_owner = (rank - step) % size
                recv_owner = (rank - step - 1) % size
                offset = step * slot_bytes

                staging = runtime.segment_view(
                    segment_id, dtype=sendbuf.dtype, offset=send_region + offset, count=block
                )
                staging[:] = recvbuf[send_owner * block : (send_owner + 1) * block]
                runtime.write_notify(
                    segment_id_local=segment_id,
                    offset_local=send_region + offset,
                    target_rank=nxt,
                    segment_id_remote=segment_id,
                    offset_remote=offset,
                    size=slot_bytes,
                    notification_id=step,
                    queue=queue,
                )
                runtime.wait(queue)

                got = runtime.notify_waitsome(segment_id, step, 1, timeout=timeout)
                if got is None:
                    raise TimeoutError(f"rank {rank}: allgather step {step} never completed")
                runtime.notify_reset(segment_id, step)
                incoming = runtime.segment_read(
                    segment_id, dtype=sendbuf.dtype, offset=offset, count=block
                )
                recvbuf[recv_owner * block : (recv_owner + 1) * block] = incoming
        finally:
            staging = None  # a live view would keep the segment's mapping open
    return recvbuf


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
