"""Consistent AlltoAll (paper Section IV-B, Figure 13).

The GASPI AlltoAll follows "a rather simple but well-performing pattern":
every rank writes its block for peer ``j`` directly into peer ``j``'s
segment with ``gaspi_write_notify`` (the notification id identifies the
producer), then waits for P-1 notifications, resetting each one
(``gaspi_notify_waitsome`` + ``gaspi_notify_reset``).  There is no
intermediate forwarding, no pairwise ordering and no global barrier.

:func:`alltoallv` extends the same scheme to variable block sizes, which
the paper mentions as the GASPI equivalent of ``MPI_AlltoAllV`` used by the
Quantum Espresso FFT mini-app.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.runtime import GaspiRuntime
from ..utils.validation import require
from .notifmap import NotificationLayout
from .schedule import CommunicationSchedule, Message, Protocol
from .workspace import Lease, WorkspacePool

#: Default segment id used by the alltoall collectives.
ALLTOALL_SEGMENT_ID = 140


def alltoall(
    runtime: GaspiRuntime,
    sendbuf: np.ndarray,
    recvbuf: Optional[np.ndarray] = None,
    segment_id: int = ALLTOALL_SEGMENT_ID,
    queue: int = 0,
    timeout: float = GASPI_BLOCK,
    pool: Optional[WorkspacePool] = None,
) -> np.ndarray:
    """Exchange equal-sized blocks between every pair of ranks.

    Parameters
    ----------
    sendbuf:
        1-D array of ``P * block`` elements; ``sendbuf[j*block:(j+1)*block]``
        is destined for rank ``j``.
    recvbuf:
        Optional output of the same shape; ``recvbuf[i*block:(i+1)*block]``
        receives rank ``i``'s block.  Allocated when ``None``.

    Returns
    -------
    numpy.ndarray
        The receive buffer.
    """
    sendbuf = np.ascontiguousarray(sendbuf)
    rank, size = runtime.rank, runtime.size
    require(sendbuf.ndim == 1, "sendbuf must be a 1-D vector")
    require(
        sendbuf.size % size == 0,
        f"sendbuf length {sendbuf.size} is not divisible by world size {size}",
    )
    block = sendbuf.size // size
    require(block > 0, "alltoall blocks must contain at least one element")
    block_bytes = block * sendbuf.itemsize

    if recvbuf is None:
        recvbuf = np.empty_like(sendbuf)
    else:
        recvbuf = np.asarray(recvbuf)
        require(
            recvbuf.size == sendbuf.size and recvbuf.dtype == sendbuf.dtype,
            "recvbuf must match sendbuf in size and dtype",
        )

    # Segment layout: the slot at offset i*block_bytes receives rank i's block.
    # Outgoing blocks are posted straight from ``sendbuf`` (caller memory
    # needs no registration), so the segment holds receive slots only.
    producer_ids = NotificationLayout().add("data", size).end  # id = producer
    with Lease(runtime, pool, segment_id, size * block_bytes, producer_ids) as segment_id:
        try:
            slots = runtime.segment_view(segment_id, dtype=sendbuf.dtype, count=sendbuf.size)

            # Own block never touches the network.
            recvbuf[rank * block : (rank + 1) * block] = sendbuf[
                rank * block : (rank + 1) * block
            ]

            for peer in range(size):
                if peer == rank:
                    continue
                runtime.write_notify_from(
                    sendbuf[peer * block : (peer + 1) * block],
                    target_rank=peer,
                    segment_id_remote=segment_id,
                    offset_remote=rank * block_bytes,
                    notification_id=rank,
                    queue=queue,
                )
            if size > 1:
                runtime.wait(queue)

            pending = {p for p in range(size) if p != rank}
            while pending:
                got = runtime.notify_waitsome(segment_id, 0, size, timeout=timeout)
                if got is None:
                    raise TimeoutError(
                        f"rank {rank}: alltoall still waiting for blocks from {sorted(pending)}"
                    )
                runtime.notify_reset(segment_id, got)
                if got in pending:
                    pending.discard(got)
                    # The consumed notification makes the slot quiescent (each
                    # peer writes it once per call): copy straight out of it.
                    recvbuf[got * block : (got + 1) * block] = slots[
                        got * block : (got + 1) * block
                    ]
        finally:
            slots = None  # a live view would keep the segment's mapping open
    return recvbuf


def alltoallv(
    runtime: GaspiRuntime,
    sendbuf: np.ndarray,
    send_counts: Sequence[int],
    recv_counts: Sequence[int],
    recvbuf: Optional[np.ndarray] = None,
    segment_id: int = ALLTOALL_SEGMENT_ID,
    queue: int = 0,
    timeout: float = GASPI_BLOCK,
    pool: Optional[WorkspacePool] = None,
) -> np.ndarray:
    """Variable-size AlltoAll (``MPI_Alltoallv`` equivalent).

    ``send_counts[j]`` elements go to rank ``j``; ``recv_counts[i]`` elements
    are expected from rank ``i``.  Displacements are the prefix sums of the
    counts (dense packing), matching how the FFT mini-app lays out its
    pencil exchange buffers.

    Because GASPI writes are one-sided, a sender needs to know *where* in
    the receiver's segment its block belongs.  The collective therefore runs
    a cheap offset-exchange phase first: every rank pushes the byte offset
    at which it expects each peer's data into that peer's segment header,
    then the data phase proceeds with plain ``write_notify`` exactly like
    the fixed-size AlltoAll.

    Every rank must pass ``recv_counts`` consistent with the peers'
    ``send_counts``; this is the caller's responsibility exactly as with
    MPI.
    """
    sendbuf = np.ascontiguousarray(sendbuf)
    rank, size = runtime.rank, runtime.size
    send_counts = [int(c) for c in send_counts]
    recv_counts = [int(c) for c in recv_counts]
    require(len(send_counts) == size, "send_counts must have one entry per rank")
    require(len(recv_counts) == size, "recv_counts must have one entry per rank")
    require(all(c >= 0 for c in send_counts), "send_counts must be non-negative")
    require(all(c >= 0 for c in recv_counts), "recv_counts must be non-negative")
    require(sum(send_counts) == sendbuf.size, "send_counts must sum to len(sendbuf)")

    itemsize = sendbuf.itemsize
    send_displs = np.concatenate(([0], np.cumsum(send_counts)))[:-1].astype(int)
    recv_displs = np.concatenate(([0], np.cumsum(recv_counts)))[:-1].astype(int)
    total_recv = int(sum(recv_counts))

    if recvbuf is None:
        recvbuf = np.empty(total_recv, dtype=sendbuf.dtype)
    else:
        recvbuf = np.asarray(recvbuf)
        require(recvbuf.size >= total_recv, "recvbuf too small for recv_counts")

    # Segment layout: [header: size int64][recv region].  Both the offset
    # table and the data blocks are posted straight from caller memory.
    header_bytes = size * 8
    recv_bytes_total = max(total_recv * itemsize, itemsize)
    recv_region = header_bytes

    # Notification ids: [0, size) for data (id = producer), [size, 2*size) for
    # the offset-exchange header (id = size + producer).  The receive region
    # is as large as this rank's ``recv_counts`` say — a size the ranks do
    # not share, hence an exact lease.
    ids = NotificationLayout().add("data+offsets", 2 * size).end
    with Lease(
        runtime, pool, segment_id, header_bytes + recv_bytes_total, ids, exact=True
    ) as segment_id:
        try:
            header = runtime.segment_view(segment_id, dtype=np.int64, count=size)
            arrivals = runtime.segment_view(
                segment_id, dtype=sendbuf.dtype, offset=recv_region, count=total_recv
            )
            offsets_out = np.array(
                [recv_region + int(d) * itemsize for d in recv_displs], dtype=np.int64
            )

            # Phase 1: tell every peer where its data belongs in our recv region.
            for peer in range(size):
                if peer == rank:
                    continue
                runtime.write_notify_from(
                    offsets_out[peer : peer + 1],
                    target_rank=peer,
                    segment_id_remote=segment_id,
                    offset_remote=rank * 8,
                    notification_id=size + rank,
                    queue=queue,
                )
            if size > 1:
                runtime.wait(queue)

            # local block
            own = sendbuf[send_displs[rank] : send_displs[rank] + send_counts[rank]]
            recvbuf[recv_displs[rank] : recv_displs[rank] + recv_counts[rank]] = own

            # Phase 2: push data to the offsets the peers advertised.
            header_pending = {p for p in range(size) if p != rank}
            while header_pending:
                got = runtime.notify_waitsome(segment_id, size, size, timeout=timeout)
                if got is None:
                    raise TimeoutError(
                        f"rank {rank}: alltoallv offset exchange incomplete, "
                        f"missing {sorted(header_pending)}"
                    )
                runtime.notify_reset(segment_id, got)
                peer = got - size
                if peer not in header_pending:
                    continue
                header_pending.discard(peer)
                remote_offset = int(header[peer])
                if send_counts[peer]:
                    begin = int(send_displs[peer])
                    runtime.write_notify_from(
                        sendbuf[begin : begin + send_counts[peer]],
                        target_rank=peer,
                        segment_id_remote=segment_id,
                        offset_remote=remote_offset,
                        notification_id=rank,
                        queue=queue,
                    )
                else:
                    runtime.notify(peer, segment_id, rank, queue=queue)
            if size > 1:
                runtime.wait(queue)

            pending = {p for p in range(size) if p != rank}
            while pending:
                got = runtime.notify_waitsome(segment_id, 0, size, timeout=timeout)
                if got is None:
                    raise TimeoutError(
                        f"rank {rank}: alltoallv still waiting for {sorted(pending)}"
                    )
                runtime.notify_reset(segment_id, got)
                if got in pending:
                    pending.discard(got)
                    begin, count = int(recv_displs[got]), recv_counts[got]
                    if count:
                        # Quiescent once its notification is consumed: copy
                        # straight out of the segment.
                        recvbuf[begin : begin + count] = arrivals[begin : begin + count]
        finally:
            header = arrivals = None  # live views would keep the mapping open
    return recvbuf


# --------------------------------------------------------------------------- #
# schedule builder (Figure 13)
# --------------------------------------------------------------------------- #
def alltoall_schedule(
    num_ranks: int,
    block_nbytes: int,
    protocol: Protocol = Protocol.ONESIDED,
    name: str | None = None,
) -> CommunicationSchedule:
    """Schedule of the direct write_notify AlltoAll.

    A single round containing all P(P-1) messages: every rank injects its
    P-1 blocks back-to-back (the simulator serialises per-NIC injection, so
    the cost still scales with P).
    """
    require(num_ranks >= 1, "num_ranks must be >= 1")
    require(block_nbytes >= 0, "block_nbytes must be non-negative")
    sched = CommunicationSchedule(
        name=name or "gaspi_alltoall",
        num_ranks=num_ranks,
        metadata={"block_bytes": block_nbytes, "algorithm": "direct_write_notify"},
    )
    if num_ranks > 1:
        messages = [
            Message(
                src=src,
                dst=dst,
                nbytes=block_nbytes,
                protocol=protocol,
                tag="alltoall",
            )
            for src in range(num_ranks)
            for dst in range(num_ranks)
            if src != dst
        ]
        sched.add_round(messages, label="direct")
    sched.validate()
    return sched
