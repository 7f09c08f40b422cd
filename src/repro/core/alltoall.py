"""Consistent AlltoAll (paper Section IV-B, Figure 13).

The GASPI AlltoAll follows "a rather simple but well-performing pattern":
every rank writes its block for peer ``j`` directly into peer ``j``'s
segment with ``gaspi_write_notify`` (the notification id identifies the
producer), then waits for P-1 notifications, resetting each one
(``gaspi_notify_waitsome`` + ``gaspi_notify_reset``).  There is no
intermediate forwarding, no pairwise ordering and no global barrier.

:class:`AlltoallPlan` also serves ``comm.alltoallv``, the same scheme for
variable block sizes, which the paper mentions as the GASPI equivalent of
``MPI_AlltoAllV`` used by the Quantum Espresso FFT mini-app.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import require
from .notifmap import NotificationLayout
from .plan import CollectivePlan, PipelineGen, WaitSpec
from .policy import CollectiveResult
from .schedule import CommunicationSchedule, Message, Protocol


class AlltoallPlan(CollectivePlan):
    """Compiled direct AlltoAll: one ``write_notify`` per peer, no staging.

    Blocks are posted straight from the caller's ``sendbuf``
    (``write_notify_from``) and copied out of their slots into ``recvbuf``
    in whatever order they land.  Slots and ids are keyed by call parity:
    a rank can finish call ``k`` while a peer that posted its own blocks
    still waits for a third rank, this rank's block unconsumed — a single
    slot would take the call-``k + 1`` post on top of it.  A call-``k + 2``
    post cannot: finishing call ``k + 1`` needs every peer's call-``k + 1``
    block, posted only after that peer consumed all of call ``k``.  So a
    cached plan holds 2·P blocks of workspace.

    An ``alltoallv`` is the same exchange twice: the offsets its blocks
    land at, then the blocks.  Its layout differs per rank and per call, so
    it is never cached: its key freezes no bytes, and the call leases its
    own exact workspace.
    """

    _segment_views = ("_slots",)

    def __init__(
        self, runtime, key, segment_id: int, policy, pool=None, throwaway=False
    ) -> None:
        super().__init__(runtime, key, segment_id, pool, throwaway)
        size = runtime.size
        elements = key.nbytes // self.key_dtype.itemsize
        self.block = b = elements // size
        if not key.nbytes:  # an alltoallv: the layout comes with the call
            return
        require(
            elements % size == 0,
            f"sendbuf length {elements} is not divisible by world size {size}",
        )
        ids = NotificationLayout().add("blocks", 2 * size)
        self._lease_workspace(2 * key.nbytes, ids.end)
        self._slots = runtime.segment_view(self.segment_id, self.key_dtype, 0, 2 * elements)
        self._blocks = [(peer * b, (peer + 1) * b) for peer in range(size)]
        #: First slot (and id) of even and odd calls: producer ``p``'s is ``first + p``.
        self._firsts = (0, size)

    def _run(self, request, poll_timeout: float) -> PipelineGen:
        rt = self.runtime
        sendbuf = np.ascontiguousarray(request.sendbuf)
        require(sendbuf.ndim == 1, "alltoall sendbuf must be a 1-D vector")
        if request.variable:
            recvbuf, layout = yield from self._exchange_offsets(request, sendbuf, poll_timeout)
        else:
            self._check_payload(sendbuf, "alltoall sendbuf")
            require(self.block > 0, "alltoall blocks must contain at least one element")
            recvbuf = request.recvbuf
            if recvbuf is None:
                recvbuf = np.empty_like(sendbuf)
            else:
                recvbuf = np.asarray(recvbuf)
                require(
                    recvbuf.size == sendbuf.size and recvbuf.dtype == sendbuf.dtype,
                    "recvbuf must match sendbuf in size and dtype",
                )
            first = self._firsts[self.calls & 1]
            remote = [(first + rt.rank) * self.block * sendbuf.itemsize] * rt.size
            arrivals = self._slots[first * self.block :]
            layout = (first, self._blocks, self._blocks, remote, arrivals)
        yield from self._exchange("blocks", sendbuf, recvbuf, layout, request.queue, poll_timeout)
        self.calls += 1
        return CollectiveResult(value=recvbuf)

    def _exchange(self, what: str, sendbuf, recvbuf, layout, queue: int, poll_timeout: float):
        """Post ``sendbuf[sends[p]]`` to byte ``remote[p]`` of every peer
        ``p`` under id ``first + rank``, then copy each peer's block out of
        ``arrivals[recvs[p]]`` into ``recvbuf[recvs[p]]`` as it lands;
        ``layout`` is ``(first, sends, recvs, remote, arrivals)``."""
        rt = self.runtime
        size, rank = rt.size, rt.rank
        first, sends, recvs, remote, arrivals = layout
        sid = self.segment_id
        for peer in range(size):
            if peer == rank:
                continue
            lo, hi = sends[peer]
            if hi > lo:
                rt.write_notify_from(
                    sendbuf[lo:hi], peer, sid, remote[peer], first + rank, queue=queue
                )
            else:
                rt.notify(peer, sid, first + rank, queue=queue)
        # Own block never touches the network.
        (s_lo, s_hi), (r_lo, r_hi) = sends[rank], recvs[rank]
        recvbuf[r_lo:r_hi] = sendbuf[s_lo:s_hi]
        rt.wait(queue)
        pending = set(range(size)) - {rank}
        while pending:
            got = rt.notify_waitsome(sid, first, size, timeout=poll_timeout)
            if got is None:
                yield WaitSpec(
                    sid, first, size,
                    f"alltoall {what} of call {self.calls} from ranks {sorted(pending)}",
                )  # fmt: skip
                continue
            rt.notify_reset(sid, got)
            peer = got - first
            if peer in pending:
                pending.discard(peer)
                # Quiescent once its notification is consumed (each peer
                # writes a slot once per call): copy straight out of it.
                lo, hi = recvs[peer]
                recvbuf[lo:hi] = arrivals[lo:hi]

    def _exchange_offsets(self, request, sendbuf: np.ndarray, poll_timeout: float):
        """The first exchange of an ``alltoallv``: where its blocks land,
        which only the receiver's ``recv_counts`` say.  Leases the call's
        exact workspace — ``[header: P int64][receive region]``, ids
        ``[0, P)`` for blocks and ``[P, 2P)`` for offsets — and returns
        ``recvbuf`` and the layout of the block exchange."""
        size = self.runtime.size
        send_counts = [int(c) for c in request.send_counts]
        recv_counts = [int(c) for c in request.recv_counts]
        require(len(send_counts) == size, "send_counts must have one entry per rank")
        require(len(recv_counts) == size, "recv_counts must have one entry per rank")
        require(all(c >= 0 for c in send_counts), "send_counts must be non-negative")
        require(all(c >= 0 for c in recv_counts), "recv_counts must be non-negative")
        require(sum(send_counts) == sendbuf.size, "send_counts must sum to len(sendbuf)")
        total_recv = sum(recv_counts)
        recvbuf = request.recvbuf
        if recvbuf is None:
            recvbuf = np.empty(total_recv, dtype=sendbuf.dtype)
        else:
            recvbuf = np.asarray(recvbuf)
            require(recvbuf.size >= total_recv, "recvbuf too small for recv_counts")
            require(recvbuf.dtype == sendbuf.dtype, "recvbuf must match sendbuf in dtype")
        send_displs = np.cumsum([0] + send_counts).tolist()
        recv_displs = np.cumsum([0] + recv_counts).tolist()
        sends = list(zip(send_displs, send_displs[1:]))
        recvs = list(zip(recv_displs, recv_displs[1:]))

        header_bytes = size * 8
        itemsize = sendbuf.itemsize
        ids = NotificationLayout().add("blocks+offsets", 2 * size).end
        self._lease_workspace(header_bytes + max(total_recv, 1) * itemsize, ids, exact=True)
        rt, sid = self.runtime, self.segment_id
        offsets_out = header_bytes + np.array(recv_displs[:-1], dtype=np.int64) * itemsize
        offsets_in = np.empty(size, dtype=np.int64)
        words = [(peer, peer + 1) for peer in range(size)]
        header = rt.segment_view(sid, np.int64, 0, size)
        header_layout = (size, words, words, [rt.rank * 8] * size, header)
        yield from self._exchange(
            "offsets", offsets_out, offsets_in, header_layout, request.queue, poll_timeout
        )
        arrivals = rt.segment_view(sid, sendbuf.dtype, header_bytes, total_recv)
        return recvbuf, (0, sends, recvs, offsets_in.tolist(), arrivals)


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
