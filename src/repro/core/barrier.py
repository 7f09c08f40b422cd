"""Dissemination barrier built on GASPI notifications.

The related-work section of the paper points to the Hensgen/Finkel/Manber
dissemination algorithm (used e.g. by MPICH barriers).  This module
implements it with pure notification traffic: in round ``k`` each rank
notifies ``(rank + 2**k) mod P`` and waits for the notification from
``(rank - 2**k) mod P``.  After ``⌈log2 P⌉`` rounds every rank has
(transitively) heard from every other rank.

The implementation is reusable: each instance owns a tiny segment whose
notification slots encode ``(generation, round)`` so back-to-back barriers
do not confuse each other.
"""

from __future__ import annotations

from typing import Optional

from ..gaspi.constants import GASPI_BLOCK
from ..gaspi.runtime import GaspiRuntime
from ..utils.validation import ceil_log2, require
from .notifmap import NotificationLayout
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import dissemination_schedule
from .workspace import Lease, WorkspacePool

#: Default segment id used by the notification barrier.
BARRIER_SEGMENT_ID = 150

#: Number of barrier generations tracked before notification ids wrap.
_GENERATIONS = 4


class NotificationBarrier:
    """Reusable dissemination barrier over all ranks."""

    def __init__(
        self,
        runtime: GaspiRuntime,
        segment_id: int = BARRIER_SEGMENT_ID,
        queue: int = 0,
        pool: Optional[WorkspacePool] = None,
    ) -> None:
        self.runtime = runtime
        self.queue = int(queue)
        self.rounds = ceil_log2(runtime.size) if runtime.size > 1 else 0
        self.generation = 0
        # One id per (generation, round); the segment only exists to carry
        # them, 8 bytes suffice.
        ids = NotificationLayout().add("rounds", max(1, _GENERATIONS * self.rounds)).end
        self._lease = Lease(runtime, pool, segment_id, 8, ids)
        self.segment_id = self._lease.segment_id
        self._closed = False

    def wait(self, timeout: float = GASPI_BLOCK) -> None:
        """Enter the barrier; returns when every rank has entered it."""
        if self._closed:
            raise RuntimeError("barrier already closed")
        rank = self.runtime.rank
        size = self.runtime.size
        if size == 1:
            self.generation += 1
            return
        gen_slot = self.generation % _GENERATIONS
        for step in dissemination_schedule(size, rank):
            notif = gen_slot * self.rounds + step.round_index
            self.runtime.notify(step.send_to, self.segment_id, notif, queue=self.queue)
            self.runtime.wait(self.queue)
            got = self.runtime.notify_waitsome(self.segment_id, notif, 1, timeout=timeout)
            if got is None:
                raise TimeoutError(
                    f"rank {rank}: dissemination barrier round {step.round_index} "
                    f"timed out waiting for rank {step.recv_from}"
                )
            self.runtime.notify_reset(self.segment_id, got)
        self.generation += 1

    def close(self) -> None:
        """Release the barrier segment (collective)."""
        if self._closed:
            return
        self._closed = True
        self._lease.release()

    def __enter__(self) -> "NotificationBarrier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def notification_barrier(
    runtime: GaspiRuntime,
    segment_id: int = BARRIER_SEGMENT_ID,
    timeout: float = GASPI_BLOCK,
    pool: Optional[WorkspacePool] = None,
) -> None:
    """One-shot dissemination barrier (constructs and tears down its state)."""
    barrier = NotificationBarrier(runtime, segment_id=segment_id, pool=pool)
    try:
        barrier.wait(timeout=timeout)
    finally:
        barrier.close()


def dissemination_barrier_schedule(
    num_ranks: int,
    protocol: Protocol = Protocol.ONESIDED,
    name: str | None = None,
) -> CommunicationSchedule:
    """Schedule of the dissemination barrier (zero-byte messages)."""
    require(num_ranks >= 1, "num_ranks must be >= 1")
    sched = CommunicationSchedule(
        name=name or "gaspi_barrier_dissemination",
        num_ranks=num_ranks,
        metadata={"algorithm": "dissemination"},
    )
    rounds = ceil_log2(num_ranks) if num_ranks > 1 else 0
    for k in range(rounds):
        dist = 1 << k
        sched.add_round(
            [
                Message(
                    src=rank,
                    dst=(rank + dist) % num_ranks,
                    nbytes=0,
                    protocol=protocol,
                    tag=f"barrier-round-{k}",
                )
                for rank in range(num_ranks)
            ],
            label=f"round-{k}",
        )
    sched.validate()
    return sched
