"""Dissemination barrier built on GASPI notifications.

The related-work section of the paper points to the Hensgen/Finkel/Manber
dissemination algorithm (used e.g. by MPICH barriers).  This module
implements it with pure notification traffic: in round ``k`` each rank
notifies ``(rank + 2**k) mod P`` and waits for the notification from
``(rank - 2**k) mod P``.  After ``⌈log2 P⌉`` rounds every rank has
(transitively) heard from every other rank.

The protocol is the generator of :class:`DisseminationBarrierPlan`, which
``comm.barrier(algorithm="dissemination")`` caches like any other plan.
"""

from __future__ import annotations

from ..utils.validation import ceil_log2, require
from .notifmap import NotificationLayout
from .plan import CollectivePlan, PipelineGen, WaitSpec
from .policy import CollectiveResult
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import dissemination_schedule


class DisseminationBarrierPlan(CollectivePlan):
    """Compiled dissemination barrier: one notify and one wait per round.

    The workspace only carries notifications.  Reuse needs two ids per
    round, selected by call parity: a rank that enters call ``k + 2`` has
    left call ``k + 1``, so it heard (transitively) from every rank
    entering call ``k + 1`` — and each of them had consumed all its call-``k``
    notifications first.  One id per round is not enough: a rank that
    leaves call ``k`` knows only that everybody *entered* it, and its
    call-``k + 1`` post to a rank still in an earlier round of call ``k``
    would land on an unconsumed notification.
    """

    def __init__(
        self, runtime, key, segment_id: int, policy, pool=None, throwaway=False
    ) -> None:
        super().__init__(runtime, key, segment_id, pool, throwaway)
        self._rounds = dissemination_schedule(runtime.size, runtime.rank)
        ids = NotificationLayout().add("rounds", max(1, 2 * len(self._rounds)))
        self._lease_workspace(8, ids.end)

    def _run(self, request, poll_timeout: float) -> PipelineGen:
        rt = self.runtime
        sid = self.segment_id
        queue = request.queue
        first = (self.calls & 1) * len(self._rounds)  # round k: id first + k
        for step in self._rounds:
            nid = first + step.round_index
            rt.notify(step.send_to, sid, nid, queue=queue)
            rt.wait(queue)
            while rt.notify_waitsome(sid, nid, 1, timeout=poll_timeout) is None:
                yield WaitSpec(
                    sid, nid, 1,
                    f"barrier round {step.round_index}: rank {step.recv_from}, call {self.calls}",
                )  # fmt: skip
            rt.notify_reset(sid, nid)
        self.calls += 1
        return CollectiveResult(value=None)


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
