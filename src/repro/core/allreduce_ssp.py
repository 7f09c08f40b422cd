"""Eventually consistent Allreduce with Stale Synchronous Parallelism.

This is Algorithm 1 of the paper (``allreduce_SSP``): a hypercube
allreduce in which a rank, instead of waiting for a *fresh* contribution
from its step-``k`` partner, reuses the last contribution it received for
that step, provided it is not older than ``slack`` iterations.

Implementation notes matching the paper:

* **Dedicated per-step mailboxes** (``rcv_data_vec``): the step-``k``
  partner always writes into mailbox ``k``, overwriting its previous
  contribution, so "read the last contribution" is a local read of that
  mailbox.
* **Logical clocks travel with the data**, as the notification value of
  the post that carries it; when two contributions are reduced the result
  is tagged with the *minimum* of their clocks, so the clock of the final
  result bounds the staleness of every contribution it contains.
* **Waiting only when too stale** (lines 7–11 of Algorithm 1): the reader
  compares the mailbox's clock with ``clock - slack`` and waits on the
  mailbox's notification only while it is older.
* **Strict calls never read ahead.**  "Overwriting its previous
  contribution" is the point under slack, but at ``slack = 0`` a partner
  that already entered its *next* call would replace the contribution this
  call has yet to read.  A strict partner is at most one call ahead, so at
  slack 0 there are two mailboxes — and notification ids — per step,
  selected by the parity of the call.

One executor serves every slack: :class:`HypercubeAllreducePlan`, the
compiled plan ``comm.allreduce`` caches under a key that includes the
slack.  At slack > 0 the collective keeps state across calls (the
mailboxes and the logical clock), so that plan *is* the state: the
communicator plans such a key whatever its cache capacity or fault plan,
and never evicts it.  ``comm.allreduce_ssp`` is the paper's spelling of
the same call; each slack call's clocks and waits are the result's
``detail`` (:class:`SSPCallStats`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..utils.validation import check_power_of_two, require
from . import kernels
from .notifmap import NotificationLayout
from .plan import CollectivePlan, PipelineGen, WaitSpec
from .policy import CollectiveResult
from .reduction_ops import get_op
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import Hypercube


@dataclass
class SSPCallStats:
    """Instrumentation of a single slack call on one rank.

    ``wait_time`` is the quantity plotted on the right-hand side of
    Figure 7 of the paper ("time spent waiting for fresh updates").
    """

    clock: int
    result_clock: int
    waits: int = 0
    wait_time: float = 0.0
    stale_reuses: int = 0
    fresh_uses: int = 0

    @property
    def staleness(self) -> int:
        """How many iterations behind the freshest data the result is."""
        return self.clock - self.result_clock


# --------------------------------------------------------------------------- #
# compiled plan: the hypercube as a single-copy exchange, at every slack
# --------------------------------------------------------------------------- #
class HypercubeAllreducePlan(CollectivePlan):
    """Compiled hypercube allreduce: one wire op and one fold per step.

    Step ``k`` posts the running partial — the caller's ``sendbuf`` at
    step 0, the accumulator afterwards — straight into the partner's
    mailbox (``write_notify_from``: nothing is staged) and folds
    ``acc = op(partial, mailbox)``.  The accumulator is the caller's
    ``recvbuf`` when that is a contiguous vector of the plan's dtype; any
    other ``recvbuf`` is filled once from a private vector at the end.
    The fold order per step is fixed by the hypercube, so planned and cold
    results are bit-identical at slack 0.

    **Slack 0.**  Each step waits for the partner's notification and
    folds out of the mailbox view in place.  Reuse needs no barrier, no
    clock and no snapshot: a partner is at most one call ahead (it cannot
    pass step ``k`` of call ``c + 1`` before this rank's step-``k`` write
    of that call, which is posted only after call ``c`` finished here), so
    two mailboxes — and notification ids — per step, selected by call
    parity, keep its next contribution out of this call's, and nothing can
    land in the box being folded.

    **Slack > 0.**  One mailbox per step, overwritten by every post of
    the partner.  A post's notification value is one more than the
    logical clock of the partial it carries (the minimum clock folded
    into it; an unwritten mailbox counts as 0), and the last value
    ``notify_reset`` returned for a mailbox gives its clock: a mailbox
    whose notification was never consumed holds no contribution, whatever
    bytes a previous lessee left in it.  A step waits only while that
    clock is older than ``clock - slack``, and folds a ``segment_read``
    snapshot — a partner up to ``slack`` calls ahead may be overwriting
    the box.  (A post landing between the reset and the snapshot only
    makes the contents fresher than their clock says.)  The plan keeps
    the clock across calls (:attr:`clock`) and returns each call's
    :class:`SSPCallStats` as the result's ``detail``.
    """

    _segment_views = ("_steps",)

    def __init__(
        self, runtime, key, segment_id: int, policy, pool=None, throwaway=False
    ) -> None:
        super().__init__(runtime, key, segment_id, pool, throwaway)
        self.dtype = self.key_dtype
        self.elements = key.nbytes // self.dtype.itemsize
        require(self.elements > 0, "num_elements must be positive")
        self.slack = policy.slack
        #: Logical clock of the next call at slack > 0.
        self.clock = 1
        cube = Hypercube(runtime.size)
        parities = 1 if self.slack else 2
        boxes = NotificationLayout().add("mailboxes", max(1, parities * cube.dimensions))
        self._lease_workspace(key.nbytes * boxes.count, boxes.end)
        #: Notification value last consumed per step mailbox: 1 + the
        #: clock of its contents, 0 while nothing was received (slack > 0).
        self._held = [0] * cube.dimensions

        def step(k: int, box: int) -> tuple:
            # (step, partner, mailbox id, byte offset of that mailbox in the
            # partner's segment, view of the local one)
            view = runtime.segment_view(
                self.segment_id, self.dtype, box * key.nbytes, self.elements
            )
            return k, cube.partner(runtime.rank, k), boxes.id(box), box * key.nbytes, view

        #: Step tables of even and odd calls: mailbox ``parities * step +
        #: parity`` (one table for both under slack).
        tables = [
            [step(k, parities * k + parity) for k in range(cube.dimensions)]
            for parity in range(parities)
        ]
        self._steps = (tables[0], tables[-1])

    def _run(self, request, poll_timeout: float) -> PipelineGen:
        sendbuf = self._check_payload(
            np.ascontiguousarray(request.sendbuf), "allreduce sendbuf"
        )
        require(sendbuf.ndim == 1, "allreduce sendbuf must be a vector")
        operator = get_op(request.op)
        recvbuf = request.recvbuf
        if (
            isinstance(recvbuf, np.ndarray)
            and recvbuf.dtype == self.dtype
            and recvbuf.shape == sendbuf.shape
            and recvbuf.flags["C_CONTIGUOUS"]
        ):
            acc = recvbuf
        else:
            acc = np.empty_like(sendbuf)
        rt = self.runtime
        sid = self.segment_id
        queue = request.queue
        partial = sendbuf
        stats = None
        if self.slack:
            partial, stats = yield from self._stale_steps(
                sendbuf, acc, operator, queue, poll_timeout
            )
        else:
            for step, partner, box, offset, mailbox in self._steps[self.calls & 1]:
                rt.write_notify_from(partial, partner, sid, offset, box, queue=queue)
                # The posted source is folded over below: flush it first.
                rt.wait(queue)
                while rt.notify_waitsome(sid, box, 1, timeout=poll_timeout) is None:
                    yield WaitSpec(
                        sid,
                        box,
                        1,
                        f"hypercube step {step}: partner {partner}'s contribution "
                        f"to call {self.calls}",
                    )
                rt.notify_reset(sid, box)
                kernels.fold(operator, partial, mailbox, acc)
                partial = acc
        if partial is sendbuf:  # a world of one, or nothing received: nothing folded
            acc[:] = sendbuf
        if recvbuf is not None and acc is not recvbuf:
            recvbuf[:] = acc
            acc = recvbuf
        self.calls += 1
        return CollectiveResult(value=acc, detail=stats)

    def _stale_steps(self, sendbuf, acc, operator, queue, poll_timeout: float):
        """The steps of a slack call (lines 2–12 of Algorithm 1): returns
        the last partial and the call's :class:`SSPCallStats`."""
        rt = self.runtime
        sid = self.segment_id
        held = self._held
        clock = self.clock
        self.clock = clock + 1
        oldest = clock - self.slack
        stats = SSPCallStats(clock=clock, result_clock=clock)
        partial = sendbuf
        for step, partner, box, offset, _ in self._steps[0]:
            rt.write_notify_from(
                partial, partner, sid, offset, box, max(1, stats.result_clock + 1), queue
            )
            rt.wait(queue)
            held[step] = rt.notify_reset(sid, box) or held[step]
            # Too stale: the contents' clock (an unwritten box counts as 0)
            # is older than the oldest one this call accepts.
            if max(held[step], 1) <= oldest:
                suspended = time.perf_counter()
                while max(held[step], 1) <= oldest:
                    while rt.notify_waitsome(sid, box, 1, timeout=poll_timeout) is None:
                        yield WaitSpec(
                            sid,
                            box,
                            1,
                            f"hypercube step {step}: partner {partner}'s contribution "
                            f"of clock {oldest} or later",
                        )
                    held[step] = rt.notify_reset(sid, box) or held[step]
                stats.waits += 1
                stats.wait_time += time.perf_counter() - suspended
                stats.fresh_uses += 1
            elif held[step] <= clock:
                stats.stale_reuses += 1
            else:
                stats.fresh_uses += 1
            if held[step]:
                mailbox = rt.segment_read(sid, self.dtype, offset, self.elements)
                kernels.fold(operator, partial, mailbox, acc)
                partial = acc
            stats.result_clock = min(stats.result_clock, max(held[step] - 1, 0))
        return partial, stats


# --------------------------------------------------------------------------- #
# schedule builder (Figure 7 left: collective execution time)
# --------------------------------------------------------------------------- #
def hypercube_allreduce_schedule(
    num_ranks: int,
    nbytes: int,
    protocol: Protocol = Protocol.ONESIDED,
    name: str | None = None,
) -> CommunicationSchedule:
    """Schedule of one fully synchronous hypercube allreduce iteration.

    The hypercube exchanges the *entire* vector in every one of its
    ``log2(P)`` steps — the paper points out this is why ``allreduce_ssp``
    cannot match the ring algorithms for the large vectors it was evaluated
    on (Figure 7, left).  The SSP mechanism changes *waiting*, not the
    amount of data moved, so the synchronous schedule is the correct model
    for the collective's execution time.
    """
    check_power_of_two(num_ranks, "hypercube size")
    require(nbytes >= 0, "nbytes must be non-negative")
    sched = CommunicationSchedule(
        name=name or "allreduce_ssp_hypercube",
        num_ranks=num_ranks,
        metadata={"payload_bytes": nbytes, "algorithm": "hypercube"},
    )
    cube = Hypercube(num_ranks)
    for step in range(cube.dimensions):
        sched.add_round(
            [
                Message(
                    src=rank,
                    dst=cube.partner(rank, step),
                    nbytes=nbytes,
                    protocol=protocol,
                    reduce_bytes=nbytes,
                    tag=f"hypercube-step-{step}",
                )
                for rank in range(num_ranks)
            ],
            label=f"step-{step}",
        )
    sched.validate()
    return sched
