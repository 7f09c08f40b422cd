"""Eventually consistent Allreduce with Stale Synchronous Parallelism.

This is Algorithm 1 of the paper (``allreduce_SSP``): a hypercube
allreduce in which a rank, instead of waiting for a *fresh* contribution
from its step-``k`` partner, reuses the last contribution it received for
that step, provided it is not older than ``slack`` iterations.

Implementation notes matching the paper:

* **Dedicated per-step mailboxes** (``rcv_data_vec``): the segment contains
  one slot per hypercube dimension.  The step-``k`` partner always writes
  into slot ``k``, overwriting its previous contribution, so "read the last
  contribution" is simply a local read of slot ``k``.
* **Logical clocks travel with the data.**  Each slot stores
  ``[clock, payload...]``; when two contributions are reduced the result is
  tagged with the *minimum* of their clocks, so the clock of the final
  result bounds the staleness of every contribution it contains.
* **Waiting only when too stale** (lines 7–11 of Algorithm 1): the reader
  checks the slot's clock against ``clock - slack``; only when it is older
  does it block on the slot's notification, and it keeps waiting until a
  sufficiently fresh contribution lands.
* **Strict calls never read ahead.**  "Overwriting its previous
  contribution" is the point under slack, but at ``slack = 0`` a partner
  that already entered its *next* call would replace the contribution this
  call has yet to read, and the result would fold a value from the future.
  A strict partner is at most one call ahead (its call ``c + 1`` needs
  this rank's ``c + 1`` data), so a strict instance keeps two mailboxes —
  and notification ids — per step, selected by the parity of the clock.

The collective keeps state across calls (the mailboxes and the local
clock), so it is exposed as a class, :class:`SSPAllreduce`, that an
iterative application constructs once and then calls every iteration.

Two executors share the hypercube.  :class:`SSPAllreduce` is Algorithm 1
in full — clocked mailboxes, locked snapshots, stale reuse, statistics —
and serves every call with slack: ``comm.allreduce_ssp``, the ML layer,
the cold ``comm.allreduce(..., policy=ssp(k))``.  At slack 0 there is
nothing to reuse or compare, so what ``comm.allreduce`` compiles (and its
cold strict call builds for one call), :class:`HypercubeAllreducePlan`,
keeps only the parity mailboxes: payload only, one write from the caller's
buffer, one wait and one fused fold per step — and the same bits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..gaspi.runtime import GaspiRuntime
from ..utils.validation import check_power_of_two, require
from . import kernels
from .notifmap import NotificationLayout
from .plan import CollectivePlan, PipelineGen, WaitSpec
from .policy import CollectiveResult
from .workspace import Lease, WorkspacePool
from .reduction_ops import ReductionOp, get_op
from .schedule import CommunicationSchedule, Message, Protocol
from .topology import Hypercube

#: Default segment id used by the SSP allreduce.
SSP_SEGMENT_ID = 160


@dataclass
class SSPCallStats:
    """Instrumentation of a single ``reduce`` call on one rank.

    ``wait_time`` is the quantity plotted on the right-hand side of
    Figure 7 of the paper ("time spent waiting for fresh updates").
    """

    clock: int
    result_clock: int
    waits: int = 0
    wait_time: float = 0.0
    stale_reuses: int = 0
    fresh_uses: int = 0
    elapsed: float = 0.0

    @property
    def staleness(self) -> int:
        """How many iterations behind the freshest data the result is."""
        return self.clock - self.result_clock


@dataclass
class SSPAllreduceResult:
    """Result of one SSP allreduce call: the value, its clock and statistics."""

    value: np.ndarray
    clock: int
    stats: SSPCallStats


@dataclass
class SSPTotals:
    """Accumulated statistics over the lifetime of an :class:`SSPAllreduce`."""

    calls: int = 0
    waits: int = 0
    wait_time: float = 0.0
    stale_reuses: int = 0
    fresh_uses: int = 0
    per_call: List[SSPCallStats] = field(default_factory=list)

    def record(self, stats: SSPCallStats, keep_per_call: bool) -> None:
        self.calls += 1
        self.waits += stats.waits
        self.wait_time += stats.wait_time
        self.stale_reuses += stats.stale_reuses
        self.fresh_uses += stats.fresh_uses
        if keep_per_call:
            self.per_call.append(stats)


class SSPAllreduce:
    """Stateful SSP allreduce collective (paper Algorithm 1).

    Parameters
    ----------
    runtime:
        Per-rank GASPI runtime.
    num_elements:
        Length of the reduced vector (identical on all ranks).
    slack:
        Allowed staleness in iterations.  ``slack = 0`` degenerates to a
        fully synchronous hypercube allreduce; larger values let fast ranks
        proceed with older partner contributions.
    op:
        Reduction operator (the paper uses a sum / average of gradients).
    dtype:
        Element dtype of the reduced vector.
    segment_id:
        Segment id of the mailbox segment of a standalone instance.
    pool:
        The caller's :class:`~repro.core.workspace.WorkspacePool`; the
        mailbox segment is leased from it and ``segment_id`` is not used.
    wait_timeout:
        Upper bound (seconds) on a single "wait for fresh update"; raising
        :class:`TimeoutError` instead of hanging forever makes failures in
        mis-configured runs visible.
    keep_per_call_stats:
        Keep an :class:`SSPCallStats` entry per call in :attr:`totals`.
    """

    def __init__(
        self,
        runtime: GaspiRuntime,
        num_elements: int,
        slack: int = 0,
        op: str | ReductionOp = "sum",
        dtype=np.float64,
        segment_id: int = SSP_SEGMENT_ID,
        queue: int = 0,
        wait_timeout: float = 60.0,
        keep_per_call_stats: bool = True,
        pool: Optional[WorkspacePool] = None,
    ) -> None:
        require(num_elements > 0, "num_elements must be positive")
        require(slack >= 0, f"slack must be non-negative, got {slack}")
        check_power_of_two(runtime.size, "SSP allreduce world size")

        self.runtime = runtime
        self.num_elements = int(num_elements)
        self.slack = int(slack)
        self.op = get_op(op)
        self.dtype = np.dtype(dtype)
        self.queue = int(queue)
        self.wait_timeout = float(wait_timeout)
        self.keep_per_call_stats = bool(keep_per_call_stats)

        self.hypercube = Hypercube(runtime.size)
        self.dimensions = self.hypercube.dimensions
        self.clock = 0
        self.totals = SSPTotals()

        # Slot layout: [clock: float64][payload: num_elements * dtype]
        self._slot_header = 8
        self._slot_bytes = self._slot_header + self.num_elements * self.dtype.itemsize
        # One mailbox (and notification id) per dimension — per dimension and
        # clock parity when strict — plus one staging slot for sends.
        self._parities = 2 if self.slack == 0 else 1
        mailboxes = self.dimensions * self._parities
        ids = NotificationLayout().add("mailboxes", max(1, mailboxes)).end
        self._lease = Lease(
            runtime, pool, segment_id, self._slot_bytes * (mailboxes + 1), ids
        )
        self.segment_id = self._lease.segment_id
        self._send_offset = mailboxes * self._slot_bytes
        self._closed = False

    # ------------------------------------------------------------------ #
    # main entry point — Algorithm 1
    # ------------------------------------------------------------------ #
    def reduce(
        self,
        contribution: np.ndarray,
        clock: Optional[int] = None,
    ) -> SSPAllreduceResult:
        """Perform one SSP allreduce of ``contribution``.

        Parameters
        ----------
        contribution:
            This rank's fresh contribution for the current iteration.
        clock:
            Explicit iteration number; by default the internal clock is
            incremented by one (line 1 of Algorithm 1).

        Returns
        -------
        SSPAllreduceResult
            The (possibly partially stale) reduction, the clock associated
            with it — the minimum clock over all contributions it contains —
            and per-call statistics.
        """
        self._check_open()
        contribution = np.ascontiguousarray(contribution, dtype=self.dtype)
        require(
            contribution.size == self.num_elements,
            f"contribution has {contribution.size} elements, expected {self.num_elements}",
        )

        start = time.perf_counter()
        # line 1: advance the logical clock
        self.clock = self.clock + 1 if clock is None else int(clock)
        # line 2: oldest acceptable contribution
        min_clock_accepted = self.clock - self.slack
        # line 3: start from the fresh local contribution
        part_red = contribution.copy()
        part_clock = self.clock

        stats = SSPCallStats(clock=self.clock, result_clock=self.clock)

        for k in range(self.dimensions):
            partner = self.hypercube.partner(self.runtime.rank, k)
            box = self._mailbox(k)

            # line 6: send the current partial reduction (tagged with its clock)
            self._send_partial(partner, box, part_red, part_clock)

            # line 7: read the last contribution received for this step
            rcv_clock, rcv_data = self._read_mailbox(box)

            # lines 8-11: wait only if the cached contribution is too stale
            if rcv_clock < min_clock_accepted:
                waited = self._wait_for_update(box, min_clock_accepted, stats)
                rcv_clock, rcv_data = waited
            else:
                stats.stale_reuses += 1 if rcv_clock < self.clock else 0
                stats.fresh_uses += 1 if rcv_clock >= self.clock else 0
                # consume a pending notification, if any, to keep the board tidy
                if self.runtime.notify_peek(self.segment_id, box):
                    self.runtime.notify_reset(self.segment_id, box)

            # line 12: reduce sent with received data; clock = min of the two.
            # Clock 0 is a mailbox nobody has written yet (accepted only
            # while clock <= slack): it holds no contribution to fold.
            if rcv_clock > 0:
                kernels.reduce_into(self.op, part_red, rcv_data)
            part_clock = min(part_clock, rcv_clock)

        stats.result_clock = int(part_clock)
        stats.elapsed = time.perf_counter() - start
        self.totals.record(stats, self.keep_per_call_stats)
        return SSPAllreduceResult(value=part_red, clock=int(part_clock), stats=stats)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _mailbox(self, step: int) -> int:
        """Mailbox (= notification id) of ``step`` at the current clock."""
        return step * self._parities + self.clock % self._parities

    def _send_partial(
        self, partner: int, step: int, data: np.ndarray, data_clock: int
    ) -> None:
        """Write ``[clock, data]`` into the partner's mailbox ``step``."""
        header = self.runtime.segment_view(
            self.segment_id, dtype=np.float64, offset=self._send_offset, count=1
        )
        header[0] = float(data_clock)
        payload = self.runtime.segment_view(
            self.segment_id,
            dtype=self.dtype,
            offset=self._send_offset + self._slot_header,
            count=self.num_elements,
        )
        payload[:] = data
        self.runtime.write_notify(
            segment_id_local=self.segment_id,
            offset_local=self._send_offset,
            target_rank=partner,
            segment_id_remote=self.segment_id,
            offset_remote=step * self._slot_bytes,
            size=self._slot_bytes,
            notification_id=step,
            notification_value=max(1, int(data_clock)),
            queue=self.queue,
        )
        self.runtime.wait(self.queue)

    def _read_mailbox(self, step: int) -> tuple[int, np.ndarray]:
        """Consistent snapshot of mailbox slot ``step``: (clock, payload)."""
        raw = self.runtime.segment_read(
            self.segment_id,
            dtype=np.uint8,
            offset=step * self._slot_bytes,
            count=self._slot_bytes,
        )
        clock = int(raw[: self._slot_header].view(np.float64)[0])
        payload = raw[self._slot_header :].view(self.dtype).copy()
        return clock, payload

    def _wait_for_update(
        self, step: int, min_clock_accepted: int, stats: SSPCallStats
    ) -> tuple[int, np.ndarray]:
        """Block until the step mailbox holds a contribution fresh enough."""
        wait_start = time.perf_counter()
        deadline = wait_start + self.wait_timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(
                    f"rank {self.runtime.rank}: SSP step {step} waited longer than "
                    f"{self.wait_timeout}s for a contribution newer than clock "
                    f"{min_clock_accepted}"
                )
            got = self.runtime.notify_waitsome(
                self.segment_id, step, 1, timeout=min(remaining, 0.05)
            )
            if got is not None:
                self.runtime.notify_reset(self.segment_id, got)
            rcv_clock, rcv_data = self._read_mailbox(step)
            if rcv_clock >= min_clock_accepted:
                stats.waits += 1
                stats.wait_time += time.perf_counter() - wait_start
                stats.fresh_uses += 1
                return rcv_clock, rcv_data

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the mailbox segment (collective).  The pool's barrier
        matters: slack > 0 permits in-flight partner writes at call
        boundaries, so the mailbox is retired and scrubbed only after a
        later barrier has quiesced them."""
        if not self._closed:
            self._closed = True
            self._lease.release()

    def drop(self) -> None:
        """Local teardown: no synchronisation (see :meth:`Lease.drop`)."""
        if not self._closed:
            self._closed = True
            self._lease.drop()

    def __enter__(self) -> "SSPAllreduce":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("SSPAllreduce already closed")


# --------------------------------------------------------------------------- #
# one-shot helper
# --------------------------------------------------------------------------- #
def ssp_allreduce_once(
    runtime: GaspiRuntime,
    contribution: np.ndarray,
    slack: int = 0,
    op: str | ReductionOp = "sum",
    segment_id: int = SSP_SEGMENT_ID,
    pool: Optional[WorkspacePool] = None,
) -> np.ndarray:
    """Single-call convenience wrapper (constructs and tears down the state).

    With ``slack = 0`` and a single call, this is a plain synchronous
    hypercube allreduce and the result equals the exact reduction — handy
    for tests and for users who only need the consistent behaviour.
    """
    contribution = np.ascontiguousarray(contribution)
    with SSPAllreduce(
        runtime,
        contribution.size,
        slack=slack,
        op=op,
        dtype=contribution.dtype,
        segment_id=segment_id,
        pool=pool,
    ) as coll:
        result = coll.reduce(contribution)
    return result.value


# --------------------------------------------------------------------------- #
# compiled plan: the strict hypercube as a single-copy exchange
# --------------------------------------------------------------------------- #
class HypercubeAllreducePlan(CollectivePlan):
    """Compiled strict hypercube allreduce: one wire op and one fold per step.

    Step ``k`` posts the running partial — the caller's ``sendbuf`` at
    step 0, the accumulator afterwards — straight into the partner's
    mailbox (``write_notify_from``: nothing is staged), waits for the
    partner's notification, and folds ``acc = op(partial, mailbox)`` out
    of the mailbox view in place.  The accumulator is the caller's
    ``recvbuf`` when that is a contiguous vector of the plan's dtype; any
    other ``recvbuf`` is filled once from a private vector at the end.

    Reuse needs no barrier, no clock header and no locked snapshot: a
    partner is at most one call ahead (it cannot pass step ``k`` of call
    ``c + 1`` before this rank's step-``k`` write of that call, which is
    posted only after call ``c`` finished here), so two mailboxes — and
    notification ids — per step, selected by call parity, keep its next
    contribution out of this call's, and nothing can land in the box being
    folded.  The fold order per step is fixed by the hypercube, so planned,
    cold and :class:`SSPAllreduce` ``slack = 0`` results are bit-identical.
    Slack is never planned: its cross-call state is the explicit
    :class:`SSPAllreduce` of ``comm.allreduce_ssp``.
    """

    _segment_views = ("_steps",)

    def __init__(self, runtime, key, segment_id: int, policy, pool=None) -> None:
        super().__init__(runtime, key, segment_id, pool)
        require(policy.slack == 0, "a compiled hypercube plan is strict (slack 0)")
        self.dtype = self.key_dtype
        self.elements = key.nbytes // self.dtype.itemsize
        require(self.elements > 0, "num_elements must be positive")
        cube = Hypercube(runtime.size)
        boxes = NotificationLayout().add("mailboxes", max(1, 2 * cube.dimensions))
        self._lease_workspace(key.nbytes * boxes.count, boxes.end)

        def step(k: int, box: int) -> tuple:
            # (step, partner, mailbox id, byte offset of that mailbox in the
            # partner's segment, view of the local one)
            view = runtime.segment_view(
                self.segment_id, self.dtype, box * key.nbytes, self.elements
            )
            return k, cube.partner(runtime.rank, k), boxes.id(box), box * key.nbytes, view

        #: Step tables of even and odd calls: mailbox ``2 * step + parity``.
        self._steps = tuple(
            [step(k, 2 * k + parity) for k in range(cube.dimensions)]
            for parity in (0, 1)
        )

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
        if partial is sendbuf:  # a world of one: nothing was folded
            acc[:] = sendbuf
        if recvbuf is not None and acc is not recvbuf:
            recvbuf[:] = acc
            acc = recvbuf
        self.calls += 1
        return CollectiveResult(value=acc)


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
