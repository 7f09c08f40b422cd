"""Seeded schedule corruptions — the analyzer's own regression fixtures.

Each function takes a *clean* :class:`~repro.analysis.events.ProtocolTrace`
and returns a copy with one deliberate protocol defect planted in it.
The test suite asserts that :func:`repro.analysis.analyze` flags each
corrupted trace with exactly the finding class the defect belongs to —
a checker that stays silent on its own defect class, or that misfiles a
defect under a different class, fails the suite.

The defects mirror real bug patterns in hand-built one-sided schedules:
a forgotten ``notify`` (drop), a consume hoisted above the post that
funds it (deadlock), a copy-paste error in a chunk-id map (duplicate
id), a handshake shortened by "obviously unnecessary" acks (lost
notification), a missing entry fence (data race), and an off-by-range
slice of the notification board or workspace (budget).

Three more layers take defects, each documented at its function:

* a compiled *plan*, through ``build_model(..., mutate_plan=...)`` (or
  ``build_tolerant_model``): a protocol hazard the trace checkers must
  see, or a wrong result that posts and consumes exactly what a correct
  plan does, so only the value check against
  :func:`~repro.core.policy.documented_result` can;
* a definition every plan shares — the rounding of a threshold — patched
  for the length of a ``with`` block (:func:`ceil_threshold_elements`,
  :func:`floor_participating_ranks`);
* the workspace *pool*, through ``build_recycle_model(...,
  mutate_pool=...)``: the three parts of the argument that makes a
  recycled segment safe — the barrier between a release and the scrub,
  the barrier between a scrub and the next lessee's first write, and the
  scrub itself.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional
from unittest import mock

import numpy as np

from .events import CONSUME, POST, Event, ProtocolTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.allgather import RingAllgatherPlan
    from ..core.allreduce_ssp import HypercubeAllreducePlan
    from ..core.alltoall import AlltoallPlan
    from ..core.barrier import DisseminationBarrierPlan
    from ..core.bcast import BstBcastPlan
    from ..core.pipeline import PipelinedBstReducePlan, PipelinedRingAllreducePlan
    from ..core.reduce import BstReducePlan
    from ..core.workspace import WorkspacePool
    from ..faults.recovery import TolerantPlan


def _first_post_location(
    trace: ProtocolTrace, rank: Optional[int], data_only: bool
) -> tuple:
    ranks = range(trace.num_ranks) if rank is None else (rank,)
    for r in ranks:
        for i, event in enumerate(trace.events[r]):
            if event.kind != POST or event.notif_id < 0:
                continue
            if data_only and event.length <= 0:
                continue
            return r, i
    raise ValueError("trace contains no matching post event to mutate")


def drop_notify(trace: ProtocolTrace, rank: Optional[int] = None) -> ProtocolTrace:
    """Delete one rank's posts to its first notification slot.

    A forgotten ``notify`` is a source-level bug, so it is missing in
    *every* call of the schedule — all of the rank's posts to the slot go,
    not just the first, otherwise a later call's post would turn the
    starvation into an ordinary wait-for edge.  Expected finding class:
    ``unmatched-notification`` — the consumer waits on a slot nobody will
    ever fund.
    """
    mutated = trace.copy()
    r, i = _first_post_location(mutated, rank, data_only=False)
    anchor = mutated.events[r][i]
    slot = (anchor.dst, anchor.segment, anchor.notif_id)
    mutated.events[r] = [
        event
        for event in mutated.events[r]
        if not (
            event.kind == POST
            and (event.dst, event.segment, event.notif_id) == slot
        )
    ]
    mutated.name += " +drop_notify"
    return mutated


def hoist_first_consume(trace: ProtocolTrace) -> ProtocolTrace:
    """Move every rank's first consume to the front of its sequence.

    Models a schedule that waits before it sends.  On a ring (each rank
    funds its successor), this creates a circular wait: expected finding
    class ``deadlock``.
    """
    mutated = trace.copy()
    for r in range(mutated.num_ranks):
        sequence = mutated.events[r]
        for i, event in enumerate(sequence):
            if event.kind == CONSUME:
                sequence.insert(0, sequence.pop(i))
                break
    mutated.name += " +hoist_first_consume"
    return mutated


def duplicate_chunk_id(trace: ProtocolTrace) -> ProtocolTrace:
    """Reassign a chunk's notification id onto its neighbour's slot.

    The classic copy-paste error in a hand-built id map: two transfers of
    one sender to one destination end up posting the *same* id, and the
    intended id is never posted.  Expected finding classes:
    ``double-post`` (the shared slot is overwritten unconsumed) plus
    ``unmatched-notification`` (the orphaned slot's consumer starves).
    """
    mutated = trace.copy()
    for r in range(mutated.num_ranks):
        sequence = mutated.events[r]
        first: Optional[int] = None
        for i, event in enumerate(sequence):
            if event.kind != POST or event.length <= 0 or event.notif_id < 0:
                continue
            if first is None:
                first = i
                continue
            anchor = sequence[first]
            if event.dst == anchor.dst and event.notif_id != anchor.notif_id:
                sequence[first] = anchor.with_notif_id(event.notif_id)
                mutated.name += " +duplicate_chunk_id"
                return mutated
    raise ValueError("trace has no same-destination chunk posts to collide")


def drop_consumes(
    trace: ProtocolTrace, rank: int, notif_ids: Iterable[int]
) -> ProtocolTrace:
    """Delete ``rank``'s consumes of the given notification ids.

    The generic "shrunk handshake" mutation.  Dropping a plan's
    previous-call ack consumes yields ``double-post`` (the acked slot —
    and the data slot it guards — can be overwritten unconsumed); dropping a BST
    reduce child's READY consume additionally yields ``data-race`` (its
    next push is no longer ordered after the parent's fold of the slot).
    """
    wanted = set(notif_ids)
    mutated = trace.copy()
    mutated.events[rank] = [
        event
        for event in mutated.events[rank]
        if not (event.kind == CONSUME and event.notif_id in wanted)
    ]
    mutated.name += " +drop_consumes"
    return mutated


def corrupt_notification_id(trace: ProtocolTrace) -> ProtocolTrace:
    """Shift one notification slot wholly outside the board budget.

    Both sides of the handshake compute the same wrong id (as a mis-built
    ``NotificationLayout`` range would), so the schedule still matches up
    — only the budget check can see the defect.  Expected finding class:
    ``budget``.
    """
    mutated = trace.copy()
    r, i = _first_post_location(mutated, None, data_only=False)
    anchor = mutated.events[r][i]
    slot = (anchor.dst, anchor.segment, anchor.notif_id)
    meta = mutated.segments.get((anchor.dst, anchor.segment))
    bogus = (meta.num_notifications if meta else 1 << 20) + 7
    for rank in range(mutated.num_ranks):
        sequence = mutated.events[rank]
        for j, event in enumerate(sequence):
            if event.kind == POST and (
                event.dst, event.segment, event.notif_id
            ) == slot:
                sequence[j] = event.with_notif_id(bogus)
            elif event.kind == CONSUME and (
                event.rank, event.segment, event.notif_id
            ) == slot:
                sequence[j] = event.with_notif_id(bogus)
    mutated.name += " +corrupt_notification_id"
    return mutated


def corrupt_offset(trace: ProtocolTrace) -> ProtocolTrace:
    """Slide one transfer's staging slice past the end of its workspace.

    The source offset of a ``write_notify`` overruns the local segment —
    a mis-sized staging pool.  The destination, the notification and the
    matching are untouched, so every other checker stays clean.  Expected
    finding class: ``budget`` (source overflow).
    """
    mutated = trace.copy()
    r, i = _first_post_location(mutated, None, data_only=True)
    anchor = mutated.events[r][i]
    meta = mutated.segments.get((anchor.rank, anchor.segment))
    size = meta.size if meta else 0
    mutated.events[r][i] = replace(anchor, local_offset=max(size - 1, 0))
    mutated.name += " +corrupt_offset"
    return mutated


def skip_allgather_copy_out(plan: "PipelinedRingAllreducePlan") -> None:
    """Leave every allgather arrival of a staged pipelined ring in the segment.

    The single-copy ring keeps its result in the caller's ``recvbuf``;
    without ``segment_bind`` the pooled segment is where peers' sub-chunks
    land, so each allgather arrival has to be copied out before it is
    forwarded (a bound landing zone is ``recvbuf`` itself).  This
    empties the element bounds of those copy-outs (in place, on one
    rank's plan): notifications still flow, the trace is indistinguishable
    from a clean one, and the rank forwards — and returns — whatever its
    ``recvbuf`` held before.  Expected symptom: wrong values on every
    rank, no trace finding.
    """
    plan.steps = [
        (sends, recvs if fold else [(nid, rb, rb) for nid, rb, _re in recvs], fold)
        for sends, recvs, fold in plan.steps
    ]


def allgather_at_wrong_offset(plan: "PipelinedRingAllreducePlan") -> None:
    """Land the last sub-chunk of a ring's first allgather send at offset 0.

    Sender and receiver agree on a sub-chunk's landing offset only because
    both cut the same global chunk; a sender that gets it wrong posts the
    same notification with the same length, inside the landing zone, and
    the receiver forwards whatever its own bytes at the right offset hold.
    Staged or bound, that is a wrong result: expected finding class
    ``wrong-value``.
    """
    for sends, _recvs, fold in plan.steps:
        if not fold:
            nid, sb, se, _remote = sends[-1]
            sends[-1] = (nid, sb, se, 0)
            return


def single_mailbox_per_step(plan: "HypercubeAllreducePlan") -> None:
    """Make both call parities of a strict hypercube share one mailbox.

    The plan folds a mailbox out of its segment view, unlocked and
    uncopied; that is safe only because a partner one call ahead writes
    the *other* parity's box.  With one box (and notification id) per
    step its next contribution can land before this call consumed the
    current one.  Expected finding class: ``double-post`` (and a lost
    notification then starves the reader, or it folds the wrong call).
    """
    plan._steps = (plan._steps[0], plan._steps[0])


def single_slot_per_peer(plan: "AlltoallPlan") -> None:
    """Make both call parities of an alltoall share one slot per peer.

    A peer may still be waiting for a third rank, this rank's call-``k``
    block unconsumed, when this rank posts call ``k + 1`` into the same
    slot.  Expected finding class: ``double-post``.
    """
    plan._firsts = (0, 0)


def single_slot_per_step(plan: "RingAllgatherPlan") -> None:
    """Make both call parities of a ring allgather share one slot per step.

    A rank finishes call ``k`` with its successor's step-0 block, maybe
    before that successor consumed step 0, and posts call ``k + 1``'s step
    0 into the same slot.  Expected finding class: ``double-post``.
    """
    plan._firsts = (0, 0)


def skip_last_dissemination_round(plan: "DisseminationBarrierPlan") -> None:
    """Stop the dissemination barrier one round early.

    Some rank then leaves before a late one entered, and every post is
    still consumed: only the model's entered-before-left check sees it.
    Expected finding class: ``wrong-value``.
    """
    plan._rounds = plan._rounds[:-1]


def stage_partial_in_child_slot(plan: "BstReducePlan") -> None:
    """Keep a folding rank's partial result at segment offset 0 again.

    That is child slot 0.  Under the READY handshake the staging copy and
    the child's next push could not overlap; with credits the child is
    released as soon as *its* slot is folded, while this rank goes on
    folding its other children into — and then pushes up from — the very
    bytes that child's next push lands in.  Expected finding class:
    ``data-race`` (the grandparent receives the wrong call's bytes).
    """
    if plan._partial is not None:
        plan._partial = plan.runtime.segment_view(
            plan.segment_id, plan.dtype, 0, plan.reduce_elems
        )


def credit_before_last_drain(plan: "PipelinedBstReducePlan") -> None:
    """Credit the first child as soon as its chunks of the call are folded.

    Folded they are at the top of the sweep after the one that collected
    them — nothing precedes the first child in fold order — so the early
    credit races no fold.  But the plan's ``notify_drain`` sweeps every
    child's ids: the credited child posts its next call's chunks into a
    sweep still collecting this call's from its siblings, where they are
    consumed, ignored and lost.  Expected finding classes: ``deadlock`` /
    ``unmatched-notification`` — the next call waits for chunks that were
    already taken.
    """
    if not plan.children:
        return
    rt, child, first = plan.runtime, plan.children[0], plan.child_indices[0]
    chunks, base, credit = plan.chunks.num_chunks, plan.notif_data.base, plan._credit_id
    drain, notify = rt.notify_drain, rt.notify
    state = {"arrived": 0, "credited": False}

    def hasty_drain(segment_id: int, begin: int, count: int) -> dict:
        if state["arrived"] == chunks and not state["credited"]:
            state["credited"] = True
            notify(child, segment_id, credit)
        got = drain(segment_id, begin, count)
        state["arrived"] += sum((nid - base) // chunks == first for nid in got)
        return got

    def notify_unless_credited(
        target: int, segment_id: int, nid: int, *args: Any, **kwargs: Any
    ) -> None:
        if (target, nid) == (child, credit):  # the end-of-call credit
            early = state["credited"]
            state.update(arrived=0, credited=False)
            if early:
                return
        notify(target, segment_id, nid, *args, **kwargs)

    rt.notify_drain, rt.notify = hasty_drain, notify_unless_credited  # type: ignore[method-assign]


def skip_child_ack_consumes(plan: "BstBcastPlan") -> None:
    """Let a broadcast parent forward without consuming its children's acks.

    The ack says "your previous payload is copied out of my staging slot
    and my own forwards are flushed".  A parent that does not wait for it
    writes call ``k + 1`` into a lagging child's slot while call ``k`` may
    still be unread there, and posts the data notification a second time.
    Expected finding classes: ``double-post`` and/or ``data-race`` (and the
    acks nobody consumes any more are overwritten unconsumed).
    """
    plan.child_ack_slots = []


def count_unconsumed_slots(plan: "TolerantPlan") -> None:
    """Take every slot of the closing drain as a contribution.

    The tolerant plans end their detection window with a non-blocking
    drain, so that an arrival racing the deadline is not declared missing;
    a drain that counts what nobody posted folds the never-written slot of
    an absent rank (zeros: invisible to a sum) and names nobody missing.
    Only the value check sees it: expected finding class ``wrong-value``.
    """
    rt = plan.runtime

    def everything_drained(segment_id: int, begin: int = 0, count: Optional[int] = None) -> dict:
        return {nid: 1 for nid in range(begin, begin + (count or 0))}

    rt.notify_drain = everything_drained  # type: ignore[method-assign]


class _Overwrites(np.ndarray):
    """An operand whose every fold is a copy of itself into ``out``."""

    def __array_ufunc__(self, ufunc: np.ufunc, method: str, *inputs: Any, **kwargs: Any) -> Any:
        np.copyto(kwargs["out"][0], self.view(np.ndarray))
        return kwargs["out"][0]


def copy_last_child_slot(plan: "BstReducePlan") -> None:
    """A: fold the last child's slot by copying it over the partial, which
    loses everything folded before it.  Expected: ``wrong-value``."""
    if plan._child_table:
        child, notif, slot = plan._child_table[-1]
        plan._child_table[-1] = (child, notif, slot.view(_Overwrites))


def fold_one_element_fewer(plan: "BstReducePlan") -> None:
    """C: under a threshold, reduce one element fewer — slots, push and
    partial alike, so the protocol still matches up.  Expected:
    ``wrong-value``."""
    if plan.key.policy[0] < 1.0 and plan.reduce_elems > 1:
        plan.reduce_elems -= 1
        plan._child_table = [(c, n, slot[:-1]) for c, n, slot in plan._child_table]
        if plan._partial is not None:
            plan._partial = plan._partial[:-1]


def fold_stale_child_slot(plan: "BstReducePlan") -> None:
    """Fold the last child's contribution of the *previous* call: a copy of
    its slot taken when the parent credited it (zeros before the first).
    The waits and credits are a correct plan's.  Expected: ``wrong-value``."""
    if not plan._child_table:
        return
    child, notif, slot = plan._child_table[-1]
    stale = np.zeros(slot.shape, slot.dtype)
    plan._child_table[-1] = (child, notif, stale)
    notify = plan.runtime.notify

    def copy_then_credit(target: int, *args: Any, **kwargs: Any) -> None:
        if target == child:  # the credit: the slot holds this call's push
            stale[:] = slot.view(np.ndarray)
        notify(target, *args, **kwargs)

    plan.runtime.notify = copy_then_credit  # type: ignore[method-assign]


class _NeverUnwritten(list):
    def __getitem__(self, step: Any) -> Any:
        return max(1, list.__getitem__(self, step))


def fold_unwritten_mailbox(plan: "HypercubeAllreducePlan") -> None:
    """Under slack, fold a mailbox nobody wrote as a contribution of clock
    0, the defect SSP once shipped with.  The model's fresh segments hold
    no zeros, so the fold shows.  Expected: ``wrong-value``."""
    plan._held = _NeverUnwritten(plan._held)


@contextlib.contextmanager
def ceil_threshold_elements() -> Iterator[None]:
    """D: a data threshold ships ⌈n·t⌉ elements instead of ⌊n·t⌋.
    Expected: ``wrong-value`` wherever n·t is not whole."""
    from ..core import bcast, pipeline, reduce
    from ..faults import recovery

    def ceiled(num_elements: int, threshold: float) -> int:
        return max(1, math.ceil(num_elements * threshold - 1e-9)) if num_elements else 0

    with contextlib.ExitStack() as stack:
        for module in (bcast, pipeline, reduce, recovery):
            stack.enter_context(mock.patch.object(module, "threshold_elements", ceiled))
        yield


@contextlib.contextmanager
def floor_participating_ranks() -> Iterator[None]:
    """E: a process threshold keeps ⌊t·P⌋ ranks instead of ⌈t·P⌉.
    Expected: ``wrong-value`` wherever t·P is not whole."""
    from ..core.topology import BinomialTree

    def floored(tree: BinomialTree, fraction: float) -> list:
        keep = max(1, math.floor(fraction * tree.num_ranks + 1e-9))
        return sorted(tree.to_real(v) for v in range(keep))

    with mock.patch.object(BinomialTree, "participating_ranks", floored):
        yield


def reuse_without_cooling(pool: "WorkspacePool") -> None:
    """Make a retired segment leasable at the barrier that scrubs it.

    The pool parks a scrubbed segment in ``cooling`` until the *next*
    barrier proves every rank finished its scrub.  Promoting it at once
    lets a fast rank lease it and write into a slow rank's copy before
    that rank has scrubbed: expected finding class ``data-race`` (a remote
    write unordered against the scrub's stores), and the wiped arrival
    then starves its consumer.
    """
    advance = pool._advance

    def hasty_advance() -> None:
        advance()
        for key, idle_id in pool._cooling:
            pool._free.setdefault(key, []).append(idle_id)
        pool._cooling.clear()

    pool._advance = hasty_advance  # type: ignore[method-assign]


def lease_before_quiescence(pool: "WorkspacePool") -> None:
    """Scrub a released segment and make it leasable at its own release.

    No barrier stands between the last lessee's calls and the next one's:
    a fast rank's scrub and first write race the posts a slow peer still
    makes into that segment under the old plan, and the slow rank's own
    scrub wipes what the fast rank already wrote.  Expected finding class
    ``data-race`` or ``wrong-value``.
    """

    def hasty_release(segment_id: int) -> None:
        key, notification_ids, _ = pool._leased.pop(segment_id)
        pool._scrub(segment_id, notification_ids)
        pool._free.setdefault(key, []).append(segment_id)

    pool.release = hasty_release  # type: ignore[method-assign]


def skip_scrub(pool: "WorkspacePool") -> None:
    """Park released segments as their last lessee left them.

    The next plan then finds consume-acks already posted, some of them on
    ids that are now mailbox notifications.  The trace of each rank is
    still a legal schedule; expected symptom: the hypercube takes the
    pending ack for its partner's post and folds the stale bytes in the
    mailbox as a fresh contribution — a wrong value.
    """
    pool._scrub = lambda segment_id, notification_ids: None  # type: ignore[method-assign]
