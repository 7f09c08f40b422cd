"""Seeded-mutation fixtures: each checker flags exactly its defect class.

Every test plants one deliberate protocol defect in a clean modelled
trace and asserts the *exact* set of finding classes the analyzers
report.  The sets are deterministic — the replay explores one canonical
adverse schedule — so a checker that goes silent on its own class, or
that starts misfiling defects under another class, fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    BUDGET,
    DATA_RACE,
    DEADLOCK,
    DOUBLE_POST,
    MODEL_STUCK,
    UNMATCHED,
    WRONG_VALUE,
    analyze,
    build_model,
    verify_recycling,
)
from repro.analysis.mutations import (
    corrupt_notification_id,
    corrupt_offset,
    credit_before_last_drain,
    drop_consumes,
    drop_notify,
    duplicate_chunk_id,
    hoist_first_consume,
    lease_before_quiescence,
    reuse_without_cooling,
    single_mailbox_per_step,
    skip_allgather_copy_out,
    skip_child_ack_consumes,
    skip_scrub,
    stage_partial_in_child_slot,
)


def classes(findings):
    return {finding.check for finding in findings}


def test_clean_traces_have_no_findings():
    trace = build_model("gaspi_bcast_bst", 8, 256).trace
    assert analyze(trace) == []


def test_drop_notify_is_unmatched_notification():
    # A forgotten notify: the consumer waits on a slot nobody ever funds.
    trace = build_model("gaspi_bcast_bst", 8, 256).trace
    assert classes(analyze(drop_notify(trace))) == {UNMATCHED}


def test_hoisted_consume_deadlocks_the_ring():
    # Every rank waits before it sends: a full circular wait on the ring.
    trace = build_model("gaspi_allreduce_ring", 4, 256).trace
    assert classes(analyze(hoist_first_consume(trace))) == {DEADLOCK}


def test_duplicate_chunk_id_is_double_post():
    # Two chunks of one sender collide on one id: the shared slot is
    # overwritten before its consume, and the starved orphan slot leaves
    # the receiver blocked mid-pipeline.
    trace = build_model(
        "gaspi_bcast_bst_pipelined", 8, 512, chunk_bytes=128
    ).trace
    assert classes(analyze(duplicate_chunk_id(trace))) == {
        DOUBLE_POST,
        DEADLOCK,
    }


def test_shrunk_ack_handshake_is_double_post():
    # The flat broadcast root stops consuming its peers' acks — call 2
    # may then overwrite the data slot while call 1 is unconsumed, and
    # the unread acks starve.
    run = build_model("gaspi_bcast_flat", 4, 256)
    mutated = drop_consumes(run.trace, 0, run.plans[0].child_ack_slots)
    assert classes(analyze(mutated)) == {DOUBLE_POST, UNMATCHED}


def test_dropped_credit_consume_is_a_data_race():
    # BST reduce: a child that pushes without consuming the credit of its
    # previous push writes its next call's partial into the parent's child
    # slot while the parent may still be folding the previous call out of
    # it — a write racing a read of the same segment bytes.
    from repro.core.reduce import _NOTIF_CREDIT

    run = build_model("gaspi_reduce_bst", 4, 256)
    mutated = drop_consumes(run.trace, 1, [_NOTIF_CREDIT])
    found = classes(analyze(mutated))
    assert DATA_RACE in found
    assert found == {DATA_RACE, DOUBLE_POST}


@pytest.mark.parametrize("ranks", [8, 16])
def test_partial_staged_in_a_child_slot_is_a_data_race(ranks):
    # Credits release a child as soon as *its* slot is folded; the partial
    # result of a rank with two children must not be bytes that child can
    # write.  (Silent on 2 and 4 ranks: no inner rank folds twice there.)
    cell = dict(nbytes=256, calls=3, laggard=0)
    for small in (2, 4):
        quiet = build_model(
            "gaspi_reduce_bst", small, **cell, mutate_plan=stage_partial_in_child_slot
        )
        assert analyze(quiet.trace) == []
    mutated = build_model(
        "gaspi_reduce_bst", ranks, **cell, mutate_plan=stage_partial_in_child_slot
    )
    assert classes(analyze(mutated.trace)) == {DATA_RACE}


@pytest.mark.parametrize("ranks", [8, 16])
def test_credit_before_the_last_drain_loses_the_next_call(ranks):
    # A child credited while a late sibling's chunks are still arriving
    # posts its next call into a sweep of this one: taken, ignored, and the
    # next call starves on notifications nobody will post again.  (Silent
    # on 2 ranks, and without the skew.)
    cell = dict(nbytes=512, chunk_bytes=128, calls=3, laggard=ranks // 2)
    assert analyze(build_model("gaspi_reduce_bst_pipelined", ranks, **cell).trace) == []
    mutated = build_model(
        "gaspi_reduce_bst_pipelined", ranks, **cell, mutate_plan=credit_before_last_drain
    )
    assert classes(analyze(mutated.trace)) == {MODEL_STUCK, UNMATCHED}


def test_corrupt_notification_id_is_budget_only():
    # Both sides of the handshake agree on the wrong id, so the schedule
    # still matches — only the board-budget check can see the defect.
    trace = build_model("gaspi_bcast_bst", 8, 256).trace
    assert classes(analyze(corrupt_notification_id(trace))) == {BUDGET}


def test_corrupt_offset_is_budget_only():
    # The staging slice slides past the end of its workspace; matching,
    # ordering and destination ranges are untouched.
    trace = build_model("gaspi_bcast_bst", 8, 256).trace
    assert classes(analyze(corrupt_offset(trace))) == {BUDGET}


def test_skipped_allgather_copy_out_fails_the_value_check():
    # The single-copy ring's result lives in recvbuf; an arrival left in
    # the landing zone posts and consumes like a copied one, so the trace
    # stays clean and only the modelled values expose the defect.
    cell = dict(num_ranks=4, nbytes=512, chunk_bytes=64)
    expected = sum(np.arange(64, dtype=np.float64) + rank + 1 for rank in range(4))
    clean = build_model("gaspi_allreduce_ring_pipelined", **cell)
    assert all(np.array_equal(out, expected) for out in clean.recvbufs)
    mutated = build_model(
        "gaspi_allreduce_ring_pipelined", **cell, mutate_plan=skip_allgather_copy_out
    )
    assert analyze(mutated.trace) == []
    assert not any(np.array_equal(out, expected) for out in mutated.recvbufs)


@pytest.mark.parametrize("ranks", [2, 8])
def test_single_mailbox_per_step_lets_the_next_call_overwrite_this_one(ranks):
    # The parity is what allows folding the mailbox view unlocked: without
    # it a partner one call ahead posts into the box still being read.
    cell = dict(num_ranks=ranks, nbytes=256, calls=3)
    assert analyze(build_model("gaspi_allreduce_ssp_hypercube", **cell).trace) == []
    mutated = build_model(
        "gaspi_allreduce_ssp_hypercube", **cell, mutate_plan=single_mailbox_per_step
    )
    assert DOUBLE_POST in classes(analyze(mutated.trace))


@pytest.mark.parametrize("ranks", [4, 8])
@pytest.mark.parametrize("algorithm", ["gaspi_bcast_bst", "gaspi_bcast_flat"])
def test_unconsumed_child_acks_overwrite_a_lagging_child(algorithm, ranks):
    # The model drives the shipped broadcast generator, so a defect planted
    # in the plan shows in the trace: without the ack consume the parent's
    # next call lands on a child that has not read this one.
    cell = dict(nbytes=256, calls=2, laggard=ranks - 1)
    assert analyze(build_model(algorithm, ranks, **cell).trace) == []
    mutated = build_model(
        algorithm, ranks, **cell, mutate_plan=skip_child_ack_consumes
    )
    assert classes(analyze(mutated.trace)) & {DATA_RACE, DOUBLE_POST}


@pytest.mark.parametrize(
    "mutate",
    [drop_notify, hoist_first_consume, corrupt_notification_id, corrupt_offset],
)
def test_mutations_tag_the_trace_name(mutate):
    trace = build_model("gaspi_allreduce_ring", 4, 256).trace
    assert mutate.__name__ in mutate(trace).name


# --------------------------------------------------------------------------- #
# pool-level defects: the two halves of the workspace-recycling argument
# --------------------------------------------------------------------------- #
RECYCLE_PAIRS = [
    ("gaspi_bcast_bst", "gaspi_bcast_flat"),
    ("gaspi_bcast_bst", "gaspi_allreduce_ssp_hypercube"),
    ("gaspi_bcast_bst", "gaspi_allreduce_ring"),
    ("gaspi_reduce_bst", "gaspi_reduce_bst_pipelined"),
]


@pytest.mark.parametrize("ranks", [4, 8])
@pytest.mark.parametrize("first,other", RECYCLE_PAIRS)
def test_reuse_without_cooling_races_the_scrub(first, other, ranks):
    # A fast rank leases the segment scrubbed at this very barrier and
    # writes into the laggard's copy before the laggard scrubbed it.
    assert verify_recycling(first, other, ranks) == []
    found = classes(
        verify_recycling(first, other, ranks, mutate_pool=reuse_without_cooling)
    )
    assert DATA_RACE in found


@pytest.mark.parametrize("ranks", [4, 8])
@pytest.mark.parametrize("first,other", RECYCLE_PAIRS)
def test_lease_before_quiescence_races_the_old_lessee(first, other, ranks):
    # A released segment is scrubbed and leasable at once: the fast ranks'
    # scrub and first writes meet the laggard's last posts under the old
    # plan, and the laggard's own scrub wipes what they wrote.
    assert verify_recycling(first, other, ranks) == []
    found = classes(
        verify_recycling(first, other, ranks, mutate_pool=lease_before_quiescence)
    )
    assert found & {DATA_RACE, WRONG_VALUE}


@pytest.mark.parametrize("ranks", [4, 8])
def test_skipped_scrub_feeds_the_hypercube_stale_mailboxes(ranks):
    # A consume-ack left pending on a mailbox's notification id reads as the
    # partner's post: the broadcast payload in the box is folded unwaited.
    found = classes(
        verify_recycling(
            "gaspi_bcast_bst",
            "gaspi_allreduce_ssp_hypercube",
            ranks,
            mutate_pool=skip_scrub,
        )
    )
    assert WRONG_VALUE in found


@pytest.mark.parametrize("ranks", [4, 8])
def test_skipped_scrub_leaves_consume_acks_posted(ranks):
    # The flat broadcast's receivers find the BST's acks still pending on
    # their boards: the next lessee's posts land on unconsumed slots.
    found = classes(
        verify_recycling(
            "gaspi_bcast_bst", "gaspi_bcast_flat", ranks, mutate_pool=skip_scrub
        )
    )
    assert DOUBLE_POST in found


@pytest.mark.parametrize("ranks", [4, 8])
def test_skipped_scrub_leaves_reduce_credits_posted(ranks):
    # The credit of a reduce plan's last call is never consumed: it lies
    # inside the layout the release scrubs.  Left posted, it is a second
    # post on the next lessee's credit slot — and DATA from child 0 under
    # the other plan's id map.
    found = classes(
        verify_recycling(
            "gaspi_reduce_bst",
            "gaspi_reduce_bst_pipelined",
            ranks,
            mutate_pool=skip_scrub,
        )
    )
    assert DOUBLE_POST in found
