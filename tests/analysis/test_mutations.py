"""Seeded-mutation fixtures: each checker flags exactly its defect class.

Every test plants one deliberate protocol defect in a clean modelled
trace and asserts the *exact* set of finding classes the analyzers
report.  The sets are deterministic — the replay explores one canonical
adverse schedule — so a checker that goes silent on its own class, or
that starts misfiling defects under another class, fails here.
"""

from __future__ import annotations

import contextlib

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
    analyze_run,
    build_model,
    build_tolerant_model,
    verify_recycling,
)
from repro.analysis.mutations import (
    allgather_at_wrong_offset,
    ceil_threshold_elements,
    copy_last_child_slot,
    count_unconsumed_slots,
    corrupt_notification_id,
    corrupt_offset,
    credit_before_last_drain,
    drop_consumes,
    drop_notify,
    duplicate_chunk_id,
    floor_participating_ranks,
    fold_one_element_fewer,
    fold_stale_child_slot,
    fold_unwritten_mailbox,
    hoist_first_consume,
    lease_before_quiescence,
    reuse_without_cooling,
    single_mailbox_per_step,
    single_slot_per_peer,
    single_slot_per_step,
    skip_child_ack_consumes,
    skip_last_dissemination_round,
    skip_scrub,
    stage_partial_in_child_slot,
)
from repro.core.registry import REGISTRY


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


@pytest.mark.parametrize("ranks", [4, 8, 16])
def test_partial_staged_in_a_child_slot_is_a_data_race(ranks):
    # Credits release a child as soon as *its* slot is folded; the partial
    # result of an inner rank must not be bytes that child can write — not
    # even with one child, whose next push races the post read out of the
    # slot.  (Silent on 2 ranks: there is no inner rank.)
    cell = dict(nbytes=256, calls=3, laggard=0)
    quiet = build_model("gaspi_reduce_bst", 2, **cell, mutate_plan=stage_partial_in_child_slot)
    assert analyze_run(quiet) == []
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


def test_an_allgather_at_the_wrong_offset_is_a_wrong_value_staged_and_bound():
    # The sweep's pipelined ring cells, staged and bound (the sizes of the
    # bound twins as well): the mutant is clean to every trace check in the
    # staged landing zone, and a wrong result in both.
    from repro.analysis import model_cell
    from repro.analysis.__main__ import _cells

    cells = _cells(["gaspi_allreduce_ring_pipelined"], [4], calls=2)
    assert {bool(cell.get("bind")) for *_, cell in cells} == {False, True}
    for name, ranks, nbytes, cell in cells:
        assert analyze_run(model_cell(name, ranks, nbytes, **cell)) == []
        mutated = model_cell(name, ranks, nbytes, **cell, mutate_plan=allgather_at_wrong_offset)
        assert WRONG_VALUE in classes(analyze_run(mutated)), mutated.trace.name
        if not cell.get("bind"):
            assert analyze(mutated.trace) == []


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


@pytest.mark.parametrize("ranks", [2, 4, 5])
@pytest.mark.parametrize(
    "algorithm,mutate,expected",
    [
        ("gaspi_alltoall", single_slot_per_peer, DOUBLE_POST),
        ("gaspi_allgather_ring", single_slot_per_step, DOUBLE_POST),
        ("gaspi_barrier_dissemination", skip_last_dissemination_round, WRONG_VALUE),
    ],
    ids=["alltoall", "allgather", "barrier"],
)
def test_call_parity_and_rounds_are_needed(algorithm, mutate, expected, ranks):
    # The laggard cells of the sweep: one rank late to each of three calls,
    # so the third reuses the first one's parity.  Clean as shipped; the
    # alltoall and allgather re-post a slot they did not see consumed, and
    # a barrier one round short lets a rank leave before the laggard came.
    nbytes = 32 * ranks if algorithm == "gaspi_alltoall" else 32
    cell = dict(nbytes=nbytes, calls=3, laggard=ranks - 1)
    assert analyze_run(build_model(algorithm, ranks, **cell)) == []
    mutated = build_model(algorithm, ranks, **cell, mutate_plan=mutate)
    assert expected in classes(analyze_run(mutated))


TOLERANT = ["gaspi_allreduce_tolerant", "gaspi_reduce_tolerant", "gaspi_bcast_tolerant"]


@pytest.mark.parametrize("fault", ["absent", "crash", "late"])
@pytest.mark.parametrize("algorithm", TOLERANT)
def test_a_drain_that_counts_unconsumed_slots_is_a_wrong_value(algorithm, fault):
    # Folding the zeros nobody posted leaves a sum unchanged, so only the
    # contributor set the survivors report gives the defect away.
    assert analyze_run(build_tolerant_model(algorithm, 4, fault=fault)) == []
    mutated = build_tolerant_model(algorithm, 4, fault=fault, mutate_plan=count_unconsumed_slots)
    assert classes(analyze_run(mutated)) == {WRONG_VALUE}


@pytest.mark.parametrize("algorithm", TOLERANT)
def test_tolerant_cells_complete_degraded_and_then_exactly(algorithm):
    # Not vacuous: somebody completes degraded in every fault; and after
    # the late contribution, every survivor holds the exact result.
    for fault in ("absent", "crash", "late"):
        run = build_tolerant_model(algorithm, 5, fault=fault)
        assert run.wrong_values == [] and run.stalled_ranks == []
        assert run.value_checks


@pytest.mark.parametrize("fault", ["absent", "crash", "late"])
@pytest.mark.parametrize("algorithm", ["gaspi_reduce_tolerant", "gaspi_bcast_tolerant"])
def test_a_tolerant_cell_under_root_one_is_checked_as_under_root_zero(algorithm, fault):
    # The sweep's root-1 cells at 8 ranks: the crashed or late broadcast
    # root is rank 1, and the reduce folds at rank 1.
    run = build_tolerant_model(algorithm, 8, fault=fault, root=1)
    assert analyze_run(run) == [] and "root=1" in run.trace.name
    mutated = build_tolerant_model(
        algorithm, 8, fault=fault, root=1, mutate_plan=count_unconsumed_slots
    )
    assert classes(analyze_run(mutated)) == {WRONG_VALUE}


@pytest.mark.parametrize(
    "mutate",
    [drop_notify, hoist_first_consume, corrupt_notification_id, corrupt_offset],
)
def test_mutations_tag_the_trace_name(mutate):
    trace = build_model("gaspi_allreduce_ring", 4, 256).trace
    assert mutate.__name__ in mutate(trace).name


#: Contract mutant -> (plan mutation, or a context that patches a shared
#: definition; the algorithm whose sweep cells catch it, None for all).
CONTRACT_MUTANTS = {
    "A": (copy_last_child_slot, "gaspi_reduce_bst"),
    "C": (fold_one_element_fewer, "gaspi_reduce_bst"),
    "D": (ceil_threshold_elements, None),
    "E": (floor_participating_ranks, None),
    "stale_child_slot": (fold_stale_child_slot, "gaspi_reduce_bst"),
    "ssp_unwritten_mailbox": (fold_unwritten_mailbox, "gaspi_allreduce_ssp_hypercube"),
}


@pytest.mark.parametrize("mutant", sorted(CONTRACT_MUTANTS))
def test_contract_mutants_are_wrong_values_in_the_default_sweep(mutant):
    # The cells of the default sweep, clean as shipped; each mutant breaks
    # what some result is owed and nothing else the checkers see.
    from repro.analysis import model_cell
    from repro.analysis.__main__ import _cells

    mutate, only = CONTRACT_MUTANTS[mutant]
    patches = mutate in (ceil_threshold_elements, floor_participating_ranks)
    algorithms = [only] if only else sorted(
        info.name for info in REGISTRY.items() if info.capabilities.verified
    )
    found = set()
    for name, ranks, nbytes, cell in _cells(algorithms, [4, 8, 16], calls=2):
        if "fault" in cell or (patches and cell.get("threshold", 1.0) == 1.0):
            continue
        assert analyze_run(model_cell(name, ranks, nbytes, **cell)) == []
        if not patches:
            cell = dict(cell, mutate_plan=mutate)
        with mutate() if patches else contextlib.nullcontext():
            found |= classes(analyze_run(model_cell(name, ranks, nbytes, **cell)))
    assert found == {WRONG_VALUE}


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
