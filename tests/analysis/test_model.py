"""The model: clean verification, every result held against the oracle.

The model executes the *real* plan classes on the shipped threaded
runtime, one thread for every rank, so a planner bug shows up twice: as
a result :func:`~repro.core.policy.documented_result` does not owe, and
as a finding in the checkers.  Every registered plannable algorithm must
verify with zero findings.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import analyze, analyze_run, build_model, verify_algorithm
from repro.core.plan import PLAN_WAIT_TIMEOUT
from repro.core.policy import CollectiveRequest
from repro.core.registry import REGISTRY

PLANNABLE = sorted(
    info.name for info in REGISTRY.items() if info.plannable
)


def _payload(name):
    """(nbytes, chunk_bytes) giving pipelined plans several chunks."""
    if REGISTRY.get(name).capabilities.pipelined:
        return 512, 128
    return 256, None


# --------------------------------------------------------------------------- #
# clean verification
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("ranks", [4, 8])
@pytest.mark.parametrize("algorithm", PLANNABLE)
def test_every_plannable_algorithm_verifies_clean(algorithm, ranks):
    nbytes, chunk_bytes = _payload(algorithm)
    findings = verify_algorithm(
        algorithm, ranks, nbytes, chunk_bytes=chunk_bytes
    )
    assert findings == [], [finding.describe() for finding in findings]


@pytest.mark.parametrize("ranks", [4, 8, 16])
@pytest.mark.parametrize("mode", ["data", "processes"])
@pytest.mark.parametrize("algorithm", ["gaspi_reduce_bst", "gaspi_reduce_bst_pipelined"])
def test_reduce_credits_verify_clean_with_a_late_rank(algorithm, mode, ranks):
    # Three calls: the child of a late parent pushes the second before the
    # parent entered it and must wait for a credit before the third.
    nbytes, chunk_bytes = _payload(algorithm)
    for laggard in (0, ranks // 2):
        run = build_model(
            algorithm, ranks, nbytes, chunk_bytes=chunk_bytes,
            threshold=0.5, mode=mode, calls=3, laggard=laggard,
        )
        findings = analyze_run(run)
        assert findings == [], [finding.describe() for finding in findings]
        assert run.value_checks


def test_a_blocking_wait_inside_the_model_raises_instead_of_parking():
    # Every rank runs on one thread over the shipped notification board: a
    # wait that parks would hang the whole sweep.  execute() waits up to
    # PLAN_WAIT_TIMEOUT, so the model must refuse it outright.
    run = build_model("gaspi_bcast_bst", 2, 256, calls=0)
    plan = run.plans[1]
    request = CollectiveRequest(
        collective="bcast", sendbuf=run.sendbufs[1], segment_id=plan.segment_id
    )
    assert PLAN_WAIT_TIMEOUT > 1.0
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="rank 1") as error:
        plan.execute(request)
    assert time.monotonic() - started < 1.0
    assert f"segment {plan.segment_id}" in str(error.value)


@pytest.mark.parametrize("fresh", [False, True])
@pytest.mark.parametrize("ranks", [2, 5])
@pytest.mark.parametrize(
    "algorithm", ["gaspi_allreduce_ring_pipelined", "gaspi_bcast_bst_pipelined"]
)
def test_a_bound_world_runs_the_bind_branch_clean(algorithm, ranks, fresh):
    # A world with segment_bind: the broadcast's receivers and the ring's
    # allgather land in the caller's buffer.  Each bind is a store over the
    # whole segment, once per rank, or once per call under fresh buffers.
    calls = 3
    run = build_model(
        algorithm, ranks, 512, chunk_bytes=128, calls=calls, bind=True,
        fresh_buffers=fresh, laggard=ranks - 1,
    )  # fmt: skip
    assert analyze_run(run) == []
    assert "bound" in run.trace.name and ("fresh buffers" in run.trace.name) == fresh
    plan, ring = run.plans[1], algorithm == "gaspi_allreduce_ring_pipelined"
    assert plan.bind_landing if ring else plan.zero_copy
    bound = plan.landing_id if ring else plan.segment_id
    binds = [
        event
        for event in run.trace.events[1]
        if event.kind == "write" and event.segment == bound
        and event.length == run.world.runtimes[1].segment_size(bound)
    ]
    assert len(binds) == (calls if fresh else 1)


def test_fresh_buffers_replace_only_result_buffers():
    # Only a broadcast receiver's buffer is its result.  Every other send
    # buffer stays what the rank contributes (a barrier's stays absent), so
    # a value check never folds a zeroed stand-in.
    from repro.analysis.model import _payload

    run = build_model("gaspi_reduce_bst", 4, 256, calls=2, fresh_buffers=True)
    assert run.wrong_values == []
    for rank in range(4):  # the last call's payload
        assert np.array_equal(run.sendbufs[rank], _payload(rank, 1, 32, 4))
    run = build_model("gaspi_barrier_dissemination", 4, 0, calls=2, fresh_buffers=True)
    assert run.wrong_values == [] and run.sendbufs == [None] * 4


def test_strict_cells_are_value_checked():
    # Every strict allreduce, bcast and reduce call is held against the
    # exact result; a plan that skips its allgather copy-out posts and
    # consumes what a correct one does, so only the value check sees it.
    from repro.analysis.mutations import skip_allgather_copy_out

    for algorithm in ("gaspi_allreduce_ring_pipelined", "gaspi_reduce_bst", "gaspi_bcast_bst"):
        run = build_model(algorithm, 4, 256)
        assert run.wrong_values == [] and run.value_checks >= 2
    run = build_model(
        "gaspi_allreduce_ring_pipelined", 4, 512, chunk_bytes=64,
        mutate_plan=skip_allgather_copy_out,
    )  # fmt: skip
    assert analyze(run.trace) == []
    assert run.wrong_values and "delivered a wrong value" in run.wrong_values[0]


def test_a_relaxed_cell_that_owes_the_strict_result_is_vacuous():
    # ⌈0.9 · 4⌉ = 4: a process threshold that keeps every rank checks
    # nothing a strict cell does not.  ⌈0.5 · 4⌉ = 2 does.
    cell = dict(mode="processes", calls=3, laggard=0)
    run = build_model("gaspi_reduce_bst", 4, 256, threshold=0.9, **cell)
    assert [message for message in run.wrong_values if "vacuous" in message]
    assert build_model("gaspi_reduce_bst", 4, 256, threshold=0.5, **cell).wrong_values == []


def test_model_traces_carry_events():
    run = build_model("gaspi_allreduce_ring", 4, 256)
    assert run.trace.total_events() > 0
    assert run.trace.num_ranks == 4
    assert not run.stalled_ranks


def test_analyze_reports_trace_name():
    run = build_model("gaspi_bcast_bst", 4, 256)
    from repro.analysis.mutations import drop_notify

    findings = analyze(drop_notify(run.trace))
    assert findings
    for finding in findings:
        assert "gaspi_bcast_bst" in finding.trace


# --------------------------------------------------------------------------- #
# registry flag
# --------------------------------------------------------------------------- #
def test_every_gaspi_collective_is_a_verified_plan():
    # Every GASPI entry runs through a planner (cached, or never cached like
    # the fault-tolerant trio) and is covered by the verifier; runners are
    # left to the MPI baselines.
    for info in REGISTRY.items():
        gaspi = info.family == "gaspi"
        assert info.capabilities.verified == gaspi, info.name
        assert (info.planner is not None) == gaspi, info.name
        assert info.runner is None or not gaspi, info.name
