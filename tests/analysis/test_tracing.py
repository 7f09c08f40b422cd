"""TracingRuntime: real executions replayed through the static checkers.

The acceptance contract of the tracing path: a clean live run — real
threads, real notification boards, real interleavings — replays with no
findings through the same checkers that verify the model; an
injected protocol violation is caught.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import DOUBLE_POST, TraceSink, analyze, build_model
from repro.core.plan import PlanKey, policy_fingerprint
from repro.core.policy import CollectiveRequest, ConsistencyPolicy
from repro.core.registry import REGISTRY
from tests.helpers import spmd

SEGMENT = 29


def _run_traced(algorithm, collective, ranks, nbytes, calls=2):
    """Execute a planned collective twice under tracing wrappers."""
    sink = TraceSink(ranks)
    policy = ConsistencyPolicy()
    elements = nbytes // 8

    def worker(runtime):
        rt = runtime.traced(sink)
        info = REGISTRY.get(algorithm)
        key = PlanKey(
            collective=collective,
            algorithm=algorithm,
            size=ranks,
            root=0,
            nbytes=nbytes,
            dtype="<f8",
            op="sum",
            policy=policy_fingerprint(policy),
        )
        plan = info.plan(rt, key, SEGMENT, policy)
        sendbuf = np.arange(elements, dtype=np.float64) + rt.rank + 1
        recvbuf = np.zeros(elements, dtype=np.float64)
        for _ in range(calls):
            request = CollectiveRequest(
                collective=collective,
                sendbuf=sendbuf.copy(),
                recvbuf=recvbuf,
                policy=policy,
            )
            plan.execute(request)
        rt.barrier()
        plan.close()
        return recvbuf

    results = spmd(ranks, worker)
    return sink, results


def test_traced_threaded_run_agrees_with_the_model():
    # An 8-rank live threaded run of the planned ring allreduce, recorded
    # and replayed through the identical checkers the model uses: clean.
    sink, results = _run_traced("gaspi_allreduce_ring", "allreduce", 8, 256)
    expected = sum(
        np.arange(32, dtype=np.float64) + rank + 1 for rank in range(8)
    )
    for recvbuf in results:
        assert np.allclose(recvbuf, expected)
    trace = sink.trace(name="live allreduce_ring x2")
    assert trace.total_events() > 0
    findings = analyze(trace)
    assert findings == [], [finding.describe() for finding in findings]


def test_traced_bcast_run_is_clean():
    sink, _ = _run_traced("gaspi_bcast_bst", "bcast", 8, 256)
    findings = analyze(sink.trace(name="live bcast_bst x2"))
    assert findings == [], [finding.describe() for finding in findings]


@pytest.mark.parametrize(
    "algorithm,collective,nbytes,caller_memory",
    [
        ("gaspi_allreduce_ring_pipelined", "allreduce", 512, True),
        ("gaspi_allreduce_ring", "allreduce", 512, False),
        ("gaspi_bcast_bst", "bcast", 256, False),
        ("gaspi_bcast_flat", "bcast", 256, False),
    ],
)
def test_a_live_run_posts_what_the_model_posts(
    algorithm, collective, nbytes, caller_memory
):
    # The same generator runs on both sides, so every rank posts the same
    # sequence — destination, offset, length, slot — live and in the model.
    # write_notify_from is recorded as the same event kind as write_notify
    # (a data-carrying post, minus the local offset caller memory lacks).
    from repro.analysis import build_model

    sink, results = _run_traced(algorithm, collective, 4, nbytes)
    if collective == "allreduce":
        expected = sum(np.arange(nbytes // 8) + rank + 1.0 for rank in range(4))
        for recvbuf in results:
            assert np.array_equal(recvbuf, expected)
    trace = sink.trace(name=f"live {algorithm} x2")
    assert analyze(trace) == []

    def posts(events):
        return [
            (e.dst, e.offset, e.length, e.notif_id) for e in events if e.kind == "post"
        ]

    model = build_model(algorithm, 4, nbytes).trace
    for rank in range(4):
        live = posts(trace.events[rank])
        assert live and live == posts(model.events[rank])
        assert all(
            (e.local_offset == -1) == caller_memory
            for e in trace.events[rank]
            if e.kind == "post" and e.length > 0
        )


def test_injected_double_post_is_caught():
    # Post the same notification id twice before the consume: the board
    # overwrites the unconsumed value — exactly the bug class the
    # double-post checker exists for.
    sink = TraceSink(2)

    def worker(runtime):
        rt = runtime.traced(sink)
        rt.segment_create(7, 64)
        rt.barrier()
        if rt.rank == 0:
            rt.notify(1, 7, 3)
            rt.notify(1, 7, 3)  # overwrite before any consume
            rt.wait(0)
        rt.barrier()
        if rt.rank == 1:
            assert rt.notify_waitsome(7, 3, 1) == 3
            rt.notify_reset(7, 3)
        rt.barrier()

    spmd(2, worker)
    findings = analyze(sink.trace(name="injected double post"))
    assert DOUBLE_POST in {finding.check for finding in findings}


def test_tracing_preserves_notify_drain_consumes():
    # The wrapper routes notify_drain through the base-class loop so each
    # reset is individually recorded: every drained id shows up.
    sink = TraceSink(2)

    def worker(runtime):
        rt = runtime.traced(sink)
        rt.segment_create(11, 64)
        rt.barrier()
        if rt.rank == 0:
            for nid in range(3):
                rt.notify(1, 11, nid)
            rt.wait(0)
        rt.barrier()
        got = {}
        if rt.rank == 1:
            got = rt.notify_drain(11, 0, 8)
            assert set(got) == {0, 1, 2}
        rt.barrier()
        return got

    spmd(2, worker)
    consumes = [
        event
        for event in sink.events[1]
        if event.kind == "consume" and event.segment == 11
    ]
    assert {event.notif_id for event in consumes} == {0, 1, 2}


def test_cli_single_algorithm_smoke(capsys):
    from repro.analysis.__main__ import main

    assert main(["--algorithm", "gaspi_bcast_bst", "--ranks", "4"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_json_output(capsys):
    import json

    from repro.analysis.__main__ import main

    assert main(
        ["--algorithm", "gaspi_allreduce_ring", "--ranks", "4", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_findings"] == 0
    assert payload["cells"]


def test_cli_rejects_a_sweep_of_zero_calls(capsys):
    # Zero calls would report every bcast and allreduce cell clean vacuously.
    from repro.analysis.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--all", "--calls", "0"])
    assert exit_info.value.code == 2
    assert "--calls must be at least 1" in capsys.readouterr().err


def test_cli_rejects_a_one_rank_world(capsys):
    # A one-rank ring creates no workspace for the recycling pairs to share.
    from repro.analysis.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--all", "--ranks", "4", "1"])
    assert exit_info.value.code == 2
    assert "--ranks must all be at least 2" in capsys.readouterr().err


def test_cli_sweep_lags_a_rank_through_three_calls_of_every_reduce_cell(capsys):
    # The summary line counts cells per collective (CI copies it into the
    # job summary): both reduce plans x 3 rank counts x (2 payloads + data
    # and process thresholds at 50 % and 30 %), + the other root at 8
    # ranks — and every cell of the sweep is value-checked.
    from repro.analysis.__main__ import main

    assert main(["--all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "reduce 40" in lines[-1] and "recycle 15" in lines[-1]
    assert f"), {lines[-1].split()[0]} value-checked," in lines[-1]
    reduce_cells = [line for line in lines if "ok  gaspi_reduce_bst" in line]
    assert len(reduce_cells) == 40
    assert all("calls=3" in line and "laggard=" in line for line in reduce_cells)
    assert sum("50% processes" in line for line in reduce_cells) == 6
    assert sum("30% data" in line for line in reduce_cells) == 6
    assert sum("root=1" in line for line in reduce_cells) == 4
    bcast_cells = [line for line in lines if "ok  gaspi_bcast_" in line]
    assert sum("30% data" in line for line in bcast_cells) == 9


def test_cli_sweep_runs_the_hypercube_past_a_laggard_under_slack():
    # Slack 1 and 2 at every rank count: the last rank is late into every
    # call, so the others reuse its stale contribution up to the window and
    # then wait — which takes slack + 2 calls.  Only these traces skip the
    # double-post audit.
    from repro.analysis.__main__ import _cells

    cells = _cells(["gaspi_allreduce_ssp_hypercube"], [4, 8, 16], calls=2)
    stale = [
        (ranks, cell["slack"], cell["calls"], cell["laggard"])
        for _, ranks, _, cell in cells
        if cell.get("slack")
    ]
    assert stale == [
        (4, 1, 3, 3), (4, 2, 4, 3), (8, 1, 3, 7), (8, 2, 4, 7), (16, 1, 3, 15), (16, 2, 4, 15)
    ]  # fmt: skip
    run = build_model("gaspi_allreduce_ssp_hypercube", 4, slack=2, calls=4, laggard=3)
    assert run.trace.overwrite_tolerant and analyze(run.trace) == []
    assert not build_model("gaspi_allreduce_ssp_hypercube", 4).trace.overwrite_tolerant
