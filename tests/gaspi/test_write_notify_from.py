"""``write_notify_from``: one-sided writes whose source is caller memory.

Every runtime implements the primitive and every wrapper forwards it, so
each layer is held to what it does for ``write_notify``: the backends
deliver the data before the notification, the fault layer gates it by the
same plan and op count, telemetry counts the same traffic, a split child
translates the target rank, tracing records the same event.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy, FaultPlan, Telemetry, run_backend
from repro.analysis import TraceSink
from repro.core.plan import PlanKey, policy_fingerprint
from repro.core.policy import CollectiveRequest
from repro.core.registry import REGISTRY
from repro.faults import FaultyRuntime, RankCrashedError
from repro.faults.scenarios import get_scenario
from repro.gaspi import GaspiInvalidArgumentError, GaspiSegmentError, WorldConfig
from repro.gaspi.runtime import GaspiRuntime

from tests.helpers import rank_vector, spmd

SEGMENT = 31


# --------------------------------------------------------------------------- #
# the primitive on both executable backends
# --------------------------------------------------------------------------- #
def _exchange(rt):
    """Every rank writes a slice of a plain array into its successor."""
    rt.segment_create(SEGMENT, 64)
    rt.barrier()
    payload = np.arange(16, dtype=np.float64) + 100 * rt.rank  # never registered
    nxt, prev = (rt.rank + 1) % rt.size, (rt.rank - 1) % rt.size
    rt.write_notify_from(payload[3:7], nxt, SEGMENT, 16, 5, notification_value=9)
    rt.wait()
    assert rt.notify_waitsome(SEGMENT, 5, 1, timeout=30.0) == 5
    # GASPI guarantee: the data is visible once the notification is.
    got = rt.segment_view(SEGMENT, np.float64, offset=16, count=4).copy()
    value = rt.notify_reset(SEGMENT, 5)
    rt.barrier()
    rt.segment_delete(SEGMENT)
    return got.tolist(), value, prev


@pytest.mark.parametrize("backend", ["threaded", "shm"])
def test_caller_memory_lands_before_its_notification(backend):
    for got, value, prev in run_backend(3, _exchange, backend=backend, timeout=60):
        assert got == [100 * prev + i for i in (3, 4, 5, 6)]
        assert value == 9


def test_async_delivery_reads_the_source_until_wait():
    # Under async delivery the post returns before the copy: the source is
    # read later, and only wait() makes it the caller's again.
    def worker(rt):
        rt.segment_create(SEGMENT, 64)
        rt.barrier()
        source = np.full(8, float(rt.rank + 1))
        rt.write_notify_from(source, (rt.rank + 1) % rt.size, SEGMENT, 0, 1)
        rt.wait()
        source[:] = -1.0  # ours again
        assert rt.notify_waitsome(SEGMENT, 1, 1, timeout=30.0) == 1
        rt.notify_reset(SEGMENT, 1)
        got = rt.segment_view(SEGMENT, np.float64, count=8).copy()
        rt.barrier()
        return got.tolist()

    config = WorldConfig(delivery="async", delivery_delay=0.002)
    results = spmd(2, worker, world_config=config)
    assert results == [[2.0] * 8, [1.0] * 8]


@pytest.mark.parametrize("backend", ["threaded", "shm"])
def test_argument_checks_match_write_notify(backend):
    def worker(rt):
        rt.segment_create(SEGMENT, 64)
        rt.barrier()
        data = np.ones(16)
        with pytest.raises(GaspiInvalidArgumentError):
            rt.write_notify_from(data[::2], 0, SEGMENT, 0, 1)  # strided source
        with pytest.raises(GaspiInvalidArgumentError):
            rt.write_notify_from(data, rt.size, SEGMENT, 0, 1)  # no such rank
        with pytest.raises(GaspiSegmentError):
            rt.write_notify_from(data, 0, SEGMENT, 0, 1)  # 128 bytes into 64
        with pytest.raises(GaspiSegmentError):
            rt.write_notify_from(data[:2], 0, SEGMENT + 1, 0, 1)  # no such segment
        rt.barrier()
        rt.segment_delete(SEGMENT)
        return True

    assert all(run_backend(2, worker, backend=backend, timeout=60))


def test_the_abc_replaced_one_helper_with_one_primitive():
    assert "write_notify_from" in GaspiRuntime.__abstractmethods__
    assert not hasattr(GaspiRuntime, "write_notify_array")


# --------------------------------------------------------------------------- #
# fault gating: caller-memory writes are data-plane ops like any other
# --------------------------------------------------------------------------- #
def _posts(sink, rank):
    return [
        (e.dst, e.offset, e.length, e.notif_id)
        for e in sink.events[rank]
        if e.kind == "post"
    ]


def _ring_under(plan, ranks=4, elements=60, timeout=0.4):
    """One pipelined ring allreduce per rank over Faulty(Tracing(threaded)).

    Returns per rank ``(posts that reached the wire, ops attempted, error
    type name or None, result)``.  The tracing layer sits *below* the fault
    layer, so it records exactly what the plan let through.
    """
    sink = TraceSink(ranks)
    policy = ConsistencyPolicy(chunk_bytes=40)  # 3 sub-chunks per ring step
    info = REGISTRY.get("gaspi_allreduce_ring_pipelined")
    done = threading.Barrier(ranks)

    def worker(rt):
        faulty = FaultyRuntime(rt.traced(sink), plan)
        key = PlanKey(
            collective="allreduce",
            algorithm=info.name,
            size=ranks,
            root=0,
            nbytes=elements * 8,
            dtype="<f8",
            op="sum",
            policy=policy_fingerprint(policy),
        )
        compiled = info.plan(faulty, key, SEGMENT, policy)
        recvbuf = np.zeros(elements)
        error = None
        try:
            compiled.execute(
                CollectiveRequest(
                    collective="allreduce",
                    sendbuf=rank_vector(rt.rank, elements),
                    recvbuf=recvbuf,
                    policy=policy,
                    timeout=timeout,
                )
            )
        except (TimeoutError, RankCrashedError) as exc:
            error = type(exc).__name__
        done.wait(timeout=30.0)  # nobody tears a segment down under a peer
        compiled.close()
        return faulty.ops_performed, error, recvbuf

    results = spmd(ranks, worker)
    return [
        (_posts(sink, rank), ops, error, out)
        for rank, (ops, error, out) in enumerate(results)
    ]


@pytest.mark.parametrize(
    "scenario", ["single_crash", "late_crash", "partition_heal", "message_loss"]
)
def test_fault_scenarios_gate_the_pipelined_ring(scenario):
    # The ring posts nothing but caller-memory writes (and bare notifies for
    # empty sub-chunks), in an order that does not depend on timing.  Under a
    # fault plan a rank attempts a prefix of its clean sequence; of that
    # prefix exactly the ops the plan neither crashes nor drops reach the
    # wire — the rule FaultyRuntime applies to segment writes.
    ranks = 4
    plan = get_scenario(scenario).plan(ranks, seed=5)
    if scenario == "message_loss":  # 5 % would usually drop nothing here
        plan = FaultPlan(drop_probability=0.3, seed=5)
    clean = _ring_under(FaultPlan.none(), ranks)
    expected_sum = sum(rank_vector(r, 60) for r in range(ranks))
    assert all(error is None for _, _, error, _ in clean)
    assert all(np.allclose(out, expected_sum) for _, _, _, out in clean)

    gated = 0
    faulty = _ring_under(plan, ranks)
    for rank, (posts, ops, error, _out) in enumerate(faulty):
        script = clean[rank][0]
        assert ops <= len(script)
        crash = plan.crash_step(rank)
        survived = [
            script[i]
            for i in range(ops)
            if not (crash is not None and i >= crash)
            and not plan.should_drop(rank, script[i][0], i)
        ]
        assert posts == survived, (rank, error)
        gated += ops - len(survived)
        if crash is not None:
            assert error == "RankCrashedError" and ops == crash + 1
    assert gated > 0  # the scenario really bit


def test_delay_plans_leave_the_pipelined_ring_exact():
    clean = _ring_under(FaultPlan.none())
    slowed = _ring_under(FaultPlan(delay={0: 0.002}, jitter=0.001, seed=2), timeout=30.0)
    for (posts, ops, error, out), (c_posts, c_ops, _e, c_out) in zip(slowed, clean):
        assert error is None and ops == c_ops and posts == c_posts
        assert np.array_equal(out, c_out)


def test_mixed_posts_share_one_op_count():
    # Crash at op 2 whichever primitive issues it; a dropped link swallows
    # both kinds.
    def worker(rt):
        plan = FaultPlan(crash_at={1: 2}, drop_links=frozenset({(0, 1)}))
        faulty = FaultyRuntime(rt, plan)
        faulty.segment_create(SEGMENT, 64)
        faulty.barrier()
        data = np.ones(2)
        if rt.rank == 1:
            faulty.write_notify(SEGMENT, 0, 0, SEGMENT, 0, 8, 1)  # op 0
            faulty.write_notify_from(data, 0, SEGMENT, 8, 2)  # op 1
            with pytest.raises(RankCrashedError):
                faulty.write_notify_from(data, 0, SEGMENT, 8, 3)  # op 2
            return faulty.ops_performed
        faulty.write_notify_from(data, 1, SEGMENT, 0, 1)  # dropped: link cut
        faulty.write_notify(SEGMENT, 0, 1, SEGMENT, 0, 8, 2)  # dropped too
        got = {rt.notify_waitsome(SEGMENT, n, 1, timeout=5.0) for n in (1, 2)}
        return got, rt.notify_waitsome(SEGMENT, 3, 1, timeout=0.05)

    (got, third), ops = spmd(2, worker)
    assert got == {1, 2} and third is None and ops == 3


# --------------------------------------------------------------------------- #
# split child and telemetry agree with a bare run
# --------------------------------------------------------------------------- #
def _large_calls(comm, rank):
    """The three pipelined collectives once each; returns the outputs."""
    n = 3001  # odd, several chunks
    policy = ConsistencyPolicy(chunk_bytes=2048)
    send = rank_vector(rank, n)
    out = {"allreduce": comm.allreduce(send, algorithm="ring_pipelined", policy=policy)}
    buffer = send.copy()
    comm.bcast(buffer, root=1, algorithm="bst_pipelined", policy=policy)
    out["bcast"] = buffer
    recv = np.zeros(n)
    comm.reduce(send, recv, root=2, algorithm="bst_pipelined", policy=policy)
    out["reduce"] = recv
    return {k: v.tobytes() for k, v in out.items()}


@pytest.mark.parametrize("backend", ["threaded", "shm"])
def test_split_child_and_telemetry_agree_with_a_bare_run(backend):
    def worker(rt):
        stats = rt.stats if backend == "shm" else rt.world.stats[rt.rank]

        def traffic():
            return stats.messages_sent, stats.bytes_sent, stats.notifications_sent

        bare = Communicator(rt)
        t0 = traffic()
        out = {"bare": _large_calls(bare, rt.rank)}
        t1 = traffic()
        bare.close()

        tel = Telemetry(rank=rt.rank)
        counted = Communicator(rt, segment_base=3000, telemetry=tel)
        out["telemetry"] = _large_calls(counted, rt.rank)
        counted.close()
        counters = tel.snapshot()["counters"]

        # Odd ranks, reversed: group rank g is world rank (5, 3, 1)[g].
        world = Communicator(rt, segment_base=5000)
        child = world.split(rt.rank % 2, key=-rt.rank)
        if rt.rank % 2:
            out["child"] = _large_calls(child, child.rank)
        child.close()
        world.close()
        bare_traffic = tuple(b - a for a, b in zip(t0, t1))
        return out, bare_traffic, counters

    results = run_backend(6, worker, backend=backend, timeout=120)
    bare_notifies = 0
    for rank, (out, (messages, nbytes, notifies), counters) in enumerate(results):
        assert out["telemetry"] == out["bare"]
        # messages_sent counts every post; telemetry splits them by kind
        # (the broadcast's readiness and the reduce's credits are bare).
        assert counters["runtime.bytes_written"] == nbytes
        assert counters["runtime.notifications_posted"] == notifies == messages
        assert 0 < counters["runtime.writes"] <= messages
        bare_notifies += messages - counters["runtime.writes"]
    assert bare_notifies > 0
    # The child is a 3-rank world of its own: same collectives, exact there.
    members = [5, 3, 1]
    total = sum(rank_vector(g, 3001) for g in range(3))
    for g, world_rank in enumerate(members):
        child = results[world_rank][0]["child"]
        assert np.allclose(np.frombuffer(child["allreduce"]), total, rtol=1e-12)
        assert child["bcast"] == rank_vector(1, 3001).tobytes()
        if g == 2:
            assert np.allclose(np.frombuffer(child["reduce"]), total, rtol=1e-12)
    assert len({results[w][0]["child"]["allreduce"] for w in members}) == 1
