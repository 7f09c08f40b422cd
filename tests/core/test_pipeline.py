"""Pipelined chunked data path: equivalence, tuning, schedules, faults.

The contract of the pipelined variants is *bit-identical equivalence*
with the monolithic implementations — chunking, zero-copy binding and
fused folds are pure executions of the same mathematical collective —
plus correct routing: large payloads route to them automatically, fault
plans route *around* them to the tolerant flat algorithms.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy, FaultPlan, run_backend
from repro.core.pipeline import ChunkLayout
from repro.core.registry import REGISTRY
from repro.core.topology import BinomialTree
from repro.core.tuning import (
    PIPELINE_MIN_BYTES,
    select_algorithm,
    select_chunk_bytes,
)
from repro.simulate.machine import skylake_fdr
from repro.telemetry import Telemetry

from tests.helpers import expected_sum, rank_vector, spmd

PAIRS = (
    ("bcast", "bst", "bst_pipelined"),
    ("reduce", "bst", "bst_pipelined"),
    ("allreduce", "ring", "ring_pipelined"),
)


def _run_collective(comm, collective, algorithm, sendbuf, policy=None):
    """One collective call; returns the output buffer of this rank."""
    if collective == "bcast":
        buf = sendbuf.copy()
        comm.bcast(buf, root=0, algorithm=algorithm, policy=policy)
        return buf
    if collective == "reduce":
        recv = np.zeros_like(sendbuf)
        comm.reduce(sendbuf, recvbuf=recv, root=0, algorithm=algorithm, policy=policy)
        return recv
    out = np.empty_like(sendbuf)
    comm.allreduce(sendbuf, recvbuf=out, algorithm=algorithm, policy=policy)
    return out


class TestBitIdenticalEquivalence:
    """Pipelined vs monolithic on the threaded backend: exact equality."""

    @pytest.mark.parametrize("ranks", [4, 8])
    @pytest.mark.parametrize("collective,mono,pipe", PAIRS)
    def test_pipelined_matches_monolithic(self, ranks, collective, mono, pipe):
        n = 4096  # forced through multiple chunks below

        def worker(rt):
            comm = Communicator(rt)
            send = rank_vector(rt.rank, n)
            chunked = ConsistencyPolicy(chunk_bytes=4096)  # 8 chunks
            out = {}
            for label, algorithm, policy in (
                ("mono", mono, None),
                ("pipe", pipe, None),
                ("pipe_chunked", pipe, chunked),
            ):
                out[label] = _run_collective(comm, collective, algorithm, send, policy)
                # run twice: the second call exercises the cached plan's
                # cross-call handshakes
                out[label + "2"] = _run_collective(
                    comm, collective, algorithm, send, policy
                )
            comm.close()
            return out

        for result in spmd(ranks, worker, timeout=90.0):
            for label in ("pipe", "pipe_chunked", "mono2", "pipe2", "pipe_chunked2"):
                assert np.array_equal(result["mono"], result[label]), label

    @pytest.mark.parametrize("collective,mono,pipe", PAIRS)
    def test_cold_path_matches_cached(self, collective, mono, pipe):
        n = 2048

        def worker(rt):
            cold = Communicator(rt, plan_cache=0, segment_base=300)
            cached = Communicator(rt, segment_base=500)
            send = rank_vector(rt.rank, n)
            a = _run_collective(cold, collective, pipe, send)
            b = _run_collective(cached, collective, pipe, send)
            cold.close()
            cached.close()
            return a, b

        for a, b in spmd(4, worker):
            assert np.array_equal(a, b)

    def test_threshold_policies_match(self):
        n = 1024

        def worker(rt):
            comm = Communicator(rt)
            send = rank_vector(rt.rank, n)
            policy = ConsistencyPolicy.data_threshold(0.25)
            out = {}
            for collective, mono, pipe in PAIRS[:2]:
                out[collective] = (
                    _run_collective(comm, collective, mono, send, policy),
                    _run_collective(comm, collective, pipe, send, policy),
                )
            # process-threshold reduce
            pp = ConsistencyPolicy.process_threshold(0.75)
            out["reduce_procs"] = (
                _run_collective(comm, "reduce", "bst", send, pp),
                _run_collective(comm, "reduce", "bst_pipelined", send, pp),
            )
            comm.close()
            return out

        for result in spmd(8, worker, timeout=90.0):
            for label, (mono, pipe) in result.items():
                assert np.array_equal(mono, pipe), label

    def test_simulator_backend_attaches_pipelined_schedule(self):
        n = PIPELINE_MIN_BYTES // 8 + 64

        def worker(rt):
            comm = Communicator(rt, machine=skylake_fdr(4))
            send = rank_vector(rt.rank, n)
            out = comm.allreduce(send)  # auto -> pipelined at this size
            result = comm.last_result
            comm.close()
            return (
                out,
                result.algorithm,
                result.simulated_seconds,
                result.simulated.schedule_name,
            )

        outs = spmd(4, worker)
        reference = outs[0][0]
        for out, algorithm, seconds, schedule_name in outs:
            assert algorithm == "gaspi_allreduce_ring_pipelined"
            assert np.array_equal(out, reference)
            assert seconds is not None and seconds > 0
            assert "pipelined" in schedule_name


def _bound_ring_results(rt):
    """Every ``recvbuf`` shape the pipelined ring's landing zone meets.

    Returns ``{scenario: [result bytes per call]}`` and whether the plans
    bound their landing zone.  Chunked to several sub-chunks per step.
    """
    n, policy = 300, ConsistencyPolicy(chunk_bytes=256)
    ring = dict(algorithm="ring_pipelined", policy=policy)
    rank = rt.rank
    send = rank_vector(rank, n)
    comm = Communicator(rt)
    out = {}
    # recvbuf changes identity between calls, and comes back.
    first, second = np.zeros(n), np.zeros(n)
    out["identity"] = [
        comm.allreduce(send, recvbuf, **ring).tobytes() for recvbuf in (first, second, first)
    ]
    out["none"] = [comm.allreduce(send, **ring).tobytes() for _ in range(2)]
    inplace = []
    for _ in range(2):
        buf = send.copy()
        comm.allreduce(buf, buf, **ring)
        inplace.append(buf.tobytes())
    out["in-place"] = inplace
    strided = np.zeros(2 * n)
    out["strided"] = [
        comm.allreduce(send, strided[::2], **ring).tobytes() for _ in range(2)
    ]
    assert not strided[1::2].any()
    # Four tagged nonblocking calls over the rows of one array.
    rows = np.zeros((4, n))
    sends = [rank_vector(rank + 10 * q, n) for q in range(4)]
    buckets = []
    for _ in range(2):
        for q in range(4):
            comm.iallreduce(sends[q], rows[q], tag=q + 1, **ring)
        comm.wait_all()
        buckets.append(rows.tobytes())
    out["buckets"] = buckets
    bound = {
        plan.bind_landing
        for plan in comm._plans.lru()
        if plan.key.algorithm == "gaspi_allreduce_ring_pipelined"
    }
    comm.close()
    # The wrapped stack: telemetry, an empty fault plan, a split(0) child.
    parent = Communicator(rt, telemetry=Telemetry(rank=rank), faults=FaultPlan())
    child = parent.split(0)
    recvbuf = np.zeros(n)
    out["wrapped"] = [child.allreduce(send, recvbuf, **ring).tobytes() for _ in range(2)]
    bound |= {plan.bind_landing for plan in child._plans.lru()}
    child.close()
    parent.close()
    return out, bound


class TestBoundRingLandingZone:
    """The ring's allgather lands in ``recvbuf`` where the runtime binds
    (threaded) and in the pooled segment where it cannot (shm): the same
    bytes either way, whatever the caller passes as ``recvbuf``."""

    @pytest.mark.parametrize("ranks", [3, 4])
    def test_every_recvbuf_shape_is_bit_identical_across_backends(self, ranks):
        threaded = run_backend(ranks, _bound_ring_results, backend="threaded", timeout=90)
        shm = run_backend(ranks, _bound_ring_results, backend="shm", timeout=90)
        n = 300
        want = {"buckets": [sum(rank_vector(r + 10 * q, n) for r in range(ranks)) for q in range(4)]}
        for rank in range(ranks):
            (t_out, t_bound), (s_out, s_bound) = threaded[rank], shm[rank]
            assert t_bound == {True} and s_bound == {False}
            assert t_out == s_out
            for scenario, calls in t_out.items():
                expected = np.reshape(want.get(scenario, expected_sum(ranks, n)), -1)
                for got in calls:
                    assert np.allclose(np.frombuffer(got), expected), scenario
            # The ring's fold order is fixed: every call of every single-vector
            # scenario holds the same bytes.
            assert len({got for key, calls in t_out.items() if key != "buckets" for got in calls}) == 1


class TestReduceCredits:
    """The pipelined reduce's end-of-call credit under a late rank."""

    @pytest.mark.parametrize("late", [0, 4])
    def test_a_late_rank_lets_children_one_call_ahead_and_no_further(self, late):
        # 8 ranks, 4 chunks, one rank 20 ms late into every call.  A late
        # root finds its children one call ahead.  A late rank 4 — the
        # root's last child in fold order — is the shape that loses
        # notifications when a credit goes out before the call's last
        # drain: the root has folded the chunks of 1 and 2 and still sweeps
        # for 4's while the subtree of 1 already pushes the next call.
        ranks, n, calls = 8, 4096, 5
        policy = ConsistencyPolicy(chunk_bytes=n * 8 // 4)
        tree = BinomialTree(ranks, 0)
        entered = [-1] * ranks  # last call each rank entered (shared by the threads)

        def worker(rt):
            comm = Communicator(rt)
            parent = tree.parent(rt.rank)
            recv, sums, leads = np.zeros(n), [], []
            for call in range(calls):
                if rt.rank == late:
                    time.sleep(0.02)
                entered[rt.rank] = call
                send = np.full(n, float(rt.rank + 10 * call))
                comm.reduce(
                    send, recv, root=0, algorithm="bst_pipelined", policy=policy
                )
                if parent is not None:
                    leads.append(call - entered[parent])
                sums.append(float(recv[0]) if parent is None else None)
            comm.close()
            return sums, leads

        results = spmd(ranks, worker)
        assert results[0][0] == [
            sum(rank + 10.0 * call for rank in range(ranks)) for call in range(calls)
        ]
        for rank in range(1, ranks):
            assert max(results[rank][1]) <= 1, (rank, results[rank][1])
        if late == 0:
            # The credit is what lets them: under an entry READY a child
            # could not finish a call its parent had not entered.
            assert max(results[4][1]) == 1


class TestTuningAndChunks:
    def test_auto_routes_large_payloads_to_pipelined(self):
        from repro.core.tuning import REDUCE_PIPELINE_MIN_BYTES

        for collective, threshold, expected in (
            ("bcast", PIPELINE_MIN_BYTES, "gaspi_bcast_bst_pipelined"),
            ("reduce", REDUCE_PIPELINE_MIN_BYTES, "gaspi_reduce_bst_pipelined"),
            ("allreduce", PIPELINE_MIN_BYTES, "gaspi_allreduce_ring_pipelined"),
        ):
            info = select_algorithm(collective, 8, threshold)
            assert info.name == expected
            small = select_algorithm(collective, 8, 4096)
            assert not small.capabilities.pipelined

    def test_reduce_crossover_sits_higher(self):
        from repro.core.tuning import REDUCE_PIPELINE_MIN_BYTES

        # Measured on this substrate: the single-copy monolithic reduce
        # wins up to three quarters of a megabyte, the pipelined one (on
        # shm) from one megabyte.
        below = select_algorithm("reduce", 8, REDUCE_PIPELINE_MIN_BYTES - 1)
        assert below.name == "gaspi_reduce_bst"

    def test_chunk_table_grows_with_payload(self):
        assert select_chunk_bytes(256 * 1024) is None  # single chunk
        assert select_chunk_bytes(1 << 20) == 512 * 1024
        assert select_chunk_bytes(4 << 20) == 1 << 20
        assert select_chunk_bytes(64 << 20) == 2 << 20

    def test_chunk_layout_bounds_cover_payload_exactly(self):
        layout = ChunkLayout.for_elements(1000, 8, 2048)  # 256-element chunks
        assert layout.num_chunks == 4
        assert layout.bounds[0] == (0, 256)
        assert layout.bounds[-1] == (768, 1000)
        covered = [b for bounds in layout.bounds for b in range(*bounds)]
        assert covered == list(range(1000))
        assert layout.byte_bounds(1) == (256 * 8, 512 * 8)

    def test_chunk_layout_degenerates_to_single_chunk(self):
        for chunk_bytes in (None, 1 << 30):
            layout = ChunkLayout.for_elements(100, 8, chunk_bytes)
            assert layout.num_chunks == 1
            assert layout.bounds == ((0, 100),)

    def test_policy_chunk_bytes_overrides_table(self):
        policy = ConsistencyPolicy(chunk_bytes=1024)
        assert policy.chunk_bytes == 1024
        assert "chunk_bytes=1024" in policy.describe()
        with pytest.raises(ValueError):
            ConsistencyPolicy(chunk_bytes=0)


class TestFaultPlansBypassPipelines:
    """Loss-capable fault plans must route around the pipelined path."""

    def test_auto_with_crash_plan_selects_tolerant_flat(self):
        n = PIPELINE_MIN_BYTES // 8 + 16  # large enough for the pipelined rules

        def worker(rt):
            plan = FaultPlan.single_crash(3, at_op=10_000)
            comm = Communicator(rt, faults=plan, detect_timeout=5.0)
            info = comm.resolve("bcast", n * 8)
            info_reduce = comm.resolve("reduce", n * 8)
            info_ar = comm.resolve("allreduce", n * 8)
            comm.close()
            return info.name, info_reduce.name, info_ar.name

        for bcast, reduce, allreduce in spmd(4, worker):
            assert bcast == "gaspi_bcast_tolerant"
            assert reduce == "gaspi_reduce_tolerant"
            assert allreduce == "gaspi_allreduce_tolerant"

    def test_nonblocking_with_fault_plan_completes_synchronously(self):
        n = 2048

        def worker(rt):
            plan = FaultPlan.single_crash(3, at_op=10_000)
            comm = Communicator(
                rt,
                faults=plan,
                detect_timeout=5.0,
                policy=ConsistencyPolicy.process_threshold(0.5, on_failure="complete"),
            )
            send = rank_vector(rt.rank, n)
            out = np.empty_like(send)
            handle = comm.iallreduce(send, recvbuf=out)
            done_at_return = handle.done
            result = handle.wait()
            comm.close()
            return done_at_return, result.algorithm

        for done, algorithm in spmd(4, worker):
            # No pipelined plan under a loss-capable fault plan: the call
            # ran synchronously through the tolerant algorithm.
            assert done
            assert algorithm == "gaspi_allreduce_tolerant"

    def test_pipelined_plans_skipped_when_faults_attached(self):
        n = PIPELINE_MIN_BYTES // 8 + 16

        def worker(rt):
            plan = FaultPlan.single_crash(2, at_op=10_000)
            comm = Communicator(
                rt,
                faults=plan,
                detect_timeout=5.0,
                policy=ConsistencyPolicy.process_threshold(0.5, on_failure="complete"),
            )
            send = rank_vector(rt.rank, n)
            comm.allreduce(send)
            algorithm = comm.last_result.algorithm
            stats = comm.plan_cache_stats()
            comm.close()
            return algorithm, stats.entries

        for algorithm, entries in spmd(4, worker):
            assert algorithm == "gaspi_allreduce_tolerant"
            assert entries == 0  # nothing was compiled


class TestPipelinedSchedules:
    """Simulator models: chunk waves overlap tree stages."""

    def test_bcast_waves_interleave_stages_and_chunks(self):
        sched = REGISTRY.build(
            "gaspi_bcast_bst_pipelined", 8, 1 << 20, chunk_bytes=1 << 18
        )
        assert sched.metadata["chunks"] == 4
        # 3 stages, 4 chunks -> 6 waves, each a round
        assert len(sched.rounds) == 6
        # total bytes conserved: every non-root rank receives the payload
        total = sum(m.nbytes for m in sched.messages())
        assert total == 7 * (1 << 20)

    def test_pipelining_shortens_simulated_time_for_large_payloads(self):
        from repro.simulate.executor import simulate_schedule

        machine = skylake_fdr(8)
        mono = REGISTRY.build("gaspi_bcast_bst", 8, 8 << 20)
        pipe = REGISTRY.build("gaspi_bcast_bst_pipelined", 8, 8 << 20, chunk_bytes=1 << 20)
        t_mono = simulate_schedule(mono, machine).total_time
        t_pipe = simulate_schedule(pipe, machine).total_time
        # The classic segmented-broadcast effect: S + C - 1 chunk times
        # instead of S full-payload times.
        assert t_pipe < t_mono

    def test_reduce_waves_run_deepest_stage_first(self):
        sched = REGISTRY.build(
            "gaspi_reduce_bst_pipelined", 8, 1 << 20, chunk_bytes=1 << 19
        )
        assert sched.metadata["chunks"] == 2
        first = sched.rounds[0].messages
        # wave 0 carries chunk 0 of the deepest stage only
        assert all(m.tag.endswith("chunk-0") for m in first)

    def test_ring_schedule_reports_sub_chunks(self):
        sched = REGISTRY.build(
            "gaspi_allreduce_ring_pipelined", 4, 4 << 20, chunk_bytes=1 << 18
        )
        assert sched.metadata["chunks"] == 4
        sched.validate()
