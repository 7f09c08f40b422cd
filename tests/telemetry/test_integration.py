"""Live telemetry: instrumented communicators, traces, identical numerics."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Communicator
from repro.core.policy import ConsistencyPolicy
from repro.core.registry import REGISTRY
from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    chrome_trace,
    merge_snapshots,
    validate_snapshot,
)
from tests.helpers import expected_sum, rank_vector, spmd

RANKS = 4
N = 4096  # large enough for several pipeline chunks with chunk_bytes below


def _allreduce_cell(runtime, iters=3, algorithm="ring_pipelined"):
    tel = Telemetry(rank=runtime.rank)
    comm = Communicator(
        runtime,
        telemetry=tel,
        policy=ConsistencyPolicy(chunk_bytes=4096),
    )
    out = None
    for _ in range(iters):
        out = comm.allreduce(rank_vector(runtime.rank, N), algorithm=algorithm)
    comm.close()
    return out, tel.snapshot(events=True)


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def cell(self):
        results = spmd(RANKS, _allreduce_cell)
        return [r[0] for r in results], [r[1] for r in results]

    def test_results_identical_to_uninstrumented_run(self, cell):
        values, _ = cell
        bare = spmd(
            RANKS,
            lambda rt: Communicator(rt).allreduce(
                rank_vector(rt.rank, N), algorithm="ring_pipelined"
            ),
        )
        expected = expected_sum(RANKS, N)
        for instrumented, plain in zip(values, bare):
            np.testing.assert_allclose(instrumented, expected, rtol=1e-12)
            np.testing.assert_array_equal(instrumented, plain)

    def test_snapshot_counts_dispatches_and_cache_outcomes(self, cell):
        _, snapshots = cell
        merged = merge_snapshots(snapshots)
        validate_snapshot(merged)
        assert merged["counters"]["collective.calls"] == 3 * RANKS
        assert merged["counters"]["plan_cache.misses"] == RANKS
        assert merged["counters"]["plan_cache.hits"] == 2 * RANKS
        assert merged["counters"]["runtime.writes"] > 0
        assert merged["counters"]["runtime.bytes_written"] > 0
        assert (
            merged["counters"]["runtime.notifications_posted"]
            >= merged["counters"]["runtime.notifications_consumed"] > 0
        )

    def test_dispatch_spans_carry_algorithm_and_outcome(self, cell):
        _, snapshots = cell
        for snap in snapshots:
            spans = [e for e in snap["events"] if e["cat"] == "collective"]
            assert len(spans) == 3
            for span in spans:
                assert span["name"] == "allreduce"
                assert span["args"]["outcome"] == "ok"
                assert span["args"]["algorithm"] == "gaspi_allreduce_ring_pipelined"
                assert span["args"]["plan_cache"] in ("hit", "miss")

    def test_chrome_trace_has_rank_rows_with_nested_chunks(self, cell):
        _, snapshots = cell
        trace = chrome_trace(snapshots)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in events} == set(range(RANKS))
        collectives = [e for e in events if e["cat"] == "collective"]
        chunks = [e for e in events if e["cat"] == "chunk"]
        assert chunks, "pipelined run must surface chunk spans"
        for chunk in chunks:
            assert any(
                parent["tid"] == chunk["tid"]
                and parent["ts"] <= chunk["ts"]
                and chunk["ts"] + chunk["dur"] <= parent["ts"] + parent["dur"] + 1.0
                for parent in collectives
            ), "every chunk span nests inside a collective span"
        names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert names == [f"rank {r}" for r in range(RANKS)]

    def test_wait_histogram_has_samples(self, cell):
        _, snapshots = cell
        merged = merge_snapshots(snapshots)
        chunk_wait = merged["histograms"]["pipeline.chunk_wait_s"]
        latency = merged["histograms"]["collective.latency_s"]
        assert latency["count"] == 3 * RANKS
        assert latency["p50"] <= latency["p99"] <= latency["max"]
        # Chunk waits happen whenever a rank blocks on a peer; with 4 ranks
        # and several chunks per call at least some ranks block.
        assert chunk_wait["count"] == merged["counters"]["pipeline.chunks"]


def test_blocked_hypercube_step_is_a_chunk_span():
    # Every blocking wait is recorded where the runtime stack brackets it,
    # so a late partner is visible as a wait, with its mailbox id.
    def worker(rt):
        tel = Telemetry(rank=rt.rank)
        comm = Communicator(rt, telemetry=tel)
        x = rank_vector(rt.rank, 128)
        comm.allreduce(x, algorithm="hypercube")  # compile
        rt.barrier()
        if rt.rank == 1:
            time.sleep(0.05)
        comm.allreduce(x, algorithm="hypercube")
        comm.close()
        return tel.snapshot(events=True)

    waiting = spmd(2, worker)[0]
    chunks = [e for e in waiting["events"] if e["cat"] == "chunk"]
    assert chunks and max(e["dur"] for e in chunks) >= 0.02
    assert all(e["args"]["count"] == 1 for e in chunks)  # one mailbox id
    assert waiting["histograms"]["pipeline.chunk_wait_s"]["count"] == len(chunks)


def test_wait_all_over_a_late_peer_is_a_chunk_span():
    # The nonblocking path: the wait is ProgressEngine.wait_until's, no
    # blocking execute() and no drive_pipeline() is involved.
    def worker(rt):
        tel = Telemetry(rank=rt.rank)
        comm = Communicator(rt, telemetry=tel)
        x, y = rank_vector(rt.rank, N), np.empty(N)
        comm.iallreduce(x, y).wait()  # compile
        rt.barrier()
        if rt.rank == 1:
            time.sleep(0.05)
        comm.iallreduce(x, y)
        comm.wait_all()
        comm.close()
        return y, tel.snapshot(events=True)

    value, waiting = spmd(2, worker)[0]
    np.testing.assert_array_equal(value, rank_vector(0, N) + rank_vector(1, N))
    chunks = [e for e in waiting["events"] if e["cat"] == "chunk"]
    assert chunks and max(e["dur"] for e in chunks) >= 0.02
    assert waiting["histograms"]["pipeline.chunk_wait_s"]["count"] == len(chunks)
    assert waiting["counters"]["pipeline.chunks"] == len(chunks)


PLANNABLE = [name for name in REGISTRY.names() if REGISTRY.get(name).plannable]


def _delivered(comm, name, nonblocking):
    """Three calls of one algorithm (two of them plan-cache hits), as bytes."""
    collective = REGISTRY.get(name).collective
    call = getattr(comm, ("i" if nonblocking else "") + collective)
    out = []
    for i in range(3):
        x, y = rank_vector(10 * i + comm.rank, N), np.zeros(N)
        if collective == "bcast":
            y = x if comm.rank == 1 else y
            handle = call(y, root=1, algorithm=name)
        elif collective == "reduce":
            handle = call(x, y, root=1, algorithm=name)
        elif collective == "allgather":
            y = np.zeros(N * comm.size)
            handle = call(x, y, algorithm=name)
        elif collective == "barrier":
            handle = call(algorithm=name)
            y = np.full(1, comm.plan_cache_stats().hits)
        else:  # allreduce, and alltoall: N splits into blocks at RANKS ranks
            handle = call(x, y, algorithm=name)
        if nonblocking:
            handle.wait()
        out.append(y.tobytes())
    return out


# Collectives without an ``i*`` method (alltoall, allgather, barrier) run blocking only.
NONBLOCKING = [n for n in PLANNABLE if hasattr(Communicator, "i" + REGISTRY.get(n).collective)]


@pytest.mark.parametrize(
    "name,nonblocking",
    [(name, False) for name in PLANNABLE] + [(name, True) for name in NONBLOCKING],
    ids=[f"{n}-blocking" for n in PLANNABLE] + [f"{n}-nonblocking" for n in NONBLOCKING],
)
def test_a_registry_changes_no_result_bit(name, nonblocking):
    # Several chunks per call for the pipelined plans; same waits, same
    # runtime calls and same folds with a registry as without one.
    policy = ConsistencyPolicy(chunk_bytes=4096)

    def worker(rt):
        bare = Communicator(rt, policy=policy)
        tel = Telemetry(rank=rt.rank)
        instrumented = Communicator(rt, segment_base=10_000, policy=policy, telemetry=tel)
        off = _delivered(bare, name, nonblocking)
        on = _delivered(instrumented, name, nonblocking)
        bare.close()
        instrumented.close()
        return off, on, tel.snapshot()["counters"]

    for off, on, counters in spmd(RANKS, worker):
        assert on == off
        assert counters["runtime.notifications_posted"] > 0  # attached, and fed


class TestDisabledPathEquivalence:
    def test_a_disabled_registry_adds_no_runtime_layer(self):
        def worker(runtime):
            comm = Communicator(runtime, telemetry=NULL_TELEMETRY)
            layers = list(comm.runtime.layers())
            out = comm.allreduce(rank_vector(runtime.rank, 128))
            comm.close()
            return layers == [runtime], out

        for unwrapped, out in spmd(2, worker):
            assert unwrapped
            np.testing.assert_allclose(out, expected_sum(2, 128), rtol=1e-12)

    def test_uninstrumented_communicator_uses_null_registry(self):
        def worker(runtime):
            comm = Communicator(runtime)
            assert not comm.telemetry.enabled
            out = comm.allreduce(rank_vector(runtime.rank, 128))
            snap = comm.telemetry.snapshot()
            comm.close()
            return out, snap

        results = spmd(2, worker)
        for out, snap in results:
            np.testing.assert_allclose(out, expected_sum(2, 128), rtol=1e-12)
            assert snap["counters"] == {}
            assert snap["events_recorded"] == 0


class TestSplitSharesRegistry:
    def test_child_communicator_counts_traffic_once(self):
        def worker(runtime):
            tel = Telemetry(rank=runtime.rank)
            comm = Communicator(runtime, telemetry=tel)
            child = comm.split(runtime.rank % 2)
            child.allreduce(rank_vector(runtime.rank, 64))
            child.close()
            comm.close()
            return tel.snapshot()

        snapshots = spmd(RANKS, worker)
        merged = merge_snapshots(snapshots)
        # The child dispatch span/counters land in the shared parent
        # registry; split's own allgather plus the child allreduce are
        # counted, and no metric is doubled by re-wrapping.
        assert merged["counters"]["collective.calls"] == RANKS
        writes = merged["counters"]["runtime.writes"]
        assert 0 < writes < 10 * RANKS * RANKS


class TestPreinstrumentedRuntime:
    """A runtime already carrying the registry is not wrapped (and counted)
    again, whatever sits on top of its ``TelemetryRuntime``."""

    @staticmethod
    def _one_allreduce(build):
        def worker(runtime):
            tel = Telemetry(rank=runtime.rank)
            comm = build(runtime, tel)
            comm.allreduce(np.ones(128))  # 1 KiB
            layers = [type(layer).__name__ for layer in comm.runtime.layers()]
            comm.close()
            return layers.count("TelemetryRuntime"), tel.snapshot()["counters"]

        return spmd(2, worker)

    @pytest.mark.parametrize("on_top", ["fault layer", "trace layer"])
    def test_counts_match_a_singly_instrumented_run(self, on_top):
        from repro.analysis.tracing import TraceSink
        from repro.faults import FaultPlan

        sink = TraceSink(2)

        def build(runtime, tel):
            if on_top == "fault layer":
                return Communicator(
                    runtime.instrumented(tel), faults=FaultPlan(), telemetry=tel
                )
            return Communicator(runtime.instrumented(tel).traced(sink), telemetry=tel)

        reference = self._one_allreduce(lambda rt, tel: Communicator(rt.instrumented(tel)))
        for (layers, counters), (_, expected) in zip(self._one_allreduce(build), reference):
            assert layers == 1
            for name in ("writes", "bytes_written", "notifications_posted",
                         "notifications_consumed"):
                assert counters[f"runtime.{name}"] == expected[f"runtime.{name}"] > 0


class TestFaultyRunTelemetry:
    def test_degraded_dispatch_records_outcome_and_suspicions(self):
        from repro.faults import FaultPlan

        plan = FaultPlan.single_crash(2, at_op=0)
        # Tolerant policy: survivors complete degraded instead of aborting,
        # so the dispatch span records outcome="degraded" + missing_ranks.
        tolerant = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")

        def worker(runtime):
            tel = Telemetry(rank=runtime.rank)
            comm = Communicator(
                runtime, faults=plan, detect_timeout=0.4, telemetry=tel
            )
            try:
                comm.allreduce(np.ones(64), policy=tolerant)
            except Exception:
                pass
            snap = tel.snapshot(events=True)
            comm.close()
            return runtime.rank, snap

        results = dict(spmd(RANKS, worker, timeout=90.0))
        survivors = [r for r in range(RANKS) if r != 2]
        merged = merge_snapshots([results[r] for r in survivors])
        assert merged["counters"]["faults.suspicions"] >= len(survivors)
        assert merged["histograms"]["faults.suspicion_latency_s"]["count"] >= 1
        degraded = [
            e
            for r in survivors
            for e in results[r]["events"]
            if e["args"].get("outcome") == "degraded"
        ]
        assert degraded
        assert all(e["args"]["missing_ranks"] == [2] for e in degraded)
