"""Plan cache behaviour: hits/misses, LRU, pinning, teardown, isolation."""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import Communicator, ConsistencyPolicy, FaultPlan, Telemetry, run_backend
from repro.core.plan import PlanCache, PlanKey
from repro.core.policy import CollectiveRequest
from repro.core.registry import REGISTRY
from repro.core.topology import BinomialTree
from repro.core.workspace import MAX_IDLE, RETIRE_BATCH, size_class
from repro.gaspi.runtime import RuntimeWrapper
from repro.simulate.machine import skylake_fdr
from repro.telemetry import TelemetryRuntime

from tests.helpers import rank_vector, spmd


class TestPlanCacheStats:
    def test_zero_dispatch_stats_are_safe(self):
        """Hit-rate reporting must not trip over the zero-dispatch case."""

        def worker(rt):
            comm = Communicator(rt)
            stats = comm.plan_cache_stats()  # before any collective
            snapshot = (
                stats.hits,
                stats.misses,
                stats.dispatches,
                stats.hit_rate,
                stats.describe(),
            )
            comm.close()
            return snapshot

        for hits, misses, dispatches, hit_rate, described in spmd(2, worker):
            assert (hits, misses, dispatches) == (0, 0, 0)
            assert hit_rate == 0.0  # no ZeroDivisionError
            assert "no plannable dispatches" in described

    def test_describe_after_dispatches(self):
        def worker(rt):
            comm = Communicator(rt)
            data = rank_vector(comm.rank, 256)
            for _ in range(3):
                comm.allreduce(data.copy())
            described = comm.plan_cache_stats().describe()
            comm.close()
            return described

        for described in spmd(2, worker):
            assert "2/3 hits" in described and "66.7%" in described

    def test_repeated_allreduce_hits_the_cache(self):
        def worker(rt):
            comm = Communicator(rt)
            x = rank_vector(rt.rank, 256)
            for _ in range(5):
                comm.allreduce(x, algorithm="ring")
            stats = comm.plan_cache_stats()
            comm.close()
            return stats

        for stats in spmd(4, worker):
            assert stats.misses == 1  # first call compiled the plan
            assert stats.hits == 4  # every repeat was served from cache
            assert stats.entries == 1
            assert stats.hit_rate == pytest.approx(0.8)

    def test_exchanges_and_the_dissemination_barrier_hit_the_cache(self):
        # Cached since they became plans; an alltoallv never is (a per-rank
        # key would desynchronise the cache), and leaves its stats alone.
        def worker(rt):
            comm = Communicator(rt)
            x = rank_vector(rt.rank, 64)
            for _ in range(3):
                comm.alltoall(x)
                comm.allgather(x)
                comm.barrier(algorithm="dissemination")
                comm.alltoallv(x, [16] * 4, [16] * 4)
            stats = comm.plan_cache_stats()
            comm.close()
            return stats.misses, stats.hits, stats.entries

        assert spmd(4, worker) == [(3, 6, 3)] * 4

    def test_distinct_shapes_get_distinct_plans(self):
        def worker(rt):
            comm = Communicator(rt)
            comm.allreduce(rank_vector(rt.rank, 64), algorithm="ring")
            comm.allreduce(rank_vector(rt.rank, 128), algorithm="ring")  # new nbytes
            comm.allreduce(
                rank_vector(rt.rank, 64, np.float32), algorithm="ring"
            )  # new dtype
            comm.allreduce(rank_vector(rt.rank, 64), op="max", algorithm="ring")  # new op
            comm.allreduce(rank_vector(rt.rank, 64), algorithm="ring")  # hit
            stats = comm.plan_cache_stats()
            comm.close()
            return stats

        for stats in spmd(2, worker):
            assert stats.misses == 4
            assert stats.hits == 1
            assert stats.entries == 4

    def test_zero_capacity_disables_planning(self):
        def worker(rt):
            comm = Communicator(rt, plan_cache=0)
            x = rank_vector(rt.rank, 64)
            for _ in range(3):
                comm.allreduce(x, algorithm="ring")
            stats = comm.plan_cache_stats()
            comm.close()
            return stats

        for stats in spmd(2, worker):
            assert stats.hits == 0
            assert stats.misses == 0
            assert stats.entries == 0

    def test_loss_capable_fault_plan_disables_planning(self):
        def worker(rt):
            comm = Communicator(
                rt,
                faults=FaultPlan.single_crash(3, at_op=10_000),
                detect_timeout=0.2,
                policy=ConsistencyPolicy(threshold=0.5, mode="processes",
                                         on_failure="complete"),
            )
            x = rank_vector(rt.rank, 64)
            comm.allreduce(x)
            comm.allreduce(x)
            stats = comm.plan_cache_stats()
            comm.close()
            return stats

        for stats in spmd(4, worker):
            assert stats.entries == 0
            assert stats.hits == 0

    def test_slack_policies_are_planned(self):
        def worker(rt):
            comm = Communicator(rt)
            x = rank_vector(rt.rank, 32)
            for _ in range(2):
                comm.allreduce(x, policy=ConsistencyPolicy.ssp(2), algorithm="hypercube")
            stats = comm.plan_cache_stats()
            comm.close()
            return stats

        for stats in spmd(4, worker):
            assert (stats.entries, stats.misses, stats.hits) == (1, 1, 1)


class TestLruEviction:
    def test_eviction_frees_the_oldest_plan_segment(self):
        def worker(rt):
            comm = Communicator(rt, plan_cache=2)
            for elements in (16, 32, 64):  # three shapes, capacity two
                comm.allreduce(rank_vector(rt.rank, elements), algorithm="ring")
            stats = comm.plan_cache_stats()
            comm.close()
            return stats, len(rt.world._segments[rt.rank])

        for stats, open_segments in spmd(2, worker):
            assert stats.entries == 2
            assert stats.evictions == 1
            # close() freed the cached plans; the evicted one was freed
            # at eviction time — nothing may remain open.
            assert open_segments == 0

    def test_pinned_plans_survive_eviction(self):
        def worker(rt):
            comm = Communicator(rt, plan_cache=2)
            handle = comm.persistent("allreduce", np.empty(16), algorithm="ring")
            for elements in (32, 64, 128):
                comm.allreduce(rank_vector(rt.rank, elements), algorithm="ring")
            # The pinned 16-element plan must still be served from cache.
            before = comm.plan_cache_stats().hits
            result = handle(np.full(16, 1.0))
            after = comm.plan_cache_stats().hits
            handle.close()
            comm.close()
            return before, after, float(result.value[0])

        for before, after, value in spmd(2, worker):
            assert after == before + 1
            assert value == 2.0


class TestPersistentHandles:
    def test_persistent_allreduce_matches_implicit_calls(self):
        def worker(rt):
            comm = Communicator(rt)
            x = rank_vector(rt.rank, 512)
            expected = comm.allreduce(np.array(x), algorithm="ring")
            with comm.persistent("allreduce", np.empty(512), algorithm="ring") as h:
                got = h(np.array(x)).value
                calls = h.calls
            comm.close()
            return expected, got, calls

        for expected, got, calls in spmd(4, worker):
            np.testing.assert_array_equal(expected, got)
            assert calls >= 1

    def test_persistent_bcast_and_reduce(self):
        def worker(rt):
            comm = Communicator(rt)
            hb = comm.persistent("bcast", np.empty(64), root=1, algorithm="bst")
            buf = np.full(64, float(rt.rank))
            hb(buf)
            hr = comm.persistent("reduce", np.empty(64), root=0, op="max",
                                 algorithm="bst")
            out = np.zeros(64) if rt.rank == 0 else None
            hr(np.full(64, float(rt.rank)), recvbuf=out)
            hb.close()
            hr.close()
            comm.close()
            return buf[0], None if out is None else out[0]

        results = spmd(4, worker)
        for rank, (bval, rval) in enumerate(results):
            assert bval == 1.0  # broadcast from root 1
            if rank == 0:
                assert rval == 3.0  # max over ranks 0..3

    def test_mismatched_payload_is_rejected(self):
        def worker(rt):
            comm = Communicator(rt)
            h = comm.persistent("allreduce", np.empty(64), algorithm="ring")
            try:
                with pytest.raises(ValueError, match="does not match"):
                    h(np.empty(128))
            finally:
                # Recover collectively so every rank exits cleanly.
                h(np.full(64, 1.0))
                h.close()
                comm.close()
            return True

        assert all(spmd(2, worker))

    def test_unplannable_algorithm_is_rejected(self):
        def worker(rt):
            comm = Communicator(rt)
            with pytest.raises(ValueError, match="does not support compiled plans"):
                comm.persistent("alltoall", np.empty(16), algorithm="mpi_alltoall_pairwise")
            comm.close()
            return True

        assert all(spmd(2, worker))

    def test_pins_are_reference_counted_across_same_shape_handles(self):
        # Closing one of two handles over the same shape must not expose
        # the surviving handle's plan to LRU eviction.
        def worker(rt):
            comm = Communicator(rt, plan_cache=2)
            h1 = comm.persistent("allreduce", np.empty(64), algorithm="ring")
            h2 = comm.persistent("allreduce", np.empty(64), algorithm="ring")
            h1.close()
            for elements in (32, 128, 256):  # pressure the 2-entry cache
                comm.allreduce(rank_vector(rt.rank, elements), algorithm="ring")
            result = h2(np.full(64, 1.0))  # must still be served, not torn down
            h2.close()
            comm.close()
            return float(result.value[0])

        assert spmd(2, worker) == [2.0, 2.0]

    def test_closed_handle_refuses_calls(self):
        def worker(rt):
            comm = Communicator(rt)
            h = comm.persistent("allreduce", np.empty(16), algorithm="ring")
            h.close()
            with pytest.raises(ValueError, match="already closed"):
                h(np.empty(16))
            comm.close()
            return True

        assert all(spmd(2, worker))


class TestTeardown:
    def test_close_frees_each_pooled_segment_exactly_once(self):
        def worker(rt):
            comm = Communicator(rt)
            comm.allreduce(rank_vector(rt.rank, 64), algorithm="ring")
            comm.bcast(np.zeros(64), root=0, algorithm="bst")
            open_before = len(rt.world._segments[rt.rank])
            comm.close()
            open_after = len(rt.world._segments[rt.rank])
            comm.close()  # idempotent — must not raise or double-free
            return open_before, open_after

        for open_before, open_after in spmd(4, worker):
            assert open_before == 2  # the two pooled plan workspaces
            assert open_after == 0

    def test_close_survives_a_faulty_runtime_wrapper(self):
        # A benign (timing-only) fault plan keeps planning enabled; close()
        # must free the pooled segments through the FaultyRuntime wrapper.
        def worker(rt):
            comm = Communicator(rt, faults=FaultPlan(delay={0: 0.0}))
            comm.allreduce(rank_vector(rt.rank, 32), algorithm="ring")
            assert comm.plan_cache_stats().entries == 1
            comm.close()
            return len(rt.world._segments[rt.rank])

        assert spmd(2, worker) == [0, 0]


def _runtime_counts(tel):
    counters = tel.snapshot()["counters"]
    return tuple(
        counters.get(f"runtime.{name}", 0)
        for name in ("barriers", "segments_created", "segments_deleted")
    )


def _distinct_class_elements(count):
    """float64 element counts whose payloads fall in distinct size classes."""
    out, nbytes = [], 64
    while len(out) < count:
        out.append(nbytes // 8)
        nbytes = size_class(nbytes + 1)
    return out


class TestWorkspaceRecycling:
    """Counts, not timings: the gate cannot flake on a loaded runner."""

    def test_misses_and_hits_register_no_segments_once_warm(self):
        shapes = _distinct_class_elements(25)  # > 16: the cycle never hits

        def worker(rt):
            tel = Telemetry(rank=rt.rank, max_events=0)
            comm = Communicator(rt, telemetry=tel)
            buffers = [np.full(n, float(rt.rank)) for n in shapes]
            for i in range(200):
                comm.bcast(buffers[i % 25], root=0, algorithm="bst")
            misses = comm.plan_cache_stats().misses
            after_misses = _runtime_counts(tel)
            live = [buffers[i % 25] for i in range(184, 200)]  # LRU order
            for i in range(208):
                comm.bcast(live[i % 16], root=0, algorithm="bst")
            hits = comm.plan_cache_stats().hits
            after_hits = _runtime_counts(tel)
            comm.close()
            return misses, after_misses, hits, after_hits, _runtime_counts(tel)

        for misses, cold, hits, warm, closed in spmd(2, worker):
            assert misses == 200 and hits == 208
            barriers, created, deleted = cold
            # A create's barrier, or one per batch of evictions' releases.
            assert barriers <= created + -(-200 // RETIRE_BATCH)
            assert created <= 2 * 25  # two per size class
            assert deleted == 0
            assert warm == cold  # 208 hits: no barrier, no create, no delete
            assert closed[0] == cold[0] + 1  # close(): one barrier ...
            assert closed[2] == created  # ... and every segment deleted once

    COLD_CALLS = {
        "bcast_bst": lambda c, x, y: c.bcast(x, root=1, algorithm="bst"),
        "bcast_flat": lambda c, x, y: c.bcast(x, root=1, algorithm="flat"),
        "reduce_bst": lambda c, x, y: c.reduce(x, y, root=0, algorithm="bst"),
        "reduce_pipelined": lambda c, x, y: c.reduce(
            x, y, algorithm="gaspi_reduce_bst_pipelined"
        ),
        "allreduce_ring": lambda c, x, y: c.allreduce(x, y, algorithm="ring"),
        "allreduce_hypercube": lambda c, x, y: c.allreduce(x, y, algorithm="hypercube"),
        "allreduce_pipelined": lambda c, x, y: c.allreduce(
            x, y, algorithm="gaspi_allreduce_ring_pipelined"
        ),
        "alltoall": lambda c, x, y: c.alltoall(x, y),
        "allgather": lambda c, x, y: c.allgather(x[:16]),
        "barrier": lambda c, x, y: c.barrier(algorithm="auto"),
        # A throwaway plan stays staged: no window bound per call.
        "bcast_pipelined": lambda c, x, y: c.bcast(
            x, root=1, algorithm="gaspi_bcast_bst_pipelined"
        ),
        # An exact lease, registered per call as before: a receive region
        # sized by this rank's counts.
        "alltoallv": lambda c, x, y: c.alltoallv(x, [16] * 4, [16] * 4, y),
    }

    @pytest.mark.parametrize("shape", sorted(COLD_CALLS))
    def test_cold_calls_cost_a_barrier_per_batch(self, shape):
        call = self.COLD_CALLS[shape]

        def worker(rt):
            tel = Telemetry(rank=rt.rank, max_events=0)
            comm = Communicator(rt, plan_cache=0, telemetry=tel)
            x, y = np.full(64, float(rt.rank)), np.empty(64)
            for _ in range(200):
                call(comm, x, y)
            counts = _runtime_counts(tel)
            comm.close()
            return counts

        for barriers, created, deleted in spmd(4, worker):
            if shape == "alltoallv":
                assert (barriers, created, deleted) == (400, 200, 200)
                continue
            # One barrier per batch of releases; the segments that rotate
            # through leased, retired, cooling and free — a batch retiring
            # while the one before it cools — cost a create + barrier each.
            assert created <= 2 * RETIRE_BATCH
            assert barriers <= -(-200 // RETIRE_BATCH) + created
            assert deleted == 0

    def test_segment_ids_are_recycled_with_their_segments(self):
        # 32 ids for its own collectives: every miss used to burn one.
        shapes = _distinct_class_elements(4)

        def worker(rt):
            comm = Communicator(rt, segment_span=64, plan_cache=2)
            cold = Communicator(rt, segment_base=1000, segment_span=64, plan_cache=0)
            buffers = [np.full(n, float(rt.rank)) for n in shapes]
            for i in range(10_000):
                comm.bcast(buffers[i % 4], root=0, algorithm="flat")
            for i in range(10_000):
                cold.bcast(buffers[i % 4], root=0, algorithm="flat")
            cold.alltoallv(np.ones(2), [1, 1], [1, 1])  # exact lease: id reused
            stats = comm.plan_cache_stats()
            ids = (comm.last_segment_id, cold.last_segment_id)
            comm.close()
            cold.close()
            return stats.misses, ids, len(rt.world._segments[rt.rank])

        for misses, (main_id, cold_id), open_segments in spmd(2, worker):
            assert misses == 10_000
            assert 200 <= main_id < 232 and 1000 <= cold_id < 1032
            assert open_segments == 0

    @pytest.mark.parametrize("backend", ["threaded", "shm"])
    def test_a_size_sweep_keeps_idle_segments_bounded(self, backend):
        # 600 distinct payloads touch ~30 size classes; without a bound on
        # idle segments summed over classes, the world's 256 segments run
        # out at the 458th size.
        def worker(rt):
            tel = Telemetry(rank=rt.rank, max_events=0)
            comm = Communicator(rt, telemetry=tel)
            peak = 0
            for n in range(1, 601):
                comm.allreduce(np.full(n, float(rt.rank)))
                _, created, deleted = _runtime_counts(tel)
                peak = max(peak, created - deleted)
            value = comm.allreduce(np.ones(600))[0]
            comm.close()
            return peak, value

        for peak, value in run_backend(2, worker, backend=backend, timeout=120):
            assert value == 2.0
            # leased + idle + a batch cooling + one short of a batch retired + new
            assert peak <= 16 + MAX_IDLE + 2 * RETIRE_BATCH


class _CountingRuntime:
    """Forwards everything to ``inner``; counts the calls by method name."""

    def __init__(self, inner):
        self._inner = inner
        self.counts = Counter()

    def __getattr__(self, name):
        attribute = getattr(self._inner, name)
        if not callable(attribute):
            return attribute

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return attribute(*args, **kwargs)

        return counted


def _counted_communicator(rt, instrumented):
    """A communicator over a counting runtime, below a registry if asked for one."""
    counting = _CountingRuntime(rt)
    if not instrumented:
        return counting, Communicator(counting)
    tel = Telemetry(rank=rt.rank)
    return counting, Communicator(TelemetryRuntime(counting, tel), telemetry=tel)


_REPRO_DIR = str(Path(repro.__file__).parent)


def _python_calls(call):
    """How many ``repro`` functions ``call()`` enters (generator resumes included)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(_REPRO_DIR):
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def _late(rt, call):
    """Rank 1 enters every tenth call late, so its partners' waits block."""
    if rt.rank == 1 and call % 10 == 0:
        time.sleep(0.002)


class _FaultFlagReads(RuntimeWrapper):
    """Counts the reads of ``fault_injected`` (a walk through every wrapper)."""

    reads = 0

    @property
    def fault_injected(self):
        self.reads += 1
        return self.inner.fault_injected


class TestHitCostsItsWireOps:
    """Counts, not timings: what a plan-cache hit may still do per call.

    The hypercube and reduce gates run bare and under a registry: an
    instrumented hit issues exactly the bare call's runtime operations,
    also when a wait blocks.
    """

    def test_hits_build_no_plan_key_and_validate_no_policy(self, monkeypatch):
        built = Counter()

        def counting(cls, method):
            original = getattr(cls, method)

            def wrapper(self, *args, **kwargs):
                built[cls.__name__] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, wrapper)

        counting(PlanKey, "__init__")
        counting(ConsistencyPolicy, "__post_init__")
        PlanKey.from_dict(
            PlanKey.from_request(
                REGISTRY.get("gaspi_allreduce_ring"),
                type("FakeRuntime", (), {"size": 4}),
                CollectiveRequest("allreduce", sendbuf=np.zeros(8)),
            ).to_dict()
        )
        assert built["PlanKey"] >= 1 and built["ConsistencyPolicy"] == 1

        def worker(rt):
            comm = Communicator(rt)
            x, y = np.full(128, float(rt.rank)), np.empty(128)  # the *_1k shapes
            handle = comm.persistent("allreduce", np.empty(256))

            def round_of_calls():
                comm.allreduce(x, y)
                comm.bcast(x, root=0)
                comm.reduce(x, y, root=0)
                handle(np.ones(256))

            round_of_calls()  # compiles the four plans
            rt.barrier()  # ... on every rank, before anybody snapshots
            before = dict(built), comm.plan_cache_stats().hits
            for _ in range(200):
                round_of_calls()
            rt.barrier()
            after = dict(built), comm.plan_cache_stats().hits
            algorithm = comm.last_result.algorithm
            handle.close()
            comm.close()
            return before, after, algorithm

        for (built0, hits0), (built1, hits1), algorithm in spmd(2, worker):
            assert hits1 - hits0 == 800
            assert built1 == built0
            assert algorithm == "gaspi_allreduce_ssp_hypercube"

    def test_a_cached_call_reads_the_fault_flag_at_most_once(self):
        # The flag walks every wrapper of the runtime stack; a memo hit
        # decided it when the call's entry was bound.
        calls = 20

        def worker(rt):
            flagged = _FaultFlagReads(rt)
            comm = Communicator(flagged)
            x, y = np.full(128, float(rt.rank)), np.empty(128)

            def round_of_calls():
                comm.allreduce(x, y)
                comm.bcast(x, root=0)
                comm.reduce(x, y, root=0)
                comm.iallreduce(x, y).wait()

            round_of_calls()  # compiles the plans, fills the dispatch memo
            before = flagged.reads
            for _ in range(calls):
                round_of_calls()
            spent = flagged.reads - before
            comm.close()
            return spent

        assert all(spent <= 4 * calls for spent in spmd(2, worker))

    @pytest.mark.parametrize("backend", ["threaded", "shm"])
    def test_a_cached_call_stays_under_its_python_call_ceiling(self, backend):
        # ``repro`` functions entered by one cached call of each *_1k shape,
        # wire included, on the rank that enters late (so every wait finds
        # its notification posted and the count is exact): 38-46 measured,
        # so dispatch cannot silently regrow.
        ceiling = 48

        def worker(rt):
            comm = Communicator(rt)
            x, y = np.full(128, float(rt.rank)), np.empty(128)
            handle = comm.persistent("allreduce", np.empty(128))
            calls = {
                "allreduce": lambda: comm.allreduce(x, y),
                "bcast": lambda: comm.bcast(x, root=0),
                "reduce": lambda: comm.reduce(x, y, root=0),
                "persistent": lambda: handle(x, y),
            }
            spent = {}
            for name, call in calls.items():
                call()  # compiles
                call()  # binds the memo entry
                rt.barrier()
                if rt.rank == 1:
                    time.sleep(0.005)
                    spent[name] = _python_calls(call)
                else:
                    call()
            rt.barrier()
            handle.close()
            comm.close()
            return spent

        spent = run_backend(2, worker, backend=backend, timeout=60)[1]
        assert max(spent.values()) <= ceiling, spent

    @pytest.mark.parametrize("instrumented", [False, True], ids=["bare", "telemetry"])
    @pytest.mark.parametrize("ranks", [2, 8])
    def test_planned_hypercube_call_is_one_write_wait_reset_per_step(
        self, ranks, instrumented
    ):
        calls, steps = 50, ranks.bit_length() - 1

        def worker(rt):
            counting, comm = _counted_communicator(rt, instrumented)
            x, y = np.full(128, float(rt.rank)), np.empty(128)
            comm.allreduce(x, y, algorithm="hypercube")  # compile
            before = Counter(counting.counts)
            for call in range(calls):
                _late(rt, call)
                comm.allreduce(x, y, algorithm="hypercube")
            spent = counting.counts - before
            comm.close()
            return spent, float(y[0])

        for spent, value in spmd(ranks, worker):
            assert value == ranks * (ranks - 1) / 2
            for op in ("write_notify_from", "notify_waitsome", "notify_reset"):
                assert spent[op] == calls * steps, op
            for op in ("segment_read", "segment_view", "write_notify", "barrier"):
                assert spent[op] == 0, op

    @pytest.mark.parametrize("instrumented", [False, True], ids=["bare", "telemetry"])
    @pytest.mark.parametrize("ranks", [2, 5, 8])
    @pytest.mark.parametrize(
        "policy", [ConsistencyPolicy(), ConsistencyPolicy.data_threshold(0.25)]
    )
    def test_planned_reduce_call_is_one_wait_reset_and_post_per_tree_edge(
        self, ranks, policy, instrumented
    ):
        # Per call and tree edge: the child's push, the parent's wait + reset
        # of it and the credit back, the child's wait + reset of that credit
        # (of the previous call: every counted call has one to consume).
        calls, tree = 50, BinomialTree(ranks, 0)

        def worker(rt):
            counting, comm = _counted_communicator(rt, instrumented)
            x, y = np.full(128, float(rt.rank)), np.empty(128)
            comm.reduce(x, y, root=0, policy=policy, algorithm="bst")  # compile
            before = Counter(counting.counts)
            for call in range(calls):
                _late(rt, call)
                comm.reduce(x, y, root=0, policy=policy, algorithm="bst")
            spent = counting.counts - before
            comm.close()
            return spent, float(y[0])

        results = spmd(ranks, worker)
        assert results[0][1] == ranks * (ranks - 1) / 2
        for rank, (spent, _) in enumerate(results):
            children = len(tree.children(rank))
            pushes = 0 if tree.parent(rank) is None else 1
            assert spent["write_notify_from"] == calls * pushes, rank
            assert spent["notify"] == calls * children, rank
            for op in ("notify_waitsome", "notify_reset"):
                assert spent[op] == calls * (children + pushes), (rank, op)
            for op in ("segment_read", "segment_view", "write_notify", "barrier"):
                assert spent[op] == 0, (rank, op)

    def test_a_partner_that_never_posts_is_a_timeout_not_a_hang(self, monkeypatch):
        monkeypatch.setattr("repro.core.plan.PLAN_WAIT_TIMEOUT", 0.2)

        def worker(rt):
            comm = Communicator(rt)
            x = np.ones(16)
            comm.allreduce(x, algorithm="hypercube")  # compile; call 0
            message, elapsed = None, 0.0
            if rt.rank == 0:
                started = time.perf_counter()
                with pytest.raises(TimeoutError) as caught:
                    comm.allreduce(x, algorithm="hypercube")
                message, elapsed = str(caught.value), time.perf_counter() - started
            rt.barrier()  # rank 1 never entered call 1
            comm.close()
            return message, elapsed

        message, elapsed = spmd(2, worker)[0]
        assert elapsed < 10.0
        for part in ("rank 0", "step 0", "partner 1", "call 1"):
            assert part in message


    def test_a_child_that_never_posts_is_a_timeout_not_a_hang(self, monkeypatch):
        monkeypatch.setattr("repro.core.plan.PLAN_WAIT_TIMEOUT", 0.2)

        def worker(rt):
            comm = Communicator(rt)
            x = np.ones(16)
            comm.reduce(x, np.empty(16), algorithm="bst")  # compile; call 0
            message, elapsed = None, 0.0
            if rt.rank == 0:
                started = time.perf_counter()
                with pytest.raises(TimeoutError) as caught:
                    comm.reduce(x, np.empty(16), algorithm="bst")
                message, elapsed = str(caught.value), time.perf_counter() - started
            rt.barrier()  # rank 1 never entered call 1
            comm.close()
            return message, elapsed

        message, elapsed = spmd(2, worker)[0]
        assert elapsed < 10.0
        for part in ("rank 0", "DATA from child 1", "call 1"):
            assert part in message

    def test_a_parent_that_never_credits_is_a_timeout_not_a_hang(self, monkeypatch):
        monkeypatch.setattr("repro.core.plan.PLAN_WAIT_TIMEOUT", 0.2)

        def worker(rt):
            comm = Communicator(rt)
            x = np.ones(16)
            comm.reduce(x, np.empty(16), algorithm="bst")  # compile; call 0
            message, elapsed = None, 0.0
            if rt.rank == 1:
                # One call ahead is what the credit of call 0 pays for ...
                comm.reduce(x, algorithm="bst")
                started = time.perf_counter()
                with pytest.raises(TimeoutError) as caught:
                    comm.reduce(x, algorithm="bst")  # ... two is not
                message, elapsed = str(caught.value), time.perf_counter() - started
            rt.barrier()  # rank 0 never entered call 1
            comm.close()
            return message, elapsed

        message, elapsed = spmd(2, worker)[1]
        assert elapsed < 10.0
        for part in ("rank 1", "credit from parent 0", "call 2"):
            assert part in message


class TestDispatchMemo:
    """A memo hit skips the dispatch, so every event that reroutes a call must
    still reroute it: same result, same error, same counters as the full path."""

    def test_suspicion_unbinds_the_memo_and_keeps_the_plan(self):
        # A strict plan never reads ``known_failed``: under suspicion the
        # call takes the full dispatch (nothing is bound) to the same plan.
        def worker(rt):
            comm = Communicator(rt)
            x, y = np.full(128, float(rt.rank + 1)), np.empty(128)
            for _ in range(3):
                comm.allreduce(x, y)
            plan_segment, hits = comm.last_segment_id, comm.plan_cache_stats().hits
            comm.suspect(1 - rt.rank)
            comm.allreduce(x, y)
            bound = [entry.plan for entry in comm._memo.values()]
            suspected = (y[0], comm.plan_cache_stats().hits - hits, comm.last_segment_id)
            comm.reinstate(1 - rt.rank)
            comm.allreduce(x, y)
            reinstated = (y[0], comm.plan_cache_stats().hits - hits, comm.last_segment_id)
            comm.close()
            return plan_segment, bound, suspected, reinstated

        for plan_segment, bound, suspected, reinstated in spmd(2, worker):
            assert bound == [None]
            assert suspected == (3.0, 1, plan_segment)
            assert reinstated == (3.0, 2, plan_segment)

    def test_an_evicted_plan_recompiles_and_never_runs_again(self):
        def worker(rt):
            comm = Communicator(rt, plan_cache=2)
            buffers = [np.full(n, 1.0) for n in (128, 256, 512)]
            comm.allreduce(buffers[0])
            comm.allreduce(buffers[0])  # bound to the first plan
            first = next(iter(comm._plans._plans.values()))
            for buffer in buffers[1:]:
                comm.allreduce(buffer)  # the second shape evicts the first
            calls, misses = first.calls, comm.plan_cache_stats().misses
            value = comm.allreduce(buffers[0])
            out = (
                first.closed,
                first.calls - calls,
                comm.plan_cache_stats().misses - misses,
                float(value[0]),
            )
            comm.close()
            return out

        assert spmd(2, worker) == [(True, 0, 1, 2.0)] * 2

    def test_a_blocking_hit_drains_a_handle_on_its_plan_first(self):
        def worker(rt):
            comm = Communicator(rt)
            x = np.full(128, float(rt.rank + 1))
            comm.allreduce(x, np.empty(128))
            comm.allreduce(x, np.empty(128))  # bound
            early, late = np.empty(128), np.empty(128)
            handle = comm.iallreduce(x, early)  # same plan, left in flight
            comm.allreduce(2 * x, late)
            done = handle.done
            comm.close()
            return done, early[0], late[0]

        assert spmd(2, worker) == [(True, 3.0, 6.0)] * 2

    def test_a_telemetry_hit_is_recorded_as_a_hit(self):
        def worker(rt):
            tel = Telemetry(rank=rt.rank)
            comm = Communicator(rt, telemetry=tel)
            x = np.full(128, 1.0)
            for _ in range(3):
                comm.bcast(x, root=0)
            comm.close()
            snapshot = tel.snapshot(events=True)
            spans = [e["args"]["plan_cache"] for e in snapshot["events"] if e["cat"] == "collective"]
            return spans, snapshot["counters"]["plan_cache.hits"]

        assert spmd(2, worker) == [(["miss", "hit", "hit"], 2)] * 2

    def test_a_machine_model_still_simulates_every_call(self):
        def worker(rt):
            comm = Communicator(rt, machine=skylake_fdr(2))
            simulated = []
            for _ in range(3):
                comm.allreduce(np.full(128, 1.0))
                simulated.append(comm.last_result.simulated_seconds)
            hits = comm.plan_cache_stats().hits
            comm.close()
            return simulated, hits

        for simulated, hits in spmd(2, worker):
            assert hits == 2
            assert simulated[0] > 0 and len(set(simulated)) == 1

    MISUSE = {
        "unknown op": (lambda c, x: c.allreduce(x, op="nope"), "nope"),
        "unsupported dtype": (
            lambda c, x: c.allreduce(x.astype(np.float32), algorithm="mpi_allreduce_default"),
            "only supports dtype float64",
        ),
        "unsupported policy": (
            lambda c, x: c.allreduce(
                x, policy=ConsistencyPolicy.data_threshold(0.5), algorithm="ring"
            ),
            "does not support partial",
        ),
    }

    @pytest.mark.parametrize("case", sorted(MISUSE))
    def test_misuse_raises_the_same_error_on_every_call(self, case):
        call, message = self.MISUSE[case]

        def worker(rt):
            comm = Communicator(rt)
            x = np.full(128, 1.0)
            comm.allreduce(x)
            comm.allreduce(x)  # a bound entry beside the misuse
            errors = set()
            for _ in range(100):
                with pytest.raises(ValueError) as caught:
                    call(comm, x)
                errors.add(str(caught.value))
            value = comm.allreduce(x)[0]
            comm.close()
            return errors, value

        for errors, value in spmd(2, worker):
            assert len(errors) == 1 and message in errors.pop()
            assert value == 2.0

    def test_the_memo_stays_bounded_over_a_size_sweep(self):
        def worker(rt):
            comm = Communicator(rt)
            for n in range(1, 2001):
                comm.allreduce(np.ones(n))
            entries = len(comm._memo)
            comm.close()
            return entries

        assert all(entries <= 256 for entries in spmd(2, worker))

    def test_a_policy_built_per_call_hits_like_a_shared_one(self):
        def worker(rt):
            comm = Communicator(rt)
            x = np.full(128, 1.0)
            same = []
            for _ in range(50):
                policy = ConsistencyPolicy.data_threshold(0.5)
                comm.bcast(x, root=0, policy=policy)
                same.append(comm.last_result.policy is policy)
            out = (len(comm._memo), comm.plan_cache_stats().hits, all(same))
            comm.close()
            return out

        assert spmd(2, worker) == [(1, 49, True)] * 2

    def test_a_recovered_crash_returns_to_the_planned_algorithms(self):
        def worker(rt):
            comm = Communicator(rt, faults=FaultPlan(crash_at={rt.rank: 10**6}))
            x = np.full(128, 1.0)
            comm.allreduce(x)
            comm.allreduce(x)
            tolerant = (comm.last_result.algorithm, comm.plan_cache_stats().entries)
            comm.runtime.recover()  # forgets this rank's crash_at: nothing is lossy
            values = [comm.allreduce(x)[0] for _ in range(3)]
            planned = (comm.last_result.algorithm, comm.plan_cache_stats().hits)
            comm.close()
            return tolerant, planned, values

        for tolerant, planned, values in spmd(2, worker):
            assert tolerant[1] == 0
            assert planned[0] != tolerant[0] and planned[1] == 2
            assert values == [2.0] * 3


class TestSplitIsolation:
    def test_children_never_share_plans_or_pools_with_the_parent(self):
        def worker(rt):
            comm = Communicator(rt)
            comm.allreduce(rank_vector(rt.rank, 64), algorithm="ring")
            parent_key = next(iter(comm._plans._plans))
            child = comm.split(color=rt.rank % 2)
            child.allreduce(rank_vector(rt.rank, 64), algorithm="ring")
            child_key = next(iter(child._plans._plans))
            child_plan = child._plans._plans[child_key]
            parent_plan = comm._plans._plans[parent_key]
            # Disjoint caches, disjoint pooled segments.
            assert child._plans is not comm._plans
            assert child_plan.segment_id != parent_plan.segment_id
            assert parent_key not in child._plans
            # Parent's cache is untouched by the child's dispatches.
            parent_stats = comm.plan_cache_stats()
            child.close()
            # Closing the child must not free the parent's pooled segment:
            # the parent plan still serves calls.
            comm.allreduce(rank_vector(rt.rank, 64), algorithm="ring")
            comm.close()
            return parent_stats.entries, parent_stats.misses

        for entries, misses in spmd(4, worker):
            assert entries == 1
            assert misses == 1


class TestPlanKeyAndCacheUnits:
    def test_plan_key_ignores_payload_values(self):
        info = REGISTRY.get("gaspi_allreduce_ring")

        class FakeRuntime:
            size = 4

        a = PlanKey.from_request(
            info, FakeRuntime(), CollectiveRequest("allreduce", sendbuf=np.zeros(8))
        )
        b = PlanKey.from_request(
            info, FakeRuntime(), CollectiveRequest("allreduce", sendbuf=np.ones(8))
        )
        assert a == b
        c = PlanKey.from_request(
            info, FakeRuntime(), CollectiveRequest("allreduce", sendbuf=np.zeros(9))
        )
        assert a != c

    def test_cache_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(-1)

    def test_barrier_keys_with_no_bytes(self):
        info = REGISTRY.get("gaspi_barrier_dissemination")

        class FakeRuntime:
            size = 4

        key = PlanKey.from_request(info, FakeRuntime(), CollectiveRequest("barrier"))
        assert key is not None and key.nbytes == 0

    def test_alltoallv_has_no_plan(self):
        # Its send size and receive layout differ between ranks: a per-rank
        # key would desynchronise the lock-step plan cache.
        info = REGISTRY.get("gaspi_alltoall")

        class FakeRuntime:
            size = 2

        request = CollectiveRequest(
            "alltoall", sendbuf=np.ones(4), send_counts=[2, 2], recv_counts=[2, 2]
        )
        assert PlanKey.from_request(info, FakeRuntime(), request) is None
