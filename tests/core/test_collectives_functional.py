"""Functional correctness of the GASPI collectives on the threaded runtime.

Every collective is checked against a NumPy reference over several world
sizes, including non-power-of-two worlds where the algorithm supports
them, and under asynchronous delivery (real overlap) for the most
important ones.  Each call is cold (:func:`cold`): it compiles its plan,
runs it once and releases it; ``test_plan_equivalence`` holds the cached
path to the same bits.
"""

import numpy as np
import pytest

from repro.core import Communicator
from repro.core.policy import ConsistencyPolicy, documented_result
from repro.gaspi import WorldConfig, run_spmd

from tests.helpers import expected_sum, rank_vector, spmd


SIZES = [1, 2, 3, 4, 5, 8]


def cold(rt) -> Communicator:
    """A communicator without a plan cache: every call is a throwaway plan."""
    return Communicator(rt, plan_cache=0)


def bcast(rt, buf, root=0, threshold=1.0, algorithm="bst"):
    """One cold broadcast; its status (``BroadcastResult``)."""
    policy = ConsistencyPolicy(threshold=threshold)
    return cold(rt).bcast(buf, root, policy, algorithm).detail


def reduce(rt, send, recv, root=0, op="sum", threshold=1.0, mode="data"):
    """One cold BST reduce; its status (``ReduceResult``)."""
    policy = ConsistencyPolicy(threshold=threshold, mode=mode)
    return cold(rt).reduce(send, recv, root, op, policy, algorithm="bst").detail


def ring(rt, send, recv, op="sum"):
    """One cold ring allreduce; its counters (``RingAllreduceStats``)."""
    comm = cold(rt)
    comm.allreduce(send, recv, op, algorithm="ring")
    return comm.last_result.detail


# --------------------------------------------------------------------------- #
# Broadcast
# --------------------------------------------------------------------------- #
class TestBroadcast:
    @pytest.mark.parametrize("num_ranks", SIZES)
    def test_bst_full_broadcast(self, num_ranks):
        n = 257

        def worker(rt):
            buf = np.arange(n, dtype=np.float64) * 3.0 if rt.rank == 0 else np.zeros(n)
            result = bcast(rt, buf, root=0, threshold=1.0)
            assert result.complete
            return buf

        results = spmd(num_ranks, worker)
        for buf in results:
            assert np.array_equal(buf, np.arange(n) * 3.0)

    @pytest.mark.parametrize("threshold", [0.25, 0.5, 0.75])
    def test_bst_threshold_broadcast_partial_prefix(self, threshold):
        n = 400

        def worker(rt):
            buf = np.arange(n, dtype=np.float64) if rt.rank == 0 else np.full(n, -1.0)
            result = bcast(rt, buf, root=0, threshold=threshold)
            return buf, result

        results = spmd(4, worker)
        owed = documented_result(
            "bcast", ConsistencyPolicy.data_threshold(threshold),
            [np.arange(n, dtype=np.float64)] * 4, before=[np.full(n, -1.0)] * 4,
        )  # fmt: skip
        for rank, (buf, result) in enumerate(results[1:], start=1):
            assert np.array_equal(buf, owed[rank])  # the tail untouched
            assert result.elements_received == np.count_nonzero(owed[rank] != -1.0)
            assert not result.complete

    def test_bst_non_zero_root(self):
        def worker(rt):
            buf = np.full(64, 7.0) if rt.rank == 2 else np.zeros(64)
            bcast(rt, buf, root=2)
            return buf

        for buf in spmd(5, worker):
            assert np.all(buf == 7.0)

    @pytest.mark.parametrize("num_ranks", [2, 4, 7])
    def test_flat_broadcast(self, num_ranks):
        def worker(rt):
            buf = np.full(50, 1.25) if rt.rank == 0 else np.zeros(50)
            bcast(rt, buf, root=0, algorithm="flat")
            return buf

        for buf in spmd(num_ranks, worker):
            assert np.all(buf == 1.25)

    def test_bcast_under_async_delivery(self):
        def worker(rt):
            buf = np.arange(128, dtype=np.float64) if rt.rank == 0 else np.zeros(128)
            bcast(rt, buf, root=0)
            return buf

        results = run_spmd(
            4, worker, world_config=WorldConfig(delivery="async", delivery_delay=0.0005), timeout=60
        )
        for buf in results:
            assert np.array_equal(buf, np.arange(128, dtype=np.float64))

    def test_invalid_threshold_rejected(self):
        def worker(rt):
            with pytest.raises(ValueError):
                bcast(rt, np.zeros(8), threshold=0.0)
            return True

        assert spmd(1, worker) == [True]

    def test_result_reports_stage(self):
        def worker(rt):
            buf = np.zeros(16) if rt.rank else np.ones(16)
            res = bcast(rt, buf, root=0)
            return res.stage

        stages = spmd(8, worker)
        assert stages[0] == 0
        assert stages[1] == 1
        assert stages[4] == 3


# --------------------------------------------------------------------------- #
# Reduce
# --------------------------------------------------------------------------- #
class TestReduce:
    @pytest.mark.parametrize("num_ranks", SIZES)
    def test_full_sum_reduce(self, num_ranks):
        n = 131

        def worker(rt):
            send = rank_vector(rt.rank, n)
            recv = np.zeros(n)
            reduce(rt, send, recv, root=0, op="sum")
            return recv

        results = spmd(num_ranks, worker)
        assert np.allclose(results[0], expected_sum(num_ranks, n))

    @pytest.mark.parametrize("op,reference", [("max", np.maximum), ("min", np.minimum), ("prod", np.multiply)])
    def test_other_operators(self, op, reference):
        n = 40

        def worker(rt):
            send = rank_vector(rt.rank, n) + 2.0
            recv = np.zeros(n)
            reduce(rt, send, recv, root=0, op=op)
            return recv

        results = spmd(4, worker)
        expected = rank_vector(0, n) + 2.0
        for r in range(1, 4):
            expected = reference(expected, rank_vector(r, n) + 2.0)
        assert np.allclose(results[0], expected)

    def test_data_threshold_reduces_prefix_only(self):
        n = 200

        def worker(rt):
            send = np.full(n, float(rt.rank + 1))
            recv = np.full(n, -5.0)
            res = reduce(rt, send, recv, root=0, threshold=0.25, mode="data")
            return recv, res

        results = spmd(8, worker)
        recv0, res0 = results[0]
        owed = documented_result(
            "reduce", ConsistencyPolicy.data_threshold(0.25),
            [np.full(n, r + 1.0) for r in range(8)], before=[np.full(n, -5.0)] * 8,
        )[0]  # fmt: skip
        assert np.array_equal(recv0, owed)
        assert res0.elements_reduced == np.count_nonzero(owed != -5.0)

    def test_process_threshold_engages_subset(self):
        n = 64

        def worker(rt):
            send = np.ones(n)
            recv = np.zeros(n)
            res = reduce(rt, send, recv, root=0, threshold=0.5, mode="processes")
            return recv, res

        results = spmd(8, worker)
        recv0, res0 = results[0]
        policy = ConsistencyPolicy.process_threshold(0.5)
        assert np.array_equal(recv0, documented_result("reduce", policy, [np.ones(n)] * 8)[0])
        assert res0.contributors == int(recv0[0])
        owed = documented_result("reduce", policy, list(np.eye(8)))[0]
        assert [res.participated for _recv, res in results] == list(owed == 1)

    def test_non_zero_root(self):
        def worker(rt):
            send = np.full(32, float(rt.rank))
            recv = np.zeros(32)
            reduce(rt, send, recv, root=3, op="sum")
            return recv

        results = spmd(6, worker)
        assert np.allclose(results[3], sum(range(6)))

    def test_root_without_recvbuf_is_allowed(self):
        def worker(rt):
            res = reduce(rt, np.ones(8), None, root=0)
            return res.participated

        assert all(spmd(4, worker))

    def test_invalid_mode_rejected(self):
        def worker(rt):
            with pytest.raises(ValueError):
                reduce(rt, np.ones(8), None, mode="bogus")
            return True

        spmd(1, worker)


# --------------------------------------------------------------------------- #
# Ring allreduce
# --------------------------------------------------------------------------- #
class TestRingAllreduce:
    @pytest.mark.parametrize("num_ranks", SIZES)
    def test_sum_matches_numpy(self, num_ranks):
        n = 203

        def worker(rt):
            send = rank_vector(rt.rank, n)
            recv = np.zeros(n)
            ring(rt, send, recv, op="sum")
            return recv

        results = spmd(num_ranks, worker)
        reference = expected_sum(num_ranks, n)
        for recv in results:
            assert np.allclose(recv, reference)

    def test_in_place(self):
        def worker(rt):
            buf = np.full(64, float(rt.rank + 1))
            ring(rt, buf, buf)
            return buf

        for buf in spmd(4, worker):
            assert np.allclose(buf, 1 + 2 + 3 + 4)

    def test_vector_shorter_than_world(self):
        """Chunks may be empty; the pipeline must still line up."""

        def worker(rt):
            buf = np.full(3, 1.0)
            ring(rt, buf, buf)
            return buf

        for buf in spmd(6, worker):
            assert np.allclose(buf, 6.0)

    def test_max_operator(self):
        def worker(rt):
            buf = np.array([float(rt.rank), -float(rt.rank)])
            ring(rt, buf, buf, op="max")
            return buf

        for buf in spmd(5, worker):
            assert np.array_equal(buf, [4.0, 0.0])

    def test_stats_byte_accounting(self):
        n = 96

        def worker(rt):
            stats = ring(rt, np.ones(n), None)
            return stats

        results = spmd(4, worker)
        for stats in results:
            assert stats.steps == 2 * 3
            # every rank sends and receives the whole vector (2 passes, 1/P chunks)
            assert stats.bytes_sent == stats.bytes_received
            assert stats.bytes_sent == pytest.approx(2 * (4 - 1) * (n // 4) * 8, rel=0.1)

    def test_async_delivery(self):
        def worker(rt):
            buf = np.full(500, float(rt.rank + 1))
            ring(rt, buf, buf)
            return buf

        results = run_spmd(
            4, worker, world_config=WorldConfig(delivery="async"), timeout=60
        )
        for buf in results:
            assert np.allclose(buf, 10.0)

    def test_mismatched_recvbuf_rejected(self):
        def worker(rt):
            with pytest.raises(ValueError):
                ring(rt, np.ones(8), np.zeros(4))
            return True

        spmd(2, worker)


# --------------------------------------------------------------------------- #
# Allgather / AlltoAll
# --------------------------------------------------------------------------- #
class TestAllgather:
    @pytest.mark.parametrize("num_ranks", SIZES)
    def test_gathers_blocks_in_rank_order(self, num_ranks):
        block = 13

        def worker(rt):
            send = np.full(block, float(rt.rank))
            return cold(rt).allgather(send, algorithm="ring")

        results = spmd(num_ranks, worker)
        expected = np.repeat(np.arange(num_ranks, dtype=np.float64), block)
        for out in results:
            assert np.array_equal(out, expected)

    def test_with_preallocated_recvbuf(self):
        def worker(rt):
            recv = np.zeros(4 * 3)
            out = cold(rt).allgather(np.full(3, float(rt.rank)), recv, algorithm="ring")
            assert out is recv
            return recv

        results = spmd(4, worker)
        assert np.array_equal(results[2], np.repeat(np.arange(4.0), 3))


class TestAlltoAll:
    @pytest.mark.parametrize("num_ranks", SIZES)
    def test_alltoall_permutes_blocks(self, num_ranks):
        block = 5

        def worker(rt):
            send = np.concatenate(
                [np.full(block, 100.0 * rt.rank + dst) for dst in range(rt.size)]
            )
            return cold(rt).alltoall(send)

        results = spmd(num_ranks, worker)
        for rank, recv in enumerate(results):
            expected = np.concatenate(
                [np.full(block, 100.0 * src + rank) for src in range(num_ranks)]
            )
            assert np.array_equal(recv, expected)

    def test_alltoall_indivisible_length_rejected(self):
        def worker(rt):
            with pytest.raises(ValueError):
                cold(rt).alltoall(np.ones(7))
            return True

        spmd(4, worker)

    @pytest.mark.parametrize("num_ranks", [2, 3, 4, 6])
    def test_alltoallv_variable_blocks(self, num_ranks):
        def worker(rt):
            send_counts = [(rt.rank + dst) % 3 + 1 for dst in range(rt.size)]
            recv_counts = [(src + rt.rank) % 3 + 1 for src in range(rt.size)]
            send = np.concatenate(
                [np.full(c, 10.0 * rt.rank + dst) for dst, c in enumerate(send_counts)]
            )
            recv = cold(rt).alltoallv(send, send_counts, recv_counts)
            expected = np.concatenate(
                [np.full(c, 10.0 * src + rt.rank) for src, c in enumerate(recv_counts)]
            )
            assert np.array_equal(recv, expected)
            return True

        assert all(spmd(num_ranks, worker))

    def test_alltoallv_rejects_a_recvbuf_of_another_dtype(self):
        # As alltoall does: arrivals are not cast silently.
        def worker(rt):
            counts, narrow = [2] * rt.size, np.zeros(2 * rt.size, np.float32)
            with pytest.raises(ValueError, match="dtype"):
                cold(rt).alltoallv(np.ones(2 * rt.size), counts, counts, narrow)
            return True

        assert all(spmd(2, worker))

    def test_alltoallv_zero_counts(self):
        def worker(rt):
            send_counts = [0] * rt.size
            send_counts[(rt.rank + 1) % rt.size] = 2
            recv_counts = [0] * rt.size
            recv_counts[(rt.rank - 1) % rt.size] = 2
            send = np.full(2, float(rt.rank))
            recv = cold(rt).alltoallv(send, send_counts, recv_counts)
            assert np.array_equal(recv, np.full(2, float((rt.rank - 1) % rt.size)))
            return True

        assert all(spmd(4, worker))


# --------------------------------------------------------------------------- #
# Barrier and Communicator façade
# --------------------------------------------------------------------------- #
class TestBarrierAndCommunicator:
    def test_notification_barrier_orders_phases(self):
        import threading

        flags = []
        lock = threading.Lock()

        def worker(rt):
            with lock:
                flags.append(("pre", rt.rank))
            cold(rt).barrier(algorithm="dissemination")
            with lock:
                flags.append(("post", rt.rank))
            return True

        spmd(6, worker)
        pres = [i for i, (p, _r) in enumerate(flags) if p == "pre"]
        posts = [i for i, (p, _r) in enumerate(flags) if p == "post"]
        assert max(pres) < min(posts)

    def test_communicator_end_to_end(self):
        def worker(rt):
            comm = Communicator(rt)
            assert comm.rank == rt.rank and comm.size == rt.size
            x = np.full(100, float(comm.rank + 1))
            total = comm.allreduce(x, algorithm="ring")
            assert np.allclose(total, sum(range(1, comm.size + 1)))
            buf = np.arange(60, dtype=np.float64) if comm.rank == 0 else np.zeros(60)
            comm.bcast(buf, root=0)
            assert np.array_equal(buf, np.arange(60, dtype=np.float64))
            recv = np.zeros(100)
            comm.reduce(x, recv, root=0)
            comm.barrier()
            gathered = comm.allgather(np.full(2, float(comm.rank)))
            assert gathered.size == 2 * comm.size
            comm.close()
            return True

        assert all(spmd(4, worker))

    def test_communicator_repeated_collectives_use_fresh_segments(self):
        def worker(rt):
            comm = Communicator(rt)
            for i in range(5):
                buf = np.full(32, float(i)) if comm.rank == 0 else np.zeros(32)
                comm.bcast(buf, root=0)
                assert np.all(buf == float(i))
            return True

        assert all(spmd(3, worker))

    def test_communicator_rejects_unknown_algorithms(self):
        def worker(rt):
            comm = Communicator(rt)
            with pytest.raises(ValueError):
                comm.allreduce(np.ones(4), algorithm="magic")
            with pytest.raises(ValueError):
                comm.bcast(np.ones(4), algorithm="magic")
            return True

        spmd(1, worker)
