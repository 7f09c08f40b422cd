"""Nonblocking collectives: handles, progress engine, overlap machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy, run_backend
from repro.ml.sgd import OverlapAllreduce

from tests.helpers import expected_sum, rank_vector, spmd


class TestHandles:
    def test_ibcast_wait_returns_result(self):
        n = 4096

        def worker(rt):
            comm = Communicator(rt)
            buf = np.full(n, float(rt.rank))
            handle = comm.ibcast(buf, root=0)
            result = handle.wait()
            state = (
                handle.done,
                result.algorithm,
                bool(np.allclose(buf, 0.0)),
                handle.result is result,
            )
            # "auto" resolves the same for the i* call and the blocking one.
            blocking = comm.bcast(buf, root=0).algorithm
            comm.close()
            return state, blocking

        for (done, algorithm, correct, same), blocking in spmd(4, worker):
            assert done and correct and same
            assert algorithm == blocking

    def test_iallreduce_test_polls_to_completion(self):
        n = 2048

        def worker(rt):
            comm = Communicator(rt)
            send = rank_vector(rt.rank, n)
            out = np.empty_like(send)
            handle = comm.iallreduce(send, recvbuf=out)
            spins = 0
            while not handle.test():
                spins += 1
                assert spins < 1_000_000
            comm.close()
            return out

        outs = spmd(4, worker)
        expect = expected_sum(4, n)
        for out in outs:
            assert np.allclose(out, expect)

    def test_iallreduce_resolves_once_and_like_the_blocking_call(self, monkeypatch):
        from repro.core.registry import AlgorithmRegistry

        walks = []
        names = AlgorithmRegistry.names

        def counting_names(self, *args, **kwargs):
            walks.append(kwargs)
            return names(self, *args, **kwargs)

        def worker(rt):
            comm = Communicator(rt)
            send = rank_vector(rt.rank, 512)
            out = np.empty_like(send)
            first = comm.iallreduce(send, recvbuf=out).wait().algorithm
            rt.barrier()
            if rt.rank == 0:
                monkeypatch.setattr(AlgorithmRegistry, "names", counting_names)
            rt.barrier()
            second = comm.iallreduce(send, recvbuf=out).wait().algorithm
            # A blocking call of the same shape resolves under the same key.
            comm.allreduce(send, recvbuf=out)
            assert np.allclose(out, expected_sum(2, 512))
            comm.close()
            return first, second, comm.last_result.algorithm

        for first, second, blocking in spmd(2, worker):
            assert first == second == blocking
        assert walks == []

    def test_ireduce_matches_blocking(self):
        n = 2048

        def worker(rt):
            comm = Communicator(rt)
            send = rank_vector(rt.rank, n)
            nb = np.zeros_like(send)
            comm.ireduce(send, recvbuf=nb, root=0).wait()
            blocking = np.zeros_like(send)
            comm.reduce(send, recvbuf=blocking, root=0, algorithm="bst_pipelined")
            comm.close()
            return nb, blocking

        for nb, blocking in spmd(4, worker):
            assert np.array_equal(nb, blocking)

    @pytest.mark.parametrize("backend", ["threaded", "shm"])
    @pytest.mark.parametrize(
        "collective,algorithm",
        [
            ("allreduce", "hypercube"),
            ("allreduce", "gaspi_allreduce_ring"),
            ("bcast", "gaspi_bcast_bst"),
        ],
    )
    def test_monolithic_plan_is_incremental(self, backend, collective, algorithm):
        # Rank 0 (the broadcast's root) issues late: nobody else can
        # complete without it, so their handles are in flight, not born done.
        results = run_backend(
            4, _late_peer_worker, collective, algorithm, backend=backend, timeout=90
        )
        for rank, (in_flight, named, nonblocking, blocking) in enumerate(results):
            assert in_flight == (rank != 0)
            assert named in (algorithm, f"gaspi_allreduce_ssp_{algorithm}")
            assert nonblocking == blocking

    @pytest.mark.parametrize("backend", ["threaded", "shm"])
    def test_slack_plan_is_incremental(self, backend):
        # Rank 0 runs three calls past a rank that holds back: the first two
        # reuse its clock-1 contribution, within slack 2; the third needs a
        # fresher one, so its handle is in flight at issue.
        results = run_backend(2, _stale_peer_worker, backend=backend, timeout=90)
        assert results[0][0] == [False, False, True]
        assert results[1][0] == [False, False, False]
        for rank, (_, values) in enumerate(results):
            assert all(v in (rank + 1.0, 3.0) for v in values), values
        assert results[0][1][-1] == 3.0  # the wait brought rank 1's data


def _stale_peer_worker(rt):
    comm = Communicator(rt)
    policy = ConsistencyPolicy.ssp(2)
    x = np.full(8, rt.rank + 1.0)
    comm.allreduce(x, policy=policy, algorithm="hypercube")  # compile: collective
    # Clock 1's window reaches back before the first call, so rank 0 may
    # finish it without rank 1's contribution.  Both ranks have posted
    # theirs once their call returned: after the barrier, rank 0 holds
    # rank 1's clock-1 contribution before it runs ahead.
    rt.barrier()

    def issue():
        return [comm.iallreduce(x, policy=policy, algorithm="hypercube") for _ in range(3)]

    if rt.rank == 0:
        handles = issue()
        in_flight = [not h.done for h in handles]
        rt.barrier()
    else:
        rt.barrier()
        handles = issue()
        in_flight = [not h.done for h in handles]
    comm.wait_all()
    values = [float(h.result.value[0]) for h in handles]
    comm.close()
    return in_flight, values


def _late_peer_worker(rt, collective, algorithm):
    comm = Communicator(rt)
    n = 1024

    def issue(out):
        if collective == "bcast":
            out[:] = rank_vector(99, n) if rt.rank == 0 else 0.0
            return comm.ibcast(out, root=0, algorithm=algorithm)
        return comm.iallreduce(rank_vector(rt.rank, n), recvbuf=out, algorithm=algorithm)

    out = np.empty(n)
    issue(out).wait()  # compiling the plan is collective: nobody is late for it
    handle, in_flight = None, False
    if rt.rank != 0:
        handle = issue(out)
        for _ in range(100):
            handle.test()
        in_flight = not handle.done
    rt.barrier()
    if rt.rank == 0:
        handle = issue(out)
    named = handle.wait().algorithm
    nonblocking = out.tobytes()
    if collective == "bcast":
        comm.bcast(out, root=0, algorithm=algorithm)
    else:
        comm.allreduce(rank_vector(rt.rank, n), recvbuf=out, algorithm=algorithm)
    comm.close()
    return in_flight, named, nonblocking, out.tobytes()


class TestTaggedConcurrency:
    def test_tagged_handles_run_concurrent_plans(self):
        n = 1024
        buckets = 3

        def worker(rt):
            comm = Communicator(rt)
            send = rank_vector(rt.rank, n)
            outs = [np.empty_like(send) for _ in range(buckets)]
            handles = [
                comm.iallreduce(send, recvbuf=out, tag=i)
                for i, out in enumerate(outs)
            ]
            comm.wait_all()
            stats = comm.plan_cache_stats()
            done = all(h.done for h in handles)
            comm.close()
            return outs, stats.entries, done

        for outs, entries, done in spmd(4, worker):
            assert done
            assert entries == buckets  # one compiled plan per tag
            expect = expected_sum(4, n)
            for out in outs:
                assert np.allclose(out, expect)

    def test_same_plan_handles_serialize_in_fifo_order(self):
        n = 1024
        rounds = 3

        def worker(rt):
            comm = Communicator(rt)
            sends = [rank_vector(rt.rank, n) + i for i in range(rounds)]
            outs = [np.empty(n) for _ in range(rounds)]
            handles = [
                comm.iallreduce(sends[i], recvbuf=outs[i]) for i in range(rounds)
            ]
            comm.wait_all()
            entries = comm.plan_cache_stats().entries
            done = all(h.done for h in handles)
            comm.close()
            return outs, entries, done

        for outs, entries, done in spmd(4, worker):
            assert done
            assert entries == 1  # all three shared one plan, serialized
            base = expected_sum(4, n)
            for i, out in enumerate(outs):
                assert np.allclose(out, base + 4 * i)

    def test_blocking_call_drains_in_flight_handle_on_same_plan(self):
        """A blocking collective must not race a live handle on its plan."""
        n = 2048

        def worker(rt):
            comm = Communicator(rt)
            a = rank_vector(rt.rank, n)
            b = rank_vector(rt.rank + 100, n)
            out_a = np.empty(n)
            out_b = np.empty(n)
            handle = comm.iallreduce(a, recvbuf=out_a)
            # Same shape -> same PlanKey: dispatch drains the handle first.
            comm.allreduce(b, recvbuf=out_b)
            drained_before_blocking = handle.done
            handle.wait()
            comm.close()
            return drained_before_blocking, out_a, out_b

        for drained, out_a, out_b in spmd(4, worker):
            assert drained
            assert np.allclose(out_a, expected_sum(4, n))
            assert np.allclose(
                out_b, np.sum([rank_vector(r + 100, n) for r in range(4)], axis=0)
            )

    def test_close_drains_in_flight_handles(self):
        n = 1024

        def worker(rt):
            comm = Communicator(rt)
            send = rank_vector(rt.rank, n)
            out = np.empty_like(send)
            handle = comm.iallreduce(send, recvbuf=out)
            comm.close()  # must drain, not tear down under the pipeline
            return handle.done, out

        for done, out in spmd(4, worker):
            assert done
            assert np.allclose(out, expected_sum(4, n))


class TestProgressThread:
    def test_background_thread_completes_handles(self):
        n = 4096

        def worker(rt):
            comm = Communicator(rt)
            comm.start_progress_thread()
            send = rank_vector(rt.rank, n)
            outs = [np.empty_like(send) for _ in range(3)]
            handles = [
                comm.iallreduce(send, recvbuf=out, tag=i)
                for i, out in enumerate(outs)
            ]
            for handle in handles:
                handle.wait()
            threaded = comm._progress.threaded
            comm.stop_progress_thread()
            stopped = not comm._progress.threaded
            comm.close()
            return outs, threaded, stopped

        for outs, threaded, stopped in spmd(4, worker):
            assert threaded and stopped
            expect = expected_sum(4, n)
            for out in outs:
                assert np.allclose(out, expect)

    def test_start_stop_are_idempotent(self):
        def worker(rt):
            comm = Communicator(rt)
            comm.start_progress_thread()
            comm.start_progress_thread()
            comm.stop_progress_thread()
            comm.stop_progress_thread()
            comm.close()  # also stops (already stopped) thread
            return True

        assert all(spmd(2, worker))


class TestOverlapAllreduce:
    def test_exchange_matches_blocking_sum(self):
        n = 8 * 512

        def worker(rt):
            comm = Communicator(rt)
            gradient = rank_vector(rt.rank, n)
            exchanger = OverlapAllreduce(comm, n, buckets=8)
            out = exchanger.exchange(gradient).copy()
            again = exchanger.exchange(gradient).copy()
            exchanger.close()
            return out, again

        expect = expected_sum(4, 8 * 512)
        for out, again in spmd(4, worker):
            assert np.allclose(out, expect)
            assert np.array_equal(out, again)

    def test_issue_finish_split(self):
        n = 4 * 256

        def worker(rt):
            comm = Communicator(rt)
            gradient = rank_vector(rt.rank, n)
            exchanger = OverlapAllreduce(comm, n, buckets=4, progress_thread=False)
            for bucket in range(4):
                exchanger.issue(gradient, bucket)
                comm.progress()
            out = exchanger.finish().copy()
            exchanger.close()
            return out

        for out in spmd(4, worker):
            assert np.allclose(out, expected_sum(4, 4 * 256))
