"""Degraded-mode collectives: detection, thresholded completion, correction."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy, FaultPlan, RankCrashedError
from repro.faults import (
    DegradedCollectiveError,
    FaultyRuntime,
    get_scenario,
    send_late_contribution,
    tolerant_allreduce,
    tolerant_allreduce_schedule,
    tolerant_bcast,
    tolerant_bcast_schedule,
    tolerant_reduce,
    tolerant_reduce_schedule,
)
from repro.simulate import simulate_schedule, skylake_fdr

from tests.helpers import expected_sum, rank_vector, spmd

#: Short detection window: fast tests, still far above thread scheduling noise.
DETECT = 0.3


class TestTolerantWithoutFaults:
    def test_allreduce_exact_and_complete(self):
        n = 64

        def worker(rt):
            detail = tolerant_allreduce(rt, rank_vector(rt.rank, n), detect_timeout=DETECT)
            return detail

        for detail in spmd(4, worker):
            assert detail.missing_ranks == ()
            assert detail.contributors == 4
            assert detail.met_threshold
            assert np.allclose(detail.value, expected_sum(4, n))

    def test_reduce_exact_at_root(self):
        n = 48

        def worker(rt):
            return tolerant_reduce(rt, rank_vector(rt.rank, n), root=1, detect_timeout=DETECT)

        results = spmd(4, worker)
        assert np.allclose(results[1].value, expected_sum(4, n))
        assert results[1].missing_ranks == ()
        assert results[0].value is None

    def test_bcast_delivers_full_payload(self):
        n = 32

        def worker(rt):
            buf = np.full(n, 42.0) if rt.rank == 0 else np.zeros(n)
            detail = tolerant_bcast(rt, buf, root=0, detect_timeout=DETECT)
            return detail.missing_ranks, buf

        for missing, buf in spmd(4, worker):
            assert missing == ()
            assert np.all(buf == 42.0)

    def test_bcast_data_threshold_ships_prefix(self):
        n = 40

        def worker(rt):
            buf = np.ones(n) if rt.rank == 0 else np.zeros(n)
            tolerant_bcast(rt, buf, root=0, threshold=0.5, detect_timeout=DETECT)
            return rt.rank, buf

        for rank, buf in spmd(2, worker):
            if rank != 0:
                assert np.all(buf[: n // 2] == 1.0)
                assert np.all(buf[n // 2 :] == 0.0)


class TestDegradedCompletion:
    def test_acceptance_8_ranks_one_crash_with_correction(self):
        """The headline scenario: 8 ranks, one crash, threshold 0.75.

        Survivors complete with the crashed rank reported missing; the
        crashed rank recovers, re-contributes, and the correction pass
        restores the exact full-participation result on every survivor.
        """
        n = 256
        survivors_done = threading.Barrier(7)
        resend = threading.Event()

        def worker(rt):
            plan = FaultPlan.single_crash(7, at_op=0)
            comm = Communicator(rt, faults=plan, detect_timeout=DETECT)
            data = rank_vector(comm.rank, n)
            try:
                comm.allreduce(data, policy=ConsistencyPolicy.process_threshold(0.75))
            except RankCrashedError:
                resend.wait(30.0)
                comm.runtime.recover()
                send_late_contribution(comm.runtime, data, comm.last_segment_id)
                return None
            result = comm.last_result
            assert result.algorithm == "gaspi_allreduce_tolerant"
            degraded = result.value.copy()
            missing = result.missing_ranks
            suspected = comm.suspected_ranks
            survivors_done.wait(30.0)
            resend.set()
            corrected = result.detail.correct(timeout=10.0)
            return missing, suspected, degraded, corrected.copy()

        outcomes = [o for o in spmd(8, worker) if o is not None]
        assert len(outcomes) == 7
        exact = expected_sum(8, n)
        partial = exact - rank_vector(7, n)
        for missing, suspected, degraded, corrected in outcomes:
            assert missing == (7,)
            assert suspected == frozenset({7})
            assert np.allclose(degraded, partial)
            assert np.allclose(corrected, exact)

    def test_a_correction_empties_the_results_missing_ranks(self):
        # 2 ranks: rank 1 crashes before posting, rank 0 completes alone;
        # once rank 1's late contribution is folded in, the result object
        # reports nobody missing, as its detail does.
        n = 64
        resend = threading.Event()

        def worker(rt):
            comm = Communicator(rt, faults=FaultPlan.single_crash(1, at_op=0), detect_timeout=DETECT)
            data = rank_vector(comm.rank, n)
            policy = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")
            try:
                comm.allreduce(data, policy=policy, algorithm="tolerant")
            except RankCrashedError:
                resend.wait(30.0)
                comm.runtime.recover()
                send_late_contribution(comm.runtime, data, comm.last_segment_id)
                return None
            result = comm.last_result
            before = result.missing_ranks
            resend.set()
            corrected = result.detail.correct(timeout=10.0).copy()
            after = (comm.last_result.missing_ranks, result.detail.missing_ranks)
            comm.close()
            return before, after, corrected

        before, after, corrected = spmd(2, worker)[0]
        assert before == (1,)
        assert after == ((), ())
        assert np.allclose(corrected, expected_sum(2, n))

    def test_below_threshold_aborts_with_detail(self):
        # Ranks 2 and 3 crash; 2/4 contributors < 75% -> abort on survivors.
        def strict_worker(rt):
            faulty = FaultyRuntime(rt, FaultPlan.crashes([2, 3], at_op=0))
            data = np.ones(16)
            try:
                detail = tolerant_allreduce(faulty, data, threshold=0.75,
                                            detect_timeout=DETECT)
            except RankCrashedError:
                return "crashed"
            except DegradedCollectiveError as exc:
                assert exc.detail.missing_ranks == (2, 3)
                assert not exc.detail.met_threshold
                exc.detail.close()
                return "aborted"
            return f"completed:{detail.contributors}"

        outcomes = spmd(4, strict_worker)
        assert outcomes.count("crashed") == 2
        assert outcomes.count("aborted") == 2

    def test_on_failure_complete_publishes_below_threshold(self):
        def worker(rt):
            faulty = FaultyRuntime(rt, FaultPlan.crashes([2, 3], at_op=0))
            data = np.full(8, float(rt.rank + 1))
            try:
                detail = tolerant_allreduce(
                    faulty, data, threshold=0.75, on_failure="complete",
                    detect_timeout=DETECT,
                )
            except RankCrashedError:
                return None
            out = detail.value.copy()
            detail.close()
            return detail.missing_ranks, out

        outcomes = [o for o in spmd(4, worker) if o is not None]
        for missing, out in outcomes:
            assert missing == (2, 3)
            assert np.all(out == 3.0)  # ranks 0 and 1 contributed 1 + 2

    def test_policy_on_failure_validation(self):
        with pytest.raises(ValueError, match="on_failure"):
            ConsistencyPolicy(on_failure="retry")
        policy = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")
        assert "on_failure=complete" in policy.describe()

    def test_reduce_records_missing_child_and_corrects(self):
        n = 32
        root_done = threading.Event()

        def worker(rt):
            faulty = FaultyRuntime(rt, FaultPlan.single_crash(3, at_op=0))
            data = rank_vector(rt.rank, n)
            try:
                detail = tolerant_reduce(
                    faulty, data, root=0, threshold=0.5, detect_timeout=DETECT
                )
            except RankCrashedError:
                root_done.wait(30.0)
                faulty.recover()
                # Default targets: peers that already released their
                # workspace (the other children) are skipped silently.
                send_late_contribution(faulty, data, 140)
                return None
            if rt.rank == 0:
                assert detail.missing_ranks == (3,)
                root_done.set()
                corrected = detail.correct(timeout=10.0)
                return corrected.copy()
            return True

        results = spmd(4, worker)
        assert np.allclose(results[0], expected_sum(4, n))

    def test_bcast_receiver_survives_dead_root(self):
        def worker(rt):
            faulty = FaultyRuntime(rt, FaultPlan.single_crash(0, at_op=0))
            buf = np.full(16, 9.0) if rt.rank == 0 else np.zeros(16)
            try:
                detail = tolerant_bcast(
                    faulty, buf, root=0, on_failure="complete", detect_timeout=DETECT
                )
            except RankCrashedError:
                return None
            missing = detail.missing_ranks
            detail.close()
            return missing, buf.copy()

        outcomes = [o for o in spmd(3, worker) if o is not None]
        assert len(outcomes) == 2
        for missing, buf in outcomes:
            assert missing == (0,)
            assert np.all(buf == 0.0)  # nothing arrived, buffer untouched


class TestSuspectTracking:
    def test_next_collective_skips_suspects(self):
        """After a degraded call the suspect is excluded, so the follow-up
        completes without waiting out another detection timeout."""
        import time

        n = 16
        resume = threading.Barrier(3)

        def worker(rt):
            plan = FaultPlan.single_crash(3, at_op=0)
            comm = Communicator(rt, faults=plan, detect_timeout=DETECT)
            policy = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")
            data = np.full(n, float(comm.rank + 1))
            try:
                comm.allreduce(data, policy=policy)
            except RankCrashedError:
                return None
            assert comm.suspected_ranks == frozenset({3})
            comm.last_result.detail.close()
            resume.wait(30.0)
            start = time.monotonic()
            out = comm.allreduce(data, policy=policy)
            elapsed = time.monotonic() - start
            assert comm.last_result.missing_ranks == (3,)
            return out.copy(), elapsed

        outcomes = [o for o in spmd(4, worker) if o is not None]
        assert len(outcomes) == 3
        for out, elapsed in outcomes:
            assert np.all(out == 6.0)  # 1 + 2 + 3
            assert elapsed < DETECT  # no detection timeout: suspect skipped

    def test_divergent_suspicion_cannot_deadlock(self):
        """A mid-send crash leaves survivors with *different* suspect sets
        (some received the dying rank's contribution, some did not).  The
        next tolerant collective must still terminate: the entry handshake
        is timeout-bounded and writes to a never-created workspace are
        tolerated, so disagreement costs latency, never a hang."""
        n = 16
        resume = threading.Barrier(7)

        def worker(rt):
            plan = FaultPlan.single_crash(7, at_op=3)  # dies mid-send
            comm = Communicator(rt, faults=plan, detect_timeout=DETECT)
            policy = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")
            data = np.full(n, 1.0)
            try:
                comm.allreduce(data, policy=policy)
            except RankCrashedError:
                return None
            if comm.last_result.detail.correctable:
                comm.last_result.detail.close()
            resume.wait(30.0)
            out = comm.allreduce(data, policy=policy)
            comm.last_result.detail.close()
            return out.copy(), comm.last_result.missing_ranks

        outcomes = [o for o in spmd(8, worker, timeout=30.0) if o is not None]
        assert len(outcomes) == 7
        for out, missing in outcomes:
            # The second collective completes over the seven survivors no
            # matter how their suspicion about rank 7 diverged.
            assert missing == (7,)
            assert np.all(out == 7.0)

    def test_split_child_keeps_fault_awareness(self):
        """A sub-communicator of a fault-injected world must keep routing
        to tolerant algorithms (the crash still fires through the wrapped
        runtime) and inherit the detection timeout."""

        def worker(rt):
            comm = Communicator(
                rt, faults=FaultPlan.single_crash(3, at_op=10**6), detect_timeout=DETECT
            )
            comm._suspected.add(3)
            child = comm.split(comm.rank % 2)
            assert child.runtime.fault_injected
            assert child._detect_timeout == DETECT
            info = child.resolve("allreduce", nbytes=1024)
            # Parent rank 3 is child rank 1 of the odd-color group.
            expected_suspects = frozenset({1}) if comm.rank % 2 == 1 else frozenset()
            assert child.suspected_ranks == expected_suspects
            return info.name

        assert all(
            name == "gaspi_allreduce_tolerant" for name in spmd(4, worker)
        )

    def test_wrongly_suspected_rank_is_folded_back_in(self):
        """A rank others merely *suspect* dead (it straggled past an earlier
        detection window) keeps sending; its contribution must be folded in,
        not consumed and discarded, so the survivors' result converges."""
        n = 16

        def worker(rt):
            faulty = FaultyRuntime(rt, FaultPlan.single_crash(4, at_op=0))
            data = np.full(n, float(rt.rank + 1))
            suspected = () if rt.rank == 3 else (3,)
            # Rank 3 (the wrongly suspected one) gives up on its own
            # handshake quickly, so its contribution lands inside the
            # suspecters' detection window, which rank 4's real crash
            # holds open.
            timeout = 0.1 if rt.rank == 3 else 0.6
            try:
                detail = tolerant_allreduce(
                    faulty, data, threshold=0.5, on_failure="complete",
                    detect_timeout=timeout, known_failed=suspected,
                )
            except RankCrashedError:
                return None
            out = detail.value.copy()
            missing = detail.missing_ranks
            detail.close()
            return rt.rank, missing, out

        outcomes = [o for o in spmd(5, worker) if o is not None]
        for rank, missing, out in outcomes:
            if rank == 3:
                continue  # the suspected rank itself completes alone
            assert missing == (4,), f"rank {rank} missed {missing}"
            assert np.all(out == 1.0 + 2.0 + 3.0 + 4.0)

    def test_reinstate_restores_participation(self):
        def worker(rt):
            comm = Communicator(rt)
            comm._suspected.add(2)
            assert comm.suspected_ranks == frozenset({2})
            comm.reinstate(2)
            assert comm.suspected_ranks == frozenset()
            return True

        assert all(spmd(2, worker))


class TestSimulatorReplay:
    def test_single_crash_replays_deterministically(self):
        machine = skylake_fdr(8)
        plan = get_scenario("single_crash").plan(8)
        from repro.faults import degrade_schedule

        schedule = tolerant_allreduce_schedule(8, 4096)
        times = [
            simulate_schedule(degrade_schedule(schedule, plan), machine).total_time
            for _ in range(2)
        ]
        assert times[0] == times[1]
        full = simulate_schedule(schedule, machine).total_time
        assert times[0] < full  # one sender fewer -> strictly less traffic

    def test_sorted_arrival_replays_deterministically(self):
        machine = skylake_fdr(8)
        offsets = get_scenario("sorted_arrival").arrival_offsets(8)
        schedule = tolerant_allreduce_schedule(8, 4096)
        a = simulate_schedule(schedule, machine, rank_offsets=offsets)
        b = simulate_schedule(schedule, machine, rank_offsets=offsets)
        assert a.total_time == b.total_time
        assert a.total_time >= max(offsets)
        assert a.metadata["max_arrival_skew"] == pytest.approx(max(offsets))

    def test_communicator_simulator_backend_degrades_schedule(self):
        n = 64

        def worker(rt):
            plan = FaultPlan.single_crash(3, at_op=0)
            comm = Communicator(
                rt, machine=skylake_fdr(4), faults=plan, detect_timeout=DETECT
            )
            policy = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")
            try:
                comm.allreduce(np.ones(n), policy=policy)
            except RankCrashedError:
                return None
            sim = comm.last_result.simulated
            comm.last_result.detail.close()
            return sim

        sims = [s for s in spmd(4, worker) if s is not None]
        clean = simulate_schedule(tolerant_allreduce_schedule(4, 64 * 8), skylake_fdr(4))
        for sim in sims:
            assert sim.metadata["dropped_messages"] > 0
            assert sim.total_time < clean.total_time

    def test_schedule_builders_validate(self):
        for build in (
            tolerant_allreduce_schedule,
            tolerant_reduce_schedule,
            tolerant_bcast_schedule,
        ):
            sched = build(8, 4096, failed=(7,))
            assert all(m.src != 7 and m.dst != 7 for m in sched.messages())


class TestDispatchIntegration:
    def test_auto_prefers_tolerant_under_lossy_faults(self):
        def worker(rt):
            comm = Communicator(rt, faults=FaultPlan.single_crash(1, at_op=10**6))
            info = comm.resolve("allreduce", nbytes=1024)
            return info.name

        assert all(name == "gaspi_allreduce_tolerant" for name in spmd(2, worker))

    def test_auto_keeps_tuned_selection_for_timing_only_plans(self):
        """Delay/skew plans make ranks late, not absent: the tuned regular
        algorithms stay selected (the flat tolerant exchange is O(n^2))."""

        def worker(rt):
            comm = Communicator(rt, faults=FaultPlan(skew={0: 0.001}, delay={1: 0.001}))
            return comm.resolve("allreduce", nbytes=1024).name

        assert all(name != "gaspi_allreduce_tolerant" for name in spmd(2, worker))

    def test_auto_prefers_tolerant_for_complete_policies(self):
        def worker(rt):
            comm = Communicator(rt)
            policy = ConsistencyPolicy.process_threshold(0.5, on_failure="complete")
            return comm.resolve("allreduce", nbytes=1024, policy=policy).name

        assert all(name == "gaspi_allreduce_tolerant" for name in spmd(2, worker))

    def test_auto_without_faults_keeps_tuned_selection(self):
        def worker(rt):
            comm = Communicator(rt)
            return comm.resolve("allreduce", nbytes=1024).name

        assert all(name != "gaspi_allreduce_tolerant" for name in spmd(2, worker))

    def test_tolerant_alias_resolves(self):
        def worker(rt):
            comm = Communicator(rt)
            return (
                comm.resolve("allreduce", algorithm="tolerant").name,
                comm.resolve("bcast", algorithm="tolerant").name,
                comm.resolve("reduce", algorithm="tolerant").name,
            )

        for names in spmd(2, worker):
            assert names == (
                "gaspi_allreduce_tolerant",
                "gaspi_bcast_tolerant",
                "gaspi_reduce_tolerant",
            )

    def test_capability_flag_exposed(self):
        from repro import REGISTRY

        assert REGISTRY.get("gaspi_allreduce_tolerant").capabilities.fault_tolerant
        assert not REGISTRY.get("gaspi_allreduce_ring").capabilities.fault_tolerant

    def test_process_threshold_mode_required(self):
        from repro import REGISTRY

        info = REGISTRY.get("gaspi_allreduce_tolerant")
        ok, _ = info.supports(4, ConsistencyPolicy.process_threshold(0.5))
        assert ok
        ok, why = info.supports(4, ConsistencyPolicy.data_threshold(0.5))
        assert not ok and "data" in why


def _mixed_dtypes(rt):
    comm = Communicator(rt)
    policy = ConsistencyPolicy(on_failure="complete")  # routes to the tolerant trio
    x = np.arange(4, dtype=np.float32) + comm.rank
    allreduced, reduced = np.empty(4), np.empty(4)
    comm.allreduce(x, allreduced, policy=policy)
    algorithms = [comm.last_result.algorithm]
    comm.reduce(x, reduced, root=0, policy=policy)
    algorithms.append(comm.last_result.algorithm)
    comm.close()
    return algorithms, allreduced.tolist(), reduced.tolist() if comm.rank == 0 else None


@pytest.mark.parametrize("backend", ["threaded", "shm"])
def test_a_wider_recvbuf_folds_in_the_sendbufs_dtype(backend):
    # The slots hold float32 contributions; an accumulator of float64 must
    # not make the fold read them as float64 (out of range, or garbage).
    from repro import run_backend

    results = run_backend(2, _mixed_dtypes, backend=backend, timeout=60)
    for rank, (algorithms, allreduced, reduced) in enumerate(results):
        assert algorithms == ["gaspi_allreduce_tolerant", "gaspi_reduce_tolerant"]
        assert allreduced == [1.0, 3.0, 5.0, 7.0]
        assert reduced == ([1.0, 3.0, 5.0, 7.0] if rank == 0 else None)


def test_the_window_is_the_request_timeout_unless_that_is_unbounded(monkeypatch):
    # detect_timeout when given, else the request's own timeout, and the
    # module default only for a request that would block forever.
    from repro.core.policy import CollectiveRequest
    from repro.core.registry import REGISTRY
    from repro.faults import recovery

    windows = []
    handshake = recovery._entry_handshake

    def recording(runtime, alive, timeout):
        windows.append((runtime.rank, timeout))
        handshake(runtime, alive, timeout)

    monkeypatch.setattr(recovery, "_entry_handshake", recording)
    info = REGISTRY.get("gaspi_allreduce_tolerant")

    def worker(rt):
        for timeout, metadata in [(2.0, {}), (float("inf"), {}), (2.0, {"detect_timeout": 0.25})]:
            request = CollectiveRequest(
                "allreduce", np.ones(4), policy=ConsistencyPolicy(on_failure="complete"),
                timeout=timeout, metadata=metadata,
            )  # fmt: skip
            assert info.run(rt, request).missing_ranks == ()

    spmd(2, worker)
    for rank in range(2):
        got = [timeout for r, timeout in windows if r == rank]
        assert got == [2.0, recovery.DEFAULT_DETECT_TIMEOUT, 0.25]
