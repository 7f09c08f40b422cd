"""Tests for the policy-driven, registry-routed Communicator API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communicator, ConsistencyPolicy, select_algorithm
from repro.core import REGISTRY, CollectiveRequest, CollectiveResult
from repro.core.policy import documented_result
from repro.core.reduce import ReduceMode
from repro.core.tuning import ALLREDUCE_SMALL, TuningRule, TuningTable

from tests.helpers import expected_sum, rank_vector, spmd


class TestConsistencyPolicy:
    def test_defaults_are_strict(self):
        policy = ConsistencyPolicy()
        assert policy.threshold == 1.0
        assert policy.mode is ReduceMode.DATA
        assert policy.slack == 0
        assert policy.is_strict

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5])
    def test_invalid_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            ConsistencyPolicy(threshold=threshold)

    def test_invalid_slack_rejected(self):
        with pytest.raises(ValueError, match="slack"):
            ConsistencyPolicy(slack=-1)
        with pytest.raises(ValueError, match="slack"):
            ConsistencyPolicy(slack=1.5)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ConsistencyPolicy(mode="sideways")

    def test_constructors(self):
        assert ConsistencyPolicy.strict().is_strict
        data = ConsistencyPolicy.data_threshold(0.25)
        assert data.threshold == 0.25 and data.mode is ReduceMode.DATA
        procs = ConsistencyPolicy.process_threshold(0.5)
        assert procs.mode is ReduceMode.PROCESSES
        ssp = ConsistencyPolicy.ssp(4)
        assert ssp.slack == 4 and not ssp.is_strict

    def test_mode_accepts_strings(self):
        assert ConsistencyPolicy(mode="processes").mode is ReduceMode.PROCESSES

    def test_describe(self):
        assert ConsistencyPolicy().describe() == "strict"
        assert "25% data" in ConsistencyPolicy.data_threshold(0.25).describe()
        assert "slack=3" in ConsistencyPolicy.ssp(3).describe()

    def test_documented_result_rounds_as_documented(self):
        # ⌊32 · 0.3⌋ = 9 elements; ⌈0.3 · 4⌉ = 2 ranks, virtual ranks 0 and 1.
        data = ConsistencyPolicy.data_threshold(0.3)
        owed = documented_result("bcast", data, [np.ones(32), np.zeros(32)])
        assert np.count_nonzero(owed[1]) == 9
        procs = ConsistencyPolicy.process_threshold(0.3)
        owed = documented_result("reduce", procs, list(np.eye(4)), root=3)
        assert list(np.flatnonzero(owed[3])) == [0, 3]

    def test_documented_result_bounds_ssp_staleness(self):
        # Rank r's payload of clock c is c · 10**r.  At clock 3 under slack 1
        # a contribution of clock 2 is admissible; one of clock 1, or none,
        # is not — but at clock 1 a partner's mailbox may be unwritten.
        policy = ConsistencyPolicy.ssp(1)
        history = [[np.full(2, c * 10.0**r) for c in (1, 2, 3)] for r in range(2)]
        owed = documented_result("allreduce", policy, history, contributors={0: 3, 1: 2}, clock=3)
        assert np.array_equal(owed[1], [23.0, 23.0])
        for stale in ({0: 3, 1: 1}, {0: 3}):
            with pytest.raises(ValueError, match="rank 1's contribution"):
                documented_result("allreduce", policy, history, contributors=stale, clock=3)
        owed = documented_result("allreduce", policy, history, contributors={0: 1}, clock=1)
        assert np.array_equal(owed[0], [1.0, 1.0])


class TestRegistryCapabilities:
    def test_gaspi_collectives_are_executable(self):
        for name in REGISTRY.names(family="gaspi"):
            assert REGISTRY.get(name).executable, name

    def test_capability_metadata_exposed(self):
        info = REGISTRY.get("gaspi_allreduce_ssp_hypercube")
        assert info.capabilities.requires_power_of_two
        assert info.capabilities.supports_slack
        info = REGISTRY.get("gaspi_reduce_bst")
        assert info.capabilities.supports_threshold
        assert set(info.capabilities.modes) == {"data", "processes"}

    def test_supports_reports_reason(self):
        info = REGISTRY.get("gaspi_allreduce_ssp_hypercube")
        ok, _ = info.supports(8)
        assert ok
        ok, reason = info.supports(6)
        assert not ok and "power-of-two" in reason

    def test_check_request_error_messages(self):
        ring = REGISTRY.get("gaspi_allreduce_ring")
        with pytest.raises(ValueError, match="threshold"):
            ring.check_request(4, ConsistencyPolicy.data_threshold(0.5))
        with pytest.raises(ValueError, match="slack"):
            ring.check_request(4, ConsistencyPolicy.ssp(2))
        bcast = REGISTRY.get("gaspi_bcast_bst")
        with pytest.raises(ValueError, match="'processes'"):
            bcast.check_request(4, ConsistencyPolicy.process_threshold(0.5))

    def test_schedule_only_entries_refuse_to_run(self):
        info = REGISTRY.get("mpi_allreduce_mpi2_rabenseifner")
        assert not info.executable
        with pytest.raises(ValueError, match="schedule-only"):
            info.run(None, CollectiveRequest(collective="allreduce"))

    def test_executable_filter_in_names(self):
        runnable = REGISTRY.names(collective="allreduce", executable=True)
        assert "gaspi_allreduce_ring" in runnable
        assert "mpi_allreduce_mpi2_rabenseifner" not in runnable

    def test_twosided_baselines_declare_float64(self):
        info = REGISTRY.get("mpi_allreduce_mpi8_ring")
        assert info.capabilities.dtype == "float64"
        ok, reason = info.supports(4, dtype=np.float32)
        assert not ok and "float64" in reason


class TestAutoSelection:
    def test_small_and_large_payloads_pick_different_algorithms(self):
        small = select_algorithm("allreduce", 8, 1024)
        large = select_algorithm("allreduce", 8, 16 << 20)
        assert small.name == "gaspi_allreduce_ssp_hypercube"
        # PR 4: large payloads route to the chunked pipelined ring.
        assert large.name == "gaspi_allreduce_ring_pipelined"
        assert small.name != large.name

    def test_threshold_is_the_documented_crossover(self):
        at = select_algorithm("allreduce", 8, ALLREDUCE_SMALL)
        above = select_algorithm("allreduce", 8, ALLREDUCE_SMALL + 1)
        assert at.name == "gaspi_allreduce_ssp_hypercube"
        assert above.name == "gaspi_allreduce_ring"

    def test_non_power_of_two_world_skips_the_hypercube(self):
        info = select_algorithm("allreduce", 6, 1024)
        assert info.name == "gaspi_allreduce_ring"

    def test_mpi_family_table(self):
        assert (
            select_algorithm("allreduce", 8, 1024, family="mpi").name
            == "mpi_allreduce_mpi1_recursive_doubling"
        )
        assert (
            select_algorithm("allreduce", 8, 16 << 20, family="mpi").name
            == "mpi_allreduce_mpi7_shumilin_ring"
        )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            select_algorithm("allreduce", 8, 1024, family="nccl")

    def test_empty_table_reports_skipped_candidates(self):
        table = TuningTable(
            "only-hypercube",
            [TuningRule("allreduce", "gaspi_allreduce_ssp_hypercube")],
        )
        with pytest.raises(ValueError, match="power-of-two"):
            table.select("allreduce", 6, 1024)

    def test_communicator_resolve_without_execution(self):
        def worker(rt):
            comm = Communicator(rt)
            small = comm.resolve("allreduce", 1024)
            large = comm.resolve("allreduce", 16 << 20)
            return small.name, large.name

        for small, large in spmd(4, worker):
            assert small == "gaspi_allreduce_ssp_hypercube"
            assert large == "gaspi_allreduce_ring_pipelined"

    def test_live_auto_dispatch_records_selected_algorithm(self):
        n_small = 16  # 128 bytes -> hypercube on 4 ranks
        n_large = (ALLREDUCE_SMALL // 8) + 64  # just past the crossover

        def worker(rt):
            comm = Communicator(rt)
            total_small = comm.allreduce(rank_vector(comm.rank, n_small))
            algo_small = comm.last_result.algorithm
            total_large = comm.allreduce(rank_vector(comm.rank, n_large))
            algo_large = comm.last_result.algorithm
            return total_small, algo_small, total_large, algo_large

        for total_small, algo_small, total_large, algo_large in spmd(4, worker):
            assert algo_small == "gaspi_allreduce_ssp_hypercube"
            assert algo_large == "gaspi_allreduce_ring"
            assert np.allclose(total_small, expected_sum(4, n_small))
            assert np.allclose(total_large, expected_sum(4, n_large))


class TestCommunicatorDispatch:
    def test_unknown_algorithm_lists_registered_names(self):
        def worker(rt):
            comm = Communicator(rt)
            with pytest.raises(ValueError, match="gaspi_allreduce_ring"):
                comm.allreduce(np.ones(4), algorithm="magic")
            return True

        assert all(spmd(1, worker))

    def test_algorithm_collective_mismatch_rejected(self):
        def worker(rt):
            comm = Communicator(rt)
            with pytest.raises(ValueError, match="implements"):
                comm.allreduce(np.ones(4), algorithm="gaspi_bcast_bst")
            return True

        assert all(spmd(1, worker))

    def test_v1_aliases_still_resolve(self):
        def worker(rt):
            comm = Communicator(rt)
            out = comm.allreduce(np.full(8, float(comm.rank + 1)), algorithm="ring")
            assert comm.last_result.algorithm == "gaspi_allreduce_ring"
            comm.allreduce(np.ones(8), algorithm="hypercube")
            assert comm.last_result.algorithm == "gaspi_allreduce_ssp_hypercube"
            return float(out[0])

        assert spmd(4, worker) == [10.0] * 4

    def test_policy_routed_partial_bcast(self):
        n = 100

        def worker(rt):
            comm = Communicator(rt)
            buf = np.linspace(0.0, 1.0, n) if comm.rank == 0 else np.zeros(n)
            result = comm.bcast(
                buf, root=0, policy=ConsistencyPolicy.data_threshold(0.25)
            )
            assert isinstance(result, CollectiveResult)
            assert result.algorithm in ("gaspi_bcast_bst", "gaspi_bcast_flat")
            return comm.rank, result.elements_received, buf

        reference = np.linspace(0.0, 1.0, n)
        for rank, received, buf in spmd(4, worker):
            if rank == 0:
                assert received == n
            else:
                assert received == n // 4
                assert np.allclose(buf[: n // 4], reference[: n // 4])
                assert np.all(buf[n // 4 :] == 0.0)

    def test_unsupported_policy_fails_before_communication(self):
        def worker(rt):
            comm = Communicator(rt)
            with pytest.raises(ValueError, match="threshold"):
                comm.allreduce(
                    np.ones(8),
                    policy=ConsistencyPolicy.data_threshold(0.5),
                    algorithm="ring",
                )
            return True

        assert all(spmd(2, worker))

    def test_communicator_default_policy_applies(self):
        n = 40

        def worker(rt):
            comm = Communicator(rt, policy=ConsistencyPolicy.data_threshold(0.5))
            buf = np.ones(n) if comm.rank == 0 else np.zeros(n)
            result = comm.bcast(buf, root=0)
            return comm.rank, result.elements_received

        for rank, received in spmd(4, worker):
            assert received == (n if rank == 0 else n // 2)

    def test_mpi_baseline_executes_through_the_same_dispatch(self):
        n = 96

        def worker(rt):
            comm = Communicator(rt)
            out = comm.allreduce(
                rank_vector(comm.rank, n), algorithm="mpi_allreduce_mpi8_ring"
            )
            assert comm.last_result.algorithm == "mpi_allreduce_mpi8_ring"
            return out

        for out in spmd(4, worker):
            assert np.allclose(out, expected_sum(4, n))

    def test_mpi_baseline_rejects_wrong_dtype(self):
        def worker(rt):
            comm = Communicator(rt)
            with pytest.raises(ValueError, match="float64"):
                comm.allreduce(
                    np.ones(8, dtype=np.float32),
                    algorithm="mpi_allreduce_mpi8_ring",
                )
            return True

        assert all(spmd(2, worker))

    def test_v1_positional_threshold_gets_a_migration_error(self):
        """A bare float in the policy slot must fail with a clear hint,
        not an AttributeError deep inside capability checking."""

        def worker(rt):
            comm = Communicator(rt)
            with pytest.raises(TypeError, match="ConsistencyPolicy"):
                comm.bcast(np.ones(8), 0, 0.25)  # v1: threshold was 3rd arg
            return True

        assert all(spmd(1, worker))

    def test_unknown_family_rejected_at_construction(self):
        def worker(rt):
            with pytest.raises(ValueError, match="family"):
                Communicator(rt, family="nccl")
            return True

        assert all(spmd(1, worker))

    def test_mpi_auto_family_is_executable_end_to_end(self):
        """With family='mpi', auto must fall back to executable entries
        where the Intel-preferred variant is schedule-only."""
        n = (ALLREDUCE_SMALL // 8) + 64  # medium payload: rabenseifner is
        # the simulation pick, but it has no runner

        def worker(rt):
            comm = Communicator(rt, family="mpi")
            out = comm.allreduce(rank_vector(comm.rank, n))
            return out, comm.last_result.algorithm

        for out, algorithm in spmd(4, worker):
            assert algorithm == "mpi_allreduce_mpi8_ring"
            assert np.allclose(out, expected_sum(4, n))

    def test_mpi_alltoall_runner_rejects_alltoallv(self):
        def worker(rt):
            comm = Communicator(rt)
            counts = [2] * comm.size
            with pytest.raises(ValueError, match="uniform blocks"):
                comm.alltoallv(
                    np.ones(2 * comm.size),
                    counts,
                    counts,
                    algorithm="mpi_alltoall_pairwise",
                )
            return True

        assert all(spmd(2, worker))

    def test_simulator_backend_attaches_schedule_times(self):
        from repro.simulate import skylake_fdr

        def worker(rt):
            comm = Communicator(rt, machine=skylake_fdr(4))
            comm.allreduce(np.ones(64))
            first = comm.last_result
            assert first.simulated is not None
            assert first.simulated.num_ranks == comm.size
            assert first.simulated_seconds > 0
            return first.simulated_seconds

        times = spmd(4, worker)
        assert len(set(times)) == 1  # deterministic model, same on every rank
