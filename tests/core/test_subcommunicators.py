"""Tests for sub-communicators: split()/dup() and the group runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communicator, run_spmd
from repro.gaspi import GaspiInvalidArgumentError, GroupRuntime, ThreadedWorld

from tests.helpers import expected_sum, rank_vector, spmd


class TestGroupRuntime:
    def test_rank_and_size_are_group_local(self):
        world = ThreadedWorld(4)
        try:
            sub = GroupRuntime(world.runtime(2), [1, 2, 3])
            assert sub.rank == 1
            assert sub.size == 3
            assert sub.to_base_rank(0) == 1
            assert sub.to_base_rank(2) == 3
        finally:
            world.close()

    def test_non_member_construction_rejected(self):
        world = ThreadedWorld(4)
        try:
            with pytest.raises(GaspiInvalidArgumentError, match="not part"):
                GroupRuntime(world.runtime(0), [1, 2])
            with pytest.raises(GaspiInvalidArgumentError, match="duplicate"):
                GroupRuntime(world.runtime(1), [1, 1, 2])
            with pytest.raises(GaspiInvalidArgumentError, match="outside"):
                GroupRuntime(world.runtime(1), [1, 7])
        finally:
            world.close()

    def test_member_order_defines_group_ranks(self):
        world = ThreadedWorld(4)
        try:
            sub = GroupRuntime(world.runtime(3), [3, 0])  # reordered on purpose
            assert sub.rank == 0
            assert sub.to_base_rank(1) == 0
        finally:
            world.close()


class TestSplit:
    def test_split_sum_covers_only_the_color_group(self):
        """The acceptance-criterion case: group-local reductions."""
        n = 64

        def worker(rt):
            comm = Communicator(rt)
            sub = comm.split(comm.rank % 2, key=comm.rank)
            assert sub is not None
            total = sub.allreduce(rank_vector(comm.rank, n))
            return comm.rank, sub.rank, sub.size, total

        results = spmd(6, worker)
        for world_rank, sub_rank, sub_size, total in results:
            group = [r for r in range(6) if r % 2 == world_rank % 2]
            assert sub_size == 3
            assert sub_rank == group.index(world_rank)
            expected = np.sum([rank_vector(r, n) for r in group], axis=0)
            assert np.allclose(total, expected)

    def test_split_key_reorders_group_ranks(self):
        def worker(rt):
            comm = Communicator(rt)
            # Reverse the ordering: highest world rank becomes group rank 0.
            sub = comm.split(0, key=comm.size - comm.rank)
            return comm.rank, sub.rank

        for world_rank, sub_rank in spmd(4, worker):
            assert sub_rank == 3 - world_rank

    def test_color_none_opts_out(self):
        def worker(rt):
            comm = Communicator(rt)
            sub = comm.split(7 if comm.rank < 2 else None)
            if comm.rank < 2:
                assert sub is not None and sub.size == 2
                out = sub.allreduce(np.full(8, float(comm.rank + 1)))
                return float(out[0])
            assert sub is None
            return None

        results = spmd(4, worker)
        assert results[:2] == [3.0, 3.0] and results[2:] == [None, None]

    def test_parent_remains_usable_and_interleaves_with_children(self):
        n = 32

        def worker(rt):
            comm = Communicator(rt)
            sub = comm.split(comm.rank // 2)
            sub_total = sub.allreduce(rank_vector(comm.rank, n))
            world_total = comm.allreduce(rank_vector(comm.rank, n))
            sub_total2 = sub.allreduce(np.full(4, 1.0))
            return sub_total, world_total, float(sub_total2[0])

        for world_rank, (sub_total, world_total, again) in enumerate(spmd(4, worker)):
            pair = [world_rank & ~1, world_rank | 1]
            assert np.allclose(
                sub_total, np.sum([rank_vector(r, n) for r in pair], axis=0)
            )
            assert np.allclose(world_total, expected_sum(4, n))
            assert again == 2.0

    def test_nested_split(self):
        def worker(rt):
            comm = Communicator(rt)
            half = comm.split(comm.rank // 4)  # two groups of 4
            quarter = half.split(half.rank // 2)  # four groups of 2
            out = quarter.allreduce(np.full(4, float(comm.rank)))
            return quarter.size, float(out[0])

        for world_rank, (size, total) in enumerate(spmd(8, worker)):
            partner = world_rank ^ 1
            assert size == 2
            assert total == float(world_rank + partner)

    def test_sub_communicator_collectives_beyond_allreduce(self):
        def worker(rt):
            comm = Communicator(rt)
            sub = comm.split(comm.rank % 2)
            # bcast from group root (group rank 0)
            buf = np.full(10, 42.0) if sub.rank == 0 else np.zeros(10)
            sub.bcast(buf, root=0)
            # group allgather
            gathered = sub.allgather(np.full(2, float(comm.rank)))
            sub.barrier()
            return buf, gathered

        for world_rank, (buf, gathered) in enumerate(spmd(4, worker)):
            assert np.all(buf == 42.0)
            group = [r for r in range(4) if r % 2 == world_rank % 2]
            assert np.allclose(gathered, np.repeat([float(r) for r in group], 2))

    def test_ssp_allreduce_on_power_of_two_subgroup(self):
        """SSP needs 2^k ranks; a split can carve that out of a 6-rank world."""

        def worker(rt):
            comm = Communicator(rt)
            sub = comm.split(0 if comm.rank < 4 else None)
            if sub is None:
                return None
            result = sub.allreduce_ssp(np.full(8, float(comm.rank + 1)), slack=0)
            sub.close()
            return float(result.value[0])

        results = run_spmd(6, worker, timeout=60)
        assert results[:4] == [10.0] * 4 and results[4:] == [None, None]

    def test_split_leaves_the_callers_dispatch_state_alone(self):
        """split()'s exchange is a cold call outside the dispatch: what the
        caller's last collective recorded stays what it reads."""

        def worker(rt):
            comm = Communicator(rt)
            comm.allreduce(np.ones(16))
            result, segment_id = comm.last_result, comm.last_segment_id
            stats = comm.plan_cache_stats()
            sub = comm.split(0)
            same = (
                comm.last_result is result
                and comm.last_segment_id == segment_id
                and comm.plan_cache_stats() == stats
            )
            sub.close()
            comm.close()
            return same

        assert all(spmd(4, worker))

    def test_split_color_validation(self):
        def worker(rt):
            comm = Communicator(rt)
            with pytest.raises(ValueError, match="color"):
                comm.split("red")
            return True

        assert all(spmd(1, worker))


class TestDup:
    def test_dup_preserves_rank_order_and_works(self):
        n = 16

        def worker(rt):
            comm = Communicator(rt)
            other = comm.dup()
            assert (other.rank, other.size) == (comm.rank, comm.size)
            assert other.is_subcommunicator
            a = comm.allreduce(rank_vector(comm.rank, n))
            b = other.allreduce(rank_vector(comm.rank, n))
            return np.allclose(a, b) and np.allclose(a, expected_sum(comm.size, n))

        assert all(spmd(4, worker))


class TestSimulatorBackend:
    def test_split_reductions_on_the_simulator_backend(self):
        """Acceptance criterion: group-local reductions with the schedule
        executor driving the chosen algorithm on a machine model."""
        from repro.simulate import skylake_fdr

        n = 48

        def worker(rt):
            comm = Communicator(rt, machine=skylake_fdr(8))
            sub = comm.split(comm.rank % 2, key=comm.rank)
            total = sub.allreduce(rank_vector(comm.rank, n))
            result = sub.last_result
            assert result.simulated is not None
            # the schedule simulated is the *group's*, not the world's
            assert result.simulated.num_ranks == sub.size == 4
            assert result.simulated_seconds > 0
            return comm.rank, total, result.algorithm, result.simulated_seconds

        results = spmd(8, worker)
        times = set()
        for world_rank, total, algorithm, seconds in results:
            group = [r for r in range(8) if r % 2 == world_rank % 2]
            expected = np.sum([rank_vector(r, n) for r in group], axis=0)
            assert np.allclose(total, expected)
            assert algorithm == "gaspi_allreduce_ssp_hypercube"  # 384 B is small
            times.add(seconds)
        assert len(times) == 1

    def test_simulated_time_tracks_policy(self):
        """A 25% data threshold must show up as a cheaper simulated bcast."""
        from repro.simulate import skylake_fdr

        from repro.core import ConsistencyPolicy

        def worker(rt):
            comm = Communicator(rt, machine=skylake_fdr(4))
            buf = np.ones(100_000) if comm.rank == 0 else np.zeros(100_000)
            comm.bcast(buf, root=0, policy=ConsistencyPolicy.data_threshold(0.25))
            partial = comm.last_result.simulated_seconds
            buf2 = np.ones(100_000) if comm.rank == 0 else np.zeros(100_000)
            comm.bcast(buf2, root=0)
            full = comm.last_result.simulated_seconds
            return partial, full

        for partial, full in spmd(4, worker):
            assert partial < full
