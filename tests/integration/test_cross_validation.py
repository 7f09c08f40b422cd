"""Integration tests: GASPI collectives vs MPI baselines vs NumPy references.

The GASPI collectives and the functional MPI baselines are independent
implementations running on the same runtime; agreeing with each other and
with a direct NumPy reduction is strong evidence both are correct.
"""

import numpy as np
import pytest

from repro.core import Communicator
from repro.mpi import TwoSidedLayer
from repro.mpi.allreduce_variants import recursive_doubling_allreduce, ring_allreduce_twosided

from tests.helpers import expected_sum, rank_vector, spmd


class TestAllreduceAgreement:
    @pytest.mark.parametrize("num_ranks", [2, 4, 8])
    def test_three_allreduce_implementations_agree(self, num_ranks):
        n = 97

        def worker(rt):
            data = rank_vector(rt.rank, n)
            with Communicator(rt) as comm:
                gaspi_ring = comm.allreduce(data, algorithm="ring")
                gaspi_ssp = comm.allreduce_ssp(data, slack=0).value
            with TwoSidedLayer(rt, max_elements=n) as layer:
                mpi_rd = recursive_doubling_allreduce(layer, data)
            return gaspi_ring, gaspi_ssp, mpi_rd

        results = spmd(num_ranks, worker)
        reference = expected_sum(num_ranks, n)
        for gaspi_ring, gaspi_ssp, mpi_rd in results:
            assert np.allclose(gaspi_ring, reference)
            assert np.allclose(gaspi_ssp, reference)
            assert np.allclose(mpi_rd, reference)
            assert np.allclose(gaspi_ring, mpi_rd)

    @pytest.mark.parametrize("num_ranks", [3, 5])
    def test_gaspi_ring_matches_mpi_ring_non_power_of_two(self, num_ranks):
        n = 64

        def worker(rt):
            data = rank_vector(rt.rank, n)
            with Communicator(rt) as comm:
                out = comm.allreduce(data, algorithm="ring")
            with TwoSidedLayer(rt, max_elements=n) as layer:
                mpi_ring = ring_allreduce_twosided(layer, data)
            return out, mpi_ring

        for out, mpi_ring in spmd(num_ranks, worker):
            assert np.allclose(out, mpi_ring)


class TestCollectiveComposition:
    def test_reduce_then_bcast_equals_allreduce(self):
        """Composing the paper's Reduce and Broadcast reproduces Allreduce."""
        n = 80

        def worker(rt):
            comm = Communicator(rt)
            data = rank_vector(rt.rank, n)
            reduced = np.zeros(n)
            comm.reduce(data, reduced, root=0)
            comm.bcast(reduced, root=0)
            allreduced = comm.allreduce(data, algorithm="ring")
            return reduced, allreduced

        for reduced, allreduced in spmd(4, worker):
            assert np.allclose(reduced, allreduced)

    def test_alltoall_transpose_roundtrip(self):
        """Two alltoall transposes restore the original block layout."""

        def worker(rt):
            comm = Communicator(rt)
            block = 4
            send = np.arange(comm.size * block, dtype=np.float64) + 100 * comm.rank
            once = comm.alltoall(send)
            twice = comm.alltoall(once)
            return np.array_equal(twice, send)

        assert all(spmd(4, worker))

    def test_allgather_consistent_with_alltoall_of_replicas(self):
        def worker(rt):
            comm = Communicator(rt)
            block = np.full(3, float(comm.rank))
            gathered = comm.allgather(block)
            replicated = np.tile(block, comm.size)
            via_alltoall = comm.alltoall(replicated)
            return np.array_equal(gathered, via_alltoall)

        assert all(spmd(4, worker))

    def test_mixed_collectives_in_one_program(self):
        """A longer SPMD program exercising most of the API in sequence."""

        def worker(rt):
            comm = Communicator(rt)
            model = np.zeros(50)
            if comm.rank == 0:
                model = np.linspace(0.0, 1.0, 50)
            comm.bcast(model, root=0)
            for it in range(3):
                grad = rank_vector(comm.rank, 50) * (it + 1)
                total = comm.allreduce(grad, algorithm="ring")
                model = model - 0.1 * total / comm.size
            ssp = comm.allreduce_ssp(model, slack=1)
            stats = comm.reduce(model, np.zeros(50), root=0)
            comm.barrier()
            return model, ssp.value

        results = spmd(4, worker)
        models = [m for m, _ in results]
        for m in models[1:]:
            assert np.allclose(m, models[0])
