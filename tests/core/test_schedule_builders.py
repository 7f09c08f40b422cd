"""Structural tests of the GASPI collective schedule builders."""

import numpy as np
import pytest

from repro.core import (
    REGISTRY,
    ConsistencyPolicy,
    Protocol,
    alltoall_schedule,
    bst_bcast_schedule,
    bst_reduce_schedule,
    dissemination_barrier_schedule,
    flat_bcast_schedule,
    hypercube_allreduce_schedule,
    pipelined_bst_bcast_schedule,
    pipelined_bst_reduce_schedule,
    ring_allgather_schedule,
    ring_allreduce_schedule,
)
from repro.core.policy import documented_result
from repro.core.reduce import ReduceMode
from repro.faults import tolerant_bcast_schedule


class TestBcastSchedule:
    def test_round_count_is_log_p(self):
        sched = bst_bcast_schedule(32, 8000, include_acks=False)
        assert sched.num_rounds == 5

    def test_every_non_root_receives_once(self):
        sched = bst_bcast_schedule(16, 1000, include_acks=False)
        receivers = [m.dst for m in sched.messages()]
        assert sorted(receivers) == list(range(1, 16))

    def test_threshold_scales_bytes(self):
        full = bst_bcast_schedule(8, 8000, threshold=1.0, include_acks=False)
        quarter = bst_bcast_schedule(8, 8000, threshold=0.25, include_acks=False)
        assert quarter.total_bytes() == pytest.approx(full.total_bytes() * 0.25, rel=0.01)

    def test_ack_round_has_zero_bytes(self):
        sched = bst_bcast_schedule(8, 1000, include_acks=True)
        assert sched.rounds[-1].label == "leaf-acks"
        assert sched.rounds[-1].total_bytes() == 0

    def test_single_rank_schedule_is_empty(self):
        assert bst_bcast_schedule(1, 1000).total_messages() == 0


class TestShippedBytesAreTheDocumentedPrefix:
    """A data-threshold schedule ships the bytes of the elements the
    documented result delivers, so simulated timings are for real payloads."""

    BUILDERS = {
        "bst_bcast": (bst_bcast_schedule, "bcast"),
        "flat_bcast": (flat_bcast_schedule, "bcast"),
        "pipelined_bcast": (pipelined_bst_bcast_schedule, "bcast"),
        "tolerant_bcast": (tolerant_bcast_schedule, "bcast"),
        "bst_reduce": (bst_reduce_schedule, "reduce"),
        "pipelined_reduce": (pipelined_bst_reduce_schedule, "reduce"),
    }

    @pytest.mark.parametrize("threshold", [0.25, 0.3, 0.5])
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_shipped_bytes_match_the_documented_result(self, builder, threshold):
        ranks, nbytes = 4, 256
        build, collective = self.BUILDERS[builder]
        elements = nbytes // 8
        inputs = [np.arange(1.0, elements + 1) * (rank + 1) for rank in range(ranks)]
        before = [np.zeros(elements) for _ in range(ranks)]
        owed = documented_result(
            collective, ConsistencyPolicy.data_threshold(threshold), inputs, before=before
        )
        delivered = np.count_nonzero(owed[1 if collective == "bcast" else 0])
        shipped = build(ranks, nbytes, threshold=threshold).metadata["shipped_bytes"]
        assert shipped == delivered * 8


class TestReduceSchedule:
    def test_data_mode_scales_bytes(self):
        full = bst_reduce_schedule(16, 80_000, threshold=1.0, include_handshake=False)
        quarter = bst_reduce_schedule(16, 80_000, threshold=0.25, include_handshake=False)
        assert quarter.total_bytes() == pytest.approx(full.total_bytes() / 4, rel=0.01)

    def test_every_message_reduced_at_destination(self):
        sched = bst_reduce_schedule(8, 1000, include_handshake=False)
        assert all(m.reduce_bytes == m.nbytes for m in sched.messages())

    def test_process_mode_reduces_message_count_not_size(self):
        full = bst_reduce_schedule(32, 8000, threshold=1.0, mode=ReduceMode.PROCESSES,
                                   include_handshake=False)
        half = bst_reduce_schedule(32, 8000, threshold=0.5, mode=ReduceMode.PROCESSES,
                                   include_handshake=False)
        assert half.total_messages() < full.total_messages()
        assert all(m.nbytes == 8000 for m in half.messages())

    def test_process_mode_participant_metadata(self):
        sched = bst_reduce_schedule(32, 8000, threshold=0.25, mode="processes",
                                    include_handshake=False)
        assert sched.metadata["participants"] >= 8

    def test_handshake_rounds_present(self):
        sched = bst_reduce_schedule(8, 1000, include_handshake=True)
        labels = [r.label for r in sched.rounds]
        assert labels[0] == "ready" and labels[-1] == "ack"


class TestRingSchedules:
    def test_allreduce_round_count(self):
        sched = ring_allreduce_schedule(8, 64_000)
        assert sched.num_rounds == 2 * 7

    def test_allreduce_total_bytes_about_2n_per_rank(self):
        n = 80_000
        P = 10
        sched = ring_allreduce_schedule(P, n)
        # every rank injects ~2 * (P-1)/P * n bytes
        assert sched.bytes_sent_by(0) == pytest.approx(2 * (P - 1) / P * n, rel=0.02)

    def test_phase_barriers_flag(self):
        plain = ring_allreduce_schedule(4, 1000, phase_barriers=False)
        synced = ring_allreduce_schedule(4, 1000, phase_barriers=True)
        assert not any(r.barrier_after for r in plain.rounds)
        assert sum(r.barrier_after for r in synced.rounds) == 2

    def test_scatter_reduce_rounds_have_reduction(self):
        sched = ring_allreduce_schedule(4, 4000)
        first_phase = sched.rounds[: 3]
        second_phase = sched.rounds[3:]
        assert all(m.reduce_bytes > 0 for r in first_phase for m in r.messages)
        assert all(m.reduce_bytes == 0 for r in second_phase for m in r.messages)

    def test_segment_messages_split(self):
        sched = ring_allreduce_schedule(4, 4000, segment_messages=4)
        assert len(sched.rounds[0].messages) >= 4 * 4 - 3

    def test_allgather_schedule(self):
        sched = ring_allgather_schedule(6, 500)
        assert sched.num_rounds == 5
        assert sched.total_messages() == 5 * 6

    def test_single_rank(self):
        assert ring_allreduce_schedule(1, 100).num_rounds == 0


class TestHypercubeAndAlltoAll:
    def test_hypercube_rounds_and_bytes(self):
        sched = hypercube_allreduce_schedule(8, 1000)
        assert sched.num_rounds == 3
        # every rank sends the full vector every round
        assert sched.bytes_sent_by(0) == 3000

    def test_hypercube_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            hypercube_allreduce_schedule(6, 100)

    def test_alltoall_one_round_all_pairs(self):
        sched = alltoall_schedule(8, 4096)
        assert sched.num_rounds == 1
        assert sched.total_messages() == 8 * 7
        assert all(m.protocol is Protocol.ONESIDED for m in sched.messages())

    def test_barrier_schedule_zero_bytes(self):
        sched = dissemination_barrier_schedule(16)
        assert sched.num_rounds == 4
        assert sched.total_bytes() == 0


class TestRegistry:
    def test_core_algorithms_registered(self):
        for name in (
            "gaspi_bcast_bst",
            "gaspi_reduce_bst",
            "gaspi_allreduce_ring",
            "gaspi_alltoall",
            "gaspi_allreduce_ssp_hypercube",
        ):
            assert name in REGISTRY

    def test_mpi_algorithms_registered_via_import(self):
        import repro.mpi  # noqa: F401

        assert len(REGISTRY.names(family="mpi")) >= 16
        assert "mpi_allreduce_mpi7_shumilin_ring" in REGISTRY

    def test_build_by_name(self):
        sched = REGISTRY.build("gaspi_bcast_bst", 8, 800, threshold=0.5)
        assert sched.num_ranks == 8
        assert sched.metadata["threshold"] == 0.5

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            REGISTRY.get("no_such_algorithm")

    def test_duplicate_registration_rejected(self):
        from repro.core.registry import AlgorithmRegistry

        reg = AlgorithmRegistry()
        reg.register("x", "bcast", "gaspi", lambda p, n: None)
        with pytest.raises(ValueError):
            reg.register("x", "bcast", "gaspi", lambda p, n: None)
        reg.register("x", "bcast", "gaspi", lambda p, n: None, overwrite=True)

    def test_names_filtering(self):
        bcast_names = REGISTRY.names(collective="bcast")
        assert all("bcast" in n for n in bcast_names)
        gaspi_names = REGISTRY.names(family="gaspi")
        assert all(n.startswith("gaspi") for n in gaspi_names)


class TestCompression:
    def test_threshold_compressor_drops_small_values(self):
        import numpy as np

        from repro.core import ThresholdCompressor, compression_error

        vec = np.array([0.01, -5.0, 0.001, 3.0, -0.02])
        comp = ThresholdCompressor(0.1).compress(vec)
        assert comp.nnz == 2
        dense = comp.decompress()
        assert dense[1] == -5.0 and dense[3] == 3.0 and dense[0] == 0.0
        assert 0.0 < compression_error(vec, comp) < 0.02

    def test_topk_keeps_largest(self):
        import numpy as np

        from repro.core import TopKCompressor

        vec = np.array([1.0, -9.0, 3.0, 0.5, 7.0])
        comp = TopKCompressor(2).compress(vec)
        assert set(comp.indices.tolist()) == {1, 4}
        assert comp.compression_ratio > 1.0

    def test_topk_with_k_larger_than_vector(self):
        import numpy as np

        from repro.core import TopKCompressor

        comp = TopKCompressor(10).compress(np.arange(4.0))
        assert comp.nnz == 4
        assert comp.decompress().tolist() == [0.0, 1.0, 2.0, 3.0]
